"""Concrete 4x4 Dirac matrices and residual-reporting identity checks.

The basis is the standard Dirac-Pauli representation

    alpha_i = [[0, sigma_i], [sigma_i, 0]],   beta = diag(1, 1, -1, -1),

whose entries are exact small integers (0, +-1, +-i), so the anticommutation
residuals are exactly zero in floating point.  Every identity tested is
representation independent; the choice is documentation only.

``slash_square`` squares the operator beta*eps + c alpha.p.  The
anticommutation relations force the square to (eps^2 + c^2 p^2) I.  The
alternative reading of the operator as a literal matrix square root of the
interaction invariant e^2 A_mu^2 = -(eps^2 - c^2 p^2) does not close: the
deviation is computed and reported as ``sqrt_identity_residual`` rather than
reconciled, since the two candidate sign conventions disagree.
"""

from __future__ import annotations

import numpy as np

_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

_I4 = np.eye(4, dtype=complex)


def dirac_basis() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(alpha1, alpha2, alpha3, beta) in the Dirac-Pauli representation."""
    alphas = []
    for s in _SIGMA:
        a = np.zeros((4, 4), dtype=complex)
        a[:2, 2:] = s
        a[2:, :2] = s
        alphas.append(a)
    beta = np.diag([1, 1, -1, -1]).astype(complex)
    return alphas[0], alphas[1], alphas[2], beta


def anticommutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b + b @ a


def slash_square(eps: float, p, c: float) -> tuple[np.ndarray, float]:
    """Square (beta eps + c alpha.p) and report both readings.

    Returns (M, sqrt_identity_residual) where M = (eps^2 + c^2 |p|^2) I up
    to floating multiplication, and the residual is the Frobenius norm of
    M - (c^2 |p|^2 - eps^2) I, i.e. the defect of treating the operator as
    an exact square root of the (negated) potential-square invariant.
    """
    p = np.asarray(p, dtype=float)
    a1, a2, a3, beta = dirac_basis()
    op = beta * eps + c * (a1 * p[0] + a2 * p[1] + a3 * p[2])
    M = op @ op
    negated_invariant = (c**2 * float(p @ p) - eps**2)
    residual = float(np.linalg.norm(M - negated_invariant * _I4))
    return M, residual


def mass_term(m: float, c: float) -> np.ndarray:
    """beta m c^2; anticommutes with each c alpha_i and squares to (m c^2)^2 I."""
    if m < 0:
        raise ValueError(f"mass must be >= 0, got {m}")
    _, _, _, beta = dirac_basis()
    return beta * (m * c**2)


def identity_report() -> list[dict]:
    """Pass/fail residual table for the algebraic identities (CLI `dirac`).

    Anticommutation residuals are exact zeros; the squared-operator check
    uses the fixed probe (eps, p) = (3, (1, 2, 3)), for which the square is
    23 I while the negated potential-square invariant is 5, leaving the
    documented nonzero square-root defect of Frobenius norm 36.
    """
    a1, a2, a3, beta = dirac_basis()
    mats = {"alpha1": a1, "alpha2": a2, "alpha3": a3, "beta": beta}
    rows = []

    def add(name: str, residual: float, expected_zero: bool = True):
        rows.append({
            "identity": name,
            "residual": float(residual),
            "pass": bool(residual == 0.0) if expected_zero else True,
            "expected_zero": expected_zero,
        })

    names = list(mats)
    for i, ni in enumerate(names[:3]):
        for nj in names[i:3]:
            target = 2.0 * _I4 if ni == nj else 0.0
            add(f"{{{ni},{nj}}} = {'2I' if ni == nj else '0'}",
                np.linalg.norm(anticommutator(mats[ni], mats[nj]) - target))
    for ni in names[:3]:
        add(f"{{{ni},beta}} = 0", np.linalg.norm(anticommutator(mats[ni], beta)))
    add("beta^2 = I", np.linalg.norm(beta @ beta - _I4))
    for name, mat in mats.items():
        add(f"{name} hermitian", np.linalg.norm(mat - mat.conj().T))

    eps, p = 3.0, (1.0, 2.0, 3.0)
    M, sqrt_residual = slash_square(eps, p, c=1.0)
    add("(beta*eps + c alpha.p)^2 = (eps^2 + c^2 p^2) I at (3,(1,2,3)), c=1",
        np.linalg.norm(M - 23.0 * _I4))
    add("square-root reading defect (reported, nonzero expected)",
        sqrt_residual, expected_zero=False)
    return rows
