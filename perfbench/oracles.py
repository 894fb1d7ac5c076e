"""Independent oracles for nled results.

Every check compares a result with a closed form, an elliptic integral, a
field-space quadrature or an exact identity computed here, with no nled code
involved, at the tolerances pinned by the acceptance criteria.  A check
returns {oracle key: worst relative error} and raises OracleFailure when a
value is outside its tolerance.  The keys ``field``, ``phi``, ``charge``,
``energy``, ``laue`` and ``identity`` feed the benchmark's accuracy metrics;
the others are checked and recorded only.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import ellipk, ellipkinc, gamma

FOUR_PI = 4.0 * math.pi
E0_REF = 9.18e15                  # statvolt/cm, the 1934 limiting field
HISTORICAL_E = 4.77e-10           # esu, constants preset historical1934
HISTORICAL_ME = 9.1094e-28        # g
HISTORICAL_C = 2.9979e10          # cm/s
BI_ENERGY_CONSTANT = float(gamma(0.25) ** 2 / (6.0 * math.sqrt(math.pi)))
PHI0_LITERATURE = 1.8540746773    # Born-Infeld phi(0) in units of e/r0
PHI0_EXACT = float(ellipk(0.5))   # the same value to full precision

# Pinned acceptance tolerances (criterion number in parentheses).
TOL_FIELD = 1e-10        # (3) E(r) against its closed form
TOL_CHARGE = 1e-6        # (4) integral of rho dV against e
TOL_RHO = 1e-5           # (4) rho(r) away from the stencil edges
TOL_ENERGY = 1e-6        # (5) C against Gamma(1/4)^2 / (6 sqrt(pi))
TOL_ENERGY_5DIGIT = 1e-4  # (5) C against 1.23605
TOL_LAUE = 1e-8          # (6) |trace| / U without a cutoff
TOL_LAUE_CUTOFF = 1e-6   # (6) trace against its value with a cutoff
TOL_STRESS_DIV = 1e-5    # (7) radial stress-divergence residual
TOL_TAYLOR = 1e-2        # (8) small-field coefficient ratios
TOL_FIERZ = 1e-12        # (9)
TOL_BOOST = 1e-10        # (9)
TOL_FORMS = 1e-12        # (10)
TOL_EM_IDENTITY = 1e-12  # (10)
TOL_BOOSTED = 1e-10      # (10)
TOL_BOUNDARY = 1e-6      # (12) log-model inversion boundary at sqrt(2) r0
TOL_PHI = 1e-12          # phi(r) against the elliptic-integral form
TOL_PHI_LITERATURE = 1e-10  # phi(0) against the 11-digit literature value
TOL_ALGEBRAIC = 1e-10    # quantities algebraic in E (u, eps), as criterion 3

DIRAC_DEFECT = 36.0      # documented square-root reading defect (11)

ACCURACY_KEYS = ("field", "phi", "charge", "energy", "laue", "identity")


class OracleFailure(AssertionError):
    """A result outside its oracle tolerance."""


def _within(label: str, err: float, tol: float) -> float:
    err = float(err)
    if not err <= tol:  # also catches nan
        raise OracleFailure(f"{label}: error {err:.3e} exceeds {tol:.0e}")
    return err


def _max_rel(values, reference) -> float:
    return float(np.max(np.abs(np.asarray(values) / np.asarray(reference) - 1.0)))


def require(cond: bool, message: str) -> None:
    if not cond:
        raise OracleFailure(message)


# ---------------------------------------------------------------------------
# radial profiles

def _interior_stress_residual(r, u, E, D, log_spaced: bool) -> float:
    """max |dT_rr/dr + (2/r)(T_rr - T_thth)| / max(|dT_rr/dr| + |...|).

    Eighth-order central differences on the grid's uniform coordinate,
    interior points only; T_rr - T_thth = E D / 4 pi.
    """
    w = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0,
                  4 / 5, -1 / 5, 4 / 105, -1 / 280])
    coord = np.log(r) if log_spaced else r
    h = coord[1] - coord[0]
    n = r.size
    dT = sum(w[k] * u[k:n - 8 + k] for k in range(9)) / h
    ri = r[4:-4]
    if log_spaced:
        dT = dT / ri
    geom = (2.0 / ri) * (E[4:-4] * D[4:-4] / FOUR_PI)
    scale = float(np.max(np.abs(dT) + np.abs(geom)))
    return float(np.max(np.abs(dT + geom)) / scale)


def born_infeld_profile(e, E0, r, D, E, rho, eps, u, phi, log_spaced: bool,
                        with_charge: bool) -> dict:
    """Born-Infeld profile arrays against their closed forms.

    E = e / sqrt(r^4 + r0^4), phi = (e/r0) F(2 arctan(r0/r) | 1/2) / 2 (the
    arctan form keeps full precision at large r), rho = e r0^4 /
    (2 pi r (r^4 + r0^4)^(3/2)), and u, eps algebraic in those.
    """
    r0 = math.sqrt(e / E0)
    S = np.sqrt(r**4 + r0**4)
    lag = (E0**2 / FOUR_PI) * r0**4 / (S * (S + r**2))  # L, cancellation-free
    errs = {
        "displacement": _within("D = e/r^2", _max_rel(D, e / r**2), 1e-15),
        "field": _within("BI E(r)", _max_rel(E, e / S), TOL_FIELD),
        "phi": _within("BI phi(r)", _max_rel(
            phi, (e / r0) * 0.5 * ellipkinc(2.0 * np.arctan(r0 / r), 0.5)), TOL_PHI),
        "rho": _within("BI rho(r)", _max_rel(
            rho[4:-4], (e * r0**4 / (2.0 * math.pi * r * S**3))[4:-4]), TOL_RHO),
        "eps": _within("BI eps(r)", _max_rel(eps, S / r**2), TOL_ALGEBRAIC),
        "u": _within("BI u(r)", _max_rel(u, e**2 / (FOUR_PI * r**2 * S) - lag),
                     TOL_ALGEBRAIC),
    }
    if log_spaced:
        # criterion 7 is pinned on log grids; a linear grid starting at
        # 0.01 r0 does not resolve u ~ r^-2 near the center
        errs["stress_div"] = _within("BI stress divergence", _interior_stress_residual(
            r, u, E, D, log_spaced), TOL_STRESS_DIV)
    if with_charge:
        require(log_spaced, "charge recovery is checked on log grids only")
        q = np.trapezoid(rho * FOUR_PI * r**3, np.log(r))
        errs["charge"] = _within("integral of rho dV / e", abs(q / e - 1.0), TOL_CHARGE)
    return errs


def _ls_field(D, E0):
    """Lower (weak-field-connected) root of D = E / (1 + E^2/E0^2)."""
    return 2.0 * D / (1.0 + np.sqrt(1.0 - 4.0 * (D / E0) ** 2))


def log_model_profile(e, E0, r, D, E, eps, u, phi, boundary) -> dict:
    """Log-model profile: the sqrt(2) r0 inversion boundary, the closed-form
    lower root, and phi at sample radii by quadrature of that root."""
    r0 = math.sqrt(e / E0)
    r_b = math.sqrt(2.0) * r0
    require(boundary is not None, "log-model profile reports no inversion boundary")
    require(bool(r[0] > r_b), "log-model profile keeps radii below the boundary")
    Ec = _ls_field(e / r**2, E0)
    errs = {
        "boundary": _within("log-model boundary / sqrt(2) r0", abs(boundary / r_b - 1.0),
                            TOL_BOUNDARY),
        "displacement": _within("D = e/r^2", _max_rel(D, e / r**2), 1e-15),
        "field_log": _within("log-model E(r)", _max_rel(E, Ec), TOL_FIELD),
        "eps": _within("log-model eps(r)", _max_rel(eps, (e / r**2) / Ec), TOL_ALGEBRAIC),
        "u": _within("log-model u(r)", _max_rel(
            u, Ec * (e / r**2) / FOUR_PI - (E0**2 / (2 * FOUR_PI)) * np.log1p((Ec / E0) ** 2)),
            TOL_ALGEBRAIC),
    }
    worst = 0.0
    for i in sorted({0, 1, r.size // 4, r.size // 2, r.size - 1}):
        ri = float(r[i])
        # phi(r_i) = integral of E over [r_i, inf), with r = r_i / s
        ref, _ = quad(lambda s: float(_ls_field(e / (ri / s) ** 2, E0)) * ri / s**2,
                      0.0, 1.0, epsabs=0.0, epsrel=1e-13, limit=200)
        worst = max(worst, abs(phi[i] / ref - 1.0))
    errs["phi_log"] = _within("log-model phi(r)", worst, TOL_PHI)
    return errs


def maxwell_profile(e, r, D, E, rho, eps, u, phi, log_spaced: bool) -> dict:
    """Linear theory: E = D = e/r^2, rho = 0, phi = e/r, u = e^2/(8 pi r^4)."""
    return {
        "displacement": _within("D = e/r^2", _max_rel(D, e / r**2), 1e-15),
        "field_maxwell": _within("Maxwell E(r)", _max_rel(E, e / r**2), TOL_FIELD),
        "rho_maxwell": _within("Maxwell rho(r) in units of e/(4 pi r^3)",
                               float(np.max(np.abs(rho) * FOUR_PI * r**3 / e)), TOL_RHO),
        "eps": _within("Maxwell eps(r)", float(np.max(np.abs(eps - 1.0))), TOL_ALGEBRAIC),
        "u": _within("Maxwell u(r)", _max_rel(u, e**2 / (2 * FOUR_PI * r**4)), TOL_ALGEBRAIC),
        "phi_maxwell": _within("Maxwell phi(r)", _max_rel(phi, e / r), TOL_PHI),
        "stress_div": _within("Maxwell stress divergence", _interior_stress_residual(
            r, u, E, D, log_spaced), TOL_STRESS_DIV),
    }


def born_infeld_phi0(e, E0, phi0) -> dict:
    r0 = math.sqrt(e / E0)
    _within("phi(0) against 1.8540746773 e/r0",
            abs(phi0 / (PHI0_LITERATURE * e / r0) - 1.0), TOL_PHI_LITERATURE)
    return {"phi": _within("BI phi(0)", abs(phi0 / (PHI0_EXACT * e / r0) - 1.0), TOL_PHI)}


# ---------------------------------------------------------------------------
# self-energy and stress integrals

def born_infeld_energy(e, E0, U) -> dict:
    C = U / (e**2 / math.sqrt(e / E0))
    _within("C against 1.23605", abs(C - 1.23605), TOL_ENERGY_5DIGIT)
    return {"energy": _within("C against Gamma(1/4)^2/(6 sqrt pi)",
                              abs(C / BI_ENERGY_CONSTANT - 1.0), TOL_ENERGY)}


def trace_vanishes(U, trace, key="laue") -> dict:
    """von Laue: the stress trace of a finite-energy soliton integrates to 0."""
    return {key: _within("|trace| / U", abs(trace) / U, TOL_LAUE)}


def field_space_energy(e, D, dD, L, E_hi, E_scale) -> float:
    """U = integral of u dV over the radii where the field is below E_hi.

    With D(r) = e/r^2 the volume element becomes 2 pi e^(3/2) D^(-5/2) D'(E)
    dE, so U is an integral over the field magnitude of the explicit forward
    map; no inversion is involved.  E = E_scale w^2 removes the E^(-1/2)
    endpoint behaviour; an infinite E_hi adds a tail in E = E_scale / t.
    """
    def g(E):
        d = D(E)
        return (E * d / FOUR_PI - L(E)) * 2.0 * math.pi * e**1.5 * d**-2.5 * dD(E)

    top = E_scale if math.isinf(E_hi) else E_hi
    total, _ = quad(lambda w: g(top * w * w) * 2.0 * top * w, 0.0, 1.0,
                    epsabs=0.0, epsrel=1e-13, limit=200)
    if math.isinf(E_hi):
        tail, _ = quad(lambda t: g(E_scale / t) * E_scale / t**2, 0.0, 1.0,
                       epsabs=0.0, epsrel=1e-13, limit=200)
        total += tail
    return total


def log_model_cutoff_energy(e, E0, r_c, U, trace) -> dict:
    """U by field-space quadrature; trace = -4 pi r_c^3 u(r_c), since
    r^2 (T_rr + 2 T_thth) = d(r^3 T_rr)/dr for a conserved static stress."""
    D_c = e / r_c**2
    E_c = float(_ls_field(D_c, E0))

    def lag(E):
        return (E0**2 / (2 * FOUR_PI)) * math.log1p((E / E0) ** 2)

    ref = field_space_energy(
        e, lambda E: E / (1 + (E / E0) ** 2),
        lambda E: (1 - (E / E0) ** 2) / (1 + (E / E0) ** 2) ** 2, lag, E_c, E_c)
    trace_ref = -FOUR_PI * r_c**3 * (E_c * D_c / FOUR_PI - lag(E_c))
    return {
        "energy_log": _within("log-model U with cutoff", abs(U / ref - 1.0), TOL_ENERGY),
        "laue_log": _within("log-model trace with cutoff", abs(trace / trace_ref - 1.0),
                            TOL_LAUE_CUTOFF),
    }


def polynomial_energy(e, alpha, xi, U) -> dict:
    """L = E^2/8pi + alpha E^4 + xi E^6 at H = 0, U by field-space quadrature."""
    ref = field_space_energy(
        e,
        lambda E: E + 16 * math.pi * alpha * E**3 + 24 * math.pi * xi * E**5,
        lambda E: 1 + 48 * math.pi * alpha * E**2 + 120 * math.pi * xi * E**4,
        lambda E: E**2 / (2 * FOUR_PI) + alpha * E**4 + xi * E**6,
        math.inf, 1.0 / math.sqrt(16 * math.pi * alpha))
    return {"energy_polynomial": _within("polynomial U", abs(U / ref - 1.0), TOL_ENERGY)}


def maxwell_cutoff_energy(e, r_c, U, trace) -> dict:
    """Linear theory outside r_c: U = e^2/(2 r_c), trace = -U."""
    return {
        "energy_maxwell": _within("Maxwell U with cutoff", abs(U / (e**2 / (2 * r_c)) - 1.0),
                                  TOL_ENERGY),
        "laue": _within("Maxwell trace / (-e^2/2r_c)",
                        abs(trace / (-e**2 / (2 * r_c)) - 1.0), TOL_LAUE_CUTOFF),
    }


def divergent_partials(details) -> dict:
    """Maxwell without a cutoff: Divergent with its non-Cauchy partials."""
    require(isinstance(details, dict), f"expected a Divergent record, got {details!r}")
    partials = details.get("partials")
    require(isinstance(partials, list) and len(partials) >= 4,
             f"Divergent record lacks partial integrals: {details!r}")
    steps = np.diff(partials)
    require(bool(np.all(steps[1:] >= 0.95 * steps[:-1])),
             f"partial integrals shrink, so they are not divergent: {partials!r}")
    return {}


# ---------------------------------------------------------------------------
# identity sweeps and small-field expansion

def fierz(report, draws) -> dict:
    require(report["draws"] == draws, f"fierz sweep ran {report['draws']} draws")
    return {"identity": _within("Fierz identity", report["max_rel_err_fierz"], TOL_FIERZ)}


def boost(report) -> dict:
    return {"identity": _within("boost invariance", report["max_rel_err_boost"], TOL_BOOST)}


def interaction(report) -> dict:
    return {"identity": max(
        _within("interaction forms", report["max_rel_err_forms"], TOL_FORMS),
        _within("energy-momentum identity",
                report["max_rel_err_energy_momentum_identity"], TOL_EM_IDENTITY),
        _within("boosted interaction form", report["max_rel_err_boosted_form_a"],
                TOL_BOOSTED))}


def taylor(kind, E0, c1, c20, c02, alpha=None, xi=None, c30=None) -> dict:
    """Small-field coefficients: L ~ c1 I1 + c20 I1^2 + c02 I2^2 (+ c30 I1^3)."""
    errs = {"taylor_c1": _within("c1 against 1/8pi", abs(c1 * 2 * FOUR_PI - 1.0), 1e-6)}
    if kind == "maxwell":
        worst = max(abs(c20), abs(c02))
        errs["taylor"] = _within("Maxwell quartic coefficients", worst, 1e-12)
    elif kind == "born-infeld":
        errs["taylor"] = max(
            _within("BI c02/c20 against 4", abs(c02 / c20 / 4.0 - 1.0), TOL_TAYLOR),
            _within("BI c20 against 1/(32 pi E0^2)",
                    abs(c20 * 32 * math.pi * E0**2 - 1.0), TOL_TAYLOR))
    elif kind == "log-schroedinger":
        errs["taylor"] = _within("log-model c20 against -1/(16 pi E0^2)",
                                 abs(c20 * -16 * math.pi * E0**2 - 1.0), TOL_TAYLOR)
    elif kind == "polynomial":
        worst = abs(c20 / alpha - 1.0)
        if c30 is not None:
            worst = max(worst, abs(c30 / xi - 1.0))
        _within("polynomial c02 against 0", abs(c02), 1e-12)
        errs["taylor"] = _within("polynomial c20, c30", worst, TOL_TAYLOR)
    else:
        raise OracleFailure(f"no Taylor oracle for {kind!r}")
    return errs


def dirac_rows(rows) -> dict:
    """Every expected-zero identity exactly zero; the one reported defect 36."""
    zero = [r for r in rows if r["expected_zero"]]
    reported = [r for r in rows if not r["expected_zero"]]
    require(len(zero) == 15 and all(r["pass"] for r in zero),
             "a spin-matrix identity failed")
    worst = max(r["residual"] for r in zero)
    require(worst == 0.0, f"spin-matrix residual {worst!r} is not exactly zero")
    require([r["residual"] for r in reported] == [DIRAC_DEFECT],
             f"square-root defect not reported as {DIRAC_DEFECT}")
    return {"dirac": worst}


# ---------------------------------------------------------------------------
# effective radius

def radius(r0, classical, C) -> dict:
    r_e = HISTORICAL_E**2 / (HISTORICAL_ME * HISTORICAL_C**2)
    _within("classical radius", abs(classical / r_e - 1.0), 1e-14)
    _within("r0 = r_e / C", abs(r0 * C / r_e - 1.0), 1e-14)
    return {"energy": _within("C against Gamma(1/4)^2/(6 sqrt pi)",
                              abs(C / BI_ENERGY_CONSTANT - 1.0), TOL_ENERGY)}
