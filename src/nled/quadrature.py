"""Adaptive quadrature helpers for the radial energy and stress integrals
(the potential walks the forward map on fixed panels instead; see soliton).

The panel-level adaptivity is QUADPACK (scipy.integrate.quad); this module
adds the pieces the radial integrals need on top of it: a spec object with a
subdivision cap that turns non-convergence into a structured error, a
tail transform x -> 1/t for the improper upper limit, and an inner-limit
refinement loop that either Richardson-completes an integrable endpoint or
reports a Divergent error when the partial integrals are non-Cauchy.

Everything here is sequential and deterministic: identical inputs give
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .errors import Divergent, QuadratureFailure


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and caps for the adaptive integrals.

    abs_tol applies to the dimensionless (unit-scaled) integrand; callers
    scale physical integrands to O(1) before integrating.  cutoff_r (cm)
    optionally truncates radial integrals at an inner radius.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-10
    max_subdiv: int = 200
    cutoff_r: float | None = None

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol >= 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdiv < 1:
            raise ValueError("max_subdiv must be >= 1")


def adaptive_quad(f, a: float, b: float, spec: QuadratureSpec) -> tuple[float, float]:
    """Integrate f on the finite interval [a, b]; returns (value, error).

    Raises QuadratureFailure with the achieved error estimate when the
    subdivision cap is hit before the tolerance.
    """
    out = quad(f, a, b, epsabs=spec.abs_tol, epsrel=spec.rel_tol,
               limit=spec.max_subdiv, full_output=True)
    value, abserr = out[0], out[1]
    if len(out) > 3:  # QUADPACK warning message appended
        raise QuadratureFailure(
            f"quadrature on [{a!r}, {b!r}] did not meet tolerance: {out[3]}",
            achieved_error=abserr)
    return value, abserr


def tail_quad(f, a: float, spec: QuadratureSpec) -> tuple[float, float]:
    """Integrate f on [a, inf) via the substitution x = 1/t (a > 0)."""
    if not a > 0:
        raise ValueError("tail integral needs a > 0")

    def g(t: float) -> float:
        return f(1.0 / t) / t**2

    return adaptive_quad(g, 0.0, 1.0 / a, spec)


# Inner-limit refinement: partial integrals P_k = int_{a0/4^k}^{b} f.
_REFINE_RATIO = 4.0
_MAX_REFINES = 60


def inner_limit_quad(f, a0: float, b: float, spec: QuadratureSpec) -> tuple[float, float]:
    """Integrate f on (0, b] where f may be singular at 0.

    Partial integrals with the inner limit walked toward zero geometrically
    must be Cauchy; three consecutive non-shrinking increments raise
    Divergent (with the partials attached).  Convergent sequences are
    completed by geometric (Richardson) extrapolation of the increment tail,
    and the loop exits once consecutive extrapolated values agree to the
    tolerance.  Returns (value, error); the error bounds the difference
    between the two refinement levels of the final Richardson pair.
    """
    value, err = adaptive_quad(f, a0, b, spec)
    prev_d = None
    extrap_prev = None
    non_shrinking = 0
    a = a0
    partials = [value]
    d = np.inf
    for _ in range(_MAX_REFINES):
        a_next = a / _REFINE_RATIO
        d, d_err = adaptive_quad(f, a_next, a, spec)
        value += d
        err += d_err
        partials.append(value)
        if prev_d is not None and prev_d != 0.0:
            if abs(d) >= 0.95 * abs(prev_d):
                non_shrinking += 1
                if non_shrinking >= 3:
                    raise Divergent(
                        "inner partial integrals are non-Cauchy "
                        "(integrand not integrable at r -> 0)",
                        partials=partials,
                        inner_limits=[a0 / _REFINE_RATIO**k
                                      for k in range(len(partials))])
            else:
                non_shrinking = 0
            q = abs(d) / abs(prev_d)
            if q < 1.0:
                remainder = d * (q / (1.0 - q))
                extrap = value + remainder
                tol = max(spec.abs_tol, spec.rel_tol * abs(extrap))
                if extrap_prev is not None and abs(extrap - extrap_prev) < 0.5 * tol:
                    # successive extrapolants bracket the geometric-tail error
                    err += 2.0 * abs(extrap - extrap_prev)
                    return extrap, err
                extrap_prev = extrap
        elif prev_d == 0.0 and d == 0.0:
            return value, err
        prev_d = d
        a = a_next
    raise QuadratureFailure(
        "inner-limit refinement exhausted before reaching tolerance",
        achieved_error=float(abs(d)))
