"""The D <-> E constitutive map at H = 0 and its inversion.

Forward map: D = 4 pi |dL/dE| evaluated at H = 0, which gives

    born-infeld       D = E / sqrt(1 - E^2/E0^2)        (E < E0)
    log-schroedinger  D = E / (1 + E^2/E0^2)            (max E0/2 at E = E0)
    polynomial        D = E + 16 pi a E^3 + 24 pi x E^5 (maxwell: a = x = 0)

Each map is described once at a point, and once in its constants: the
kinds walked in ln E by _map_terms (g = D/E, h = g - 1 and q = dg/d ln E,
in closed form), born-infeld by its own branches, and every kind by one
cached _shape.  Inversion walks the forward map, never an inverse formula:
one safeguarded Newton-bisection runs elementwise on an array of D, or on
a 0-d one, in a search variable x with slope d ln D/dx.  For born-infeld x is
the logit w of the radicand 1 - E^2/E0^2, in which ln D = ln E0 + w/2
exactly, so the walk's point at D itself is the root across ~600 decades
of D; the other nonlinear kinds are solved in ln E from a start on the
map's own samples, and linear maps return E = D.  Maps with a fold return
the lower root, the branch connected to E = 0, and tag the ambiguity.
The same variable carries _walk, Gauss panels along the forward map from
points already inverted: as wide, and on each segment with as few points
(4 to 16), as the map's nearest complex singularity allows, without a
cutoff reaching past the map's top, and laid out once per pattern.  The
potential, the energy and stress integrals and the stress check are its
callers, each giving only its start points and integrand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure, Divergent, DomainExceeded, NoSolution, NumericalError
from .models import (BORN_INFELD, LOG_SCHROEDINGER, LagrangianModel, PolynomialCoeffs,
                     _field_scales, _term)

RESIDUAL_LIMIT = 1e-12     # contract: achieved residual must stay below this

BRANCH_UNIQUE = "unique"
BRANCH_LOWER = "lower-of-two"


@dataclass(frozen=True)
class InversionResult:
    """Solution of D(E) = D_target with solve diagnostics.

    ``iterations`` counts evaluations of the forward map (0 for a linear
    map).  ``coulomb_deviation`` is v = 1 - E/D held at full relative precision
    even where v is many orders below 1 (the far Coulomb tail); recomputing
    it from the rounded E and D would lose it to cancellation.
    """

    E: float
    iterations: int
    residual: float
    branch: str
    coulomb_deviation: float = 0.0


def _map_terms(m: LagrangianModel, E):
    """(g, h, q/4) of a map walked in ln E at field E (float or array): g = D/E,
    and h = g - 1 and q = dg/d ln E in closed form, which do not cancel where
    g -> 1.  Then D = E g, d ln D/d ln E = (g + q)/g, v = 1 - E/D = h/g and
    1 - d ln E/d ln D = q/(g + q).  q overflows short of the top of the doubles,
    q/4 only where g does; callers scale g by powers of two to match, which
    moves no ratio except where a term is subnormal.  The zero polynomial's
    are bare floats."""
    if m.kind == LOG_SCHROEDINGER:  # g = 1/(1 + t), t = (E/E0)^2
        t = (E / m.E0) ** 2
        g = 1.0 / (1.0 + t)
        return g, -t * g, -0.5 * t * g**2
    c = m.coeffs  # g = 1 + a + x in powers of E^2
    a, x = _term(16.0 * np.pi * c.alpha, E, E), _term(24.0 * np.pi * c.xi, E, E, E, E)
    return 1.0 + a + x, a + x, 0.5 * a + x


def _displacement(m: LagrangianModel, E):
    """D(E) at H = 0 for a field magnitude (float or array), unchecked."""
    if m.kind == BORN_INFELD:
        return E / np.sqrt(1.0 - (E / m.E0) ** 2)
    return np.abs(E * _map_terms(m, E)[0])


def _charge_factor(m: LagrangianModel, E, D):
    """1 - d ln E/d ln D at points (D, E) of the map (float or array) in
    closed form, at full relative precision in the Coulomb tail, where it
    vanishes: the charge density is E (1 - d ln E/d ln D)/(2 pi r)."""
    if m.kind == BORN_INFELD:  # E = E0 D/hypot(E0, D)
        return (D / np.hypot(m.E0, D)) ** 2
    g, _, q4 = _map_terms(m, E)  # q/(g + q) = (q/4)/((g + q)/8)/2: nothing overflows
    return 0.5 * (q4 / (0.125 * g + 0.5 * q4))


def _coulomb_deviation(m: LagrangianModel, E, D):
    """v = 1 - E/D at a point (D, E) of the map without subtractive
    cancellation (float or array)."""
    if m.kind == BORN_INFELD:  # E/D = E0/h, h = hypot(E0, D): v = D^2/(h (h + E0))
        h = np.hypot(m.E0, D)
        return (D / h) * (D / (h + m.E0))
    g, h, _ = _map_terms(m, E)
    return np.full_like(E, h / g)  # the zero polynomial's h/g is a bare float


def _search_walk(m: LagrangianModel, D, E, delta):
    """(D, E, d ln D/dx) at offsets delta along the inversion's search
    variable x from anchor points (D, E) on the forward map.

    Nothing is inverted.  For born-infeld x is the radicand logit w, in which
    ln D = ln E0 + w/2 exactly: a node has D = D_a e^{delta/2},
    E = D E0 / hypot(E0, D) = E0 sqrt(sigmoid(w)), held at or below E0 where
    it rounds above deep inside and taken as E0 (D/hypot) where E0/hypot is
    subnormal (D/E0 above ~1e308).  The other kinds walk x = ln E:
    E = E_a e^delta, and D and d ln D/dx from _map_terms.
    """
    if m.kind == BORN_INFELD:
        D = D * np.exp(0.5 * delta)
        h = np.hypot(m.E0, D)
        ratio, tiny = m.E0 / h, np.finfo(float).tiny
        E = D * ratio
        if not ratio.min() >= tiny:
            E = np.where(ratio >= tiny, E, m.E0 * (D / h))
        return D, np.minimum(E, m.E0), np.full_like(D, 0.5)
    E = E * np.exp(delta)
    g, _, q4 = _map_terms(m, E)
    g8 = 0.125 * g  # (g + q)/g in eighths of g, which do not overflow
    return np.abs(E * g), E, (g8 + 0.5 * q4) / g8


@lru_cache(maxsize=32)
def _rule(n: int):
    """The n-point Gauss-Legendre rule on [0, 1], (nodes, weights), built on
    first use, shared read-only."""
    x, v = np.polynomial.legendre.leggauss(n)
    rule = 0.5 * (x + 1.0), 0.5 * v
    for a in rule:
        a.flags.writeable = False
    return rule


# The walk's rule: Gauss-Legendre panels over the segments between anchors,
# which sit every _ANCHOR_STEP out to _WALK_DEPTH past the map's scale (and
# inward past its top), and 24-point closing panels in s = e^{k (x - x_end)}
# beyond the end anchors, where the integrand goes as e^{k x}.  Panels of
# width h are at most d = _Shape.width wide, the nearest complex
# singularity's distance off the real axis clipped to [_PANEL_FLOOR,
# _ANCHOR_STEP], and take the fewest points n in [4, 16] whose error bound
# rho^-2n, rho = z + sqrt(z^2 + 1), z = 2 d/h (Trefethen, SIAM Rev. 50, 67,
# 2008) is below _PANEL_TOL: 16 at h = d, 7 on a log grid's 0.18 steps.
# polynomial(-0.005, xi = 0.001) has zeros of D(E) 0.548 off the axis in
# ln E, where 8 points leave 1.7e-10 of U; a monotone polynomial's come as
# near as 0.365, where 16 points on 0.5-wide panels leave 5e-17.  The lower
# rule, n - 1 and 23 points on the same panels, serves an error estimate.
_MIN_ORDER, _MAX_ORDER, _CLOSING_ORDER = 4, 16, 24
_PANEL_TOL = 1e-20
_PANEL_FLOOR = 0.5
_ANCHOR_STEP = 2.0
_WALK_DEPTH = 40.0
# Above the map's top its last power law holds.  Below it the center's
# integrands fall as e^{-x/2} or faster, so past _TOP_REACH above the start
# they hold under e^{-_WALK_DEPTH} of a sum, and no anchor goes further.
_TOP_REACH = 2.0 * _WALK_DEPTH
# The closing panel needs a Coulomb-end rate k > 0 that drifts by at most
# _RATE_TOL (relative) over the last anchor step: the closed tail holds at
# most 2e-5 of a sum (born-infeld's U, k = 1/4), so that drift moves the sum
# by ~2e-15 of itself, and a tail in its exponential regime drifts by
# rounding only.
_RATE_TOL = 1e-10


def _walk(m: LagrangianModel, D: np.ndarray, E: np.ndarray, f, center: bool = False,
          lower: bool = False) -> np.ndarray:
    """Sums per segment, shape (rows, rules, n + 2), of the integrand rows
    f(D, E, d ln D/dx, weight) on the walk's rule (with lower,
    rule 1 is the lower rule) along the search variable x, so no node is
    inverted.

    The n + 1 anchors are the points (D, E) in falling x, then a uniform
    tail to _WALK_DEPTH below the last one or the map's scale, whichever is
    lower.  Segment j runs from anchor j + 1 up to anchor j; segment n is
    the closing panel below the last anchor.  With center, one start point
    also gets anchors to _WALK_DEPTH above it or above the map's top
    (within _TOP_REACH), whichever is higher, and segment n + 1 closes
    above them.  The integrands go as r E at both ends: the closing
    rates are k = d ln E/dx - (d ln D/dx)/2 at the end anchors.  Raises
    NumericalError when the Coulomb-end k is not positive and settled to
    _RATE_TOL against k one anchor in, or when a sum is not finite, and
    Divergent when the center-end k is not negative (r E does not vanish
    at r = 0), with each row's partial integrals inward from the start and
    the anchors' D.
    """
    shape = _shape(m)
    if m.kind == BORN_INFELD:  # ln D = ln E0 + x/2 in the radicand logit
        steps, height = 2.0 * np.log(D[:-1] / D[1:]), 2.0 * np.log(D[-1] / m.E0)
    else:
        steps = np.log(E[:-1] / E[1:])
        height = -np.inf if shape.scale is None else np.log(E[-1] / shape.scale)
    n_in = 0
    if center:  # lift: the top's height above the start
        lift = 0.0 if shape.top is None else np.log(shape.top) - np.log(shape.scale) - height
        n_in = int(np.ceil((_WALK_DEPTH + min(max(lift, 0.0), _TOP_REACH)) / _ANCHOR_STEP))
    n_out = int(np.ceil((_WALK_DEPTH + max(height, 0.0)) / _ANCHOR_STEP))
    with np.errstate(all="ignore"):  # a sum that is not finite raises below
        D_t, E_t, d_slope = _search_walk(
            m, D[-1], E[-1], _ANCHOR_STEP * np.arange(n_in, -n_out - 1, -1.0))
        rate = (0.5 * (m.E0 / np.hypot(m.E0, D_t))**2 if m.kind == BORN_INFELD  # d ln E/dx
                else np.ones_like(E_t)) - 0.5 * d_slope
        if not (rate[-1] > 0.0 and abs(rate[-1] - rate[-2]) <= _RATE_TOL * rate[-1]):
            raise NumericalError(
                f"{m.kind}: the walk's Coulomb-end rate k = {rate[-1]!r} (k = {rate[-2]!r} "
                "one anchor in) is not a settled positive rate, so its closing panel "
                "does not hold", model_kind=m.kind, rate=float(rate[-1]))
        D_a, E_a = np.append(D[:-1], D_t), np.append(E[:-1], E_t)
        n, rules = D_a.size - 1, 2 if lower else 1
        ends = ((n, float(rate[-1])), (0, float(rate[0])))[:2 if center else 1]
        if D.size == 1:
            anchor, delta, weight, seg = _uniform_nodes(n, shape.width, ends, rules)
        else:
            anchor, delta, weight, seg = _walk_nodes(
                np.append(steps, np.full(n_out, _ANCHOR_STEP)), shape.width, ends, rules)
        nodes = _search_walk(m, D_a[anchor], E_a[anchor], delta)
        sums = np.array([np.bincount(seg, weights=row, minlength=rules * (n + 2))
                         for row in f(*nodes, weight)]).reshape(-1, rules, n + 2)
        if center and rate[0] >= 0.0:  # inward from the start: the outer total, then each step
            outer = sums[:, 0, n_in:n + 1].sum(axis=1, keepdims=True)
            partials = np.cumsum(np.hstack([outer, sums[:, 0, n_in - 1::-1]]), axis=1)
            raise Divergent(
                f"{m.kind}: the walk's center-end rate k = {float(rate[0])!r} is not negative, "
                "so the integrand is not integrable at r -> 0",
                partials=partials.tolist(), D=D_a[n_in::-1].tolist())
    if not np.all(np.isfinite(sums)):
        raise NumericalError(f"{m.kind}: a walk integral is not finite "
                             "(a field or density overflows the double range)",
                             model_kind=m.kind)
    return sums


def _walk_nodes(steps: np.ndarray, width: float, ends, rules: int):
    """(anchor, offset, weight, bin) of the walk's rule (and its lower rule
    for rules = 2): segment j runs from anchor j + 1 up to anchor j (anchors
    in falling x) over the width steps[j] in max(ceil(steps[j]/width), 1)
    equal panels of the segment's order, and segment steps.size + i closes
    from the anchor of ends[i] = (anchor, k) to where an integrand going as
    e^{k x} vanishes, below the anchor for k > 0 and above it for k < 0.
    Each offset is taken from the anchor at its segment's low-x end; rule r
    sums into bins r (steps.size + 2) + segment.  The unit layout comes from
    _layout, cached by its pattern, and is scaled here by the panel widths."""
    panels = np.maximum(np.ceil(steps / width), 1.0).astype(int)
    h = steps / panels
    # the least n with rho^-2n <= _PANEL_TOL, i.e. h <= 2 width/sinh(ln(1/_PANEL_TOL)/2n)
    order = _MIN_ORDER + np.searchsorted(2.0 * width / np.sinh(
        -0.5 * np.log(_PANEL_TOL) / np.arange(_MIN_ORDER, _MAX_ORDER)), h)
    anchor, seg, panel, t, w, bins = _layout(panels.tobytes(), order.tobytes(), ends, rules)
    h = np.append(h, 1.0)[seg]
    return anchor, panel * h + h * t, h * w, bins


@lru_cache(maxsize=32)
def _layout(panels: bytes, order: bytes, ends, rules: int):
    """(anchor, segment, panel, t, w, bin) per node of _walk_nodes's rule for
    the segments' panel counts and orders (int arrays as bytes), ends and
    rules: a node sits at offset (panel + t) h with weight w h, h its
    segment's panel width, and closing nodes, scaled in t and w, on segment
    n of width 1.  Rule r takes _rule(order - r) on each panel and
    _rule(_CLOSING_ORDER - r) on the closing panels.  Gathered once per
    pattern, shared read-only."""
    panels, order = np.frombuffer(panels, dtype=int), np.frombuffer(order, dtype=int)
    n = panels.size
    seg = np.repeat(np.arange(n), panels)  # per panel
    panel = (np.arange(seg.size) - (np.cumsum(panels) - panels)[seg]).astype(float)
    parts = []
    for r in range(rules):
        m = order[seg] - r  # per panel
        t, w = map(np.concatenate, zip(*map(_rule, m.tolist())))
        j = np.repeat(seg, m)
        parts.append((j + 1, j, np.repeat(panel, m), t, w, j + r * (n + 2)))
        s, w_s = _rule(_CLOSING_ORDER - r)
        for e, (anchor, k) in enumerate(ends):  # s = e^{k (x - x_anchor)} runs from 0 to 1
            parts.append((np.full(s.size, anchor), np.full(s.size, n), np.zeros(s.size),
                          np.log(s) / k, w_s / (abs(k) * s), np.full(s.size, r * (n + 2) + n + e)))
    layout = tuple(np.concatenate(a) for a in zip(*parts))
    for a in layout:
        a.flags.writeable = False
    return layout


@lru_cache(maxsize=16)
def _uniform_nodes(n: int, width: float, ends, rules: int):
    """_walk_nodes over n steps of _ANCHOR_STEP, fixed by the walk's length,
    panel width, closing rates and rules: built once, shared read-only."""
    nodes = _walk_nodes(np.full(n, _ANCHOR_STEP), width, ends, rules)
    for a in nodes:
        a.flags.writeable = False
    return nodes


def displacement_from_field(m: LagrangianModel, E):
    """D = 4 pi |dL/dE| at H = 0 for a field magnitude (scalar or array)."""
    E = np.array(E, dtype=float)
    if np.any(E < 0) or not np.all(np.isfinite(E)):
        raise ValueError(f"field magnitude must be finite and >= 0, got {E}")
    if m.kind == BORN_INFELD:
        rad = 1.0 - (E / m.E0) ** 2
        if np.any(rad <= 0.0):
            raise DomainExceeded(m.kind, "radicand 1 - E^2/E0^2", float(np.min(rad)))
    D = _displacement(m, E)
    return float(D) if E.ndim == 0 else D


def _quadratic_roots(b: float, c: float) -> tuple[complex, ...]:
    """The roots t of 1 + b t + c t^2 for finite b and c (none when both
    vanish), as complex numbers.

    Solved in tau = s t with s = max(|b|, sqrt|c|), whose coefficients are
    at most 1 in magnitude, so neither b^2 nor 4c overflows.  A root beyond
    the double range, the second root of a linear polynomial included,
    comes back as the signed infinity of -b/c.
    """
    s = max(abs(b), np.sqrt(abs(c)))
    if s == 0.0:
        return ()
    b, c = np.float64(b) / s, np.float64(c) / s / s
    disc = b * b - 4.0 * c
    if disc < 0.0:  # a conjugate pair, c > 0
        t = complex(-b, np.sqrt(-disc)) / (2.0 * c) / s
        return t, t.conjugate()
    q = -0.5 * (b + np.copysign(np.sqrt(disc), b))  # no cancellation
    with np.errstate(divide="ignore", over="ignore"):
        return complex(q / c / s), complex(1.0 / q / s)


class _Shape(NamedTuple):
    """The constants of a map that the solver and the walk read."""

    scale: float | None  # where the nonlinearity becomes order one (None: linear)
    top: float | None    # where the map's last power law sets in
    E_peak: float        # where D(E) first stops rising (inf: it never does)
    D_max: float         # D(E_peak)
    width: float         # the walk's panel width in its search variable
    E_top: float         # the solver's top: E_peak, or the largest E where D(E) is finite
    start: tuple | None  # (ln D, ln E) on a lattice of the map, for Newton's start


@lru_cache(maxsize=64)
def _shape(m: LagrangianModel) -> _Shape:
    """The map's _Shape in closed form per kind.

    The panel width is the distance from the real axis of the walk
    integrands' nearest complex singularity in x, clipped to
    [_PANEL_FLOOR, _ANCHOR_STEP].  A polynomial's scale is the lower of its
    terms' scales, the first term to matter; above its top, xi's scale or
    where xi's term overtakes alpha's (E^2 = |16 pi a/24 pi x|), only its
    highest power matters.  Its D'(E) = 1 + 48 pi a E^2 + 120 pi x E^4
    first vanishes at E^2 = t, the smallest positive simple root; in T = 3t
    the coefficients 16 pi a and 40 pi x/3 are finite for every accepted
    model.  The solver's top E_top is the peak, or below it the largest E
    at which D(E) is finite, found by bisection in ln E (E = 7.5e61 for
    (0.01, 0.001)); it stays inf for a linear map, which never reads it.
    The ln E kinds get Newton's start: D(E) by _search_walk every _START_STEP
    in ln E from _WALK_DEPTH below the scale, where D = E to double
    precision, up to the solver's top (641 samples for the log model).
    """
    scale = top = None
    E_peak, distance, log_limit = np.inf, np.inf, np.inf
    if m.kind == BORN_INFELD:  # the sigmoid in E = E0 sqrt(sigmoid(w)) has poles at w = +-i pi
        scale = top = m.E0
        distance = np.pi
    elif m.kind == LOG_SCHROEDINGER:  # 1 + E^2/E0^2 vanishes at ln E = ln E0 +- i pi/2
        scale = top = E_peak = m.E0
        distance = 0.5 * np.pi
    else:
        a, x = 16.0 * np.pi * m.coeffs.alpha, 24.0 * np.pi * m.coeffs.xi
        scales = _field_scales(m)
        scale = min(scales, default=None)
        top = scales[-1] if scales else None  # xi's scale, or the one scale
        if len(scales) == 2:  # or where xi's term overtakes alpha's, if higher
            top = max(top, np.sqrt(abs(a)) / np.sqrt(abs(x)))
        roots = _quadratic_roots(a, 40.0 * np.pi / 3.0 * m.coeffs.xi)
        folds = [T.real for T in roots if T.imag == 0.0 and T.real > 0.0 and roots.count(T) == 1]
        E_peak = float(np.sqrt(min(folds, default=np.inf) / 3.0))
        # half the smallest |arg t| over the zeros t of D/E in t = E^2 = e^{2x}
        distance = 0.5 * float(np.min(np.abs(np.angle(_quadratic_roots(a, x))), initial=np.inf))
        if scale is not None:
            log_limit, hi = 0.0, np.log(np.finfo(float).max)
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(64):
                    mid = 0.5 * (log_limit + hi)
                    if np.isfinite(_displacement(m, np.exp(mid))):
                        log_limit = mid
                    else:
                        hi = mid
    D_max = np.inf if E_peak == np.inf else float(_displacement(m, E_peak))
    E_top = min(E_peak, np.exp(log_limit))
    start = None
    if scale is not None and m.kind != BORN_INFELD:
        span = _WALK_DEPTH + np.log(E_top / scale)
        D, E = _search_walk(m, E_top, E_top, np.linspace(
            -span, 0.0, int(np.ceil(span / _START_STEP)) + 1))[:2]
        start = np.log(D), np.log(E)
    return _Shape(scale, top, E_peak, D_max, min(max(distance, _PANEL_FLOOR), _ANCHOR_STEP),
                  E_top, start)


@lru_cache(maxsize=64)
def _unit_twin(m: LagrangianModel) -> LagrangianModel:
    """The map at H = 0 in units of its scale E_c (_shape), D'(E') = D(E_c E')/E_c:
    E0 = 1, or alpha E_c^2 and xi E_c^4 by partial products (_term), finite where
    they are, of its own kind; a linear map's (E_c None) is maxwell() or polynomial()."""
    if m.kind in (BORN_INFELD, LOG_SCHROEDINGER):
        return LagrangianModel(m.kind, E0=1.0)
    E_c = _shape(m).scale
    return LagrangianModel(m.kind, coeffs=PolynomialCoeffs(
        alpha=_term(m.coeffs.alpha, E_c, E_c), xi=_term(m.coeffs.xi, *[E_c] * 4)))


def attainable_displacement_max(m: LagrangianModel) -> float:
    """sup of D over the field domain (inf for monotone unbounded maps)."""
    return _shape(m).D_max


_X_TOL = 1e-15   # a step, or a bracket, this small in x ends the solve
# Newton's start samples the map this often in ln E; linear in ln D, it starts 4e-4
# from the root in ln E for polynomial(0.01, xi=0.001), 5e-3 by the log model's peak
_START_STEP = 1.0 / 16.0
_MAX_EVALS = 200


def _invert(m: LagrangianModel, D):
    """(E, evaluations, residual, lower) for displacements D > 0, an array or
    a 0-d np.float64 (0-d results), by one safeguarded Newton-bisection, elementwise.

    Each element walks the forward map (_search_walk), re-anchored at every
    point it reaches so that E keeps full precision; Newton's slope is
    d ln D/dx.  Born-infeld, whose walk reads only D, starts at its root.
    The ln E kinds start at ln E interpolated linearly in ln D on their
    shape's table of forward-map samples, and a D outside the table at
    min(D, E_top), the shape's solver top; they bracket the root between
    E_top and min(D, the smallest normal float), where D(E) = E to double
    precision, and bisect where Newton would leave the bracket.  An
    element's start depends on its own D only, and it takes its last step
    when that step or its bracket is below _X_TOL, so an array call equals
    the per-element calls bit for bit; an array drops its elements as they
    finish.  ``lower`` tags lower-of-two roots, and D in the accepted band
    at or just above D_max returns the peak.  NoSolution and
    ConvergenceFailure name the first offending element.
    """
    shape = _shape(m)
    if shape.scale is None:
        zero = np.zeros_like(D)
        return D.copy(), zero.astype(int), zero, zero.astype(bool)
    above = D > shape.D_max * (1.0 + 1e-13)
    if np.count_nonzero(above):
        raise NoSolution(float(D.flat[above.argmax()]), shape.D_max)
    lower = (D < shape.D_max * (1.0 - 1e-12)) & (shape.D_max < np.inf)
    if m.kind == BORN_INFELD:
        E, lo, hi = D, np.zeros_like(D), np.zeros_like(D)
    else:
        E = np.where(D >= shape.D_max, shape.E_top, np.minimum(D, shape.E_top))
        ln_D, (ln_Ds, ln_Es) = np.log(D), shape.start
        inside = (ln_Ds[0] < ln_D) & (ln_D < ln_Ds[-1])
        E = np.where(inside, np.minimum(np.exp(np.interp(ln_D, ln_Ds, ln_Es)), shape.E_top), E)
        ln_E = np.log(E)
        lo = np.log(np.minimum(D, np.finfo(float).tiny)) - ln_E
        hi = np.log(shape.E_top) - ln_E

    # the elements still solving (act; a 0-d D itself): target d, point (dx, e) and
    # its slope, and the bracket [lo, hi] in offsets from it; born-infeld starts at its root
    Dx, E, slope = _search_walk(m, D, E, 0.0)
    evals, act = np.ones(D.shape, dtype=int), np.flatnonzero(lo < hi)
    d, dx, e, slope, lo, hi = (a[act] if D.ndim else a for a in (D, Dx, E, slope, lo, hi))
    k = 1
    while act.size:
        k += 1
        if k > _MAX_EVALS:
            raise ConvergenceFailure(f"no convergence in {_MAX_EVALS} evaluations for "
                                     f"{m.kind} at D = {float(d.flat[0])!r}", D=float(d.flat[0]))
        f = np.log(dx / d)
        lo, hi = lo - lo * (f <= 0.0), hi - hi * (f >= 0.0)  # the point bounds its side
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero slope at a peak
            step = -f / slope
        # a flat or falling slope (at or past a peak) takes the bisection
        inside = (slope > 0.0) & (lo < step) & (step < hi)
        if np.count_nonzero(inside) < inside.size:
            step = np.where(inside, step, 0.5 * (lo + hi))
        last = (hi - lo <= _X_TOL) | (abs(step) <= _X_TOL)
        dx, e, slope = _search_walk(m, dx, e, step)
        n_last = np.count_nonzero(last)
        if n_last:
            if not D.ndim:  # a 0-d D finishes all at once
                Dx, E, evals = dx, e, np.array(k)
                break
            Dx[act[last]], E[act[last]], evals[act[last]] = dx[last], e[last], k
            if n_last == act.size:
                break
            keep = ~last
            act, d, dx, e, slope, lo, hi, step = (
                a[keep] for a in (act, d, dx, e, slope, lo, hi, step))
        lo, hi = lo - step, hi - step
    residual = abs(Dx - D) / D
    bad = residual > RESIDUAL_LIMIT
    if np.count_nonzero(bad):
        i = bad.argmax()
        raise ConvergenceFailure(
            f"inversion residual {residual.flat[i]:.3e} above {RESIDUAL_LIMIT} "
            f"for {m.kind} at D = {float(D.flat[i])!r}",
            residual=float(residual.flat[i]), D=float(D.flat[i]))
    return E, evals, residual, lower


def field_from_displacement(m: LagrangianModel, D: float) -> InversionResult:
    """Solve displacement_from_field(m, E) = D for the field magnitude.

    Raises NoSolution (with the attainable maximum) when D is above the range
    of the map, ConvergenceFailure if the residual target cannot be met.
    """
    d_target = float(D)
    if not 0.0 <= d_target < np.inf:
        raise ValueError(f"displacement must be finite and >= 0, got {D}")
    if d_target == 0.0:
        return InversionResult(E=0.0, iterations=0, residual=0.0, branch=BRANCH_UNIQUE)
    E, evals, residual, lower = _invert(m, np.float64(d_target))
    return InversionResult(E=float(E), iterations=int(evals), residual=float(residual),
                           branch=BRANCH_LOWER if lower else BRANCH_UNIQUE,
                           coulomb_deviation=float(_coulomb_deviation(m, E, d_target)))
