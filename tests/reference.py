"""The tests' arbitrary-precision reference: D(E) = 4 pi dL/dE at H = 0,
dD/dE and L(I1, I2) of each field-strength kind of README's Models table,
written once in mpmath from a model's kind, E0 and coeffs, and what the
tests compare nled with, built from those alone.  It imports nothing from
nled.  Each function works at its own digits, or at its caller's where
those are more, and returns mpf."""

import functools

import mpmath
from mpmath import exp, inf, log, mpf, pi, sqrt


def _digits(n):
    def wrap(f):
        def at(*args):
            with mpmath.workdps(max(n, mpmath.mp.dps)):
                return f(*args)
        return at
    return wrap


def _powers(m):
    """(16 pi alpha, 24 pi xi): a polynomial's D/E is 1 + these times E^2, E^4."""
    return 16 * pi * m.coeffs.alpha, 24 * pi * m.coeffs.xi


def _terms(m, E):
    """(D/E, v = 1 - E/D, dD/dE, dD/dE - D/E), each in a form that does not cancel."""
    E = mpf(E)
    if m.kind == "born-infeld":
        t = (E / m.E0) ** 2
        s = sqrt(1 - t)
        return 1 / s, t / (1 + s), s**-3, t / s**3
    if m.kind == "log-schroedinger":
        t = (E / m.E0) ** 2
        return 1 / (1 + t), -t, (1 - t) / (1 + t) ** 2, -2 * t / (1 + t) ** 2
    p, q = _powers(m)
    a, x = p * E**2, q * E**4
    return 1 + a + x, (a + x) / (1 + a + x), 1 + 3 * a + 5 * x, 2 * a + 4 * x


@_digits(40)
def D(m, E):
    return E * _terms(m, E)[0]


@_digits(40)
def map_terms(m, E):
    """(D, d ln D/d ln E, v = 1 - E/D, 1 - d ln E/d ln D) at E."""
    g, v, k, w = _terms(m, E)
    return E * g, k / g, v, w / k


@_digits(40)
def L(m, i1, i2):
    i1, i2, E0 = mpf(i1), mpf(i2), mpf(m.E0 or 0)
    if m.kind == "born-infeld":
        u = i1 / E0**2 + i2**2 / E0**4
        return E0**2 / (4 * pi) * u / (1 + sqrt(1 - u))
    if m.kind == "log-schroedinger":
        return E0**2 / (8 * pi) * mpmath.log1p(i1 / E0**2)
    c = m.coeffs
    return (i1 / (8 * pi) + c.alpha * i1**2 + c.beta * i2**2 + c.gamma * i1 * i2
            + c.xi * i1**3 + c.zeta * i1 * i2**2)


@_digits(40)
def extrema(m):
    """The fields where dD/dE = 0, ascending, of the log model (E0) and of a
    polynomial: the positive roots E^2 = 2/(-a +- sqrt(a^2 - 4b)) of
    1 + a E^2 + b E^4, written without cancellation."""
    if m.kind == "log-schroedinger":
        return [mpf(m.E0)]
    p, q = _powers(m)
    a, b = 3 * p, 5 * q
    if a * a < 4 * b:
        return []
    root = sqrt(a * a - 4 * b)
    return sorted(sqrt(2 / y) for y in (-a + root, -a - root) if y > 0)


@_digits(60)
def zeros(m):
    """The complex zeros t = E^2 of a polynomial's D/E, xi != 0."""
    p, q = _powers(m)
    return mpmath.polyroots([q, p, 1], maxsteps=200, extraprec=200)


@_digits(40)
def field(m, d):
    """E(D) on the branch connected to E = 0: born-infeld's closed form, or
    the root of ln D(E) = ln d in ln E, bracketed below the first extremum."""
    d = mpf(d)
    if m.kind == "born-infeld":  # never above E0, so that 1 - (E/E0)^2 >= 0
        return m.E0 / sqrt(1 + (m.E0 / d) ** 2)
    peaks = extrema(m)
    if peaks:  # above the first peak the bracket holds no root, and findroot raises
        hi = peaks[0]
    elif d == inf:
        return inf
    else:
        hi = d
        while D(m, hi) < d:
            hi *= 2
    lo = hi / 2
    while D(m, lo) >= d:
        lo /= 2
    return exp(mpmath.findroot(lambda s: log(D(m, exp(s)) / d), (log(lo), log(hi)),
                               solver="anderson"))


def _quad(m, f, top):
    """The integral of f(y) dy from 0 to top, in ln y: pieces 8 wide from 16
    below the map's lowest field scale to 16 above its highest, and open tails."""
    if m.kind in ("born-infeld", "log-schroedinger"):
        scales = [log(m.E0)]
    else:
        p, q = (abs(c) for c in _powers(m))
        scales = [log(s) for s in (p and p**-0.5, q and q**-0.25, p and q and sqrt(p / q)) if s]
    knots = mpmath.arange(min(scales) - 16, max(scales) + 16, 8) if scales else []
    ends = [-inf, *(x for x in knots if x < log(top)), log(top)]
    return mpmath.quad(lambda x: f(exp(x)) * exp(x), ends)


@functools.lru_cache(maxsize=None)
@_digits(40)
def energies(m, e, r_c=None):
    """(U, T): the integrals of u = E D/4 pi - L and of the trace u - 2L over
    r > r_c, or over all space.  With D = e/r^2 the volume element is
    2 pi e^(3/2) D^(-5/2) dD, so both run over the map from E = 0 up to
    E(r_c), or to its top.  Born-infeld, whose integrands go as
    (E0 - E)^(-3/4) at its top, runs over D through its closed-form inverse."""
    e = mpf(e)
    d_c = e / mpf(r_c) ** 2 if r_c else inf
    bi = m.kind == "born-infeld"

    def density(y, trace):
        if bi:
            E, d, dd = field(m, y), y, 1
        else:
            g, _, dd, _ = _terms(m, y)
            E, d = y, y * g
        l = L(m, E**2, 0)
        u = E * d / (4 * pi) - l
        return (u - 2 * l if trace else u) * 2 * pi * e**1.5 * d**-2.5 * dd

    top = d_c if bi else field(m, d_c)
    return tuple(_quad(m, lambda y: density(y, trace), top) for trace in (False, True))


@_digits(40)
def phi(m, e, r):
    """phi(r) = int_r^inf E dr = int_0^E(r) sqrt(e/D) dE - r E(r), by parts
    with r(E) = sqrt(e/D(E)); phi(0) runs up to the map's top."""
    e, r = mpf(e), mpf(r)
    top = field(m, e / r**2 if r else inf)
    return _quad(m, lambda E: sqrt(e / D(m, E)), top) - (r * top if r else 0)


@_digits(50)
def rho(m, e, r):
    """rho(r) = (1/4 pi r^2) d(r^2 E)/dr, differentiating r^2 E(r) itself."""
    e, r = mpf(e), mpf(r)
    return mpmath.diff(lambda x: x**2 * field(m, e / x**2), r) / (4 * pi * r**2)
