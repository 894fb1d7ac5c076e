"""The arbitrary-precision reference against closed forms, and its
independence from the code that it checks."""

import ast
import pathlib

import mpmath
import pytest
from mpmath import mpf, pi, sqrt

from nled import born_infeld, maxwell, polynomial

import reference

DIGITS = mpf(10) ** -20


def close(got, want):
    return abs(got / want - 1) <= DIGITS


def printed(value, decimal):
    """The closed form against its decimal value, to a double's precision."""
    return abs(value / decimal - 1) <= 2.0**-52


def test_imports_nothing_from_nled():
    tree = ast.parse(pathlib.Path(reference.__file__).read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for a in node.names]
    names += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert names and not [n for n in names if n.split(".")[0] == "nled"]


class TestClosedForms:
    """Values at e = 1 with the map's field scale 1, to 20 digits."""

    def test_born_infeld(self):
        m = born_infeld(1.0)
        with mpmath.workdps(30):
            C, K = mpmath.gamma(0.25) ** 2 / (6 * sqrt(pi)), mpmath.ellipk(0.5)
            assert printed(C, 1.2360497848675813) and printed(K, 1.8540746773013719)
            assert close(reference.energies(m, 1.0)[0], C)  # C e^(3/2) E0^(1/2)
            assert close(reference.phi(m, 1.0, 0.0), K)  # K(1/2) sqrt(e E0)

    def test_quartic(self):
        m = polynomial(alpha=1 / (16 * float(pi)))
        with mpmath.workdps(30):
            k = mpmath.gamma(0.25) ** 2 / (2 * sqrt(pi))
            assert printed(k, 3.7081493546027438) and printed(2 * k / 3, 2.4720995697351625)
            phi0 = k * sqrt((16 * pi * m.coeffs.alpha) ** -0.5)  # k sqrt(e E_c)
            assert close(reference.phi(m, 1.0, 0.0), phi0)
            assert close(reference.energies(m, 1.0)[0], 2 * phi0 / 3)

    def test_sextic(self):
        m = polynomial(xi=1 / (24 * float(pi)))
        with mpmath.workdps(30):
            k = mpmath.beta(0.125, 0.375) / 4
            assert printed(k, 2.5189270468096534)
            phi0 = k * sqrt((24 * pi * m.coeffs.xi) ** -0.25)  # k sqrt(e E_c)
            assert close(reference.phi(m, 1.0, 0.0), phi0)

    @pytest.mark.parametrize("e, r_c", [(1.0, 1.0), (4.8e-10, 2.8e-13)])
    def test_maxwell_cutoff(self, e, r_c):
        U, T = reference.energies(maxwell(), e, r_c)
        with mpmath.workdps(30):
            assert close(U, mpf(e) ** 2 / (2 * mpf(r_c)))
            assert close(T, -U)

    def test_energy_is_two_thirds_of_e_phi0(self):
        # U = (2/3) e phi(0) without a cutoff, by parts in field space twice
        m = polynomial(0.01, xi=0.001)
        with mpmath.workdps(30):
            assert close(reference.energies(m, 1.0)[0], 2 * reference.phi(m, 1.0, 0.0) / 3)
