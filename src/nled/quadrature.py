"""The radial-integral spec of the energy and stress integrals.

The integrals themselves run on the walk's fixed rule along the inversion's
search variable (constitutive._walk, which also gives the potential), so
there is no adaptive tolerance to set: the one choice left to the caller is
an inner cutoff radius.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QuadratureSpec:
    """cutoff_r (cm) optionally truncates the radial integrals at an inner
    radius."""

    cutoff_r: float | None = None
