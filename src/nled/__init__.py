"""nled: electrostatic solitons and algebraic identity checks for nonlinear
electrodynamics Lagrangians L(I1, I2).

Library entry points are re-exported here, each module imported on the first
use of one of its names (PEP 562); the ``nled`` console script (see nled.cli)
provides the profile/energy/expand/invariants/dirac/radius subcommands.
"""

import importlib

# constants and errors load now: neither imports numpy and every subcommand needs
# both.  It also keeps nled.constants the function: the constants module, first
# imported later by another submodule, would take that name.
from . import errors  # noqa: F401
from .constants import constants

_EXPORTS = {  # defining module -> its re-exported names
    "constants": "PhysicalConstants classical_electron_radius constants "
                 "statvolt_per_cm_to_volt_per_m",
    "errors": "ConfigurationError ConvergenceFailure Divergent DomainExceeded IllConditioned "
              "NledError NoSolution NumericalError UnsupportedModel",
    "constitutive": "InversionResult attainable_displacement_max displacement_from_field "
                    "field_from_displacement",
    "dirac": "dirac_basis identity_report mass_term slash_square",
    "energetics": "StressSummary born_infeld_energy_constant effective_radius stress_integrals "
                  "total_energy",
    "expansion": "CoefficientEstimate estimate_taylor_coefficients polynomial_from_model",
    "interaction": "ChargeState boost_charge_state electrokinetic_potential "
                   "interaction_energy_momentum interaction_lagrangian_density",
    "kinematics": "FieldVectors FourPotential InvariantSet boost boost_four_potential "
                  "energy_momentum_density fierz_identity_sides gauge_shift invariants",
    "models": "LagrangianModel PolynomialCoeffs TaylorReference born_infeld dL_dE "
              "lagrangian_density log_schroedinger maxwell mie_sqrt model_from_config polynomial "
              "taylor_reference",
    "quadrature": "QuadratureSpec",
    "soliton": "RadialGrid SolitonProfile charge_density_profile check_stress_divergence "
               "compute_profile default_grid field_profile integrated_charge linear_grid log_grid "
               "potential_at",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + _MODULE_OF.get(name, name), __name__)
    return globals().setdefault(name, getattr(module, name) if name in _MODULE_OF else module)


def __dir__() -> list:
    return sorted({*globals(), *__all__})
