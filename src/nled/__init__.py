"""nled: electrostatic solitons and algebraic identity checks for nonlinear
electrodynamics Lagrangians L(I1, I2).

Library entry points are re-exported here; the ``nled`` console script
(see nled.cli) provides the profile/energy/expand/invariants/dirac/radius
subcommands.
"""

from .constants import (PhysicalConstants, classical_electron_radius, constants,
                        statvolt_per_cm_to_volt_per_m)
from .constitutive import (InversionResult, attainable_displacement_max,
                           displacement_from_field, field_from_displacement)
from .dirac import dirac_basis, identity_report, mass_term, slash_square
from .energetics import (StressSummary, born_infeld_energy_constant,
                         effective_radius, stress_integrals, total_energy)
from .errors import (ConfigurationError, ConvergenceFailure, Divergent,
                     DomainExceeded, IllConditioned, NledError, NoSolution,
                     NumericalError, UnsupportedModel)
from .expansion import (CoefficientEstimate, estimate_taylor_coefficients,
                        polynomial_from_model)
from .interaction import (ChargeState, boost_charge_state,
                          electrokinetic_potential, interaction_energy_momentum,
                          interaction_lagrangian_density)
from .kinematics import (FieldVectors, FourPotential, InvariantSet, boost,
                         boost_four_potential, energy_momentum_density,
                         fierz_identity_sides, gauge_shift, invariants)
from .models import (LagrangianModel, PolynomialCoeffs, TaylorReference,
                     born_infeld, dL_dE, lagrangian_density, log_schroedinger,
                     maxwell, mie_sqrt, model_from_config, polynomial,
                     taylor_reference)
from .quadrature import QuadratureSpec
from .soliton import (RadialGrid, SolitonProfile, charge_density_profile,
                      check_stress_divergence, compute_profile, default_grid,
                      displacement_profile, field_profile, integrated_charge,
                      linear_grid, log_grid, potential_at, potential_profile)

__version__ = "0.1.0"

