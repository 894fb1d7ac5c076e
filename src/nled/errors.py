"""Exception hierarchy shared by all nled modules.

Every error carries a machine-readable ``kind`` tag and a ``details`` dict so
the CLI can serialize failures as JSON on stderr.  Numerical failures
(NoSolution, Divergent, ConvergenceFailure, ...) map to exit code 3,
configuration problems to exit code 2.
"""

from __future__ import annotations


class NledError(Exception):
    """Base class.  ``kind`` is a stable machine-readable tag."""

    kind = "Error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def to_dict(self) -> dict:
        return {"kind": self.kind, "message": str(self), "details": self.details}


class ConfigurationError(NledError, ValueError):
    """Bad preset label, malformed config, invalid grid, unknown model, ... (a ValueError)"""

    kind = "ConfigurationError"


class UnsupportedModel(ConfigurationError):
    """Operation not defined for this model kind (e.g. Taylor data for the
    square-root potential model)."""

    kind = "UnsupportedModel"


class NumericalError(NledError):
    """Base for runtime numerical failures (CLI exit code 3)."""

    kind = "NumericalError"


class DomainExceeded(NumericalError):
    """Field invariants left the model's domain of definition.

    For the limiting-field model this is the radicand 1 - I1/E0^2 - I2^2/E0^4
    turning negative; for the log model the argument 1 + I1/E0^2 reaching 0.
    """

    kind = "DomainExceeded"

    def __init__(self, model_kind: str, invariant: str, value: float):
        super().__init__(
            f"{model_kind}: {invariant} = {value!r} outside the model domain",
            model_kind=model_kind, invariant=invariant, value=value,
        )


class NoSolution(NumericalError):
    """Constitutive inversion target above the attainable displacement."""

    kind = "NoSolution"

    def __init__(self, d_target: float, d_max_attainable: float, **extra):
        super().__init__(
            f"no field reproduces D = {d_target!r}; "
            f"attainable maximum is {d_max_attainable!r}",
            D=d_target, D_max_attainable=d_max_attainable, **extra,
        )
        self.d_target = d_target
        self.d_max_attainable = d_max_attainable


class ConvergenceFailure(NumericalError):
    """Iteration cap hit before reaching the requested residual."""

    kind = "ConvergenceFailure"


class Divergent(NumericalError):
    """Improper integral whose integrand does not fall at an end of its range."""

    kind = "Divergent"


class IllConditioned(NumericalError):
    """Linear fit design matrix too ill-conditioned to trust."""

    kind = "IllConditioned"
