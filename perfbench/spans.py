"""Span recorder for the traced run.

While installed, the Tracer replaces nled's public functions in the module
namespaces their callers look them up in (``nled.soliton.field_from_displacement``,
``nled.energetics.field_from_displacement``, the quadrature helpers as seen
from ``soliton`` and ``energetics``, ...).  Each call records one span
[name, start, end, parent, item, exception, info] in memory; the spans are
written out and reduced to per-layer metrics when the run ends.  A target
that no longer exists is listed as absent instead of failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict

_clock = time.perf_counter

# (span name, module the caller looks the function up in, attribute)
TARGETS = (
    ("constitutive.field_from_displacement", "nled.soliton", "field_from_displacement"),
    ("constitutive.field_from_displacement", "nled.energetics", "field_from_displacement"),
    ("soliton.compute_profile", "nled.soliton", "compute_profile"),
    ("soliton.field_profile", "nled.soliton", "field_profile"),
    ("soliton.charge_density_profile", "nled.soliton", "charge_density_profile"),
    ("soliton.potential_profile", "nled.soliton", "potential_profile"),
    ("soliton.potential_at", "nled.soliton", "potential_at"),
    ("soliton.grid_derivative", "nled.soliton", "grid_derivative"),
    ("quadrature.adaptive_quad", "nled.soliton", "adaptive_quad"),
    ("quadrature.tail_quad", "nled.soliton", "tail_quad"),
    ("quadrature.adaptive_quad", "nled.energetics", "adaptive_quad"),
    ("quadrature.tail_quad", "nled.energetics", "tail_quad"),
    ("quadrature.inner_limit_quad", "nled.energetics", "inner_limit_quad"),
    ("quadrature.quadpack", "nled.quadrature", "quad"),
    ("energetics.stress_integrals", "nled.energetics", "stress_integrals"),
    ("energetics.total_energy", "nled.energetics", "total_energy"),
    ("models.density_from_invariants", "nled.energetics", "density_from_invariants"),
    ("models.density_from_invariants", "nled.models", "density_from_invariants"),
    ("kinematics.fierz_suite", "nled.kinematics", "fierz_suite"),
    ("kinematics.boost_invariance_suite", "nled.kinematics", "boost_invariance_suite"),
    ("interaction.interaction_suite", "nled.interaction", "interaction_suite"),
    ("expansion.estimate_taylor_coefficients", "nled.expansion",
     "estimate_taylor_coefficients"),
    ("dirac.identity_report", "nled.dirac", "identity_report"),
)

INVERSION = "constitutive.field_from_displacement"
PROFILE_INVERTERS = ("soliton.field_profile", "soliton.charge_density_profile")

# per-layer metric: (name, unit); all are per pass over the item list
PER_LAYER = (
    ("constitutive.inversions", "count"),
    ("constitutive.solver_iters", "count"),
    ("constitutive.self_s", "s"),
    ("constitutive.max_residual", "rel"),
    ("constitutive.failed", "count"),
    ("soliton.inversions_per_point", "1/point"),
    ("soliton.field_profile_s", "s"),
    ("soliton.charge_density_s", "s"),
    ("soliton.potential_s", "s"),
    ("soliton.derivative_s", "s"),
    ("quadrature.calls", "count"),
    ("quadrature.integrand_evals", "count"),
    ("quadrature.inner_refines", "count"),
    ("quadrature.self_s", "s"),
    ("quadrature.failed", "count"),
    ("energetics.stress_s", "s"),
    ("energetics.energy_s", "s"),
    ("energetics.divergent", "count"),
    ("models.density_evals", "count"),
    ("models.self_s", "s"),
    ("kinematics.fierz_s", "s"),
    ("kinematics.boost_s", "s"),
    ("interaction.suite_s", "s"),
    ("expansion.fit_s", "s"),
    ("dirac.report_s", "s"),
    ("cli.import_s", "s"),
    ("cli.profile_s", "s"),
    ("cli.energy_s", "s"),
    ("cli.expand_s", "s"),
    ("cli.invariants_s", "s"),
    ("cli.dirac_s", "s"),
    ("cli.radius_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")

# inclusive span time per pass reported as a layer metric
_INCLUSIVE = {
    "soliton.field_profile_s": "soliton.field_profile",
    "soliton.charge_density_s": "soliton.charge_density_profile",
    "soliton.potential_s": "soliton.potential_profile",
    "soliton.derivative_s": "soliton.grid_derivative",
    "energetics.stress_s": "energetics.stress_integrals",
    "energetics.energy_s": "energetics.total_energy",
    "kinematics.fierz_s": "kinematics.fierz_suite",
    "kinematics.boost_s": "kinematics.boost_invariance_suite",
    "interaction.suite_s": "interaction.interaction_suite",
    "expansion.fit_s": "expansion.estimate_taylor_coefficients",
    "dirac.report_s": "dirac.identity_report",
}

FIELDS = ("name", "start", "end", "parent", "item", "exception", "info")


def _info(name: str, out):
    """Per-span detail kept from a result: solver diagnostics and grid size."""
    if name == INVERSION:
        return [out.iterations, out.residual]
    if name == "soliton.compute_profile":
        return out.grid.n
    return None


class Tracer:
    """Records spans of the wrapped nled functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.item = -1
        self.integrand_evals: dict[int, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _span(self, name: str, fn):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.item, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = _clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = _clock()
                stack.pop()
            rec[6] = _info(name, out)
            return out

        return wrapper

    def _counting_quad(self, quad_fn):
        tracer = self

        def quad(func, *args, **kwargs):
            def counted(x, *fargs):
                tracer.integrand_evals[tracer.item] += 1
                return func(x, *fargs)

            return quad_fn(counted, *args, **kwargs)

        return quad

    def install(self) -> None:
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            if name == "quadrature.quadpack":
                fn = self._counting_quad(fn)
            setattr(module, attr, self._span(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump({"fields": FIELDS, "absent": self.absent, "spans": self.spans}, fh)

    def pass_metrics(self, items: list[int]) -> dict:
        """Per-layer metrics of one pass, given the item ids it ran."""
        wanted = set(items)
        idx = [i for i, s in enumerate(self.spans) if s[4] in wanted]
        spans = self.spans
        children = defaultdict(list)
        for i in idx:
            if spans[i][3] >= 0:
                children[spans[i][3]].append(i)

        def dur(i):
            return spans[i][2] - spans[i][1]

        def self_time(i):
            return dur(i) - sum(dur(c) for c in children[i])

        by_name = defaultdict(list)
        for i in idx:
            by_name[spans[i][0]].append(i)

        def layer(prefix):
            return [i for i in idx if spans[i][0].startswith(prefix)]

        inv = by_name[INVERSION]
        in_profiles = 0
        for i in inv:
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in PROFILE_INVERTERS:
                p = spans[p][3]
            in_profiles += p >= 0
        points = sum(spans[i][6] or 0 for i in by_name["soliton.compute_profile"])
        quads = layer("quadrature.")

        def outermost(i):  # where a failure leaves the quadrature layer
            p = spans[i][3]
            return p < 0 or not spans[p][0].startswith("quadrature.")

        m = {
            "constitutive.inversions": len(inv),
            "constitutive.solver_iters": sum(spans[i][6][0] for i in inv if spans[i][6]),
            "constitutive.self_s": sum(self_time(i) for i in inv),
            "constitutive.max_residual": max(
                (spans[i][6][1] for i in inv if spans[i][6]), default=0.0),
            "constitutive.failed": sum(spans[i][5] is not None for i in inv),
            "soliton.inversions_per_point": in_profiles / points if points else 0.0,
            "quadrature.calls": len(by_name["quadrature.quadpack"]),
            "quadrature.integrand_evals": sum(self.integrand_evals[k] for k in items),
            "quadrature.inner_refines": sum(
                sum(spans[c][0] == "quadrature.quadpack" for c in children[i]) - 1
                for i in by_name["quadrature.inner_limit_quad"]),
            "quadrature.self_s": sum(self_time(i) for i in quads),
            "quadrature.failed": sum(
                spans[i][5] == "QuadratureFailure" and outermost(i) for i in quads),
            "energetics.divergent": sum(
                spans[i][5] == "Divergent" for i in layer("energetics.")),
            "models.density_evals": len(by_name["models.density_from_invariants"]),
            "models.self_s": sum(self_time(i) for i in by_name["models.density_from_invariants"]),
        }
        for metric, span_name in _INCLUSIVE.items():
            m[metric] = sum(dur(i) for i in by_name[span_name])
        return m
