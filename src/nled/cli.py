"""Command-line front end: JSON config, subcommand dispatch, CSV/JSON output.

Exit codes: 0 success, 1 stdout closed early (``nled profile | head``), 2
configuration error, 3 numerical failure (Divergent / NoSolution /
ConvergenceFailure / ...), the last two with a machine-readable JSON error
record on stderr.  Results go to stdout or --out; every JSON result carries a
provenance block {config_hash, constants_preset, grid, tolerances} so runs
are attributable and byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .constants import classical_electron_radius, constants, preset_from_environment
from .errors import ConfigurationError, NledError, NumericalError

_DEFAULTS = {
    "model": None,
    "preset": None,
    "grid": {"r_min_over_r0": 1e-4, "r_max_over_r0": 1e4, "points": 400, "spacing": "log"},
    "quad": {"cutoff_r_cm": None},
    "output": {"path": None, "format": None},
    "convention": "paper",
    "sample_scale": 0.01,
    "higher_order": False,
    "draws": 10_000,
    "boost_draws": 1_000,
    "seed": 0,
}

CSV_HEADER = ("r_cm,D_statvolt_per_cm,E_statvolt_per_cm,rho_esu_per_cm3,"
              "epsilon,u_erg_per_cm3,phi_statvolt")


def _merge_config(path: str | None) -> dict:
    cfg = json.loads(json.dumps(_DEFAULTS))  # deep copy
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path!r}: {exc}") from None
    except ValueError as exc:  # json.JSONDecodeError or UnicodeDecodeError
        raise ConfigurationError(f"config {path!r} is not valid UTF-8 JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigurationError(f"config {path!r} must be a JSON object")
    unknown = set(user) - set(_DEFAULTS)
    if unknown:
        raise ConfigurationError(f"unknown config keys {sorted(unknown)}")
    for key, value in user.items():
        if isinstance(_DEFAULTS[key], dict):
            if not isinstance(value, dict):
                raise ConfigurationError(f"config key {key!r} must be an object")
            bad = set(value) - set(_DEFAULTS[key])
            if bad:
                raise ConfigurationError(f"unknown keys {sorted(bad)} under {key!r}")
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def _require_int(name: str, value, minimum: int) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def _require_positive(name: str, value) -> None:
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not 0 < value < float("inf")):
        raise ConfigurationError(f"{name} must be a finite number > 0, got {value!r}")


def _resolve(args: argparse.Namespace) -> dict:
    cfg = _merge_config(args.config)
    # preset precedence: flag > environment variable > config file > modern
    if args.preset is not None:
        cfg["preset"] = args.preset
    elif preset_from_environment(default="") != "":
        cfg["preset"] = preset_from_environment()
    elif cfg["preset"] is None:
        cfg["preset"] = "modern"
    if args.model is not None:
        cfg["model"] = {"kind": args.model}
    if args.E0 is not None:
        if not isinstance(cfg["model"], dict):
            raise ConfigurationError("--E0 given without a model")
        cfg["model"]["E0"] = args.E0
    if args.rmin is not None:
        cfg["grid"]["r_min_over_r0"] = args.rmin
    if args.rmax is not None:
        cfg["grid"]["r_max_over_r0"] = args.rmax
    if args.points is not None:
        cfg["grid"]["points"] = args.points
    if args.out is not None:
        cfg["output"]["path"] = args.out
    if args.convention is not None:
        cfg["convention"] = args.convention

    g = cfg["grid"]
    _require_int("grid points", g["points"], 5)
    _require_positive("grid r_min_over_r0", g["r_min_over_r0"])
    _require_positive("grid r_max_over_r0", g["r_max_over_r0"])
    if not g["r_min_over_r0"] < g["r_max_over_r0"]:
        raise ConfigurationError(
            f"need 0 < r_min < r_max, got ({g['r_min_over_r0']}, {g['r_max_over_r0']})")
    if g["spacing"] not in ("log", "linear"):  # soliton.LOG, LINEAR: not imported here
        raise ConfigurationError(f"grid spacing must be 'log' or 'linear', got {g['spacing']!r}")
    q = cfg["quad"]
    if q["cutoff_r_cm"] is not None:
        _require_positive("quad cutoff_r_cm", q["cutoff_r_cm"])
    _require_positive("sample_scale", cfg["sample_scale"])
    _require_int("draws", cfg["draws"], 1)
    _require_int("boost_draws", cfg["boost_draws"], 1)
    _require_int("seed", cfg["seed"], 0)
    if not isinstance(cfg["higher_order"], bool):
        raise ConfigurationError(
            f"higher_order must be true or false, got {cfg['higher_order']!r}")
    fmt = cfg["output"]["format"]
    if fmt not in (None, "json", "csv") or (fmt == "csv" and args.command != "profile"):
        raise ConfigurationError(f"output format must be 'json' or, for profile, 'csv'; "
                                 f"got {fmt!r}")
    return cfg


def _provenance(cfg: dict) -> dict:
    import hashlib  # loads OpenSSL, which dirac and a CSV profile never need
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()
    return {
        "config_hash": digest,
        "constants_preset": cfg["preset"],
        "grid": cfg["grid"],
        "tolerances": cfg["quad"],
    }


def _require_model(cfg: dict):
    from .models import _E0_KINDS, model_from_config
    if not isinstance(cfg["model"], dict):
        raise ConfigurationError("this subcommand needs a model (--model or a 'model' "
                                 f"config object), got {cfg['model']!r}")
    k = constants(cfg["preset"])
    spec = dict(cfg["model"])
    if spec.get("kind") in _E0_KINDS and spec.get("E0") is None:
        # Default limiting field tied to the radius convention: E0 = e/r0^2.
        from . import energetics
        r0 = energetics.effective_radius(cfg["convention"], k)
        spec["E0"] = k.e / r0**2
    return model_from_config(spec), k, spec


def _write(cfg: dict, text: str) -> None:
    path = cfg["output"]["path"]
    if path is None:
        sys.stdout.write(text)
        # the newline is a second write, and no output ends in one: with PYTHONUNBUFFERED=1
        # a write that a leaving reader cuts short returns without an error, and only
        # the next one raises the BrokenPipeError that main turns into exit 1
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ConfigurationError(f"cannot write output {path!r}: {exc}") from None


def _emit_json(cfg: dict, obj: dict) -> None:
    _write(cfg, json.dumps({**obj, "provenance": _provenance(cfg)}, indent=2, sort_keys=True))


def _cmd_profile(cfg: dict) -> None:
    from . import energetics, soliton
    model, k, spec = _require_model(cfg)
    g = cfg["grid"]
    unit = energetics.radial_scale(model, k.e)
    make_grid = soliton.log_grid if g["spacing"] == soliton.LOG else soliton.linear_grid
    grid = make_grid(g["r_min_over_r0"] * unit, g["r_max_over_r0"] * unit, g["points"])
    prof = soliton.compute_profile(model, k.e, grid)
    # one column table for both formats: the CSV header names the JSON arrays
    columns = dict(zip(CSV_HEADER.split(","),
                       (prof.grid.r, prof.D, prof.E, prof.rho, prof.eps, prof.u, prof.phi)))
    fmt = cfg["output"]["format"] or "csv"
    if fmt == "csv":
        rows = (",".join(f"{v:.16e}" for v in row) for row in zip(*columns.values()))
        _write(cfg, "\n".join([CSV_HEADER, *rows]))
    else:
        _emit_json(cfg, {
            "model": spec,
            "r_unit_cm": unit,
            "r0_cm": prof.r0,
            "E0_statvolt_per_cm": prof.model.E0,
            "E_center_statvolt_per_cm": prof.E_center,
            "inversion_failed_below_r": prof.inversion_failed_below_r,
            **{name: column.tolist() for name, column in columns.items()},
        })


def _cmd_energy(cfg: dict) -> None:
    from . import energetics, quadrature
    model, k, spec = _require_model(cfg)
    quad = quadrature.QuadratureSpec(cutoff_r=cfg["quad"]["cutoff_r_cm"])
    summary = energetics.stress_integrals(model, k.e, quad)
    r0 = energetics.radial_scale(model, k.e, quad.cutoff_r)
    unit = k.e**2 / r0
    _emit_json(cfg, {
        "model": spec,
        "convention": cfg["convention"],
        "r0_cm": r0,
        "U_erg": summary.U_total,
        "U_in_units_of_e2_over_r0": summary.U_total / unit,
        "laue_trace_erg": summary.laue_trace,
        "laue_trace_over_U": summary.laue_trace / summary.U_total,
        "momentum_g_cm_per_s": summary.momentum.tolist(),
        "quad_error": summary.quad_error,
        "cutoff_r_cm": quad.cutoff_r,
    })


def _cmd_expand(cfg: dict) -> None:
    from .expansion import estimate_taylor_coefficients
    model, _, spec = _require_model(cfg)
    est = estimate_taylor_coefficients(model, cfg["sample_scale"],
                                       higher_order=cfg["higher_order"])
    out = {
        "model": spec,
        "sample_scale": cfg["sample_scale"],
        "c1": est.c1_hat,
        "c20": est.c20_hat,
        "c02": est.c02_hat,
        "ratio_c02_c20": est.c02_hat / est.c20_hat if est.c20_hat != 0.0 else None,
        "condition": est.condition,
        "residual": est.residual,
    }
    if cfg["higher_order"]:
        out.update({"c11": est.c11_hat, "c30": est.c30_hat, "c12": est.c12_hat})
    _emit_json(cfg, out)


def _cmd_invariants(cfg: dict) -> None:
    from . import interaction, kinematics
    k = constants(cfg["preset"])
    fierz = kinematics.fierz_suite(draws=cfg["draws"], seed=cfg["seed"])
    boosts = kinematics.boost_invariance_suite(draws=cfg["boost_draws"], seed=cfg["seed"])
    inter = interaction.interaction_suite(states=cfg["boost_draws"], seed=cfg["seed"], c=k.c)
    _emit_json(cfg, {
        "draws": fierz["draws"],
        "max_rel_err_fierz": fierz["max_rel_err_fierz"],
        "max_rel_err_boost": boosts["max_rel_err_boost"],
        "boost_draws": boosts["draws"],
        "interaction": inter,
    })


def _cmd_dirac(cfg: dict) -> None:
    from .dirac import identity_report
    rows = identity_report()
    width = max(len(r["identity"]) for r in rows) + 2
    lines = [f"{'identity':<{width}}{'residual':>12}  status"]
    for r in rows:
        status = ("PASS" if r["pass"] else "FAIL") if r["expected_zero"] else "REPORTED"
        lines.append(f"{r['identity']:<{width}}{r['residual']:>12.4e}  {status}")
    _write(cfg, "\n".join(lines))
    if any(r["expected_zero"] and not r["pass"] for r in rows):
        raise NumericalError("dirac identity check failed")


def _cmd_radius(cfg: dict) -> None:
    from . import energetics
    k = constants(cfg["preset"])
    kind = "born-infeld" if cfg["model"] is None else _require_model(cfg)[0].kind
    r0 = energetics.effective_radius(cfg["convention"], k, kind)
    _emit_json(cfg, {
        "convention": cfg["convention"],
        "r0_cm": r0,
        "classical_radius_cm": classical_electron_radius(k),
        "energy_constant_C": energetics.born_infeld_energy_constant(),
        "E0_from_r0_esu": k.e / r0**2,
    })


_HANDLERS = {
    "profile": _cmd_profile,
    "energy": _cmd_energy,
    "expand": _cmd_expand,
    "invariants": _cmd_invariants,
    "dirac": _cmd_dirac,
    "radius": _cmd_radius,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nled",
        description="Electrostatic soliton and identity checks for nonlinear "
                    "electrodynamics Lagrangians L(I1, I2).")
    parser.add_argument("command", choices=_HANDLERS, help="subcommand")
    parser.add_argument("--config", default=None, help="JSON config file")
    parser.add_argument("--model", default=None,
                        help="model kind: maxwell | born-infeld | log-schroedinger "
                             "| polynomial")
    parser.add_argument("--preset", default=None,
                        help="constants preset: modern | historical1934 "
                             "(also via NLED_CONSTANTS_PRESET; flag wins)")
    parser.add_argument("--E0", type=float, default=None, help="limiting field (esu)")
    parser.add_argument("--rmin", type=float, default=None, help="grid r_min / r0")
    parser.add_argument("--rmax", type=float, default=None, help="grid r_max / r0")
    parser.add_argument("--points", type=int, default=None, help="grid points")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    parser.add_argument("--convention", default=None,
                        choices=["paper", "energy-consistent"],
                        help="effective-radius convention")
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        _HANDLERS[args.command](cfg)
        return 0
    except NledError as exc:
        sys.stderr.write(json.dumps(exc.to_dict(), default=str) + "\n")
        return 3 if isinstance(exc, NumericalError) else 2


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left: Python's signal-docs recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
