"""Seeded workloads.

A workload is a list of items.  Each item calls nled's public functions
through their defining modules (never the package re-exports), and its
result is checked against an oracle from oracles.py.  The seed chooses the
limiting fields E0 (log-uniform in [0.5, 2] x 9.18e15 statvolt/cm, with the
historical1934 constants), the sweep seeds and the item order; nled receives
only the generated inputs.  Grids are explicit 400-point grids in cm.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import json
import math
import os
import pickle
import random
import subprocess
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import oracles

PRESET = "historical1934"
POINTS = 400
POLY_ALPHA, POLY_XI = 0.01, 0.001

# why each workload exists (the same text as in BENCHMARK.json)
WHY = {
    "profile": ("compute_profile on 400-point grids (BI log and linear, log model, "
                "Maxwell): per-point inversion, potential quadrature and finite "
                "differences"),
    "energy": ("self-energy and stress integrals (BI, log model with cutoff, polynomial,"
               " Maxwell) and phi(0): inversions inside QUADPACK callbacks, no grid"),
    "identities": ("Fierz, boost, interaction sweeps, Taylor fits and the Dirac table: no "
                   "inversion or quadrature, the control that inversion and quadrature work "
                   "must not move"),
    "cli": ("fresh python -m nled.cli processes for seven subcommands: import, "
            "config, dispatch and CSV/JSON output are the work"),
}

# The items that produce each accuracy key; a workload whose own items do
# not produce a key runs these once, untimed, after its timed passes.
PROBES = {
    "field": ("profile", ("bi_log",)),
    "phi": ("profile", ("bi_log",)),
    "charge": ("profile", ("bi_log",)),
    "energy": ("energy", ("bi",)),
    "laue": ("energy", ("bi", "maxwell_cutoff")),
    "identity": ("identities", ("fierz", "boost", "interaction")),
}


def _pickle_digest(result) -> str:
    return hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()


@dataclass
class Item:
    """One call into nled plus the oracle check of its result."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    digest: Callable[[object], str] = _pickle_digest


@dataclass
class Workload:
    name: str
    items: list
    models: tuple = ()     # models whose per-process caches setup fills
    in_process: bool = True


def merge_errors(into: dict, errs: dict) -> None:
    for key, value in errs.items():
        into[key] = max(into.get(key, 0.0), value)


def _nled():
    names = ("constants", "models", "soliton", "energetics", "quadrature", "errors",
             "kinematics", "interaction", "expansion", "dirac")
    return SimpleNamespace(**{n: importlib.import_module("nled." + n) for n in names})


def _draw_E0(rng: random.Random) -> float:
    return oracles.E0_REF * 2.0 ** rng.uniform(-1.0, 1.0)


def _profile_arrays(p) -> dict:
    return {"r": p.grid.r, "D": p.D, "E": p.E, "eps": p.eps, "u": p.u, "phi": p.phi}


# ---------------------------------------------------------------------------
# profile

def _profile(rng, nl, e) -> Workload:
    soliton, models = nl.soliton, nl.models

    def item(name, m, grid, check):
        return Item(name, lambda: soliton.compute_profile(m, e, grid), check)

    def bi_check(E0, log_spaced):
        def check(p):
            oracles.require(p.inversion_failed_below_r is None, "BI profile was trimmed")
            oracles.require(p.E_center == E0, "BI E_center is not E0")
            return oracles.born_infeld_profile(
                e, E0, rho=p.rho, log_spaced=log_spaced, with_charge=log_spaced,
                **_profile_arrays(p))
        return check

    E0s = [_draw_E0(rng) for _ in range(4)]
    r0s = [math.sqrt(e / E0) for E0 in E0s]
    bi_log, bi_lin, ls = (models.born_infeld(E0s[0]), models.born_infeld(E0s[1]),
                          models.log_schroedinger(E0s[2]))
    mx = models.maxwell()
    items = [
        item("bi_log", bi_log, soliton.log_grid(1e-4 * r0s[0], 1e4 * r0s[0], POINTS),
             bi_check(E0s[0], True)),
        item("bi_linear", bi_lin, soliton.linear_grid(1e-2 * r0s[1], 1e1 * r0s[1], POINTS),
             bi_check(E0s[1], False)),
        item("ls_log", ls, soliton.log_grid(1e-4 * r0s[2], 1e4 * r0s[2], POINTS),
             lambda p: oracles.log_model_profile(
                 e, E0s[2], boundary=p.inversion_failed_below_r, **_profile_arrays(p))),
        # Maxwell has no radius of its own; the grid spans a drawn r0
        item("maxwell_log", mx, soliton.log_grid(1e-4 * r0s[3], 1e4 * r0s[3], POINTS),
             lambda p: oracles.maxwell_profile(e, rho=p.rho, log_spaced=True,
                                               **_profile_arrays(p))),
    ]
    return Workload("profile", items, models=(bi_log, bi_lin, ls, mx))


# ---------------------------------------------------------------------------
# energy

def _energy(rng, nl, e) -> Workload:
    energetics, models, soliton = nl.energetics, nl.models, nl.soliton
    QuadratureSpec, Divergent = nl.quadrature.QuadratureSpec, nl.errors.Divergent

    def both(m, *spec):
        return lambda: (energetics.stress_integrals(m, e, *spec),
                        energetics.total_energy(m, e, *spec))

    def divergent():
        try:
            energetics.total_energy(models.maxwell(), e)
        except Divergent as exc:
            return exc.details
        return None

    E0s = [_draw_E0(rng) for _ in range(4)]
    r0s = [math.sqrt(e / E0) for E0 in E0s]
    bi, ls, bi0 = (models.born_infeld(E0s[0]), models.log_schroedinger(E0s[1]),
                   models.born_infeld(E0s[3]))
    poly, mx = models.polynomial(alpha=POLY_ALPHA, xi=POLY_XI), models.maxwell()
    r_ls, r_mx = 2.0 * r0s[1], r0s[2]

    def check_bi(res):
        s, (U, _) = res
        errs = oracles.born_infeld_energy(e, E0s[0], U)
        merge_errors(errs, oracles.born_infeld_energy(e, E0s[0], s.U_total))
        merge_errors(errs, oracles.trace_vanishes(s.U_total, s.laue_trace))
        oracles.require(not np.any(s.momentum), "electrostatic momentum is not zero")
        return errs

    def check_ls(res):
        s, (U, _) = res
        errs = oracles.log_model_cutoff_energy(e, E0s[1], r_ls, U, s.laue_trace)
        merge_errors(errs, oracles.log_model_cutoff_energy(
            e, E0s[1], r_ls, s.U_total, s.laue_trace))
        return errs

    def check_poly(res):
        s, (U, _) = res
        errs = oracles.polynomial_energy(e, POLY_ALPHA, POLY_XI, U)
        merge_errors(errs, oracles.polynomial_energy(e, POLY_ALPHA, POLY_XI, s.U_total))
        merge_errors(errs, oracles.trace_vanishes(s.U_total, s.laue_trace, "laue_polynomial"))
        return errs

    def check_mx(res):
        s, (U, _) = res
        errs = oracles.maxwell_cutoff_energy(e, r_mx, U, s.laue_trace)
        merge_errors(errs, oracles.maxwell_cutoff_energy(e, r_mx, s.U_total, s.laue_trace))
        return errs

    items = [
        Item("bi", both(bi), check_bi),
        Item("ls_cutoff", both(ls, QuadratureSpec(cutoff_r=r_ls)), check_ls),
        Item("polynomial", both(poly), check_poly),
        Item("maxwell_cutoff", both(mx, QuadratureSpec(cutoff_r=r_mx)), check_mx),
        Item("maxwell_divergent", divergent, oracles.divergent_partials),
        Item("bi_phi0", lambda: soliton.potential_at(bi0, e, 0.0),
             lambda phi0: oracles.born_infeld_phi0(e, E0s[3], phi0)),
    ]
    return Workload("energy", items, models=(bi, ls, poly, mx, bi0))


# ---------------------------------------------------------------------------
# identities

def _identities(rng, nl, e) -> Workload:
    kin, inter, expansion, dirac, models = (nl.kinematics, nl.interaction, nl.expansion,
                                            nl.dirac, nl.models)
    c = nl.constants.constants(PRESET).c
    seeds = [rng.randrange(2**31) for _ in range(3)]
    E0 = _draw_E0(rng)
    fits = (models.maxwell(), models.born_infeld(E0), models.log_schroedinger(E0),
            models.polynomial(alpha=POLY_ALPHA, xi=POLY_XI))

    def taylor(m):
        def run():
            return expansion.estimate_taylor_coefficients(m, 0.01, higher_order=True)

        def check(est):
            return oracles.taylor(m.kind, E0, est.c1_hat, est.c20_hat, est.c02_hat,
                                  alpha=POLY_ALPHA, xi=POLY_XI, c30=est.c30_hat)
        return Item("taylor_" + m.kind.replace("-", "_"), run, check)

    items = [
        Item("fierz", lambda: kin.fierz_suite(draws=10_000, seed=seeds[0]),
             lambda rep: oracles.fierz(rep, 10_000)),
        Item("boost", lambda: kin.boost_invariance_suite(draws=1_000, seed=seeds[1],
                                                         beta_max=0.9), oracles.boost),
        Item("interaction", lambda: inter.interaction_suite(states=1_000, seed=seeds[2],
                                                            c=c, boost_beta=0.6),
             oracles.interaction),
        *(taylor(m) for m in fits),
        Item("dirac", lambda: dirac.identity_report(), oracles.dirac_rows),
    ]
    return Workload("identities", items, models=fits)


# ---------------------------------------------------------------------------
# cli

@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    stderr: bytes


def _cli_digest(res: CliResult) -> str:
    """Repeated runs of one command must give byte-identical stdout."""
    return hashlib.sha256(b"%d\n" % res.returncode + res.stdout).hexdigest()


def _cli_json(res: CliResult) -> dict:
    oracles.require(res.returncode == 0 and not res.stderr,
                     f"exit {res.returncode}: {res.stderr[-400:]!r}")
    return json.loads(res.stdout)


def _cli(rng, root, workdir) -> Workload:
    e = oracles.HISTORICAL_E
    E0s = [_draw_E0(rng) for _ in range(3)]
    sweep_seed = rng.randrange(2**31)
    config = os.path.join(workdir, f"invariants-seed{sweep_seed}.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"seed": sweep_seed}, fh)

    def item(name, args, check):
        cmd = [sys.executable, "-m", "nled.cli", *args]

        def run():
            # the environment run.py gave this process: PYTHONPATH=src, one thread
            proc = subprocess.run(cmd, cwd=root, capture_output=True, timeout=120)
            return CliResult(proc.returncode, proc.stdout, proc.stderr)
        return Item(name, run, check, digest=_cli_digest)

    def bi(cmd, E0):
        return [cmd, "--model", "born-infeld", "--E0", repr(E0), "--preset", PRESET]

    def check_profile(res):
        oracles.require(res.returncode == 0 and not res.stderr,
                         f"exit {res.returncode}: {res.stderr[-400:]!r}")
        header, _, body = res.stdout.partition(b"\n")
        oracles.require(header == b"r_cm,D_statvolt_per_cm,E_statvolt_per_cm,"
                                   b"rho_esu_per_cm3,epsilon,u_erg_per_cm3,phi_statvolt",
                         f"unexpected CSV header {header!r}")
        cols = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
        oracles.require(cols.shape == (POINTS, 7), f"CSV has shape {cols.shape}")
        r, D, E, rho, eps, u, phi = cols.T
        return oracles.born_infeld_profile(e, E0s[0], r, D, E, rho, eps, u, phi,
                                           log_spaced=True, with_charge=True)

    def check_energy(res):
        out = _cli_json(res)
        oracles.require(abs(out["r0_cm"] / math.sqrt(e / E0s[1]) - 1) <= 1e-15,
                         f"r0_cm {out['r0_cm']!r}")
        errs = oracles.born_infeld_energy(e, E0s[1], out["U_erg"])
        merge_errors(errs, oracles.trace_vanishes(out["U_erg"], out["laue_trace_erg"]))
        return errs

    def check_divergent(res):
        oracles.require(res.returncode == 3 and not res.stdout,
                         f"expected exit 3 and no stdout, got {res.returncode}")
        record = json.loads(res.stderr)
        oracles.require(record.get("kind") == "Divergent", f"error record {record!r}")
        return oracles.divergent_partials(record.get("details"))

    def check_expand(res):
        out = _cli_json(res)
        return oracles.taylor("born-infeld", E0s[2], out["c1"], out["c20"], out["c02"])

    def check_invariants(res):
        out = _cli_json(res)
        errs = oracles.fierz({"draws": out["draws"],
                              "max_rel_err_fierz": out["max_rel_err_fierz"]}, 10_000)
        merge_errors(errs, oracles.boost(out))
        merge_errors(errs, oracles.interaction(out["interaction"]))
        return errs

    def check_dirac(res):
        oracles.require(res.returncode == 0 and not res.stderr, f"exit {res.returncode}")
        rows = []
        for line in res.stdout.decode().splitlines()[1:]:
            name, residual, status = line.rsplit(None, 2)
            rows.append({"identity": name, "residual": float(residual),
                         "pass": status == "PASS", "expected_zero": status != "REPORTED"})
        return oracles.dirac_rows(rows)

    def check_radius(res):
        out = _cli_json(res)
        return oracles.radius(out["r0_cm"], out["classical_radius_cm"],
                              out["energy_constant_C"])

    items = [
        item("profile", bi("profile", E0s[0]), check_profile),
        item("energy_bi", bi("energy", E0s[1]), check_energy),
        item("energy_maxwell", ["energy", "--model", "maxwell", "--preset", PRESET],
             check_divergent),
        item("expand", bi("expand", E0s[2]), check_expand),
        item("invariants", ["invariants", "--preset", PRESET, "--config", config],
             check_invariants),
        item("dirac", ["dirac"], check_dirac),
        item("radius", ["radius", "--preset", PRESET, "--convention", "paper"], check_radius),
    ]
    return Workload("cli", items, in_process=False)


# item name -> per-layer metric of the cli workload
CLI_LAYER = {"profile": "cli.profile_s", "energy_bi": "cli.energy_s",
             "energy_maxwell": "cli.energy_s", "expand": "cli.expand_s",
             "invariants": "cli.invariants_s", "dirac": "cli.dirac_s",
             "radius": "cli.radius_s"}


def build(name: str, seed: int, root: str, workdir: str, shuffle: bool = True) -> Workload:
    """The workload's items with inputs drawn from ``seed``, in seeded order."""
    rng = random.Random(seed)
    if name == "cli":
        wl = _cli(rng, root, workdir)
    else:
        nl = _nled()
        make = {"profile": _profile, "energy": _energy, "identities": _identities}[name]
        wl = make(rng, nl, nl.constants.constants(PRESET).e)
    if shuffle:
        rng.shuffle(wl.items)
    return wl


def probe_items(key: str, seed: int, root: str, workdir: str) -> list:
    """Items of another workload that produce accuracy key ``key``."""
    name, wanted = PROBES[key]
    wl = build(name, seed, root, workdir, shuffle=False)
    return [it for it in wl.items if it.name in wanted]
