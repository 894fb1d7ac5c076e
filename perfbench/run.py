"""Benchmark of nled, measured from outside the program.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory that holds src/nled).
W is one of profile, energy, identities, cli, or ``all`` for the four in
turn.  Each workload runs in its own fresh Python process (child.py) as a
closed loop with one caller, after SETUP_PROBES other fresh processes have
timed nled's set-up.  Every result is checked against an independent oracle
(oracles.py).  All processes of a run share one CPU, and times are scaled by
a calibration timed alongside them (see NOTES.md).  With --trace 0 the
last line of stdout is the JSON result with the end-to-end metrics; with
--trace 1 it carries the per-layer metrics of a traced run.  Lines before it
are a readable report; the full run record is written to .perfbench/ in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from child import calibrate  # noqa: E402  (benchmark modules, stdlib only)
from spans import COUNTS, PER_LAYER  # noqa: E402

WORKLOADS = ("profile", "energy", "identities", "cli")
SETUP_PROBES = 4          # fresh set-up-only processes, besides the workload's own
RUN_LIMIT_S = 170.0       # a run must end within 180 s
DBL_EPS = 2.0**-52        # relative errors below one ulp are not resolved
# Times are reported for a machine on which child.calibrate() takes this
# long: each measured time is scaled by CAL_REF_S over the median calibration
# time taken alongside it, which cancels most of the machine's speed drift.
CAL_REF_S = 0.004

END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("pass_p50_s", "s"),
    ("pass_tail_s", "s"),
    ("success_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("field_digits", "digits"),
    ("phi_digits", "digits"),
    ("charge_digits", "digits"),
    ("energy_digits", "digits"),
    ("laue_digits", "digits"),
    ("identity_digits", "digits"),
)

KNOWN_DEFECT = (
    "polynomial(alpha=0.01, xi=0.001) is left out of the profile workload: "
    "soliton.compute_profile on its library default grid raises a bare ValueError "
    "from brentq at 4 of 400 far-tail radii (r >~ 0.1 cm), and on the CLI's grid "
    "that profile costs about 7.4 s")

COLD_IMPORT = ("import time; t = time.perf_counter(); import nled; "
               "print(time.perf_counter() - t)")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env.pop("NLED_CONSTANTS_PRESET", None)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _run(cmd: list, root: Path, timeout: float) -> str:
    """Run a process in its own group; kill the group if it overruns."""
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{cmd[1:3]} did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{cmd[1:3]} exited {proc.returncode}:\n{err[-2000:]}")
    return out


def _last_json(out: str) -> dict:
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("child printed nothing")
    return json.loads(lines[-1])


def _child(root: Path, workdir: Path, args: list, timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--root", str(root),
           "--workdir", str(workdir), *args]
    return _last_json(_run(cmd, root, timeout))


def _setup_samples(root, workdir, workload, seed, deadline) -> list:
    """Set-up records {setup_s, import_s, calibration_s} of fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES + (workload == "cli")):
        if workload == "cli":
            cal = statistics.median(calibrate() for _ in range(3))
            t0 = time.perf_counter()
            out = _run([sys.executable, "-c", COLD_IMPORT], root,
                       deadline - time.perf_counter())
            samples.append({"setup_s": time.perf_counter() - t0, "calibration_s": cal,
                            "import_s": float(out.strip().splitlines()[-1])})
        else:
            samples.append(_child(root, workdir, ["--workload", workload, "--seed",
                                                  str(seed), "--setup-only"],
                                  deadline - time.perf_counter()))
    return samples


def _scaled(samples: list, key: str) -> float:
    """Median of ``key`` at the reference speed: the median over the samples
    times CAL_REF_S over their median calibration time."""
    return (statistics.median(s[key] for s in samples) * CAL_REF_S
            / statistics.median(s["calibration_s"] for s in samples))


def _tail(values: list) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples above it.

    Returns (value, percentile, samples above).  With fewer than eleven
    samples no percentile has ten above it; the lowest sample is the limit
    of that rule and is reported with the count actually above it.
    """
    s = sorted(values)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def _digits(err: float) -> float:
    """Correct decimal digits of a result against its oracle."""
    return -math.log10(max(err, DBL_EPS))


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src" / "nled").glob("*.py")))


def _layer_metrics(rec: dict, setups: list, pass_s: list) -> tuple[dict, bool]:
    """Per-layer metrics: medians over the traced passes, times scaled by
    each pass's calibration; and whether the counts repeated exactly."""
    units = dict(PER_LAYER)
    traced = rec["traced_passes"]
    per_pass = [{k: v * CAL_REF_S / p["calibration_s"] if units[k] == "s" else v
                 for k, v in p["layers"].items()} for p in traced]
    layers = dict.fromkeys(units, 0.0)
    layers.update({k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]})
    layers["cli.import_s"] = _scaled(setups, "import_s")
    layers["trace.overhead_ratio"] = statistics.median(
        p["s"] * CAL_REF_S / p["calibration_s"] for p in traced) / statistics.median(pass_s)
    repeat = all(p[k] == per_pass[0][k] for p in per_pass for k in COUNTS if k in p)
    return {k: {"value": v, "unit": units[k]} for k, v in layers.items()}, repeat


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    workdir = root / ".perfbench"
    workdir.mkdir(exist_ok=True)
    setups = _setup_samples(root, workdir, workload, seed, deadline)
    rec = _child(root, workdir, ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace)],
                 deadline - time.perf_counter())
    if rec["setup"] is not None:
        setups.append(rec["setup"])
    if not rec["passes"] or rec["attempted"] < 1:
        raise BenchError("no complete pass over the items")
    pass_s = [p["s"] * CAL_REF_S / p["calibration_s"] for p in rec["passes"]]
    tail, tail_pct, tail_above = _tail(pass_s)
    accuracy = {f"{k}_err": rec["oracle"].get(k, math.inf) for k in
                ("field", "phi", "charge", "energy", "laue", "identity")}
    extra = {}
    if trace:
        metrics, extra["counts_repeat"] = _layer_metrics(rec, setups, pass_s)
    else:
        values = {
            "setup_s": _scaled(setups, "setup_s"),
            "items_per_s": len(pass_s) * len(rec["items"]) / sum(pass_s),
            "pass_p50_s": statistics.median(pass_s),
            "pass_tail_s": tail,
            "success_ratio": 1.0 - rec["failed"] / rec["attempted"],
            "peak_rss_mib": rec["peak_rss_kib"] / 1024.0,
            **{f"{k[:-4]}_digits": _digits(v) for k, v in accuracy.items()},
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END}

    # a traced run reports no accuracy metrics and runs no accuracy probes
    correct = rec["failed"] == 0 and (trace or all(map(math.isfinite, accuracy.values())))
    record = {
        **rec, **extra, "seconds": seconds, "trace": trace, "setup": setups,
        "unscaled_setup_s": statistics.median(s["setup_s"] for s in setups),
        "unscaled_pass_p50_s": statistics.median(p["s"] for p in rec["passes"]),
        "pass_tail_percentile": tail_pct, "pass_tail_samples_above": tail_above,
        "failed_ratio": rec["failed"] / rec["attempted"], **accuracy,
        "nproc": os.cpu_count(), "pinned_cpu": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(), "src_nled_lines": _src_lines(root),
        "known_defect": KNOWN_DEFECT, "wall_s": time.perf_counter() - start,
        "correct": correct, "metrics": metrics,
    }
    (workdir / f"record-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    return record


def _report(rec: dict) -> None:
    print(f"== {rec['workload']} seed={rec['seed']} trace={rec['trace']}: {rec['why']}")
    print(f"   python {rec['python']}, numpy {rec['numpy']}, scipy {rec['scipy']}, "
          f"nproc {rec['nproc']}, src/nled {rec['src_nled_lines']} lines")
    print(f"   {len(rec['passes'])} passes of {len(rec['items'])} items; pass_tail_s is the "
          f"p{rec['pass_tail_percentile']:.0f} pass with {rec['pass_tail_samples_above']} "
          f"samples above it")
    print(f"   times scaled to a {CAL_REF_S * 1e3:g} ms calibration; unscaled "
          f"pass_p50 {rec['unscaled_pass_p50_s']:.4g} s, set-up {rec['unscaled_setup_s']:.4g} s")
    print(f"   attempted {rec['attempted']}, failed {rec['failed']}, "
          f"failed_ratio {rec['failed_ratio']:.6g} ratio")
    for msg in rec["failures"]:
        print(f"   FAILED {msg}")
    for key in ("field", "phi", "charge", "energy", "laue", "identity"):
        err = rec[key + "_err"]
        print(f"   {key}_err {err:.3e} rel" if math.isfinite(err) else
              f"   {key}_err not measured")
    if rec.get("absent_spans"):
        print(f"   absent spans: {', '.join(rec['absent_spans'])}")
    if "counts_repeat" in rec:
        print(f"   counts repeat across traced passes: {rec['counts_repeat']}")
    for name, m in rec["metrics"].items():
        print(f"   {name:32s} {m['value']:.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    root = Path.cwd()
    if not (root / "src" / "nled" / "__init__.py").is_file():
        print(f"no nled source tree at {root / 'src' / 'nled'}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    # One CPU for every process of the run: the calibration then times the
    # CPU the measured work runs on, which is what makes it a proxy.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            rec = run_workload(root, name, args.seed, args.seconds, args.trace)
            _report(rec)
            results.append(rec)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {(f"{r['workload']}.{k}" if len(names) > 1 else k): v
               for r in results for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
