"""One workload in its own fresh process.

Sets up (imports nled and fills its once-per-process caches), runs the
workload's items as a closed loop with one caller and no think time for the
given number of seconds, checks each result, and prints one JSON record as
the last line of stdout.  With --trace 1 the first half of the time runs
untraced and the second half traced.  With --setup-only it prints the set-up
timing and exits.  Started by run.py, from the root of a source checkout.

The machine's speed drifts by tens of percent within seconds, so a fixed
calibration workload is timed before every item and after every set-up;
run.py scales each time by the calibration time taken alongside it.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

clock = time.perf_counter

NLED_MODULES = ("constants", "constitutive", "models", "kinematics", "quadrature",
                "energetics", "soliton", "expansion", "interaction", "dirac", "errors")


def calibrate() -> float:
    """Seconds for fixed work in nled's own mix (an interpreted loop, small
    numpy calls, one QUADPACK call): the machine's current speed."""
    import numpy as np
    from scipy.integrate import quad

    t0 = clock()
    s = 0.0
    for i in range(30_000):
        s += i * i
    rng = np.random.default_rng(0)
    for _ in range(300):
        a = rng.uniform(-1.0, 1.0, 3)
        s += float(a @ a)
    quad(math.exp, 0.0, 1.0)
    return clock() - t0


def _import_nled(root: str) -> float:
    t0 = clock()
    for name in NLED_MODULES:
        importlib.import_module("nled." + name)
    elapsed = clock() - t0
    src = os.path.join(root, "src", "nled")
    found = os.path.dirname(os.path.abspath(sys.modules["nled"].__file__))
    if found != os.path.abspath(src):
        raise SystemExit(f"imported nled from {found}, not from {src}")
    return elapsed


def setup(args):
    """(workload, {setup_s, import_s, calibration_s}); the set-up record is
    None for cli, whose set-up run.py times from outside."""
    if args.workload == "cli":
        import workloads
        return workloads.build("cli", args.seed, args.root, args.workdir), None
    import_s = _import_nled(args.root)
    import workloads  # benchmark code: not part of nled's set-up
    wl = workloads.build(args.workload, args.seed, args.root, args.workdir)
    t0 = clock()
    sys.modules["nled.energetics"].born_infeld_energy_constant()
    for m in wl.models:
        sys.modules["nled.constitutive"].attainable_displacement_max(m)
    setup_s = import_s + clock() - t0
    # calibrated after the set-up, since calibrating imports numpy and scipy
    return wl, {"setup_s": setup_s, "import_s": import_s,
                "calibration_s": statistics.median(calibrate() for _ in range(3))}


class Run:
    """Outcomes of the items: attempts, failures, oracle errors and the
    first result's digest, against which every later pass is compared."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.oracle: dict = {}
        self.first: dict = {}         # item index -> (digest, error message or None)
        self.item_times: dict = {}    # item id -> (item name, seconds)
        self.stdout_bytes: dict = {}  # item name -> bytes a command printed

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 8:
            self.failures.append(message)

    def outcome(self, j: int, item, result, exc) -> None:
        import workloads

        self.attempted += 1
        if exc is not None:
            self.fail(f"{item.name}: {type(exc).__name__}: {exc}")
            return
        if hasattr(result, "stdout"):
            self.stdout_bytes[item.name] = len(result.stdout)
        digest = item.digest(result)
        if j not in self.first:
            error = None
            try:
                workloads.merge_errors(self.oracle, item.check(result))
            except Exception as err:  # any error in checking: not as specified
                error = f"{item.name}: {type(err).__name__}: {err}"
            self.first[j] = (digest, error)
        first_digest, error = self.first[j]
        if digest != first_digest:
            self.fail(f"{item.name}: result differs from the first pass")
        elif error is not None:
            self.fail(error)

    def passes(self, seconds: float, tracer=None) -> list:
        """Whole passes over the items until ``seconds`` have elapsed.

        Returns per pass its time, the median calibration time taken before
        its items, and its item ids.  A pass's time is the sum of its items'
        call times, so checking results costs nothing measured.
        """
        out = []
        n = len(self.wl.items)
        deadline = clock() + seconds
        while clock() < deadline:
            base = len(self.item_times)
            total = 0.0
            cal = []
            for j, item in enumerate(self.wl.items):
                cal.append(calibrate())
                if tracer is not None:
                    tracer.item = base + j
                result = exc = None
                t0 = clock()
                try:
                    result = item.run()
                except Exception as err:  # counted as a failed item
                    exc = err
                dt = clock() - t0
                if tracer is not None:
                    tracer.item = -1
                self.item_times[base + j] = (item.name, dt)
                total += dt
                self.outcome(j, item, result, exc)
            out.append({"s": total, "calibration_s": statistics.median(cal),
                        "ids": list(range(base, base + n))})
        return out

    def cli_layers(self, ids: list) -> dict:
        """Wall time of each command in one pass, and the bytes printed."""
        import workloads

        layers = dict.fromkeys(workloads.CLI_LAYER.values(), 0.0)
        for i in ids:
            name, dt = self.item_times[i]
            layers[workloads.CLI_LAYER[name]] += dt
        layers["cli.output_bytes"] = sum(self.stdout_bytes.values())
        return layers


def _probe_accuracy(run: Run, args) -> None:
    """Accuracy keys the workload's own items do not produce, from the
    items of the workload that does, run once and untimed."""
    import oracles
    import workloads

    for key in oracles.ACCURACY_KEYS:
        if key in run.oracle:
            continue
        for item in workloads.probe_items(key, args.seed, args.root, args.workdir):
            try:
                workloads.merge_errors(run.oracle, item.check(item.run()))
            except Exception as err:  # reported, and the run is not correct
                run.failures.append(f"accuracy probe {item.name}: {type(err).__name__}: {err}")
                run.oracle[key] = float("inf")


def _versions() -> dict:
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl, setup_rec = setup(args)
    if args.setup_only:
        print(json.dumps(setup_rec))
        return

    import workloads

    run = Run(wl)
    record = {"workload": wl.name, "seed": args.seed, "why": workloads.WHY[wl.name],
              "items": [it.name for it in wl.items], "setup": setup_rec, **_versions()}
    if args.trace:
        import spans

        untraced = run.passes(args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = run.passes(args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        layers = run.cli_layers if not wl.in_process else tracer.pass_metrics
        for p in traced:
            p["layers"] = layers(p["ids"])
        record["traced_passes"] = traced
        if wl.in_process:
            record["absent_spans"] = tracer.absent
            record["span_count"] = len(tracer.spans)
            tracer.write(os.path.join(
                args.workdir, f"spans-{wl.name}-seed{args.seed}.json.gz"))
    else:
        untraced = run.passes(args.seconds)
        _probe_accuracy(run, args)
    record["passes"] = untraced
    record["item_s"] = run.item_times
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    record["peak_rss_kib"] = resource.getrusage(who).ru_maxrss
    record.update(attempted=run.attempted, failed=run.failed, failures=run.failures,
                  oracle=run.oracle, stdout_bytes=run.stdout_bytes)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
