"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`, and
nothing is installed.  One process with one thread runs the workload; only
cli-oneshot, the set-up samples and the traced run's probes start child
processes, one at a time.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Times are scaled to a
reference machine speed (see `speed_factor` and `Workload.calibrate` in
workloads.py).  Spans of a
traced run, the unscaled times and every result are also written under
bench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from spans import Tracer  # noqa: E402
from workloads import ROOT, SRC, WORKLOADS, child_env, speed_factor  # noqa: E402

SETUP_SAMPLES = 9   # set-ups per run: this process and eight fresh ones
PROBES = 5          # interpreter and import probes per traced run
RESULTS = os.path.join(HERE, "results")


def _child_seconds(code):
    """Scaled wall time of one fresh interpreter running `code`."""
    factor = speed_factor()
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                   check=True, timeout=120)
    return (perf_counter() - t0) * factor


def _setup_sample(args):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, check=True, timeout=170)
    return json.loads(out.stdout.splitlines()[-1])


def _csc_cold_ms(needs):
    if not needs:
        return 0.0
    code = ("import time\nfrom unisum import discsum\nt = time.perf_counter()\n"
            f"for n, k in {list(needs)!r}:\n    discsum.csc_coefficient(n, k)\n"
            "print((time.perf_counter() - t) * 1e3)\n")
    factor = speed_factor()
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=child_env(), cwd=ROOT, check=True, timeout=120)
    return float(out.stdout.split()[-1]) * factor


def _timed_setup(workload):
    """Set the workload up; the factor is the mean of one taken before and after."""
    before = workload.calibrate()
    t0 = perf_counter()
    workload.setup()
    elapsed = perf_counter() - t0
    return {"setup_s": elapsed, "factor": (before + workload.calibrate()) / 2}


def _peak_rss_mb(with_children):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="planned run length; fixes the number of operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int,
                        help="run this many operations instead (rounded up to whole rounds)")
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in this process and print it")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "unisum", "__init__.py")):
        print(f"error: no program to measure: {SRC}/unisum is missing", file=sys.stderr)
        return 2

    # one CPU for the run and its children, so that the calibration loop and
    # the operations it scales run on the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    cls = WORKLOADS[args.workload]
    if args.ops:
        n_ops = -(-args.ops // cls.round_size) * cls.round_size
    else:
        n_ops = cls.planned_ops(args.seconds)
    tracer = Tracer() if args.trace else None
    workload = cls(args.seed, n_ops, tracer)

    if args.setup_only:
        sys.path.insert(0, SRC)
        print(json.dumps(_timed_setup(workload)))
        return 0

    # byte-compile once, so that no set-up sample pays for compilation
    compileall.compile_dir(SRC, quiet=1)
    sys.path.insert(0, SRC)
    setups = [_timed_setup(workload)]
    setup_factor = setups[0]["factor"]

    outputs, latencies, failed = [], [], 0
    calibrations = []  # (index of the next operation, speed factor)
    calibrated = float("-inf")
    for i in range(n_ops):
        if perf_counter() - calibrated >= workload.calib_every_s:
            calibrations.append((i, workload.calibrate()))
            calibrated = perf_counter()
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = workload.op(i)
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            out = None
            failed += 1
        latencies.append(perf_counter() - t0)
        outputs.append(out)
    calibrations.append((n_ops, workload.calibrate()))
    # an operation is scaled by the mean of the factors measured before and after it
    factors = []
    for (start, before), (end, after) in zip(calibrations, calibrations[1:]):
        factors += [(before + after) / 2] * (end - start)
    if tracer is not None:
        tracer.op = None
    peak_rss = _peak_rss_mb(with_children=args.workload == "cli-oneshot")

    def summary(lat):
        cuts = statistics.quantiles(lat, n=10)
        return {"ops_per_s": ((n_ops - failed) / sum(lat), "1/s"),
                "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
                "op_p90_ms": (cuts[8] * 1e3, "ms")}

    timing = summary([t * f for t, f in zip(latencies, factors)])
    raw = {k: v for k, (v, _) in summary(latencies).items()}
    if tracer is None:
        setups += [_setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
        raw["setup_s"] = statistics.median(s["setup_s"] for s in setups)
        metrics = dict(timing)
        metrics["setup_s"] = (statistics.median(s["setup_s"] * s["factor"] for s in setups), "s")
        metrics["peak_rss_mb"] = (peak_rss, "MB")
    else:
        metrics = tracer.layer_metrics(
            lambda op: setup_factor if op is None else factors[op])
        metrics["discsum.csc.cold_ms"] = (_csc_cold_ms(workload.csc_needs), "ms")
        bare = statistics.median(_child_seconds("pass") for _ in range(PROBES))
        metrics["cli.interpreter_ms"] = (bare * 1e3, "ms")
        if args.workload == "cli-oneshot":
            imported = statistics.median(
                _child_seconds("import unisum.cli") for _ in range(PROBES))
            metrics["cli.import_ms"] = ((imported - bare) * 1e3, "ms")
            total = sum(len(out[1]) for out in outputs if out is not None)
            metrics["cli.stdout_bytes"] = (total / max(1, n_ops - failed), "bytes")
        else:
            metrics["cli.import_ms"] = (0.0, "ms")
            metrics["cli.stdout_bytes"] = (0.0, "bytes")

    problems = workload.check(outputs)
    for reason in problems[:20]:
        print(f"CHECK FAILED: {reason}", file=sys.stderr)

    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:42s} {value:14.6g} {unit}")
    print("unscaled wall times: " + ", ".join(f"{k} {v:.6g}" for k, v in sorted(raw.items()))
          + f"; median speed factor {statistics.median(factors):.4g}")
    print(f"{'attempted':42s} {n_ops:14d}")
    print(f"{'failed':42s} {failed:14d}")
    result = {
        "correct": not problems,
        "attempted": n_ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = dict(result, setup_samples=setups, raw=raw, factors=factors, latencies=latencies,
                  scaled={k: v for k, (v, _) in timing.items()})
    if tracer is not None:
        record["spans"] = tracer.dump()
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
