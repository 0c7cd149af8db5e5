"""Self-test of the benchmark: every workload runs, and every check bites.

    python3 bench/selftest.py

First runs bench/run.py on each workload for a few operations, traced and
untraced, and requires correct results with the metric names that
BENCHMARK.json lists.  Then runs each workload in this process, requires its
check to pass on the real outputs, and plants one wrong answer at a time:

* an exact value changed by one unit in its numerator;
* a float value outside its stated bound;
* a table value beyond the tolerance;
* a quantile outside its bracket;
* altered CLI stdout, and a repeated CLI call whose stdout differs.

Each planted answer must make the check report a failure.  Exits 0 when all
of this holds.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FAILURES = []


def expect(condition, what):
    print(f"{'ok  ' if condition else 'FAIL'} {what}", flush=True)
    if not condition:
        FAILURES.append(what)


def run_script(bench):
    want = {0: {m["name"] for m in bench["end_to_end"]},
            1: {m["name"] for m in bench["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [*bench["command"], "--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--ops", "4"],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            ok = proc.returncode == 0
            if ok:
                result = json.loads(proc.stdout.splitlines()[-1])
                ok = (result["correct"] and result["failed"] == 0
                      and set(result["metrics"]) == want[trace])
            expect(ok, f"run.py {name} --trace {trace}")


def outputs_of(name, n_ops):
    workload = WORKLOADS[name](5, n_ops)
    workload.setup()
    outputs = [workload.op(i) for i in range(n_ops)]
    expect(workload.check(outputs) == [], f"{name}: real outputs pass")
    return workload, outputs


def rejects(workload, outputs, what):
    expect(workload.check(outputs) != [], f"{workload.name}: rejects {what}")


def planted():
    w, outs = outputs_of("exact-commensurate", 2)
    dens, cdf, pmf = outs[0]
    bumped = Fraction(dens.numerator + 1, dens.denominator)
    rejects(w, [(bumped, cdf, pmf)] + outs[1:], "an exact density off by one in its numerator")
    bumped = Fraction(pmf.numerator + 1, pmf.denominator)
    rejects(w, [(dens, cdf, bumped)] + outs[1:], "an exact PMF off by one in its numerator")

    w, outs = outputs_of("fresh-generic", 2)
    de, ce, df, dcond, cf, ccond = outs[0]
    off = float(de * (1 + 4 * checks.FLOAT_BOUND_FACTOR * Fraction(dcond) * Fraction(2) ** -52))
    rejects(w, [(de, ce, off, dcond, cf, ccond)] + outs[1:], "a float density outside its bound")

    w, outs = outputs_of("tabulate", 4)
    d, c, qs = outs[0]
    c = c.copy()
    c[len(c) // 2] += 2 * checks.TABLE_TOL
    rejects(w, [(d, c, qs)] + outs[1:], "a CDF table value beyond the tolerance")
    d, c, qs = outs[0]
    lo, hi = w.unisum.ContinuousSum.from_pairs(w.panel[w.order[0]]).support()
    shifted = qs[0] + 4 * float((hi - lo) * checks.QUANTILE_WIDTH)
    rejects(w, [(d, c, [shifted] + qs[1:])] + outs[1:], "a quantile outside its bracket")

    w, outs = outputs_of("cli-oneshot", 14)
    status, stdout = outs[0]
    text = stdout.decode()
    cut = text.index("/") - 1  # last digit of the density's numerator
    altered = (text[:cut] + str((int(text[cut]) + 1) % 10) + text[cut + 1:]).encode()
    rejects(w, [(status, altered)] + outs[1:], "altered density stdout")
    rejects(w, outs[:7] + [(status, stdout + b"\n")] + outs[8:],
            "a repeated call with different stdout")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    run_script(bench)
    planted()
    print("selftest " + ("passed" if not FAILURES else f"FAILED: {len(FAILURES)}"))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
