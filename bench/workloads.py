"""The four workloads.

Each workload is a closed loop over a fixed sequence of operations made from
the seed: the next operation starts when the previous one returns.  Within a
workload every operation is the same kind of query at a similar cost, so the
latency percentiles never fall on a boundary between kinds.  Reference
values are computed in `check`, after the timed phase.
"""

from __future__ import annotations

import io
import math
import os
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from time import perf_counter

import checks
import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


# The machine this benchmark was written on changes speed by up to 2x over
# minutes, as other tenants load its host.  Every reported time is therefore
# scaled to a reference speed: the wall time times CALIB_NOMINAL_S over the
# time a fixed pure-Python loop took when measured next to it.  Raw wall
# times and the factors go to the result file.
CALIB_ITERS = 60_000
CALIB_NOMINAL_S = 0.004


def speed_factor():
    """CALIB_NOMINAL_S over the median of three timings of a fixed loop."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        x = 0
        for i in range(CALIB_ITERS):
            x += i * i
        times.append(perf_counter() - t0)
    return CALIB_NOMINAL_S / statistics.median(times)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# Query points lie within SPREAD standard deviations of the mean.  The cost
# of a vertex sum grows with the number of positive vertex arguments, that
# is with the position of the point, so a narrow band keeps the operations
# of a workload at a similar cost.
SPREAD = 0.25


def _build(cls, pairs):
    s = cls.from_pairs(pairs)
    s.support()
    return s


def _support(pairs):
    return (sum(Fraction(c) - Fraction(a) for c, a in pairs),
            sum(Fraction(c) + Fraction(a) for c, a in pairs))


def _commensurate(rng, n):
    """Centers and half-widths on the 1/8 grid."""
    return [(Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(1, 25), 8))
            for _ in range(n)]


def _generic(rng, n):
    """Centers and half-widths that are generic doubles."""
    return [(rng.uniform(-1.0, 1.0), rng.uniform(0.25, 2.0)) for _ in range(n)]


def _distinct(rng, lo, hi, count):
    """`count` integers from [lo, hi]; none repeats until every one is used."""
    out = []
    while len(out) < count:
        out += rng.sample(range(lo, hi + 1), min(count - len(out), hi - lo + 1))
    return out


class Workload:
    name = ""
    rate = 1.0        # planned operations per second of --seconds
    round_size = 1    # operations in one round; a run is whole rounds
    csc_needs = ()    # (n, k) csc_coefficient pairs the workload needs
    calib_every_s = 0.1  # recalibrate before an operation once this much has passed

    def __init__(self, seed, n_ops, tracer=None):
        self.n_ops = n_ops
        self.tracer = tracer
        self.rng = random.Random(f"{self.name}:{seed}")
        self.make_inputs()

    @classmethod
    def planned_ops(cls, seconds):
        target = max(100, math.ceil(seconds * cls.rate))
        return math.ceil(target / cls.round_size) * cls.round_size

    def make_inputs(self):
        raise NotImplementedError

    def calibrate(self):
        """The speed factor that scales the times of the next operations."""
        return speed_factor()

    def setup(self):
        """Imports, model builds and warm-up; everything setup_s times."""
        raise NotImplementedError

    def op(self, i):
        raise NotImplementedError

    def check(self, outputs):
        """Reasons the outputs are wrong; outputs[i] is None for a failed op."""
        raise NotImplementedError

    def _import(self):
        import unisum
        if self.tracer is not None:
            self.tracer.install()
        return unisum


class ExactCommensurate(Workload):
    """Exact point queries on a fixed panel that every operation reuses.

    Each panel model has a band of about 1100 continuous and 300 discrete
    query points, and no point repeats until its band is used up; a 10-second
    run asks 200 per model.  So a memo of results per point gains nothing
    here; work shared between points, such as a merged vertex measure, can.
    """

    name = "exact-commensurate"
    rate = 40.0
    round_size = 2
    N_CONT = 14
    N_DISC = 13
    X_DEN = 512       # continuous query points lie on the 1/512 grid
    DISC_SCALE = 128  # discrete half-ranges are 128, 256 or 384

    def make_inputs(self):
        panel = random.Random(8)  # the panel does not depend on the seed
        self.cont_pairs = [_commensurate(panel, self.N_CONT) for _ in range(2)]
        self.disc_ms = [[self.DISC_SCALE * panel.randint(1, 3) for _ in range(self.N_DISC)]
                        for _ in range(2)]
        self.csc_needs = tuple((self.N_DISC, k) for k in range((self.N_DISC - 1) // 2 + 1))
        per_model = self.n_ops // 2
        columns, self.warm = [], []
        for pairs, ms in zip(self.cont_pairs, self.disc_ms):
            mean = sum(c for c, _ in pairs)
            sd = math.sqrt(sum(a * a for _, a in pairs) / 3)
            r = round(SPREAD * sd * self.X_DEN)
            xs = [mean + Fraction(j, self.X_DEN)
                  for j in _distinct(self.rng, -r, r, per_model)]
            sd_d = math.sqrt(sum(m * (m + 1) for m in ms) / 3)
            r_d = round(SPREAD * sd_d)
            columns.append(list(zip(xs, _distinct(self.rng, -r_d, r_d, per_model))))
            # the warm-up points lie just outside the query band
            self.warm.append((mean + Fraction(r + 1, self.X_DEN), r_d + 1))
        self.queries = [(i % 2, *columns[i % 2][i // 2]) for i in range(self.n_ops)]

    def setup(self):
        unisum = self._import()
        self.cont = [_build(unisum.ContinuousSum, pairs) for pairs in self.cont_pairs]
        self.disc = [unisum.DiscreteSum.from_half_ranges(ms) for ms in self.disc_ms]
        for s, d, (x, p) in zip(self.cont, self.disc, self.warm):
            s.density_tau(x)
            s.cdf(x)
            d.pmf_tau(p)

    def op(self, i):
        k, x, p = self.queries[i]
        s = self.cont[k]
        return s.density_tau(x).value, s.cdf(x).value, self.disc[k].pmf_tau(p)

    def check(self, outputs):
        refs = [reference.box_convolution(pairs) for pairs in self.cont_pairs]
        pmfs = [reference.lattice_pmf(ms) for ms in self.disc_ms]
        bad = []
        for (k, x, p), out in zip(self.queries, outputs):
            if out is None:
                continue
            dens, cdf = refs[k]
            bad += [checks.exact_mismatch(f"density_tau({x})", out[0], dens(x)),
                    checks.exact_mismatch(f"cdf({x})", out[1], cdf(x)),
                    checks.exact_mismatch(f"pmf_tau({p})", out[2], pmfs[k].get(p, 0))]
        return [b for b in bad if b]


class FreshGeneric(Workload):
    """A new model with generic double widths per operation, exact and float."""

    name = "fresh-generic"
    rate = 42.0
    N = 12
    SAMPLE = 8  # operations per run checked against split_convolution

    def make_inputs(self):
        self.inputs = []
        for _ in range(self.n_ops + 1):  # the last one is the warm-up
            pairs = _generic(self.rng, self.N)
            mean = sum(c for c, _ in pairs)
            sd = math.sqrt(sum(a * a for _, a in pairs) / 3)
            self.inputs.append((pairs, mean + self.rng.uniform(-SPREAD, SPREAD) * sd))
        self.sample = sorted(self.rng.sample(range(self.n_ops), min(self.SAMPLE, self.n_ops)))

    def setup(self):
        self.unisum = self._import()
        self.op(self.n_ops)

    def op(self, i):
        pairs, x = self.inputs[i]
        s = _build(self.unisum.ContinuousSum, pairs)
        float_mode = self.unisum.FLOAT
        de, ce = s.density_tau(x), s.cdf(x)
        df, cf = s.density_tau(x, float_mode), s.cdf(x, float_mode)
        return (de.value, ce.value, df.value, df.condition_estimate,
                cf.value, cf.condition_estimate)

    def check(self, outputs):
        bad = []
        for i, out in enumerate(outputs):
            if out is None:
                continue
            pairs, x = self.inputs[i]
            de, ce, df, dcond, cf, ccond = out
            if i in self.sample:
                rd, rc = reference.split_convolution(pairs, x)
                bad += [checks.exact_mismatch(f"op {i} density_tau", de, rd),
                        checks.exact_mismatch(f"op {i} cdf", ce, rc)]
            elif not (de > 0 and 0 < ce < 1):
                bad.append(f"op {i}: density {de} or cdf {ce} outside its range")
            bad += [checks.float_mismatch(f"op {i} float density_tau", df, dcond, de),
                    checks.float_mismatch(f"op {i} float cdf", cf, ccond, ce)]
        return [b for b in bad if b]


class Tabulate(Workload):
    """One table job per operation on a model built anew from a fixed panel."""

    name = "tabulate"
    rate = 6.5
    round_size = 4
    N = 9
    GRID = 3001
    LEVELS = (Fraction(1, 10), Fraction(9, 10))

    def make_inputs(self):
        panel = random.Random(10)  # the panel does not depend on the seed
        self.panel = [_commensurate(panel, self.N) for _ in range(2)]
        self.panel += [_generic(panel, self.N) for _ in range(2)]
        self.order = []
        for _ in range(self.n_ops // self.round_size):
            self.order += self.rng.sample(range(len(self.panel)), len(self.panel))

    def setup(self):
        self.unisum = self._import()
        import numpy
        self.np = numpy
        self._job(self.panel[0])

    def _grid(self, lo, hi):
        return self.np.linspace(float(lo), float(hi), self.GRID)

    def _job(self, pairs):
        s = _build(self.unisum.ContinuousSum, pairs)
        xs = self._grid(*s.support())
        return (s.density_batch(xs), s.cdf_batch(xs),
                [s.quantile(q) for q in self.LEVELS])

    def op(self, i):
        return self._job(self.panel[self.order[i]])

    def check(self, outputs):
        refs = {}
        bad = []
        for k, out in zip(self.order, outputs):
            if out is None:
                continue
            if k not in refs:
                dens, cdf = reference.box_convolution(self.panel[k])
                lo, hi = _support(self.panel[k])
                xs = [Fraction(x) for x in self._grid(lo, hi)]
                ref_d = [float(dens(x)) for x in xs]
                ref_c = [float(cdf(x)) for x in xs]
                refs[k] = (cdf, lo, hi, ref_d, ref_c, {})
            cdf, lo, hi, ref_d, ref_c, seen = refs[k]
            d, c, qs = out
            bad += [checks.table_mismatch(f"panel {k} density_batch", d, ref_d,
                                          checks.TABLE_TOL * max(ref_d)),
                    checks.table_mismatch(f"panel {k} cdf_batch", c, ref_c, checks.TABLE_TOL)]
            for q, x in zip(self.LEVELS, qs):
                if (q, x) not in seen:
                    seen[q, x] = checks.quantile_mismatch(
                        f"panel {k} quantile({q})", q, x, cdf, lo, hi)
                bad.append(seen[q, x])
        return [b for b in bad if b]


class CliOneshot(Workload):
    """One `python -m unisum.cli` process per operation on a small model."""

    name = "cli-oneshot"
    rate = 6.2
    round_size = 7  # one call of each subcommand
    N_MAX, K_MAX = 6, 3
    # A CLI call is mostly process start and import, whose speed on a shared
    # host jumps from one second to the next, apart from that of the
    # pure-Python loop.  So the calls are scaled by bare interpreter starts
    # made between them: PROBE_NOMINAL_S over a probe's wall time.
    PROBE_NOMINAL_S = 0.05
    calib_every_s = 0.0

    def make_inputs(self):
        rng = self.rng
        self.pairs = [(Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(1, 8), 4))
                      for _ in range(3)]
        self.ms = [rng.randint(1, 3) for _ in range(3)]
        lo, hi = _support(self.pairs)
        self.x = lo + (hi - lo) * Fraction(rng.randint(1, 63), 64)
        self.q = Fraction(rng.randint(1, 99), 100)
        self.count = 5
        sample_seed = rng.randint(0, 999)
        comps = [f"--comp={c}:{a}" for c, a in self.pairs]
        self.jobs = [
            ("density", ["density", *comps, f"--at={self.x}"]),
            ("cdf", ["cdf", *comps, f"--at={self.x}", "--float"]),
            ("quantile", ["quantile", *comps, f"--q={self.q}"]),
            ("pmf", ["pmf", *[f"--m={m}" for m in self.ms], "--csv"]),
            ("table", ["table", *comps]),
            ("coeffs", ["coeffs", f"--n-max={self.N_MAX}", f"--k-max={self.K_MAX}"]),
            ("sample", ["sample", *comps, f"--count={self.count}", f"--seed={sample_seed}"]),
        ]
        n = len(self.ms)
        needs = [(n, k) for k in range((n - 1) // 2 + 1)]
        needs += [(n, k) for n in range(1, self.N_MAX + 1) for k in range(self.K_MAX + 1)]
        self.csc_needs = tuple(dict.fromkeys(needs))

    def calibrate(self):
        if self.tracer is not None:  # traced operations call main in-process
            return speed_factor()
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT,
                       check=True, timeout=120)
        return self.PROBE_NOMINAL_S / (perf_counter() - t0)

    def setup(self):
        if self.tracer is not None:
            from unisum import cli
            self.tracer.install()
            self.cli = cli
        self.op(0)

    def op(self, i):
        _, argv = self.jobs[i % len(self.jobs)]
        if self.tracer is None:
            proc = subprocess.run([sys.executable, "-m", "unisum.cli", *argv],
                                  capture_output=True, env=child_env(), cwd=ROOT, timeout=120)
            return proc.returncode, proc.stdout
        buf = io.StringIO()
        with redirect_stdout(buf), self.tracer.span("cli.main"):
            status = self.cli.main(argv)
        return status, buf.getvalue().encode("utf-8")

    def references(self):
        dens, cdf = reference.box_convolution(self.pairs)
        lo, hi = _support(self.pairs)
        table = [lo + (hi - lo) * Fraction(k, 10) for k in range(11)]
        return {
            "density": dens(self.x),
            "cdf": cdf(self.x),
            "cdf_fn": cdf,
            "q": self.q,
            "support": (lo, hi),
            "pmf": reference.lattice_pmf(self.ms),
            "table": [(x, cdf(x)) for x in table],
            "coeffs": [reference.csc_series(n, self.K_MAX) for n in range(1, self.N_MAX + 1)],
            "count": self.count,
        }

    def check(self, outputs):
        ref = self.references()
        first = {}
        bad = []
        for i, out in enumerate(outputs):
            if out is None:
                continue
            command, _ = self.jobs[i % len(self.jobs)]
            status, stdout = out
            if status != 0:
                bad.append(f"op {i} {command}: exit status {status}")
                continue
            j = i % len(self.jobs)
            if j not in first:
                first[j] = stdout
                bad.append(checks.cli_mismatch(command, stdout, ref))
            elif stdout != first[j]:
                bad.append(f"op {i} {command}: stdout differs from an identical earlier call")
        return [b for b in bad if b]


WORKLOADS = {w.name: w for w in (ExactCommensurate, FreshGeneric, Tabulate, CliOneshot)}
