"""Spans around calls into the program's public functions, for traced runs.

A traced run replaces public functions of `unisum.contsum`, `unisum.discsum`,
`unisum.oracles` and `unisum.cli` with wrappers that record a span: name,
start, end, parent span and operation id.  Nothing inside the program is
changed.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        # each span: [name, start, end, parent index or None, op id, extra]
        self.spans = []
        self._stack = []
        self.op = None

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def end(self, idx, extra=None):
        span = self.spans[idx]
        span[2] = perf_counter()
        span[5] = extra
        self._stack.pop()

    @contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def _wrap(self, fn, name_of, extra_of=None):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.begin(name_of(args, kwargs))
            out = None
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                tracer.end(idx)
                if extra_of is not None and out is not None:
                    tracer.spans[idx][5] = extra_of(args, out)

        return wrapper

    def install(self):
        """Wrap the public functions whose calls the layer metrics time."""
        from unisum import cli, contsum, discsum, oracles

        cs = contsum.ContinuousSum
        build = cs.__dict__["from_pairs"].__func__

        def from_pairs(cls, pairs):
            # a build is from_pairs followed by the first support()
            with self.span("contsum.build"):
                s = build(cls, pairs)
                s.support()
                return s

        cs.from_pairs = classmethod(from_pairs)

        def by_mode(args, kwargs):
            mode = args[2] if len(args) > 2 else kwargs.get("mode", contsum.EXACT)
            return "contsum.exact" if mode.is_exact else "contsum.float"

        for attr in ("density_tau", "cdf"):
            setattr(cs, attr, self._wrap(getattr(cs, attr), by_mode))
        cs.quantile = self._wrap(cs.quantile, lambda a, k: "contsum.quantile")
        cs.density_batch = self._wrap(
            cs.density_batch, lambda a, k: "contsum.batch",
            lambda args, out: (out.size, int((out < 0).sum())))
        cs.cdf_batch = self._wrap(cs.cdf_batch, lambda a, k: "contsum.batch",
                                  lambda args, out: (out.size, 0))
        ds = discsum.DiscreteSum
        ds.pmf_tau = self._wrap(ds.pmf_tau, lambda a, k: "discsum.pmf")
        discsum.csc_coefficient = self._wrap(discsum.csc_coefficient,
                                             lambda a, k: "discsum.csc")
        oracles.sample_sum = self._wrap(oracles.sample_sum, lambda a, k: "oracles.sample")
        cli.parse_args = self._wrap(cli.parse_args, lambda a, k: "cli.parse")

    def layer_metrics(self, factor_of):
        """{metric: (value, unit)} for the span-based per-layer metrics.

        factor_of(op id) gives the speed factor that scales the span times
        of that operation (op id None: set-up).
        """
        length = [(end - start) * factor_of(op) for _, start, end, _, op, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] is not None:
                child[span[3]] += length[i]
        dur, busy, calls = {}, {}, {}
        for i, span in enumerate(self.spans):
            name = span[0]
            dur.setdefault(name, []).append(length[i])
            busy[name] = busy.get(name, 0.0) + (length[i] - child[i])
            calls[name] = calls.get(name, 0) + 1
        main_self = [length[i] - child[i] for i, span in enumerate(self.spans)
                     if span[0] == "cli.main"]

        def ms(values):
            return statistics.median(values) * 1e3 if values else 0.0

        out = {}
        for layer in ("contsum.build", "contsum.exact", "contsum.float",
                      "contsum.batch", "contsum.quantile", "discsum.pmf"):
            out[f"{layer}.calls"] = (calls.get(layer, 0), "count")
            out[f"{layer}.busy_ms"] = (busy.get(layer, 0.0) * 1e3, "ms")
            if layer in ("contsum.exact", "contsum.float", "discsum.pmf"):
                out[f"{layer}.p50_ms"] = (ms(dur.get(layer, [])), "ms")
        extras = [s[5] for s in self.spans if s[0] == "contsum.batch" and s[5]]
        points = sum(e[0] for e in extras)
        out["contsum.batch.points"] = (points, "count")
        out["contsum.batch.ns_per_point"] = (
            busy.get("contsum.batch", 0.0) * 1e9 / points if points else 0.0, "ns")
        out["contsum.batch.negative_density_points"] = (sum(e[1] for e in extras), "count")
        in_quantile = sum(1 for s in self.spans if s[0] == "contsum.float"
                          and s[3] is not None and self.spans[s[3]][0] == "contsum.quantile")
        n_quantile = calls.get("contsum.quantile", 0)
        out["contsum.quantile.cdf_calls"] = (
            in_quantile / n_quantile if n_quantile else 0.0, "count")
        out["cli.parse_ms"] = (ms(dur.get("cli.parse", [])), "ms")
        out["cli.main_ms"] = (ms(dur.get("cli.main", [])), "ms")
        out["cli.format_ms"] = (ms(main_self), "ms")
        return out

    def dump(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "op": o}
                for n, s, e, p, o, _ in self.spans]
