"""Command line front end: evaluate, tabulate, emit CSV, cross-validate.

Subcommands: density, cdf, quantile, pmf, table, coeffs, verify, sample.
The command table _COMMANDS is the one place where each subcommand's help
line, model, options and runner are stated, and _JOB_DEFAULTS the one place
for every default; a call builds the parser of its own subcommand only.
`unisum -h` lists the subcommands, `unisum <command> -h` one's options.
Continuous models are given as repeated `--comp c:a` pairs, discrete ones as
repeated `--m k`; `--config FILE` reads the same data from a plain text file
with one component per line (`c a`, or a single `m`), validated like the
flags.  Exact values print as `num/den` next to a decimal rendering; CDF
tables use five decimals with round-half-even, and CSV output is
byte-deterministic for a fixed job.  A `--from/--to/--step` grid, like the
full pmf support, may hold at most 10**6 points, and sample and verify may
draw at most 10**6 values (--count); a model over the capacity rule stated
above MEASURE_MAX in errors.py fails at its first point.  The reciprocal-sine
rows of coeffs and of verify's coeffs suite may hold at most 10**6
coefficients, N (K + 1) for --n-max N and --k-max K, and take at most
2 * 10**7 units of work, N K^3, checked before the first row is made (the
series oracle of verify is not counted).  All four exit with 1.  --n-max
must be at least 1, --k-max and --seed at least 0, and --count at least 1;
anything else is a usage error (exit 2).

Only verify's cont suite, which a plain verify runs too, imports numpy, for
its batch paths and its KS test; sample draws from the standard library's
random, and the other subcommands are pure integer and Fraction code.
Importing this module, or the package, loads neither numpy nor dataclasses,
inspect or typing: the package's value types are plain classes.
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from . import discsum
from .contsum import EXACT, ContinuousSum, EvalMode, EvalResult
from .discsum import DiscreteSum
from .errors import CapacityError, ModeError

__all__ = ["JobSpec", "UsageError", "parse_args", "run_table", "run_verify", "main"]


class UsageError(Exception):
    """Bad invocation: unknown flag, malformed value, incompatible model."""


# ---------------------------------------------------------------------------
# Rendering helpers
# ---------------------------------------------------------------------------

def format_fixed(value, places: int) -> str:
    """Render an exact rational with `places` decimals, rounding half to even."""
    v = Fraction(value)
    negative = v < 0
    scaled = abs(v) * 10 ** places
    q, r = divmod(scaled.numerator, scaled.denominator)
    twice = 2 * r
    if twice > scaled.denominator or (twice == scaled.denominator and q % 2 == 1):
        q += 1
    digits = str(q).rjust(places + 1, "0")
    text = f"{digits[:-places]}.{digits[-places:]}" if places else digits
    if negative and q != 0:
        text = "-" + text
    return text


def format_decimal(value) -> str:
    """Six-decimal rendering with trailing zeros trimmed ('1/4' -> '0.25')."""
    text = format_fixed(value, 6)
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


# ---------------------------------------------------------------------------
# Job specification and parsing
# ---------------------------------------------------------------------------

# JobSpec's options and their defaults, in the order its constructor takes them
_JOB_DEFAULTS = {
    "continuous": None, "discrete": None, "mode": EXACT,  # the models and an EvalMode
    "at": None, "q": None, "lo": None, "hi": None, "step": None,  # Fractions
    "seed": 0, "count": 10, "csv": False, "out": None, "dump_config": None,
    "suite": "all", "n_max": 10, "k_max": 6,
}


class JobSpec:
    """A parsed invocation: the command, then the options of _JOB_DEFAULTS by
    position or keyword.  Mutable; equal when every field is."""

    def __init__(self, command: str, *args, **options):
        if len(args) > len(_JOB_DEFAULTS) or not options.keys() <= _JOB_DEFAULTS.keys():
            raise TypeError(f"JobSpec takes a command and the options {list(_JOB_DEFAULTS)}")
        self.command = command
        vars(self).update(_JOB_DEFAULTS, **dict(zip(_JOB_DEFAULTS, args)), **options)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"JobSpec({fields})"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _positive_rational(text: str) -> Fraction:
    v = _rational(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0: {text!r}")
    return v


def _comp_pair(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected c:a, got {text!r}")
    c, a = map(_rational, parts)
    if a <= 0:
        raise argparse.ArgumentTypeError(f"half-width must be > 0 in {text!r}")
    return (c, a)


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")


def _integer_from(least: int):
    """An argparse type: an integer >= least."""
    def parse(text: str) -> int:
        value = _integer(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}: {text!r}")
        return value
    return parse


def _config_pair(text: str):
    """A config line `c a`, validated like `--comp c:a`."""
    tokens = text.split()
    if len(tokens) != 2:
        raise argparse.ArgumentTypeError(f"expected 'c a', got {text!r}")
    return _comp_pair(":".join(tokens))


def _load_config(path: str, parse_line):
    """One component per non-blank line (`#` starts a comment), via parse_line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path!r}: {exc}")
    items = []
    for lineno, raw in enumerate(lines, start=1):
        text = raw.split("#", 1)[0].strip()
        if text:
            try:
                items.append(parse_line(text))
            except argparse.ArgumentTypeError as exc:
                raise UsageError(f"{path}:{lineno}: {exc}")
    if not items:
        raise UsageError(f"config {path!r} defines no components")
    return items


def _write(path: str, text: str):
    """Write text to path; a failure raises ValueError naming the path."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc}") from exc


def _dump_config(path: str, spec: JobSpec):
    lines = []
    if spec.continuous is not None:
        for comp in spec.continuous.components:
            lines.append(f"{comp.center} {comp.half_width}")
    elif spec.discrete is not None:
        for comp in spec.discrete.components:
            lines.append(str(comp.m))
    _write(path, "\n".join(lines) + "\n")


def _attach_signed_values(argv: list[str], signed: set) -> list[str]:
    """Join `--opt -v` into `--opt=-v` for the options in signed, such as
    `--comp -1:1/4` or `--at -1/2`: argparse takes `-1/2` for an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in signed and re.match(r"-[\d.]", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def parse_args(argv: list[str]) -> JobSpec:
    """Parse an argv list into a validated JobSpec; raises UsageError."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        rows = "".join(f"  {name:<9} {entry[0]}\n" for name, entry in _COMMANDS.items())
        sys.stdout.write(f"usage: unisum <command> [options]\n\n{__doc__.splitlines()[0]}\n\n"
                         f"commands:\n{rows}\nSee 'unisum <command> -h' for its options.\n")
        sys.exit(0)
    if command not in _COMMANDS:
        raise UsageError(f"{'unknown command ' + repr(command) if argv else 'missing command'}"
                         f"; choose from {', '.join(_COMMANDS)}")
    _, kind, groups, _, overrides = _COMMANDS[command]
    # unset options stay out of the namespace: their defaults are JobSpec's
    parser = _Parser(prog=f"unisum {command}", argument_default=argparse.SUPPRESS)
    signed = set()
    model = (_MODEL_KINDS[kind][0], *_MODEL_FILES) if kind else ()
    for group in (*model, *groups, *_OUTPUT):
        options, target = (group, parser.add_mutually_exclusive_group()) \
            if isinstance(group, list) else ([group], parser)
        for flag, keywords in options:
            target.add_argument(flag, **keywords)
            if keywords.get("type") in (_rational, _positive_rational, _comp_pair):
                signed.add(flag)
    ns = vars(parser.parse_args(_attach_signed_values(argv[1:], signed)))
    spec = JobSpec(command, **{**overrides,
                               **{name: v for name, v in ns.items() if name in _JOB_DEFAULTS}})

    if kind:
        (flag, _), parse_line, build = _MODEL_KINDS[kind]
        items = ns.get(flag[2:], [])
        if ns.get("config"):
            if items:
                raise UsageError(f"give components via {flag} or --config, not both")
            items = _load_config(ns["config"], parse_line)
        if not items:
            raise UsageError(f"{command} needs at least one {flag}")
        setattr(spec, kind, build(items))

    if ns.get("float_"):
        spec.mode = EvalMode("float", report_condition=not ns.get("no_condition"))
    elif ns.get("no_condition"):
        raise UsageError("--no-condition only applies to --float")

    if command in ("density", "cdf") and spec.at is None \
            and None in (spec.lo, spec.hi, spec.step):
        raise UsageError(f"{command} needs --at X or a full --from/--to/--step range")
    if command == "quantile":
        if spec.q is None:
            raise UsageError("quantile needs --q")
        if not 0 <= spec.q <= 1:
            raise UsageError(f"--q must lie in [0, 1], got {spec.q}")
    return spec


# ---------------------------------------------------------------------------
# Evaluation point grids
# ---------------------------------------------------------------------------

# Most points a --from/--to/--step grid, or draws a --count, may ask for.
_GRID_MAX = 10 ** 6


def _points(spec: JobSpec, lo, hi, step) -> list:
    """[--at] if given, else lo, lo + step, ... up to hi (step > 0); at most
    _GRID_MAX points."""
    if spec.at is not None:
        return [spec.at]
    count = (hi - lo) // step + 1
    if count > _GRID_MAX:
        raise CapacityError(f"a grid of {count} points exceeds the limit of {_GRID_MAX}")
    return [lo + k * step for k in range(count)]


def _check_draws(count: int) -> None:
    """Refuse a --count above _GRID_MAX before anything is drawn or imported."""
    if count > _GRID_MAX:
        raise CapacityError(f"{count} draws exceed the limit of {_GRID_MAX}")


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _run_points(spec: JobSpec):
    """density, cdf or pmf at --at or over a grid: one text or CSV row per point."""
    if spec.command == "pmf":
        dsum = spec.discrete
        columns, lo, hi, step = ["p", "probability"], -dsum.span, dsum.span, 1

        def evaluate(p):
            return EvalResult(dsum.pmf_tau(p))
    else:
        fn = spec.continuous.density_tau if spec.command == "density" \
            else spec.continuous.cdf
        columns, lo, hi, step = ["x", "value"], spec.lo, spec.hi, spec.step

        def evaluate(x):
            return fn(x, spec.mode)
    exact, condition = spec.mode.is_exact, spec.mode.report_condition
    if exact or condition:
        columns.append("exact" if exact else "condition")
    lines = [",".join(columns)] if spec.csv else []
    for x in _points(spec, lo, hi, step):
        r = evaluate(x)
        if exact:
            cells = [format_decimal(r.value), str(r.value)] if spec.csv \
                else [f"{r.value} = {format_fixed(r.value, 6)}"]
        else:
            cells = [repr(r.value)]
            if condition:
                c = r.condition_estimate
                cells.append(repr(c) if spec.csv else f"cond={c:.3g}")
        lines.append(("," if spec.csv else "\t").join([format_decimal(x), *cells]))
    return "\n".join(lines) + "\n", True


def run_table(spec: JobSpec) -> str:
    """Five-decimal CDF table over the requested grid (default: the support)."""
    csum = spec.continuous
    lo, hi = csum.support()
    lo = lo if spec.lo is None else spec.lo
    hi = hi if spec.hi is None else spec.hi
    step = spec.step
    if step is None:
        # a tenth of the range; an empty or one-point range needs any step > 0
        step = (hi - lo) / 10 if hi > lo else 1
    comps = ", ".join(f"(c={format_decimal(c.center)}, a={format_decimal(c.half_width)})"
                      for c in csum.components)
    head = [
        f"# cumulative distribution of a sum of {csum.n} uniform component(s)",
        f"# components: {comps}",
        f"# mode: {spec.mode.kind}",
    ]
    rows = []
    for x in _points(spec, lo, hi, step):
        r = csum.cdf(x, spec.mode)
        rows.append((format_decimal(x), format_fixed(r.value, 5)))
    if spec.csv:
        body = ["x,F"] + [f"{x},{F}" for x, F in rows]
    else:
        width = max((len(x) for x, _ in rows), default=1)
        body = [f"{'x':>{width}}  F"] + [f"{x:>{width}}  {F}" for x, F in rows]
    return "\n".join(head + body) + "\n"


# Most work N K^3 that the rows of coeffs or verify's coeffs suite may take.
_ROW_WORK_MAX = 2 * 10 ** 7


def _coeff_rows(spec: JobSpec):
    """(n, [B(n, 0), ..., B(n, k_max)]) for n = 1, ..., n_max: one row per n,
    refused before the first unless they hold at most _GRID_MAX coefficients
    and take at most _ROW_WORK_MAX work."""
    count, work = spec.n_max * (spec.k_max + 1), spec.n_max * spec.k_max ** 3
    if count > _GRID_MAX:
        raise CapacityError(f"{count} coefficients exceed the limit of {_GRID_MAX}")
    if work > _ROW_WORK_MAX:
        raise CapacityError(f"rows of work N K^3 = {work} exceed the limit of {_ROW_WORK_MAX}")
    return ((n, discsum._csc_row(n, spec.k_max + 1)) for n in range(1, spec.n_max + 1))


def _run_coeffs(spec: JobSpec):
    lines = ["n,k,value,exact"] if spec.csv else []
    lines += [f"{n},{k},{format_decimal(b)},{b}" if spec.csv else f"b(n={n}, k={k}) = {b}"
              for n, row in _coeff_rows(spec) for k, b in enumerate(row)]
    return "\n".join(lines) + "\n", True


def _run_sample(spec: JobSpec):
    _check_draws(spec.count)
    from . import oracles

    draws = oracles.sample_sum(spec.continuous, spec.count, spec.seed)
    lines = ["value"] if spec.csv else []
    lines += [repr(float(v)) for v in draws]
    return "\n".join(lines) + "\n", True


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def _verify_coeffs(spec: JobSpec, lines: list[str]) -> bool:
    from . import oracles

    ok = True
    for n, row in _coeff_rows(spec):
        for k, (formula, series) in enumerate(zip(row, oracles.csc_series_oracle(n, spec.k_max))):
            if spec.suite == "coeffs":
                lines.append(f"b(n={n}, k={k}) = {formula}")
            if formula != series:
                ok = False
                lines.append(f"MISMATCH b(n={n}, k={k}): formula {formula}, series {series}")
    lines.append(f"suite coeffs: {'PASS' if ok else 'FAIL'} (n<=:{spec.n_max}, "
                 f"k<=:{spec.k_max}, {spec.n_max * (spec.k_max + 1)} entries)")
    return ok


def _verify_disc(spec: JobSpec, lines: list[str]) -> bool:
    import random

    from . import oracles

    rng = random.Random(spec.seed)
    ok = True
    for _ in range(25):
        n = rng.randint(1, 5)
        dsum = DiscreteSum.from_half_ranges([rng.randint(0, 4) for _ in range(n)])
        oracle = oracles.discrete_conv_oracle(dsum)
        full = dsum.pmf_full()
        if sum(full.values()) != 1:
            ok = False
            lines.append(f"MISMATCH pmf normalization for {dsum}")
        full.update({p: dsum.pmf_tau(p) for p in (-dsum.span - 1, dsum.span + 1)})
        for p in range(-dsum.span - 1, dsum.span + 2):
            if full[p] != oracle.get(p, Fraction(0)):
                ok = False
                lines.append(f"MISMATCH pmf({p}) for {dsum}")
                break
    lines.append(f"suite disc: {'PASS' if ok else 'FAIL'} "
                 "(25 models, exhaustive over support)")
    return ok


def _verify_cont(spec: JobSpec, lines: list[str]) -> bool:
    import numpy as np

    from . import oracles

    panel = [  # dyadic, so every check point is a double that the batch paths see exactly
        ContinuousSum.from_pairs([(0, 1), (0, 2)]),
        ContinuousSum.from_pairs([(Fraction(1, 2), Fraction(1, 2))] * 3),
        ContinuousSum.from_pairs([(0, 1), (-1, Fraction(1, 2)), (2, Fraction(3, 2))]),
    ]
    before, checked = len(lines), 0  # the suite passes if it adds no MISMATCH line
    for csum in panel:
        *exact_forms, knots = oracles.continuous_conv_oracle(csum)
        if not set(csum.breakpoints()) <= set(knots):
            lines.append(f"MISMATCH breakpoints() outside the oracle's knots for {csum}")
        xs = oracles.check_points(knots, csum.n)
        checked += len(xs)
        for closed, batch, oracle, e in zip(
                (csum.density_tau, csum.cdf), (csum.density_batch, csum.cdf_batch),
                exact_forms, (csum.n - 1, csum.n)):
            exact = [oracle(x) for x in xs]
            wrong = next((x for x, v in zip(xs, exact) if closed(x).value != v), None)
            if wrong is not None:
                lines.append(f"MISMATCH {closed.__name__}({wrong}) for {csum}")
            err = float(np.max(np.abs(batch(np.array(xs, float)) - np.array(exact, float))))
            bound = csum._batch_bound(e)
            if not err <= bound:
                lines.append(f"MISMATCH {batch.__name__}: err {err:.2e} > {bound:.2e} for {csum}")
        draws = oracles.sample_sum(csum, spec.count, spec.seed)
        d = oracles.ks_statistic(draws, csum.cdf_batch)
        crit = oracles.ks_critical_1pct(spec.count)
        if not d < crit:
            lines.append(f"MISMATCH KS: D={d:.4g} >= {crit:.4g} for {csum}")
    ok = len(lines) == before
    lines.append(f"suite cont: {'PASS' if ok else 'FAIL'} "
                 f"({len(panel)} models, {checked} check points, {spec.count} samples)")
    return ok


_SUITES = {"coeffs": _verify_coeffs, "disc": _verify_disc, "cont": _verify_cont}


def run_verify(spec: JobSpec):
    """Run the requested suites; returns (report_text, all_passed)."""
    _check_draws(spec.count)
    lines: list[str] = []
    ok = True
    for name, suite in _SUITES.items():
        if spec.suite in ("all", name):
            ok = suite(spec, lines) and ok
    lines.append("verification " + ("passed" if ok else "FAILED"))
    return "\n".join(lines) + "\n", ok


# ---------------------------------------------------------------------------
# The command table
# ---------------------------------------------------------------------------

# An option is (flag, argparse keywords), and a list of options a mutually
# exclusive group.  No option states a default: an unset option takes its
# JobSpec field's from _JOB_DEFAULTS.
_MODEL_FILES = (
    ("--config", {"metavar": "FILE", "help": "read components from a file, one per line"}),
    ("--dump-config", {"metavar": "FILE", "help": "write the parsed components back out"}),
)
_MODE = (
    [("--exact", {"action": "store_true", "help": "exact rationals (default)"}),
     ("--float", {"dest": "float_", "action": "store_true",
                  "help": "the exact value rounded to a double"})],
    ("--no-condition", {"action": "store_true",
                        "help": "omit the condition column in float mode"}),
)
_POINTS = (
    ("--at", {"type": _rational, "metavar": "X", "help": "evaluation point"}),
    ("--from", {"dest": "lo", "type": _rational, "metavar": "LO"}),
    ("--to", {"dest": "hi", "type": _rational, "metavar": "HI"}),
    ("--step", {"type": _positive_rational, "metavar": "S"}),
)
_COEFFS = (("--n-max", {"type": _integer_from(1)}), ("--k-max", {"type": _integer_from(0)}))
_SEED = ("--seed", {"type": _integer_from(0)})
# every command's options end with these
_OUTPUT = (
    ("--csv", {"action": "store_true", "help": "CSV output"}),
    ("--out", {"metavar": "FILE", "help": "write output to a file"}),
)

# model kind, the JobSpec field it fills -> (its option, which --config
# FILE gives one per line; the parser of such a line; the model builder)
_MODEL_KINDS = {
    "continuous": (("--comp", {"action": "append", "type": _comp_pair, "metavar": "C:A",
                               "help": "uniform component on [c-a, c+a]"}),
                   _config_pair, ContinuousSum.from_pairs),
    "discrete": (("--m", {"action": "append", "type": _integer_from(0), "metavar": "K",
                          "help": "integer uniform on [-k, k]"}),
                 _integer_from(0), DiscreteSum.from_half_ranges),
}

# command -> (help line, model kind or None, options after the model's,
# runner, JobSpec fields that differ from _JOB_DEFAULTS).  A runner takes the
# JobSpec and returns (text, ok); the command exits 1 unless ok.
_COMMANDS = {
    "density": ("evaluate the density", "continuous", _MODE + _POINTS, _run_points, {}),
    "cdf": ("evaluate the CDF", "continuous", _MODE + _POINTS, _run_points, {}),
    "quantile": ("invert the CDF", "continuous",
                 (("--q", {"type": _rational, "metavar": "Q", "help": "probability level"}),),
                 lambda spec: (repr(spec.continuous.quantile(spec.q)) + "\n", True), {}),
    "pmf": ("discrete mass function (always exact)", "discrete",
            (("--at", {"type": _integer, "metavar": "P", "help": "integer point"}),),
            _run_points, {}),
    "table": ("five-decimal CDF table", "continuous", _MODE + _POINTS,
              lambda spec: (run_table(spec), True), {}),
    "coeffs": ("reciprocal-sine Laurent coefficients", None, _COEFFS, _run_coeffs, {}),
    "verify": ("run the oracle cross-validation suites", None, (
        ("--suite", {"choices": ("all", *_SUITES)}), *_COEFFS,
        ("--count", {"type": _integer_from(1),
                     "help": f"Monte Carlo sample size, at most {_GRID_MAX}"}), _SEED,
    ), run_verify, {"count": 20000}),
    "sample": ("draw reproducible samples of the sum", "continuous", (
        ("--count", {"type": _integer_from(1), "help": f"number of draws, at most {_GRID_MAX}"}),
        _SEED,
    ), _run_sample, {}),
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        spec = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    try:
        if spec.dump_config:
            _dump_config(spec.dump_config, spec)
        text, ok = _COMMANDS[spec.command][3](spec)
        if spec.out:
            _write(spec.out, text)
    except (CapacityError, ModeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if not spec.out:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
