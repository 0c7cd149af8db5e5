"""Checks the benchmark applies to the program's outputs.

Each check returns None when the output passes and a one-line reason when it
does not.  References come from `reference`, never from the program.
"""

from __future__ import annotations

import math
from fractions import Fraction

from reference import fixed

# |float - exact| <= FLOAT_BOUND_FACTOR * condition_estimate * 2^-52 * |exact|
FLOAT_BOUND_FACTOR = 4
# Batch values may miss the exact value by this share of the largest value
# in the table; five-decimal CDF tables need well under 5e-6.
TABLE_TOL = 1e-7
# quantile() narrows its bracket to this share of the support width.
QUANTILE_WIDTH = Fraction(1, 2 ** 40)


def exact_mismatch(what, got, ref):
    if got == ref:
        return None
    return f"{what}: got {got}, reference {ref}"


def float_mismatch(what, got, cond, exact):
    if not isinstance(got, float) or not math.isfinite(got):
        return f"{what}: got non-finite or non-float {got!r}"
    if cond is None or cond < 1:
        return f"{what}: condition estimate {cond!r} below 1"
    if math.isinf(cond):
        return None
    err = abs(Fraction(got) - exact)
    bound = FLOAT_BOUND_FACTOR * Fraction(cond) * Fraction(2) ** -52 * abs(exact)
    if err <= bound:
        return None
    return f"{what}: |{got!r} - exact| = {float(err):.3g} > bound {float(bound):.3g}"


def table_mismatch(what, got, ref, tol):
    """got and ref are equal-length float sequences; tol is absolute."""
    if len(got) != len(ref):
        return f"{what}: {len(got)} values, expected {len(ref)}"
    worst = max(abs(float(g) - r) for g, r in zip(got, ref))
    if worst <= tol:
        return None
    return f"{what}: deviation {worst:.3g} > tolerance {tol:.3g}"


def quantile_mismatch(what, q, x, cdf, lo, hi):
    """The exact cdf must bracket q within the bisection width around x."""
    if not isinstance(x, float) or not math.isfinite(x):
        return f"{what}: got {x!r}"
    width = (hi - lo) * QUANTILE_WIDTH
    xf = Fraction(x)
    below, above = cdf(xf - width), cdf(xf + width)
    if below <= q <= above:
        return None
    return f"{what}: F(x - w) = {float(below)!r}, F(x + w) = {float(above)!r} do not bracket q = {q}"


# ---------------------------------------------------------------------------
# CLI stdout.  ref is a dict of references for the invocation.
# ---------------------------------------------------------------------------

def _exact_cell(text):
    """'num/den = 0.123456' -> Fraction, checking the decimal rendering."""
    frac, _, dec = text.partition(" = ")
    v = Fraction(frac)
    if dec != fixed(v, 6):
        raise ValueError(f"decimal {dec!r} does not render {frac}")
    return v


def cli_mismatch(command, stdout, ref):
    try:
        lines = stdout.decode("utf-8").split("\n")
        if lines[-1] != "":
            return f"{command}: stdout does not end in a newline"
        lines = lines[:-1]
        return _CLI_CHECKS[command](lines, ref)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return f"{command}: unparsable stdout ({exc})"


def _cli_density(lines, ref):
    (line,) = lines
    _, value = line.split("\t")
    return exact_mismatch("density", _exact_cell(value), ref["density"])


def _cli_cdf_float(lines, ref):
    (line,) = lines
    _, value, cond = line.split("\t")
    if not cond.startswith("cond="):
        return f"cdf: missing condition column in {line!r}"
    # the CLI prints the condition to three digits; allow its rounding
    return float_mismatch("cdf --float", float(value), float(cond[5:]) * 1.01, ref["cdf"])


def _cli_quantile(lines, ref):
    (line,) = lines
    return quantile_mismatch("quantile", ref["q"], float(line), ref["cdf_fn"], *ref["support"])


def _cli_pmf(lines, ref):
    if lines[0] != "p,probability,exact":
        return f"pmf: header {lines[0]!r}"
    pmf = ref["pmf"]
    rows = lines[1:]
    if len(rows) != len(pmf):
        return f"pmf: {len(rows)} rows, expected {len(pmf)}"
    for row, p in zip(rows, sorted(pmf)):
        ps, dec, frac = row.split(",")
        v = Fraction(frac)
        if int(ps) != p or v != pmf[p] or dec != fixed(v, 6).rstrip("0").rstrip("."):
            return f"pmf: row {row!r}, reference P({p}) = {pmf[p]}"
    return None


def _cli_table(lines, ref):
    rows = [line for line in lines if not line.startswith("#")][1:]
    if len(rows) != len(ref["table"]):
        return f"table: {len(rows)} rows, expected {len(ref['table'])}"
    for row, (x, F) in zip(rows, ref["table"]):
        xs, Fs = row.split()
        if xs != fixed(x, 6).rstrip("0").rstrip(".") or Fs != fixed(F, 5):
            return f"table: row {row!r}, reference F({x}) = {fixed(F, 5)}"
    return None


def _cli_coeffs(lines, ref):
    expect = [f"b(n={n}, k={k}) = {b}" for n, row in enumerate(ref["coeffs"], start=1)
              for k, b in enumerate(row)]
    if lines != expect:
        return "coeffs: lines differ from the series reference"
    return None


def _cli_sample(lines, ref):
    lo, hi = ref["support"]
    if len(lines) != ref["count"]:
        return f"sample: {len(lines)} draws, expected {ref['count']}"
    for line in lines:
        v = float(line)
        if not lo <= Fraction(v) <= hi:
            return f"sample: draw {line} outside the support"
    return None


_CLI_CHECKS = {
    "density": _cli_density,
    "cdf": _cli_cdf_float,
    "quantile": _cli_quantile,
    "pmf": _cli_pmf,
    "table": _cli_table,
    "coeffs": _cli_coeffs,
    "sample": _cli_sample,
}
