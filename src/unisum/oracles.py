"""Independent ground-truth generators for validating the closed forms.

Nothing in this module calls the formula code it is used to check: the
discrete oracle counts lattice points, the continuous oracle convolves
the boxes exactly as piecewise polynomials, the series oracle multiplies
truncated power series, and the sampler just draws and adds uniforms from
the standard library's `random`.  The test suite (and the CLI `verify`
command) compares these against the vertex-sum formulas.  Only
`ks_statistic` imports numpy, when it is called.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import zip_longest

from .contsum import ContinuousSum, _rounded, _whole
from .discsum import DiscreteSum
from .errors import CapacityError

__all__ = [
    "csc_series_oracle",
    "csc_series_rows",
    "discrete_conv_oracle",
    "continuous_conv_oracle",
    "check_points",
    "sample_sum",
    "ks_statistic",
    "ks_critical_1pct",
    "DISCRETE_ORACLE_CAP",
]

# Largest prod_j (2 m_j + 1) the lattice-count oracle will attempt.
DISCRETE_ORACLE_CAP = 10 ** 7

# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------

def _truncated_product(p: list, q: list) -> list:
    """The first len(p) coefficients of the product of the power series p and q."""
    return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(len(p))]


def csc_series_rows(N: int, K: int):
    """Yield the first K+1 Laurent coefficients of (1/sin x)^n for n = 1, ..., N.

    Expands s(x) = sin(x)/x = sum_r (-1)^r x^(2r) / (2r+1)!, inverts it by
    the standard recurrence and multiplies one running power by the inverse,
    one truncated product per n, all as lists of the coefficients of x^(2r).
    Since (1/sin x)^n = x^(-n) (x/sin x)^n, the coefficients of s^(-n) are
    exactly the wanted Laurent coefficients.
    """
    if N < 1:
        raise ValueError("n must be >= 1")
    if K < 0:
        raise ValueError("K must be >= 0")
    sinc = [Fraction((-1) ** r, math.factorial(2 * r + 1)) for r in range(K + 1)]
    inverse = [Fraction(1)]  # sinc[0] = 1
    for k in range(1, K + 1):
        inverse.append(-sum(sinc[i] * inverse[k - i] for i in range(1, k + 1)))
    power = [Fraction(1)] + [Fraction(0)] * K
    for _ in range(N):
        power = _truncated_product(power, inverse)
        yield power


def csc_series_oracle(n: int, K: int) -> list[Fraction]:
    """First K+1 Laurent coefficients of (1/sin x)^n: the last row of csc_series_rows(n, K)."""
    for row in csc_series_rows(n, K):
        pass
    return row


# ---------------------------------------------------------------------------
# Brute-force convolutions
# ---------------------------------------------------------------------------

def discrete_conv_oracle(dsum: DiscreteSum) -> dict[int, Fraction]:
    """Exact PMF of the discrete sum by direct lattice counting.

    Convolves the component counting measures one at a time and divides by
    the total number of lattice points at the end, so all intermediate
    arithmetic is on integers.
    """
    total_points = math.prod(c.count for c in dsum.components)
    if total_points > DISCRETE_ORACLE_CAP:
        raise CapacityError(
            f"lattice has {total_points} points, oracle cap is {DISCRETE_ORACLE_CAP}"
        )
    counts = {0: 1}
    for comp in dsum.components:
        new: dict[int, int] = {}
        for value, cnt in counts.items():
            for d in range(-comp.m, comp.m + 1):
                new[value + d] = new.get(value + d, 0) + cnt
        counts = new
    return {p: Fraction(cnt, total_points) for p, cnt in sorted(counts.items())}


def _horner(poly: list, x) -> Fraction:
    """poly (coefficients low to high) at the rational x."""
    acc = Fraction(0)
    for c in reversed(poly):
        acc = acc * x + c
    return acc


def _shifted(poly: list, s) -> list:
    """Coefficients of poly(x - s), by Horner's rule on polynomials."""
    out: list = []
    for c in reversed(poly):
        out = [u - s * v for u, v in zip([0, *out], [*out, 0])]
        out[0] += c
    return out


def continuous_conv_oracle(csum: ContinuousSum):
    """(density, cdf, knots): exact functions of a rational x, and the knots.

    Convolves the boxes one at a time, from the point mass at 0: a box [l, h]
    turns the CDF F so far into (G(x - l) - G(x - h)) / (h - l), G the
    antiderivative of F that vanishes left of the support.  F is kept as its
    sorted knots and a Fraction polynomial in x per gap: polys[i] on
    [knots[i - 1], knots[i]), and polys[0] = 0.  The density is F'; at a knot
    it is the mean of the two one-sided values (tau(0) = 1/2 at a jump).  A
    closed form with its kinks among the knots is also a polynomial of degree
    <= n on each gap and constant beyond the ends, so it equals F (or F') on
    R if it does at check_points(knots, n): n + 1 points fix such a polynomial.
    """
    knots, polys = [Fraction(0)], [[Fraction(0)], [Fraction(1)]]
    for lo, hi in [(c.lo, c.hi) for c in csum.components]:
        antiderivatives = [[Fraction(0)]]
        for t, p in zip(knots, polys[1:]):
            q = [Fraction(0)] + [c / (r + 1) for r, c in enumerate(p)]
            q[0] = _horner(antiderivatives[-1], t) - _horner(q, t)  # continuous at t
            antiderivatives.append(q)
        merged = sorted({t + lo for t in knots} | {t + hi for t in knots})
        polys = [[Fraction(0)]]
        for t in merged:
            a = _shifted(antiderivatives[bisect_right(knots, t - lo)], lo)
            b = _shifted(antiderivatives[bisect_right(knots, t - hi)], hi)
            polys.append([(u - v) / (hi - lo) for u, v in zip_longest(a, b, fillvalue=0)])
        knots = merged
    slopes = [[r * c for r, c in enumerate(p)][1:] for p in polys]

    def density(x) -> Fraction:  # the pieces left and right of x differ only at a knot
        return sum(_horner(slopes[side(knots, x)], x) for side in (bisect_left, bisect_right)) / 2

    def cdf(x) -> Fraction:
        return _horner(polys[bisect_right(knots, x)], x)

    return density, cdf, knots


def check_points(knots: list, n: int) -> list:
    """Sorted: each knot, a + (b - a) j step (j = 1 .. n + 1) in each gap, one beyond each end."""
    step = Fraction(1, 1 << (n + 1).bit_length())  # 1 / 2^t, 2^t the least power of two >= n + 2
    inner = [a + (b - a) * j * step for a, b in zip(knots, knots[1:]) for j in range(1, n + 2)]
    return sorted([knots[0] - 1, *knots, *inner, knots[-1] + 1])


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def sample_sum(csum: ContinuousSum, count: int, seed: int) -> list[float]:
    """Draw `count` independent realizations of the sum, reproducibly.

    The stream is random.Random(seed).random(): component by component, in
    order, each of the `count` running totals t becomes t + (a + (b - a) u)
    with the next u, [a, b] the component's ends rounded to doubles.  The
    random module keeps random() the same for an int seed across Python
    versions, so equal (csum, count, seed) give equal output on any of them.
    ValueError, before any draw, unless count is an int >= 1 and seed an
    int >= 0, and every component's width and the ends of the sum of the
    first j components, for every j, round to finite doubles.
    """
    _whole(count, "count", 1)
    _whole(seed, "seed", 0)
    lo = hi = 0
    ends = []
    for comp in csum.components:
        lo, hi = lo + comp.lo, hi + comp.hi
        a, b = _rounded(comp.lo), _rounded(comp.hi)
        if not all(map(math.isfinite, (b - a, _rounded(lo), _rounded(hi)))):
            support = [_rounded(v) for v in csum.support()]
            raise ValueError(f"draws of the sum on {support} leave the float range")
        ends.append((a, b - a))
    uniform = random.Random(seed).random
    total = [0.0] * count
    for a, width in ends:
        total = [t + (a + width * uniform()) for t in total]
    return total


def ks_statistic(samples, cdf) -> float:
    """Kolmogorov-Smirnov sup distance between samples and a vectorised reference CDF."""
    import numpy as np

    xs = np.sort(np.asarray(samples, dtype=float))
    n = len(xs)
    if n == 0:
        raise ValueError("need at least one sample")
    F = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    return float(max((i / n - F).max(), (F - (i - 1) / n).max()))


def ks_critical_1pct(count: int) -> float:
    """Asymptotic 1% critical value 1.63 / sqrt(count) for the KS statistic."""
    return 1.63 / math.sqrt(count)
