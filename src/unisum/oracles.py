"""Independent ground-truth generators for validating the closed forms.

Nothing in this module calls the formula code it is used to check: the
discrete oracle counts lattice points, the continuous oracle convolves
sampled boxes numerically, the series oracle multiplies truncated power
series, and the sampler just draws and adds uniforms.  The test suite (and
the CLI `verify` command) compares these against the vertex-sum formulas.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .contsum import ContinuousSum, _rounded
from .discsum import DiscreteSum
from .errors import CapacityError

__all__ = [
    "csc_series_oracle",
    "discrete_conv_oracle",
    "continuous_conv_oracle",
    "sample_sum",
    "ks_statistic",
    "ks_critical_1pct",
    "DISCRETE_ORACLE_CAP",
]

# Largest prod_j (2 m_j + 1) the lattice-count oracle will attempt.
DISCRETE_ORACLE_CAP = 10 ** 7

# Most cells plus convolution multiply-adds the grid oracle will attempt.
_CONV_WORK_MAX = 2 ** 32


# ---------------------------------------------------------------------------
# Truncated power series
# ---------------------------------------------------------------------------

def csc_series_oracle(n: int, K: int) -> list[Fraction]:
    """First K+1 Laurent coefficients of (1/sin x)^n, by series arithmetic.

    Expands s(x) = sin(x)/x = sum_r (-1)^r x^(2r) / (2r+1)!, inverts it by
    the standard recurrence and raises the inverse to the n-th power by n
    truncated multiplications, all as lists of the coefficients of x^(2r).
    Since (1/sin x)^n = x^(-n) (x/sin x)^n, the coefficients of s^(-n) are
    exactly the wanted Laurent coefficients.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if K < 0:
        raise ValueError("K must be >= 0")
    sinc = [Fraction((-1) ** r, math.factorial(2 * r + 1)) for r in range(K + 1)]
    inverse = [Fraction(1)]  # sinc[0] = 1
    for k in range(1, K + 1):
        inverse.append(-sum(sinc[i] * inverse[k - i] for i in range(1, k + 1)))
    power = [Fraction(1)] + [Fraction(0)] * K
    for _ in range(n):
        power = [sum(power[i] * inverse[k - i] for i in range(k + 1)) for k in range(K + 1)]
    return power


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


def continuous_conv_oracle(csum: ContinuousSum, grid_step: float):
    """Numerical density of the continuous sum on a uniform grid.

    Each component box is discretized onto cells of width grid_step anchored
    at its lower edge; the sample for a cell is the box mass inside it over
    the step (the trapezoid-style half weight appears when a cell straddles
    a jump), attributed to the cell center.  The sampled components are then
    convolved directly.  Box edges land on cell boundaries whenever the box
    width is a multiple of the step, so aligned kinks of the result are
    reproduced cleanly; accuracy is O(grid_step^2) away from the kinks and
    first order within a cell of one, so comparisons should skip those
    neighborhoods.

    Returns (grid, values) as float arrays; grid point k sits at
    sum_j lo_j + (k + n/2) * grid_step.  CapacityError, before any array is
    made, if the cells and the multiply-adds of the direct convolutions
    exceed _CONV_WORK_MAX (2**32).
    """
    h = float(grid_step)
    if not h > 0:
        raise ValueError(f"grid_step must be > 0, got {grid_step!r}")
    cells = [math.ceil(min(2.0 * float(c.half_width) / h, _CONV_WORK_MAX)) + 1
             for c in csum.components]
    work = sum(cells) + sum((sum(cells[:j]) - j + 1) * cells[j] for j in range(1, len(cells)))
    if work > _CONV_WORK_MAX:
        raise CapacityError(f"a convolution at grid step {h:g} takes {work} cells and "
                            f"multiply-adds, above the limit of {_CONV_WORK_MAX}")
    vals = None
    start = 0.0
    for comp, ncells in zip(csum.components, cells):
        lo = float(comp.lo)
        width = 2.0 * float(comp.half_width)
        edges = lo + h * np.arange(ncells + 1)
        left = np.maximum(edges[:-1], lo)
        right = np.minimum(edges[1:], lo + width)
        cover = np.clip(right - left, 0.0, None) / h
        sample = cover / width
        start += lo
        vals = sample if vals is None else np.convolve(vals, sample) * h
    grid = start + h * (np.arange(len(vals)) + csum.n / 2.0)
    return grid, vals


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

def sample_sum(csum: ContinuousSum, count: int, seed: int) -> np.ndarray:
    """Draw `count` independent realizations of the sum, reproducibly.

    The seed fixes the stream: equal (csum, count, seed) give equal output.
    ValueError, before any draw, unless every component's width and the
    ends of the sum of the first j components, for every j, round to finite
    doubles.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    lo = hi = 0
    ends = []
    for comp in csum.components:
        lo, hi = lo + comp.lo, hi + comp.hi
        a, b = _rounded(comp.lo), _rounded(comp.hi)
        if not all(map(math.isfinite, (b - a, _rounded(lo), _rounded(hi)))):
            support = [_rounded(v) for v in csum.support()]
            raise ValueError(f"draws of the sum on {support} leave the float range")
        ends.append((a, b))
    rng = np.random.default_rng(seed)
    total = np.zeros(count)
    for a, b in ends:
        total += rng.uniform(a, b, size=count)
    return total


def ks_statistic(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov sup distance between samples and a vectorised reference CDF."""
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
