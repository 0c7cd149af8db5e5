"""Exact distribution of a sum of independent, non-identical uniform variables.

Each summand X_j is uniform on the closed interval [c_j - a_j, c_j + a_j]
with half-width a_j > 0.  The density of the sum S = X_1 + ... + X_n has the
closed form

    f_n(x) = [ sum over all 2^n sign vectors eps of
                 (x + sum_j (eps_j a_j - c_j))_+^(n-1) * prod_j eps_j ]
             / [ (n-1)! * 2^n * prod_j a_j ],

where y_+^k = y^k * tau(y) and tau is the unit step with tau(0) = 1/2.  An
equivalent form replaces tau by the odd sign function (and 2^n by 2^(n+1));
the two agree because the unweighted alternating sum of (...)^(n-1) vanishes
identically.  The CDF is the termwise antiderivative: raise the exponent to
n, replace (n-1)! by n!.  Every term vanishes below the support, so no
constant of integration is needed, and the same vanishing identity forces the
value 1 above the support.

Densities at the finitely many jump points (only n = 1 has jumps) take the
midpoint value, e.g. 1/(4a) at the edges of a single uniform.

The vertices enter the sum only through their arguments.  Writing the
argument of a vertex as x - sum_j (c_j + a_j) plus the legs 2 a_j of the
components whose sign is +1, the parity weights of all vertices with the
same argument add up to one coefficient of prod_j (1 - z^(2 a_j)), the
box-spline view of de Boor, Hollig and Riemenschneider (Box Splines, 1993).
Each model builds that merged signed vertex measure once, equal arguments
merged and zero weights dropped, and every closed form in the package is one
call of _vertex_sum over it.  Equal or commensurate widths merge: n
identical components leave n + 1 entries instead of 2^n.

Two evaluation modes are provided:

* Exact: all arithmetic in arbitrary-precision rationals.  This is the
  reference mode; results are exact field elements.
* Float: the exact value at the double nearest to x, rounded once to the
  nearest double.  The condition estimate is 1.0 when that is a normal
  double (or the exact value is 0) and inf when a nonzero value underflows
  or overflows.

The measure has up to 2^n entries when no widths are commensurate.  Its
size is bounded before it is built, and a model whose bound exceeds
MEASURE_MAX = 2**20 entries raises CapacityError at its first vertex sum;
that is the only capacity rule, so 100 identical components (101 entries)
are fine while 21 generic ones are refused.  support, moments and sampling
never build the measure and work at any n.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

import numpy as np

from .errors import MEASURE_MAX, CapacityError, ModeError

__all__ = [
    "ContinuousComponent",
    "ContinuousSum",
    "EvalMode",
    "EvalResult",
    "EXACT",
    "FLOAT",
    "density_feller",
    "density_olds",
]


def _as_fraction(value, what: str) -> Fraction:
    """Convert to an exact rational; reject anything non-finite."""
    try:
        f = Fraction(value)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise ModeError(f"{what} is not a finite rational number: {value!r}") from exc
    return f


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousComponent:
    """One uniform summand on [center - half_width, center + half_width].

    Parameters are stored as exact rationals.  Floats convert exactly (every
    finite float is a binary rational); pass strings or Fractions for decimal
    inputs, e.g. "0.1" means one tenth, not the nearest double.
    """

    center: Fraction
    half_width: Fraction

    def __post_init__(self):
        object.__setattr__(self, "center", _as_fraction(self.center, "center"))
        object.__setattr__(self, "half_width", _as_fraction(self.half_width, "half_width"))
        if self.half_width <= 0:
            raise ValueError(
                f"half_width must be > 0, got {self.half_width} "
                "(model a constant by shifting the center of another component)"
            )

    @property
    def lo(self) -> Fraction:
        return self.center - self.half_width

    @property
    def hi(self) -> Fraction:
        return self.center + self.half_width


@dataclass(frozen=True)
class EvalMode:
    """How to evaluate: "exact" rationals or the exact value rounded to "float".

    report_condition only affects float mode; when set, results carry the
    condition_estimate described in EvalResult.
    """

    kind: str
    report_condition: bool = True

    def __post_init__(self):
        if self.kind not in ("exact", "float"):
            raise ValueError(f"unknown evaluation mode {self.kind!r}")

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


EXACT = EvalMode("exact")
FLOAT = EvalMode("float")


@dataclass(frozen=True)
class EvalResult:
    """Value of a density/CDF evaluation plus an optional error report.

    value is a Fraction in exact mode.  In float mode it is the exact value
    at the double nearest to x, rounded once to the nearest double (+-inf
    beyond the float range).  condition_estimate is None in exact mode or
    when not requested.  Otherwise it bounds the relative error in units of
    the rounding error: 1.0 when value is a normal double or the exact value
    is 0, inf when a nonzero exact value rounded to a subnormal, to 0 or
    beyond the float range.
    """

    value: Union[Fraction, float]
    condition_estimate: float | None = None

    def __float__(self) -> float:
        return float(self.value)


def _point(x, mode: EvalMode) -> Fraction:
    """The evaluation point as a rational; float mode first rounds it to a double."""
    if mode.is_exact:
        return _as_fraction(x, "x")
    xv = _rounded(x)
    if not math.isfinite(xv):
        raise ValueError(f"x must round to a finite double in float mode, got {xv}")
    return Fraction(xv)


def _rounded(value) -> float:
    """value rounded once to the nearest double; +-inf beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _result(exact: Fraction, mode: EvalMode) -> EvalResult:
    if mode.is_exact:
        return EvalResult(exact)
    value = _rounded(exact)
    if not mode.report_condition:
        return EvalResult(value)
    normal = exact == 0 or sys.float_info.min <= abs(value) < math.inf
    return EvalResult(value, 1.0 if normal else math.inf)


# ---------------------------------------------------------------------------
# The merged signed vertex measure
# ---------------------------------------------------------------------------

_TAU = 0
_SIGN = 1
_RAW = 2


def _vertex_measure(legs: Sequence, sign: int) -> tuple:
    """The coefficients of prod_j (z^legs[j] + sign), as (keys, weights, den).

    The legs are positive rationals (or ints) over the common denominator
    den; keys are the sorted integer exponents times den with nonzero weight,
    and weights the matching integer coefficients.  With sign = -1, key k
    stands for every flag vector whose set legs sum to k / den, weighted by
    (-1)^(flags not set); with sign = +1 nothing cancels and the keys are
    all the subset sums.

    The only capacity check of the vertex sums: every intermediate dict and
    the result hold at most min(prod over distinct steps of (multiplicity +
    1), sum of steps + 1) entries, and a bound above MEASURE_MAX raises
    CapacityError before any entry is built.
    """
    den = math.lcm(*(leg.denominator for leg in legs))
    steps = [leg.numerator * (den // leg.denominator) for leg in legs]
    bound = min(math.prod(m + 1 for m in Counter(steps).values()), sum(steps) + 1)
    if bound > MEASURE_MAX:
        raise CapacityError(
            f"{len(steps)} components need a vertex measure of up to {bound} "
            f"entries (limit MEASURE_MAX = {MEASURE_MAX})")
    # prod_j (z^s_j + sign) = sign^n prod_j (1 + sign z^s_j) for sign = +-1
    weight = {0: sign ** len(steps)}
    for step in steps:
        merged = dict(weight)
        for k, w in weight.items():
            merged[k + step] = merged.get(k + step, 0) + sign * w
        weight = {k: w for k, w in merged.items() if w}
    keys = tuple(sorted(weight))
    return keys, tuple(weight[k] for k in keys), den


def _vertex_sum(measure: tuple, start, exponent: int, form: int) -> Fraction:
    """sum over the measure of w * phi(start + key / den), exactly.

    phi(y) is y^exponent * tau(y) (_TAU), y^exponent * sign(y) (_SIGN) or
    plain y^exponent (_RAW, with 0^0 = 1).  start is a rational or an int.
    Keys and start are brought to one denominator, so the loop runs on
    integers; the arguments ascend with the keys, which locates the zero
    argument by bisection.
    """
    keys, weights, den = measure
    scale = math.lcm(den, start.denominator)
    s = start.numerator * (scale // start.denominator)
    m = scale // den
    neg = bisect_left(keys, -(s // m))   # keys before neg have arguments < 0
    pos = bisect_right(keys, (-s) // m)  # keys from pos on have arguments > 0

    def part(lo, hi):
        return sum(w * (s + m * k) ** exponent
                   for k, w in zip(keys[lo:hi], weights[lo:hi]))

    if form == _TAU:
        # tau(0) = 1/2 matters for exponent 0 only; accumulate twice the sum
        twice = 2 * part(pos, len(keys))
        if exponent == 0:
            twice += sum(weights[neg:pos])
    elif form == _SIGN:
        twice = 2 * (part(pos, len(keys)) - part(0, neg))
    else:
        twice = 2 * part(0, len(keys))
    return Fraction(twice, 2 * scale ** exponent)


# ---------------------------------------------------------------------------
# The sum itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContinuousSum:
    """Sum of n independent uniforms on [c_j - a_j, c_j + a_j].

    All distribution-level operations are pure functions of the stored
    components; instances are immutable and safe to share across threads.

    Examples
    --------
    >>> s = ContinuousSum.from_pairs([(0, 1), (0, 2)])
    >>> s.support()
    (Fraction(-3, 1), Fraction(3, 1))
    >>> s.density_tau(0).value
    Fraction(1, 4)
    """

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not all(isinstance(c, ContinuousComponent) for c in comps):
            comps = tuple(
                c if isinstance(c, ContinuousComponent) else ContinuousComponent(*c)
                for c in comps
            )
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise ValueError("a sum needs at least one component")

    @classmethod
    def from_pairs(cls, pairs: Iterable) -> "ContinuousSum":
        """Build from (center, half_width) pairs."""
        return cls(tuple(ContinuousComponent(c, a) for c, a in pairs))

    @property
    def n(self) -> int:
        return len(self.components)

    # -- cached model constants ------------------------------------------

    @cached_property
    def _lo(self) -> Fraction:
        return sum(c.lo for c in self.components)

    @cached_property
    def _hi(self) -> Fraction:
        return sum(c.hi for c in self.components)

    @cached_property
    def _measure(self) -> tuple:
        """Vertex measure in arguments x - _hi + key / den: legs 2 a_j."""
        return _vertex_measure([2 * c.half_width for c in self.components], -1)

    @cached_property
    def _width_product(self) -> Fraction:
        return math.prod(c.half_width for c in self.components)

    def _norm(self, exponent: int, extra_pow2: int = 0) -> Fraction:
        return (math.factorial(exponent) * 2 ** (self.n + extra_pow2)
                * self._width_product)

    # -- simple statistics -------------------------------------------------

    def support(self) -> tuple:
        """Closed support [lo, hi] of the sum, as exact rationals."""
        return (self._lo, self._hi)

    def moments(self) -> tuple:
        """(mean, variance), exactly: sum of centers, sum of a_j^2 / 3."""
        mean = sum(c.center for c in self.components)
        var = sum(c.half_width ** 2 for c in self.components) / 3
        return (mean, var)

    def breakpoints(self) -> list:
        """Sorted distinct kink locations of the density: lo plus each subset sum of the legs.

        Up to 2^n points, refused with CapacityError over the vertex measure budget.
        """
        keys, _, den = _vertex_measure([2 * c.half_width for c in self.components], 1)
        return [self._lo + Fraction(k, den) for k in keys]

    # -- pointwise evaluation ---------------------------------------------

    def _eval(self, x, mode: EvalMode, exponent: int, form: int,
              extra_pow2: int, below, above) -> EvalResult:
        xf = _point(x, mode)
        if xf < self._lo:
            return _result(Fraction(below), mode)
        if xf > self._hi:
            return _result(Fraction(above), mode)
        raw = _vertex_sum(self._measure, xf - self._hi, exponent, form)
        return _result(raw / self._norm(exponent, extra_pow2), mode)

    def density_tau(self, x, mode: EvalMode = EXACT) -> EvalResult:
        """Density at x via the step-function (tau) form of the vertex sum.

        Exactly 0 outside the closed support.  At the jump points of an
        n = 1 sum the value is the midpoint 1/(4a).
        """
        return self._eval(x, mode, self.n - 1, _TAU, 0, 0, 0)

    def density_sign(self, x, mode: EvalMode = EXACT) -> EvalResult:
        """Density at x via the sign-function form.

        Mathematically identical to density_tau (the two differ by half the
        vanishing alternating sum); in exact mode the results are equal as
        rationals.
        """
        return self._eval(x, mode, self.n - 1, _SIGN, 1, 0, 0)

    def cdf(self, x, mode: EvalMode = EXACT) -> EvalResult:
        """P(S <= x): the termwise antiderivative of the vertex sum.

        Exactly 0 at/below the lower support end and exactly 1 at/above the
        upper end in exact mode.
        """
        return self._eval(x, mode, self.n, _TAU, 0, 0, 1)

    def cool_identity_residual(self, x) -> Fraction:
        """The raw alternating vertex sum sum_eps (arg_eps)^(n-1) * parity.

        Identically zero for every x; exposed as an exact-arithmetic test
        hook.  Inputs must be finite rationals.
        """
        xf = _as_fraction(x, "x")
        return _vertex_sum(self._measure, xf - self._hi, self.n - 1, _RAW)

    def quantile(self, q) -> float:
        """Smallest x with cdf(x) ~ q, by bisection on the support.

        Each float midpoint is compared exactly: the exact cdf there against
        the exact q, so tail levels such as 1 - 1e-12 keep their precision.
        The bracket is narrowed to 2**-40 of the support width (about 40
        iterations), far below tabulation needs.  quantile(0) and
        quantile(1) return the exact support endpoints.
        """
        qf = _as_fraction(q, "q")
        if qf < 0 or qf > 1:
            raise ValueError(f"q must lie in [0, 1], got {q!r}")
        lo, hi = float(self._lo), float(self._hi)
        if qf == 0:
            return lo
        if qf == 1:
            return hi
        tol = (hi - lo) * 2.0 ** -40
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if self.cdf(Fraction(mid)).value < qf:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    # -- vectorized float evaluation ---------------------------------------
    #
    # Plain float64 numpy paths for tables, plots and goodness-of-fit runs.
    # No compensation: accuracy is ~condition * machine epsilon, ample for
    # those uses.  Memory is O(measure size); intended for moderate n.

    @cached_property
    def _unit(self) -> Fraction:
        """A power of two near the widest half-width: the batch paths' length unit.

        Working in this unit keeps the float arguments and the norm near 1
        at any scale of the widths (1e-20 or 1e16 alike).
        """
        widest = max(c.half_width for c in self.components)
        return Fraction(2) ** (widest.numerator.bit_length()
                               - widest.denominator.bit_length())

    @cached_property
    def _vertex_table(self):
        """Float offsets (key / den - _hi) / _unit and weights of the vertex measure."""
        keys, weights, den = self._measure
        scale = math.lcm(den, self._hi.denominator)
        shift = self._hi.numerator * (scale // self._hi.denominator)
        num, dnm = self._unit.denominator, scale * self._unit.numerator
        offs = np.array([(k * (scale // den) - shift) * num / dnm for k in keys])
        return offs, np.array(weights, dtype=float)

    def _batch(self, xs, exponent: int) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        flat = np.atleast_1d(xs).ravel() / float(self._unit)
        offs, signs = self._vertex_table
        out = np.empty(flat.shape)
        chunk = max(1, (1 << 22) // len(offs))
        norm = float(self._norm(exponent) / self._unit ** exponent)
        for i in range(0, len(flat), chunk):
            args = flat[i:i + chunk, None] + offs[None, :]
            if exponent == 0:
                w = np.heaviside(args, 0.5)
            else:
                w = np.where(args > 0.0, args, 0.0) ** exponent
            out[i:i + chunk] = (w @ signs) / norm
        return out.reshape(np.shape(xs))

    def density_batch(self, xs) -> np.ndarray:
        """Density at an array of points, plain float64 precision."""
        xs = np.asarray(xs, dtype=float)
        out = self._batch(xs, self.n - 1)
        lo, hi = float(self._lo), float(self._hi)
        return np.where((xs < lo) | (xs > hi), 0.0, out)

    def cdf_batch(self, xs) -> np.ndarray:
        """CDF at an array of points, plain float64 precision."""
        xs = np.asarray(xs, dtype=float)
        out = self._batch(xs, self.n)
        lo, hi = float(self._lo), float(self._hi)
        out = np.where(xs <= lo, 0.0, out)
        out = np.where(xs >= hi, 1.0, out)
        return np.clip(out, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Named special cases
# ---------------------------------------------------------------------------

def density_feller(n: int, a, x, mode: EvalMode = EXACT):
    """Density of n identical uniforms on [-a, a].

    Collapsing the vertex sum by the number of negative signs gives

        f_n(x) = sum_{k=0}^{n} (-1)^k C(n, k) (x + (n-2k) a)_+^(n-1)
                 / ((n-1)! (2a)^n),

    which is what density_tau evaluates on the n-component sum: its vertex
    measure merges the equal legs 2a into these n + 1 entries.  Returns a
    Fraction in exact mode, the exact value rounded to a float otherwise.
    """
    return ContinuousSum.from_pairs([(0, a)] * n).density_tau(x, mode).value


def density_olds(a: Sequence, x, mode: EvalMode = EXACT):
    """Density of a sum of uniforms on [0, a_j], by inclusion-exclusion.

    f_n(x) = sum over subsets S of {1..n} of (-1)^|S| (x - sum_{j in S} a_j)_+^(n-1)
             / ((n-1)! prod_j a_j).

    This is density_tau on the shifted model (c_j = a_j / 2, half-width
    a_j / 2); with the midpoint step convention the two agree at every x,
    including the jump points of the n = 1 case.  Equal lengths merge, so
    n equal ones take n + 1 vertex measure entries.  Returns a Fraction in
    exact mode, the exact value rounded to a float otherwise.
    """
    halves = [_as_fraction(v, "a_j") / 2 for v in a]
    return ContinuousSum.from_pairs([(h, h) for h in halves]).density_tau(x, mode).value
