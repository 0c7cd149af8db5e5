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
same argument add up to one coefficient of prod_j (z^(2 a_j) - 1), the
box-spline view of de Boor, Hollig and Riemenschneider (Box Splines, 1993).
Each model holds that merged signed vertex measure as a VertexMeasure, and
every closed form in the package is one call of VertexMeasure.sum over it.
The measure factors as A (x) B for any split of the legs into two groups,
and the sum runs over A only, against suffix moments of B (powers of B's
keys summed from each position on, cached up to the model's top exponent)
that one bisection per entry of A locates.  Three splits are used:

* Direct loop (B trivial): one power per entry of the whole merged measure,
  nothing built but the measure.  It answers the first points of models
  whose widths are commensurate, and every point of models whose table
  would answer no faster, such as n identical components (n + 1 entries,
  and exponents up to n).
* Meet in the middle (Horowitz and Sahni, 1974): the distinct legs split
  into two halves whose merged sizes balance, the smaller one summed over,
  the larger one tabulated.  It answers generic widths, whose 2^n vertices
  never merge; the halves hold about 2^(n/2) entries each, and the full
  measure is never formed.
* Moment table (A trivial): the whole merged measure with its moments, one
  bisection and O(e) integer operations per point.  It answers models that
  have been asked enough points to pay for it, such as the commensurate
  widths of a tabulation (widths on a 1/8 grid leave far fewer than 2^n
  entries).

The choice counts terms (an entry built, a moment, one term of a point)
from sizes known before anything is built, the bounds on the entries of A
and B and the top exponent, and from the terms each model has summed so
far.  The first point takes the split that answers it cheapest, build
included; a split with cheaper points takes over once the terms summed
cover its build (rent or buy).  No count of future points is assumed.

Two evaluation modes are provided:

* Exact: all arithmetic in arbitrary-precision rationals.  This is the
  reference mode; results are exact field elements.
* Float: the exact value at the double nearest to x, rounded once to the
  nearest double.  The condition estimate is 1.0 when that is a normal
  double (or the exact value is 0) and inf when a nonzero value underflows
  or overflows.

MEASURE_MAX = 2**20 bounds the entries each path builds: A's measure plus
B's measure and its moment table (top exponent + 1 columns).  Only paths
within it are taken, and a model drops a path's parts when it moves to
another.  The bound is known before anything is built, and a model none of
whose paths fits raises CapacityError at its first vertex sum, naming the
smallest footprint.  So 100 identical components (101 entries) are fine,
generic widths evaluate exactly up to n = 29 and are refused from n = 30
(2^15 + 2^15 * 32 entries).  breakpoints() and the batch paths need every
key of the merged measure, so they build it whole and are refused when its
bound exceeds MEASURE_MAX, from 21 generic widths on.  support, moments and
sampling never build the measure and work at any n.
"""

from __future__ import annotations

import math
import sys
import threading
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

# The three ways of splitting the measure into A (x) B: A is the whole
# measure and B trivial (_DIRECT), A trivial and B the whole measure
# (_TABLE), or each a half of the distinct legs (_SPLIT).
_DIRECT = "direct"
_TABLE = "table"
_SPLIT = "split"
_PATHS = (_DIRECT, _TABLE, _SPLIT)


def _bound(steps: Counter) -> int:
    """An upper bound on the entries of prod over steps s of (z^s - 1)^mult.

    min(prod over distinct steps of (multiplicity + 1), sum of steps + 1),
    known before anything is built; 1 for no steps.
    """
    return min(math.prod(m + 1 for m in steps.values()),
               sum(s * m for s, m in steps.items()) + 1)


def _vertex_measure(steps: Counter) -> tuple:
    """The coefficients of prod over steps s of (z^s - 1)^mult, as (keys, weights).

    keys are the sorted exponents with nonzero coefficient, weights the
    matching integers: key k stands for every flag vector whose set legs sum
    to k, weighted by (-1)^(flags not set).  Each distinct step enters as
    its binomial expansion sum_k (-1)^(mult - k) C(mult, k) z^(k s), and the
    distinct steps are merged one after the other, so n identical legs cost
    n + 1 binomials rather than n passes.  Every intermediate dict holds at
    most _bound(steps) entries; the callers check that bound first.
    """
    weight = {0: 1}
    for step, mult in steps.items():
        factor, c = [], (-1) ** mult
        for k in range(mult + 1):
            factor.append((k * step, c))
            c = -c * (mult - k) // (k + 1)
        merged = {}
        for key, w in weight.items():
            for shift, binom in factor:
                merged[key + shift] = merged.get(key + shift, 0) + w * binom
        weight = {k: w for k, w in merged.items() if w}
    keys = tuple(sorted(weight))
    return keys, tuple(weight[k] for k in keys)


def _suffix_moments(keys: tuple, weights: tuple, top: int) -> list:
    """rows[i][j] = sum over t >= i of weights[t] * keys[t]**j, for j <= top.

    rows has len(keys) + 1 entries; the last is all zeros.
    """
    acc = [0] * (top + 1)
    rows = [tuple(acc)]
    for k, w in zip(reversed(keys), reversed(weights)):
        p = w
        for j in range(top + 1):
            acc[j] += p
            p *= k
        rows.append(tuple(acc))
    rows.reverse()
    return rows


class VertexMeasure:
    """The merged signed vertex measure prod_j (z^legs[j] - 1) of one model.

    The legs are positive rationals over the common denominator den; a key k
    stands for the argument offset k / den.  top is the largest exponent the
    model evaluates.  sum() evaluates every closed form over the measure,
    factored as A (x) B by splitting the legs in two:

        sum_a w_a sum_j C(e, j) (s + m a)^(e-j) m^j S^B_j[pos(a)],

    where S^B_j[i] = sum over t >= i of w_t k_t^j are B's suffix moments, up
    to top, and pos(a) is one bisection of B's keys.  Which split answers is
    decided by _choose from the sizes the paths build and the work they have
    done so far, never from a guess at how many points will follow.

    Instances are built lazily and cache what they build.  The choice of a
    path, its build and the count of terms summed share one lock, so
    threads sharing a model build each path once and drop it once; the sums
    themselves run outside it.  The path decides which exact evaluation
    answers, never the value.
    """

    def __init__(self, legs: Sequence, top: int):
        self.den = math.lcm(*(leg.denominator for leg in legs))
        self.steps = Counter(leg.numerator * (self.den // leg.denominator) for leg in legs)
        self.n = len(legs)
        self.top = top
        self._parts = {}
        self._path = None  # the path that answers, once _choose has run
        self._spent = 0    # terms summed so far, on any path
        self._due = 0      # _spent at which _choose looks for a cheaper path
        self._lock = threading.Lock()

    def _check(self, size: int, what: str) -> None:
        if size > MEASURE_MAX:
            raise CapacityError(
                f"{self.n} components need {what} of up to {size} entries "
                f"(limit MEASURE_MAX = {MEASURE_MAX})")

    @cached_property
    def full(self) -> tuple:
        """(keys, weights) of the whole merged measure, for breakpoints and the batch paths.

        Refused with CapacityError when its bound exceeds MEASURE_MAX.
        """
        self._check(_bound(self.steps), "a vertex measure")
        return _vertex_measure(self.steps)

    @cached_property
    def _halves(self) -> tuple:
        """The distinct legs in two groups whose bounds balance, smaller bound first.

        Greedy: the most repeated steps first, each into the group whose
        bound is smaller so far.
        """
        groups = (Counter(), Counter())
        for step, mult in sorted(self.steps.items(), key=lambda sm: (-sm[1], sm[0])):
            groups[_bound(groups[1]) < _bound(groups[0])][step] = mult
        return tuple(sorted(groups, key=_bound))

    def _split(self, path: str) -> tuple:
        if path == _DIRECT:
            return self.steps, Counter()
        if path == _TABLE:
            return Counter(), self.steps
        return self._halves

    def _built(self, path: str) -> int:
        """Entries a path builds: A's measure, and B's measure with its
        moment table of top + 1 columns unless B is trivial."""
        size_a, size_b = map(_bound, self._split(path))
        return size_a if path == _DIRECT else size_a + size_b * (self.top + 2)

    @cached_property
    def _plans(self) -> dict:
        """path -> (bound of A, bound of B) for each path whose build fits MEASURE_MAX.

        CapacityError, naming the smallest build, when no path fits; nothing
        is built before that.
        """
        plans = {path: tuple(map(_bound, self._split(path))) for path in _PATHS
                 if self._built(path) <= MEASURE_MAX}
        if not plans:
            self._check(min(map(self._built, _PATHS)), "a vertex measure and moment table")
        return plans

    def _costs(self, path: str) -> tuple:
        """(terms still to build, terms of one point) of a path that fits.

        A point costs one term per entry of A on the direct loop, and top + 1
        terms per entry of A against a table; a built entry or moment is one
        term.  What is cached is free: a built path, and the whole measure
        once breakpoints() or a batch path has made it.
        """
        size_a, size_b = self._plans[path]
        whole = self.__dict__.get("full")
        if whole and path == _DIRECT:
            size_a = len(whole[0])
        if whole and path == _TABLE:
            size_b = len(whole[0])
        point = size_a if path == _DIRECT else size_a * (self.top + 1)
        if path in self._parts:
            return 0, point
        if path == _DIRECT:
            return (0 if whole else size_a), point
        measures = size_b if path == _TABLE and whole else size_a + size_b
        return measures + size_b * (self.top + 1), point

    def _choose(self) -> str:
        """The path the next sum takes; CapacityError if none fits.

        The first sum takes the path that answers one point cheapest, build
        included.  Later sums switch to a path with cheaper points as soon
        as the terms summed so far cover what it still has to build: the
        rent-or-buy rule, which with one cheaper path spends at most about
        twice what the better of the two would have for the same points,
        however many follow.  The abandoned path's parts are freed.
        """
        if self._spent < self._due:
            return self._path
        costs = {path: self._costs(path) for path in self._plans}
        path = self._path
        if path is None:
            path = min(costs, key=lambda p: sum(costs[p]))
        cheaper = [p for p in costs if costs[p][1] < costs[path][1]]
        paid = [p for p in cheaper if costs[p][0] <= self._spent]
        if paid:
            path = min(paid, key=lambda p: costs[p][1])
            cheaper = [p for p in cheaper if costs[p][1] < costs[path][1]]
        if self._path is not None and path != self._path:
            self._parts.pop(self._path, None)
        self._path = path
        self._due = min((costs[p][0] for p in cheaper), default=math.inf)
        return path

    def _build(self, path: str) -> tuple:
        """(A's keys, A's weights, B's keys, B's suffix moments or None) of a path."""
        parts = self._parts.get(path)
        if parts is None:
            a, b = self._split(path)
            if not b:
                parts = (*self.full, None, None)
            else:
                self._check(self._built(path), "a vertex measure and moment table")
                a_keys, a_weights = _vertex_measure(a)
                b_keys, b_weights = self.full if not a else _vertex_measure(b)
                parts = (a_keys, a_weights, b_keys,
                         _suffix_moments(b_keys, b_weights, self.top))
            self._parts[path] = parts
        return parts

    def sum(self, start, exponent: int, form: int, path: str | None = None) -> Fraction:
        """sum over the measure of w * phi(start + key / den), exactly.

        phi(y) is y^exponent * tau(y) (_TAU), y^exponent * sign(y) (_SIGN) or
        plain y^exponent (_RAW, with 0^0 = 1), for exponent <= top.  start
        is a rational or an int.  Keys and start are brought to one
        denominator, so the work is on integers; the arguments ascend with
        the keys, which locates the zero arguments by bisection.  path
        forces one of _DIRECT, _TABLE and _SPLIT; by default _choose does.
        """
        with self._lock:
            a_keys, a_weights, b_keys, rows = self._build(path or self._choose())
            self._spent += len(a_keys) * (1 if rows is None else exponent + 1)
        scale = math.lcm(self.den, start.denominator)
        s = start.numerator * (scale // start.denominator)
        m = scale // self.den
        e = exponent
        if rows is None:
            return Fraction(_direct_twice(a_keys, a_weights, s, m, e, form),
                            2 * scale ** e)
        coef = [math.comb(e, j) * m ** j for j in range(e + 1)]
        total, zero = rows[0], rows[-1]
        twice = 0
        for a, w in zip(a_keys, a_weights):
            t = s + m * a
            if form == _RAW:
                row = total
            else:
                pos = bisect_right(b_keys, (-t) // m)  # B's args from pos on are > 0
                row = rows[pos]
                if form == _SIGN:
                    neg = rows[bisect_left(b_keys, -(t // m))]
                    row = [p + q - r for p, q, r in zip(row, neg, total)]
                elif e == 0:
                    # tau(0) = 1/2: half the weight of the zero arguments
                    twice += w * (rows[bisect_left(b_keys, -(t // m))][0] - row[0])
                if row is zero:
                    continue
            acc = 0
            for c, v in zip(coef, row):
                acc = acc * t + c * v
            twice += 2 * w * acc
        return Fraction(twice, 2 * scale ** e)


def _direct_twice(keys: tuple, weights: tuple, s: int, m: int, e: int, form: int) -> int:
    """Twice sum over keys of w * phi(s + m * key), one power per entry."""
    neg = bisect_left(keys, -(s // m))   # keys before neg have arguments < 0
    pos = bisect_right(keys, (-s) // m)  # keys from pos on have arguments > 0

    def part(lo, hi):
        return sum(w * (s + m * k) ** e for k, w in zip(keys[lo:hi], weights[lo:hi]))

    if form == _TAU:
        # tau(0) = 1/2 matters for exponent 0 only
        twice = 2 * part(pos, len(keys))
        if e == 0:
            twice += sum(weights[neg:pos])
        return twice
    if form == _SIGN:
        return 2 * (part(pos, len(keys)) - part(0, neg))
    return 2 * part(0, len(keys))


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
    def _measure(self) -> VertexMeasure:
        """Vertex measure in arguments x - _hi + key / den: legs 2 a_j, up to the cdf's exponent n."""
        return VertexMeasure([2 * c.half_width for c in self.components], self.n)

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
        """Sorted kink locations of the density: lo plus each key of the signed vertex measure.

        These are the subset sums of the legs 2 a_j whose merged weight does
        not cancel; a subset sum whose weight is 0 is no kink (legs 1, 2, 3
        leave none at lo + 3).  Up to 2^n points; the whole measure is
        built, and refused with CapacityError when its bound exceeds
        MEASURE_MAX.
        """
        keys, _ = self._measure.full
        return [self._lo + Fraction(k, self._measure.den) for k in keys]

    # -- pointwise evaluation ---------------------------------------------

    def _eval(self, x, mode: EvalMode, exponent: int, form: int,
              extra_pow2: int, below, above) -> EvalResult:
        xf = _point(x, mode)
        if xf < self._lo:
            return _result(Fraction(below), mode)
        if xf > self._hi:
            return _result(Fraction(above), mode)
        raw = self._measure.sum(xf - self._hi, exponent, form)
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
        return self._measure.sum(xf - self._hi, self.n - 1, _RAW)

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
        keys, weights = self._measure.full
        den = self._measure.den
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
