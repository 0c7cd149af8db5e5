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

The vertices enter the sum only through their arguments.  Writing the
argument of a vertex as x - sum_j (c_j + a_j) plus the legs 2 a_j of the
components whose sign is +1, the parity weights of all vertices with the
same argument add up to one coefficient of prod_j (z^(2 a_j) - 1), the
box-spline view of de Boor, Hollig and Riemenschneider (Box Splines, 1993).
Each model holds that merged signed vertex measure as a VertexMeasure, and
every closed form in the package is the tau sum over it of one polynomial
of the model, over one norm (VertexMeasure.sum): y^(n-1) and y^n over
e! 2^n prod_j a_j for the density and the CDF, and the Laurent polynomial
of the discrete PMF (discsum).  Tau is the only step form the engine knows.

The mirror identity.  With K the sum of the legs, the weight of key K - k
is (-1)^n times that of key k.  As y^e = y_+^e + (-1)^e (-y)_+^e exactly,
at y = 0 too (for e = 0 by tau(0) = 1/2), the plain and the sign-weighted
sums are tau sums T at the start s and the mirrored start -s - K:

    sum_k w_k (s + k)^e             = T(s) + (-1)^(e+n) T(-s - K),
    sum_k w_k sign(s + k) (s + k)^e = T(s) - (-1)^(e+n) T(-s - K).

The start of x is x - hi, and its mirror lo - x is the start of
lo + hi - x.  So the sign-form density at x is the mean of the tau density
at x and at lo + hi - x, and the vanishing alternating sum is
T(x - hi) - T(lo - x) at e = n - 1.  The density is thus symmetric about
the center and F(x) = 1 - F(lo + hi - x), so the batch piece table keeps
the pieces from lo to the center only and reads a point past it mirrored.

The measure factors as A (x) B for any split of the legs into two groups,
and the sum runs over A only, against suffix moments of B (powers of B's
keys summed from each position on, cached up to the model's top exponent)
that one bisection per entry of A locates.  Three splits are used:

* Direct loop (B trivial): one power per entry of the whole merged measure
  and term of the polynomial, nothing built but the measure.  It answers
  the first points of commensurate widths, and every point of models whose
  table would answer no faster, such as n identical components.
* Meet in the middle (Horowitz and Sahni, 1974): the distinct legs split
  into two halves whose merged sizes balance, the smaller one summed over,
  the larger one tabulated.  It answers generic widths, whose 2^n vertices
  never merge, from halves of about 2^(n/2) entries each.
* Moment table (A trivial): the whole merged measure with its moments, one
  bisection and one Horner pass of deg g per point (see the point path).
  It answers models asked enough points to pay for it, such as commensurate
  widths (widths on a 1/8 grid leave far fewer than 2^n entries).

The choice counts terms (an entry built, a moment, one term of a point)
from a table each model makes once from its legs, before anything is built
(VertexMeasure._plans), and from the terms it has summed so far.  The first
point takes the split that answers it cheapest, build included; later, of
the splits whose remaining build the terms summed cover, the one with the
cheapest point answers, the current one on ties (rent or buy).  No count
of future points is assumed.

The point path.  A model's exact constants are integers over one common
denominator D, the lcm of its centers' and half-widths' denominators
(ContinuousSum._frame): hi D, (hi - lo) D and the legs 2 a_j D, which the
measure reduces by one gcd to its steps over den.  Exact mode, the
reference, computes in rationals; float mode rounds the exact value at the
double nearest to x once (EvalResult).  A point x = num / d is one integer
pass: x - hi and hi - lo are integers s and w over scale = lcm(d, h), h
the lcm of den and hi's reduced denominator, a divisor of D
(ContinuousSum._start); s > 0 lies past the support, s + w < 0 below it,
and -s - w is the mirrored start.  VertexMeasure.sum takes the polynomial
at that scale from a plan cached by value (_plan), makes one integer pass
over A, one Horner pass per entry against B's row (a polynomial of several
terms, the PMF, folded into the row once and kept), and divides once, in
its only Fraction.  Once a batch path has kept the exact CDF rows
(ContinuousSum._rows), a quantile step is one bisection of the keys, one
integer Horner pass on a row or on its mirror's, and one integer comparison
with q, with no Fraction.

What each path may build and do is bounded by the capacity rule stated
once above MEASURE_MAX in errors.py.

Only the batch paths, density_batch and cdf_batch, use numpy, and they
import it when first called: importing this module, and every exact or
scalar float evaluation, loads none of it.
"""

from __future__ import annotations

import math
import sys
import threading
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import islice

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
        return Fraction(*value.as_integer_ratio()) if isinstance(value, float) else Fraction(value)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        raise ModeError(f"{what} is not a finite rational number: {value!r}") from exc


def _whole(value, what: str, least: int) -> int:
    """value if it is an int >= least and not a bool; ValueError otherwise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class _Value:
    """An immutable value, compared, hashed, printed and pickled by its fields.
    A subclass names them once, in __match_args__; its __init__ validates and
    stores them (object.__setattr__), and builds every copy and pickle anew."""

    __slots__ = ()
    __match_args__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()


class ContinuousComponent(_Value):
    """One uniform summand on [center - half_width, center + half_width].

    Parameters are stored as exact rationals.  Floats convert exactly (every
    finite float is a binary rational); pass strings or Fractions for decimal
    inputs, e.g. "0.1" means one tenth, not the nearest double.
    """

    __slots__ = __match_args__ = ("center", "half_width")

    def __init__(self, center, half_width):
        object.__setattr__(self, "center", _as_fraction(center, "center"))
        object.__setattr__(self, "half_width", _as_fraction(half_width, "half_width"))
        if self.half_width.numerator <= 0:
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


class EvalMode(_Value):
    """How to evaluate: "exact" rationals or the exact value rounded to "float".

    report_condition only affects float mode; when set, results carry the
    condition_estimate described in EvalResult.
    """

    __slots__ = __match_args__ = ("kind", "report_condition")

    def __init__(self, kind: str, report_condition: bool = True):
        if kind not in ("exact", "float"):
            raise ValueError(f"unknown evaluation mode {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "report_condition", report_condition)

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"


EXACT = EvalMode("exact")
FLOAT = EvalMode("float")


class EvalResult(_Value):
    """Value of a density/CDF evaluation plus an optional error report.

    value is a Fraction in exact mode.  In float mode it is the exact value
    at the double nearest to x, rounded once to the nearest double (+-inf
    beyond the float range).  condition_estimate is None in exact mode or
    when not requested.  Otherwise it bounds the relative error in units of
    the rounding error: 1.0 when value is a normal double or the exact value
    is 0, inf when a nonzero exact value rounded to a subnormal, to 0 or
    beyond the float range.
    """

    __slots__ = __match_args__ = ("value", "condition_estimate")

    def __init__(self, value: Fraction | float, condition_estimate: float | None = None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "condition_estimate", condition_estimate)

    def __float__(self) -> float:
        return float(self.value)


def _point(x, mode: EvalMode) -> tuple:
    """The evaluation point as an integer ratio; float mode first rounds it, or
    the rational a string names, to a double."""
    if mode.is_exact:
        return (x if isinstance(x, (int, Fraction)) else _as_fraction(x, "x")).as_integer_ratio()
    xv = _rounded(x if isinstance(x, (int, float, Fraction)) else _as_fraction(x, "x"))
    if not math.isfinite(xv):
        raise ValueError(f"x must round to a finite double in float mode, got {xv}")
    return xv.as_integer_ratio()


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

# The three ways of splitting the measure into A (x) B: A is the whole
# measure and B trivial (_DIRECT), A trivial and B the whole measure
# (_TABLE), or each a half of the distinct legs (_SPLIT).
_DIRECT = "direct"
_TABLE = "table"
_SPLIT = "split"


def _bound(steps: dict) -> int:
    """An upper bound on the entries of prod over steps s of (z^s - 1)^mult.

    min(prod over distinct steps of (multiplicity + 1), sum of steps + 1),
    known before anything is built; 1 for no steps.
    """
    return min(math.prod(m + 1 for m in steps.values()),
               sum(s * m for s, m in steps.items()) + 1)


def _vertex_measure(steps: dict) -> tuple:
    """The coefficients of prod over steps s of (z^s - 1)^mult, as (keys, weights).

    keys are the sorted exponents with nonzero coefficient, weights the
    matching integers: key k stands for every flag vector whose set legs sum
    to k, weighted by (-1)^(flags not set).  The distinct steps multiply the
    product P so far one after the other: a single one as z^s P - P, a
    repeated one as its binomial expansion sum_k (-1)^(mult - k) C(mult, k)
    z^(k s), so n identical legs cost n + 1 binomials rather than n passes.
    Cancelled keys are dropped at the end.  Every intermediate dict holds at
    most _bound(steps) keys, all subset sums; the callers check that bound first.
    """
    weight = {0: 1}
    for step, mult in steps.items():
        if mult == 1:  # -P, then z^s P added in the same dict
            merged = {key: -w for key, w in weight.items()}
            for key, w in weight.items():
                merged[key + step] = merged.get(key + step, 0) + w
        else:
            factor, c = [], (-1) ** mult
            for k in range(mult + 1):
                factor.append((k * step, c))
                c = -c * (mult - k) // (k + 1)
            merged = {}
            for key, w in weight.items():
                for shift, binom in factor:
                    merged[key + shift] = merged.get(key + shift, 0) + w * binom
        weight = merged
    keys = tuple(sorted(k for k, w in weight.items() if w))
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


def _knot_rows(keys: tuple, weights: tuple, e: int):
    """Yield a row c at each knot X = -k of sum_t w_t (X + k_t)_+^e, keys descending.

    c[r] is the exact coefficient of (X + k)^r of the polynomial just right
    of the knot; the one just left of it differs only in its top
    coefficient, by the knot's weight.  Each knot costs one Taylor shift of
    the last row by the gap between them (e (e + 1) / 2 multiply-adds) and
    one addition.
    """
    c = [0] * (e + 1)
    last = None
    for k, w in zip(reversed(keys), reversed(weights)):
        if last is not None:
            gap = last - k
            for i in range(e):
                acc = c[e]
                for j in range(e - 1, i - 1, -1):
                    acc = c[j] + gap * acc
                    c[j] = acc
        c[e] += w
        last = k
        yield tuple(c)


class VertexMeasure:
    """The merged signed vertex measure prod_j (z^steps[j] - 1) of one model.

    The legs are positive integers over a common denominator, which one gcd
    reduces to the steps over den; a key k stands for the argument offset
    k / den.  top is the largest exponent the model evaluates.  sum()
    evaluates the tau sum of a polynomial g(y) = sum_e c_e y^e over the
    measure, factored as A (x) B by splitting the legs in two:

        sum_a w_a sum_e c_e sum_j C(e, j) (s + m a)^(e-j) m^j S^B_j[pos(a)],

    where S^B_j[i] = sum over t >= i of w_t k_t^j are B's suffix moments, up
    to top, and pos(a) is one bisection of B's keys.  _plans tabulates the three
    splits once, and _choose picks one by it.

    Instances are built lazily and cache what they build.  The choice of a
    path, its build and the count of terms summed share one lock, so threads
    sharing a model build each path once and drop it once; the sums and the
    rows they fold (two threads folding one row write equal tuples) run
    outside it.  The path decides which exact evaluation answers, never the value.
    """

    def __init__(self, legs: list[int], den: int, top: int):
        g = math.gcd(den, *legs)
        self.den = den // g
        self.steps = Counter(leg // g for leg in legs)
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
        """(keys, weights) of the whole merged measure, for breakpoints and the
        batch paths; checked against the capacity rule (errors.MEASURE_MAX) first."""
        self._check(self._plans[_DIRECT][2], "a vertex measure")
        return _vertex_measure(self.steps)

    @cached_property
    def _plans(self) -> dict:
        """path -> (A's steps, B's steps, A's bound, entries counted under the capacity
        rule stated above errors.MEASURE_MAX) of every path, from the steps alone; on
        the table and the split, the entries are also the terms of their build.  The
        split takes the most repeated steps first, each into the group of smaller bound
        so far (_bound, from its running product and sum); A is the smaller group."""
        whole, top = _bound(self.steps), self.top
        groups = [[{}, 1, 1, 0], [{}, 1, 1, 0]]  # (steps, bound, product, sum) as each grows
        for step, mult in sorted(self.steps.items(), key=lambda sm: (-sm[1], sm[0])):
            group = groups[groups[1][1] < groups[0][1]]
            group[0][step] = mult
            group[2:] = group[2] * (mult + 1), group[3] + step * mult
            group[1] = min(group[2], group[3] + 1)
        (a, size_a, *_), (b, size_b, *_) = sorted(groups, key=lambda g: g[1])
        return {_DIRECT: (self.steps, {}, whole, whole * (top + 1)),
                _TABLE: ({}, self.steps, 1, 1 + whole * (top + 2)),
                _SPLIT: (a, b, size_a, size_a + size_b * (top + 2))}

    def _admitted(self) -> list:
        """The paths the capacity rule admits; CapacityError, naming the least count, if none."""
        entries = {path: plan[3] for path, plan in self._plans.items()}
        self._check(min(entries.values()), "a vertex sum")
        return [path for path, size in entries.items() if size <= MEASURE_MAX]

    def _costs(self, path: str, exponents: tuple = ()) -> tuple:
        """(terms still to build, terms of one point) of a path that fits.

        A point of a polynomial with these exponents (by default the top
        monomial) costs _terms per entry of A; a built entry or moment is one
        term.  What is cached is free: a built path, and the whole measure
        once breakpoints() or a batch path has made it.
        """
        _, _, size_a, build = self._plans[path]
        whole = self.__dict__.get("full")
        if path == _DIRECT:  # the whole measure is all it builds
            size_a, build = (len(whole[0]), 0) if whole else (size_a, size_a)
        elif path == _TABLE and whole:  # A's one entry and the moments of the cached B
            build = 1 + len(whole[0]) * (self.top + 1)
        point = size_a * _terms(path == _DIRECT, exponents or (self.top,))
        return (0 if path in self._parts else build), point

    def _choose(self, terms: tuple = ()) -> str:
        """The path the next sum of a polynomial with these terms takes (by
        default the top monomial); CapacityError if none fits.

        Rent or buy over the admitted paths: the first sum takes the cheapest
        point plus build; a later one, of the paths whose remaining build the
        terms summed cover (the current one, built, among them), the cheapest
        point, the current one on ties, and frees the parts of the one it
        leaves.  With one cheaper path this spends at most about twice what
        the better of the two would have, however many points follow.  _due
        defers the next look to the least build of a path with a cheaper point.
        """
        if self._spent < self._due:
            return self._path
        exponents = tuple(e for e, _ in terms)
        costs = {path: self._costs(path, exponents) for path in self._admitted()}
        current = self._path
        if current is None:
            path = min(costs, key=lambda p: sum(costs[p]))
        else:
            path = min((p for p, (build, _) in costs.items() if build <= self._spent),
                       key=lambda p: (costs[p][1], p != current))
            if path != current:
                self._parts.pop(current, None)
        self._path = path
        self._due = min((build for build, point in costs.values() if point < costs[path][1]),
                        default=math.inf)
        return path

    def _build(self, path: str) -> tuple:
        """(A's keys, A's weights, B's keys, B's suffix moments or None) of a path."""
        parts = self._parts.get(path)
        if parts is None:
            a, b, _, entries = self._plans[path]
            if not b:
                parts = (*self.full, None, None, None)
            else:
                self._check(entries, "a vertex measure and moment table")
                a_keys, a_weights = _vertex_measure(a)
                b_keys, b_weights = self.full if not a else _vertex_measure(b)
                parts = (a_keys, a_weights, b_keys,
                         _suffix_moments(b_keys, b_weights, self.top), [None, None, None])
            self._parts[path] = parts
        return parts

    def sum(self, s: int, scale: int, poly: tuple) -> Fraction:
        """sum over the measure of w * g_+(s / scale + key / den), over a divisor, exactly.

        Every density, CDF and PMF point is this one call (the point path of
        the module docstring): s an integer, scale a multiple of den, so a
        key adds m = scale / den to s, and poly (terms, divisor), g's pairs
        (exponent <= top, integer coefficient) and a positive rational.
        g_+(y) is g(y) tau(y), tau(0) = 1/2: a zero argument takes half of
        g's constant term.  Over scale^degree the sum is one integer; the
        arguments ascend with the keys, so bisection locates the zero ones.
        A g of several terms is folded into each row of B the first time a
        point reads it, and kept for one g at one scale (folds); a monomial is not.
        """
        terms, divisor = poly
        m = scale // self.den
        with self._lock:
            a_keys, a_weights, b_keys, rows, kept = self._build(self._choose(terms))
            if kept and len(terms) > 1 and kept[:2] != [terms, scale]:
                kept[:] = terms, scale, [None] * len(rows)  # one polynomial at one scale
            folds = kept[2] if kept and len(terms) > 1 else None
            count, const, terms, folded, denominator = _plan(terms, scale, m, rows is not None)
            self._spent += len(a_keys) * count
        if rows is None:  # one power per entry and term
            pos = bisect_right(a_keys, (-s) // m)  # keys from pos on have arguments > 0
            twice = const * sum(a_weights[bisect_left(a_keys, -(s // m)):pos])
            for e, c in terms:
                twice += 2 * c * sum(w * (s + m * k) ** e
                                     for k, w in zip(a_keys[pos:], a_weights[pos:]))
            return Fraction(twice * divisor.denominator, denominator * divisor.numerator)
        twice, zero, below = 0, rows[-1], (-s) // m  # (-t) // m is below - a
        if not const and folds is None:  # a monomial of degree >= 1: one Horner pass per row
            for a, w in zip(a_keys, a_weights):
                row = rows[bisect_right(b_keys, below - a)]  # B's args from here on are > 0
                if row is not zero:
                    t, acc = s + m * a, 0
                    for c, v in zip(folded[0], row):
                        acc = acc * t + c * v
                    twice += w * acc
            return Fraction(2 * twice * divisor.denominator, denominator * divisor.numerator)
        for a, w in zip(a_keys, a_weights):
            t = s + m * a
            row = rows[i := bisect_right(b_keys, below - a)]  # B's args from row i on are > 0
            if const:
                twice += const * w * (rows[bisect_left(b_keys, -(t // m))][0] - row[0])
            if row is zero:
                continue
            if folds is None:  # y^0, the one monomial with a constant term
                acc = folded[0][0] * row[0]
            else:
                q = folds[i]
                if q is None:  # g folded into row i: its coefficients in t, highest first
                    q = [0] * max(map(len, folded))
                    for coef in folded:
                        for j, (c, v) in enumerate(zip(coef, row), len(q) - len(coef)):
                            q[j] += c * v
                    folds[i] = q = tuple(q)
                acc = 0
                for c in q:  # one Horner pass in t for all of g
                    acc = acc * t + c
            twice += 2 * w * acc
        return Fraction(twice * divisor.denominator, denominator * divisor.numerator)


def _terms(direct: bool, exponents: tuple) -> int:
    """Terms an entry of A sums: one per term on the direct loop, else e + 1 per term."""
    return len(exponents) if direct else sum(exponents) + len(exponents)


@lru_cache(maxsize=64)
def _plan(terms: tuple, scale: int, m: int, folded: bool) -> tuple:
    """What VertexMeasure.sum needs of g's terms at one scale, cached by value: the
    _terms an entry of A counts, g's constant term, the terms (e, c scale^(degree - e)),
    their rows c C(e, j) m^j (j <= e) if folded, else None, and 2 scale^degree."""
    exponents = tuple(e for e, _ in terms)
    degree = max(exponents)
    terms = tuple((e, c * scale ** (degree - e)) for e, c in terms)
    rows = tuple(tuple(c * math.comb(e, j) * m ** j for j in range(e + 1))
                 for e, c in terms) if folded else None
    return _terms(not folded, exponents), dict(terms).get(0, 0), terms, rows, 2 * scale ** degree


# ---------------------------------------------------------------------------
# The sum itself
# ---------------------------------------------------------------------------

class ContinuousSum(_Value):
    """Sum of n independent uniforms on [c_j - a_j, c_j + a_j].

    All distribution-level operations are pure functions of the stored
    components; instances are immutable and safe to share across threads.
    A model caches its constants and a memo of up to 8 of its last exact sums
    (a point asked in both modes is summed once); a copy or pickle carries neither.

    Examples
    --------
    >>> s = ContinuousSum.from_pairs([(0, 1), (0, 2)])
    >>> s.support()
    (Fraction(-3, 1), Fraction(3, 1))
    >>> s.density_tau(0).value
    Fraction(1, 4)
    """

    __match_args__ = ("components",)

    def __init__(self, components: tuple):
        comps = tuple(c if isinstance(c, ContinuousComponent) else ContinuousComponent(*c)
                      for c in components)
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise ValueError("a sum needs at least one component")

    @classmethod
    def from_pairs(cls, pairs) -> ContinuousSum:
        """Build from an iterable of (center, half_width) pairs."""
        return cls(tuple(ContinuousComponent(c, a) for c, a in pairs))

    @property
    def n(self) -> int:
        return len(self.components)

    # -- cached model constants ------------------------------------------

    @cached_property
    def _frame(self) -> tuple:
        """(D, hi D, (hi - lo) D, the legs 2 a_j D), D the lcm of every center's and
        half-width's denominator: the integers every exact constant below is made of."""
        comps = self.components
        common = math.lcm(*(v.denominator for c in comps for v in (c.center, c.half_width)))
        legs = [2 * c.half_width.numerator * (common // c.half_width.denominator) for c in comps]
        centers = sum(c.center.numerator * (common // c.center.denominator) for c in comps)
        return common, centers + sum(legs) // 2, sum(legs), legs

    @cached_property
    def _lo(self) -> Fraction:
        return Fraction(self._frame[1] - self._frame[2], self._frame[0])

    @cached_property
    def _hi(self) -> Fraction:
        return Fraction(self._frame[1], self._frame[0])

    @cached_property
    def _measure(self) -> VertexMeasure:
        """Vertex measure in arguments x - _hi + key / den: legs 2 a_j, up to the cdf's exponent n."""
        return VertexMeasure(self._frame[3], self._frame[0], self.n)

    @cached_property
    def _origin(self) -> tuple:
        """(h, hi h, (hi - lo) h) from the frame, h the lcm of den and hi's denominator."""
        h = math.lcm(self._measure.den, self._hi.denominator)
        common, hi, width, _ = self._frame
        return h, hi // (common // h), width // (common // h)

    @cached_property
    def _polys(self) -> dict:
        """exponent -> the density's (n - 1) or the CDF's (n) monomial over its norm,
        e! 2^n prod_j a_j = e! prod_j legs / D^n, as VertexMeasure.sum takes it."""
        legs, power = math.prod(self._frame[3]), self._frame[0] ** self.n
        return {e: (((e, 1),), Fraction(math.factorial(e) * legs, power))
                for e in (self.n - 1, self.n)}

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
        built, under the capacity rule (errors.MEASURE_MAX).
        """
        keys, _ = self._measure.full
        return [self._lo + Fraction(k, self._measure.den) for k in keys]

    # -- pointwise evaluation ---------------------------------------------

    def _start(self, num: int, d: int) -> tuple:
        """(s, w, scale): x - hi = s / scale, hi - lo = w / scale at x = num / d."""
        h, hi, width = self._origin
        scale = math.lcm(h, d)
        k = scale // h
        return num * (scale // d) - hi * k, width * k, scale

    @cached_property
    def _sums(self) -> dict:
        """(s, scale, exponent) -> the exact vertex sum of _tau there; 8 keys at most."""
        return {}

    def _tau(self, s: int, w: int, scale: int, exponent: int, above: int) -> Fraction:
        """The tau form at (s, w, scale) of _start: 0 below lo, `above` past hi."""
        if s > 0:
            return Fraction(above)
        if s + w < 0:
            return Fraction(0)
        sums, key = self._sums, (s, scale, exponent)
        value = sums.get(key)
        if value is None:  # two threads that both miss store equal values
            value = self._measure.sum(s, scale, self._polys[exponent])
            if len(sums) >= 8:
                sums.clear()
            sums[key] = value
        return value

    def _row_sum(self, s: int, w: int, scale: int) -> tuple:
        """(V, mirrored) at (s, w, scale) of _start, from _rows: the CDF is V / (scale^n
        norm), or 1 minus that if mirrored: a point whose knot lies past the middle is
        read at the mirror start -s - w, by F(x) = 1 - F(lo + hi - x).  V is an integer."""
        keys, rows = self._rows
        m = scale // self._measure.den
        pos = bisect_left(keys, -(s // m))  # keys from pos on have arguments >= 0
        mirrored = pos < len(keys) - len(rows)  # its knot, len(keys) - 1 - pos, is not kept
        if mirrored:
            s = -s - w
            pos = bisect_left(keys, -(s // m))
        if pos == len(keys):  # below lo, or past hi if mirrored
            return 0, mirrored
        t, v, power = s + m * keys[pos], 0, 1
        for c in reversed(rows[len(keys) - 1 - pos]):  # sum_r c_r t^r m^(n - r)
            v = v * t + c * power
            power *= m
        return v, mirrored

    def density_tau(self, x, mode: EvalMode = EXACT) -> EvalResult:
        """Density at x via the step-function (tau) form of the vertex sum: exactly 0
        outside the closed support, the midpoint 1/(4a) at the jumps of n = 1."""
        return _result(self._tau(*self._start(*_point(x, mode)), self.n - 1, 0), mode)

    def density_sign(self, x, mode: EvalMode = EXACT) -> EvalResult:
        """Density at x via the sign-function form: by the mirror identity
        (module docstring) the exact mean of the tau form at x and at
        lo + hi - x, rounded once in float mode.  Equal to density_tau as a
        rational (the two differ by half the vanishing alternating sum).
        """
        s, w, scale = self._start(*_point(x, mode))
        mirror = self._tau(-s - w, w, scale, self.n - 1, 0)  # the start lo - x of lo + hi - x
        return _result((self._tau(s, w, scale, self.n - 1, 0) + mirror) / 2, mode)

    def cdf(self, x, mode: EvalMode = EXACT) -> EvalResult:
        """P(S <= x): the termwise antiderivative of the vertex sum, exactly 0
        at/below the lower support end and 1 at/above the upper end."""
        return _result(self._tau(*self._start(*_point(x, mode)), self.n, 1), mode)

    def cool_identity_residual(self, x) -> Fraction:
        """The raw alternating vertex sum sum_eps (arg_eps)^(n-1) * parity.

        Summed as T(x - hi) - T(lo - x) by the mirror identity (module
        docstring), at every x.  Identically zero; exposed as an
        exact-arithmetic test hook.  Inputs must be finite rationals.
        """
        s, w, scale = self._start(*_point(x, EXACT))
        raw = (((self.n - 1, 1),), 1)
        return self._measure.sum(s, scale, raw) - self._measure.sum(-s - w, scale, raw)

    def quantile(self, q) -> float:
        """Smallest x with cdf(x) ~ q, by bisection on the support.

        Each float midpoint is compared exactly: the exact cdf there against
        the exact q, so tail levels such as 1 - 1e-12 keep their precision.
        The bracket is narrowed to 2**-40 of the support width (about 40
        iterations), far below tabulation needs, or to two adjacent doubles.
        Width and midpoint come from halves of the ends, so no support with
        finite ends overflows; ends beyond the float range raise ValueError.
        quantile(0) and quantile(1) return the support endpoints.
        Once a batch path has kept the exact CDF rows (_rows), a midpoint is
        compared in integers on one row, else by one vertex sum that builds no
        rows; both compare the same exact values and return the same double.
        """
        qf = _as_fraction(q, "q")
        if qf < 0 or qf > 1:
            raise ValueError(f"q must lie in [0, 1], got {q!r}")
        lo, hi = _rounded(self._lo), _rounded(self._hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"the support rounds to [{lo}, {hi}] in doubles; "
                             "quantiles need finite ends")
        if qf == 0:
            return lo
        if qf == 1:
            return hi
        rows, norm = "_rows" in self.__dict__, self._polys[self.n][1]
        d = norm.denominator * qf.denominator  # cdf < q: V d < a scale^n, or b scale^n < V d
        a, b = qf.numerator * norm.numerator, (qf.denominator - qf.numerator) * norm.numerator
        half_tol = (0.5 * hi - 0.5 * lo) * 2.0 ** -40
        mid = 0.5 * lo + 0.5 * hi
        while 0.5 * hi - 0.5 * lo > half_tol and lo < mid < hi:
            s, w, scale = self._start(*mid.as_integer_ratio())
            if rows:
                v, mirrored = self._row_sum(s, w, scale)
                below = b * scale ** self.n < v * d if mirrored else v * d < a * scale ** self.n
            else:
                below = self._tau(s, w, scale, self.n, 1) < qf
            lo, hi = (mid, hi) if below else (lo, mid)
            mid = 0.5 * lo + 0.5 * hi
        return mid

    # -- vectorized float evaluation ---------------------------------------
    # The density is a piecewise polynomial of degree e = n - 1 and the CDF one
    # of degree e = n, with knots at hi - key / den for the keys of the
    # vertex measure (a univariate box spline).  _pieces holds, at each knot
    # from lo to the center, both Taylor expansions in the length unit _unit:
    # of the piece to its right, and the top coefficient of the piece to its
    # left, each the exact CDF row of _rows (which quantile reads too) rounded
    # once.  A point is evaluated by Horner about its nearest knot, found by
    # np.searchsorted, at the offset z = (x - knot) / _unit, which carries the
    # knot's rounding residual and so is exact up to its last rounding.  A
    # point past the middle reads the mirrored knot's piece at -z, by the
    # mirror identity: the density is that value, the CDF 1 minus it, so both
    # are symmetric by construction.  The error is then at most 4 (e + 1)
    # 2^-53 sum_r |c_r z^r| (c_r the coefficients used), and one rounding of
    # the CDF's 1 minus, which _batch_bound(e) bounds over the table.  Results
    # below 0 (density) or outside [0, 1] (CDF) are clamped, which only
    # shrinks the error.  The table holds 2 n + 3 coefficients per kept knot,
    # under the capacity rule (errors.MEASURE_MAX).

    @cached_property
    def _unit(self) -> Fraction:
        """A power of two near the widest half-width: the batch paths' length unit,
        which keeps the float arguments near 1 at any scale of the widths."""
        widest = max(c.half_width for c in self.components)
        return Fraction(2) ** (widest.numerator.bit_length()
                               - widest.denominator.bit_length())

    @cached_property
    def _rows(self) -> tuple:
        """(keys, rows): rows[i] the exact CDF row of _knot_rows about knot i, at
        hi - keys[-1 - i] / den, for the ceil(K / 2) knots from lo to the center;
        checked against the capacity rule (errors.MEASURE_MAX) before anything is built."""
        measure, n = self._measure, self.n
        measure._check(measure._plans[_DIRECT][2] * (n + 2), "a piece table")
        keys, weights = measure.full
        return keys, tuple(islice(_knot_rows(keys, weights, n), (len(keys) + 1) // 2))

    @cached_property
    def _pieces(self) -> tuple:
        """(knots, residuals, splits, mirror, units, {e: (columns, left tops)}) for e = n, n - 1.

        columns[r][j] is the coefficient of z^r about knot j of the piece right
        of it, left tops[j] the top coefficient of the piece left of it, for the
        h = ceil(K / 2) knots from lo, rounded from _rows.  knots are these and
        their h mirror images (an odd K's middle knot twice) as doubles, and
        residuals what rounding left off.  splits are their midpoints, one ulp
        lower from the middle on: a point on one takes the knot nearer its own
        end.  A point nearest knot i reads piece mirror[i] at its offset times
        units[i]: i and 1 / _unit for i < h, 2 h - 1 - i and -1 / _unit else.
        """
        import numpy as np

        n, (keys, exact) = self.n, self._rows
        weights, den = self._measure.full[1], self._measure.den
        scale, shift, _ = self._origin
        descending, half = keys[::-1], len(exact)
        knots, residuals = [], []
        for k in descending[:half] + descending[-half:]:
            num = shift - k * (scale // den)
            knot = num / scale
            p, q = knot.as_integer_ratio()
            knots.append(knot)
            residuals.append((num * q - p * scale) / (scale * q))
        # The CDF's coefficient of z^r is c_r unit^r den^(r - n) / norm_n, the
        # density's of z^(r - 1) is r c_r unit^(r - 1) den^(r - n) / norm_n.
        # Each column is (index into c + (left top,), numerator, denominator) in
        # lowest terms, which rounds the same quotients from smaller integers:
        # the CDF's n + 1 columns and left top, then the density's n and left top.
        u, norm = self._unit, self._polys[n][1]
        cdf = [(r, u.numerator ** r * norm.denominator,
                u.denominator ** r * den ** (n - r) * norm.numerator) for r in range(n + 1)]
        density = [(r, r * u.numerator ** (r - 1) * norm.denominator,
                    u.denominator ** (r - 1) * den ** (n - r) * norm.numerator)
                   for r in range(1, n + 1)]
        plan = cdf + [(n + 1, *cdf[-1][1:])] + density + [(n + 1, *density[-1][1:])]
        plan = [(r, *Fraction(m, d).as_integer_ratio()) for r, m, d in plan]
        rows = []
        for c, w in zip(exact, reversed(weights)):
            ext = c + (c[n] - w,)  # the left top: the knot's weight taken off
            rows.append([ext[r] * m / d for r, m, d in plan])
        table = np.array(rows).T.copy()
        knots, order = np.array(knots), np.arange(half)
        splits = knots[:-1] + 0.5 * np.diff(knots)
        splits[half - 1:] = np.nextafter(splits[half - 1:], -math.inf)
        units = np.repeat([float(1 / u), float(-1 / u)], half)
        return knots, np.array(residuals), splits, np.concatenate([order, order[::-1]]), units, {
            n: (table[:n + 1], table[n + 1]),
            n - 1: (table[n + 2:2 * n + 2], table[2 * n + 2])}

    def _batch(self, xs, exponent: int) -> np.ndarray:
        """The piece table of exponent n (CDF) or n - 1 (density) at xs, clamped to the
        support: a point past the middle reads its mirror's piece, and the CDF 1 minus it."""
        import numpy as np

        knots, residuals, splits, mirror, units, tables = self._pieces
        columns, left = tables[exponent]
        x = np.clip(np.atleast_1d(xs).ravel(), knots[0], knots[-1])
        i = np.searchsorted(splits, x)  # the nearest knot
        t = knots[i]
        d = x - t
        b = d - x  # (x - (d - b)) - (t + b) is what x - t lost to rounding
        z = (d + ((x - (d - b)) - (t + b) - residuals[i])) * units[i]
        j = mirror[i]
        right = columns[-1][j]
        top = np.where(z > 0, right, left[j])
        if exponent == 0:  # tau(0) = 1/2 at a jump; 0 z carries a NaN point, as no Horner step does
            top = np.where(z == 0, 0.5 * (right + left[j]), top) + 0.0 * z
        acc = top
        for column in columns[-2::-1]:
            acc = acc * z + column[j]
        if exponent == self.n:  # F(x) = 1 - F(lo + hi - x) past the middle
            np.subtract(1.0, acc, out=acc, where=i >= len(left))
        return acc.reshape(np.shape(xs))

    def _batch_bound(self, exponent: int) -> float:
        """The stated error bound of _batch at exponent e = n or n - 1: 4 (e + 1)
        2^-53 times the table maximum M, the largest sum_r |c_r| |z|^r over the
        kept pieces with |z| half a piece, as a mirrored point's is.  Rounding
        the coefficients and z and Horner's 2 e steps take at most
        (3 e + 1) 2^-53 M; a CDF point past the middle rounds 1 - acc in [0, 1]
        once more, by at most 2^-53 <= (e + 3) 2^-53 M, as M >= F(center) = 1/2.
        Computed on each call, from _pieces."""
        import numpy as np

        knots, _, _, _, _, tables = self._pieces
        columns, left = tables[exponent]
        half = np.diff(knots)[:len(left)] / 2 / float(self._unit)
        sums = []
        for top, h in ((columns[-1], half), (left, np.insert(half, 0, 0.0)[:-1])):
            acc = np.abs(top)
            for column in columns[-2::-1]:
                acc = acc * h + np.abs(column)
            sums.append(acc.max())
        return 4 * (exponent + 1) * 2.0 ** -53 * max(sums)

    def density_batch(self, xs) -> np.ndarray:
        """Density at an array of points in float64, within the bound of the piece table."""
        import numpy as np

        xs = np.asarray(xs, dtype=float)
        out = np.maximum(self._batch(xs, self.n - 1), 0.0)
        lo, hi = float(self._lo), float(self._hi)
        return np.where((xs < lo) | (xs > hi), 0.0, out)

    def cdf_batch(self, xs) -> np.ndarray:
        """CDF at an array of points in float64, within the bound of the piece table."""
        import numpy as np

        xs = np.asarray(xs, dtype=float)
        out = np.clip(self._batch(xs, self.n), 0.0, 1.0)
        lo, hi = float(self._lo), float(self._hi)
        out = np.where(xs <= lo, 0.0, out)
        return np.where(xs >= hi, 1.0, out)


# ---------------------------------------------------------------------------
# Named special cases
# ---------------------------------------------------------------------------

def density_feller(n: int, a, x, mode: EvalMode = EXACT):
    """Density of n identical uniforms on [-a, a].

    Collapsing the vertex sum by the number of negative signs gives

        f_n(x) = sum_{k=0}^{n} (-1)^k C(n, k) (x + (n-2k) a)_+^(n-1)
                 / ((n-1)! (2a)^n),

    summed here in integers over one Fraction, tau(0) = 1/2 at n = 1: a check of
    density_tau on the n-component sum, whose measure merges the legs 2a into
    these n + 1 entries and whose capacity rule applies inside the support.
    n >= 1 must be an int, not a bool.  Returns a Fraction in exact mode, the
    exact value rounded to a float otherwise.
    """
    model = ContinuousSum.from_pairs([(0, a)] * _whole(n, "n", 1))
    (p, q), (u, v) = _point(x, mode), model.components[0].half_width.as_integer_ratio()
    if abs(p) * v <= n * u * q:  # x = p / q, a = u / v
        model._measure._admitted()
    twice = 0  # twice the sum times (q v)^(n - 1), over the arguments t / (q v) >= 0
    for k in range(n + 1):
        if (t := p * v + (n - 2 * k) * u * q) >= 0:
            twice += (-1) ** k * math.comb(n, k) * (2 if t else 1) * t ** (n - 1)
    norm = 2 ** (n + 1) * math.factorial(n - 1) * u ** n * (q * v) ** (n - 1)
    return _result(Fraction(twice * v ** n, norm), mode).value


def density_olds(a: list, x, mode: EvalMode = EXACT):
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
