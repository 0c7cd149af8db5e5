"""Shared generators for seeded random models and hypothesis strategies."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from unisum import CapacityError, ContinuousSum, DiscreteSum, contsum, discsum
from unisum.oracles import csc_series_oracle

PATHS = (contsum._DIRECT, contsum._TABLE, contsum._SPLIT)


def rational(rng: random.Random, lo, hi, max_den: int = 8) -> Fraction:
    """A random rational in [lo, hi] with a small denominator."""
    den = rng.randint(1, max_den)
    lo_n = math.ceil(Fraction(lo) * den)
    hi_n = math.floor(Fraction(hi) * den)
    return Fraction(rng.randint(lo_n, hi_n), den)


def random_continuous(rng: random.Random, n: int, c_range=(-8, 8),
                      a_range=(Fraction(1, 8), 6)) -> ContinuousSum:
    pairs = []
    for _ in range(n):
        c = rational(rng, *c_range)
        a = rational(rng, *a_range)
        pairs.append((c, a))
    return ContinuousSum.from_pairs(pairs)


def random_x(rng: random.Random, csum: ContinuousSum, slack=Fraction(1)) -> Fraction:
    lo, hi = csum.support()
    return rational(rng, lo - slack, hi + slack, max_den=16)


def discrete_panel(seed: int, size: int, n_max: int = 6, m_max: int = 5):
    """A fixed panel of discrete sums, reproducible from the seed."""
    rng = random.Random(seed)
    panel = []
    for _ in range(size):
        n = rng.randint(1, n_max)
        panel.append(DiscreteSum.from_half_ranges(
            [rng.randint(0, m_max) for _ in range(n)]))
    return panel


# the vertex measure budget ---------------------------------------------------

# Distinct power-of-two legs: every subset sum differs, so n of them merge
# into 2**n entries.  The whole measure, which breakpoints() builds, is
# refused from 21 legs on (2**21 entries).  A vertex sum splits the legs
# into halves of 2**(n // 2) and 2**(n - n // 2) entries and tabulates the
# larger one's moments up to the top exponent e: 2**(n // 2) +
# 2**(n - n // 2) * (e + 2) entries.  That is refused from 30 continuous
# components (e = 30: 33 * 2**15) and 31 discrete ones (e = 30: 65 * 2**15).
# The batch paths count n + 2 entries per key of the whole measure, and are
# refused from 16 legs on (2**16 * 18).
POW2_16 = [2 ** k for k in range(16)]
POW2_21 = [2 ** k for k in range(21)]
POW2_30 = [2 ** k for k in range(30)]
POW2_31 = [2 ** k for k in range(31)]


def assert_refused_unbuilt(call, bound: int):
    """call() raises CapacityError naming bound, having allocated under 1 MB:
    the budget refuses the model before any measure entry is built."""
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=f"up to {bound} entries"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def csc_triple_sum(n: int, k: int) -> Fraction:
    """B(n, k), the coefficient of x^(2k-n) in (1/sin x)^n, by the paper's triple sum

        B(n, k) = (-1)^k C(n+2k, n) sum_{m=0}^{2k} [n/(n+m)] C(2k, m)
                  / (2^m (2k+m)!) * sum_{r=0}^{m} (-1)^r C(m, r) (2r-m)^(2k+m).
    """
    comb = math.comb
    total = Fraction(0)
    for m in range(2 * k + 1):
        inner = sum((-1) ** r * comb(m, r) * (2 * r - m) ** (2 * k + m) for r in range(m + 1))
        total += Fraction(n, n + m) * comb(2 * k, m) \
            * Fraction(inner, 2 ** m * math.factorial(2 * k + m))
    return (-1) ** k * comb(n + 2 * k, n) * total


def record_rows(monkeypatch) -> list:
    """Wrap discsum._csc_row: the returned list gets the (n, length) of each call."""
    calls = []
    real = discsum._csc_row

    def row(n, length):
        calls.append((n, length))
        return real(n, length)

    monkeypatch.setattr(discsum, "_csc_row", row)
    return calls


def central_trinomial(n: int) -> int:
    """Coefficient of x^0 in (1/x + 1 + x)^n."""
    return sum(math.comb(n, k) * math.comb(n - k, k) for k in range(n // 2 + 1))


def assert_identical_components_work():
    """100 identical uniforms and 30 identical integer uniforms, beyond any cap
    on n, merge into n + 1 measure entries and evaluate exactly."""
    hundred = ContinuousSum.from_pairs([(0, 1)] * 100)
    assert hundred.cdf(0).value == Fraction(1, 2) and hundred.cdf(100).value == 1
    thirty = DiscreteSum.from_half_ranges([1] * 30)
    assert sum(thirty.pmf_full().values()) == 1
    assert thirty.pmf_tau(0) == Fraction(central_trinomial(30), 3 ** 30)


def monomial(e: int) -> tuple:
    """y^e over the divisor 1, as VertexMeasure.sum takes a polynomial."""
    return ((e, 1),), 1


def forced(model, path):
    """A copy of model, with no caches, whose vertex sums all take path."""
    copy = type(model)(model.components)
    copy._measure._path, copy._measure._due = path, math.inf
    return copy


def tau_sum(measure, start, poly) -> Fraction:
    """measure.sum at a rational start, as an integer over the least scale den divides."""
    start = Fraction(start)
    scale = math.lcm(measure.den, start.denominator)
    return measure.sum(start.numerator * (scale // start.denominator), scale, poly)


# brute-force vertex enumeration ---------------------------------------------
#
# The reference for every closed form: one term per sign vector of
# itertools.product, with no merging, ordering or shared state.

def step_power(y, exponent: int, form: str):
    """y^e * tau(y) ("tau", tau(0) = 1/2), y^e * sign(y) ("sign") or y^e ("raw")."""
    if form == "raw":
        return Fraction(y) ** exponent
    if y == 0:
        return Fraction(1, 2) if form == "tau" and exponent == 0 else Fraction(0)
    if y > 0:
        return Fraction(y) ** exponent
    return Fraction(0) if form == "tau" else -Fraction(y) ** exponent


def brute_vertex_sum(shift, half_widths, exponent: int, form: str):
    """sum over eps in {-1,1}^n of phi(shift + sum_j eps_j a_j) * prod_j eps_j."""
    total = Fraction(0)
    for eps in itertools.product((-1, 1), repeat=len(half_widths)):
        arg = shift + sum(e * a for e, a in zip(eps, half_widths))
        total += math.prod(eps) * step_power(arg, exponent, form)
    return total


def brute_continuous(pairs, x, what: str) -> Fraction:
    """density_tau, density_sign, cdf or cool_identity_residual of the sum, by brute force."""
    cs = [Fraction(c) for c, _ in pairs]
    avec = [Fraction(a) for _, a in pairs]
    n = len(pairs)
    exponent, form, pow2 = {"density_tau": (n - 1, "tau", n),
                            "density_sign": (n - 1, "sign", n + 1),
                            "cdf": (n, "tau", n),
                            "cool_identity_residual": (n - 1, "raw", None)}[what]
    raw = brute_vertex_sum(Fraction(x) - sum(cs), avec, exponent, form)
    if pow2 is None:
        return raw
    return raw / (math.factorial(exponent) * 2 ** pow2 * math.prod(avec))


def brute_olds(avec, x) -> Fraction:
    """Inclusion-exclusion over the subsets of {1..n}, for uniforms on [0, a_j]."""
    avec = [Fraction(a) for a in avec]
    n = len(avec)
    total = Fraction(0)
    for flags in itertools.product((0, 1), repeat=n):
        arg = Fraction(x) - sum(a for f, a in zip(flags, avec) if f)
        total += (-1) ** sum(flags) * step_power(arg, n - 1, "tau")
    return total / (math.factorial(n - 1) * math.prod(avec))


def brute_pmf(ms, p: int, form: str) -> Fraction:
    """The discrete closed form with the vertex sums enumerated and the
    Laurent coefficients taken from the power-series oracle."""
    n = len(ms)
    counts = [2 * m + 1 for m in ms]
    coeffs = csc_series_oracle(n, (n - 1) // 2)
    total = Fraction(0)
    for k in range((n - 1) // 2 + 1):
        e = n - 2 * k - 1
        total += (-1) ** k * coeffs[k] * brute_vertex_sum(2 * p, counts, e, form) \
            / math.factorial(e)
    return total / (math.prod(counts) * 2 ** (n - 1 if form == "tau" else n))


# hypothesis strategies ------------------------------------------------------

centers = st.fractions(min_value=-5, max_value=5, max_denominator=8)
widths = st.fractions(min_value=Fraction(1, 8), max_value=5, max_denominator=8)
points = st.fractions(min_value=-40, max_value=40, max_denominator=16)


def component_lists(max_n: int = 6):
    return st.lists(st.tuples(centers, widths), min_size=1, max_size=max_n)


def half_range_lists(max_n: int = 6, m_max: int = 4):
    return st.lists(st.integers(min_value=0, max_value=m_max),
                    min_size=1, max_size=max_n)


# generic doubles: no two sums of distinct subsets coincide, nothing merges
generic_widths = st.floats(min_value=0.1, max_value=5.0).map(Fraction)
generic_centers = st.floats(min_value=-5.0, max_value=5.0).map(Fraction)


def mixed_component_lists(max_n: int = 6):
    """Components whose widths mix 1/8-grid values, which merge, with generic doubles."""
    return st.lists(st.tuples(st.one_of(centers, generic_centers),
                              st.one_of(widths, generic_widths)),
                    min_size=1, max_size=max_n)
