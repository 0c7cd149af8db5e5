"""Unit and property tests for the continuous vertex-sum formulas."""

import contextlib
import copy
import itertools
import math
import pickle
import random
import sys
import threading
import warnings
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from unisum import contsum
from unisum import (
    EXACT,
    FLOAT,
    ContinuousComponent,
    ContinuousSum,
    DiscreteSum,
    EvalMode,
    EvalResult,
    ModeError,
    density_feller,
    density_olds,
)
from unisum.oracles import check_points, continuous_conv_oracle

HALF = F(1, 2)
PATHS = helpers.PATHS
UNIT_BOX = ContinuousSum.from_pairs([(0, 1)])
TWO_MIXED = ContinuousSum.from_pairs([(0, 1), (0, 2)])
TRIANGLE = ContinuousSum.from_pairs([(HALF, HALF), (HALF, HALF)])  # two U[0,1]

# n = 1..7 components with identical, 1/8-grid, generic double or mixed widths
_piece_models = st.one_of(
    st.builds(lambda pair, n: [pair] * n,
              st.tuples(helpers.centers, st.one_of(helpers.widths, helpers.generic_widths)),
              st.integers(min_value=1, max_value=7)),
    helpers.component_lists(max_n=7),
    st.lists(st.tuples(helpers.generic_centers, helpers.generic_widths), min_size=1, max_size=7),
    helpers.mixed_component_lists(max_n=7)).map(ContinuousSum.from_pairs)


def _counting_sums(monkeypatch) -> list:
    """Patch VertexMeasure.sum to record each call; return the list of calls."""
    real, calls = contsum.VertexMeasure.sum, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(contsum.VertexMeasure, "sum", counted)
    return calls


class TestSupport:
    def test_single(self):
        assert UNIT_BOX.support() == (-1, 1)

    def test_symmetric(self):
        assert TWO_MIXED.support() == (-3, 3)

    def test_componentwise(self):
        s = ContinuousSum.from_pairs([(5, 1), (-2, HALF)])
        assert s.support() == (F(3, 2), F(9, 2))


class TestDensity:
    def test_single_interior(self):
        assert UNIT_BOX.density_tau(0).value == HALF

    def test_single_jump_midpoint(self):
        # at the edges the density takes the midpoint value 1/(4a)
        for c, a in [(F(0), F(1)), (F(3), F(1, 4)), (F(-2, 3), F(5))]:
            s = ContinuousSum.from_pairs([(c, a)])
            assert s.density_tau(c + a).value == 1 / (4 * a)
            assert s.density_tau(c - a).value == 1 / (4 * a)

    def test_two_components_at_zero(self):
        # min(a1, a2) / (2 a1 a2) for centered pairs
        assert TWO_MIXED.density_tau(0).value == F(1, 4)
        rng = random.Random(3)
        for _ in range(25):
            a1 = helpers.rational(rng, F(1, 8), 10)
            a2 = helpers.rational(rng, F(1, 8), 10)
            s = ContinuousSum.from_pairs([(0, a1), (0, a2)])
            assert s.density_tau(0).value == min(a1, a2) / (2 * a1 * a2)

    def test_triangular_peak(self):
        # sum of two U[0,1]: peak value 1 at x = 1 (test_oracles checks
        # density_tau against the exact box convolution oracle)
        assert TRIANGLE.density_tau(1).value == 1
        assert TRIANGLE.density_tau(HALF).value == HALF

    def test_zero_outside_closed_support(self):
        assert TWO_MIXED.density_tau(F(31, 10)).value == 0
        assert TWO_MIXED.density_tau(-4).value == 0
        r = TWO_MIXED.density_tau(3.5, FLOAT)
        assert r.value == 0.0 and r.condition_estimate == 1.0

    def test_continuity_across_breakpoints_n2(self):
        # for n >= 2 the density is continuous; probe a kink from both sides
        eps = F(1, 10 ** 9)
        peak = TRIANGLE.density_tau(1).value
        assert abs(TRIANGLE.density_tau(1 - eps).value - peak) < F(1, 10 ** 8)
        assert abs(TRIANGLE.density_tau(1 + eps).value - peak) < F(1, 10 ** 8)


class TestDensitySign:
    def test_examples(self):
        assert UNIT_BOX.density_sign(0).value == HALF
        assert TWO_MIXED.density_sign(0).value == F(1, 4)
        cube = ContinuousSum.from_pairs([(0, 1)] * 3)
        # matches the n-term identical-component form at the center
        assert cube.density_sign(0).value == F(3, 8)
        assert density_feller(3, 1, 0) == F(3, 8)

    @given(helpers.component_lists(max_n=6), helpers.points)
    @settings(max_examples=60, deadline=None)
    def test_equals_tau_exactly(self, pairs, x):
        s = ContinuousSum.from_pairs(pairs)
        assert s.density_sign(x).value == s.density_tau(x).value


class TestCdf:
    def test_support_ends(self):
        for s in (UNIT_BOX, TWO_MIXED, TRIANGLE):
            lo, hi = s.support()
            assert s.cdf(lo).value == 0
            assert s.cdf(hi).value == 1
            assert s.cdf(lo - 1).value == 0
            assert s.cdf(hi + F(1, 7)).value == 1

    def test_symmetric_median(self):
        two = ContinuousSum.from_pairs([(0, 1), (0, 1)])
        assert two.cdf(0).value == HALF

    @given(helpers.component_lists(max_n=5), helpers.points, helpers.points)
    @settings(max_examples=50, deadline=None)
    def test_nondecreasing(self, pairs, x1, x2):
        s = ContinuousSum.from_pairs(pairs)
        if x1 > x2:
            x1, x2 = x2, x1
        assert s.cdf(x1).value <= s.cdf(x2).value

    def test_float_mode_close(self):
        r = TWO_MIXED.cdf(0.5, FLOAT)
        assert r.value == pytest.approx(float(TWO_MIXED.cdf(HALF).value), rel=1e-14)


class TestQuantile:
    def test_symmetric_median_is_zero(self):
        s = ContinuousSum.from_pairs([(0, 1), (0, 2), (0, HALF)])
        lo, hi = s.support()
        qtol = float(hi - lo) * 2.0 ** -40
        assert abs(s.quantile(HALF)) <= qtol

    def test_linear_cdf(self):
        qtol = 2.0 * 2.0 ** -40
        assert UNIT_BOX.quantile(F(3, 4)) == pytest.approx(0.5, abs=qtol)

    def test_triangular_median(self):
        qtol = 2.0 * 2.0 ** -40
        assert TRIANGLE.quantile(HALF) == pytest.approx(1.0, abs=qtol)

    def test_endpoints_exact(self):
        assert TWO_MIXED.quantile(0) == -3.0
        assert TWO_MIXED.quantile(1) == 3.0

    def test_upper_tail_brackets_exact_level(self):
        s = ContinuousSum.from_pairs([(0, 1)] * 12)
        q = 1 - F(1, 10 ** 12)
        x = F(s.quantile(q))
        lo, hi = s.support()
        w = (hi - lo) * F(1, 2 ** 40)
        assert s.cdf(x - w).value <= q <= s.cdf(x + w).value

    @pytest.mark.parametrize("pairs", [[(0, 8e307)] * 2, [(1.35e308, 3.5e307)]])
    @pytest.mark.parametrize("q", [F(1, 10), HALF, F(9, 10)])
    def test_support_at_float_range_edge(self, pairs, q):
        # neither the width 3.2e308 nor the sum of the ends 2.7e308 is a double
        s = ContinuousSum.from_pairs(pairs)
        x = F(s.quantile(q))
        lo, hi = s.support()
        w = (hi - lo) * F(1, 2 ** 40)
        assert s.cdf(x - w).value <= q <= s.cdf(x + w).value

    def test_bracket_of_adjacent_doubles(self):
        # 2**-40 of this support is far below one ulp of 1: the bisection
        # stops at two adjacent doubles
        s = ContinuousSum.from_pairs([(1, 1e-10)])
        for q in (F(3, 10), F(9, 10)):
            x = s.quantile(q)
            assert s.cdf(F(math.nextafter(x, -math.inf))).value <= q <= \
                s.cdf(F(math.nextafter(x, math.inf))).value

    def test_support_beyond_float_range(self):
        s = ContinuousSum.from_pairs([(0, F(10) ** 400)])
        for q in (0, HALF, 1):
            with pytest.raises(ValueError, match="support rounds to"):
                s.quantile(q)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            TWO_MIXED.quantile(F(-1, 10))
        with pytest.raises(ValueError):
            TWO_MIXED.quantile(F(11, 10))

    @staticmethod
    def _assert_rows_keep_quantiles(s, qs):
        # after a batch call quantile reads the kept rows, a fresh copy the
        # vertex sums: both compare exact values, so they return the same doubles
        fresh = ContinuousSum(s.components)
        with contextlib.suppress(OverflowError):  # the rounded table may overflow;
            s.cdf_batch([0.0])                    # the exact rows never do
        assert "_rows" in s.__dict__
        assert [s.quantile(q) for q in qs] == [fresh.quantile(q) for q in qs]
        assert "_rows" not in fresh.__dict__

    @given(_piece_models, st.floats(min_value=0, max_value=1))
    @settings(max_examples=60, deadline=None)
    def test_rows_give_the_same_doubles(self, s, q):
        self._assert_rows_keep_quantiles(s, [q, HALF, F(1, 10 ** 15), 1 - F(1, 10 ** 15)])

    @pytest.mark.parametrize("pairs", [[(1e6, 1e-12)] * 3, [(0, 1e-300), (1, 1e300)]],
                             ids=["narrower-than-an-ulp", "widths-across-the-float-range"])
    def test_rows_give_the_same_doubles_at_extreme_scales(self, pairs):
        self._assert_rows_keep_quantiles(ContinuousSum.from_pairs(pairs),
                                         [F(1, 10), HALF, F(1, 10 ** 15), 1 - F(1, 10 ** 15)])

    def test_rows_replace_the_vertex_sums(self, monkeypatch):
        calls = _counting_sums(monkeypatch)
        for s in (_eighths(9, 9), _generic_shifted(9, 9)):
            s.density_batch([0.0])
            s.quantile(F(1, 10)), s.quantile(F(9, 10))
        assert calls == []
        _generic_shifted(9, 9).quantile(F(1, 10))  # a fresh model sums the vertices
        assert calls

    def test_fresh_model_builds_no_rows(self):
        s = _generic_shifted(9, 9)
        s.quantile(F(1, 10))
        assert "_rows" not in s.__dict__ and "_pieces" not in s.__dict__

    @pytest.mark.parametrize("n", range(1, 8))
    def test_row_sum_equals_cdf(self, n):
        # both branches: rows up to the center read directly, the others at the mirror
        for s in (ContinuousSum.from_pairs([(1, 3)] * n), _eighths(n, n), _generic_shifted(n, n)):
            lo, hi = s.support()
            center = (lo + hi) / 2  # a knot, its own mirror, when the count of keys is odd
            near = [F(math.nextafter(float(center), toward)) for toward in (-math.inf, math.inf)]
            mirrored = set()
            for x in s.breakpoints() + [center, *near, lo, hi, lo - 1, hi + 1]:
                s_, w, scale = s._start(*x.as_integer_ratio())
                v, flag = s._row_sum(s_, w, scale)
                value = F(v, scale ** n) / s._norms[n]
                assert (1 - value if flag else value) == s.cdf(x).value, x
                mirrored.add(flag)
            assert mirrored == {False, True}


# models whose exact constants come from the integer frame: generic doubles,
# decimal strings, denominators 3 and 7, negative centers, identical legs and
# centers that cancel, which leave hi and the legs a denominator far below D
_sevenths = st.builds(F, st.integers(-40, 40), st.sampled_from([1, 3, 7, 21]))
_frame_pairs = st.one_of(
    st.tuples(helpers.generic_centers, helpers.generic_widths),
    st.tuples(st.decimals(-5, 5, places=3).map(str),
              st.decimals("0.001", 5, places=3).map(str)),
    st.tuples(_sevenths, _sevenths.filter(lambda a: a > 0)),
    st.tuples(_sevenths.map(lambda c: -abs(c) - 1), st.one_of(helpers.widths, helpers.generic_widths)),
    st.tuples(st.sampled_from([1e-300, -1e-300, F(1, 3), F(-1, 3)]), helpers.widths))
_frame_models = st.one_of(
    st.lists(_frame_pairs, min_size=1, max_size=8),
    st.builds(lambda pair, n: [pair] * n, _frame_pairs, st.integers(1, 8)))


class TestFrame:
    @given(_frame_models)
    @settings(max_examples=150, deadline=None)
    def test_constants_equal_their_definitions(self, pairs):
        s = ContinuousSum.from_pairs(pairs)
        comps, n = s.components, s.n
        lo, hi = sum(c.lo for c in comps), sum(c.hi for c in comps)
        legs = [2 * c.half_width for c in comps]
        den = math.lcm(*(leg.denominator for leg in legs))
        h = math.lcm(den, hi.denominator)
        assert (s._lo, s._hi) == (lo, hi) == s.support()
        assert s._measure.den == den
        assert s._measure.steps == Counter(leg.numerator * (den // leg.denominator) for leg in legs)
        assert s._frame == (h, hi * h, (hi - lo) * h, [leg * h for leg in legs])
        assert all(type(v) is int for v in (*s._frame[:3], *s._frame[3]))
        widths = math.prod(c.half_width for c in comps)
        for e in (n - 1, n):
            assert s._norms[e] == math.factorial(e) * 2 ** n * widths

    @given(helpers.half_range_lists(max_n=8, m_max=400))
    @settings(max_examples=40, deadline=None)
    def test_discrete_measure(self, ms):
        d = DiscreteSum.from_half_ranges(ms)
        # a lattice measure: legs 2 m + 1 over den 1, top exponent n - 1
        assert d._measure.den == 1 and d._measure.lattice
        assert d._measure.steps == Counter(2 * m + 1 for m in ms)
        assert d._measure.top == d.n - 1


def _brute_measure(steps):
    """prod over steps s of (z^s - 1), one term per flag vector: (keys, weights) of the
    nonzero coefficients, keys ascending."""
    weight = Counter()
    for flags in itertools.product((0, 1), repeat=len(steps)):
        weight[sum(f * s for f, s in zip(flags, steps))] += (-1) ** (len(steps) - sum(flags))
    keys = sorted(k for k, w in weight.items() if w)
    return tuple(keys), tuple(weight[k] for k in keys)


class TestMergedMeasure:
    @pytest.mark.parametrize("steps", [
        [], [5], [1, 2, 3], [1, 2, 3, 3], [2, 2, 2, 2, 2], [1, 1, 2, 3, 4, 4, 4], [7, 3, 7, 3, 10]])
    def test_examples(self, steps):
        # single legs, repeated legs, and the legs 1, 2, 3 whose keys 3 cancel
        keys, weights = contsum._vertex_measure(Counter(steps))
        assert (keys, weights) == _brute_measure(steps)
        assert len(keys) <= contsum._bound(Counter(steps))

    def test_cancelling_legs(self):
        assert contsum._vertex_measure(Counter([1, 2, 3])) == \
            ((0, 1, 2, 4, 5, 6), (-1, 1, 1, -1, -1, 1))

    @given(st.lists(st.integers(1, 12), max_size=11))
    @settings(max_examples=150, deadline=None)
    def test_equals_brute_force(self, steps):
        assert contsum._vertex_measure(Counter(steps)) == _brute_measure(steps)

    @given(st.lists(st.integers(1, 12), min_size=1, max_size=16), st.integers(0, 16))
    @settings(max_examples=150, deadline=None)
    def test_split_plan(self, steps, top):
        # the split's groups and bounds, kept from running products and sums, are
        # those of the greedy that takes _bound of each group as it grows
        groups = [Counter(), Counter()]
        for step, mult in sorted(Counter(steps).items(), key=lambda sm: (-sm[1], sm[0])):
            groups[contsum._bound(groups[1]) < contsum._bound(groups[0])][step] = mult
        a, b = sorted(groups, key=contsum._bound)
        size_a, size_b = contsum._bound(a), contsum._bound(b)
        plan = contsum.VertexMeasure(steps, 1, top)._plans[contsum._SPLIT]
        assert plan == (a, b, size_a, size_a + size_b * (top + 2))


class TestMoments:
    def test_single(self):
        assert UNIT_BOX.moments() == (0, F(1, 3))

    def test_additive(self):
        s = ContinuousSum.from_pairs([(1, 1), (2, 2)])
        assert s.moments() == (3, F(5, 3))

    def test_twelve_standard_uniforms(self):
        s = ContinuousSum.from_pairs([(HALF, HALF)] * 12)
        assert s.moments() == (6, 1)


class TestSpecialCases:
    def test_feller_values(self):
        assert density_feller(1, 1, 0) == HALF
        assert density_feller(2, 1, 0) == HALF  # triangular peak on [-2, 2]
        assert density_feller(2, 1, 2) == 0
        assert density_feller(1, 1, 1) == F(1, 4)

    def test_feller_matches_general_form(self):
        s12 = ContinuousSum.from_pairs([(0, HALF)] * 12)
        assert density_feller(12, HALF, 0) == s12.density_tau(0).value
        rng = random.Random(11)
        for n in (1, 2, 3, 5, 8):
            a = helpers.rational(rng, F(1, 4), 4)
            s = ContinuousSum.from_pairs([(0, a)] * n)
            for _ in range(10):
                x = helpers.rational(rng, -(n + 1) * a, (n + 1) * a, 16)
                assert density_feller(n, a, x) == s.density_tau(x).value

    def test_olds_values(self):
        assert density_olds([1], HALF) == 1
        assert density_olds([F(1)], F(0)) == HALF  # midpoint convention at 0
        assert density_olds([1, 1], 1) == 1

    def test_olds_matches_general_form(self):
        got = density_olds([1, 2, 3], 3)
        want = ContinuousSum.from_pairs(
            [(HALF, HALF), (1, 1), (F(3, 2), F(3, 2))]).density_tau(3).value
        assert got == want
        rng = random.Random(12)
        for n in (1, 2, 4, 6):
            avec = [helpers.rational(rng, F(1, 4), 4) for _ in range(n)]
            s = ContinuousSum.from_pairs([(a / 2, a / 2) for a in avec])
            for _ in range(10):
                x = helpers.rational(rng, -1, sum(avec) + 1, 16)
                assert density_olds(avec, x) == s.density_tau(x).value

    def test_float_variants(self):
        assert density_feller(3, 1.0, 0.0, FLOAT) == pytest.approx(0.375, rel=1e-15)
        assert density_olds([1.0, 1.0], 1.0, FLOAT) == pytest.approx(1.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            density_feller(0, 1, 0)
        with pytest.raises(ValueError):
            density_feller(2, 0, 0)
        with pytest.raises(ValueError):
            density_olds([], 0)
        with pytest.raises(ValueError):
            density_olds([1, -1], 0)

    @pytest.mark.parametrize("n", [True, False, 2.0, F(2), "2", -1])
    def test_feller_rejects_illegal_counts(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            density_feller(n, 1, 0)

    def test_feller_capacity(self):
        # the n-component model's capacity rule, checked before the sum: 1,024
        # identical components are refused inside the support, as their vertex
        # sum is, and outside it, where that sum is never asked, the value is 0
        helpers.assert_refused_unbuilt(lambda: density_feller(1024, 1, 0), 1025 * 1025)
        helpers.assert_refused_unbuilt(lambda: density_feller(1024, 1, -1024), 1025 * 1025)
        assert density_feller(1024, 1, 1025) == 0
        assert density_feller(1023, 1, 0) == ContinuousSum.from_pairs(
            [(0, 1)] * 1023).density_tau(0).value > 0

    def test_measure_budget(self):
        helpers.assert_refused_unbuilt(lambda: density_olds(helpers.POW2_30, 0), 33 * 2 ** 15)
        helpers.assert_identical_components_work()
        # the centre of 100 x U[0, 2] is the centre of 100 x U[-1, 1]
        hundred = ContinuousSum.from_pairs([(0, 1)] * 100)
        assert density_olds([2] * 100, 100) == density_feller(100, 1, 0) \
            == hundred.density_tau(0).value > 0


class TestVanishingIdentity:
    def test_examples(self):
        assert TWO_MIXED.cool_identity_residual(0) == 0
        assert TWO_MIXED.cool_identity_residual(10 ** 6) == 0
        # n = 1 reduces to (+1) + (-1) with exponent 0
        assert UNIT_BOX.cool_identity_residual(F(1, 3)) == 0
        assert UNIT_BOX.cool_identity_residual(1) == 0  # argument hits zero

    @given(helpers.component_lists(max_n=6), helpers.points)
    @settings(max_examples=60, deadline=None)
    def test_property(self, pairs, x):
        s = ContinuousSum.from_pairs(pairs)
        assert s.cool_identity_residual(x) == 0


class TestSymmetryAndShift:
    @given(st.lists(helpers.widths, min_size=1, max_size=5), helpers.points)
    @settings(max_examples=40, deadline=None)
    def test_symmetry(self, widths, x):
        s = ContinuousSum.from_pairs([(0, a) for a in widths])
        assert s.density_tau(x).value == s.density_tau(-x).value

    @given(helpers.component_lists(max_n=4),
           st.lists(helpers.centers, min_size=4, max_size=4), helpers.points)
    @settings(max_examples=40, deadline=None)
    def test_shift_covariance(self, pairs, deltas, x):
        deltas = deltas[:len(pairs)] + [F(0)] * max(0, len(pairs) - 4)
        shifted = ContinuousSum.from_pairs(
            [(c + d, a) for (c, a), d in zip(pairs, deltas)])
        s = ContinuousSum.from_pairs(pairs)
        assert shifted.density_tau(x + sum(deltas)).value == s.density_tau(x).value

    @given(helpers.component_lists(max_n=5), helpers.points)
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, pairs, x):
        s = ContinuousSum.from_pairs(pairs)
        assert s.density_tau(x).value >= 0


class TestModesAndValidation:
    def test_component_validation(self):
        with pytest.raises(ValueError):
            ContinuousComponent(0, 0)
        with pytest.raises(ValueError):
            ContinuousComponent(0, -1)
        with pytest.raises(ValueError):
            ContinuousSum(())

    def test_capacity(self):
        pow2 = ContinuousSum.from_pairs([(0, a) for a in helpers.POW2_30])
        for call in (lambda: pow2.density_tau(0), lambda: pow2.cdf(0)):
            helpers.assert_refused_unbuilt(call, 33 * 2 ** 15)
        assert pow2.support() == (-(2 ** 30 - 1), 2 ** 30 - 1)
        # 21 legs: the whole measure is refused, the split halves are not
        pow2 = ContinuousSum.from_pairs([(0, a) for a in helpers.POW2_21])
        helpers.assert_refused_unbuilt(pow2.breakpoints, 2 ** 21)
        assert pow2.cdf(0).value == HALF
        helpers.assert_identical_components_work()
        hundred = ContinuousSum.from_pairs([(0, 1)] * 100)
        assert hundred.moments() == (0, F(100, 3))
        assert len(hundred._measure.full[0]) == 101
        # n identical components: the direct loop raises n + 1 entries to the
        # power n at one cdf point, (n + 1)**2 terms, so 1,023 fit and 1,024
        # are refused
        assert ContinuousSum.from_pairs([(0, 1)] * 1023).cdf(0).value == HALF
        identical = ContinuousSum.from_pairs([(0, 1)] * 1024)
        for call in (lambda: identical.density_tau(0), lambda: identical.cdf(0)):
            helpers.assert_refused_unbuilt(call, 1025 ** 2)

    def test_exact_mode_rejects_non_finite(self):
        with pytest.raises(ModeError):
            UNIT_BOX.density_tau(float("nan"))
        with pytest.raises(ModeError):
            UNIT_BOX.cdf(float("inf"))
        with pytest.raises(ValueError):
            UNIT_BOX.density_tau(float("nan"), FLOAT)
        for fn in (UNIT_BOX.density_tau, UNIT_BOX.cdf):
            with pytest.raises(ValueError, match="finite double"):
                fn(F(10) ** 400, FLOAT)  # beyond the float range, not an OverflowError

    def test_component_rejects_non_finite(self):
        with pytest.raises(ModeError):
            ContinuousComponent(float("inf"), 1)

    def test_eval_mode_validation(self):
        with pytest.raises(ValueError):
            EvalMode("sloppy")

    def test_condition_reporting(self):
        r = TWO_MIXED.density_tau(0.25, FLOAT)
        assert r.condition_estimate is not None and r.condition_estimate >= 1.0
        quiet = EvalMode("float", report_condition=False)
        assert TWO_MIXED.density_tau(0.25, quiet).condition_estimate is None
        assert TWO_MIXED.density_tau(0.25).condition_estimate is None  # exact

    def test_float_matches_exact_when_well_conditioned(self):
        rng = random.Random(5)
        for _ in range(20):
            s = helpers.random_continuous(rng, rng.randint(1, 6))
            x = float(helpers.random_x(rng, s, slack=F(0)))
            r = s.density_tau(x, FLOAT)
            exact = s.density_tau(x).value
            if exact and r.condition_estimate <= 1e6:
                assert abs(F(r.value) - exact) / exact <= F(1, 10 ** 9)

    def test_float_is_correctly_rounded_near_support_edge(self):
        # almost all 4096 vertex terms cancel here; float mode is the exact
        # value rounded once, so the cancellation costs nothing
        s = ContinuousSum.from_pairs([(0, 1)] * 12)
        x = 12.0 - 1e-6
        r = s.density_tau(x, FLOAT)
        assert r.value == float(s.density_tau(x).value)
        assert r.condition_estimate == 1.0

    def test_result_float_conversion(self):
        assert float(TWO_MIXED.density_tau(0)) == 0.25


class TestFloatScale:
    """Float mode is the exact value rounded once, at any scale."""

    def test_feller_large_n(self):
        assert density_feller(200, 1, 0, FLOAT) == float(density_feller(200, 1, 0))

    def test_tiny_widths(self):
        s = ContinuousSum.from_pairs([(0, 1e-20)] * 20)
        for fn in (s.density_tau, s.cdf):
            r = fn(0, FLOAT)
            assert r.value == float(fn(0).value)
            assert r.condition_estimate == 1.0

    def test_huge_widths(self):
        s = ContinuousSum.from_pairs([(0, 1e16)] * 24)
        r = s.cdf(1.0, FLOAT)
        assert r.value == float(s.cdf(1).value)
        assert r.condition_estimate == 1.0

    def test_out_of_range_values_are_flagged(self):
        narrow = ContinuousSum.from_pairs([(0, F(1, 2 ** 1100))] * 2)
        r = narrow.density_tau(0, FLOAT)  # 2^1099 is beyond the float range
        assert r.value == float("inf") and r.condition_estimate == float("inf")
        wide = ContinuousSum.from_pairs([(0, 2 ** 1049)] * 2)
        r = wide.density_tau(0, FLOAT)  # 2^-1050 is subnormal
        assert r.value == float(wide.density_tau(0).value) > 0
        assert r.condition_estimate == float("inf")
        wider = ContinuousSum.from_pairs([(0, 2 ** 1100)] * 2)
        r = wider.density_tau(0, FLOAT)  # 2^-1101 rounds to 0
        assert r.value == 0.0 and r.condition_estimate == float("inf")

    @pytest.mark.parametrize("n, a, xs", [(20, 1e-20, [0.0, 1e-20, -3e-20]),
                                          (24, 1e16, [1.0, 1e16, -2e16])])
    def test_batch_paths_at_extreme_widths(self, n, a, xs):
        s = ContinuousSum.from_pairs([(0, a)] * n)
        for batch, scalar in ((s.density_batch, s.density_tau), (s.cdf_batch, s.cdf)):
            got = batch(xs)
            assert np.all(np.isfinite(got))
            want = [scalar(x, FLOAT).value for x in xs]
            assert got == pytest.approx(want, rel=1e-9)

    def test_batch_paths_at_the_bottom_of_the_float_range(self):
        # unit 2^-1021: the density's coefficients are near 2^1021, and its
        # derivation multiplies by r before the power of two 1 / unit
        s = ContinuousSum.from_pairs([(0, F(1, 2 ** 1021))] * 10)
        lo, hi = map(float, s.support())
        _assert_within_bound(s, np.array([lo / 2, 0.0, hi / 3]))

    @pytest.mark.parametrize("pairs", [[(0, F(1, 2 ** 1060))] * 3, [(0, 1e-310), (0, 1e-100)]],
                             ids=["subnormal-unit", "density-beyond-the-float-range"])
    def test_batch_paths_refuse_an_unrepresentable_table(self, pairs):
        # an OverflowError, not a RuntimeWarning first, nor an inf or NaN returned
        s = ContinuousSum.from_pairs(pairs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for batch in (s.density_batch, s.cdf_batch):
                with pytest.raises(OverflowError):
                    batch([0.0])


class TestBruteForceReference:
    """Every closed form equals plain itertools.product vertex enumeration."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_all_closed_forms(self, data):
        pairs = data.draw(helpers.mixed_component_lists(max_n=6), label="pairs")
        s = ContinuousSum.from_pairs(pairs)
        lo, hi = s.support()
        on_kink = data.draw(st.sampled_from(s.breakpoints()), label="breakpoint")
        off_kink = lo - 1 + (hi - lo + 2) * data.draw(
            st.fractions(min_value=0, max_value=1, max_denominator=97), label="t")
        for x in (on_kink, off_kink):
            for what in ("density_tau", "density_sign", "cdf"):
                assert getattr(s, what)(x).value == \
                    helpers.brute_continuous(pairs, x, what), (what, x)
            assert s.cool_identity_residual(x) == \
                helpers.brute_continuous(pairs, x, "cool_identity_residual") == 0

        # every split of the measure, forced on the same model: the tau sums in
        # arguments x - hi + key / den, which is x - sum c_j + sum eps_j a_j,
        # and the raw and sign sums by the mirror identity
        n = len(pairs)
        centre = sum(F(c) for c, _ in pairs)
        avec = [F(a) for _, a in pairs]
        for x in (on_kink, off_kink):
            for e in (0, n - 1, n):
                assert_mirror_identities(s, x - hi, e, x - centre, avec)
        # every exponent 0 ... top on every path, over a drawn divisor: at e = 0
        # the zero arguments of on_kink take half their weight
        divisor = data.draw(st.fractions(min_value=F(1, 8), max_value=8, max_denominator=8),
                            label="divisor")
        for x in (on_kink, off_kink):
            for e in range(n + 1):
                want = helpers.brute_vertex_sum(x - centre, avec, e, "tau") / divisor
                for path in PATHS:
                    measure = helpers.forced(s, path)._measure
                    assert helpers.tau_sum(measure, x - hi, (e, divisor)) == want, (path, x, e)

        # the [0, a_j] and identical-component forms, on one of their own
        # kinks (a subset sum of the a_j; (n - 2k) a) and off them
        avec = [a for _, a in pairs]
        n, a = len(avec), avec[0]
        flags = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="subset")
        olds_kink = sum(v for v, f in zip(avec, flags) if f)
        feller_kink = (n - 2 * data.draw(st.integers(0, n), label="k")) * a
        for x in (olds_kink, feller_kink, off_kink):
            assert density_olds(avec, x) == helpers.brute_olds(avec, x)
            assert density_feller(n, a, x) == \
                helpers.brute_continuous([(0, a)] * n, x, "density_tau")

        ms = data.draw(helpers.half_range_lists(max_n=6, m_max=5), label="ms")
        d = DiscreteSum.from_half_ranges(ms)
        p = data.draw(st.integers(min_value=-d.span - 1, max_value=d.span + 1), label="p")
        pmf = helpers.brute_pmf(ms, p, "tau")
        assert d.pmf_tau(p) == pmf
        assert d.pmf_sign(p) == helpers.brute_pmf(ms, p, "sign")
        counts = [2 * m + 1 for m in ms]
        start = p - d.span - 1
        for path in PATHS:  # the PMF's falling factorial, n odd or even
            measure = helpers.forced(d, path)._measure
            assert measure.sum(start, 1, d.n - 1, d._divisor) == pmf, (path, p)
        # the lattice basis at every exponent 0 ... n, each its own measure's top
        for e in range(len(ms) + 1):
            want = helpers.brute_lattice_sum(start, counts, e)
            for path in PATHS:
                measure = contsum.VertexMeasure(counts, 1, e, lattice=True)
                measure._path, measure._due = path, math.inf
                assert measure.sum(start, 1, e, 1) == want, (path, e, p)
        # the raw sum at e = n is not zero, so the measure needs one more exponent:
        # the continuous model of half-widths 2 m_j + 1 has the legs and top n
        model = ContinuousSum.from_pairs([(0, c) for c in counts])
        for e in (0, len(ms) - 1, len(ms)):
            assert_mirror_identities(model, 2 * p - sum(counts), e, 2 * p, counts)


def assert_mirror_identities(model, start, e, shift, half_widths):
    """On every path forced on model: the tau sum T(start), and T(start) +/-
    (-1)^(e+n) T(-start - K), K the sum of the legs, equal the brute-force
    tau, raw and sign sums of helpers.brute_vertex_sum(shift, half_widths)."""
    mirror = -start - F(sum(model._measure.steps.elements()), model._measure.den)
    sign = (-1) ** (e + model.n)
    want = {form: helpers.brute_vertex_sum(shift, half_widths, e, form)
            for form in ("tau", "raw", "sign")}
    for path in PATHS:
        measure = helpers.forced(model, path)._measure
        at = helpers.tau_sum(measure, start, helpers.monomial(e))
        across = helpers.tau_sum(measure, mirror, helpers.monomial(e))
        assert at == want["tau"], (path, e, start)
        assert at + sign * across == want["raw"], (path, e, start)
        assert at - sign * across == want["sign"], (path, e, start)


def _grid_model(seed, n):
    """Centers and half-widths on the 1/8 grid, as in the exact-commensurate benchmark."""
    rng = random.Random(seed)
    return ContinuousSum.from_pairs([(F(rng.randint(-8, 8), 8), F(rng.randint(1, 25), 8))
                                     for _ in range(n)])


def _generic_model(seed, n):
    """Centered components whose widths are generic doubles: no subset sums merge."""
    rng = random.Random(seed)
    return ContinuousSum.from_pairs([(0, rng.uniform(0.25, 2)) for _ in range(n)])


class TestVertexPaths:
    """Which split of the vertex measure answers, and generic widths past 2**20 entries."""

    def test_choice(self):
        # the first sum takes the path that answers one point cheapest
        commensurate = _grid_model(14, 14)
        generic = _generic_model(5, 12)
        hundred = ContinuousSum.from_pairs([(0, 1)] * 100)
        panel = DiscreteSum.from_half_ranges([128, 256, 384] * 4)
        assert commensurate._measure._choose() == contsum._DIRECT
        assert generic._measure._choose() == contsum._SPLIT
        assert hundred._measure._choose() == contsum._DIRECT
        assert panel._measure._choose() == contsum._DIRECT

    @pytest.mark.parametrize("model, first, points, last", [
        (_grid_model(14, 14), contsum._DIRECT, 40, contsum._TABLE),
        (_generic_model(5, 12), contsum._SPLIT, 80, contsum._TABLE),
        (ContinuousSum.from_pairs([(0, 1)] * 100), contsum._DIRECT, 40, contsum._DIRECT),
    ])
    def test_switch(self, model, first, points, last):
        # a path with cheaper points takes over as soon as the terms summed
        # so far cover its build, and the path it replaces is freed; the
        # values stay
        measure = ContinuousSum(model.components)._measure
        reference = helpers.forced(model, first)._measure
        build = measure._costs(last)[0]
        lo, hi = model.support()
        taken, spent = [], []
        for i in range(1, points + 1):
            start = lo - hi + (hi - lo) * F(i, points + 1)
            spent.append(measure._spent)
            taken.append(measure._choose())
            poly = helpers.monomial(model.n)
            assert helpers.tau_sum(measure, start, poly) == \
                helpers.tau_sum(reference, start, poly)
        assert taken[0] == first and taken[-1] == last
        assert taken == sorted(taken, key=taken.index)  # no path returns
        assert set(measure._parts) == {last}
        if last != first:
            k = taken.index(last)
            assert spent[k - 1] < build <= spent[k]

    def test_cached_measure_is_free(self):
        # after breakpoints() the whole measure is built, so the direct loop
        # answers the first point of generic widths the split would take
        s = _generic_model(9, 9)
        assert s._measure._choose() == contsum._SPLIT
        s = ContinuousSum(s.components)
        s.breakpoints()
        assert s._measure._choose() == contsum._DIRECT

    def test_cached_measure_leaves_the_table_its_moments(self):
        # once breakpoints() has built the whole measure of K keys, the table
        # has A's one entry and K rows of top + 1 moments still to build
        s = ContinuousSum.from_pairs([(0, F(w, 8)) for w in (1, 2, 3, 5, 7, 11)])
        s.breakpoints()
        keys = len(s._measure.full[0])
        assert (keys, s._measure.top) == (20, 6)
        assert s._measure._costs(contsum._TABLE)[0] == 1 + keys * (6 + 1) == 141

    def test_sizes_are_taken_once(self, monkeypatch):
        # every bound is taken when the plan table is made: a first exact cdf
        # takes the whole measure's, the split keeps its groups' bounds from
        # their running products and sums, and a second cdf takes none
        calls = []
        bound = contsum._bound
        monkeypatch.setattr(contsum, "_bound", lambda steps: calls.append(1) or bound(steps))
        s = _generic_model(5, 12)
        s.cdf(F(1, 3))
        assert len(calls) == 1
        first = len(calls)
        s.cdf(F(1, 2))
        assert len(calls) == first

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_rule_after_every_sum(self, data):
        # the rule of _choose, checked around every sum of drawn points: the
        # path is admitted and the only one built; the first sum takes the
        # cheapest point plus build; a switch goes only to a strictly cheaper
        # point whose remaining build the terms spent covered, so an equal
        # cost never replaces the current path; and once the terms spent reach
        # _due, the path has the cheapest point of those covered
        kind = data.draw(st.sampled_from(["generic", "grid", "identical", "discrete"]),
                         label="kind")
        n = data.draw(st.integers(1, 40 if kind == "identical" else 10), label="n")
        if kind == "discrete":
            ms = st.sampled_from([0, 1, 2, 5, 128, 256, 384])
            model = DiscreteSum.from_half_ranges(
                data.draw(st.lists(ms, min_size=n, max_size=n), label="ms"))
            points = st.integers(-model.span - 1, model.span + 1).map(
                lambda p: (p, "pmf_tau", model.n - 1))
        else:
            width = {"generic": helpers.generic_widths, "grid": helpers.widths,
                     "identical": st.just(F(3, 8))}[kind]
            widths = data.draw(st.lists(width, min_size=n, max_size=n), label="widths")
            model = ContinuousSum.from_pairs([(0, a) for a in widths])
            if data.draw(st.booleans(), label="breakpoints first"):
                model.breakpoints()
            lo, hi = model.support()
            points = st.tuples(st.fractions(-F(1, 8), F(9, 8), max_denominator=64),
                               st.sampled_from([("cdf", n), ("density_tau", n - 1)])).map(
                lambda t: (lo + (hi - lo) * t[0], *t[1]))
        measure = model._measure
        for x, op, e in data.draw(st.lists(points, min_size=1, max_size=120), label="points"):
            admitted = measure._admitted()
            costs = {p: measure._costs(p, e) for p in admitted}
            path, spent, due = measure._path, measure._spent, measure._due
            getattr(model, op)(x)
            if measure._spent == spent:  # off the support, or asked before: no sum
                continue
            new = measure._path
            assert new in admitted and set(measure._parts) == {new}
            if path is None:
                assert new == min(costs, key=lambda p: sum(costs[p]))
                continue
            if new != path:
                assert costs[new][1] < costs[path][1] and costs[new][0] <= spent
            if spent >= due:
                covered = [p for p in costs if costs[p][0] <= spent]
                assert costs[new][1] == min(costs[p][1] for p in covered)

    def test_shared_across_threads(self):
        # more threads than cores, with a short switch interval: a lost
        # update of the count of terms, or a freed path built again by a
        # thread that chose it just before the switch, would show here
        hundred = ContinuousSum.from_pairs([(0, 1)] * 100)  # the direct loop, 101 terms a cdf
        generic = _generic_model(5, 12)  # the split, then the table after about 70 sums
        reference = ContinuousSum(generic.components)
        # no point is asked twice, so no sum is answered from the model's memo
        xs = [[F(i, 7) + F(k, 1000) for i in range(-6, 6)] for k in range(8)]
        want = {k: [reference.cdf(x).value for x in row] for k, row in enumerate(xs)}
        results = {}

        def worker(k):
            results[k] = [generic.cdf(x).value for x in xs[k]]
            for x in xs[k]:
                hundred.cdf(x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == want
        assert hundred._measure._spent == 8 * len(xs[0]) * 101
        assert generic._measure._path == contsum._TABLE
        assert set(generic._measure._parts) == {contsum._TABLE}

    @pytest.mark.parametrize("model", [_grid_model(14, 8), _generic_model(5, 7)])
    def test_rows_at_two_scales(self, model):
        # B's rows serve every exponent at every scale, each sum multiplying in
        # its own C(e, j) m^j: points on the 1/13 and 1/7 grids in turn equal
        # the direct loop, and the parts stay the four the build made
        lo, hi = model.support()
        starts = [(lo - hi) * F(i, den) for i in range(1, 7) for den in (13, 7)]
        polys = [(model.n, F(3, 4)), (model.n - 2, 5), (1, 7), (0, 2)]
        direct = helpers.forced(model, contsum._DIRECT)._measure
        want = [[helpers.tau_sum(direct, x, poly) for poly in polys] for x in starts]
        for path in (contsum._TABLE, contsum._SPLIT):
            measure = helpers.forced(model, path)._measure
            got = [[helpers.tau_sum(measure, x, poly) for poly in polys] for x in starts]
            assert got == want, path
            assert len(measure._parts[path]) == 4  # A's keys and weights, B's keys and rows

    def test_pmf_moves_to_table(self):
        d = DiscreteSum.from_half_ranges([128, 256, 384] * 4)
        values = [d.pmf_tau(p) for p in range(-20, 20)]
        assert d._measure._path == contsum._TABLE
        fresh = DiscreteSum.from_half_ranges([128, 256, 384] * 4)
        assert values == [fresh.pmf_sign(p) for p in range(-20, 20)]

    def test_generic_24(self):
        # no two subset sums of these widths coincide: the whole measure would
        # hold 2**24 entries, each split half holds 2**12
        rng = random.Random(24)
        widths = [rng.uniform(0.25, 2) for _ in range(24)]
        s = ContinuousSum.from_pairs([(0, a) for a in widths])
        assert s._measure._choose() == contsum._SPLIT
        helpers.assert_refused_unbuilt(s.breakpoints, 2 ** 24)
        # symmetric about 0, so half the mass lies below it
        assert s.cdf(0).value == HALF
        assert s.cdf(0, FLOAT).value == 0.5
        # shifting every component shifts the distribution
        centres = [rng.uniform(-1, 1) for _ in widths]
        shifted = ContinuousSum.from_pairs(list(zip(centres, widths)))
        mean = sum(F(c) for c in centres)
        assert shifted.cdf(mean).value == HALF
        for x in (F(1, 3), F(-7, 2)):
            assert shifted.cdf(mean + x).value == s.cdf(x).value
            assert shifted.cdf(mean + x).value + s.cdf(-x).value == 1
            assert shifted.density_tau(mean + x).value == s.density_tau(x).value > 0


class TestScaleAndShift:
    """Y = 2**e S + offset, with e = +-60 and offsets far beyond the support."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_covariance_at_extreme_scales(self, data):
        pairs = data.draw(helpers.component_lists(max_n=5), label="pairs")
        scale = F(2) ** data.draw(st.sampled_from([-60, 60]), label="e")
        shift = data.draw(st.integers(-2 ** 40, 2 ** 40), label="shift") * scale
        s = ContinuousSum.from_pairs(pairs)
        t = ContinuousSum.from_pairs([(scale * c + (shift if j == 0 else 0), scale * a)
                                      for j, (c, a) in enumerate(pairs)])
        lo, hi = s.support()
        x = lo - 1 + (hi - lo + 2) * data.draw(
            st.fractions(min_value=0, max_value=1, max_denominator=97), label="t")
        y = scale * x + shift
        assert t.density_tau(y).value == s.density_tau(x).value / scale
        assert t.cdf(y).value == s.cdf(x).value
        yf = float(y)
        for fn in (t.density_tau, t.cdf):
            assert fn(yf, FLOAT).value == float(fn(F(yf)).value)


def _spellings(x):
    """(x as given, the rational it stands for): a Fraction, a str, a float and,
    if integral, an int."""
    out = [(x, x), (str(x), x), (float(x), F(float(x)))]
    return out + [(int(x), x)] if x.denominator == 1 else out


class TestPointPath:
    """The integer start and the per-polynomial plans, on every forced path."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_point_form(self, data):
        pairs = data.draw(helpers.mixed_component_lists(max_n=5), label="pairs")
        s = ContinuousSum.from_pairs(pairs)
        lo, hi = s.support()
        # den divides no denominator of 1 / (3 den), so every point but lo and
        # hi themselves has m = scale / den > 1
        eps = F(1, 3 * s._measure.den)
        kink = data.draw(st.sampled_from(s.breakpoints()), label="kink")
        inside = lo + (hi - lo) * data.draw(
            st.fractions(min_value=0, max_value=1, max_denominator=97), label="t")
        xs = [lo, hi, lo - eps, hi + eps, kink, kink + eps, inside, F(round(inside))]
        forms = ("density_tau", "density_sign", "cdf", "cool_identity_residual")
        models = [helpers.forced(s, path) for path in PATHS]
        for x in xs:
            for given_x, exact_x in _spellings(x):
                want = {what: helpers.brute_continuous(pairs, exact_x, what) for what in forms}
                for model in models:
                    got = {what: getattr(model, what)(given_x) for what in forms}
                    got = {what: getattr(v, "value", v) for what, v in got.items()}
                    assert got == want, (model._measure._path, given_x)
                    # float mode rounds every spelling, a rational string too,
                    # to the double the float spelling is
                    got = model.cdf(given_x, FLOAT).value
                    assert got == model.cdf(float(exact_x), FLOAT).value, given_x
                    if isinstance(given_x, float):
                        assert got == float(want["cdf"])

        ms = data.draw(helpers.half_range_lists(max_n=5, m_max=4), label="ms")
        d = DiscreteSum.from_half_ranges(ms)
        p = data.draw(st.integers(-d.span - 1, d.span + 1), label="p")
        for point in {p, -d.span, d.span, -d.span - 1, d.span + 1}:
            want = helpers.brute_pmf(ms, point, "tau"), helpers.brute_pmf(ms, point, "sign")
            for given_p, _ in _spellings(F(point)):
                for model in (helpers.forced(d, path) for path in PATHS):
                    assert (model.pmf_tau(given_p), model.pmf_sign(given_p)) == want, \
                        (model._measure._path, given_p)

    @pytest.mark.parametrize("x", [F(1, 7), F(-3, 2), F(5, 4), F(7, 2), F(0)])
    def test_named_forms_round_rational_strings(self, x):
        assert density_feller(2, 1, str(x), FLOAT) == density_feller(2, 1, float(x), FLOAT)
        assert density_olds([1, 2], str(x), FLOAT) == density_olds([1, 2], float(x), FLOAT)
        assert density_olds([1, 2], str(x), FLOAT) == float(density_olds([1, 2], x))

    def test_shared_model_at_mixed_scales(self):
        # eight threads share one model and meet its plans at interleaved
        # scales: 1/8-grid points (m = 1), 1/512, thirds, doubles and ints
        model = _grid_model(14, 10)
        lo, hi = model.support()
        xs = [lo + (hi - lo) * F(i, 17) for i in range(18)] + [F(i, 512) for i in range(-9, 9)]
        xs += [F(i, 3) for i in range(-6, 6)] + [0.1 * i for i in range(-6, 6)] + [-2, 0, 3]
        disc = DiscreteSum.from_half_ranges([5, 9, 14] * 3)
        ps = list(range(-12, 12))
        fresh = ContinuousSum(model.components), DiscreteSum(disc.components)
        want = ([(fresh[0].density_tau(x), fresh[0].cdf(x), fresh[0].density_sign(x))
                 for x in xs], [fresh[1].pmf_tau(p) for p in ps])
        results = []

        def worker(k):
            got = {x: (model.density_tau(x), model.cdf(x), model.density_sign(x))
                   for x in xs[k:] + xs[:k]}
            pmfs = {p: disc.pmf_tau(p) for p in ps[k:] + ps[:k]}
            results.append(([got[x] for x in xs], [pmfs[p] for p in ps]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(3 * k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 8


class TestMemo:
    """Each model's memo of its last exact sums in _tau."""

    def test_both_modes_sum_once(self, monkeypatch):
        # a fresh generic n = 12 model asked density and cdf in both modes at
        # one double: the float calls round the sums the exact ones made
        calls = _counting_sums(monkeypatch)
        s = _generic_shifted(36, 12)
        x = float(s.moments()[0]) + 0.125
        exact = s.density_tau(x), s.cdf(x)
        spent = s._measure._spent
        floats = s.density_tau(x, FLOAT), s.cdf(x, FLOAT)
        assert len(calls) == 2 and s._measure._spent == spent
        fresh = ContinuousSum(s.components)
        assert floats == (fresh.density_tau(x, FLOAT), fresh.cdf(x, FLOAT))
        assert [r.value for r in floats] == [float(r.value) for r in exact]

    def test_bounded(self, monkeypatch):
        calls = _counting_sums(monkeypatch)
        s = _generic_model(7, 6)
        lo, hi = s.support()
        s.cdf(hi + 1), s.density_tau(lo - 1)  # off the support: no sum, no memo
        assert calls == [] and "_sums" not in vars(s)
        xs = [lo + (hi - lo) * F(i, 101) for i in range(1, 101)]
        passes = []
        for _ in range(2):  # the second pass follows clears: every point is summed again
            values = []
            for x in xs:
                values.append((s.density_tau(x).value, s.cdf(x).value))
                assert len(s._sums) <= 8
            passes.append(values)
        assert len(calls) == 2 * 2 * len(xs)
        assert passes[0] == passes[1]
        pairs = [(c.center, c.half_width) for c in s.components]
        assert passes[0][:3] == [(helpers.brute_continuous(pairs, x, "density_tau"),
                                  helpers.brute_continuous(pairs, x, "cdf")) for x in xs[:3]]

    def test_copies_carry_no_memo(self):
        s = _generic_model(8, 5)
        before = hash(s)
        s.cdf(F(1, 3))
        assert s._sums
        for twin in (copy.copy(s), pickle.loads(pickle.dumps(s)), copy.deepcopy(s)):
            assert "_sums" not in vars(twin) and "_measure" not in vars(twin)
            assert twin == s and hash(twin) == hash(s) == before

    def test_shared_across_threads(self):
        # four threads share one model and its memo, asking an interleaved set
        # of points in both modes, and get what one thread gets
        model = _generic_shifted(37, 8)
        lo, hi = model.support()
        xs = [float(lo + (hi - lo) * F(i, 13)) for i in range(1, 13)]
        modes = (EXACT, FLOAT)

        def ask(s, order):
            return {(x, mode): (s.density_tau(x, mode), s.cdf(x, mode), s.density_sign(x, mode))
                    for x in order for mode in modes}

        want = ask(ContinuousSum(model.components), xs)
        results = []

        def worker(k):
            results.append(ask(model, xs[k:] + xs[:k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1, 3, 6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 4
        assert len(model._sums) <= 8 + 3  # threads that race past the clear add one each


def _assert_within_bound(s, xs):
    """density_batch and cdf_batch are within the stated bound (_batch_bound)
    of the exact value at each point, once rounded."""
    for batch, scalar, e in ((s.density_batch, s.density_tau, s.n - 1),
                             (s.cdf_batch, s.cdf, s.n)):
        got = batch(xs)
        want = np.array([scalar(x, FLOAT).value for x in xs])
        bound = s._batch_bound(e) + 2.0 ** -53 * np.abs(want)
        assert np.all(np.abs(got - want) <= bound)


def _eighths(seed, n):
    """Centers and widths on the 1/8 grid: subset sums merge."""
    rng = random.Random(seed)
    return ContinuousSum.from_pairs([(F(rng.randint(-24, 24), 8), F(rng.randint(1, 24), 8))
                                     for _ in range(n)])


def _generic_shifted(seed, n):
    """Generic double centers and widths: no subset sums merge, and no knot is a double."""
    rng = random.Random(seed)
    return ContinuousSum.from_pairs([(rng.uniform(-3, 3), rng.uniform(0.25, 2))
                                     for _ in range(n)])


def _bits(values):
    return [float(v).hex() for v in values]


def _assert_table_rounded_once(s):
    """The piece table holds the ceil(K / 2) knots from lo.  Every CDF entry is
    float() of its exact coefficient, bit for bit, derived here from the moments
    of the measure about each knot hi - k / den: right of it the CDF is sum over
    keys k_t >= k of w_t (unit z + (k_t - k) / den)^n over its norm, and left of
    it the same less the knot's weight in the top coefficient.  The density's
    entries are the CDF's times r, then times 1 / unit (a power of two), bit for
    bit: its derivative, with one more rounding."""
    tables = s._pieces[-1]
    keys, weights = s._measure.full
    n, den, u, norm = s.n, s._measure.den, s._unit, s._norms[s.n]
    half = (len(keys) + 1) // 2
    moments = [0] * (n + 1)
    for i, k, w in zip(range(half), reversed(keys), reversed(weights)):
        moments = [acc + w * k ** j for j, acc in enumerate(moments)]
        about = [sum(math.comb(p, j) * (-k) ** (p - j) * moments[j] for j in range(p + 1))
                 for p in range(n + 1)]  # sum over k_t >= k of w_t (k_t - k)^p
        cdf = [math.comb(n, r) * u ** r * F(about[n - r], den ** (n - r)) / norm
               for r in range(n + 1)]
        left = u ** n * (about[0] - w) / norm  # the top coefficient left of the knot
        columns, top = tables[n]
        assert _bits(column[i] for column in columns) == _bits(cdf), i
        assert _bits([top[i]]) == _bits([left]), i
    cdf_columns, cdf_left = tables[n]
    columns, top = tables[n - 1]
    r = np.arange(1, n + 1)[:, None]
    assert _bits(np.ravel(columns)) == _bits(np.ravel(cdf_columns[1:] * r * float(1 / u)))
    assert _bits(top) == _bits(cdf_left * n * float(1 / u))
    for e, (columns, top) in tables.items():
        assert np.shape(columns) == (e + 1, half) and len(top) == half


class TestBatch:
    def test_matches_scalar_float(self):
        xs = np.linspace(-3.5, 3.5, 101)
        for s in (TWO_MIXED, _generic_model(3, 5)):
            for batch, scalar in ((s.density_batch, s.density_tau), (s.cdf_batch, s.cdf)):
                for x, b in zip(xs, batch(xs)):
                    assert b == pytest.approx(scalar(x, FLOAT).value, rel=1e-11, abs=1e-13)

    @pytest.mark.parametrize("s", [
        ContinuousSum.from_pairs([(0, 1)] * 12),
        _eighths(9, 9),
        _generic_shifted(9, 9),
        ContinuousSum.from_pairs([(F(19, 5), F(1, 8))])],  # hi = 3.925 is no double
        ids=["12-identical", "eighths-9", "generic-9", "one-box-off-the-doubles"])
    def test_bound_and_tails(self, s):
        lo, hi = map(float, s.support())
        xs = np.linspace(lo, hi, 1001)
        assert np.all(s.density_batch(xs) >= 0)
        _assert_within_bound(s, xs)
        # next to both ends the density is one term of its expansion
        tails = np.array([lo + 1e-3, hi - 1e-3])
        for batch, scalar in ((s.density_batch, s.density_tau), (s.cdf_batch, s.cdf)):
            want = np.array([scalar(x, FLOAT).value for x in tails])
            assert np.all(want > 0)
            assert np.all(np.abs(batch(tails) - want) <= 1e-12 * want)

    @pytest.mark.parametrize("s", [
        ContinuousSum.from_pairs([(0, 1)] * 12),
        _eighths(9, 9),
        _generic_shifted(9, 9)], ids=["12-identical", "eighths-9", "generic-9"])
    def test_table_rounded_once(self, s):
        _assert_table_rounded_once(s)

    @given(_piece_models)
    @settings(max_examples=60, deadline=None)
    def test_table_rounded_once_drawn(self, s):
        # the kept half: the middle knot of an odd count is its own mirror,
        # and n = 1 has jumps at both ends
        _assert_table_rounded_once(s)

    @given(_piece_models)
    @settings(max_examples=40, deadline=None)
    def test_within_bound_drawn(self, s):
        # at the knots as doubles, the midpoints of the gaps and next to both ends
        knots = np.array(s.breakpoints(), dtype=float)
        tails = [knots[0] + (knots[1] - knots[0]) / 1024, knots[-1] - (knots[-1] - knots[-2]) / 1024]
        _assert_within_bound(s, np.concatenate([knots, (knots[:-1] + knots[1:]) / 2, tails]))

    @pytest.mark.parametrize("s", [UNIT_BOX, TRIANGLE, TWO_MIXED, _eighths(9, 9),
                                   _generic_shifted(9, 9)])
    def test_half_the_knots(self, s, monkeypatch):
        # the build walks and keeps the knots from lo to the middle only
        real, taken = contsum._knot_rows, []

        def counted(*args):
            for row in real(*args):
                taken.append(row)
                yield row

        monkeypatch.setattr(contsum, "_knot_rows", counted)
        tables = ContinuousSum(s.components)._pieces[-1]  # a copy builds anew
        assert len(taken) == (len(s.breakpoints()) + 1) // 2
        assert all(np.shape(columns) == (e + 1, len(taken)) for e, (columns, _) in tables.items())

    @pytest.mark.parametrize("pairs", [[(0, 1)] * 8, [(0, 1)] * 20, [(0, 1)] * 40,
                                       [(0, 1), (0, 2), (0, 3)]],
                             ids=["8-identical", "20-identical", "40-identical", "widths-1-2-3"])
    def test_symmetric_by_construction(self, pairs):
        # knots that are doubles, symmetric about 0: a point past the middle
        # reads its mirror's piece, so x and -x give the same doubles
        s = ContinuousSum.from_pairs(pairs)
        knots = np.array(s.breakpoints(), dtype=float)
        grid = np.linspace(0, knots[-1], 401)
        xs = np.concatenate([-grid[::-1], grid, knots, (knots[:-1] + knots[1:]) / 2])
        assert _bits(s.density_batch(xs)) == _bits(s.density_batch(-xs))
        past = xs > 0
        assert _bits(s.cdf_batch(xs[past])) == _bits(1 - s.cdf_batch(-xs[past]))

    def test_both_tails_of_forty(self):
        # x = 39 is the midpoint of the knots 38 and 40; it takes 40, nearer its own
        # end, as -39 takes -40, and both read the piece about -40
        s = ContinuousSum.from_pairs([(0, 1)] * 40)
        exact = 4.458770269151085e-59
        assert float(s.density_tau(39).value) == exact
        assert np.all(np.abs(s.density_batch([-39.0, 39.0]) - exact) <= 1e-12 * exact)

    def test_non_finite_points(self):
        # NaN gives NaN, -inf 0 and +inf 0 (density) or 1 (CDF); n = 1 included,
        # whose density table has no Horner step to carry the NaN
        xs = np.array([0.5, np.nan, -np.inf, np.inf, -1.0])
        for batch, below, above in ((TWO_MIXED.density_batch, 0.0, 0.0),
                                    (TWO_MIXED.cdf_batch, 0.0, 1.0),
                                    (UNIT_BOX.density_batch, 0.0, 0.0),
                                    (UNIT_BOX.cdf_batch, 0.0, 1.0)):
            out = batch(xs)
            assert np.isnan(out[1]) and (out[2], out[3]) == (below, above)
            assert list(out[[0, 4]]) == list(batch(xs[[0, 4]]))

    @pytest.mark.parametrize("n", [100, 200])
    def test_many_identical(self, n):
        s = ContinuousSum.from_pairs([(0, 1)] * n)
        _assert_within_bound(s, np.array([-n / 2, -n / 10, 0.0, n / 10, n / 3]))

    def test_jump_midpoints(self):
        # one uniform on [-1, 3]: 1/4 inside, the midpoint 1/8 at both jumps
        s = ContinuousSum.from_pairs([(1, 2)])
        xs = np.array([-1.5, -1.0, 0.0, 3.0, 3.5])
        assert list(s.density_batch(xs)) == [0.0, 0.125, 0.25, 0.125, 0.0]
        assert list(s.density_batch(xs)) == [float(s.density_tau(x).value) for x in xs]
        assert list(s.cdf_batch(xs)) == [0.0, 0.0, 0.25, 1.0, 1.0]

    def test_capacity(self):
        # 16 power-of-two legs: 2**16 keys, times n + 2 = 18 coefficients
        pow2 = ContinuousSum.from_pairs([(0, a) for a in helpers.POW2_16])
        for batch in (pow2.density_batch, pow2.cdf_batch):
            helpers.assert_refused_unbuilt(lambda: batch([0.0]), 2 ** 16 * 18)
        assert len(pow2.breakpoints()) == 2 ** 16

    def test_cdf_batch_bounds(self):
        xs = np.array([-99.0, -3.0, 0.0, 3.0, 99.0])
        out = TWO_MIXED.cdf_batch(xs)
        assert out[0] == 0.0 and out[1] == 0.0
        assert out[3] == 1.0 and out[4] == 1.0
        assert np.all(np.diff(TWO_MIXED.cdf_batch(np.linspace(-3, 3, 400))) >= -1e-12)

    def test_density_batch_outside_support(self):
        out = TRIANGLE.density_batch(np.array([-0.5, 2.5]))
        assert np.all(out == 0.0)

    def test_shapes(self):
        assert TWO_MIXED.density_batch(0.0).shape == ()
        assert TWO_MIXED.density_batch([[0.0, 1.0]]).shape == (1, 2)


class TestBreakpoints:
    def test_triangle(self):
        assert TRIANGLE.breakpoints() == [0, 1, 2]

    def test_count(self):
        s = ContinuousSum.from_pairs([(0, 1), (0, 2), (0, 4)])
        assert len(s.breakpoints()) == 8

    def test_cancelled_subset_sum_is_no_kink(self):
        # legs 1, 2, 3: the subset sums 3 and 1 + 2 carry opposite signs
        s = ContinuousSum.from_pairs([(0, HALF), (0, 1), (0, F(3, 2))])
        assert s.breakpoints() == [-3, -2, -1, 1, 2, 3]
        # the density is one quadratic on [-1, 1]: its second differences agree
        h = F(1, 4)
        second = [s.density_tau(x - h).value - 2 * s.density_tau(x).value
                  + s.density_tau(x + h).value for x in (F(-1, 2), 0, F(1, 2))]
        assert second[0] == second[1] == second[2] != 0


class TestPiecewiseProof:
    @given(helpers.mixed_component_lists(5))
    @settings(max_examples=40, deadline=None)
    def test_closed_forms_equal_the_oracle_on_all_of_r(self, pairs):
        # every kink is an oracle knot, so agreement at the check points is
        # equality everywhere (continuous_conv_oracle); n = 1 included
        s = ContinuousSum.from_pairs(pairs)
        density, cdf, knots = continuous_conv_oracle(s)
        assert set(s.breakpoints()) <= set(knots)
        for x in check_points(knots, s.n):
            assert (s.density_tau(x).value, s.cdf(x).value) == (density(x), cdf(x)), x
