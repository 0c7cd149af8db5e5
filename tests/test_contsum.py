"""Unit and property tests for the continuous vertex-sum formulas."""

import random
import sys
import threading
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

HALF = F(1, 2)
PATHS = (contsum._DIRECT, contsum._TABLE, contsum._SPLIT)
FORMS = {"tau": contsum._TAU, "sign": contsum._SIGN, "raw": contsum._RAW}
UNIT_BOX = ContinuousSum.from_pairs([(0, 1)])
TWO_MIXED = ContinuousSum.from_pairs([(0, 1), (0, 2)])
TRIANGLE = ContinuousSum.from_pairs([(HALF, HALF), (HALF, HALF)])  # two U[0,1]


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
        # sum of two U[0,1]: peak value 1 at x = 1 (checked against the
        # numerical convolution oracle in test_oracles)
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

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            TWO_MIXED.quantile(F(-1, 10))
        with pytest.raises(ValueError):
            TWO_MIXED.quantile(F(11, 10))


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

        # every split of the measure, forced on the same model: the raw vertex
        # sums in arguments x - hi + key / den, which is x - sum c_j + sum eps_j a_j
        n = len(pairs)
        centre = sum(F(c) for c, _ in pairs)
        for x in (on_kink, off_kink):
            for e, form in ((n - 1, "tau"), (n - 1, "sign"), (n, "tau"), (n - 1, "raw"),
                            (0, "tau")):
                want = helpers.brute_vertex_sum(x - centre, [F(a) for _, a in pairs], e, form)
                for path in PATHS:
                    assert s._measure.sum(x - hi, e, FORMS[form], path=path) == want, \
                        (path, e, form, x)

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
        assert d.pmf_tau(p) == helpers.brute_pmf(ms, p, "tau")
        assert d.pmf_sign(p) == helpers.brute_pmf(ms, p, "sign")
        counts = [2 * m + 1 for m in ms]
        for e in range(len(ms) - 1, -1, -2):
            for form in ("tau", "sign"):
                want = helpers.brute_vertex_sum(2 * p, counts, e, form)
                for path in PATHS:
                    assert d._measure.sum(2 * p - sum(counts), e, FORMS[form],
                                          path=path) == want, (path, e, form, p)


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
        build = measure._costs(last)[0]
        lo, hi = model.support()
        taken, spent = [], []
        for i in range(1, points + 1):
            start = lo - hi + (hi - lo) * F(i, points + 1)
            spent.append(measure._spent)
            taken.append(measure._choose())
            assert measure.sum(start, model.n, contsum._TAU) == \
                model._measure.sum(start, model.n, contsum._TAU, path=first)
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

    def test_shared_across_threads(self):
        # more threads than cores, with a short switch interval: a lost
        # update of the count of terms, or a freed path built again by a
        # thread that chose it just before the switch, would show here
        hundred = ContinuousSum.from_pairs([(0, 1)] * 100)  # the direct loop, 101 terms a cdf
        generic = _generic_model(5, 12)  # the split, then the table after about 70 sums
        reference = ContinuousSum(generic.components)
        xs = [F(i, 7) for i in range(-6, 6)]
        want = [reference.cdf(x).value for x in xs]
        results = []

        def worker():
            results.append([generic.cdf(x).value for x in xs])
            for x in xs:
                hundred.cdf(x)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 8
        assert hundred._measure._spent == 8 * len(xs) * 101
        assert generic._measure._path == contsum._TABLE
        assert set(generic._measure._parts) == {contsum._TABLE}

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


def _table_maximum(s, exponent):
    """The largest sum_r |c_r| |z|^r of the piece table, |z| half a piece."""
    knots, _, _, tables = s._pieces
    columns, left = tables[exponent]
    half = np.diff(knots) / 2 / float(s._unit)
    sums = []
    for top, h in ((columns[-1], np.append(half, 0.0)), (left, np.insert(half, 0, 0.0))):
        acc = np.abs(top)
        for column in columns[-2::-1]:
            acc = acc * h + np.abs(column)
        sums.append(acc.max())
    return max(sums)


def _assert_within_bound(s, xs):
    """density_batch and cdf_batch are within 4 (e + 1) 2^-53 times the table
    maximum of the exact value at each point, once rounded."""
    for batch, scalar, e in ((s.density_batch, s.density_tau, s.n - 1),
                             (s.cdf_batch, s.cdf, s.n)):
        got = batch(xs)
        want = np.array([scalar(x, FLOAT).value for x in xs])
        bound = 4 * (e + 1) * 2.0 ** -53 * _table_maximum(s, e) + 2.0 ** -53 * np.abs(want)
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
        _generic_shifted(9, 9)], ids=["12-identical", "eighths-9", "generic-9"])
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
