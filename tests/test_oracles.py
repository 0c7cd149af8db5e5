"""Tests for the independent ground-truth generators themselves."""

import itertools
import math
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from unisum import CapacityError, ContinuousSum, DiscreteSum
from unisum.oracles import (
    DISCRETE_ORACLE_CAP,
    check_points,
    continuous_conv_oracle,
    csc_series_oracle,
    discrete_conv_oracle,
    ks_critical_1pct,
    ks_statistic,
    sample_sum,
)

HALF = F(1, 2)


class TestCscSeriesOracle:
    def test_classical_expansions(self):
        assert csc_series_oracle(1, 2) == [1, F(1, 6), F(7, 360)]
        assert csc_series_oracle(2, 2) == [1, F(1, 3), F(1, 15)]

    def test_leading_term(self):
        for n in (1, 4, 9):
            assert csc_series_oracle(n, 0) == [1]

    def test_numeric_sanity(self):
        # sum_k b_k x^(2k-n) should approach (1/sin x)^n as the truncated
        # tail vanishes; entirely independent of the rational machinery
        x = 0.2
        for n in range(1, 5):
            coeffs = csc_series_oracle(n, 8)
            approx = sum(float(b) * x ** (2 * k - n) for k, b in enumerate(coeffs))
            assert approx == pytest.approx((1.0 / math.sin(x)) ** n, rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            csc_series_oracle(0, 2)
        with pytest.raises(ValueError):
            csc_series_oracle(1, -1)


class TestDiscreteConvOracle:
    def test_single(self):
        d = DiscreteSum.from_half_ranges([1])
        assert discrete_conv_oracle(d) == {-1: F(1, 3), 0: F(1, 3), 1: F(1, 3)}

    def test_pair(self):
        d = DiscreteSum.from_half_ranges([1, 1])
        assert discrete_conv_oracle(d) == {-2: F(1, 9), -1: F(2, 9), 0: F(3, 9),
                                           1: F(2, 9), 2: F(1, 9)}

    def test_triple_center(self):
        d = DiscreteSum.from_half_ranges([1, 1, 1])
        oracle = discrete_conv_oracle(d)
        assert oracle[0] == F(7, 27)
        assert sum(oracle.values()) == 1

    def test_cap(self):
        too_big = DiscreteSum.from_half_ranges([DISCRETE_ORACLE_CAP // 2])
        with pytest.raises(CapacityError):
            discrete_conv_oracle(too_big)


class TestContinuousConvOracle:
    def test_triangular_center(self):
        density, _, _ = continuous_conv_oracle(ContinuousSum.from_pairs([(0, 1)] * 2))
        assert density(0) == HALF

    def test_box_reproduced(self):
        density, cdf, knots = continuous_conv_oracle(ContinuousSum.from_pairs([(0, 1)]))
        assert [density(x) for x in (F(-99, 100), 0, F(1, 3))] == [HALF] * 3
        assert density(-1) == density(1) == F(1, 4)  # tau(0) = 1/2 at the jumps
        assert [cdf(x) for x in (-5, -1, 0, 1, 5)] == [0, 0, HALF, 1, 1]
        # n + 1 = 2 points at quarters of the one gap, 4 the least power of two >= n + 2
        assert knots == [-1, 1]
        assert check_points(knots, 1) == [-2, -1, -HALF, 0, 1, 2]

    def test_three_boxes_center(self):
        density, _, _ = continuous_conv_oracle(ContinuousSum.from_pairs([(0, 1)] * 3))
        assert density(0) == F(3, 8)

    @given(helpers.component_lists(5), helpers.points)
    @settings(max_examples=40, deadline=None)
    def test_equals_brute_force(self, pairs, x):
        # at x and at lo plus every subset sum of the legs 2 a: every knot, and
        # the jumps of n = 1
        density, cdf, _ = continuous_conv_oracle(ContinuousSum.from_pairs(pairs))
        lo = sum(c - a for c, a in pairs)
        subsets = itertools.product(*[(0, 2 * a) for _, a in pairs])
        for y in [x, *(lo + sum(legs) for legs in subsets)]:
            assert density(y) == helpers.brute_continuous(pairs, y, "density_tau")
            assert cdf(y) == helpers.brute_continuous(pairs, y, "cdf")


class TestSampler:
    def test_deterministic(self):
        s = ContinuousSum.from_pairs([(0, 1), (2, HALF)])
        a = sample_sum(s, 1000, seed=42)
        b = sample_sum(s, 1000, seed=42)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, sample_sum(s, 1000, seed=43))

    @settings(max_examples=50, deadline=None)
    @given(helpers.mixed_component_lists(4), st.integers(1, 40), st.integers(0, 2 ** 70))
    def test_stream(self, pairs, count, seed):
        # the contract: random.Random(seed).random(), component by component
        s = ContinuousSum.from_pairs(pairs)
        uniform = random.Random(seed).random
        expected = [0.0] * count
        for comp in s.components:
            a, b = float(comp.lo), float(comp.hi)
            for i in range(count):
                expected[i] += a + (b - a) * uniform()
        assert sample_sum(s, count, seed) == expected

    def test_same_bytes_under_any_hash_seed(self):
        argv = [sys.executable, "-m", "unisum.cli", "sample", "--comp=0:1",
                "--comp=1/2:1/4", "--count=5", "--seed=7"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = [subprocess.run(argv, capture_output=True, timeout=120, check=True,
                               env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": h}).stdout
                for h in ("0", "4242")]
        assert outs[0] == outs[1] and len(outs[0].splitlines()) == 5

    def test_moment_bands(self):
        s = ContinuousSum.from_pairs([(0, 1)] * 4)
        draws = sample_sum(s, 10 ** 6, seed=7)
        # CLT band around the exact mean: 3 sigma of the sample mean
        assert abs(statistics.fmean(draws)) < 0.005
        assert statistics.pvariance(draws) == pytest.approx(4 / 3, rel=0.02)

    def test_range_respected(self):
        s = ContinuousSum.from_pairs([(3, F(1, 4))])
        draws = sample_sum(s, 10 ** 4, seed=1)
        assert min(draws) >= 2.75 and max(draws) <= 3.25

    def test_validation(self):
        s = ContinuousSum.from_pairs([(0, 1)])
        with pytest.raises(ValueError):
            sample_sum(s, 0, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_an_int_at_least_zero(self, seed):
        # random.Random would give -s the stream of s and take floats
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            sample_sum(ContinuousSum.from_pairs([(0, 1)]), 3, seed=seed)

    @pytest.mark.parametrize("pairs", [[(0, 1e308)],                       # width 2e308
                                       [(F(10) ** 400, 1), (-F(10) ** 400, 1)],
                                       [(1e308, 1), (1e308, 1)],        # support ends
                                       [(1e308, 1), (1e308, 1), (-1.5e308, 1)]])
    def test_beyond_float_range(self, pairs):
        with pytest.raises(ValueError, match="leave the float range"):
            sample_sum(ContinuousSum.from_pairs(pairs), 3, seed=1)


class TestKs:
    def test_hand_value(self):
        samples = np.array([0.1, 0.5, 0.9])
        d = ks_statistic(samples, lambda xs: xs)  # U(0,1) reference
        assert d == pytest.approx(7 / 30, abs=1e-15)

    def test_critical_value(self):
        assert ks_critical_1pct(10 ** 6) == pytest.approx(0.00163)

    def test_sampler_agrees_with_cdf(self):
        s = ContinuousSum.from_pairs([(0, 1), (0, 2), (1, HALF)])
        n = 10 ** 5
        draws = sample_sum(s, n, seed=13)
        assert ks_statistic(draws, s.cdf_batch) < ks_critical_1pct(n)

    def test_empty(self):
        with pytest.raises(ValueError):
            ks_statistic(np.array([]), lambda xs: xs)
