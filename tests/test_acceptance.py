"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime against the stated budget.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every exact comparison is == on rationals; float tolerances are
stated inline.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

import helpers
from unisum import (
    EXACT,
    FLOAT,
    ContinuousSum,
    DiscreteSum,
    csc_coefficient,
    density_feller,
    density_olds,
)
from unisum.oracles import (
    check_points,
    continuous_conv_oracle,
    csc_series_oracle,
    discrete_conv_oracle,
    ks_critical_1pct,
    ks_statistic,
    sample_sum,
)

HALF = F(1, 2)


def _finish(num: int, started: float, budget: float, detail: str):
    elapsed = time.perf_counter() - started
    print(f"[criterion {num:2d}] PASS in {elapsed:6.2f}s (budget {budget:g}s): {detail}")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def _discrete_panel_100():
    return helpers.discrete_panel(seed=777, size=100, n_max=6, m_max=5)


def test_criterion_01_two_uniform_zero_point_identity():
    t0 = time.perf_counter()
    rng = random.Random(101)
    for _ in range(200):
        a1 = helpers.rational(rng, F(1, 16), 10, max_den=16)
        a2 = helpers.rational(rng, F(1, 16), 10, max_den=16)
        s = ContinuousSum.from_pairs([(0, a1), (0, a2)])
        assert s.density_tau(0).value == min(a1, a2) / (2 * a1 * a2)
    _finish(1, t0, 1, "200 random (a1, a2): f(0) = min(a1,a2)/(2 a1 a2) exactly")


def test_criterion_02_sign_tau_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(202)
    for _ in range(1000):
        s = helpers.random_continuous(rng, rng.randint(1, 10))
        x = helpers.random_x(rng, s)
        assert s.density_sign(x).value == s.density_tau(x).value
    # discrete side: the formulas are symmetric in the components by
    # construction (the vertex enumeration treats them identically), so
    # exhausting multisets of m-values exhausts all models up to reordering
    checked = 0
    for n in range(1, 7):
        for ms in itertools.combinations_with_replacement(range(5), n):
            d = DiscreteSum.from_half_ranges(list(ms))
            for p in range(-d.span - 1, d.span + 2):
                assert d.pmf_sign(p) == d.pmf_tau(p)
                checked += 1
    _finish(2, t0, 30, f"1000 continuous instances (n<=10) and {checked} "
                       "discrete points (n<=6, m<=4, all multisets), all exact")


def test_criterion_03_discrete_oracle_equivalence():
    t0 = time.perf_counter()
    panel = _discrete_panel_100()
    assert len(panel) == 100
    points = 0
    for d in panel:
        oracle = discrete_conv_oracle(d)
        full = d.pmf_full()
        for p in range(-d.span, d.span + 1):
            assert full[p] == oracle.get(p, F(0))
            points += 1
        assert set(oracle) <= set(full)
    _finish(3, t0, 60, f"100 fixed models (n<=6, m<=5): pmf_full == lattice "
                       f"count at {points} support points")


def test_criterion_04_coefficient_cross_validation():
    t0 = time.perf_counter()
    entries = 0
    # stated range is 1 <= n <= 10; n = 11 is included so at least the
    # advertised 77 entries are covered
    for n in range(1, 12):
        oracle = csc_series_oracle(n, 6)
        assert csc_coefficient(n, 0) == oracle[0] == 1
        for k in range(7):
            assert csc_coefficient(n, k) == oracle[k]
            entries += 1
    assert entries >= 77
    _finish(4, t0, 10, f"{entries} coefficients equal the series oracle exactly")


def test_criterion_05_normalization():
    t0 = time.perf_counter()
    rng = random.Random(505)
    for _ in range(100):
        s = helpers.random_continuous(rng, rng.randint(1, 8))
        lo, hi = s.support()
        assert s.cdf(hi).value == 1
        assert s.cdf(lo).value == 0
    for d in _discrete_panel_100():
        assert sum(d.pmf_full().values()) == 1
    _finish(5, t0, 30, "cdf(hi) = 1, cdf(lo) = 0 for 100 continuous sums "
                       "(n<=8); sum of pmf = 1 for the 100 discrete models")


def test_criterion_06_vanishing_identity():
    t0 = time.perf_counter()
    rng = random.Random(606)
    for _ in range(1000):
        s = helpers.random_continuous(rng, rng.randint(1, 8))
        x = helpers.random_x(rng, s, slack=F(3))
        assert s.cool_identity_residual(x) == 0
    _finish(6, t0, 10, "alternating vertex sum is exactly 0 on 1000 random "
                       "(sum, x) with n<=8")


def test_criterion_07_special_case_consistency():
    t0 = time.perf_counter()
    rng = random.Random(707)
    for n in (1, 2, 3, 5, 8, 12):
        a = helpers.rational(rng, F(1, 4), 4)
        s = ContinuousSum.from_pairs([(0, a)] * n)
        for _ in range(50):
            x = helpers.rational(rng, -(n + 1) * a, (n + 1) * a, max_den=16)
            assert density_feller(n, a, x) == s.density_tau(x).value
    for n in (1, 2, 3, 5, 8):
        avec = [helpers.rational(rng, F(1, 4), 4) for _ in range(n)]
        s = ContinuousSum.from_pairs([(a / 2, a / 2) for a in avec])
        for _ in range(50):
            x = helpers.rational(rng, -1, sum(avec) + 1, max_den=16)
            assert density_olds(avec, x) == s.density_tau(x).value
    _finish(7, t0, 10, "identical-component (n<=12) and [0,a_j] (n<=8) forms "
                       "match the general form at 50 random x each")


def test_criterion_08_float_mode_fidelity():
    t0 = time.perf_counter()
    rng = random.Random(808)
    tested = 0
    for n in range(2, 13):
        for _ in range(30):
            pairs = [(rng.uniform(-5, 5), rng.uniform(0.1, 10.0))
                     for _ in range(n)]
            s = ContinuousSum.from_pairs(pairs)  # floats stored exactly
            lo, hi = float(s._lo), float(s._hi)
            x = rng.uniform(lo, hi)
            r = s.density_tau(x, FLOAT)
            exact = s.density_tau(x, EXACT).value
            if exact != 0 and r.condition_estimate <= 1e6:
                rel = abs(F(r.value) - exact) / exact
                assert rel <= F(1, 10 ** 9), (pairs, x, r, exact)
                tested += 1
    assert tested >= 50  # the well-conditioned subset must not be vacuous

    # near the upper support edge of a 12-component sum almost all 4096
    # vertex terms cancel; float mode is the exact value rounded once, so it
    # is still correctly rounded there, and the condition estimate says so
    s = ContinuousSum.from_pairs([(0, 1)] * 12)
    x = 12.0 - 1e-6
    r = s.density_tau(x, FLOAT)
    exact = s.density_tau(x, EXACT).value
    assert exact > 0
    assert r.value == float(exact)
    assert r.condition_estimate == 1.0
    _finish(8, t0, 30, f"float == exact to 1e-9 on {tested} well-conditioned "
                       f"evaluations (n<=12); correctly rounded at the support "
                       f"edge, where the terms cancel")


def test_criterion_09_monte_carlo_concordance():
    t0 = time.perf_counter()
    panel = [
        ContinuousSum.from_pairs([(0, 1)]),
        ContinuousSum.from_pairs([(HALF, HALF), (HALF, HALF)]),
        ContinuousSum.from_pairs([(0, 1), (0, 2)]),
        ContinuousSum.from_pairs([(0, 1), (0, 1), (0, 1)]),
        ContinuousSum.from_pairs([(1, F(1, 4)), (-2, 3)]),
        ContinuousSum.from_pairs([(0, F(1, 10)), (0, 10)]),
        ContinuousSum.from_pairs([(2, 1), (3, HALF), (-5, 2), (0, F(1, 4))]),
        ContinuousSum.from_pairs([(0, a) for a in (1, 2, 3, 4, 5)]),
        ContinuousSum.from_pairs([(HALF, HALF)] * 6),
        ContinuousSum.from_pairs([(-1, 1), (1, 1), (0, F(3, 2)), (F(1, 3), F(2, 3)),
                                  (0, 2), (5, F(1, 5))]),
    ]
    n = 10 ** 6
    crit = ks_critical_1pct(n)
    worst = 0.0
    for i, s in enumerate(panel):
        draws = sample_sum(s, n, seed=9000 + i)
        d = ks_statistic(draws, s.cdf_batch)
        worst = max(worst, d)
        assert d < crit, (i, d, crit)
    _finish(9, t0, 60, f"KS over 10 models at N=1e6: worst D={worst:.2e} "
                       f"< {crit:.2e}")


def test_criterion_10_grid_oracle_concordance():
    t0 = time.perf_counter()
    panels = [
        ContinuousSum.from_pairs([(0, 1), (0, 2)]),
        ContinuousSum.from_pairs([(F(3, 10), F(7, 10)), (F(-11, 10), F(13, 10)),
                                  (F(1, 20), 2)]),
        ContinuousSum.from_pairs([(HALF, HALF), (0, 1), (-1, F(3, 4)), (2, F(5, 4))]),
    ]
    h = F(1, 512)
    worst, checked = 0.0, 0
    for s in panels:
        # equality at the check points, with every kink a knot, is equality on
        # all of R: at every point of the grid below and at every breakpoint
        density, cdf, knots = continuous_conv_oracle(s)
        assert set(s.breakpoints()) <= set(knots), s
        points = check_points(knots, s.n)
        checked += len(points)
        for x in points:
            assert (s.density_tau(x).value, s.cdf(x).value) == (density(x), cdf(x)), (s, x)
        lo, hi = s.support()
        grid = [lo + k * h for k in range((hi - lo) // h + 1)]
        xs = np.array(grid, dtype=float)
        assert [F(x) for x in xs] == grid  # the batch paths see the grid itself
        for batch, oracle, e in ((s.density_batch, density, s.n - 1), (s.cdf_batch, cdf, s.n)):
            err = float(np.max(np.abs(batch(xs) - np.array([oracle(x) for x in grid], float))))
            bound = s._batch_bound(e)
            worst = max(worst, err / bound)
            assert err <= bound, (s, batch.__name__, err, bound)
    _finish(10, t0, 60, f"n in 2..4 panels: density_tau and cdf equal the box convolution "
                        f"at {checked} check points, so on all of R; batch errors on the "
                        f"step {h} grid at most {worst:.2f} of their bound")
