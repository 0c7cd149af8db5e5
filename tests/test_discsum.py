"""Unit and property tests for the discrete PMF formulas and coefficients."""

import math
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from unisum import (
    ContinuousSum,
    DiscreteComponent,
    DiscreteSum,
    contsum,
    csc_coefficient,
    discsum,
    pmf_n2_closed,
)
from unisum.oracles import csc_series_oracle, discrete_conv_oracle


class TestCscCoefficient:
    def test_leading_coefficient_is_one(self):
        for n in (1, 2, 3, 7, 10):
            assert csc_coefficient(n, 0) == 1

    def test_known_values_confirmed_by_series(self):
        # classical expansions, each checked against the series oracle too
        for n, k, want in [(1, 1, F(1, 6)), (2, 1, F(1, 3)), (1, 2, F(7, 360))]:
            assert csc_coefficient(n, k) == want
            assert csc_series_oracle(n, k)[k] == want

    def test_agrees_with_series_oracle(self):
        for n in range(1, 8):
            oracle = csc_series_oracle(n, 4)
            for k in range(5):
                assert csc_coefficient(n, k) == oracle[k]

    def test_matches_triple_sum(self):
        # the paper's explicit triple sum, past k = (n - 1) / 2 too, which
        # the coeffs command asks for
        for n in (1, 2, 3, 4, 7, 13, 30):
            for k in range(max(3, (n - 1) // 2) + 1):
                assert csc_coefficient(n, k) == helpers.csc_triple_sum(n, k), (n, k)
        for k in range(0, 50, 7):
            assert csc_coefficient(100, k) == helpers.csc_triple_sum(100, k), k

    def test_validation(self):
        with pytest.raises(ValueError):
            csc_coefficient(0, 1)
        with pytest.raises(ValueError):
            csc_coefficient(1, -1)

    @pytest.mark.parametrize("n, k", [(True, 1), (2, True), (2.0, 1), (2, 1.0), (F(2), 1)])
    def test_rejects_non_integers(self, n, k):
        with pytest.raises(ValueError, match="must be an integer"):
            csc_coefficient(n, k)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 10))
    def test_row_is_the_series_and_extends_shorter_rows(self, n, length):
        row = discsum._csc_row(n, length)
        assert row == csc_series_oracle(n, length - 1)
        for k in range(length):
            assert row[:k + 1] == discsum._csc_row(n, k + 1)

    def test_concurrent_lookups_consistent(self):
        # more threads than cores, with a short switch interval, each growing
        # the one shared row of n = 37 to its own length first: a coefficient
        # appended out of turn would show as a wrong value
        oracle = csc_series_oracle(37, 12)
        results = []

        def worker(top):
            results.append([csc_coefficient(37, k) for k in range(top, -1, -1)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(top,)) for top in range(5, 13)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(results, key=len) == [oracle[top::-1] for top in range(5, 13)]


class TestPmfValues:
    def test_single_component(self):
        d = DiscreteSum.from_half_ranges([2])
        assert d.pmf_tau(0) == F(1, 5)
        assert d.pmf_sign(2) == F(1, 5)
        assert d.pmf_sign(-2) == F(1, 5)
        assert d.pmf_tau(3) == 0

    def test_pair_of_threes(self):
        d = DiscreteSum.from_half_ranges([1, 1])
        assert d.pmf_full() == {-2: F(1, 9), -1: F(2, 9), 0: F(1, 3),
                                1: F(2, 9), 2: F(1, 9)}
        assert list(d.pmf_full()) == [-2, -1, 0, 1, 2]  # keys ascending
        assert d.pmf_tau(2) == F(1, 9)

    def test_mixed_pair(self):
        d = DiscreteSum.from_half_ranges([1, 2])
        oracle = discrete_conv_oracle(d)
        assert d.pmf_sign(0) == oracle[0] == F(1, 5)
        assert d.pmf_sign(3) == oracle[3] == F(1, 15)
        assert d.pmf_full() == oracle

    def test_outside_support(self):
        d = DiscreteSum.from_half_ranges([1, 2, 3])
        assert d.span == 6
        assert d.pmf_tau(7) == 0
        assert d.pmf_sign(-7) == 0
        # exactly 0 without a vertex sum, as cdf gives 1 beyond hi: a model
        # whose sums the capacity rule refuses still answers off its support
        pow2 = DiscreteSum.from_half_ranges(helpers.POW2_31)
        for p in (pow2.span + 1, -pow2.span - 1, 2 ** 40):
            assert pow2.pmf_tau(p) == pow2.pmf_sign(p) == 0

    @pytest.mark.parametrize("n", [300, 301])
    def test_beyond_lattice_oracle(self, n):
        # n x {-1, 0, 1} against the trinomial counts, one running window sum
        # per component: at the centre, next to it and at the upper edge
        counts = [1]
        for _ in range(n):
            window = [0, 0] + counts + [0, 0]
            counts = [sum(window[i:i + 3]) for i in range(len(counts) + 2)]
        d = DiscreteSum.from_half_ranges([1] * n)
        for p in (0, 1, d.span - 1, d.span):
            assert d.pmf_tau(p) == F(counts[p + n], 3 ** n), p

    def test_three_identical(self):
        d = DiscreteSum.from_half_ranges([1, 1, 1])
        assert d.pmf_tau(0) == F(7, 27) == discrete_conv_oracle(d)[0]

    def test_non_integer_point_rejected(self):
        d = DiscreteSum.from_half_ranges([1, 2])
        for p in (2.5, F(5, 2), float("nan"), float("inf")):
            with pytest.raises(ValueError):
                d.pmf_tau(p)
            with pytest.raises(ValueError):
                d.pmf_sign(p)
        assert d.pmf_tau(2.0) == d.pmf_tau(2) == d.pmf_tau(F(4, 2)) == F(2, 15)

    def test_bool_point_rejected(self):
        # True is no lattice point, though Fraction(True) == 1: csc_coefficient
        # and DiscreteComponent reject bools too
        d = DiscreteSum.from_half_ranges([1, 2])
        for p in (True, False):
            with pytest.raises(ValueError, match="p must be an integer"):
                d.pmf_tau(p)
            with pytest.raises(ValueError, match="p must be an integer"):
                d.pmf_sign(p)
        assert d.pmf_tau(1) == d.pmf_tau("1") == F(1, 5)


class TestPmfProperties:
    @given(helpers.half_range_lists(max_n=8, m_max=4),
           st.integers(min_value=-36, max_value=36))
    @settings(max_examples=60, deadline=None)
    def test_sign_equals_tau(self, ms, p):
        d = DiscreteSum.from_half_ranges(ms)
        assert d.pmf_sign(p) == d.pmf_tau(p)

    @given(helpers.half_range_lists(max_n=6, m_max=4))
    @settings(max_examples=50, deadline=None)
    def test_normalization(self, ms):
        d = DiscreteSum.from_half_ranges(ms)
        assert sum(d.pmf_full().values()) == 1

    @given(helpers.half_range_lists(max_n=6, m_max=4),
           st.integers(min_value=0, max_value=30))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_nonnegative(self, ms, p):
        d = DiscreteSum.from_half_ranges(ms)
        v = d.pmf_tau(p)
        assert v == d.pmf_tau(-p)
        assert v >= 0

    @given(helpers.half_range_lists(max_n=5, m_max=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_convolution_oracle(self, ms):
        d = DiscreteSum.from_half_ranges(ms)
        oracle = discrete_conv_oracle(d)
        for p in range(-d.span - 1, d.span + 2):
            assert d.pmf_tau(p) == oracle.get(p, F(0))

    @given(helpers.half_range_lists(max_n=5, m_max=3))
    @settings(max_examples=30, deadline=None)
    def test_point_mass_component_is_neutral(self, ms):
        # appending m = 0 convolves with a point mass at 0: PMF unchanged
        base = DiscreteSum.from_half_ranges(ms)
        padded = DiscreteSum.from_half_ranges(ms + [0])
        assert padded.pmf_full() == base.pmf_full()

    @given(helpers.half_range_lists(max_n=7, m_max=4),
           st.integers(min_value=-20, max_value=20))
    @settings(max_examples=40, deadline=None)
    def test_vertex_arguments_have_parity_of_n(self, ms, p):
        # 2p + sum of n odd numbers with any signs is even iff n is even,
        # so for odd n the sign form never meets a zero argument
        n = len(ms)
        counts = [2 * m + 1 for m in ms]
        worst = 2 * p + sum(counts)  # one representative vertex
        assert worst % 2 == n % 2
        if n % 2 == 1:
            assert worst != 0


def _counting_rows(monkeypatch):
    """Patch contsum._suffix_moments so that its rows count how often they are read
    whole; return the count, a list of one int.  A kept fold reads no row: a
    fold of g reads its row once per term, a monomial's Horner pass once."""
    real, reads = contsum._suffix_moments, [0]

    class Row(tuple):
        def __iter__(self):
            reads[0] += 1
            return super().__iter__()

    monkeypatch.setattr(contsum, "_suffix_moments",
                        lambda *args: [Row(row) for row in real(*args)])
    return reads


def _folded(measure, path) -> int:
    """The rows of path that hold a fold of the polynomial last summed there."""
    return sum(q is not None for q in measure._parts[path][4][2] or ())


class TestFold:
    """The PMF polynomial folded into each row of B's moments once, and kept;
    pmf_tau summed at -|p|."""

    @pytest.mark.parametrize("ms", [[2], [1, 1], [1, 2, 3], [4, 0, 2, 5], [1] * 9,
                                    [3, 1, 4, 1, 5, 9, 2], [128, 256, 384] * 2])
    def test_mirror(self, ms):
        # pmf_tau at p > 0 takes -p; the tau sum at p's own start, which
        # pmf_tau took before the mirror, gives the same rational
        d = DiscreteSum.from_half_ranges(ms)
        start = {p: 2 * p - sum(c.count for c in d.components) for p in (1, d.span - 1, d.span)}
        oracle = discrete_conv_oracle(d) if d.span < 100 else None
        for path in helpers.PATHS:
            model = helpers.forced(d, path)
            for p, s in start.items():
                at_p = model._measure.sum(s, 1, model._laurent)
                assert model.pmf_tau(p) == model.pmf_tau(-p) == at_p, (path, p)
                assert oracle is None or at_p == oracle.get(p, 0), (path, p)

    @given(helpers.half_range_lists(max_n=6, m_max=4))
    @settings(max_examples=30, deadline=None)
    def test_kept_rows_equal_the_oracle(self, ms):
        # each point asked twice, so the second call reads the kept fold;
        # pmf_sign reads the rows of the other half, at p itself
        oracle = discrete_conv_oracle(DiscreteSum.from_half_ranges(ms))
        for path in helpers.PATHS:
            d = helpers.forced(DiscreteSum.from_half_ranges(ms), path)
            for p in range(-d.span, d.span + 1):
                assert d.pmf_tau(p) == d.pmf_tau(p) == d.pmf_sign(p) == oracle[p], (path, p)

    def test_a_kept_fold_reads_no_row(self, monkeypatch):
        reads = _counting_rows(monkeypatch)
        d = helpers.forced(DiscreteSum.from_half_ranges([5, 9, 2]), contsum._TABLE)
        terms = len(d._laurent[0])  # (y^2 - 1): two terms
        assert terms == 2
        d.pmf_tau(0)
        assert reads[0] == terms and _folded(d._measure, contsum._TABLE) == 1
        d.pmf_tau(-1)  # the same row as p = 0, so nothing is folded
        assert reads[0] == terms and _folded(d._measure, contsum._TABLE) == 1
        d.pmf_tau(-5)  # a row further out, folded once
        d.pmf_tau(5)   # summed at -5 (at 5 itself it would read a row nearer in)
        assert reads[0] == 2 * terms and _folded(d._measure, contsum._TABLE) == 2

    def test_monomials_keep_no_row(self, monkeypatch):
        reads = _counting_rows(monkeypatch)
        s = helpers.forced(ContinuousSum.from_pairs([(0, 1), (1, 2), (0, 3)]), contsum._TABLE)
        for k in range(1, 4):  # a distinct point each round: a point asked again is not summed
            s.density_tau(F(k, 3))
            s.cdf(F(k, 3))
            assert reads[0] == 2 * k  # one Horner pass on the row per sum, every time
        assert s._measure._parts[contsum._TABLE][4] == [None, None, None]

    def test_path_switch_drops_the_rows(self, monkeypatch):
        # a multi-term polynomial on generic widths: the split answers first,
        # and the table takes over once the terms summed pay for it
        reads = _counting_rows(monkeypatch)
        pairs = [(0, 1 + F(k, 7) + F(1, 2 ** (k + 4))) for k in range(8)]
        measure = ContinuousSum.from_pairs(pairs)._measure
        direct = helpers.forced(ContinuousSum.from_pairs(pairs), contsum._DIRECT)._measure
        poly = (((8, 1), (3, -2), (0, 5)), 3)
        taken = []
        for i in range(400):
            taken.append(measure._choose(poly[0]))
            before, start = reads[0], -F(i % 97, 13)
            assert helpers.tau_sum(measure, start, poly) == helpers.tau_sum(direct, start, poly)
            if taken[-1] != taken[0]:
                break
        assert taken[0] == contsum._SPLIT and taken[-1] == contsum._TABLE
        assert set(measure._parts) == {contsum._TABLE}  # the split's folds went with it
        assert reads[0] > before and _folded(measure, contsum._TABLE) == 1

    def test_shared_table_across_threads(self):
        # eight threads, more than the cores, share one model on the table
        # path and fold its rows outside the lock, with a short switch interval
        ms = [128, 256, 384] * 4
        d = helpers.forced(DiscreteSum.from_half_ranges(ms), contsum._TABLE)
        ps = list(range(-60, 60, 3))
        reference = helpers.forced(DiscreteSum.from_half_ranges(ms), contsum._TABLE)
        want = [reference.pmf_tau(p) for p in ps]
        results = []

        def worker(k):
            got = {p: d.pmf_tau(p) for p in ps[k:] + ps[:k]}
            results.append([got[p] for p in ps])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(5 * k,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [want] * 8


class TestClosedFormPair:
    def test_examples(self):
        assert pmf_n2_closed(1, 1, 0) == F(1, 3)
        assert pmf_n2_closed(1, 1, 3) == 0
        assert pmf_n2_closed(2, 3, -5) == F(1, 35)

    def test_exhaustive_small(self):
        for m1 in range(4):
            for m2 in range(4):
                d = DiscreteSum.from_half_ranges([m1, m2])
                for p in range(-d.span - 2, d.span + 3):
                    assert pmf_n2_closed(m1, m2, p) == d.pmf_tau(p)

    def test_validation(self):
        with pytest.raises(ValueError):
            pmf_n2_closed(-1, 1, 0)
        with pytest.raises(ValueError):
            pmf_n2_closed(1, True, 0)
        assert pmf_n2_closed(1, 2, 1.0) == pmf_n2_closed(1, 2, F(2, 2)) == F(1, 5)

    @pytest.mark.parametrize("m1, m2, p", [(1, 2, F(1, 2)), (1, 2, 2.5), (1, 2, True),
                                           (1, 2, "x"), (1, 2, float("nan")),
                                           (1.0, 2, 0), (1, F(2), 0)])
    def test_rejects_illegal_arguments(self, m1, m2, p):
        with pytest.raises(ValueError, match="must be an integer"):
            pmf_n2_closed(m1, m2, p)


class TestModel:
    def test_mass_norm(self):
        d = DiscreteSum.from_half_ranges([1, 2])
        assert d.mass_norm == F(1, 15)
        assert d.support() == (-3, 3)

    def test_point_mass_model(self):
        d = DiscreteSum.from_half_ranges([0])
        assert d.pmf_full() == {0: F(1)}

    def test_validation(self):
        with pytest.raises(ValueError):
            DiscreteComponent(-1)
        with pytest.raises(ValueError):
            DiscreteComponent(1.5)
        with pytest.raises(ValueError):
            DiscreteComponent(True)
        with pytest.raises(ValueError):
            DiscreteSum(())

    def test_measure_budget(self):
        pow2 = DiscreteSum.from_half_ranges(helpers.POW2_31)
        helpers.assert_refused_unbuilt(lambda: pow2.pmf_tau(0), 65 * 2 ** 15)
        helpers.assert_identical_components_work()
        # 1,024 identical components: 1,025 entries times 1,024 powers (top
        # exponent n - 1) on the direct loop
        identical = DiscreteSum.from_half_ranges([1] * 1024)
        helpers.assert_refused_unbuilt(lambda: identical.pmf_tau(0), 1025 * 1024)
        # refused before the O(n^2) expansion of the PMF polynomial, too
        identical = DiscreteSum.from_half_ranges([1] * 4096)
        helpers.assert_refused_unbuilt(lambda: identical.pmf_tau(0), 4097 * 4096)


class TestLaurent:
    @pytest.mark.parametrize("n", [*range(1, 41), 120])
    def test_matches_the_papers_laurent_sum(self, n):
        # the central factorial product over its norm, term by term against
        # (-1)^k B(n, k) / (n - 2k - 1)! * M / 2^(n - 1) from the series oracle
        d = DiscreteSum.from_half_ranges([j % 3 for j in range(n)])
        terms, divisor = d._laurent
        oracle = csc_series_oracle(n, (n - 1) // 2)
        assert [e for e, _ in terms] == [n - 2 * k - 1 for k in range(len(oracle))]
        for k, (e, coef) in enumerate(terms):
            want = (-1) ** k * oracle[k] / math.factorial(e) * d.mass_norm / 2 ** (n - 1)
            assert coef / divisor == want, (n, k)

    def test_pmf_reads_no_reciprocal_sine_row(self, monkeypatch):
        calls = helpers.record_rows(monkeypatch)
        d = DiscreteSum.from_half_ranges([1] * 500)
        assert d.pmf_tau(1 - d.span) == F(500, 3 ** 500)
        assert calls == []
