import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailsum import (
    DomainError,
    EnumerationBudgetError,
    SortedSample,
    TailWindow,
    UndefinedEstimateError,
    hill,
    index_estimate,
    log_transform,
    spacings,
    sum_product,
    sum_product_enum,
    sum_product_ladder,
    tail_index,
    tail_moment,
)

C = math.log(2.0)


@pytest.fixture
def equal_spacing():
    # five points with unit log-spacing log 2; window k=3, l=0
    return SortedSample(np.arange(5) * C), TailWindow(5, 3, 0)


def random_case(rng, max_window=None, force_l0=False):
    n = int(rng.integers(5, 200))
    y = np.sort(rng.exponential(size=n) + 0.1 * rng.integers(0, 2))
    k = int(rng.integers(2, n))
    l = 0 if force_l0 else int(rng.integers(0, k))
    if max_window is not None and k - l > max_window:
        l = k - max_window
    return SortedSample(y), TailWindow(n, k, l)


class TestLogTransform:
    def test_powers_of_e(self):
        s = log_transform([1.0, math.e, math.e**2])
        assert np.allclose(s.values, [0.0, 1.0, 2.0])
        assert not s.below_support

    def test_powers_of_two(self):
        s = log_transform([2.0, 4.0, 8.0])
        assert np.allclose(s.values, [C, 2 * C, 3 * C])

    def test_below_support_flag(self):
        s = log_transform([0.5, 2.0])
        assert s.below_support
        assert np.allclose(s.values, [-C, C])

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            log_transform([1.0, 0.0, 2.0])
        with pytest.raises(DomainError):
            log_transform([-1.0, 2.0])

    def test_sorts_unordered_input(self):
        s = log_transform([8.0, 2.0, 4.0])
        assert np.all(np.diff(s.values) >= 0)

    @pytest.mark.parametrize(
        "raw, shape", [(5.0, r"\(\)"), ([[1.0, 2.0], [3.0, 4.0]], r"\(2, 2\)")]
    )
    def test_rejects_non_vector_input(self, raw, shape):
        with pytest.raises(DomainError, match=f"one-dimensional, got shape {shape}"):
            log_transform(raw)


class TestWindowAndSpacings:
    def test_window_invariants(self):
        with pytest.raises(DomainError):
            TailWindow(5, 5, 0)
        with pytest.raises(DomainError):
            TailWindow(5, 3, 3)
        with pytest.raises(DomainError):
            TailWindow(5, 0, 0)

    def test_window_sample_mismatch(self):
        s = SortedSample(np.arange(4.0))
        with pytest.raises(DomainError):
            spacings(s, TailWindow(5, 3, 0))

    def test_basic_spacings(self):
        s = SortedSample(np.array([0.0, 1.0, 3.0, 6.0]))
        d = spacings(s, TailWindow(4, 2, 0))
        assert d.value(1) == 3.0
        assert d.value(2) == 2.0

    def test_constant_sample_is_degenerate(self):
        s = SortedSample(np.ones(6))
        d = spacings(s, TailWindow(6, 4, 0))
        assert d.is_degenerate
        assert np.all(d.values == 0.0)

    def test_full_window_length(self):
        s = SortedSample(np.sort(np.random.default_rng(0).random(9)))
        d = spacings(s, TailWindow(9, 8, 0))
        assert d.values.size == 8


class TestHill:
    def test_equal_spacing(self, equal_spacing):
        s, w = equal_spacing
        assert hill(s, w) == pytest.approx(2 * C, abs=1e-15)

    def test_arithmetic_sample(self):
        s = SortedSample(np.arange(10.0))
        assert hill(s, TailWindow(10, 3, 0)) == pytest.approx(2.0, abs=1e-15)

    def test_positive_l_drops_low_terms(self):
        s = SortedSample(np.arange(10.0))
        # l=1 drops the j=1 term: (2 + 3)/3
        assert hill(s, TailWindow(10, 3, 1)) == pytest.approx(5.0 / 3.0, abs=1e-15)

    def test_order_one_statistic_is_hill(self, equal_spacing):
        s, w = equal_spacing
        assert sum_product(s, w, 1) == pytest.approx(hill(s, w), abs=1e-15)
        assert sum_product_enum(s, w, 1) == pytest.approx(hill(s, w), abs=1e-15)


class TestSumProduct:
    def test_equal_spacing_order_two(self, equal_spacing):
        s, w = equal_spacing
        expected = 7 * C * C / 3
        assert sum_product(s, w, 2) == pytest.approx(expected, rel=1e-14)
        assert sum_product_enum(s, w, 2) == pytest.approx(expected, rel=1e-14)
        assert tail_moment(s, w, 2) == pytest.approx(expected, rel=1e-14)

    def test_invalid_order(self, equal_spacing):
        s, w = equal_spacing
        with pytest.raises(DomainError):
            sum_product(s, w, 0)
        with pytest.raises(DomainError):
            sum_product_enum(s, w, 0)

    def test_algorithm_equivalence_random_samples(self):
        rng = np.random.default_rng(1234)
        caps = {1: 60, 2: 60, 3: 30, 4: 20, 5: 14}
        for trial in range(60):
            p = int(rng.integers(1, 6))
            s, w = random_case(rng, max_window=caps[p], force_l0=(trial % 2 == 0))
            fast = sum_product(s, w, p)
            naive = sum_product_enum(s, w, p)
            assert abs(fast - naive) <= 1e-10 * max(1.0, abs(fast))
            if w.l == 0:
                moment = tail_moment(s, w, p)
                assert abs(fast - moment) <= 1e-10 * max(1.0, abs(fast))

    def test_moment_form_requires_l_zero(self):
        s = SortedSample(np.arange(6.0))
        with pytest.raises(DomainError):
            tail_moment(s, TailWindow(6, 4, 1), 2)

    def test_moment_form_order_one_is_hill(self):
        rng = np.random.default_rng(5)
        s, w = random_case(rng, force_l0=True)
        assert tail_moment(s, w, 1) == pytest.approx(hill(s, w), rel=1e-12)

    def test_constant_sample_gives_zero(self):
        s = SortedSample(np.ones(8))
        w = TailWindow(8, 5, 0)
        for p in (1, 2, 3):
            assert sum_product(s, w, p) == 0.0
            assert tail_moment(s, w, p) == 0.0

    def test_enumeration_budget(self):
        y = np.sort(np.random.default_rng(2).exponential(size=150))
        s = SortedSample(y)
        with pytest.raises(EnumerationBudgetError):
            sum_product_enum(s, TailWindow(150, 149, 0), 5)

    @given(shift=st.floats(-5, 5, allow_nan=False), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_shift_invariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        s, w = random_case(rng, max_window=20)
        shifted = SortedSample(s.values + shift)
        for p in (1, 2, 3):
            assert sum_product(shifted, w, p) == pytest.approx(
                sum_product(s, w, p), rel=1e-8, abs=1e-12
            )

    @given(scale=st.floats(0.1, 10, allow_nan=False), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_scale_equivariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        s, w = random_case(rng, max_window=20)
        scaled = SortedSample(s.values * scale)
        for p in (1, 2, 3):
            assert sum_product(scaled, w, p) == pytest.approx(
                scale**p * sum_product(s, w, p), rel=1e-10
            )

    @given(seed=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_non_negative(self, seed):
        rng = np.random.default_rng(seed)
        s, w = random_case(rng, max_window=25)
        for p in (1, 2, 4):
            t = sum_product(s, w, p)
            assert t >= 0.0
            assert (t == 0.0) == spacings(s, w).is_degenerate


class TestLadder:
    def test_single_entry_is_hill(self, equal_spacing):
        s, w = equal_spacing
        assert sum_product_ladder(s, w, 1) == [pytest.approx(2 * C, abs=1e-15)]

    def test_fixture_ladder(self, equal_spacing):
        s, w = equal_spacing
        ladder = sum_product_ladder(s, w, 2)
        assert ladder[0] == pytest.approx(2 * C, rel=1e-14)
        assert ladder[1] == pytest.approx(7 * C * C / 3, rel=1e-14)

    def test_normalizer_beyond_float_range(self):
        # k * pmax! is about 7.3e308 at k = 100, pmax = 170, above the
        # largest float; at k = 20 it is still representable
        s = SortedSample(np.arange(101.0) / 100)
        with pytest.raises(DomainError):
            sum_product_ladder(s, TailWindow(101, 100, 0), 170)
        ladder = sum_product_ladder(SortedSample(s.values[:21]), TailWindow(21, 20, 0), 170)
        assert len(ladder) == 170
        assert all(math.isfinite(t) and t >= 0.0 for t in ladder)

    def test_entries_match_individual_calls(self):
        rng = np.random.default_rng(99)
        s, w = random_case(rng)
        ladder = sum_product_ladder(s, w, 5)
        for p in range(1, 6):
            assert ladder[p - 1] == sum_product(s, w, p)


class TestBatchedLadder:
    # the closed form is vectorized over leading axes: one row per sample,
    # holding its top k+1 order statistics
    def test_rows_match_single_sample_ladder(self):
        from tailsum.estimators import _ladder_values

        rng = np.random.default_rng(8)
        k, pmax = 40, 5
        block = np.sort(rng.exponential(size=(12, k + 1)), axis=-1)
        for l in (0, 3, k - 1):
            batched = _ladder_values(block, l, pmax)
            assert batched.shape == (12, pmax)
            window = TailWindow(k + 1, k, l)
            for row, values in zip(block, batched):
                assert values.tolist() == sum_product_ladder(SortedSample(row), window, pmax)

    def test_rows_match_enumeration_with_positive_l(self):
        from tailsum.estimators import _ladder_values

        rng = np.random.default_rng(21)
        for trial in range(30):
            k = int(rng.integers(3, 13))
            l = int(rng.integers(1, k))
            pmax = int(rng.integers(1, 5))
            block = np.sort(rng.pareto(1.5, size=(4, k + 1)), axis=-1)
            batched = _ladder_values(block, l, pmax)
            window = TailWindow(k + 1, k, l)
            for row, values in zip(block, batched):
                for p in range(1, pmax + 1):
                    naive = sum_product_enum(SortedSample(row), window, p)
                    assert abs(values[p - 1] - naive) <= 1e-10 * max(1.0, abs(naive))


class TestTailIndex:
    def test_quarter_statistic(self):
        # scale a sample so the order-2 statistic is exactly 0.25
        s = SortedSample(np.array([0.0, 1.0, 2.0, 3.0]))
        w = TailWindow(4, 2, 0)
        t = sum_product(s, w, 2)
        quarter = SortedSample(s.values * math.sqrt(0.25 / t))
        assert sum_product(quarter, w, 2) == pytest.approx(0.25, rel=1e-12)
        assert tail_index(quarter, w, 2) == pytest.approx(2.0, rel=1e-12)

    def test_unit_statistic(self):
        # scale the sample so the order-2 statistic is exactly 1
        s = SortedSample(np.array([0.0, 1.0, 2.0, 3.0]))
        w = TailWindow(4, 2, 0)
        t = sum_product(s, w, 2)
        scaled = SortedSample(s.values / math.sqrt(t))
        assert tail_index(scaled, w, 2) == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_window(self):
        s = SortedSample(np.ones(5))
        with pytest.raises(UndefinedEstimateError):
            tail_index(s, TailWindow(5, 3, 0), 1)

    def test_overflowing_estimate(self):
        # the order-1 statistic is 5e-321, whose reciprocal is not a float
        s = SortedSample([0.0, 0.0, 1e-320])
        with pytest.raises(UndefinedEstimateError):
            tail_index(s, TailWindow(3, 2, 0), 1)

    def test_index_estimate_of_a_value(self):
        assert index_estimate(0.25, 2) == pytest.approx(2.0, rel=1e-15)
        for t in (0.0, 5e-321):
            with pytest.raises(UndefinedEstimateError):
                index_estimate(t, 1)
