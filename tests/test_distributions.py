import math

import numpy as np
import pytest
from scipy import integrate

from tailsum import (
    DomainError,
    Pareto,
    PowerEndpoint,
    StretchedTail,
    TailWindow,
    m_p_quadrature,
    m_p_value,
    quantile,
    sample_iid,
    sample_top,
    tau_p,
    tau_p_at,
)


def cdf(dist, x):
    """Distribution function on the raw scale, written out independently."""
    if isinstance(dist, Pareto):
        return 1.0 - x ** (-dist.gamma)
    if isinstance(dist, PowerEndpoint):
        return 1.0 - ((dist.x0 - x) / (dist.x0 - 1.0)) ** dist.gamma
    return 1.0 - math.exp(-math.log(x) ** 2)


DISTS = [Pareto(1.0), Pareto(2.0), PowerEndpoint(1.0, 2.0), PowerEndpoint(2.0, 3.0), StretchedTail()]


class TestQuantile:
    def test_examples(self):
        assert quantile(Pareto(2.0), 0.75) == pytest.approx(2.0, rel=1e-14)
        assert quantile(PowerEndpoint(1.0, 2.0), 0.5) == pytest.approx(1.5, rel=1e-14)
        assert quantile(StretchedTail(), 1 - math.exp(-1)) == pytest.approx(math.e, rel=1e-12)

    @pytest.mark.parametrize("dist", DISTS)
    def test_inverse_of_cdf(self, dist):
        us = np.linspace(1e-4, 1 - 1e-4, 1000)
        xs = quantile(dist, us)
        back = np.array([cdf(dist, x) for x in xs])
        assert np.max(np.abs(back - us)) <= 1e-12

    def test_rejects_boundary(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                quantile(Pareto(1.0), bad)

    def test_invalid_parameters(self):
        with pytest.raises(DomainError):
            Pareto(0.0)
        with pytest.raises(DomainError):
            PowerEndpoint(1.0, 1.0)
        with pytest.raises(DomainError):
            PowerEndpoint(-1.0, 2.0)


class TestSampler:
    def test_bit_identical_repeats(self):
        a = sample_iid(Pareto(1.0), 314, 10)
        b = sample_iid(Pareto(1.0), 314, 10)
        assert np.array_equal(a.values, b.values)

    def test_seed_sensitivity(self):
        a = sample_iid(Pareto(1.0), 314, 10)
        b = sample_iid(Pareto(1.0), 315, 10)
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("dist", DISTS)
    def test_sorted_output(self, dist):
        s = sample_iid(dist, 7, 500)
        assert np.all(np.diff(s.values) >= 0)
        assert not s.below_support  # all three families have F(1) = 0

    def test_pareto_log_mean(self):
        # log-scale observations are unit exponential
        s = sample_iid(Pareto(1.0), 99, 100_000)
        assert float(s.values.mean()) == pytest.approx(1.0, abs=0.02)

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            sample_iid(Pareto(1.0), 1, 1)

    def test_generator_key_is_little_endian(self):
        # the first 16 bytes of sha256(b"sample:7"), read as two
        # little-endian words on every host
        from tailsum.distributions import _philox

        key = _philox("sample", 7).bit_generator.state["state"]["key"]
        assert key.tolist() == [10490813079733592494, 2261213667301508236]


TOP_DISTS = [Pareto(1.0), StretchedTail(), PowerEndpoint(1.5)]


class TestTopSampler:
    @pytest.mark.parametrize("dist", TOP_DISTS)
    def test_matches_full_sample_tail(self, dist):
        for seed in range(40):
            n = (10, 257, 3000)[seed % 3]
            for k in (1, 2, n // 7, n // 2, n - 1):
                full = sample_iid(dist, seed, n).values
                assert np.array_equal(sample_top(dist, seed, n, k), full[n - k - 1 :])

    @pytest.mark.parametrize("dist", TOP_DISTS)
    def test_matches_at_acceptance_scale(self, dist):
        n, k = 100_000, 1000
        for seed in (0, 20260810):
            full = sample_iid(dist, seed, n).values
            assert np.array_equal(sample_top(dist, seed, n, k), full[n - k - 1 :])

    def test_window_rejected(self):
        for n, k in [(10, 0), (10, 10), (10, 11)]:
            with pytest.raises(DomainError):
                sample_top(Pareto(1.0), 1, n, k)


class TestIteratedTailIntegral:
    def test_pareto_closed_form(self):
        assert m_p_value(Pareto(1.0), 2, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert m_p_value(Pareto(2.0), 3, 0.0) == pytest.approx(0.125, rel=1e-14)
        assert m_p_value(Pareto(2.0), 1, 0.5) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)

    def test_stretched_tail_base_integral(self):
        assert m_p_value(StretchedTail(), 1, 0.0) == pytest.approx(
            math.sqrt(math.pi) / 2, rel=1e-8
        )

    @pytest.mark.parametrize("dist", [PowerEndpoint(1.0, 2.0), PowerEndpoint(3.0, 2.5)])
    def test_endpoint_closed_form_vs_quadrature(self, dist):
        for p in (1, 2, 3, 4):
            for frac in (0.0, 0.35, 0.9):
                x = frac * dist.y_end
                a = m_p_value(dist, p, x)
                b = m_p_quadrature(dist, p, x)
                assert a == pytest.approx(b, rel=1e-8, abs=1e-20)

    def test_non_integer_shape_falls_back(self):
        dist = PowerEndpoint(1.5, 2.0)
        a = m_p_value(dist, 2, 0.1)
        b = m_p_quadrature(dist, 2, 0.1)
        assert a == pytest.approx(b, rel=1e-10)

    def test_large_shape_near_endpoint(self):
        # the binomial expansion cancels like W^-gamma here; the guard must
        # hand off to quadrature instead of returning a digit-starved sum
        dist = PowerEndpoint(8.0, 2.0)
        for frac in (1e-3, 1e-4, 1e-6):
            x = float(dist._y_quantile(1.0 - frac))
            for p in (1, 4):
                a = m_p_value(dist, p, x)
                b = m_p_quadrature(dist, p, x)
                assert a == pytest.approx(b, rel=1e-8)

    @pytest.mark.parametrize("dist", [Pareto(1.5), PowerEndpoint(1.0, 2.0), StretchedTail()])
    def test_defining_recursion(self, dist):
        # m_p(x) must integrate m_{p-1} from x to the support end
        x = 0.15 if dist.y_end == math.inf else 0.15 * dist.y_end
        upper = min(dist.y_end, 40.0)
        for p in (2, 3, 4):
            direct = m_p_value(dist, p, x)
            nested = integrate.quad(
                lambda t: m_p_value(dist, p - 1, t), x, upper, epsabs=1e-13, epsrel=1e-10
            )[0]
            assert direct == pytest.approx(nested, rel=1e-7)

    @pytest.mark.parametrize("dist", [Pareto(1.0), PowerEndpoint(2.0, 2.0), StretchedTail()])
    def test_decreasing_in_threshold(self, dist):
        top = 3.0 if dist.y_end == math.inf else dist.y_end
        xs = np.linspace(0.0, 0.95 * top, 25)
        for p in (1, 3):
            vals = [m_p_value(dist, p, float(x)) for x in xs]
            assert all(a >= b > 0 for a, b in zip(vals, vals[1:]))

    def test_threshold_beyond_support(self):
        dist = PowerEndpoint(1.0, 2.0)
        with pytest.raises(DomainError):
            m_p_value(dist, 1, dist.y_end)
        with pytest.raises(DomainError):
            m_p_value(Pareto(1.0), 1, -0.5)


class TestCentering:
    def test_pareto_centering_is_constant(self):
        for n, k in [(1000, 50), (100_000, 1000)]:
            w = TailWindow(n, k, 0)
            for p in (1, 2, 3):
                assert tau_p(Pareto(2.0), p, w) == pytest.approx(2.0 ** (-p), rel=1e-12)

    def test_threshold_form_matches_at_deterministic_point(self):
        w = TailWindow(5000, 200, 0)
        for dist in (Pareto(1.0), PowerEndpoint(1.0, 2.0)):
            x_n = float(dist._y_quantile(1.0 - w.k / w.n))
            for p in (1, 2):
                assert tau_p_at(dist, p, w, x_n) == pytest.approx(tau_p(dist, p, w), rel=1e-12)

    def test_endpoint_centering_two_routes(self):
        dist = PowerEndpoint(1.0, 2.0)
        w = TailWindow(10_000, 100, 0)
        x_n = float(dist._y_quantile(1.0 - w.k / w.n))
        closed = tau_p(dist, 1, w)
        quad = (w.n / w.k) * m_p_quadrature(dist, 1, x_n)
        assert closed == pytest.approx(quad, rel=1e-8)
