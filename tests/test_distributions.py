import hashlib
import math
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy import integrate, stats

import tailsum.distributions
from tailsum import (
    DomainError,
    Pareto,
    PowerEndpoint,
    SortedSample,
    StretchedTail,
    TailWindow,
    m_p_quadrature,
    m_p_value,
    quantile,
    sample_iid,
    sample_top,
    sample_top_renyi,
    sum_product_ladder,
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


def endpoint_m_p_reference(dist, p, x):
    """m_p of a PowerEndpoint by adaptive quadrature of its defining
    integral, with the tail 1 - cdf at e^t written through the distance
    x0 - e^t to the endpoint, taken without cancellation."""
    norm = math.factorial(p - 1)

    def kernel(t):
        distance = -dist.x0 * math.expm1(t - dist.y_end)
        return (t - x) ** (p - 1) / norm * (distance / (dist.x0 - 1.0)) ** dist.gamma

    return integrate.quad(kernel, x, dist.y_end, epsabs=0.0, epsrel=1e-12, limit=200)[0]


def unit_shape_m_p(x0, p, x):
    """m_p of PowerEndpoint(1, x0) in closed form, in 40-digit decimals.

    With L = y_end - x and u the distance to the endpoint, the tail is
    x0 (1 - e^-u) / (x0 - 1), so m_p = x0 / (x0 - 1) (L^p/p! - J) with
    J = int_0^L (L-u)^(p-1)/(p-1)! e^-u du
      = e^-L sum_(m >= 0) L^(p+m) / ((p-1)! m! (p+m)),
    a series of positive terms.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        length = Decimal(math.log(x0)) - Decimal(x)
        term = length**p / math.factorial(p - 1)
        total, m = Decimal(0), 0
        while True:
            add = term / (p + m)
            total += add
            if m > length and add < total * Decimal("1e-35"):
                break
            m += 1
            term = term * length / m
        tail_part = (-length).exp() * total
        value = Decimal(x0) / (Decimal(x0) - 1) * (length**p / math.factorial(p) - tail_part)
    return float(value)


def stretched_m_p_reference(p, x):
    """m_p of StretchedTail as e^(-x^2) times adaptive quadrature of
    int_0^inf s^(p-1)/(p-1)! e^(-s(2x+s)) ds (t = x + s in the defining
    integral), with the kernel taken in logs so it never overflows."""

    def kernel(s):
        if s <= 0.0:
            return 1.0 if p == 1 else 0.0
        return math.exp((p - 1) * math.log(s) - math.lgamma(p) - s * (2.0 * x + s))

    value = integrate.quad(kernel, 0.0, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    return value * math.exp(-x * x)


@pytest.fixture
def quadrature_calls(monkeypatch):
    """The (dist, p, x) of every m_p_quadrature call the routes make."""
    calls = []
    original = tailsum.distributions.m_p_quadrature

    def counting(dist, p, x):
        calls.append((dist, p, x))
        return original(dist, p, x)

    monkeypatch.setattr(tailsum.distributions, "m_p_quadrature", counting)
    return calls


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
        # an off-by-one partition index still returns the right top k for
        # most draws; k = n // 3 at seed 37 (n = 257) is one where it does not
        for seed in range(40):
            n = (10, 257, 3000)[seed % 3]
            for k in (1, 2, n // 7, n // 3, n // 2, n - 1):
                full = sample_iid(dist, seed, n).values
                assert np.array_equal(sample_top(dist, [seed], n, k)[0], full[n - k - 1 :])

    @pytest.mark.parametrize("dist", TOP_DISTS)
    def test_matches_at_acceptance_scale(self, dist):
        n, k = 100_000, 1000
        for seed in (0, 20260810):
            full = sample_iid(dist, seed, n).values
            assert np.array_equal(sample_top(dist, [seed], n, k)[0], full[n - k - 1 :])

    @pytest.mark.parametrize("dist", TOP_DISTS)
    def test_block_rows_match_full_samples(self, dist):
        # row i of a block is the top of the full sample keyed by seeds[i];
        # permuted or repeated seeds give permuted or repeated rows
        n, k = 3000, 150
        seeds = [0, 37, 20260810, 2**64 - 1, 11]
        rows = sample_top(dist, seeds, n, k)
        assert rows.shape == (len(seeds), k + 1)
        assert rows.flags.c_contiguous
        for seed, row in zip(seeds, rows):
            assert np.array_equal(row, sample_iid(dist, seed, n).values[n - k - 1 :]), seed
        again = sample_top(dist, [seeds[3], seeds[0], seeds[3]], n, k)
        assert np.array_equal(again, rows[[3, 0, 3]])

    def test_block_holds_one_sample_of_words_at_a_time(self):
        # each of mc's threads draws blocks; the pool is sized by the 8n
        # bytes of one sample's raw words per thread
        n, k = 200_000, 10
        sample_top(Pareto(1.0), [0], n, k)  # warm-up
        tracemalloc.start()
        try:
            sample_top(Pareto(1.0), range(4), n, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 8 * n, peak

    def test_raw_words_convert_as_random(self):
        # sample_top converts raw words itself; if numpy ever maps Philox
        # words to doubles differently, this fails before the stream drifts.
        # n = 1, 3, 5 and 257 end inside a four-word Philox block
        philox = tailsum.distributions._philox
        for seed in (0, 1, 7, 20260810):
            for n in (1, 3, 5, 257, 100_000):
                words = philox("sample", seed).bit_generator.random_raw(n)
                u = philox("sample", seed).random(n)
                assert np.array_equal((words >> 11) * 2.0**-53, u)

    def test_window_rejected(self):
        for n, k in [(10, 0), (10, 10), (10, 11)]:
            with pytest.raises(DomainError):
                sample_top(Pareto(1.0), [1], n, k)

    def test_unallocatable_sample_rejected(self):
        # the 8e15 bytes of words fail at allocation, before any memory is
        # touched; numpy refuses 4e19 bytes and more than 2^63 words as an
        # array size; no size that could really be allocated is tried here
        for n in (10**15, 5 * 10**18, 10**20):
            with pytest.raises(DomainError, match=rf"{8 * n} bytes .* n = {n}$"):
                sample_top(Pareto(1.0), [1], n, 1000)


def top_features(top, pmax=3):
    """Threshold, maximum and T_1 .. T_pmax (l = 0) of top order statistics."""
    k = top.size - 1
    ladder = sum_product_ladder(SortedSample(top), TailWindow(k + 1, k, 0), pmax)
    return [top[0], top[-1], *ladder]


@pytest.mark.parametrize("sampler", [sample_top, sample_top_renyi])
def test_unallocatable_block_rejected(sampler):
    # a block of k+1 = 1e19 + 1 columns exceeds numpy's largest array, which
    # numpy refuses before it allocates anything
    n, k = 10**20, 10**19
    message = rf"{24 * (k + 1)} bytes of 3 rows of top order statistics at k = {k}$"
    with pytest.raises(DomainError, match=message):
        sampler(StretchedTail(), [1, 2, 3], n, k)


class TestRenyiSampler:
    # near x0 the log scale itself loses digits of the distance to the
    # endpoint (about 1e-12 relative at gamma 1.5, n = 1e5), so PowerEndpoint
    # is checked where the top order statistics keep their distance
    @pytest.mark.parametrize(
        "dist, n, k",
        [
            (Pareto(1.0), 100_000, 1000),
            (Pareto(2.5), 10**9, 1000),
            (StretchedTail(), 100_000, 1000),
            (StretchedTail(), 10**9, 1000),
            (StretchedTail(), 10, 9),
            (PowerEndpoint(1.5), 3000, 150),
            (PowerEndpoint(1.5), 20_000, 1000),
            (PowerEndpoint(3.0, 1.5), 100_000, 1000),
        ],
    )
    def test_tail_gives_back_survivals(self, dist, n, k):
        # q_j = S_j / (S_(k+1) + G), j = 1 .. k+1, from the sampler's own
        # stream: the survival values of the top order statistics, largest
        # first
        for seed in range(10):
            rng = tailsum.distributions._philox("top", seed)
            sums = np.cumsum(rng.standard_exponential(k + 1))
            q = sums / (sums[-1] + rng.standard_gamma(n - k))
            top = sample_top_renyi(dist, [seed], n, k)[0]
            assert top.shape == (k + 1,)
            assert np.all(np.diff(top) >= 0)
            assert np.allclose(dist.tail(top), q[::-1], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("dist", TOP_DISTS)
    def test_threshold_and_maximum_survivals_are_beta(self, dist):
        # the survival value of Y_(n-k,n) is the (k+1)-th smallest of n
        # uniforms, Beta(k+1, n-k); that of Y_(n,n) the smallest, Beta(1, n).
        # Survivals come from the raw-scale cdf, not from dist.tail
        n, k, reps = 100_000, 1000, 2000
        tops = sample_top_renyi(dist, range(reps), n, k)
        threshold = [1.0 - cdf(dist, math.exp(top[0])) for top in tops]
        maximum = [1.0 - cdf(dist, math.exp(top[-1])) for top in tops]
        assert stats.kstest(threshold, stats.beta(k + 1, n - k).cdf).pvalue >= 0.01
        assert stats.kstest(maximum, stats.beta(1, n).cdf).pvalue >= 0.01

    @pytest.mark.parametrize("dist", [StretchedTail(), PowerEndpoint(1.5)])
    def test_same_law_as_full_sample_top(self, dist):
        # two-sample KS against sample_top, whose streams are independent of
        # the O(k) sampler's for the same seeds
        n, k, reps = 100_000, 1000, 1000
        renyi = np.array([top_features(top) for top in sample_top_renyi(dist, range(reps), n, k)])
        full = np.array([top_features(top) for top in sample_top(dist, range(reps), n, k)])
        for name, a, b in zip(["threshold", "maximum", "T_1", "T_2", "T_3"], renyi.T, full.T):
            assert stats.ks_2samp(a, b).pvalue >= 0.01, name

    @pytest.mark.parametrize("dist", [*TOP_DISTS, PowerEndpoint(0.5), PowerEndpoint(3.0, 1.5)])
    @pytest.mark.parametrize("n, k", [(10, 9), (3000, 150), (100_000, 1000), (10**15, 1000)])
    def test_block_rows_match_fresh_generators(self, dist, n, k):
        # the block sampler re-keys one generator per row and maps the whole
        # block at once; each row must equal, bit for bit, a fresh generator
        # per seed followed by the one-row cumulative sum, division, tail
        # quantile and reversal.  At n = 1e15 every PowerEndpoint(0.5) value
        # rounds onto the endpoint, so there the rows cannot differ
        from tailsum.distributions import _philox

        def reference(seed):
            rng = _philox("top", seed)
            sums = np.cumsum(rng.standard_exponential(k + 1))
            q = sums / (sums[-1] + rng.standard_gamma(n - k))
            return dist._y_tail_quantile(q)[::-1]

        seeds = [0, 1, 37, 20260810, 2**63 + 5, 2**64 - 1, 11]
        rows = sample_top_renyi(dist, seeds, n, k)
        assert rows.shape == (len(seeds), k + 1)
        assert rows.flags.c_contiguous
        for seed, row in zip(seeds, rows):
            assert np.array_equal(row, reference(seed)), seed
            assert np.array_equal(sample_top_renyi(dist, [seed], n, k)[0], row), seed
        # permuted seeds give permuted rows, so no state carries from a row
        # to the next; a repeated seed gives equal rows
        order = [6, 2, 0, 5, 1, 4, 3]
        assert np.array_equal(sample_top_renyi(dist, [seeds[i] for i in order], n, k), rows[order])
        again = sample_top_renyi(dist, [seeds[3], seeds[3], seeds[1], seeds[3]], n, k)
        assert np.array_equal(again, rows[[3, 3, 1, 3]])

    def test_cost_does_not_grow_with_n(self):
        # sample_top would need 8e15 bytes here
        for dist in TOP_DISTS:
            top = sample_top_renyi(dist, [1], 10**15, 1000)
            assert top.shape == (1, 1001)
            assert np.all(np.isfinite(top))
            assert np.all(np.diff(top) >= 0)

    def test_window_rejected(self):
        for n, k in [(10, 0), (10, 10), (10, 11)]:
            with pytest.raises(DomainError):
                sample_top_renyi(StretchedTail(), [1], n, k)


class UniformDraws:
    """A stub family whose quantiles are the identity, so the samplers return
    their uniform or survival draws themselves: Philox-keyed draws and exact
    IEEE sums and quotients, never np.log or np.exp output, which may differ
    in the last bit between CPUs."""

    _y_quantile = _y_tail_quantile = staticmethod(np.copy)


# SHA-256 of the little-endian float64 bytes of each draw.  At n = 10 and
# k = 9 the Gamma(n-k) variate takes numpy's shape-1 path, elsewhere its
# Marsaglia-Tsang path
STREAM_DIGESTS = [
    ("sample_iid", lambda: sample_iid(UniformDraws(), 7, 64).values,
     "6b5068d4588248ffd0bc7b5e253bd9bd149ae3205abb21315b85591c5852fce5"),
    ("sample_iid", lambda: sample_iid(UniformDraws(), 20260810, 1000).values,
     "b707637cc4adaf8124e743e952eb49c28fb6a033d60649068181d24621449fcb"),
    ("sample_top", lambda: sample_top(UniformDraws(), [0, 1, 37], 257, 16),
     "e3aead3deda4725be67b689eac5ba0b90ee2002642d238594d163dcf47a35e02"),
    ("sample_top_renyi", lambda: sample_top_renyi(UniformDraws(), [0, 1, 37], 3000, 150),
     "e8d333dbbc9cbe0a5a3e02b4e695aa0a74c79d365d4c7ded6a051ed30edfeb88"),
    ("sample_top_renyi", lambda: sample_top_renyi(UniformDraws(), [5, 2**64 - 1], 10, 9),
     "094d8c5b9bddcce65160d229146ffc01abe2eafe63b4eba481167a0d18f22d0b"),
    ("sample_top_renyi", lambda: sample_top_renyi(UniformDraws(), [2**64 - 1], 10**15, 100),
     "e5bfb58f4a86100be608fe14b46c2b86b8416fcf7c3ef9f06171450a52f6cf9c"),
]


@pytest.mark.parametrize("name, draw, digest", STREAM_DIGESTS)
def test_sampler_streams_are_pinned(name, draw, digest):
    # every report's numbers follow from these streams, so a numpy release
    # that draws differently fails here rather than shifting reports silently
    got = hashlib.sha256(np.asarray(draw(), dtype="<f8").tobytes()).hexdigest()
    assert got == digest, f"the {name} stream changed under numpy {np.__version__}"


class TestIteratedTailIntegral:
    def test_pareto_closed_form(self):
        assert m_p_value(Pareto(1.0), 2, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert m_p_value(Pareto(2.0), 3, 0.0) == pytest.approx(0.125, rel=1e-14)
        assert m_p_value(Pareto(2.0), 1, 0.5) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-14)

    def test_pareto_beyond_float_range(self):
        assert m_p_value(Pareto(1e-300), 1, 0.0) == pytest.approx(1e300, rel=1e-15)
        with pytest.raises(DomainError):
            m_p_value(Pareto(1e-300), 2, 0.0)

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
        # the tail falls like W^gamma over the last stretch W before the
        # endpoint, so the values here span many decades
        dist = PowerEndpoint(8.0, 2.0)
        for frac in (1e-3, 1e-4, 1e-6):
            x = float(dist._y_quantile(1.0 - frac))
            for p in (1, 4):
                a = m_p_value(dist, p, x)
                b = m_p_quadrature(dist, p, x)
                assert a == pytest.approx(b, rel=1e-8)

    @pytest.mark.parametrize("gamma", [0.3, 1.0, 1.5, 3.0, 8.0, 20.0, 100.0])
    def test_endpoint_matches_reference(self, gamma):
        for x0 in (1.001, 2.0, 10.0, 1e3, 1e8):
            dist = PowerEndpoint(gamma, x0)
            for frac in (0.0, 0.5, 0.9, 0.99):
                x = frac * dist.y_end
                for p in range(1, 9):
                    expected = endpoint_m_p_reference(dist, p, x)
                    assert m_p_value(dist, p, x) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_endpoint_unit_shape_closed_form(self):
        for x0 in (1.5, 2.0, 10.0):
            dist = PowerEndpoint(1.0, x0)
            for frac in (0.0, 0.3, 0.7):
                x = frac * dist.y_end
                closed = (x0 * (dist.y_end - x) - (x0 - math.exp(x))) / (x0 - 1.0)
                assert m_p_value(dist, 1, x) == pytest.approx(closed, rel=1e-12, abs=0.0)

    def test_endpoint_huge_shape_near_unit_endpoint(self):
        # x0 - e^t is nearly linear on a support this short, so
        # m_1(0) ~ y_end / (gamma + 1)
        dist = PowerEndpoint(1000.0, 1.0 + 1e-9)
        value = m_p_value(dist, 1, 0.0)
        assert math.isfinite(value) and value > 0.0
        assert value == pytest.approx(dist.y_end / 1001.0, rel=1e-5, abs=0.0)

    def test_endpoint_huge_shape_series(self, quadrature_calls):
        # with eps = x0 - 1, e^t = 1 + t + t^2/2 + ... gives
        # m_p(0) = eps^p G(gamma+1)/G(gamma+p+1) (1 - p(p+1) eps/(2(p+gamma+1)))
        # up to O(eps^2) relative; the rule serves every element
        for gamma in (1000.0, 3000.0):
            for eps in (1e-9, 1e-7):
                dist = PowerEndpoint(gamma, 1.0 + eps)
                eps = dist.x0 - 1.0
                for p in range(1, 9):
                    log_lead = p * math.log(eps) + math.lgamma(gamma + 1) - math.lgamma(gamma + p + 1)
                    series = math.exp(log_lead) * (1.0 - p * (p + 1) * eps / (2.0 * (p + gamma + 1)))
                    assert m_p_value(dist, p, 0.0) == pytest.approx(series, rel=1e-10, abs=0.0)
        assert quadrature_calls == []

    def test_endpoint_unit_shape_higher_orders(self):
        for x0 in (1.5, 2.0, 10.0):
            dist = PowerEndpoint(1.0, x0)
            for p in (1, 2, 5, 30):
                for frac in (0.0, 0.5):
                    x = frac * dist.y_end
                    expected = unit_shape_m_p(x0, p, x)
                    assert m_p_value(dist, p, x) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_high_order_on_long_support(self):
        # h^p and (t - x)^(p-1) exceed the float range here, m_120 does not
        dist = PowerEndpoint(1.0, 1e300)
        expected = unit_shape_m_p(1e300, 120, 0.0)
        assert 1e141 < expected < 1e142
        assert m_p_value(dist, 120, 0.0) == pytest.approx(expected, rel=1e-10, abs=0.0)
        assert m_p_quadrature(dist, 120, 0.0) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_stretched_quadrature_at_high_order(self):
        # the kernel's (t - x)^119 overflowed on quad's unbounded range
        expected = stretched_m_p_reference(120, 1.73)
        assert m_p_quadrature(StretchedTail(), 120, 1.73) == pytest.approx(
            expected, rel=1e-9, abs=0.0
        )

    def test_endpoint_rule_falls_back_to_quadrature(self):
        # the 64- and 128-node rules disagree at gamma * ln(x0) this large
        dist = PowerEndpoint(100.0, 1e8)
        assert m_p_value(dist, 1, 0.0) == m_p_quadrature(dist, 1, 0.0)

    def test_quadrature_relative_tolerance_at_small_values(self):
        dist = PowerEndpoint(0.3, 2.0)
        x = 0.9 * dist.y_end
        expected = endpoint_m_p_reference(dist, 8, x)
        assert m_p_quadrature(dist, 8, x) == pytest.approx(expected, rel=1e-9, abs=0.0)

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
        # at n = 1e12 a threshold formed from 1 - k/n is 2.8e-8 off, and
        # from n of about 1e17 that difference rounds to 1
        sizes = [(1000, 50), (100_000, 1000), (10**12, 1000), (10**15, 1000), (10**20, 1000)]
        for n, k in sizes:
            w = TailWindow(n, k, 0)
            taus = tau_p(Pareto(2.0), 3, w)
            for p in (1, 2, 3):
                assert taus[p - 1] == pytest.approx(2.0 ** (-p), rel=1e-12)

    def test_threshold_form_matches_at_deterministic_point(self):
        w = TailWindow(5000, 200, 0)
        for dist in (Pareto(1.0), PowerEndpoint(1.0, 2.0)):
            x_n = float(dist._y_quantile(1.0 - w.k / w.n))
            assert tau_p_at(dist, 2, w, x_n) == pytest.approx(tau_p(dist, 2, w), rel=1e-12)

    def test_endpoint_centering_two_routes(self):
        dist = PowerEndpoint(1.0, 2.0)
        w = TailWindow(10_000, 100, 0)
        x_n = float(dist._y_quantile(1.0 - w.k / w.n))
        closed = tau_p(dist, 1, w)[0]
        quad = (w.n / w.k) * m_p_quadrature(dist, 1, x_n)
        assert closed == pytest.approx(quad, rel=1e-8)


class TestThresholdArrays:
    XS = [0.0, 0.01, 0.1, 0.5, 1.0, 1.5, 2.0, 2.15, 3.0, 4.0, 6.0, 10.0, 20.0, 26.0]

    def test_scalar_in_float_out(self):
        for dist in (Pareto(1.0), PowerEndpoint(1.5), StretchedTail()):
            assert type(m_p_value(dist, 2, 0.3)) is float
            assert type(m_p_value(dist, 2, np.float64(0.3))) is float
            assert m_p_value(dist, 2, np.array([0.3, 0.4])).shape == (2,)

    def test_pareto_array_is_scalar_bit_for_bit(self):
        # the scalar closed form as Pareto reports have always computed it
        xs = np.random.default_rng(5).uniform(0.0, 9.0, 500)
        for dist in (Pareto(1.0), Pareto(2.5), Pareto(0.3)):
            for p in (1, 2, 3, 8):
                scalar = [dist.gamma ** (-p) * math.exp(-dist.gamma * float(x)) for x in xs]
                assert np.array_equal(m_p_value(dist, p, xs), scalar)
                assert [m_p_value(dist, p, float(x)) for x in xs] == scalar

    def test_power_array_matches_scalar(self):
        for dist in (PowerEndpoint(1.5), PowerEndpoint(0.3, 10.0), PowerEndpoint(100.0, 1e8)):
            xs = np.linspace(0.0, 0.99, 34) * dist.y_end
            for p in (1, 2, 3, 8):
                values = m_p_value(dist, p, xs)
                for x, value in zip(xs, values):
                    assert value == pytest.approx(m_p_value(dist, p, float(x)), rel=1e-15, abs=0.0)

    def test_centering_array_matches_scalar(self):
        w = TailWindow(2000, 100, 0)
        xs = np.linspace(1.6, 1.9, 32)
        for dist in (Pareto(1.0), StretchedTail(), PowerEndpoint(1.5, 10.0)):
            ladder = tau_p_at(dist, 8, w, xs)
            assert ladder.shape == (32, 8)
            for x, row in zip(xs, ladder):
                assert row == pytest.approx(tau_p_at(dist, 8, w, float(x)), rel=1e-15, abs=0.0)
            # column p-1 of the ladder is order p on its own; StretchedTail's
            # ladder starts its recurrence deeper for the lower orders
            for p in range(1, 9):
                single = (w.n / w.k) * m_p_value(dist, p, xs)
                if isinstance(dist, StretchedTail):
                    assert ladder[:, p - 1] == pytest.approx(single, rel=1e-14, abs=0.0)
                else:
                    assert np.array_equal(ladder[:, p - 1], single)

    def test_power_slices_keep_every_bit(self):
        # thresholds beyond the rule's slice length, such as a whole mc run's,
        # go through the rule a slice at a time and keep the bits of a
        # block-sized call, for a flat array and a grid alike
        dist = PowerEndpoint(1.5)
        w = TailWindow(100_000, 1000, 0)
        size = 2 * tailsum.distributions._RULE_SLICE + 37
        xs = np.linspace(0.0, 0.99, size) * dist.y_end
        whole = tau_p_at(dist, 4, w, xs)
        blocks = [tau_p_at(dist, 4, w, xs[lo : lo + 32]) for lo in range(0, size, 32)]
        assert np.array_equal(whole, np.concatenate(blocks))
        grid = xs[: 37 * 56].reshape(37, 56)
        assert np.array_equal(tau_p_at(dist, 4, w, grid), whole[: 37 * 56].reshape(37, 56, 4))

    def test_stretched_matches_reference(self):
        for p in range(1, 31):
            values = m_p_value(StretchedTail(), p, np.array(self.XS))
            for x, value in zip(self.XS, values):
                expected = stretched_m_p_reference(p, x)
                assert value == pytest.approx(expected, rel=1e-10, abs=0.0), (p, x)

    def test_stretched_route_matches_erfcx_formula(self):
        # the former route: (sqrt(pi)/2) erfcx(x) e^(-x^2) r_1 ... r_(p-1),
        # the check on erfcx times the products of the passes started
        # pmax-1+60 and twice that deep.  x is on a dyadic grid, so x*x is
        # exact and e^(-x^2) carries only exp's own rounding; elsewhere the
        # rounded x*x moves it by up to ~x^2 ulp (5e-14 near x = 26)
        from scipy.special import erfcx

        pmax = 8
        xs = np.arange(26 * 1024 + 1) / 1024.0
        passes = []
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for depth in (pmax - 1 + 60, 2 * (pmax - 1 + 60)):
                ratio = 1.0 / (xs + np.sqrt(xs * xs + 2.0 * (depth + 1)))
                columns = [erfcx(xs)]
                for m in range(depth, 0, -1):
                    ratio = 1.0 / (2.0 * xs + 2.0 * (m + 1) * ratio)
                    if m < pmax:
                        columns.insert(1, ratio)
                passes.append(np.cumprod(np.stack(columns, axis=-1), axis=-1))
            coarse, fine = passes
            ok = np.isfinite(fine) & (fine > 0.0) & (np.abs(fine - coarse) <= 1e-12 * fine)
            expected = (0.5 * math.sqrt(math.pi)) * fine * np.exp(-xs * xs)[:, None]
        values, mask = StretchedTail()._m_route(pmax, xs)
        assert np.array_equal(mask, ok)
        assert 0 < ok.sum() < ok.size
        assert (expected[ok] >= np.finfo(float).tiny).all()
        assert values[ok] == pytest.approx(expected[ok], rel=1e-14, abs=0.0)

    def test_stretched_recurrence_needs_no_quadrature(self, quadrature_calls):
        xs = np.linspace(1.5, 6.0, 91)
        for p in range(1, 9):
            m_p_value(StretchedTail(), p, xs)
            m_p_value(StretchedTail(), p, float(xs[0]))
        tau_p_at(StretchedTail(), 8, TailWindow(2000, 100, 0), xs)
        assert quadrature_calls == []

    def test_fallback_elements_equal_quadrature(self, quadrature_calls):
        power = PowerEndpoint(100.0, 1e8)
        cases = [
            # the 64- and 128-node rules disagree at the first two
            (power, 1, np.array([0.0, 0.5, 0.9, 0.99]) * power.y_end, 2),
            # the recurrence's check fails at small thresholds
            (StretchedTail(), 2, np.array([0.0, 0.5, 2.15, 3.0]), 2),
        ]
        for dist, p, xs, fallbacks in cases:
            quadrature_calls.clear()
            values = m_p_value(dist, p, xs)
            assert [x for _, _, x in quadrature_calls] == list(xs[:fallbacks])
            for x, value in zip(xs[:fallbacks], values):
                assert value == m_p_quadrature(dist, p, float(x))
        # a ladder calls the quadrature at exactly the (threshold, order)
        # elements whose check fails, and only there
        w = TailWindow(2000, 100, 0)
        for dist, xs in [(power, cases[0][2]), (StretchedTail(), np.array([0.0, 0.5, 1.2, 1.4, 2.15]))]:
            _, ok = dist._m_route(4, xs)
            failing = [(float(xs[i]), p + 1) for i, p in zip(*np.nonzero(~ok))]
            assert 0 < len(failing) < ok.size
            quadrature_calls.clear()
            ladder = tau_p_at(dist, 4, w, xs)
            assert [(x, p) for _, p, x in quadrature_calls] == failing
            for x, p in failing:
                value = ladder[list(xs).index(x), p - 1]
                assert value == (w.n / w.k) * m_p_quadrature(dist, p, x)

    def test_unformable_rule_falls_back(self, quadrature_calls):
        # at gamma = 1e300 the Jacobi matrix is -1 on the diagonal and 0 off
        # it, so the rule's weights are NaN and every element takes the
        # quadrature
        power = PowerEndpoint(1e300)
        xs = np.array([0.0, 0.5]) * power.y_end
        values = m_p_value(power, 1, xs)
        assert [x for _, _, x in quadrature_calls] == list(xs)
        assert list(values) == [m_p_quadrature(power, 1, float(x)) for x in xs]

    def test_out_of_range_element_raises(self):
        for dist in (Pareto(1.0), PowerEndpoint(1.5), StretchedTail()):
            for bad in (-0.1, math.nan, dist.y_end, math.inf):
                with pytest.raises(DomainError):
                    m_p_value(dist, 1, np.array([0.2, bad, 0.3]))
