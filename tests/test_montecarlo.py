import hashlib
import json
import math
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import tailsum.combinatorics as combinatorics_mod
from tailsum import (
    DomainError,
    ExperimentConfig,
    Pareto,
    PowerEndpoint,
    QuadratureConfig,
    SortedSample,
    StretchedTail,
    TailWindow,
    adjudicate_covariance,
    covariance_closed,
    limit_covariance_quadrature,
    m_p_quadrature,
    replication_block,
    run_experiment,
    sample_iid,
    sample_top,
    sample_top_renyi,
    sum_product_ladder,
    tau_p,
    tau_p_at,
)
from tailsum.montecarlo import BLOCK, REFERENCE_COVARIANCE


def rep_seed(seed, rep):
    """The sample seed of a replication, written out to pin the stream."""
    digest = hashlib.sha256(f"{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class TestQuadratureOracle:
    def test_reference_values(self):
        assert limit_covariance_quadrature(1, 1) == pytest.approx(2.0, abs=1e-4)
        assert limit_covariance_quadrature(2, 3) == pytest.approx(10.0, abs=1e-3)
        assert limit_covariance_quadrature(3, 4) == pytest.approx(35.0, abs=5e-3)

    def test_matches_binomial_up_to_order_six(self):
        for r in range(1, 7):
            for rho in range(r, 7):
                value = limit_covariance_quadrature(r, rho)
                assert abs(value - covariance_closed(r, rho)) <= 1e-3

    def test_grid_refinement_self_check(self):
        cfg_a = QuadratureConfig(grid=1024, truncation=60.0)
        cfg_b = QuadratureConfig(grid=2048, truncation=60.0)
        for r, rho in [(1, 1), (2, 3), (4, 4)]:
            a = limit_covariance_quadrature(r, rho, cfg_a)
            b = limit_covariance_quadrature(r, rho, cfg_b)
            assert abs(a - b) < 1e-4

    def test_truncation_insensitivity(self):
        # same outer panel width on both truncations isolates the tail cutoff
        a = limit_covariance_quadrature(2, 2, QuadratureConfig(grid=512, truncation=40.0))
        b = limit_covariance_quadrature(2, 2, QuadratureConfig(grid=1024, truncation=80.0))
        assert a == pytest.approx(b, abs=5e-8)

    @staticmethod
    def plain_simpson(r, rho, config):
        """The oracle's Simpson sum with the integrand of both inner pieces
        built as a whole (g+1) x (g+1) matrix."""
        g, S = config.grid, config.truncation
        w = np.ones(g + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w /= 3.0
        s = np.linspace(0.0, S, g + 1)[:, None]
        u = np.linspace(0.0, 1.0, g + 1)[None, :]
        t_lo = s * u  # below the diagonal, over t in [0, s]
        t_hi = s + (S - s) * u  # above it, over t in [s, S]
        f_lo = np.exp(-s) * t_lo ** (rho - 1) / math.factorial(rho - 1)
        f_hi = np.exp(-t_hi) * t_hi ** (rho - 1) / math.factorial(rho - 1)
        inner = s[:, 0] * (f_lo @ (w / g)) + (S - s[:, 0]) * (f_hi @ (w / g))
        outer = w * (S / g) * s[:, 0] ** (r - 1) / math.factorial(r - 1)
        return float(outer @ inner)

    # at 190 the last chunk of rows is partial (63 rows); the others end in
    # a one-row chunk
    @pytest.mark.parametrize("grid", [64, 128, 190, 256])
    @pytest.mark.parametrize("truncation", [40.0, 60.0, 700.0])
    def test_matches_plain_simpson_sum(self, grid, truncation):
        config = QuadratureConfig(grid=grid, truncation=truncation)
        for r in range(1, 9):
            for rho in range(r, 9):
                want = self.plain_simpson(r, rho, config)
                assert limit_covariance_quadrature(r, rho, config) == pytest.approx(want, rel=1e-13)

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(grid=63)
        with pytest.raises(DomainError):
            QuadratureConfig(grid=130, truncation=10.0)
        with pytest.raises(DomainError):
            QuadratureConfig(grid=127)
        with pytest.raises(DomainError):
            QuadratureConfig(grid=100_000_000)
        for grid in (1024.0, "1024", None):
            with pytest.raises(DomainError, match="grid must be an integer"):
                QuadratureConfig(grid=grid)
        config = QuadratureConfig(grid=np.int64(130))
        assert limit_covariance_quadrature(2, 3, config) == limit_covariance_quadrature(
            2, 3, QuadratureConfig(grid=130)
        )
        for truncation in (math.nan, math.inf):
            with pytest.raises(DomainError):
                QuadratureConfig(truncation=truncation)
        for truncation in ("60", None, 60 + 0j):
            message = f"truncation must be a real number, got {truncation!r}"
            with pytest.raises(DomainError, match=re.escape(message)):
                QuadratureConfig(truncation=truncation)
        assert limit_covariance_quadrature(
            2, 3, QuadratureConfig(grid=130, truncation=np.float64(60.0))
        ) == limit_covariance_quadrature(2, 3, QuadratureConfig(grid=130))

    def test_truncation_upper_bound(self):
        assert QuadratureConfig(truncation=700.0).truncation == 700.0
        for truncation in (701.0, 5000.0, 1e300):
            with pytest.raises(DomainError):
                QuadratureConfig(truncation=truncation)

    def test_order_bounds(self):
        with pytest.raises(DomainError):
            limit_covariance_quadrature(0, 3)
        with pytest.raises(DomainError):
            limit_covariance_quadrature(2, 9)


class TestAdjudication:
    def test_consistent_pairs(self):
        rows = {tuple(row["orders"]): row for row in adjudicate_covariance(4)}
        assert rows[(1, 2)]["verdict"] == "consistent"
        assert rows[(1, 2)]["recursion"] == 3
        for r in range(1, 5):
            assert rows[(r, r)]["verdict"] == "consistent"

    def test_flagged_reference_cells(self):
        rows = {tuple(row["orders"]): row for row in adjudicate_covariance(4)}
        for pair, expected in [((2, 3), 10), ((2, 4), 15), ((3, 4), 35)]:
            row = rows[pair]
            assert row["verdict"] == "reference-discrepancy"
            assert row["recursion"] == expected
            assert row["closed_form"] == expected
            assert row["quadrature"] == pytest.approx(expected, rel=1e-3)
            assert row["reference"] == REFERENCE_COVARIANCE[pair]
            assert row["reference"] != expected

    def test_three_route_agreement(self):
        for row in adjudicate_covariance(5):
            assert row["recursion"] == row["closed_form"]
            assert row["quadrature"] == pytest.approx(row["closed_form"], rel=1e-3)

    def test_recursion_is_the_number_route(self, monkeypatch):
        # the recursion column comes from the number families, not from the
        # binomial the model is built from, so a wrong integer there shows
        def perturbed(pmax, _pass=combinatorics_mod._unit_covariances):
            cells = _pass(pmax)
            if (2, 3) in cells:
                cells[2, 3] += 1
            return cells

        monkeypatch.setattr(combinatorics_mod, "_unit_covariances", perturbed)
        rows = {tuple(row["orders"]): row for row in adjudicate_covariance(4)}
        assert rows[(2, 3)]["recursion"] == 11
        assert rows[(2, 3)]["closed_form"] == 10
        assert rows[(2, 3)]["verdict"] == "oracle-mismatch"
        others = [row["verdict"] for pair, row in rows.items() if pair != (2, 3)]
        assert "oracle-mismatch" not in others

    def test_pmax_bounds(self):
        with pytest.raises(DomainError):
            adjudicate_covariance(9)


class TestExperimentConfig:
    def test_validation(self):
        dist = Pareto(1.0)
        with pytest.raises(DomainError):
            ExperimentConfig(dist, 100, 100, 0, 2, 10, 1)
        with pytest.raises(DomainError):
            ExperimentConfig(dist, 100, 10, 0, 0, 10, 1)
        with pytest.raises(DomainError):
            ExperimentConfig(dist, 100, 10, 0, 2, 1, 1)
        with pytest.raises(DomainError):
            ExperimentConfig(dist, 100, 10, 0, 2, 10, 1, centering="other")


class TestRunExperiment:
    @pytest.mark.parametrize("dist", [Pareto(1.0), StretchedTail()])
    def test_unallocatable_run_rejected(self, dist):
        # numpy refuses 1e30 rows as an array size before it allocates
        # anything; no size that could really be allocated is tried here
        reps = 10**30
        message = rf"{8 * 3 * reps} bytes of ladders for reps = {reps}$"
        with pytest.raises(DomainError, match=message):
            run_experiment(ExperimentConfig(dist, 1000, 10, 0, 3, reps, 1))

    def test_deterministic_across_workers(self, monkeypatch):
        # Pareto's blocks share up to one thread per CPU, so the CPU count
        # sets the number of threads
        import tailsum.montecarlo as mc

        config = ExperimentConfig(Pareto(1.0), 2000, 100, 0, 2, 48, 11, centering="fixed")
        monkeypatch.setattr(mc, "MAX_THREADS", 8)
        reports = []
        for cpus in (1, 2, 8):
            monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            reports.append(run_experiment(config))
        for other in reports[1:]:
            assert np.array_equal(reports[0].covariance, other.covariance)
            assert np.array_equal(reports[0].means, other.means)
            assert json.dumps(reports[0].to_dict()) == json.dumps(other.to_dict())

    def test_deterministic_across_runs(self):
        config = ExperimentConfig(Pareto(1.0), 1000, 50, 0, 2, 16, 3, centering="random")
        a = run_experiment(config)
        b = run_experiment(config)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_two_replications_degenerate_path(self):
        config = ExperimentConfig(Pareto(1.0), 500, 40, 0, 2, 2, 1)
        report = run_experiment(config)
        assert report.covariance.shape == (2, 2)
        assert np.all(np.isfinite(report.means))
        assert len(report.comparisons) == 2 + 1 + 2  # variances, cov, means

    def test_report_structure(self):
        config = ExperimentConfig(Pareto(1.0), 1000, 80, 0, 3, 32, 5, centering="fixed")
        report = run_experiment(config)
        payload = report.to_dict()
        assert payload["centering"] == "fixed"
        assert len(payload["means"]) == 3
        assert len(payload["comparisons"]) == 3 + 3 + 3
        kinds = {c["quantity"] for c in report.comparisons}
        assert kinds == {"variance", "covariance", "mean"}
        assert payload["predicted_covariance"][0][0] == pytest.approx(1.0)

    def test_positive_l_window(self):
        config = ExperimentConfig(Pareto(1.0), 1000, 60, 5, 2, 16, 2, centering="random")
        report = run_experiment(config)
        assert np.all(np.isfinite(report.covariance))

    def test_normality_of_order_one_statistic(self):
        # the normalized order-1 statistic is a standardized mean of k
        # exponential spacings; its kurtosis at k=1000 sits near 3
        config = ExperimentConfig(
            Pareto(1.0), 3000, 1000, 0, 1, 5000, 17, centering="fixed"
        )
        window = TailWindow(3000, 1000, 0)
        taus = tau_p(Pareto(1.0), 1, window)
        z = replication_block(config, taus, 0, 5000)[:, 0]
        kurt = float(((z - z.mean()) ** 4).mean() / z.var() ** 2)
        assert abs(kurt - 3.0) <= 0.3

    def test_variance_matches_direct_moments(self):
        config = ExperimentConfig(Pareto(1.0), 800, 60, 0, 2, 50, 23, centering="fixed")
        report = run_experiment(config)
        window = TailWindow(800, 60, 0)
        taus = tau_p(Pareto(1.0), 2, window)
        z = replication_block(config, taus, 0, 50)
        assert report.variance(1) == pytest.approx(float(z[:, 0].var(ddof=1)))
        assert report.variance(2) == pytest.approx(float(z[:, 1].var(ddof=1)))

    @pytest.mark.parametrize(
        "dist, centering, l",
        [
            (Pareto(1.0), "random", 0),
            (Pareto(2.0), "fixed", 4),
            (StretchedTail(), "random", 0),
            (PowerEndpoint(1.5), "random", 3),
        ],
    )
    def test_matches_full_sample_loop(self, dist, centering, l):
        # reference: every replication runs the single-sample ladder on its
        # own sample: Pareto's whole sorted sample, and the top k+1 order
        # statistics the O(k) sampler draws for the light-tail families
        n, k, pmax, reps, seed = 3000, 150, 3, BLOCK + 7, 29
        config = ExperimentConfig(dist, n, k, l, pmax, reps, seed, centering=centering)
        window = TailWindow(n, k, l)
        taus = tau_p(dist, pmax, window)
        rows = []
        for rep in range(reps):
            if isinstance(dist, Pareto):
                sample = sample_iid(dist, rep_seed(seed, rep), n)
                ladder = sum_product_ladder(sample, window, pmax)
            else:
                sample = SortedSample(sample_top_renyi(dist, [rep_seed(seed, rep)], n, k)[0])
                ladder = sum_product_ladder(sample, TailWindow(k + 1, k, l), pmax)
            threshold = float(sample.values[-k - 1])
            center = taus if centering == "fixed" else tau_p_at(dist, pmax, window, threshold)
            rows.append(
                [math.sqrt(k) * (t - c) / tau for t, c, tau in zip(ladder, center, taus)]
            )
        expected = np.array(rows)
        assert np.allclose(replication_block(config, taus, 0, reps), expected, rtol=0, atol=1e-12)
        report = run_experiment(config)
        assert np.allclose(report.means, expected.mean(axis=0), rtol=0, atol=1e-12)
        assert np.allclose(report.covariance, np.cov(expected.T), rtol=0, atol=1e-12)

    def test_blocks_depend_on_replication_index_only(self):
        config = ExperimentConfig(Pareto(1.0), 1000, 50, 0, 2, 40, 9, centering="random")
        taus = tau_p(Pareto(1.0), 2, TailWindow(1000, 50, 0))
        whole = replication_block(config, taus, 0, 40)
        parts = np.vstack([replication_block(config, taus, lo, lo + 8) for lo in range(0, 40, 8)])
        assert np.array_equal(whole, parts)
        for lo, hi in [(5, 5), (6, 2), (-1, 3)]:
            with pytest.raises(DomainError):
                replication_block(config, taus, lo, hi)

    @pytest.mark.parametrize(
        "dist, n, k, l, falls_back",
        [
            (Pareto(1.0), 3000, 150, 0, False),
            # at k/n = 0.25 the recurrence's check fails and elements take quad
            (StretchedTail(), 1000, 250, 0, True),
            (PowerEndpoint(1.5), 3000, 150, 3, False),
        ],
    )
    def test_one_centering_call_per_run(self, monkeypatch, dist, n, k, l, falls_back):
        # a run centers every replication with one tau_p_at call, which gets
        # every threshold in index order and returns, bit for bit, what one
        # call per block returns
        import tailsum.distributions as distributions_mod
        import tailsum.montecarlo as mc

        calls, quadratures = [], []

        def recording(*args):
            centers = tau_p_at(*args)
            calls.append((args, centers))
            return centers

        def counting(*args):
            quadratures.append(args)
            return m_p_quadrature(*args)

        monkeypatch.setattr(mc, "tau_p_at", recording)
        monkeypatch.setattr(distributions_mod, "m_p_quadrature", counting)
        pmax, reps, seed = 3, BLOCK + 7, 31
        window = TailWindow(n, k, l)
        run_experiment(ExperimentConfig(dist, n, k, l, pmax, reps, seed, centering="fixed"))
        assert calls == []
        run_experiment(ExperimentConfig(dist, n, k, l, pmax, reps, seed))
        assert len(calls) == 1
        (got_dist, got_pmax, got_window, thresholds), centers = calls[0]
        assert (got_dist, got_pmax, got_window) == (dist, pmax, window)
        sampler = sample_top if isinstance(dist, Pareto) else sample_top_renyi
        expected = sampler(dist, [rep_seed(seed, rep) for rep in range(reps)], n, k)[:, 0]
        assert np.array_equal(thresholds, expected)
        assert bool(quadratures) == falls_back
        blocks = [tau_p_at(dist, pmax, window, thresholds[lo : lo + BLOCK])
                  for lo in range(0, reps, BLOCK)]
        assert np.array_equal(centers, np.concatenate(blocks))

    @pytest.mark.parametrize("dist", [StretchedTail(), PowerEndpoint(1.5)])
    def test_peak_memory_of_a_light_tail_run(self, dist):
        # the run's one centering call sees all 2000 thresholds at once, and
        # PowerEndpoint's rule holds thresholds x 128 temporaries, a slice at
        # a time; the run stays well inside the 16 MB that CI allows its RSS
        run_experiment(ExperimentConfig(dist, 100_000, 1000, 0, 3, 2, 1))  # warm-up: imports and caches
        tracemalloc.start()
        try:
            run_experiment(ExperimentConfig(dist, 100_000, 1000, 0, 3, 2000, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * 2**20, f"{peak / 2**20:.1f} MB"

    @pytest.mark.parametrize("dist", [StretchedTail(), PowerEndpoint(1.5)])
    def test_concurrent_light_tail_blocks_match_serial(self, dist):
        # each light-tail block draws from a generator of its own, so two
        # threads sampling disjoint blocks of one config at the same time get
        # the serial rows bit for bit; a short switch interval makes the
        # threads interleave within blocks
        n, k, pmax = 100_000, 1000, 3
        config = ExperimentConfig(dist, n, k, 0, pmax, 8 * BLOCK, 5)
        taus = tau_p(dist, pmax, TailWindow(n, k, 0))
        spans = [(lo, lo + BLOCK) for lo in range(0, 8 * BLOCK, BLOCK)]
        serial = {span: replication_block(config, taus, *span) for span in spans}
        barrier = threading.Barrier(2)

        def run(mine):
            barrier.wait(timeout=60)
            return [
                (span, replication_block(config, taus, *span)) for span in mine for _ in range(6)
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = [pool.submit(run, spans[i::2]) for i in range(2)]
                rows = [row for result in results for row in result.result(timeout=60)]
        finally:
            sys.setswitchinterval(interval)
        assert len(rows) == 6 * len(spans)
        for span, got in rows:
            assert np.array_equal(got, serial[span]), span

    def test_pool_is_sized_by_blocks(self, monkeypatch):
        import tailsum.montecarlo as mc

        sizes = []

        class RecordingPool(mc.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(mc, "ThreadPoolExecutor", RecordingPool)
        three_blocks = ExperimentConfig(Pareto(1.0), 300, 20, 0, 1, 2 * BLOCK + 1, 4)
        one_block = ExperimentConfig(Pareto(1.0), 300, 20, 0, 1, BLOCK, 4)
        # Pareto: as many threads as MAX_THREADS, the blocks, the usable CPUs
        # and the 8n-byte samples that fit in free memory allow; none below 2,
        # so none with one block
        sample = 8 * 300
        reports = []
        for cap, cpus, free, pools in (
            (2, 1, 10**9, []),
            (2, 2, 10**9, [2]),
            (2, 64, 10**9, [2]),
            (8, 64, 10**9, [3]),
            (8, 64, 2 * sample - 1, []),
            (8, 64, 2 * sample, [2]),
            (8, 64, 0, []),
        ):
            monkeypatch.setattr(mc, "MAX_THREADS", cap)
            monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: set(range(cpus)))
            monkeypatch.setattr(mc.os, "sysconf", {"SC_AVPHYS_PAGES": free, "SC_PAGE_SIZE": 1}.get)
            sizes.clear()
            reports.append(run_experiment(three_blocks).to_dict())
            run_experiment(one_block)
            assert sizes == pools, (cap, cpus, free)

        # inline where the platform tells neither the CPUs nor the free memory
        def unknown(name):
            raise ValueError(f"unrecognized configuration name {name!r}")

        monkeypatch.setattr(mc.os, "sysconf", unknown)
        reports.append(run_experiment(three_blocks).to_dict())
        monkeypatch.delattr(mc.os, "sched_getaffinity")
        reports.append(run_experiment(three_blocks).to_dict())
        assert sizes == []
        assert all(report == reports[0] for report in reports)

        # the light tails' O(k) blocks always run inline
        class RefusedPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a light-tail run started a thread pool")

        monkeypatch.setattr(mc, "ThreadPoolExecutor", RefusedPool)
        for dist in (StretchedTail(), PowerEndpoint(1.5)):
            run_experiment(ExperimentConfig(dist, 300, 20, 0, 1, 2 * BLOCK + 1, 4))


class TestWeibullDomainRun:
    def test_endpoint_variance(self):
        config = ExperimentConfig(
            PowerEndpoint(1.0, 2.0), 20_000, 500, 0, 1, 400, 13, centering="fixed"
        )
        report = run_experiment(config)
        assert report.variance(1) == pytest.approx(4 / 3, rel=0.15)
