import hashlib
import json
import math

import numpy as np
import pytest

from tailsum import (
    DomainError,
    ExperimentConfig,
    Pareto,
    PowerEndpoint,
    QuadratureConfig,
    StretchedTail,
    TailWindow,
    adjudicate_covariance,
    covariance_closed,
    limit_covariance_quadrature,
    replication_block,
    run_experiment,
    sample_iid,
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

    def test_config_validation(self):
        with pytest.raises(DomainError):
            QuadratureConfig(grid=63)
        with pytest.raises(DomainError):
            QuadratureConfig(grid=130, truncation=10.0)
        with pytest.raises(DomainError):
            QuadratureConfig(grid=127)
        for truncation in (math.nan, math.inf):
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
    def test_deterministic_across_workers(self):
        config = ExperimentConfig(Pareto(1.0), 2000, 100, 0, 2, 48, 11, centering="fixed")
        reports = [run_experiment(config, workers=w) for w in (1, 2, 8)]
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
        taus = [tau_p(Pareto(1.0), 1, window)]
        z = replication_block(config, taus, 0, 5000)[:, 0]
        kurt = float(((z - z.mean()) ** 4).mean() / z.var() ** 2)
        assert abs(kurt - 3.0) <= 0.3

    def test_variance_matches_direct_moments(self):
        config = ExperimentConfig(Pareto(1.0), 800, 60, 0, 2, 50, 23, centering="fixed")
        report = run_experiment(config)
        window = TailWindow(800, 60, 0)
        taus = [tau_p(Pareto(1.0), p, window) for p in (1, 2)]
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
        # reference: every replication sorts its whole sample and runs the
        # single-sample ladder
        n, k, pmax, reps, seed = 3000, 150, 3, BLOCK + 7, 29
        config = ExperimentConfig(dist, n, k, l, pmax, reps, seed, centering=centering)
        window = TailWindow(n, k, l)
        taus = [tau_p(dist, p, window) for p in range(1, pmax + 1)]
        rows = []
        for rep in range(reps):
            sample = sample_iid(dist, rep_seed(seed, rep), n)
            ladder = sum_product_ladder(sample, window, pmax)
            threshold = float(sample.values[n - k - 1])
            center = taus if centering == "fixed" else [
                tau_p_at(dist, p, window, threshold) for p in range(1, pmax + 1)
            ]
            rows.append(
                [math.sqrt(k) * (t - c) / tau for t, c, tau in zip(ladder, center, taus)]
            )
        expected = np.array(rows)
        assert np.allclose(replication_block(config, taus, 0, reps), expected, rtol=0, atol=1e-12)
        report = run_experiment(config, workers=2)
        assert np.allclose(report.means, expected.mean(axis=0), rtol=0, atol=1e-12)
        assert np.allclose(report.covariance, np.cov(expected.T), rtol=0, atol=1e-12)

    def test_blocks_depend_on_replication_index_only(self):
        config = ExperimentConfig(Pareto(1.0), 1000, 50, 0, 2, 40, 9, centering="random")
        taus = [tau_p(Pareto(1.0), p, TailWindow(1000, 50, 0)) for p in (1, 2)]
        whole = replication_block(config, taus, 0, 40)
        parts = np.vstack([replication_block(config, taus, lo, lo + 8) for lo in range(0, 40, 8)])
        assert np.array_equal(whole, parts)
        for lo, hi in [(5, 5), (6, 2), (-1, 3)]:
            with pytest.raises(DomainError):
                replication_block(config, taus, lo, hi)

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
        reference = run_experiment(three_blocks).to_dict()
        assert sizes == []  # one worker runs the blocks inline
        for workers in (2, 10**9):
            assert run_experiment(three_blocks, workers=workers).to_dict() == reference
        run_experiment(one_block, workers=10**9)
        assert sizes == [2, 3]

    def test_workers_must_be_positive(self):
        config = ExperimentConfig(Pareto(1.0), 300, 20, 0, 1, 4, 4)
        for workers in (0, -3):
            with pytest.raises(DomainError):
                run_experiment(config, workers=workers)


class TestWeibullDomainRun:
    def test_endpoint_variance(self):
        config = ExperimentConfig(
            PowerEndpoint(1.0, 2.0), 20_000, 500, 0, 1, 400, 13, centering="fixed"
        )
        report = run_experiment(config)
        assert report.variance(1) == pytest.approx(4 / 3, rel=0.15)
