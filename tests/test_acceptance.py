"""Acceptance suite.

Each test exercises one release criterion end to end at its stated
tolerance and prints a single PASS line on success.  The Monte Carlo
criteria run at a fixed desk scale (n = 100000, k = 1000) and take a
couple of minutes in total.
"""

import json
import math
import re
import time

import numpy as np

from tailsum import (
    ExperimentConfig,
    Pareto,
    PowerEndpoint,
    TailWindow,
    adjudicate_covariance,
    index_estimate,
    run_experiment,
    sample_iid,
    sum_product_enum,
    sum_product_ladder,
    type_i,
    type_ii,
    variance_number,
)
from tailsum.cli import main as cli_main

SEED = 20260810


def report(line):
    print(f"\n[PASS] {line}")


# criterion 1 ---------------------------------------------------------------

# the printed 10x10 triangular table with its handful of misprinted cells
# corrected from the defining recursion (see tests/test_combinatorics.py
# for the cell-level provenance)
TYPE_I_TABLE = {
    0: [1, 1, 1, 2, 5, 14, 42, 132, 429, 1430],
    1: [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862],
    2: [1, 1, 3, 9, 28, 90, 297, 1001, 3432, 11934],
    3: [1, 1, 4, 14, 48, 165, 572, 2002, 7072],
    4: [1, 1, 5, 20, 75, 275, 1001, 3640],
    5: [1, 1, 6, 27, 110, 429, 1638],
    6: [1, 1, 7, 35, 154, 637],
    7: [1, 1, 8, 44, 208],
    8: [1, 1, 9, 54],
    9: [1, 1, 10],
    10: [1, 1, 11],
}


def test_criterion_1_table_regression():
    start = time.perf_counter()
    for v, row in TYPE_I_TABLE.items():
        for idx, expected in enumerate(row):
            assert type_i(v, idx + 1) == expected, (v, idx + 1)
    assert type_i(3, 4) == 14 and type_i(4, 4) == 20 and type_i(0, 10) == 1430
    # second-family tables for the first two classes
    assert [type_ii(1, v, 1) for v in range(6)] == [1] * 6
    assert [type_ii(2, v, 1) for v in range(6)] == [1, 2, 3, 4, 5, 6]
    assert [type_ii(2, v, 2) for v in range(6)] == [1] * 6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"criterion 1: number-table regression ({elapsed:.3f}s)")


# criterion 2 ---------------------------------------------------------------


def test_criterion_2_catalan_and_central_binomial():
    start = time.perf_counter()
    catalan = lambda m: math.comb(2 * m, m) // (m + 1)
    for r in range(2, 13):
        assert type_i(0, r) == catalan(r - 2)
        assert type_i(1, r) == catalan(r - 1)
    for r in range(11):
        assert variance_number(r) == math.comb(2 * r, r)
    assert [variance_number(r) for r in (1, 2, 3, 4)] == [2, 6, 20, 70]
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"criterion 2: closed-form integer identities ({elapsed:.3f}s)")


# criterion 3 ---------------------------------------------------------------


def test_criterion_3_estimator_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    caps = {1: 60, 2: 60, 3: 30, 4: 20, 5: 14}
    checked_l0 = 0
    for trial in range(200):
        n = int(rng.integers(5, 201))
        body = rng.exponential(size=n) if trial % 3 else rng.pareto(1.5, size=n)
        y = np.sort(body)
        p = int(rng.integers(1, 6))
        if trial % 2 == 0:
            # keep the whole window below the enumeration cap so l stays 0
            l = 0
            k = int(rng.integers(2, min(n, caps[p] + 1)))
        else:
            k = int(rng.integers(2, n))
            l = int(rng.integers(0, k))
            if k - l > caps[p]:
                l = k - caps[p]
        from tailsum import SortedSample

        sample = SortedSample(y)
        window = TailWindow(n, k, l)
        fast = sum_product_ladder(sample, window, p)[p - 1]
        naive = sum_product_enum(sample, window, p)
        assert abs(fast - naive) <= 1e-10 * max(1.0, abs(fast)), (n, k, l, p)
        # at l = 0 the statistic is the moment form of the whole window
        checked_l0 += l == 0
    assert checked_l0 >= 80
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(
        f"criterion 3: 200-sample closed form vs enumeration, {checked_l0} at l = 0 ({elapsed:.1f}s)"
    )


# criterion 4 ---------------------------------------------------------------


def test_criterion_4_covariance_adjudication():
    start = time.perf_counter()
    rows = {tuple(r["orders"]): r for r in adjudicate_covariance(6)}
    for (r, rho), row in rows.items():
        closed = row["closed_form"]
        assert row["recursion"] == closed
        assert abs(row["quadrature"] - closed) <= 1e-3 * closed
    # matching printed cells
    for pair, value in [((1, 2), 3), ((1, 3), 4), ((1, 4), 5)]:
        assert rows[pair]["reference"] == value
        assert rows[pair]["verdict"] == "consistent"
    # contradicted printed cells
    for pair, printed, expected in [
        ((2, 3), 9, 10),
        ((2, 4), 11, 15),
        ((3, 4), 29, 35),
    ]:
        assert rows[pair]["reference"] == printed
        assert rows[pair]["recursion"] == expected
        assert rows[pair]["verdict"] == "reference-discrepancy"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"criterion 4: three-route covariance adjudication ({elapsed:.1f}s)")


# criterion 5 ---------------------------------------------------------------


def test_criterion_5_random_threshold_limit():
    start = time.perf_counter()
    config = ExperimentConfig(
        dist=Pareto(1.0), n=100_000, k=1000, l=0, pmax=3, reps=2000,
        seed=SEED, centering="random",
    )
    rep = run_experiment(config)
    targets = {1: (2.0, 0.10), 2: (6.0, 0.10), 3: (20.0, 0.15)}
    for p, (target, tol) in targets.items():
        observed = rep.variance(p)
        assert abs(observed - target) <= tol * target, (p, observed)
    cov12 = float(rep.covariance[0, 1])
    assert abs(cov12 - 3.0) <= 0.15 * 3.0, cov12
    elapsed = time.perf_counter() - start
    report(
        "criterion 5: random-threshold variances "
        f"{[round(rep.variance(p), 3) for p in (1, 2, 3)]} vs (2, 6, 20), "
        f"cov(1,2)={cov12:.3f} vs 3 ({elapsed:.0f}s)"
    )


# criterion 6 ---------------------------------------------------------------


def test_criterion_6_fixed_threshold_limit():
    start = time.perf_counter()
    config = ExperimentConfig(
        dist=Pareto(1.0), n=100_000, k=1000, l=0, pmax=2, reps=2000,
        seed=SEED, centering="fixed",
    )
    rep = run_experiment(config)
    for p, target in [(1, 1.0), (2, 5.0)]:
        observed = rep.variance(p)
        assert abs(observed - target) <= 0.10 * target, (p, observed)
    cov12 = float(rep.covariance[0, 1])
    assert abs(cov12 - 2.0) <= 0.15 * 2.0, cov12
    assert np.all(np.abs(rep.means) <= 0.1), rep.means

    endpoint = ExperimentConfig(
        dist=PowerEndpoint(1.0, 2.0), n=100_000, k=1000, l=0, pmax=1, reps=2000,
        seed=SEED, centering="fixed",
    )
    repw = run_experiment(endpoint)
    target = 4.0 / 3.0
    observed = repw.variance(1)
    assert abs(observed - target) <= 0.15 * target, observed
    elapsed = time.perf_counter() - start
    report(
        "criterion 6: fixed-threshold variances "
        f"({rep.variance(1):.3f}, {rep.variance(2):.3f}) vs (1, 5), "
        f"cov(1,2)={cov12:.3f} vs 2, short-tail var {observed:.3f} vs 4/3 ({elapsed:.0f}s)"
    )


# criterion 7 ---------------------------------------------------------------


def test_criterion_7_index_consistency():
    start = time.perf_counter()
    dist = Pareto(2.0)
    window = TailWindow(100_000, 1000, 0)
    sums = {1: 0.0, 2: 0.0, 3: 0.0}
    reps = 200
    for r in range(reps):
        sample = sample_iid(dist, SEED * 1000 + r, 100_000)
        ladder = sum_product_ladder(sample, window, 3)
        for p in (1, 2, 3):
            sums[p] += index_estimate(ladder[p - 1], p)
    for p in (1, 2, 3):
        mean = sums[p] / reps
        assert abs(mean - 2.0) <= 0.05 * 2.0, (p, mean)
    elapsed = time.perf_counter() - start
    report(
        "criterion 7: index estimates "
        f"{[round(sums[p] / reps, 4) for p in (1, 2, 3)]} vs 2.0 ({elapsed:.0f}s)"
    )


# criterion 8 ---------------------------------------------------------------


def test_criterion_8_cli_determinism_across_workers(tmp_path, capsys):
    start = time.perf_counter()
    outputs = []
    for workers in ("1", "2", "8"):
        path = tmp_path / f"mc_w{workers}.json"
        code = cli_main(
            [
                "mc", "--dist", "pareto", "--gamma", "1.0", "--n", "5000",
                "--k", "200", "--pmax", "2", "--reps", "64", "--seed", str(SEED),
                "--reduced", "--workers", workers, "--output", str(path),
            ]
        )
        assert code == 0
        outputs.append(path.read_bytes())
    # the manifest timestamp is the only wall-clock field; everything else
    # must agree byte for byte
    normalized = [
        re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": "X"', blob) for blob in outputs
    ]
    assert normalized[0] == normalized[1] == normalized[2]
    payload = json.loads(outputs[0])
    assert payload["report"]["reps"] == 64
    elapsed = time.perf_counter() - start
    report(f"criterion 8: byte-identical reports across 1/2/8 workers ({elapsed:.1f}s)")
