import math
import sys
import time

import numpy as np
import pytest

import tailsum.combinatorics as combinatorics_mod
from tailsum import (
    CovarianceModel,
    DomainError,
    DomainKind,
    covariance,
    covariance_closed,
    covariance_factor,
    lil_envelope,
    reduced_covariance,
    shift_factor,
)

FRECHET = DomainKind.frechet()
GUMBEL = DomainKind.gumbel()
WEIBULL1 = DomainKind.weibull(1.0)
WEIBULL2 = DomainKind.weibull(2.0)


def model_envelopes(pmax, dom, k, n):
    return CovarianceModel.build(dom, pmax).lil_envelopes(k, n)


def exp_moment_cov(r, rho):
    """Independent oracle: Cov(E^r/r!, E^rho/rho!) for E standard exponential."""
    return (math.factorial(r + rho) - math.factorial(r) * math.factorial(rho)) / (
        math.factorial(r) * math.factorial(rho)
    )


class TestDomainKind:
    def test_weibull_needs_gamma(self):
        with pytest.raises(DomainError):
            DomainKind.weibull(None)
        with pytest.raises(DomainError):
            DomainKind.weibull(-1.0)
        with pytest.raises(DomainError):
            DomainKind.weibull(math.inf)

    def test_frechet_gamma_optional(self):
        assert DomainKind.frechet().gamma is None
        assert DomainKind.frechet(2.0).gamma == 2.0
        with pytest.raises(DomainError):
            DomainKind.frechet(-2.0)


class TestFactors:
    def test_variance_factor_values(self):
        assert covariance_factor(1, 1, WEIBULL1) == pytest.approx(2 / 3)
        assert covariance_factor(2, 2, WEIBULL2) == pytest.approx(2 / 5)
        assert covariance_factor(3, 3, FRECHET) == 1.0
        assert covariance_factor(3, 3, GUMBEL) == 1.0

    def test_variance_factor_domain(self):
        with pytest.raises(DomainError):
            covariance_factor(0, 0, FRECHET)

    def test_covariance_factor_values(self):
        assert covariance_factor(1, 2, WEIBULL1) == pytest.approx(0.5)
        assert covariance_factor(2, 3, WEIBULL1) == pytest.approx(0.2)
        assert covariance_factor(2, 5, GUMBEL) == 1.0

    def test_covariance_factor_requires_r_below_rho(self):
        with pytest.raises(DomainError):
            covariance_factor(4, 2, FRECHET)

    def test_shift_factor(self):
        assert shift_factor(2, WEIBULL2) == pytest.approx(2.0)
        assert shift_factor(1, WEIBULL1) == pytest.approx(2.0)
        assert shift_factor(7, FRECHET) == 1.0

    def test_infinite_shape_convention(self):
        # a huge weibull shape approaches the frechet/gumbel constants
        big = DomainKind.weibull(1e6)
        assert covariance_factor(3, 3, big) == pytest.approx(1.0, abs=1e-4)
        assert shift_factor(3, big) == pytest.approx(1.0, abs=1e-4)
        assert covariance_factor(2, 4, big) == pytest.approx(1.0, abs=1e-4)


class TestCovarianceValues:
    def test_diagonal(self):
        assert covariance(2, 2, FRECHET) == 6.0
        assert covariance(4, 4, GUMBEL) == 70.0
        assert covariance(1, 1, WEIBULL1) == pytest.approx(4 / 3)

    def test_off_diagonal(self):
        assert covariance(1, 2, FRECHET) == 3.0
        assert covariance(1, 4, FRECHET) == 5.0
        assert covariance(2, 3, FRECHET) == 10.0

    def test_closed_form_matches_recursion(self):
        for r in range(1, 9):
            for rho in range(1, 9):
                assert covariance(r, rho, FRECHET) == covariance_closed(r, rho)
                assert covariance(r, rho, GUMBEL) == covariance_closed(r, rho)

    def test_diagonal_is_central_binomial(self):
        for r in range(1, 11):
            assert covariance(r, r, FRECHET) == math.comb(2 * r, r)

    def test_symmetry(self):
        for dom in (FRECHET, WEIBULL1):
            assert covariance(2, 5, dom) == covariance(5, 2, dom)

    def test_closed_form_examples(self):
        assert covariance_closed(1, 1) == 2
        assert covariance_closed(3, 3) == 20
        assert covariance_closed(2, 4) == 15


class TestReducedModel:
    def test_reduced_variances(self):
        assert reduced_covariance(1, 1, FRECHET) == 1.0
        assert reduced_covariance(2, 2, FRECHET) == 5.0
        assert reduced_covariance(1, 1, WEIBULL1) == pytest.approx(4 / 3)

    def test_reduced_covariances(self):
        assert reduced_covariance(1, 2, FRECHET) == 2.0
        assert reduced_covariance(1, 3, FRECHET) == 3.0
        assert reduced_covariance(2, 3, FRECHET) == 9.0

    def test_against_exponential_moments(self):
        # with unit domain factors the reduced model is the covariance of
        # the vector (E^p/p!), computable from factorials alone
        for r in range(1, 7):
            assert reduced_covariance(r, r, FRECHET) == pytest.approx(exp_moment_cov(r, r))
            for rho in range(r + 1, 7):
                assert reduced_covariance(r, rho, FRECHET) == pytest.approx(
                    exp_moment_cov(r, rho)
                )

    @pytest.mark.parametrize("dom", [FRECHET, GUMBEL, WEIBULL1, WEIBULL2])
    def test_reduced_matrix_positive_semidefinite(self, dom):
        model = CovarianceModel.build(dom, 6)
        eigvals = np.linalg.eigvalsh(model.reduced_matrix())
        assert eigvals.min() >= -1e-9

    @pytest.mark.parametrize(
        "dom,pmax",
        [(FRECHET, 8), (GUMBEL, 8), (WEIBULL1, 8), (DomainKind.weibull(1.5), 8), (WEIBULL2, 30)],
        ids=["dom0", "dom1", "dom2", "dom3", "weibull2-pmax30"],
    )
    def test_scalar_matches_matrix_exactly(self, dom, pmax):
        model = CovarianceModel.build(dom, pmax)
        reduced = model.reduced_matrix()
        for r in range(1, pmax + 1):
            for rho in range(1, pmax + 1):
                assert covariance(r, rho, dom) == model.sigma[r - 1, rho - 1]
                assert reduced_covariance(r, rho, dom) == reduced[r - 1, rho - 1]

    def test_reduced_variance_nonnegative(self):
        for dom in (FRECHET, WEIBULL1, WEIBULL2, DomainKind.weibull(0.5)):
            for r in range(1, 9):
                assert reduced_covariance(r, r, dom) >= 0.0


class TestModel:
    def test_build_shapes(self):
        model = CovarianceModel.build(FRECHET, 4)
        assert model.sigma.shape == (4, 4)
        assert tuple(np.diag(model.sigma)) == (2.0, 6.0, 20.0, 70.0)
        assert model.e == (1.0, 1.0, 1.0, 1.0)
        assert np.allclose(model.sigma, model.sigma.T)

    def test_predictions(self):
        model = CovarianceModel.build(FRECHET, 3)
        assert model.sigma[1, 1] == 6.0
        assert model.reduced_matrix()[1, 1] == 5.0
        assert model.reduced_matrix()[0, 1] == 2.0

    def test_largest_order_is_binomial(self):
        # 170 is the largest order with k * pmax! finite, so the largest an
        # experiment can ask for.  The model is built from the binomial, so
        # the number route, its oracle, is pinned to it here too
        sigma = CovarianceModel.build(GUMBEL, 170).sigma
        cells = combinatorics_mod._unit_covariances(170)
        for r in range(1, 171):
            for rho in range(1, 171):
                binomial = math.comb(r + rho, r)
                assert cells[r, rho] == binomial
                assert sigma[r - 1, rho - 1] == float(binomial)

    def test_build_never_reads_the_number_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the model build read the number tables")

        monkeypatch.setattr(combinatorics_mod, "_unit_covariances", refuse)
        monkeypatch.setattr(combinatorics_mod.NumberTable, "build", refuse)
        for dom in (FRECHET, WEIBULL2):
            sigma = CovarianceModel.build(dom, 170).sigma
            assert sigma[169, 169] == covariance_factor(170, 170, dom) * math.comb(340, 170)

    @pytest.mark.parametrize("dom", [FRECHET, WEIBULL2], ids=["frechet", "weibull"])
    def test_orders_past_the_float_range(self, dom):
        # C(2p, p), the largest unit covariance of a model, first exceeds
        # the float range at p = 515; the integer becomes a float before any
        # weibull factor could scale it down
        assert math.comb(2 * 514, 514) <= sys.float_info.max < math.comb(2 * 515, 515)
        calls = [
            lambda: CovarianceModel.build(dom, 515),
            lambda: covariance(1, 515, dom),
            lambda: reduced_covariance(515, 1, dom),
            lambda: lil_envelope(515, dom, 10, 100),
        ]
        start = time.perf_counter()
        for call in calls:
            with pytest.raises(DomainError, match="514"):
                call()
        # refused before any work: the model itself would take about 2 s
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("gamma", [1e-3, 0.5, 1.5, 3000.0, 1e300])
    def test_weibull_cells_match_per_cell_products(self, gamma):
        # the build takes each column's factors from one running product;
        # every cell of sigma and of the reduced matrix must equal its own
        # per-cell formula, bit for bit
        dom = DomainKind.weibull(gamma)
        model = CovarianceModel.build(dom, 170)
        reduced = model.reduced_matrix()
        e = [(gamma + p) / gamma for p in range(1, 171)]
        for rho in range(1, 171):
            ratios = [(gamma + j) / (gamma + rho + j) for j in range(1, rho + 1)]
            for r in range(1, rho + 1):
                factor = math.prod(ratios[:r])
                assert covariance_factor(r, rho, dom) == factor
                cell = factor * math.comb(r + rho, r)
                assert model.sigma[r - 1, rho - 1] == model.sigma[rho - 1, r - 1] == cell
                e_r, e_rho = e[r - 1], e[rho - 1]
                assert reduced[r - 1, rho - 1] == cell - (e_r + e_rho) + e_r * e_rho

    def test_invalid_pmax(self):
        with pytest.raises(DomainError):
            CovarianceModel.build(FRECHET, 0)


class TestLilEnvelope:
    def test_reference_value(self):
        value = lil_envelope(1, FRECHET, 1000, 10**6)
        assert value == pytest.approx(0.072468, abs=5e-6)

    def test_scaling_in_k(self):
        a = lil_envelope(2, FRECHET, 400, 10**6)
        b = lil_envelope(2, FRECHET, 1600, 10**6)
        assert a / b == pytest.approx(2.0, rel=1e-12)

    def test_envelope_formula(self):
        k, n = 500, 10**5
        for dom in (FRECHET, GUMBEL, WEIBULL1, DomainKind.weibull(1.5), DomainKind.weibull(1e-3)):
            expect = [
                math.sqrt(reduced_covariance(p, p, dom)) * math.sqrt(2 * math.log(math.log(n)) / k)
                for p in range(1, 13)
            ]
            # every order from one pass, bit for bit
            assert model_envelopes(12, dom, k, n) == expect
            assert [lil_envelope(p, dom, k, n) for p in range(1, 13)] == expect

    def test_domain_errors(self):
        for envelope in (lil_envelope, model_envelopes):
            with pytest.raises(DomainError):
                envelope(0, FRECHET, 100, 1000)
            with pytest.raises(DomainError):
                envelope(1, FRECHET, 2, 1000)
            with pytest.raises(DomainError):
                envelope(1, FRECHET, 100, 100)
