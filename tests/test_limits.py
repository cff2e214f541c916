import math
import sys
import time

import numpy as np
import pytest

import tailsum.combinatorics as combinatorics_mod
from tailsum import CovarianceModel, DomainError, DomainKind, covariance_closed, shift_factor

FRECHET = DomainKind.frechet()
GUMBEL = DomainKind.gumbel()
WEIBULL1 = DomainKind.weibull(1.0)
WEIBULL2 = DomainKind.weibull(2.0)


def model_envelopes(pmax, dom, k, n):
    return CovarianceModel.build(dom, pmax).lil_envelopes(k, n)


# a model's cell at orders (r, rho) is [r - 1, rho - 1]; every cell of
# column rho depends on rho alone, so any model built to pmax >= rho holds it
def model_sigma(dom, pmax=8):
    return CovarianceModel.build(dom, pmax).sigma


def model_reduced(dom, pmax=8):
    return CovarianceModel.build(dom, pmax).reduced_matrix()


def domain_factor(r, rho, dom):
    """The domain factor of cell (r, rho), read off the model's sigma."""
    return model_sigma(dom)[r - 1, rho - 1] / math.comb(r + rho, r)


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
        assert domain_factor(1, 1, WEIBULL1) == pytest.approx(2 / 3)
        assert domain_factor(2, 2, WEIBULL2) == pytest.approx(2 / 5)
        assert domain_factor(3, 3, FRECHET) == 1.0
        assert domain_factor(3, 3, GUMBEL) == 1.0

    def test_variance_factor_domain(self):
        # the model has no order 0
        for dom in (FRECHET, GUMBEL, WEIBULL1, WEIBULL2):
            with pytest.raises(DomainError):
                CovarianceModel.build(dom, 0)

    def test_covariance_factor_values(self):
        assert domain_factor(1, 2, WEIBULL1) == pytest.approx(0.5)
        assert domain_factor(2, 3, WEIBULL1) == pytest.approx(0.2)
        assert domain_factor(2, 5, GUMBEL) == 1.0

    def test_covariance_factor_requires_r_below_rho(self):
        # the factors are products over r <= rho; the cell below the
        # diagonal is its mirror, prod_{j=1..2} (1+j)/(5+j) = 1/7 at (4, 2)
        assert model_sigma(WEIBULL1)[3, 1] == model_sigma(WEIBULL1)[1, 3]
        assert domain_factor(4, 2, WEIBULL1) == pytest.approx(1 / 7)

    def test_shift_factor(self):
        assert shift_factor(2, WEIBULL2) == pytest.approx(2.0)
        assert shift_factor(1, WEIBULL1) == pytest.approx(2.0)
        assert shift_factor(7, FRECHET) == 1.0

    def test_infinite_shape_convention(self):
        # a huge weibull shape approaches the frechet/gumbel constants
        big = DomainKind.weibull(1e6)
        assert domain_factor(3, 3, big) == pytest.approx(1.0, abs=1e-4)
        assert shift_factor(3, big) == pytest.approx(1.0, abs=1e-4)
        assert domain_factor(2, 4, big) == pytest.approx(1.0, abs=1e-4)


class TestCovarianceValues:
    def test_diagonal(self):
        assert model_sigma(FRECHET)[1, 1] == 6.0
        assert model_sigma(GUMBEL)[3, 3] == 70.0
        assert model_sigma(WEIBULL1)[0, 0] == pytest.approx(4 / 3)

    def test_off_diagonal(self):
        assert model_sigma(FRECHET)[0, 1] == 3.0
        assert model_sigma(FRECHET)[0, 3] == 5.0
        assert model_sigma(FRECHET)[1, 2] == 10.0

    def test_closed_form_matches_recursion(self):
        for dom in (FRECHET, GUMBEL):
            cells = model_sigma(dom)
            for r in range(1, 9):
                for rho in range(1, 9):
                    assert cells[r - 1, rho - 1] == covariance_closed(r, rho)

    def test_diagonal_is_central_binomial(self):
        cells = model_sigma(FRECHET, 10)
        for r in range(1, 11):
            assert cells[r - 1, r - 1] == math.comb(2 * r, r)

    def test_symmetry(self):
        for dom in (FRECHET, WEIBULL1):
            assert model_sigma(dom)[1, 4] == model_sigma(dom)[4, 1]

    def test_closed_form_examples(self):
        assert covariance_closed(1, 1) == 2
        assert covariance_closed(3, 3) == 20
        assert covariance_closed(2, 4) == 15


class TestReducedModel:
    def test_reduced_variances(self):
        assert model_reduced(FRECHET)[0, 0] == 1.0
        assert model_reduced(FRECHET)[1, 1] == 5.0
        assert model_reduced(WEIBULL1)[0, 0] == pytest.approx(4 / 3)

    def test_reduced_covariances(self):
        assert model_reduced(FRECHET)[0, 1] == 2.0
        assert model_reduced(FRECHET)[0, 2] == 3.0
        assert model_reduced(FRECHET)[1, 2] == 9.0

    def test_against_exponential_moments(self):
        # with unit domain factors the reduced model is the covariance of
        # the vector (E^p/p!), computable from factorials alone
        cells = model_reduced(FRECHET, 6)
        for r in range(1, 7):
            assert cells[r - 1, r - 1] == pytest.approx(exp_moment_cov(r, r))
            for rho in range(r + 1, 7):
                assert cells[r - 1, rho - 1] == pytest.approx(exp_moment_cov(r, rho))

    @pytest.mark.parametrize("dom", [FRECHET, GUMBEL, WEIBULL1, WEIBULL2])
    def test_reduced_matrix_positive_semidefinite(self, dom):
        eigvals = np.linalg.eigvalsh(model_reduced(dom, 6))
        assert eigvals.min() >= -1e-9

    def test_reduced_variance_nonnegative(self):
        for dom in (FRECHET, WEIBULL1, WEIBULL2, DomainKind.weibull(0.5)):
            assert np.all(np.diag(model_reduced(dom)) >= 0.0)


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
            g = dom.gamma
            factor = math.prod((g + j) / (g + 170 + j) for j in range(1, 171)) if g else 1.0
            assert sigma[169, 169] == factor * math.comb(340, 170)

    @pytest.mark.parametrize("dom", [FRECHET, WEIBULL2], ids=["frechet", "weibull"])
    def test_orders_past_the_float_range(self, dom):
        # C(2p, p), the largest unit covariance of a model, first exceeds
        # the float range at p = 515; the integer becomes a float before any
        # weibull factor could scale it down
        assert math.comb(2 * 514, 514) <= sys.float_info.max < math.comb(2 * 515, 515)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="514"):
            CovarianceModel.build(dom, 515)
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
                cell = factor * math.comb(r + rho, r)
                assert model.sigma[r - 1, rho - 1] == model.sigma[rho - 1, r - 1] == cell
                e_r, e_rho = e[r - 1], e[rho - 1]
                assert reduced[r - 1, rho - 1] == cell - (e_r + e_rho) + e_r * e_rho

    def test_invalid_pmax(self):
        with pytest.raises(DomainError):
            CovarianceModel.build(FRECHET, 0)


class TestLilEnvelope:
    def test_reference_value(self):
        value = model_envelopes(1, FRECHET, 1000, 10**6)[0]
        assert value == pytest.approx(0.072468, abs=5e-6)

    def test_scaling_in_k(self):
        a = model_envelopes(2, FRECHET, 400, 10**6)[1]
        b = model_envelopes(2, FRECHET, 1600, 10**6)[1]
        assert a / b == pytest.approx(2.0, rel=1e-12)

    def test_envelope_formula(self):
        k, n = 500, 10**5
        for dom in (FRECHET, GUMBEL, WEIBULL1, DomainKind.weibull(1.5), DomainKind.weibull(1e-3)):
            cells = model_reduced(dom, 12)
            expect = [
                math.sqrt(cells[p - 1, p - 1]) * math.sqrt(2 * math.log(math.log(n)) / k)
                for p in range(1, 13)
            ]
            # every order from one pass, bit for bit
            assert model_envelopes(12, dom, k, n) == expect

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            model_envelopes(0, FRECHET, 100, 1000)
        with pytest.raises(DomainError):
            model_envelopes(1, FRECHET, 2, 1000)
        with pytest.raises(DomainError):
            model_envelopes(1, FRECHET, 100, 100)
