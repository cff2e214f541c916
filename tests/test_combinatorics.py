import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailsum import (
    DomainError,
    NumberTable,
    compositions,
    covariance_number,
    lattice_path_count,
    type_i,
    type_ii,
    type_iii,
    variance_number,
)

# regression fixture: the full triangular type I table, verified cell by
# cell against the defining recursion (a handful of published cells are
# misprints; see the values at (1,10), (2,9), (2,10), (3,9) and (10,3))
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


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


class TestTypeI:
    def test_table_regression(self):
        for v, row in TYPE_I_TABLE.items():
            for idx, expected in enumerate(row):
                r = idx + 1
                assert type_i(v, r) == expected, (v, r)

    def test_named_cells(self):
        assert type_i(3, 4) == 14
        assert type_i(4, 4) == 20
        assert type_i(0, 10) == 1430

    def test_first_column_all_ones(self):
        assert all(type_i(v, 1) == 1 for v in range(30))

    @pytest.mark.parametrize("r", range(2, 13))
    def test_catalan_rows(self, r):
        assert type_i(0, r) == catalan(r - 2)
        assert type_i(1, r) == catalan(r - 1)

    @given(v=st.integers(2, 12), r=st.integers(3, 12))
    def test_two_cell_rule(self, v, r):
        assert type_i(v, r) == type_i(v + 1, r - 1) + type_i(v - 1, r)

    @given(r=st.integers(2, 14))
    def test_top_row_shift(self, r):
        assert type_i(0, r) == type_i(1, r - 1)

    def test_lattice_path_oracle(self):
        # paths from (0, 0) to (r-2, r+v-2) that stay on or above the line
        # y = x: the parallelogram count of the type I numbers
        for r in range(2, 12):
            for v in range(12):
                paths = lattice_path_count(r - 2, r + v - 2, lower=list(range(r - 1)))
                assert type_i(v, r) == paths, (v, r)

    def test_ballot_number_oracle(self):
        # the difference of two binomials counts the same paths as
        # test_lattice_path_oracle by reflection at the diagonal
        for r in range(3, 12):
            for v in range(12):
                ballot = math.comb(2 * r + v - 4, r - 2) - math.comb(2 * r + v - 4, r - 3)
                assert type_i(v, r) == ballot, (v, r)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            type_i(-1, 3)
        with pytest.raises(DomainError):
            type_i(0, 0)


class TestTypeII:
    def test_tau_1_all_ones(self):
        assert [type_ii(1, v, 1) for v in range(6)] == [1] * 6

    def test_tau_2_table(self):
        assert [type_ii(2, v, 1) for v in range(6)] == [1, 2, 3, 4, 5, 6]
        assert [type_ii(2, v, 2) for v in range(6)] == [1] * 6

    def test_tau_3_table(self):
        assert [type_ii(3, v, 1) for v in range(6)] == [1, 3, 6, 10, 15, 21]
        assert [type_ii(3, v, 2) for v in range(6)] == [1, 2, 3, 4, 5, 6]
        assert [type_ii(3, v, 3) for v in range(6)] == [1] * 6

    def test_top_row_is_ones(self):
        assert all(type_ii(tau, 0, d) == 1 for tau in range(1, 6) for d in range(1, tau + 1))

    @given(tau=st.integers(2, 6), v=st.integers(1, 10), data=st.data())
    def test_two_cell_rule(self, tau, v, data):
        delta = data.draw(st.integers(1, tau - 1))
        assert type_ii(tau, v, delta) == type_ii(tau, v - 1, delta) + type_ii(tau, v, delta + 1)

    def test_binomial_oracle(self):
        # column delta is the ones column summed tau - delta times
        for tau in range(1, 9):
            for delta in range(1, tau + 1):
                for v in range(12):
                    assert type_ii(tau, v, delta) == math.comb(v + tau - delta, v), (tau, v, delta)

    def test_delta_bounds(self):
        with pytest.raises(DomainError):
            type_ii(2, 1, 0)
        with pytest.raises(DomainError):
            type_ii(2, 1, 3)


def type_iii_closed(tau, v, delta):
    """C(N, tau+delta-2) - C(N, delta-2) with N = tau + v + 2 delta - 3; the
    second term is 0 at delta = 1.  Reflecting the bounded lattice paths of
    ``test_lattice_path_oracle`` in y = x - tau gives the difference."""
    n = tau + v + 2 * delta - 3
    return math.comb(n, tau + delta - 2) - (math.comb(n, delta - 2) if delta >= 2 else 0)


# type III is checked through its conventions, tables and rules, against a
# binomial difference and a bounded lattice-path count, and through the
# covariance integers it gives (TestCovarianceNumbers)
class TestTypeIII:
    def test_closed_form_oracle(self):
        # every cell with tau, v, delta <= 30, from one table per tau
        for tau in range(1, 31):
            table = NumberTable.build("type_iii", 30, 30, tau=tau)
            assert table.entries == {
                (v, d): type_iii_closed(tau, v, d) for v in range(31) for d in range(1, 31)
            }, tau
        for tau, v, delta in [(1, 0, 1), (5, 30, 30), (30, 0, 1), (30, 30, 30), (7, 11, 2)]:
            assert type_iii(tau, v, delta) == type_iii_closed(tau, v, delta)

    def test_closed_form_at_the_table_cap(self):
        # spot cells of the tau = 300 class, up to the tables command's cap
        for v, delta in [(0, 1), (300, 1), (0, 2), (299, 2), (0, 300), (17, 251), (300, 300)]:
            assert type_iii(300, v, delta) == type_iii_closed(300, v, delta), (v, delta)

    def test_lattice_path_oracle(self):
        # the monotone paths from (0, 0) to (tau+delta-2, v+delta-1) that stay
        # on or above y = x - tau + 1
        for tau in range(1, 6):
            for v in range(6):
                for delta in range(1, 7):
                    width, height = tau + delta - 2, v + delta - 1
                    lower = [max(0, x - tau + 1) for x in range(width + 1)]
                    paths = lattice_path_count(width, height, lower=lower)
                    assert type_iii(tau, v, delta) == paths, (tau, v, delta)

    def test_conventions(self):
        for tau in (1, 2, 3):
            for v in range(5):
                assert type_iii(tau, v, 0) == 1
                assert type_iii(tau, v, 1) == type_ii(tau, v, 1)

    def test_seed_column_examples(self):
        assert type_iii(1, 0, 2) == 1
        assert type_iii(2, 1, 2) == 5
        assert type_iii(1, 1, 3) == 5

    def test_tau_1_table(self):
        expect = {
            0: [1, 1, 2, 5, 14],
            1: [1, 2, 5, 14, 42],
            2: [1, 3, 9, 28, 90],
            3: [1, 4, 14, 48, 165],
            4: [1, 5, 20, 75, 275],
            5: [1, 6, 27, 110, 429],
        }
        for v, row in expect.items():
            assert [type_iii(1, v, d) for d in range(1, 6)] == row

    def test_tau_2_table(self):
        expect = {
            0: [1, 2, 5, 14, 42],
            1: [2, 5, 14, 42, 132],
            2: [3, 9, 28, 90, 297],
            3: [4, 14, 48, 165, 572],
            4: [5, 20, 75, 275, 1001],
        }
        for v, row in expect.items():
            assert [type_iii(2, v, d) for d in range(1, 6)] == row

    def test_seed_column_is_running_sum(self):
        for tau in (1, 2, 3, 4):
            for v in range(6):
                assert type_iii(tau, v, 2) == sum(type_ii(tau, k, 1) for k in range(1, v + 2))

    @given(tau=st.integers(1, 4), v=st.integers(2, 8), delta=st.integers(3, 8))
    def test_two_cell_rule(self, tau, v, delta):
        assert type_iii(tau, v, delta) == type_iii(tau, v + 1, delta - 1) + type_iii(
            tau, v - 1, delta
        )

    @given(tau=st.integers(1, 4), delta=st.integers(3, 8))
    def test_top_row_shift(self, tau, delta):
        assert type_iii(tau, 0, delta) == type_iii(tau, 1, delta - 1)


class TestVarianceNumbers:
    def test_base_cases(self):
        assert variance_number(0) == 1
        assert variance_number(1) == 2
        assert variance_number(2) == 6
        assert variance_number(4) == 70

    @pytest.mark.parametrize("r", range(11))
    def test_central_binomial(self, r):
        assert variance_number(r) == math.comb(2 * r, r)

    def test_recursion(self):
        for r in range(1, 10):
            total = 2 * sum(type_i(1, j) * variance_number(r - j) for j in range(1, r + 1))
            assert variance_number(r) == total


class TestCovarianceNumbers:
    def test_binomial_identity(self):
        for r in range(1, 9):
            for rho in range(1, 9):
                assert covariance_number(r, rho) == math.comb(r + rho, r)

    def test_symmetry_and_diagonal(self):
        assert covariance_number(2, 5) == covariance_number(5, 2)
        assert covariance_number(3, 3) == variance_number(3)

    def test_small_values(self):
        assert covariance_number(1, 2) == 3
        assert covariance_number(1, 4) == 5
        assert covariance_number(2, 3) == 10

    def test_type_iii_binomial_identity(self):
        # the identity behind the recursion route agreeing with the binomial,
        # checked without the walk: sum_{j=0..r} type_iii(rho-r, 1, j)
        # C(2(r-j), r-j) = C(r+rho, r), whose j = 0 term is C(2r, r) by the
        # delta = 0 convention type_iii(tau, v, 0) = 1
        pairs = [(r, rho) for r in range(80) for rho in range(r + 1, r + 60)]
        for r, rho in pairs + [(1, 514), (257, 514), (300, 450), (513, 514)]:
            total = math.comb(2 * r, r) + sum(
                type_iii_closed(rho - r, 1, j) * math.comb(2 * (r - j), r - j)
                for j in range(1, r + 1)
            )
            assert total == math.comb(r + rho, r), (r, rho)


class TestCompositions:
    def test_examples(self):
        assert compositions(3, 2) == [(1, 2), (2, 1)]
        assert compositions(4, 1) == [(4,)]
        assert len(compositions(5, 3)) == 6

    @given(p=st.integers(1, 12), data=st.data())
    def test_cardinality_and_validity(self, p, data):
        h = data.draw(st.integers(1, p))
        out = compositions(p, h)
        assert len(out) == math.comb(p - 1, h - 1)
        for comp in out:
            assert type(comp) is tuple
            assert all(type(s) is int and s >= 1 for s in comp)
            assert sum(comp) == p
            assert len(comp) == h

    def test_lexicographic_order(self):
        for p, h in [(6, 3), (7, 2), (5, 4)]:
            parts = compositions(p, h)
            assert parts == sorted(parts)

    def test_errors(self):
        with pytest.raises(DomainError):
            compositions(3, 0)
        with pytest.raises(DomainError):
            compositions(3, 4)


class TestLatticePaths:
    def test_unrestricted_rectangle(self):
        assert lattice_path_count(2, 2) == 6
        assert lattice_path_count(5, 3) == math.comb(8, 3)

    @pytest.mark.parametrize("m,expected", [(3, 5), (4, 14), (5, 42)])
    def test_below_diagonal_catalan(self, m, expected):
        assert lattice_path_count(m, m, upper=list(range(m + 1))) == expected

    def test_degenerate(self):
        assert lattice_path_count(0, 0) == 1
        assert lattice_path_count(3, 0) == 1

    def test_inconsistent_boundaries(self):
        with pytest.raises(DomainError):
            lattice_path_count(2, 2, lower=[0, 2, 1])
        with pytest.raises(DomainError):
            lattice_path_count(2, 2, upper=[0, 0, 1])
        with pytest.raises(DomainError):
            lattice_path_count(2, 2, lower=[1, 1, 2])


class TestNumberTable:
    def test_type_i_matches_scalar(self):
        table = NumberTable.build("type_i", 6, 6)
        for (v, r), value in table.entries.items():
            assert value == type_i(v, r)

    def test_type_ii_clamps_to_tau(self):
        table = NumberTable.build("type_ii", 4, 10, tau=2)
        assert table.dmax == 2
        assert table.row(3) == [4, 1]

    def test_type_iii_row(self):
        table = NumberTable.build("type_iii", 3, 5, tau=1)
        assert table.row(0) == [1, 1, 2, 5, 14]

    def test_entries_positive(self):
        table = NumberTable.build("type_i", 8, 8)
        assert all(x >= 1 for x in table.entries.values())

    @pytest.mark.parametrize(
        "family,tau",
        [("type_i", None), ("type_ii", 1), ("type_ii", 3), ("type_ii", 7),
         ("type_iii", 1), ("type_iii", 2), ("type_iii", 5)],
    )
    @pytest.mark.parametrize("vmax,dmax", [(0, 1), (9, 4), (3, 11), (7, 7)])
    def test_matches_scalar_functions(self, family, tau, vmax, dmax):
        scalar = {
            "type_i": lambda v, c: type_i(v, c),
            "type_ii": lambda v, c: type_ii(tau, v, c),
            "type_iii": lambda v, c: type_iii(tau, v, c),
        }[family]
        table = NumberTable.build(family, vmax, dmax, tau=tau)
        cols = min(dmax, tau) if family == "type_ii" else dmax
        assert table.dmax == cols
        assert table.entries == {
            (v, c): scalar(v, c) for v in range(vmax + 1) for c in range(1, cols + 1)
        }

    def test_errors(self):
        with pytest.raises(DomainError):
            NumberTable.build("type_ii", 3, 3)
        with pytest.raises(DomainError):
            NumberTable.build("type_iii", 3, 3, tau=0)
        with pytest.raises(DomainError):
            NumberTable.build("unknown", 3, 3)
