"""Exact-integer combinatorics: ordered compositions, the three recursive
number families behind the limiting covariance of the sum-product tail
statistics, and a brute-force lattice-path counter used as a cross-check.

The number families are the paper's route to the unit covariances
(``variance_number``, ``covariance_number``).  The limit model is built
from the binomial ``limits.covariance_closed`` instead, and this route is
the oracle it is checked against.  All values are Python integers, so
results are exact at any size.
"""

from collections import deque
from dataclasses import dataclass
from itertools import accumulate, combinations, repeat
from operator import mul

from .errors import DomainError

__all__ = [
    "compositions",
    "type_i",
    "type_ii",
    "type_iii",
    "variance_number",
    "covariance_number",
    "lattice_path_count",
    "NumberTable",
]


def compositions(p, h):
    """
    All ordered compositions of p into exactly h positive parts, each a
    tuple of ints, in lexicographic order.  There are binomial(p-1, h-1)
    of them.
    """
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if h < 1 or h > p:
        raise DomainError(f"h must satisfy 1 <= h <= p, got h={h}, p={p}")
    return [
        tuple(b - a for a, b in zip((0, *cuts), (*cuts, p)))
        for cuts in combinations(range(1, p), h - 1)
    ]


def _walk(col, shift, steps):
    """``col`` followed by the ``steps`` next columns of a family, each the
    running sums of the one before from row ``shift`` on.  Shift 0 is the
    type II step; shift 1, which drops the top row, is the two-cell rule
    shared by type I and type III."""
    return accumulate(repeat(shift, steps), lambda c, s: list(accumulate(c[s:])), initial=col)


def type_i(v, r):
    """
    Type I number at (v, r).

    Columns r = 1, 2 are all ones; for r >= 3 each column is filled from
    the previous one by the two-cell addition rule
        value(0, r) = value(1, r-1)
        value(v, r) = value(v+1, r-1) + value(v-1, r),  v >= 1,
    that is, by the running sums of the previous column without its top row.
    """
    if v < 0:
        raise DomainError(f"v must be >= 0, got {v}")
    if r < 1:
        raise DomainError(f"r must be >= 1, got {r}")
    return NumberTable.build("type_i", v, r).value(v, r)


def type_ii(tau, v, delta):
    """
    Type II number at (v, delta) within the tau-class.

    The rightmost column (delta = tau) and the top row (v = 0) are ones;
    interior cells satisfy value(v, d) = value(v-1, d) + value(v, d+1), so
    column delta is the ones column summed tau - delta times.
    """
    if tau < 1:
        raise DomainError(f"tau must be >= 1, got {tau}")
    if v < 0:
        raise DomainError(f"v must be >= 0, got {v}")
    if delta < 1 or delta > tau:
        raise DomainError(f"delta must lie in [1, {tau}], got {delta}")
    return NumberTable.build("type_ii", v, delta, tau).value(v, delta)


def type_iii(tau, v, delta):
    """
    Type III number at (v, delta) within the tau-class.

    Conventions: delta = 0 gives 1 and delta = 1 returns the type II
    value at (v, 1).  The delta = 2 column seeds the recursion as the
    running sum of the type II delta = 1 column; columns delta >= 3 obey
    the same two-cell rule as the type I family.
    """
    if tau < 1:
        raise DomainError(f"tau must be >= 1, got {tau}")
    if v < 0:
        raise DomainError(f"v must be >= 0, got {v}")
    if delta < 0:
        raise DomainError(f"delta must be >= 0, got {delta}")
    if delta == 0:
        return 1
    return NumberTable.build("type_iii", v, delta, tau).value(v, delta)


def _unit_covariances(pmax):
    """
    Every unit covariance integer up to order pmax, from one type I row
    and one type III row per tau: the returned dict holds
    ``covariance_number(r, rho)`` at key (r, rho), and a(0) = 1 at (0, 0).
    """
    t1 = NumberTable.build("type_i", 1, pmax).row(1)
    a = [1]
    for _ in range(pmax):
        a.append(2 * sum(map(mul, t1, reversed(a))))
    cells = {(r, r): a[r] for r in range(pmax + 1)}
    for tau in range(1, pmax):
        t3 = [1, *NumberTable.build("type_iii", 1, pmax - tau, tau).row(1)]
        for r in range(1, pmax - tau + 1):
            cells[r, r + tau] = cells[r + tau, r] = sum(map(mul, t3, a[r::-1]))
    return cells


def variance_number(r):
    """
    Exact variance of the unit limit process at order r: a(0) = 1 and
    a(r) = 2 * sum_{j=1..r} type_i(1, j) * a(r-j).
    """
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    return _unit_covariances(max(r, 1))[r, r]


def covariance_number(r, rho):
    """
    Exact covariance of the unit limit process at orders (r, rho),
    symmetric in its arguments.  For r < rho it is

        sum_{j=0..r} type_iii(rho - r, 1, j) * a(r - j)

    with the delta = 0 and delta = 1 conventions of ``type_iii``.
    """
    if r < 1 or rho < 1:
        raise DomainError(f"orders must be >= 1, got ({r}, {rho})")
    return _unit_covariances(max(r, rho))[r, rho]


def lattice_path_count(width, height, lower=None, upper=None):
    """
    Count monotone unit-step paths from (0,0) to (width, height) that stay
    within [lower[x], upper[x]] at every column x, by dynamic programming.

    ``lower`` and ``upper`` are sequences of length width+1 holding the
    inclusive y-bounds per column; omitted bounds default to the full
    rectangle.  Boundaries must be monotone staircases that admit both the
    origin and the target corner.
    """
    if width < 0 or height < 0:
        raise DomainError(f"grid size must be non-negative, got {width}x{height}")
    lo = list(lower) if lower is not None else [0] * (width + 1)
    hi = list(upper) if upper is not None else [height] * (width + 1)
    if len(lo) != width + 1 or len(hi) != width + 1:
        raise DomainError("boundary length must equal width + 1")
    if any(lo[x] > lo[x + 1] for x in range(width)) or any(hi[x] > hi[x + 1] for x in range(width)):
        raise DomainError("boundaries must be monotone non-decreasing")
    if any(lo[x] < 0 or hi[x] > height or lo[x] > hi[x] for x in range(width + 1)):
        raise DomainError("boundaries must stay inside the grid and not cross")
    if not (lo[0] <= 0 <= hi[0]) or not (lo[width] <= height <= hi[width]):
        raise DomainError("boundaries must contain the origin and the target corner")

    ways = [0] * (height + 1)
    for y in range(lo[0], hi[0] + 1):
        ways[y] = 1 if y == 0 else ways[y - 1]
    for x in range(1, width + 1):
        new = [0] * (height + 1)
        for y in range(lo[x], hi[x] + 1):
            new[y] = ways[y] + (new[y - 1] if y > lo[x] else 0)
        ways = new
    return ways[height]


_FAMILIES = ("type_i", "type_ii", "type_iii")


@dataclass(frozen=True)
class NumberTable:
    """A rectangular table of one number family, keyed by (v, column)."""

    family: str
    tau: int | None
    vmax: int
    dmax: int
    entries: dict

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown family {self.family!r}")
        if any(x < 1 for x in self.entries.values()):
            raise DomainError("number tables contain positive integers only")

    @classmethod
    def build(cls, family, vmax, dmax, tau=None):
        if vmax < 0 or dmax < 1:
            raise DomainError("table shape must satisfy vmax >= 0, dmax >= 1")
        if family not in _FAMILIES:
            raise DomainError(f"unknown family {family!r}")
        if family == "type_i":
            tau = None
            columns = [[1] * (vmax + 1), *_walk([1] * (vmax + dmax - 1), 1, dmax - 2)]
        elif tau is None or tau < 1:
            raise DomainError(f"{family} tables need tau >= 1, got {tau}")
        elif family == "type_ii":
            dmax = min(dmax, tau)
            columns = list(_walk([1] * (vmax + 1), 0, tau - 1))[::-1]
        else:
            # the type II delta = 1 column; the deque keeps no earlier column alive
            delta_1 = deque(_walk([1] * (vmax + dmax), 0, tau - 1), maxlen=1)[0]
            columns = list(_walk(delta_1, 1, dmax - 1))
        entries = {(v, c): columns[c - 1][v] for v in range(vmax + 1) for c in range(1, dmax + 1)}
        return cls(family, tau, vmax, dmax, entries)

    def value(self, v, c):
        return self._cells(v, [c])[0]

    def row(self, v):
        return self._cells(v, range(1, self.dmax + 1))

    def _cells(self, v, columns):
        try:
            return [self.entries[(v, c)] for c in columns]
        except KeyError as missing:
            raise DomainError(
                f"cell (v, column) = {missing.args[0]} lies outside the {self.family} table, "
                f"whose v lies in [0, {self.vmax}] and column in [1, {self.dmax}]"
            ) from None
