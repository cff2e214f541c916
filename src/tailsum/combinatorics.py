"""Exact-integer combinatorics: ordered compositions, the three recursive
number families behind the limiting covariance of the sum-product tail
statistics, and a brute-force lattice-path counter used as a cross-check.

All values are Python integers, so results are exact at any size.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations, repeat

from .errors import DomainError

__all__ = [
    "Composition",
    "compositions",
    "type_i",
    "type_ii",
    "type_iii",
    "variance_number",
    "covariance_number",
    "lattice_path_count",
    "NumberTable",
]


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive integers; order is significant."""

    parts: tuple

    def __post_init__(self):
        if len(self.parts) == 0 or any(s != int(s) or s < 1 for s in self.parts):
            raise DomainError(f"composition parts must be positive integers: {self.parts}")
        object.__setattr__(self, "parts", tuple(int(s) for s in self.parts))

    @property
    def total(self):
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)


def compositions(p, h):
    """
    All ordered compositions of p into exactly h positive parts,
    in lexicographic order.  There are binomial(p-1, h-1) of them.
    """
    if p < 1:
        raise DomainError(f"p must be >= 1, got {p}")
    if h < 1 or h > p:
        raise DomainError(f"h must satisfy 1 <= h <= p, got h={h}, p={p}")
    out = []
    for cuts in combinations(range(1, p), h - 1):
        bounds = (0,) + cuts + (p,)
        out.append(Composition(tuple(bounds[i + 1] - bounds[i] for i in range(h))))
    return out


def _check_vr(v, r, rname="r"):
    if v < 0:
        raise DomainError(f"v must be >= 0, got {v}")
    if r < 1:
        raise DomainError(f"{rname} must be >= 1, got {r}")


def _step(col, shift):
    """Next column of a family: running sums of ``col`` from row ``shift``
    on.  Shift 0 is the type II step; shift 1, which drops the top row, is
    the two-cell rule shared by type I and type III."""
    return list(accumulate(col[shift:]))


def _walk(col, shift, steps):
    """``col`` followed by the ``steps`` columns that ``_step`` makes from it."""
    return accumulate(repeat(shift, steps), _step, initial=col)


def _type_ii_base(tau, rows):
    """Type II delta = 1 column, rows 0..rows-1: ones summed tau - 1 times."""
    return reduce(_step, repeat(0, tau - 1), [1] * rows)


def type_i(v, r):
    """
    Type I number at (v, r).

    Columns r = 1, 2 are all ones; for r >= 3 each column is filled from
    the previous one by the two-cell addition rule
        value(0, r) = value(1, r-1)
        value(v, r) = value(v+1, r-1) + value(v-1, r),  v >= 1,
    that is, by the running sums of the previous column without its top row.
    """
    _check_vr(v, r)
    if r <= 2:
        return 1
    # column c must extend to row v + (r - c) to feed the next column
    return reduce(_step, repeat(1, r - 2), [1] * (v + r - 1))[v]


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
    return reduce(_step, repeat(0, tau - delta), [1] * (v + 1))[v]


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
    return reduce(_step, repeat(1, delta - 1), _type_ii_base(tau, v + delta))[v]


def variance_number(r):
    """
    Exact variance of the unit limit process at order r: a(0) = 1 and
    a(r) = 2 * sum_{j=1..r} type_i(1, j) * a(r-j).
    """
    if r < 0:
        raise DomainError(f"r must be >= 0, got {r}")
    a = [1]
    t1 = [None] + [type_i(1, j) for j in range(1, r + 1)]
    for m in range(1, r + 1):
        a.append(2 * sum(t1[j] * a[m - j] for j in range(1, m + 1)))
    return a[r]


def covariance_number(r, rho):
    """
    Exact covariance of the unit limit process at orders (r, rho),
    symmetric in its arguments.  For r < rho it is

        sum_{j=0..r} type_iii(rho - r, 1, j) * a(r - j)

    with the delta = 0 and delta = 1 conventions of ``type_iii``.
    """
    if r < 1 or rho < 1:
        raise DomainError(f"orders must be >= 1, got ({r}, {rho})")
    if r == rho:
        return variance_number(r)
    if r > rho:
        r, rho = rho, r
    tau = rho - r
    return sum(type_iii(tau, 1, j) * variance_number(r - j) for j in range(r + 1))


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
            columns = list(_walk(_type_ii_base(tau, vmax + dmax), 1, dmax - 1))
        entries = {(v, c): columns[c - 1][v] for v in range(vmax + 1) for c in range(1, dmax + 1)}
        return cls(family, tau, vmax, dmax, entries)

    def value(self, v, c):
        return self.entries[(v, c)]

    def row(self, v):
        return [self.entries[(v, c)] for c in range(1, self.dmax + 1)]
