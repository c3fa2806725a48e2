"""Mergeable exact winding statistics and Gaussian comparison.

The central object is an exact joint occurrence table keyed by
(period length, winding, word length).  The table is tiny even for tens
of millions of geodesics, so CDFs, moments, and characteristic functions
under the period / maximal-period / word-length normalizations are exact
integer computations.  The geometric-length normalization is not
lattice-valued and is binned over [-HIST_SPAN sigma_p, HIST_SPAN sigma_p]
with its contribution to the KS distance reported as an explicit error
bound.  Each report reads one support, built once by _support: the exact
values and their counts, or the bin edges and the histogram, with F at
each point.  Only the geometric binning, the per-word l_g histograms,
loads numpy: the table normalizations run on Python ints and floats.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import accumulate, repeat
from operator import sub, truediv

from . import GEOM, MAXN, NORMALIZATIONS, PERIOD, WORD, sigma_p2  # noqa: F401  (re-exported)
from . import BINS, check_bins, check_bound
from .errors import BudgetError

GRID_CAP = 1 << 24


def grid_cells(A, n):
    """Cells of the dense (psi, lw) bincount grid at period length n."""
    return ((A - 1) * n + 1) * (2 * A * n + 1)


def check_grid(A, N):
    """Raise BudgetError when the (psi, lw) grid at N, the widest, passes GRID_CAP."""
    if grid_cells(A, N) > GRID_CAP:
        raise BudgetError(f"the (psi, lw) grid of A={A}, N={N} passes the grid cap "
                          f"of {GRID_CAP} cells")


# The l_g histograms span +-HIST_SPAN sigma_p, which also covers the
# geometric normalization, whose variance is strictly smaller.
HIST_SPAN = 8.0


def check_hist(rows, bins):
    """Raise BudgetError when `rows` l_g histogram rows, one per period
    length with bins + 2 cells each, pass GRID_CAP."""
    if rows * (bins + 2) > GRID_CAP:
        raise BudgetError("histogram exceeds the grid cap; use fewer --bins")


class JointCounts:
    """Exact mergeable accumulator of winding statistics.

    table maps (n, psi, lw) to an exact count.  Per period length n we
    also keep a histogram of x = psi/sqrt(lg), `bins` cells of `width`
    over [lo, -lo], lo = -HIST_SPAN sigma_p, and one past each end, and
    the float sums lg_sums[n] = [sum x, sum x^2, sum lg/n, sum (lg/n)^2],
    so reports can be restricted to any even N' <= N without
    re-enumerating.  Counts, and every statistic of psi and lw, come from
    the table.
    """

    def __init__(self, A, N, bins=BINS):
        check_bound(A, N)
        check_bins(bins)
        self.A = A
        self.N = N
        self.bins = bins
        self.lo = -HIST_SPAN * math.sqrt(float(sigma_p2(A)))
        self.width = -2.0 * self.lo / bins
        self.table = Counter()
        self.lg_hist = {}
        self.lg_sums = {}
        self.check_count = 0
        self.check_max_rel = 0.0

    def _hist_row(self, n):
        if n not in self.lg_hist:
            import numpy as np
            self.lg_hist[n] = np.zeros(self.bins + 2, dtype=np.int64)
            self.lg_sums[n] = np.zeros(4)
        return self.lg_hist[n]

    def accumulate(self, rec):
        """Add one geodesic record; O(1)."""
        n, psi, lw = rec.lp, rec.psi, rec.lw
        if n % 2 != 0 or n < 2 or n > self.N:
            raise ValueError(f"period length {n} inconsistent with N={self.N}")
        if abs(psi) > (self.A - 1) * n // 2:
            raise ValueError(f"winding {psi} out of range for n={n}, A={self.A}")
        if not 2 * n <= lw <= 2 * self.A * n:
            raise ValueError(f"word length {lw} out of range for n={n}, A={self.A}")
        self.table[(n, psi, lw)] += 1
        row = self._hist_row(n)
        x = psi / math.sqrt(rec.lg)
        idx = int(math.floor((x - self.lo) / self.width))
        row[min(max(idx, -1), self.bins) + 1] += 1
        rg = rec.lg / n
        self.lg_sums[n] += (x, x * x, rg, rg * rg)

    def __iadd__(self, other):
        """Add another accumulator of the same configuration, cell by cell,
        copying its rows: nothing of `other` is shared afterwards."""
        if (self.A, self.N, self.bins) != (other.A, other.N, other.bins):
            raise ValueError("cannot merge accumulators with different configs")
        self.table.update(other.table)
        for n, row in other.lg_hist.items():
            hist = self._hist_row(n)
            hist += row
            self.lg_sums[n] += other.lg_sums[n]
        self.check_count += other.check_count
        self.check_max_rel = max(self.check_max_rel, other.check_max_rel)
        return self

    def total_count(self):
        return sum(self.table.values())

    def restricted(self, N):
        """View of the accumulator limited to period lengths <= N."""
        if N < 2 or N % 2 != 0 or N > self.N:
            raise ValueError(f"invalid restriction N={N}")
        out = JointCounts(self.A, N, self.bins)
        for key, cnt in self.table.items():
            if key[0] <= N:
                out.table[key] = cnt
        for n in self.lg_hist:
            if n <= N:
                out.lg_hist[n] = self.lg_hist[n].copy()
                out.lg_sums[n] = self.lg_sums[n].copy()
        out.check_count = self.check_count
        out.check_max_rel = self.check_max_rel
        return out


def merge(a, b):
    """Cellwise sum of two accumulators with identical configuration, as a
    fresh accumulator."""
    out = JointCounts(a.A, a.N, a.bins)
    out += a
    out += b
    return out


def _table_values(acc, normalization):
    """Exact support of the normalized winding, as value -> count."""
    if normalization == PERIOD:
        norm = lambda n, lw: math.sqrt(n)
    elif normalization == MAXN:
        norm = lambda n, lw: math.sqrt(acc.N)
    elif normalization == WORD:
        norm = lambda n, lw: math.sqrt(lw)
    else:
        raise ValueError(f"no exact table for normalization {normalization!r}")
    values = Counter()
    for (n, psi, lw), cnt in acc.table.items():
        values[psi / norm(n, lw)] += cnt
    return values


def _geom_counts(acc):
    """Binned psi/sqrt(lg) histogram summed over period lengths."""
    import numpy as np
    counts = np.zeros(acc.bins + 2, dtype=np.int64)
    for row in acc.lg_hist.values():
        counts += row
    return counts


def _support(acc, normalization):
    """The support of the normalized winding, built once per report.

    Returns (xs, counts, fs, total): the increasing support points, the
    count at each, F at each and the number of geodesics.  Under period,
    maxn and word the points are the exact values; under geom they are lo
    and the right edge of each bin, counts is the whole histogram and its
    last cell, the overflow, lies past the last point.  F is
    float(running count) / float(total), the rounding that cdf.csv and ks
    are pinned to (numpy's division of an int64 cumsum): past 2^53 counts
    the exact ratio can differ from it in the last digit.
    """
    total = acc.total_count()
    if total == 0:
        raise ValueError("empty accumulator")
    if normalization == GEOM:
        xs = [acc.lo + i * acc.width for i in range(acc.bins + 1)]
        counts = _geom_counts(acc).tolist()
    else:
        values = _table_values(acc, normalization)
        xs = sorted(values)
        counts = list(map(values.__getitem__, xs))
    fs = list(map(truediv, map(float, accumulate(counts[:len(xs)])), repeat(float(total))))
    return xs, counts, fs, total


def _gaussian_cdfs(xs, sigma2):
    """CDF of a centered Gaussian with the given variance at each of xs."""
    if sigma2 <= 0:
        raise ValueError("variance must be positive")
    scale = math.sqrt(2.0 * sigma2)
    return [0.5 * (1.0 + math.erf(x / scale)) for x in xs]


class DistributionReport(namedtuple("DistributionReport", "normalization sigma2_target ks "
                                     "ks_error_bound mean variance count cdf_points cdf_targets")):
    __slots__ = ()


def ks_distance(acc, normalization, sigma2):
    """KS distance to N(0, sigma2), evaluated on both sides of each jump.

    For the exact table-based normalizations the distance itself is
    exact; for the binned geometric normalization the report carries the
    discretization bound (largest single-bin mass plus tail mass).
    """
    xs, counts, fs, total = _support(acc, normalization)
    targets = _gaussian_cdfs(xs, sigma2)
    ks = max(max(map(abs, map(sub, fs, targets))),
             max(map(abs, map(sub, [0.0, *fs[:-1]], targets))), 1.0 - fs[-1])
    if normalization == GEOM:
        bound = (max(counts[1:-1]) + counts[0] + counts[-1]) / total
        mean = math.fsum(m[0] for m in acc.lg_sums.values()) / total
        var = math.fsum(m[1] for m in acc.lg_sums.values()) / total - mean * mean
    else:
        bound = 0.0
        mean = math.fsum(c * x for x, c in zip(xs, counts)) / total
        var = math.fsum(c * x * x for x, c in zip(xs, counts)) / total - mean * mean
    return DistributionReport(
        normalization=normalization,
        sigma2_target=float(sigma2),
        ks=ks,
        ks_error_bound=bound,
        mean=mean,
        variance=var,
        count=total,
        cdf_points=list(zip(xs, fs)),
        cdf_targets=targets,
    )


def empirical_char_fn(acc, normalization, ts):
    """Empirical characteristic function (real, imaginary) at each of ts.

    Exact-table normalizations only; computed from the joint table, so
    it is replayable for any t after a single enumeration pass.  Raises
    ValueError naming the first t whose t * x passes the float range.
    """
    if normalization not in (PERIOD, MAXN):
        raise ValueError(f"characteristic function unsupported for {normalization!r}")
    total = acc.total_count()
    if total == 0:
        raise ValueError("empty accumulator")
    values = _table_values(acc, normalization).items()
    out = []
    for t in ts:
        try:
            re = math.fsum(c * math.cos(t * x) for x, c in values) / total
            im = math.fsum(c * math.sin(t * x) for x, c in values) / total
        except ValueError:  # math.cos of an infinite t * x
            raise ValueError(f"{t} times the largest normalized winding "
                             "passes the float range") from None
        out.append((re, im))
    return out


def ratio_report(acc):
    """Sample mean/variance of lg/lp and lw/lp: (mean_g, var_g, mean_w, var_w).

    The lw/lp moments come from the exact table, the lg/lp ones from lg_sums.
    """
    cnt = acc.total_count()
    if cnt == 0:
        raise ValueError("empty accumulator")
    mean_g = math.fsum(m[2] for m in acc.lg_sums.values()) / cnt
    var_g = math.fsum(m[3] for m in acc.lg_sums.values()) / cnt - mean_g**2
    cells = acc.table.items()
    mean_w = math.fsum(c * lw / n for (n, _, lw), c in cells) / cnt
    var_w = math.fsum(c * (lw / n) ** 2 for (n, _, lw), c in cells) / cnt - mean_w**2
    return mean_g, var_g, mean_w, var_w


def write_table_csv(acc, path):
    """Exact joint table: one row per nonzero cell, lexicographic order."""
    with open(path, "w") as fh:
        fh.write("n,psi,lw,count\n")
        for (n, psi, lw), cnt in sorted(acc.table.items()):
            fh.write(f"{n},{psi},{lw},{cnt}\n")


def write_cdf_csv(report, path):
    """One row x, F_emp(x), F_gauss(x) per CDF point, all formatted in one pass."""
    flat = [v for (x, f), g in zip(report.cdf_points, report.cdf_targets) for v in (x, f, g)]
    with open(path, "w") as fh:
        fh.write("x,F_emp,F_gauss\n")
        fh.write("%.17g,%.17g,%.17g\n" * (len(flat) // 3) % tuple(flat))


def report_json(report, A, N):
    return {
        "A": A,
        "N": N,
        "normalization": report.normalization,
        "sigma2": report.sigma2_target,
        "ks": report.ks,
        "ks_error_bound": report.ks_error_bound,
        "mean": report.mean,
        "variance": report.variance,
        "count": report.count,
    }
