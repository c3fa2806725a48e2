"""The exact (n, psi, lw) table from digit-sum counts, with no enumeration.

Let c_m[e] count the words of m digits in 1..A whose digit sum is
m + e.  A pair-word of length m whose first digits sum to m + e and
whose second digits sum to m + f has psi = e - f and lw = 2(e + f) + 4m,
and there are c_m[e] * c_m[f] of them.  (e, f) -> (psi, lw) is
injective, so the outer product c_m x c_m is the length-m table,
relabelled.  A pair-word of length m that is d repetitions of one of
length m/d has d times its sums, so Moebius inversion over d, with
each term on the stride-d sublattice of (e, f), gives the aperiodic
pair-words, and each necklace of period length 2m has m of them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .errors import BudgetError
from .necklace import mobius
from .stats import check_grid


def table(A, N, progress=None):
    """Exact {(n, psi, lw): count} over the necklaces of period length <= N,
    the table `bulk.run(A, N).table` enumerates; progress(i, N // 2) after
    each period length.  Raises BudgetError, before building anything,
    past the grid cap or the int64 range."""
    if A < 2 or N < 2 or N % 2:
        raise ValueError("need A >= 2 and even N >= 2")
    check_grid(A, N)
    # Every count and partial Moebius sum is below 2 A^N.
    if A**N >= 2**62:
        raise BudgetError(f"the counts of A={A}, N={N} overflow int64")
    M = N // 2
    sums = [np.ones(1, dtype=np.int64)]
    for _ in range(M):
        sums.append(np.convolve(sums[-1], np.ones(A, dtype=np.int64)))
    out = Counter()
    for m in range(1, M + 1):
        prim = np.zeros((sums[m].size,) * 2, dtype=np.int64)
        for d in range(1, m + 1):
            sign = mobius(d) if m % d == 0 else 0
            if sign:
                prim[::d, ::d] += sign * np.outer(sums[m // d], sums[m // d])
        if (prim % m).any() or (prim < 0).any():
            raise ArithmeticError(f"non-integral necklace count at m={m}")
        e, f = np.nonzero(prim)
        for p, w, v in zip((e - f).tolist(), (2 * (e + f) + 4 * m).tolist(),
                           (prim[e, f] // m).tolist()):
            out[(2 * m, p, w)] = v
        if progress:
            progress(m, M)
    return out
