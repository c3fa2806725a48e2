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
from itertools import accumulate
from operator import add

from . import check_bound
from .errors import BudgetError
from .necklace import _divisors, mobius
from .stats import check_grid


def _digit_sums(A, M):
    """[c_0, ..., c_M]: c_m[e] counts the words of m digits in 1..A whose
    digit sum is m + e, each row the A-wide running-window sums of the last."""
    sums = [[1]]
    for _ in range(M):
        prev = sums[-1]
        top = len(prev) - 1
        cum = [0, *accumulate(prev)]
        sums.append([cum[min(k, top) + 1] - cum[max(k - A + 1, 0)]
                     for k in range(top + A)])
    return sums


def table(A, N, progress=None):
    """Exact {(n, psi, lw): count} over the necklaces of period length <= N,
    the table `bulk.run(A, N).table` enumerates; progress(i, N // 2) after
    each period length.  Raises BudgetError, before building anything,
    past the grid cap or at A^N >= 2^62."""
    check_bound(A, N)
    check_grid(A, N)
    # The counts are exact Python ints at any size.  The route stops at
    # A^N < 2^62, the range its tests cover: enumeration checks it below
    # (A+1)^N < 2^62; up to A^N < 2^62 an int64 port of the same Moebius
    # sum and the closed-form sums of its counts, psi, psi^2 and lw do.
    if A**N >= 2**62:
        raise BudgetError(f"the exact table of A={A}, N={N} passes its checked range, "
                          f"A^N < 2^62")
    M = N // 2
    sums = _digit_sums(A, M)
    out = Counter()
    for m in range(1, M + 1):
        prim = [[ce * cf for cf in sums[m]] for ce in sums[m]]
        for d in _divisors(m)[1:]:
            sign = mobius(d)
            if sign:
                sub = sums[m // d]
                for i, ci in enumerate(sub):
                    row = prim[d * i]
                    row[::d] = map(add, row[::d], [sign * ci * cj for cj in sub])
        # m.__rmod__(v) is v % m, per cell in C.
        if min(map(min, prim)) < 0 or any(any(map(m.__rmod__, row)) for row in prim):
            raise ArithmeticError(f"non-integral necklace count at m={m}")
        width = len(prim)
        for e, row in enumerate(prim):
            lw = 2 * e + 4 * m
            for psi, w, v in zip(range(e, e - width, -1), range(lw, lw + 2 * width, 2), row):
                if v:
                    out[(2 * m, psi, w)] = v // m
        if progress:
            progress(m, M)
    return out
