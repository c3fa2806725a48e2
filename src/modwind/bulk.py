"""Vectorized sharded enumeration and uniform sampling of necklaces.

An even-shift necklace of period length n is a necklace of m = n/2 digit
pairs, and its canonical primitive representative is the Lyndon word
over the Q = A^2 pairs, ordered (a, b) < (a', b') lexicographically: the
pair-word strictly smaller than each of its proper rotations.  A word is
held as its base-A integer key (digit d counts as d - 1).  The
candidates are the words whose later pairs are all >= the first pair c,
numbered by c and then by the base-(Q - c) index of their later pairs;
one strict mask keeps those smaller than every proper rotation.  Under
first pair c the candidates fall into boxes of (Q - c)^t consecutive
indices, in each of which the last t pairs run over all of [c, Q)^t.
The key, and its difference from each rotation, are linear in the
pairs, so each is one scalar per box plus one table over the box built
once per c: a block of candidates costs broadcast adds and comparisons,
and only box indices are ever divided.

A shard is a range (n, lo, hi) of at most _CHUNK candidates of period
length n.  `run` merges its shards in increasing order, so the result
does not depend on the thread count.  `count` walks the same shards but
runs only the Lyndon stage: a count needs the keys, not their digits,
lengths or table cells.

`sample` draws necklaces uniformly without canonicalizing them: all
invariants are constant on an even-shift class, and each necklace of
period length n has exactly n/2 words whose pair-word is aperiodic, so
uniform aperiodic words are uniform necklaces.  Its words go through
the same length and accumulation kernels as the enumeration.

Digit matrices are multiplied in int64, which is exact as long as
(A+1)^n < 2^62; the same bound keeps the keys below A^N < 2^62, and
enumeration stops there.  Past it, only reached by sampling, the trace
is taken in float64 with the entries rescaled at every step.  Either
float64 trace gives the geometric length with relative error far below
the 1e-9 dual-method tolerance.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
import random
from collections import Counter

import numpy as np

from . import invariants, necklace
from .errors import BudgetError
from .stats import JointCounts, merge

# int64 matrix entries stay exact below this bound on (A+1)^n.
_ENTRY_BITS = 62

# Desk-scale limits: enumeration walks at most WORK_CAP words (sum of
# A^n over even n <= N), and the (psi, lw) grid of the longest period
# length, which holds all of its table cells, has at most GRID_CAP cells.
WORK_CAP = 10**9
GRID_CAP = 1 << 24

# Candidates per shard, and digits per sampled block.
_CHUNK = 1 << 20
# Candidates per enumeration block; larger blocks fall out of cache.
_BLOCK = 1 << 15

# Serial seconds per Lyndon candidate of _count_worker and of _worker,
# and the wall time a process pool adds to a run (fork, worker start-up,
# result pickling), measured on a 2-core x86_64 Linux machine.
_COUNT_S = 7e-9
_RUN_S = 200e-9
_POOL_START_S = 0.05


def _check_feasible(A, N):
    if (N * math.log2(A + 1)) >= _ENTRY_BITS:
        raise BudgetError(f"int64 fast path infeasible for A={A}, N={N}")


def grid_cells(A, n):
    """Cells of the dense (psi, lw) bincount grid at period length n."""
    return ((A - 1) * n + 1) * (2 * A * n + 1)


def check_grid(A, N):
    """Raise BudgetError when the (psi, lw) grid at N passes GRID_CAP."""
    if grid_cells(A, N) > GRID_CAP:
        raise BudgetError(f"the (psi, lw) grid of A={A}, N={N} passes the grid cap "
                          f"of {GRID_CAP} cells")


def _candidate_ends(A, n):
    """Cumulative candidate counts of period length n by first pair."""
    return np.cumsum(np.arange(A * A, 0, -1, dtype=np.int64) ** (n // 2 - 1))


def _lyndon_keys(A, n, lo, hi):
    """Keys of the Lyndon pair-words among candidates lo..hi-1 of period
    length n, one array per block of _BLOCK candidates from lo.

    Every value formed is a partial sum of p_i Q^e_i - p_i Q^f_i over
    distinct e_i and distinct f_i, so it lies in (-A^n, A^n), inside
    int64 under _check_feasible's bound.
    """
    m = n // 2
    Q = A * A
    if m == 1:
        # A lone pair is its own key and its only rotation.
        for start in range(lo, hi, _BLOCK):
            yield np.arange(start, min(start + _BLOCK, hi), dtype=np.int64)
        return
    ends = _candidate_ends(A, n).tolist()
    # Column 0 holds pair i's weight in the key, column s its weight in
    # key - rot_s, where rot_s is the rotation by s pairs.
    weight = Q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    coef = np.stack([weight] + [weight - np.roll(weight, s) for s in range(1, m)], axis=1)
    c = None
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
        parts = []
        pos = start
        while pos < stop:
            if c is None or pos >= ends[c]:
                c = bisect.bisect_right(ends, pos)
                b = Q - c
                # The widest box that fits in a block, but at least one
                # pair wide, so that no candidate index is divided.
                t = 1
                while t < m - 1 and b ** (t + 1) <= _BLOCK:
                    t += 1
                box = b**t
                first = ends[c] - b ** (m - 1)
                # Row s of trail: form s's trailing part at each index of a box.
                pairs = np.arange(c, Q, dtype=np.int64)
                trail = np.zeros((m, 1), dtype=np.int64)
                for i in range(m - t, m):
                    trail = (trail[:, :, None] + coef[i, :, None, None] * pairs).reshape(m, -1)
            end = min(stop, ends[c])
            k0, a = divmod(pos - first, box)
            k1, z = divmod(end - 1 - first, box)
            # Row per box, column 0: the key's leading part; column s:
            # minus that of key - rot_s, so keep where trail[s] < lead[:, s].
            lead = c * coef[0] + np.zeros((k1 + 1 - k0, 1), dtype=np.int64)
            rest = np.arange(k0, k1 + 1, dtype=np.int64)
            for i in range(m - 1 - t, 0, -1):
                rest, pair = np.divmod(rest, b)
                lead += (pair[:, None] + c) * coef[i]
            lead[:, 1:] *= -1
            # Whole rows of boxes k0..k1, cropped to pos..end-1 after the
            # mask; a block within one box takes only its own columns.
            u, v = (a, z + 1) if k0 == k1 else (0, box)
            key = (lead[:, :1] + trail[0, u:v]).ravel()
            keep = trail[1, u:v] < lead[:, 1:2]
            for s in range(2, m):
                keep &= trail[s, u:v] < lead[:, s:s + 1]
            span = slice(a - u, a - u + end - pos)
            parts.append(key[span][keep.ravel()[span]])
            pos = end
        yield parts[0] if len(parts) == 1 else np.concatenate(parts)


def _digits(A, n, keys):
    """Digit array of shape (len(keys), n) in the smallest dtype holding A."""
    digits = np.empty((keys.size, n), dtype=np.min_scalar_type(A))
    for i in range(n):
        digits[:, i] = keys // A ** (n - 1 - i) % A + 1
    return digits


def _geodesic_lengths(A, digits):
    """Float64 geometric lengths 2*log(lambda) of the words' matrices.

    While (A+1)^n < 2^62 the trace t is exact in int64.  Past that bound
    the entries are float64, and after every step all four are divided
    by the power of two that brings the top-left entry, the largest, into
    [1/2, 1); the exponents are summed, so neither the trace nor its
    square is ever formed.
    """
    count, n = digits.shape
    if n * math.log2(A + 1) < _ENTRY_BITS:
        a = np.ones(count, dtype=np.int64)
        b = np.zeros(count, dtype=np.int64)
        c = np.zeros(count, dtype=np.int64)
        d = np.ones(count, dtype=np.int64)
        for i in range(n):
            w = digits[:, i].astype(np.int64)
            a, b = a * w + b, a
            c, d = c * w + d, c
        t = (a + d).astype(np.float64)
        return 2.0 * np.log((t + np.sqrt(t * t - 4.0)) / 2.0)
    a = np.ones(count)
    b = np.zeros(count)
    c = np.zeros(count)
    d = np.ones(count)
    exp = np.zeros(count, dtype=np.int64)
    for i in range(n):
        w = digits[:, i]
        a, b = a * w + b, a
        c, d = c * w + d, c
        _, k = np.frexp(a)
        a, b, c, d = (np.ldexp(x, -k) for x in (a, b, c, d))
        exp += k
    # lambda = T (1 + sqrt(1 - r^2)) / 2 with T = t 2^exp and r = 2 / T;
    # r underflows only where r^2 is far below rounding.
    t = a + d
    r = np.ldexp(2.0 / t, -exp)
    return 2.0 * (np.log(t) + (exp - 1) * math.log(2.0) + np.log1p(np.sqrt(1.0 - r * r)))


def _accumulate_block(acc, n, digits, lg, check_rate):
    """Fold a block of primitive words into the accumulator.

    Any word of a necklace will do: every invariant is constant on its
    class.
    """
    A = acc.A
    signs = np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int64)
    wide = digits.astype(np.int64)
    psi = wide @ signs
    lw = 2 * wide.sum(axis=1)

    pmax = (A - 1) * n // 2
    lwmax = 2 * A * n
    comp = (psi + pmax) * (lwmax + 1) + lw
    # Only the span of grid cells this block touches, so small blocks of
    # a large-A run stay cheap.  Enumeration is held to GRID_CAP cells,
    # but sampled words at large A * n can spread a few draws over a much
    # wider span, which is sorted instead of counted densely.
    low = int(comp.min())
    if int(comp.max()) - low < _CHUNK:
        counts = np.bincount(comp - low)
        cells = np.nonzero(counts)[0]
        counts = counts[cells]
    else:
        cells, counts = np.unique(comp - low, return_counts=True)
    for i, k in zip(cells.tolist(), counts.tolist()):
        p, w = divmod(i + low, lwmax + 1)
        acc.table[(n, p - pmax, w)] += k

    row = acc._hist_row(n)
    x = psi / np.sqrt(lg)
    idx = np.floor((x - acc.hist.lo) / acc.hist.width).astype(np.int64)
    np.clip(idx, -1, acc.hist.bins, out=idx)
    row += np.bincount(idx + 1, minlength=acc.hist.bins + 2)
    rg = lg / n
    acc.lg_sums[n] += (x.sum(), (x * x).sum(), rg.sum(), (rg * rg).sum())

    if check_rate:
        for i in range(0, len(digits), check_rate):
            word = tuple(int(v) for v in digits[i])
            logsum = invariants.geodesic_length_logsum(word)
            eigen = invariants.geodesic_length_eigen(word)
            # Both oracles, and the float64 length the block was binned by.
            rel = max(abs(logsum - eigen), abs(lg[i] - eigen)) / eigen
            acc.check_count += 1
            acc.check_max_rel = max(acc.check_max_rel, rel)


def run_shard(A, N, n, lo, hi, hist=None, check_rate=0):
    """Accumulate the necklaces among candidates lo..hi-1 of period length n."""
    _check_feasible(A, N)
    acc = JointCounts(A, N, hist)
    for keys in _lyndon_keys(A, n, lo, hi):
        if keys.size:
            block = _digits(A, n, keys)
            _accumulate_block(acc, n, block, _geodesic_lengths(A, block), check_rate)
    return acc


def shard_ranges(A, N):
    """Every candidate of period length <= N, as (n, lo, hi) ranges of at
    most _CHUNK candidates in increasing order.  Raises BudgetError,
    before making any, past WORK_CAP or GRID_CAP."""
    if any(w > WORK_CAP for w in itertools.accumulate(A**n for n in range(2, N + 1, 2))):
        raise BudgetError(f"enumerating A={A}, N={N} passes the work cap of "
                          f"{WORK_CAP} words; sample it instead")
    check_grid(A, N)
    _check_feasible(A, N)
    ranges = []
    for n in range(2, N + 1, 2):
        total = int(_candidate_ends(A, n)[-1])
        ranges += [(n, lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]
    return ranges


def _candidates(ranges):
    return sum(hi - lo for _, lo, hi in ranges)


def _worker(args):
    return run_shard(*args)


def _count_worker(args):
    """Necklaces among one shard's candidates: its Lyndon keys alone."""
    return sum(keys.size for keys in _lyndon_keys(*args))


def _map_in_order(worker, jobs, threads, serial_s):
    """Yield worker(job) for each job in order, on at most `threads`
    processes; with one, or when the jobs' estimated serial time serial_s
    is too little to pay for a pool, the jobs run here, without one."""
    # The pool forks all its workers at once, so never more than can run.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(threads, len(jobs), cpus or 1)
    # w workers save at most (1 - 1/w) of the serial time.
    if workers <= 1 or serial_s * (1 - 1 / workers) <= _POOL_START_S:
        yield from map(worker, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(worker, jobs)


def _merge_in_order(shards, total, progress):
    """Merge an ordered stream of shards as a balanced tree, left to right.

    A linear fold would copy the growing table once per shard; the tree
    copies each cell about log2(total) times and holds that many partial
    results.
    """
    stack = []
    for i, acc in enumerate(shards, 1):
        size = 1
        while stack and stack[-1][0] == size:
            acc = merge(stack.pop()[1], acc)
            size *= 2
        stack.append((size, acc))
        if progress:
            progress(i, total)
    result = stack.pop()[1]
    while stack:
        result = merge(stack.pop()[1], result)
    return result


def run(A, N, hist=None, threads=1, check_rate=0, progress=None):
    """Full enumeration, one shard per range of shard_ranges; returns the
    merged accumulator.

    Shards are merged in a fixed order, so the result is independent of
    the thread count.
    """
    ranges = shard_ranges(A, N)
    jobs = [(A, N, *r, hist, check_rate) for r in ranges]
    shards = _map_in_order(_worker, jobs, threads, _RUN_S * _candidates(ranges))
    return _merge_in_order(shards, len(jobs), progress)


def count(A, N, threads=1, progress=None):
    """Number of necklaces of period length <= N, counted by enumerating
    the Lyndon keys of the shards of `run`, with the same progress calls."""
    ranges = shard_ranges(A, N)
    jobs = [(A, *r) for r in ranges]
    total = 0
    shards = _map_in_order(_count_worker, jobs, threads, _COUNT_S * _candidates(ranges))
    for i, found in enumerate(shards, 1):
        total += found
        if progress:
            progress(i, len(jobs))
    return total


def _aperiodic(block):
    """Rows whose pair-word differs from each of its proper rotations.

    A pair-word of length m equal to its rotation by some s pairs equals
    its rotation by a proper divisor of m, and a word whose period
    divides its length is periodic exactly when it equals its own shift.
    """
    n = block.shape[1]
    m = n // 2
    keep = np.ones(len(block), dtype=bool)
    for s in range(1, m):
        if m % s == 0:
            keep &= (block[:, 2 * s:] != block[:, :-2 * s]).any(axis=1)
    return keep


def sample(A, N, count, seed, hist=None, check_rate=0):
    """Accumulate `count` independent uniform draws from the necklaces of
    period length <= N.

    Each draw's period length n comes from one exact integer draw over
    pi_exact(A, N), so it has probability |P_n| / pi_exact(A, N) for any
    N.  The draws of each n are uniform words on [A]^n, made in numpy
    blocks of at most _CHUNK digits, keeping the words whose pair-word is
    aperiodic.  The result depends on the seed alone.
    """
    # _accumulate_block keys a word by its int64 (psi, lw) grid cell.
    if grid_cells(A, N) >= 1 << 63:
        raise ValueError(f"the (psi, lw) grid of A={A}, N={N} overflows int64")
    lengths = range(2, N + 1, 2)
    weights = [necklace.count_Pn(A, n) for n in lengths]
    bounds = list(itertools.accumulate(weights))
    rng = random.Random(seed)
    draws = Counter(bisect.bisect_right(bounds, rng.randrange(bounds[-1]))
                    for _ in range(count))
    words = np.random.default_rng(rng.getrandbits(128))
    dtype = np.min_scalar_type(A)
    acc = JointCounts(A, N, hist)
    for i, n in enumerate(lengths):
        need = draws[i]
        # Share of [A]^n that is kept: n/2 words of each necklace.
        kept = weights[i] * (n // 2) / A**n
        while need:
            size = min(max(1, _CHUNK // n), math.ceil(need / kept))
            block = words.integers(1, A, size=(size, n), endpoint=True, dtype=dtype)
            block = block[_aperiodic(block)][:need]
            if len(block):
                _accumulate_block(acc, n, block, _geodesic_lengths(A, block), check_rate)
                need -= len(block)
    return acc
