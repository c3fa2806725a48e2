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
The key, its difference from each rotation, the winding psi and the
word length lw are linear in the pairs, so each is one scalar per box
plus one table over the box built once per c, and the trace of the
word's matrix is bilinear in one 2x2 matrix per box and one per table
entry: a block of candidates costs broadcast adds, comparisons and one
product, no digit is decoded, and only box indices are ever divided.

A shard is a range (n, lo, hi) of at most _CHUNK candidates of period
length n.  `run` merges its shards in increasing order, so the result
does not depend on the thread count.  `count` walks the same shards but
forms only the Lyndon masks: a count needs no key, invariant or table
cell.

`sample` draws necklaces uniformly without canonicalizing them: all
invariants are constant on an even-shift class, and each necklace of
period length n has exactly n/2 words whose pair-word is aperiodic, so
uniform aperiodic words are uniform necklaces.  Its digit blocks give
psi, lw and the trace directly, and go through the same accumulation
kernel as the enumeration.

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
from .stats import GRID_CAP, JointCounts, check_grid, grid_cells, merge

# int64 matrix entries stay exact below this bound on (A+1)^n.
_ENTRY_BITS = 62

# Enumeration walks at most WORK_CAP Lyndon candidates, a minute of serial run at _RUN_S.
WORK_CAP = 12 * 10**8

# Candidates per shard, and digits per sampled block.
_CHUNK = 1 << 20
# Candidates per enumeration block; larger blocks fall out of cache.
_BLOCK = 1 << 15

# Serial seconds per Lyndon candidate of _count_worker and of _worker,
# and the wall time a process pool adds to a run (fork, worker start-up,
# result pickling), measured on a 2-core x86_64 Linux machine.
_COUNT_S = 4e-9
_RUN_S = 50e-9
_POOL_START_S = 0.05
# Serial seconds of `sample` per draw and per digit of period length N,
# measured on the same machine; the digit rate is the float64 trace's,
# the slower of the two traces.
_DRAW_S = 1e-6
_DIGIT_S = 50e-9


def _check_feasible(A, N):
    if (N * math.log2(A + 1)) >= _ENTRY_BITS:
        raise BudgetError(f"enumerating A={A}, N={N} passes the int64 cap on its traces, "
                          f"(A+1)^N < 2^{_ENTRY_BITS}; sample it instead")


def _candidate_ends(A, n):
    """Cumulative candidate counts of period length n by first pair."""
    return np.cumsum(np.arange(A * A, 0, -1, dtype=np.int64) ** (n // 2 - 1))


# The 2x2 identity matrix as one column of rows (00, 01, 10, 11).
_IDENTITY = np.array([[1], [0], [0], [1]], dtype=np.int64)


def _mul(x, y):
    """Products x y of 2x2 matrices held as rows (00, 01, 10, 11),
    broadcast over the other axes."""
    z = np.einsum("ij...,jk...->ik...", x.reshape(2, 2, *x.shape[1:]),
                  y.reshape(2, 2, *y.shape[1:]))
    return z.reshape(4, *z.shape[2:])


def _lyndon_blocks(A, n, lo, hi, values=True):
    """The Lyndon pair-words among candidates lo..hi-1 of period length n,
    one item per block of _BLOCK candidates from lo: the int64 arrays
    (keys, psi, lw, trace) over the block's kept words, in candidate
    order, or with values=False only how many words it keeps.

    The key, psi, lw and each key - rot_s, where rot_s is the rotation
    by s pairs, are sums of one term per pair.  The word's matrix is
    C R S, the product of the matrices of its first pair c, of the other
    leading pairs of its box and of its trailing pairs, and its trace is
    that of R T with T = S C, R00 T00 + R01 T10 + R10 T01 + R11 T11.  A
    key or key - rot_s is a partial sum of p_i Q^e_i - p_i Q^f_i over
    distinct e_i and distinct f_i, so it lies in (-A^n, A^n); every entry
    of R and of T, and every term of the trace, is a sum of nonnegative
    terms of the trace, below (A+1)^n.  Both are inside int64 under
    _check_feasible's bound.
    """
    m = n // 2
    Q = A * A
    if m == 1:
        # A lone pair (a, b) is its own key and its only rotation.
        for start in range(lo, hi, _BLOCK):
            stop = min(start + _BLOCK, hi)
            if not values:
                yield stop - start
                continue
            keys = np.arange(start, stop, dtype=np.int64)
            a, b = np.divmod(keys, A)
            a += 1
            b += 1
            yield keys, a - b, 2 * (a + b), a * b + 2
        return
    ends = _candidate_ends(A, n).tolist()
    # Pair i's weight in the key and in each key - rot_s.
    weight = Q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    coef = np.stack([weight - np.roll(weight, s) for s in range(1, m)], axis=1)
    if values:
        coef = np.concatenate([weight[:, None], coef], axis=1)
    # Terms rows 0..2 are the key, psi and lw, with values; the rest
    # are the key - rot_s.
    vals = 3 if values else 0
    c = None
    for start in range(lo, hi, _BLOCK):
        stop = min(start + _BLOCK, hi)
        parts = []
        pos = start
        while pos < stop:
            if c is None or pos >= ends[c]:
                c = bisect.bisect_right(ends, pos)
                b = Q - c
                # The widest box that fits in a block, at most m - 2 pairs
                # wide so that the table of c serves b boxes or more, but
                # at least one pair wide, so that no candidate index is
                # divided.
                t = 1
                while t < m - 2 and b ** (t + 1) <= _BLOCK:
                    t += 1
                box = b**t
                first = ends[c] - b ** (m - 1)
                pairs = np.arange(c, Q, dtype=np.int64)
                if values:
                    # The pairs c..Q-1 as digits (a, b): their terms in
                    # psi and lw, and their matrices.
                    a_d, b_d = np.divmod(pairs, A)
                    a_d += 1
                    b_d += 1
                    extra = np.stack([a_d - b_d, 2 * (a_d + b_d)])
                    mats = np.stack([a_d * b_d + 1, a_d, b_d, np.ones_like(pairs)])

                def terms(i, j=slice(None)):
                    """Pair i's terms, one column per pair c + j."""
                    rows = coef[i, :, None] * pairs[j]
                    if values:
                        rows = np.concatenate([rows[:1], extra[:, j], rows[1:]])
                    return rows

                # Column k of trail and tmat: the terms and the matrix S
                # of the last t pairs at index k of a box, built from the
                # last pair back so that the longest axis is innermost.
                trail = terms(m - 1)
                tmat = mats if values else None
                for i in range(m - 2, m - 1 - t, -1):
                    trail = (terms(i)[:, :, None] + trail[:, None, :]).reshape(len(trail), -1)
                    if values:
                        tmat = _mul(mats[:, :, None], tmat[:, None, :]).reshape(4, -1)
                if values:
                    # Rows T00, T10, T01, T11 of T = S C, to pair with
                    # R00, R01, R10, R11.
                    tmat = _mul(tmat, mats[:, :1])[[0, 2, 1, 3]]
            end = min(stop, ends[c])
            k0, a = divmod(pos - first, box)
            k1, z = divmod(end - 1 - first, box)
            # Column per box: its leading terms, and R.
            lead = terms(0, slice(0, 1)) + np.zeros((1, k1 + 1 - k0), dtype=np.int64)
            rmat = _IDENTITY
            rest = np.arange(k0, k1 + 1, dtype=np.int64)
            for i in range(m - 1 - t, 0, -1):
                rest, pair = np.divmod(rest, b)
                lead += terms(i, pair)
                if values:
                    rmat = _mul(mats[:, pair], rmat)
            # Whole boxes k0..k1, and the mask cropped to pos..end-1; a
            # block within one box takes only its own columns.
            u, v = (a, z + 1) if k0 == k1 else (0, box)
            # Keep where every key - rot_s is negative.
            keep = (trail[vals:, None, u:v] < -lead[vals:, :, None]).all(axis=0).ravel()
            keep[:a - u] = False
            keep[a - u + end - pos:] = False
            if values:
                out = np.empty((4, k1 + 1 - k0, v - u), dtype=np.int64)
                np.add(lead[:3, :, None], trail[:3, None, u:v], out=out[:3])
                np.einsum("ir,ix->rx", rmat, tmat[:, u:v], out=out[3])
                parts.append(np.compress(keep, out.reshape(4, -1), axis=1))
            else:
                parts.append(np.count_nonzero(keep))
            pos = end
        if not values:
            yield sum(parts)
        else:
            yield tuple(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1))


def _digits(A, n, keys):
    """Digit array of shape (len(keys), n) in the smallest dtype holding A."""
    digits = np.empty((keys.size, n), dtype=np.min_scalar_type(A))
    for i in range(n):
        digits[:, i] = keys // A ** (n - 1 - i) % A + 1
    return digits


def _trace_lengths(trace):
    """Geometric lengths 2*log(lambda) of matrices of int64 trace t, where
    t = lambda + 1/lambda."""
    t = trace.astype(np.float64)
    return 2.0 * np.log((t + np.sqrt(t * t - 4.0)) / 2.0)


def _geodesic_lengths(A, digits):
    """Float64 geometric lengths 2*log(lambda) of the words' matrices.

    While (A+1)^n < 2^62 the trace is exact in int64.  Past that bound
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
        return _trace_lengths(a + d)
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


def _accumulate_block(acc, n, psi, lw, lg):
    """Fold a block of primitive words of period length n, given by their
    int64 psi and lw and float64 lg, into the accumulator's histogram and
    sums; return the block's occupied (psi, lw) grid cells and their
    counts, for _fold_cells to add to the table.

    Any word of a necklace will do: every invariant is constant on its
    class.
    """
    A = acc.A
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
    row = acc._hist_row(n)
    x = psi / np.sqrt(lg)
    idx = np.floor((x - acc.hist.lo) / acc.hist.width).astype(np.int64)
    np.clip(idx, -1, acc.hist.bins, out=idx)
    row += np.bincount(idx + 1, minlength=acc.hist.bins + 2)
    rg = lg / n
    acc.lg_sums[n] += (x.sum(), (x * x).sum(), rg.sum(), (rg * rg).sum())
    return cells + low, counts


def _fold_cells(acc, n, blocks):
    """Add the (cells, counts) that _accumulate_block returned for blocks
    of period length n to acc.table, one entry per distinct cell."""
    if not blocks:
        return
    cells, where = np.unique(np.concatenate([c for c, _ in blocks]), return_inverse=True)
    counts = np.zeros(cells.size, dtype=np.int64)
    np.add.at(counts, where, np.concatenate([k for _, k in blocks]))
    psi, lw = np.divmod(cells, 2 * acc.A * n + 1)
    psi -= (acc.A - 1) * n // 2
    keys = zip(itertools.repeat(n), psi.tolist(), lw.tolist())
    acc.table.update(dict(zip(keys, counts.tolist())))


def _check_lengths(acc, words, lg):
    """Check the float64 lengths lg of the digit rows words against both
    mpmath oracles, and the oracles against each other."""
    for word, length in zip(words.tolist(), lg.tolist()):
        logsum = invariants.geodesic_length_logsum(word)
        eigen = invariants.geodesic_length_eigen(word)
        rel = max(abs(logsum - eigen), abs(length - eigen)) / eigen
        acc.check_count += 1
        acc.check_max_rel = max(acc.check_max_rel, rel)


def run_shard(A, N, n, lo, hi, hist=None, check_rate=0):
    """Accumulate the necklaces among candidates lo..hi-1 of period length
    n; every check_rate-th word of a block, decoded from its key, is
    checked against the mpmath lengths."""
    _check_feasible(A, N)
    acc = JointCounts(A, N, hist)
    blocks = []
    for keys, psi, lw, trace in _lyndon_blocks(A, n, lo, hi):
        if keys.size:
            lg = _trace_lengths(trace)
            blocks.append(_accumulate_block(acc, n, psi, lw, lg))
            if check_rate:
                _check_lengths(acc, _digits(A, n, keys[::check_rate]), lg[::check_rate])
    _fold_cells(acc, n, blocks)
    return acc


def shard_ranges(A, N):
    """Every candidate of period length <= N, as (n, lo, hi) ranges of at
    most _CHUNK candidates in increasing order.  Raises BudgetError,
    before making any, past GRID_CAP, the int64 bound or WORK_CAP."""
    # The grid cap bounds A^2, and the int64 bound A^N, so the candidate
    # counts are cheap to form and exact.
    check_grid(A, N)
    _check_feasible(A, N)
    lengths = range(2, N + 1, 2)
    totals = [int(_candidate_ends(A, n)[-1]) for n in lengths]
    if sum(totals) > WORK_CAP:
        raise BudgetError(f"enumerating A={A}, N={N} passes the work cap of "
                          f"{WORK_CAP} Lyndon candidates; sample it instead")
    return [(n, lo, min(lo + _CHUNK, total))
            for n, total in zip(lengths, totals) for lo in range(0, total, _CHUNK)]


def _candidates(ranges):
    return sum(hi - lo for _, lo, hi in ranges)


def _worker(args):
    return run_shard(*args)


def _count_worker(args):
    """Necklaces among one shard's candidates: its Lyndon masks alone."""
    return sum(_lyndon_blocks(*args, values=False))


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


def check_sample(A, N, count):
    """Raise BudgetError when `count` draws of period length <= N pass the
    int64 grid or the serial time WORK_CAP allows enumeration."""
    # _accumulate_block keys a word by its int64 (psi, lw) grid cell.
    if grid_cells(A, N) >= 1 << 63:
        raise BudgetError(f"the (psi, lw) grid of A={A}, N={N} passes the int64 cap "
                          f"of 2^63 cells")
    if count * (_DRAW_S + _DIGIT_S * N) > WORK_CAP * _RUN_S:
        raise BudgetError(f"{count} draws at A={A}, N={N} pass the work cap of "
                          f"{WORK_CAP * _RUN_S:.0f} s of serial sampling")


def sample(A, N, count, seed, hist=None, check_rate=0):
    """Accumulate `count` independent uniform draws from the necklaces of
    period length <= N.

    Each draw's period length n comes from one exact integer draw over
    pi_exact(A, N), so it has probability |P_n| / pi_exact(A, N) for any
    N.  The draws of each n are uniform words on [A]^n, made in numpy
    blocks of at most _CHUNK digits, keeping the words whose pair-word is
    aperiodic.  The result depends on the seed alone.  check_sample
    prices the draws before the first.
    """
    check_sample(A, N, count)
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
        signs = np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int64)
        # Share of [A]^n that is kept: n/2 words of each necklace.
        kept = weights[i] * (n // 2) / A**n
        while need:
            size = min(max(1, _CHUNK // n), math.ceil(need / kept))
            block = words.integers(1, A, size=(size, n), endpoint=True, dtype=dtype)
            block = block[_aperiodic(block)][:need]
            if len(block):
                wide = block.astype(np.int64)
                lg = _geodesic_lengths(A, block)
                cells = _accumulate_block(acc, n, wide @ signs, 2 * wide.sum(axis=1), lg)
                _fold_cells(acc, n, [cells])
                if check_rate:
                    _check_lengths(acc, block[::check_rate], lg[::check_rate])
                need -= len(block)
    return acc
