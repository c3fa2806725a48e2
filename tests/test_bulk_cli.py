import bisect
import concurrent.futures
import contextlib
import functools
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import types
import xml.etree.ElementTree as ET
from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwind import bulk, cli, invariants, lattice, necklace, stats, verify
from modwind.errors import BudgetError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_python(*argv, cwd=None, **env_vars):
    """A fresh interpreter with this checkout's package on the path."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def reference_accumulator(A, N):
    acc = stats.JointCounts(A, N)
    for nk in necklace.enumerate_necklaces(A, N):
        acc.accumulate(invariants.build_record(nk))
    return acc


@pytest.fixture
def pool_starts(monkeypatch):
    """The max_workers of each process pool started; the jobs run in process."""
    sizes = []

    class Recorder:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    return sizes


class TestBulk:
    def test_matches_reference(self):
        for A, N in ((2, 8), (3, 6), (4, 8)):
            fast = bulk.run(A, N)
            slow = reference_accumulator(A, N)
            assert fast.table == slow.table
            for n in slow.lg_hist:
                assert (fast.lg_hist[n] == slow.lg_hist[n]).all()
                # sum x cancels to about 0; the other three sums are positive
                assert fast.lg_sums[n][0] == pytest.approx(slow.lg_sums[n][0], abs=1e-9)
                assert fast.lg_sums[n][1:] == pytest.approx(slow.lg_sums[n][1:], rel=1e-12)

    def test_shard_partition(self, monkeypatch):
        # Ranges tile each period length's candidates, (Q - c)^(n/2 - 1) per first pair c.
        monkeypatch.setattr(bulk, "_CHUNK", 7)
        ranges = bulk.shard_ranges(3, 6)
        for n in (2, 4, 6):
            tiles = [(lo, hi) for m, lo, hi in ranges if m == n]
            assert all(hi - lo <= 7 for lo, hi in tiles)
            assert [lo for lo, _ in tiles] == [0] + [hi for _, hi in tiles[:-1]]
            assert tiles[-1][1] == sum(k ** (n // 2 - 1) for k in range(1, 10))
        whole = bulk.run(3, 6)
        merged = functools.reduce(stats.merge, [bulk.run_shard(3, 6, *r) for r in ranges])
        assert merged.table == whole.table

    def test_shard_count_follows_work(self, monkeypatch):
        calls = []
        real = bulk.run_shard

        def counted(*args):
            calls.append(args[2:5])
            return real(*args)

        monkeypatch.setattr(bulk, "run_shard", counted)
        bulk.run(300, 2)
        assert calls == [(2, 0, 90_000)]
        calls.clear()
        bulk.run(30, 4)  # 900 + 900 * 901 / 2 candidates
        assert calls == [(2, 0, 900), (4, 0, 405_450)]

    @pytest.mark.parametrize("A, N", [(3, 8), (4, 6)])
    def test_blocks_straddle_first_pairs(self, A, N, monkeypatch):
        default = bulk.run(A, N)
        monkeypatch.setattr(bulk, "_CHUNK", 11)
        monkeypatch.setattr(bulk, "_BLOCK", 3)
        small = bulk.run(A, N)
        assert small.table == default.table
        assert small.lg_hist.keys() == default.lg_hist.keys()
        for n in default.lg_hist:
            assert (small.lg_hist[n] == default.lg_hist[n]).all()
        assert small.total_count() == default.total_count() == necklace.pi_exact(A, N)

    def test_thread_count_invariance(self, monkeypatch):
        # A real pool, however little the work.
        monkeypatch.setattr(bulk, "_POOL_START_S", 0)
        one = bulk.run(3, 8, threads=1)
        two = bulk.run(3, 8, threads=2)
        assert one.table == two.table
        for n in one.lg_hist:
            assert (one.lg_hist[n] == two.lg_hist[n]).all()
            assert (one.lg_sums[n] == two.lg_sums[n]).all()

    def test_dual_length_sampling(self):
        acc = bulk.run(5, 6, check_rate=16)
        assert acc.check_count >= acc.total_count() // 16
        assert acc.check_max_rel < 1e-9

    def test_infeasible_configuration(self):
        with pytest.raises(BudgetError):
            bulk.run(100, 12)
        with pytest.raises(BudgetError):
            bulk.shard_ranges(100, 12)
        # The pricing of run and count at the grid and work caps: 1.05e9
        # Lyndon candidates at A = 5, N = 14 and 3.7e8 at A = 2, N = 30
        # are under the cap, 2.3e10 and 1.5e9 two period lengths on are not.
        for accepted, refused in (((1448, 2), (1449, 2)), ((5, 14), (5, 16)),
                                  ((2, 30), (2, 32))):
            assert bulk.shard_ranges(*accepted)
            with pytest.raises(BudgetError, match="cap"):
                bulk.shard_ranges(*refused)

    def test_sparse_block_table(self, monkeypatch):
        # Blocks whose cell span passes _CHUNK are sorted, not counted densely.
        dense = bulk.run(4, 8)
        monkeypatch.setattr(bulk, "_CHUNK", 64)
        assert bulk.run(4, 8).table == dense.table

    def test_pool_size_bounded(self, pool_starts, monkeypatch):
        sizes = pool_starts
        monkeypatch.setattr(bulk, "_CHUNK", 2)
        monkeypatch.setattr(bulk, "_POOL_START_S", 0)
        monkeypatch.setattr(bulk.os, "sched_getaffinity", lambda pid: set(range(8)))
        bulk.run(2, 4, threads=100_000)  # 4 + 10 candidates: 7 shards
        bulk.run(3, 4, threads=100_000)  # 28 shards, 8 usable CPUs
        bulk.run(3, 4, threads=3)
        assert sizes == [7, 8, 3]
        monkeypatch.setattr(bulk.os, "sched_getaffinity", lambda pid: {0})
        bulk.run(3, 4, threads=100_000)
        assert sizes == [7, 8, 3]

    def test_pool_only_for_enough_work(self, pool_starts, monkeypatch):
        monkeypatch.setattr(bulk.os, "sched_getaffinity", lambda pid: {0, 1})
        # 1.1e7 candidates at 4 ns and 2 364 at 50 ns: less than a pool costs.
        assert bulk.count(9, 8, threads=2) == necklace.pi_exact(9, 8)
        bulk.run(3, 8, threads=2)
        assert pool_starts == []
        # 2.3e6 candidates at 50 ns: about 0.12 s of serial work.
        bulk.run(5, 10, threads=2)
        assert pool_starts == [2]


def _lyndon_keys_by_division(A, n, lo, hi):
    """The division kernel the box kernels replaced: each candidate is
    unpacked from its index, and each rotation taken, by int64 divmods."""
    m = n // 2
    Q = A * A
    ends = bulk._candidate_ends(A, n)
    for start in range(lo, hi, bulk._BLOCK):
        idx = np.arange(start, min(start + bulk._BLOCK, hi), dtype=np.int64)
        c = np.searchsorted(ends, idx, side="right")
        # First pair c owns the (Q - c)^(m - 1) candidates ending at ends[c].
        rest = idx - ends[c] + (Q - c) ** (m - 1)
        key = c * Q ** (m - 1)
        for j in range(m - 1, 0, -1):
            rest, pair = np.divmod(rest, Q - c)
            key += (pair + c) * Q ** (m - 1 - j)
        keep = np.ones(idx.size, dtype=bool)
        for s in range(1, m):
            head, tail = np.divmod(key, Q ** (m - s))
            keep &= key < tail * Q**s + head
        yield key[keep]


def assert_same_blocks(A, n, lo, hi):
    fast = [keys for keys, *_ in bulk._lyndon_blocks(A, n, lo, hi)]
    sizes = list(bulk._lyndon_blocks(A, n, lo, hi, values=False))
    slow = list(_lyndon_keys_by_division(A, n, lo, hi))
    assert len(fast) == len(sizes) == len(slow)
    for got, size, want in zip(fast, sizes, slow):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert size == want.size


class TestLyndonKeys:
    @pytest.mark.parametrize("A, N", [(2, 14), (3, 10), (4, 10), (5, 8), (9, 6)])
    def test_every_shard(self, A, N):
        for r in bulk.shard_ranges(A, N):
            assert_same_blocks(A, *r)

    @pytest.mark.parametrize("block", [3, 7])
    def test_blocks_straddle_boxes(self, block, monkeypatch):
        monkeypatch.setattr(bulk, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for A, N in ((2, 12), (3, 8), (4, 6), (5, 6)):
            for n in range(2, N + 1, 2):
                total = int(bulk._candidate_ends(A, n)[-1])
                for _ in range(10):
                    lo, hi = sorted(rng.integers(0, total + 1, size=2).tolist())
                    assert_same_blocks(A, n, lo, hi)

    @pytest.mark.parametrize("n", [2, 4])
    def test_boxes_wider_than_a_block(self, n):
        # At n = 4, Q - c > _BLOCK for most c, so each box is one pair
        # wide; n = 2 has no later pairs at all.
        total = int(bulk._candidate_ends(300, n)[-1])
        for lo in sorted({0, 123_456 % total, max(0, total - 100_000)}):
            assert_same_blocks(300, n, lo, min(total, lo + 100_000))

    @pytest.mark.parametrize("A, n", [(2, 38), (9, 18)])
    def test_top_of_largest_feasible_n(self, A, n):
        # The keys and rotation differences nearest A^n < 2^62.
        bulk._check_feasible(A, n)
        with pytest.raises(BudgetError):
            bulk._check_feasible(A, n + 2)
        total = int(bulk._candidate_ends(A, n)[-1])
        assert_same_blocks(A, n, total - 10_000, total)


# The path the box kernel replaced, kept as its oracle: Lyndon keys by
# broadcasting over first-pair boxes, their digits decoded one position
# at a time, the trace by one int64 matrix step per digit, and psi and
# lw from the digits as _accumulate_block formed them.

def _lyndon_keys_by_boxes(A, n, lo, hi):
    """Keys of the Lyndon pair-words among candidates lo..hi-1 of period
    length n, one array per block of bulk._BLOCK candidates from lo.

    Every value formed is a partial sum of p_i Q^e_i - p_i Q^f_i over
    distinct e_i and distinct f_i, so it lies in (-A^n, A^n), inside
    int64 under _check_feasible's bound.
    """
    m = n // 2
    Q = A * A
    if m == 1:
        # A lone pair is its own key and its only rotation.
        for start in range(lo, hi, bulk._BLOCK):
            yield np.arange(start, min(start + bulk._BLOCK, hi), dtype=np.int64)
        return
    ends = bulk._candidate_ends(A, n).tolist()
    # Column 0 holds pair i's weight in the key, column s its weight in
    # key - rot_s, where rot_s is the rotation by s pairs.
    weight = Q ** np.arange(m - 1, -1, -1, dtype=np.int64)
    coef = np.stack([weight] + [weight - np.roll(weight, s) for s in range(1, m)], axis=1)
    c = None
    for start in range(lo, hi, bulk._BLOCK):
        stop = min(start + bulk._BLOCK, hi)
        parts = []
        pos = start
        while pos < stop:
            if c is None or pos >= ends[c]:
                c = bisect.bisect_right(ends, pos)
                b = Q - c
                # The widest box that fits in a block, but at least one
                # pair wide, so that no candidate index is divided.
                t = 1
                while t < m - 1 and b ** (t + 1) <= bulk._BLOCK:
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


def _digits_of_keys(A, n, keys):
    """Digit array of shape (len(keys), n) in the smallest dtype holding A."""
    digits = np.empty((keys.size, n), dtype=np.min_scalar_type(A))
    for i in range(n):
        digits[:, i] = keys // A ** (n - 1 - i) % A + 1
    return digits


def _lengths_of_digits(A, digits):
    """Float64 geometric lengths 2*log(lambda) of the words' matrices.

    While (A+1)^n < 2^62 the trace t is exact in int64.  Past that bound
    the entries are float64, and after every step all four are divided
    by the power of two that brings the top-left entry, the largest, into
    [1/2, 1); the exponents are summed, so neither the trace nor its
    square is ever formed.
    """
    count, n = digits.shape
    if n * math.log2(A + 1) < bulk._ENTRY_BITS:
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


def _invariants_by_digits(A, n, lo, hi):
    """(keys, psi, lw, lg) per block of the old path."""
    signs = np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int64)
    for keys in _lyndon_keys_by_boxes(A, n, lo, hi):
        digits = _digits_of_keys(A, n, keys)
        wide = digits.astype(np.int64)
        yield keys, wide @ signs, 2 * wide.sum(axis=1), _lengths_of_digits(A, digits)


def assert_same_invariants(A, n, lo, hi):
    fast = list(bulk._lyndon_blocks(A, n, lo, hi))
    slow = list(_invariants_by_digits(A, n, lo, hi))
    assert len(fast) == len(slow)
    for (keys, psi, lw, trace), want in zip(fast, slow):
        for got, expected in zip((keys, psi, lw, bulk._trace_lengths(trace)), want):
            assert got.dtype == expected.dtype
            assert np.array_equal(got, expected)


class TestBoxKernel:
    @pytest.mark.parametrize("A, N", [(2, 12), (3, 10), (4, 8), (5, 8), (9, 6)])
    def test_every_shard(self, A, N):
        for r in bulk.shard_ranges(A, N):
            assert_same_invariants(A, *r)
        assert bulk.count(A, N) == necklace.pi_exact(A, N)

    @pytest.mark.parametrize("block", [3, 7])
    def test_blocks_straddle_boxes(self, block, monkeypatch):
        monkeypatch.setattr(bulk, "_BLOCK", block)
        rng = np.random.default_rng(block)
        for A, N in ((2, 12), (3, 8), (4, 6), (5, 6)):
            for n in range(2, N + 1, 2):
                total = int(bulk._candidate_ends(A, n)[-1])
                for _ in range(5):
                    lo, hi = sorted(rng.integers(0, total + 1, size=2).tolist())
                    assert_same_invariants(A, n, lo, hi)

    @pytest.mark.parametrize("A, n", [(2, 38), (9, 18), (300, 4)])
    def test_top_of_largest_feasible_n(self, A, n):
        # The largest traces int64 holds, and boxes one pair wide at A = 300.
        bulk._check_feasible(A, n)
        total = int(bulk._candidate_ends(A, n)[-1])
        assert_same_invariants(A, n, total - 10_000, total)

    @pytest.mark.parametrize("A, N, rate", [(4, 8, 16), (5, 8, 1024)])
    def test_checks_unchanged(self, A, N, rate):
        # The same rows are checked, against the same float64 lengths.
        count, worst = 0, 0.0
        for r in bulk.shard_ranges(A, N):
            for keys, psi, lw, lg in _invariants_by_digits(A, *r):
                digits = _digits_of_keys(A, r[0], keys)
                for i in range(0, len(digits), rate):
                    word = tuple(int(v) for v in digits[i])
                    logsum = invariants.geodesic_length_logsum(word)
                    eigen = invariants.geodesic_length_eigen(word)
                    count += 1
                    worst = max(worst, abs(logsum - eigen) / eigen, abs(lg[i] - eigen) / eigen)
        acc = bulk.run(A, N, check_rate=rate)
        assert (acc.check_count, acc.check_max_rel) == (count, worst)
        assert acc.check_count >= acc.total_count() // rate


class TestCount:
    @pytest.mark.parametrize("A, N", [(2, 8), (3, 8), (4, 10), (30, 4), (300, 2)])
    def test_matches_run_and_pi_exact(self, A, N):
        expected = necklace.pi_exact(A, N)
        assert bulk.count(A, N) == bulk.run(A, N).total_count() == expected
        assert bulk.count(A, N, threads=2) == expected

    @pytest.mark.parametrize("A, N", [(2, 8), (3, 8), (4, 6)])
    def test_small_shards_and_blocks(self, A, N, monkeypatch):
        monkeypatch.setattr(bulk, "_CHUNK", 11)
        monkeypatch.setattr(bulk, "_BLOCK", 3)
        monkeypatch.setattr(bulk, "_POOL_START_S", 0)
        expected = necklace.pi_exact(A, N)
        counted, merged = [], []
        assert bulk.count(A, N, progress=lambda *p: counted.append(p)) == expected
        assert bulk.run(A, N, progress=lambda *p: merged.append(p)).total_count() == expected
        # One progress call per shard, as run makes.
        assert counted == merged
        assert len(counted) == len(bulk.shard_ranges(A, N)) > 1
        assert bulk.count(A, N, threads=2) == bulk.run(A, N, threads=2).total_count() == expected

    def test_builds_no_records(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("count must stop at the Lyndon keys")

        for name in ("run_shard", "_digits", "_geodesic_lengths", "_trace_lengths",
                     "_accumulate_block", "_check_lengths"):
            monkeypatch.setattr(bulk, name, forbidden)
        monkeypatch.setattr(bulk, "_CHUNK", 50)
        assert bulk.count(3, 8) == necklace.pi_exact(3, 8)
        with pytest.raises(AssertionError):
            bulk.run(3, 8)

    def test_pool_size_bounded(self, pool_starts, monkeypatch):
        sizes = pool_starts
        monkeypatch.setattr(bulk, "_CHUNK", 2)
        monkeypatch.setattr(bulk, "_POOL_START_S", 0)
        monkeypatch.setattr(bulk.os, "sched_getaffinity", lambda pid: set(range(8)))
        assert bulk.count(2, 4, threads=100_000) == necklace.pi_exact(2, 4)  # 7 shards
        assert bulk.count(3, 4, threads=100_000) == necklace.pi_exact(3, 4)  # 28 shards
        bulk.count(3, 4, threads=3)
        assert sizes == [7, 8, 3]
        monkeypatch.setattr(bulk.os, "sched_getaffinity", lambda pid: {0})
        assert bulk.count(3, 4, threads=100_000) == necklace.pi_exact(3, 4)
        assert sizes == [7, 8, 3]


class TestSample:
    def test_cells_match_exhaustive_table(self):
        draws = 60_000
        exact = bulk.run(3, 6).table
        total = sum(exact.values())
        sampled = bulk.sample(3, 6, draws, seed=2024).table
        assert sum(sampled.values()) == draws
        assert set(sampled) <= set(exact)
        stat = sum((sampled[k] - draws * c / total) ** 2 / (draws * c / total)
                   for k, c in exact.items())
        pval = mpmath.gammainc((len(exact) - 1) / 2, stat / 2, mpmath.inf, regularized=True)
        assert pval > 1e-6

    @pytest.mark.parametrize("N", [14, 40])  # below and past the int64 trace bound
    def test_dual_length_check(self, N):
        acc = bulk.sample(9, N, 200, seed=N, check_rate=1)
        assert acc.check_count == 200
        assert acc.check_max_rel < 1e-9

    def test_float_trace_route(self, monkeypatch):
        # The rescaled float64 trace, forced below the bound, against exact int64.
        words = np.array(list(itertools.product(range(1, 4), repeat=6)), dtype=np.uint8)
        exact = bulk._geodesic_lengths(3, words)
        monkeypatch.setattr(bulk, "_ENTRY_BITS", 0)
        assert np.allclose(bulk._geodesic_lengths(3, words), exact, rtol=1e-14, atol=0)

    def test_refuses_past_work_cap(self, monkeypatch):
        # Priced before the first draw, which needs bulk's random.Random.
        def drawn(seed):
            raise AssertionError("drew")

        monkeypatch.setattr(bulk, "random", types.SimpleNamespace(Random=drawn))
        limit = int(bulk.WORK_CAP * bulk._RUN_S / (bulk._DRAW_S + bulk._DIGIT_S * 14))
        with pytest.raises(BudgetError, match="cap"):
            bulk.sample(9, 14, limit + 1, seed=1)
        with pytest.raises(AssertionError, match="drew"):
            bulk.sample(9, 14, limit, seed=1)

    def test_seed_determinism(self):
        one = bulk.sample(5, 8, 5000, seed=3)
        two = bulk.sample(5, 8, 5000, seed=3)
        assert one.table == two.table
        for n in one.lg_hist:
            assert (one.lg_hist[n] == two.lg_hist[n]).all()
            assert (one.lg_sums[n] == two.lg_sums[n]).all()
        assert bulk.sample(5, 8, 5000, seed=4).table != one.table


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCliCount:
    def test_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--A", "2", "--N", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["exact"] == 10
        assert payload["method"] == "closed-form"
        assert payload["relative_error"] > 0

    def test_exact_enumeration(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--A", "3", "--N", "8", "--exact")
        assert code == 0
        assert json.loads(out)["exact"] == necklace.pi_exact(3, 8)

    def test_odd_N_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--A", "2", "--N", "5"])
        assert exc.value.code == 2

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2


class TestCliDist:
    def test_outputs(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "dist", "--A", "2", "--N", "6", "--norm", "period",
            "--out-dir", str(tmp_path), "--svg",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["count"] == necklace.pi_exact(2, 6)
        assert 0 <= payload["ks"] <= 1
        for name in ("table.csv", "cdf.csv", "report.json", "dist.svg"):
            assert (tmp_path / name).exists()
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk == payload

    def test_svg_structure(self, tmp_path, capsys):
        run_cli(
            capsys, "dist", "--A", "2", "--N", "6", "--norm", "geom",
            "--out-dir", str(tmp_path), "--svg",
        )
        root = ET.fromstring((tmp_path / "dist.svg").read_text())
        assert root.tag.endswith("svg")
        ns = {"s": "http://www.w3.org/2000/svg"}
        groups = root.findall("s:g", ns)
        assert len(groups) == 1
        assert len(groups[0].findall("s:rect", ns)) > 0
        assert len(root.findall("s:path", ns)) == 1

    def test_thread_invariant_artifacts(self, tmp_path, capsys, real_pool):
        # 4 shards of period length 12, and 11 of period length 8
        for argv in (["dist", "--A", "4", "--N", "12", "--norm", "geom", "--svg"],
                     ["count", "--A", "9", "--N", "8", "--exact"]):
            outputs = []
            for threads in ("1", "4"):
                out_dir = tmp_path / argv[0] / threads
                out_dir.mkdir(parents=True)
                extra = ["--out-dir", str(out_dir)] if argv[0] == "dist" else []
                code, out, _ = run_cli(capsys, *argv, *extra, "--threads", threads)
                assert code == 0
                files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
                outputs.append((out, files))
            assert outputs[0] == outputs[1]
        # Only the --threads 4 runs start a pool.
        assert len(real_pool) == 2 and min(real_pool) >= 2

    def test_sample_mode_deterministic(self, tmp_path, capsys):
        outs = []
        for run in ("a", "b"):
            out_dir = tmp_path / run
            code, out, _ = run_cli(
                capsys, "dist", "--A", "5", "--N", "8", "--norm", "period",
                "--sample", "500", "--seed", "42", "--out-dir", str(out_dir),
            )
            assert code == 0
            outs.append(out)
            assert json.loads(out)["count"] == 500
        assert outs[0] == outs[1]

    def test_unwritable_out_dir(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code, _, err = run_cli(
            capsys, "dist", "--A", "2", "--N", "4", "--norm", "period",
            "--out-dir", str(blocker / "sub"),
        )
        assert code == 3
        assert err

    def test_work_cap(self, capsys):
        code, _, err = run_cli(capsys, "dist", "--A", "9", "--N", "12",
                               "--norm", "geom")
        assert code == 4
        assert "sample" in err

    @pytest.mark.parametrize("argv", [
        ["dist", "--A", "9", "--N", "12", "--norm", "period"],
        ["dist", "--A", "9", "--N", "12", "--norm", "word"],
        ["dist", "--A", "9", "--N", "12", "--norm", "maxn"],
        ["dist", "--A", "5", "--N", "26", "--norm", "word"],
        ["charfn", "--A", "2", "--N", "60", "--t", "1"],
    ])
    def test_table_routes_past_work_cap(self, argv, tmp_path, capsys):
        # The exact table does no per-word work, so only the grid cap and
        # the int64 range of its counts hold it.
        A, N = int(argv[2]), int(argv[4])
        extra = ["--out-dir", str(tmp_path)] if argv[0] == "dist" else []
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert code == 0
        if argv[0] == "charfn":
            # 7.8e-5 at N = 60: the exact table is near its Gaussian limit.
            assert json.loads(out)["points"][0]["gap"] < 1e-3
            return
        assert json.loads(out)["count"] == necklace.pi_exact(A, N)
        rows = (tmp_path / "table.csv").read_text().splitlines()
        assert rows[0] == "n,psi,lw,count"
        table = {tuple(map(int, r.split(",")[:3])): int(r.split(",")[3]) for r in rows[1:]}
        assert table == lattice.table(A, N)

    def test_sample_past_int64_bound(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "dist", "--A", "9", "--N", "40", "--norm", "period",
                               "--sample", "200", "--out-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["count"] == 200

    def test_geom_at_A6_within_tolerance(self, tmp_path, capsys):
        # The two-tail interval reaches tol 1e-3 at depth 5 (6^5 words),
        # where the Fibonacci rule would need 6^10, over the word budget.
        from test_acceptance import _chat_transfer_operator

        code, out, _ = run_cli(
            capsys, "dist", "--A", "6", "--N", "12", "--norm", "geom",
            "--sample", "200", "--seed", "1", "--out-dir", str(tmp_path),
        )
        assert code == 0
        chat, tol = _chat_transfer_operator(6), 1e-3
        s = float(invariants.sigma_p2(6))
        assert s / (chat + tol) <= json.loads(out)["sigma2"] <= s / (chat - tol)


class TestCliConstants:
    def test_report(self, capsys):
        code, out, _ = run_cli(capsys, "constants", "--A", "2", "--tol", "1e-2")
        assert code == 0
        payload = json.loads(out)
        assert payload["sigma_p2"] == 0.25
        assert payload["sigma_w2"] == pytest.approx(1 / 12)
        assert payload["fibonacci_bound"] <= 1e-2
        lo, hi = payload["sigma_g2_interval"]
        assert lo < payload["sigma_g2"] < hi

    def test_budget_exhausted(self, capsys, monkeypatch):
        real = invariants.chat_estimate
        monkeypatch.setattr(
            invariants, "chat_estimate", lambda A, tol: real(A, tol, budget=100)
        )
        code, out, err = run_cli(capsys, "constants", "--A", "5", "--tol", "1e-9")
        assert code == 4
        # best-effort estimate still reported
        assert json.loads(out)["k"] <= 2


class TestCliCharfn:
    def test_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "charfn", "--A", "2", "--N", "8",
            "--t", "0", "--t", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        points = {p["t"]: p for p in payload["points"]}
        assert points[0.0]["empirical_re"] == 1.0
        assert points[0.0]["gap"] == 0.0
        assert abs(points[0.5]["empirical_im"]) < 1e-12
        assert 0 < points[0.5]["target"] < 1

    def test_admissible_warning(self, capsys):
        code, _, err = run_cli(
            capsys, "charfn", "--A", "2", "--N", "4", "--norm", "maxn",
            "--t", "100",
        )
        assert code == 0
        assert "admissible" in err


class TestCliExitCodes:
    @pytest.mark.parametrize("argv, expected", [
        (["dist", "--A", "3", "--N", "4", "--norm", "period", "--bins", "1"], 2),
        (["dist", "--A", "3", "--N", "4", "--norm", "period", "--sample", "0"], 2),
        (["dist", "--A", "3", "--N", "4", "--norm", "period", "--sample", "-5"], 2),
        (["constants", "--A", "3", "--tol", "0"], 2),
        (["constants", "--A", "3", "--tol", "nan"], 2),
        (["constants", "--A", "100000000"], 4),
        (["charfn", "--A", "3", "--N", "4", "--t", "inf"], 2),
        (["charfn", "--A", "3", "--N", "4", "--t", "nan"], 2),
        (["dist", "--A", "3", "--N", "4", "--norm", "period", "--bins", "100000000"], 4),
        (["dist", "--A", "3", "--N", "4", "--norm", "period", "--bins", "100000000",
          "--sample", "10"], 4),
        (["dist", "--A", str(2**32), "--N", "2", "--norm", "period", "--sample", "5"], 4),
        (["count", "--A", "3", "--N", "4", "--threads", "0"], 2),
        (["count", "--A", "3", "--N", "4", "--threads", "-2"], 2),
        (["count", "--A", "2", "--N", "2000"], 4),
        (["count", "--A", "5", "--N", "500"], 4),
        # the accepted sides of the grid and work caps
        (["count", "--A", "1448", "--N", "2", "--exact"], 0),
        (["count", "--A", "2", "--N", "30", "--exact"], 0),
        # past the int64 range of the exact table, and the work cap
        (["dist", "--A", "3", "--N", "40", "--norm", "period"], 4),
        (["charfn", "--A", "2", "--N", "62", "--t", "1"], 4),
        (["dist", "--A", "5", "--N", "40", "--norm", "geom"], 4),
        # the sampled route's int64 grid, which every A > 2^30 passes at N = 2
        (["dist", "--A", "2147483648", "--N", "2", "--norm", "period", "--sample", "10"], 4),
    ])
    def test_invalid_input(self, argv, expected, tmp_path):
        proc = run_python("-m", "modwind.cli", *argv, cwd=tmp_path)
        assert proc.returncode == expected, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["count", "--A", "3", "--N", "1000000", "--exact"],
        ["charfn", "--A", "3", "--N", "80000", "--t", "1"],
        # the refused sides of the grid and work caps
        ["count", "--A", "1449", "--N", "2", "--exact"],
        ["count", "--A", "2", "--N", "32", "--exact"],
        ["dist", "--A", "1449", "--N", "2", "--norm", "geom"],
        ["dist", "--A", "5", "--N", "16", "--norm", "geom"],
        ["verify", "--A", "2", "--N", "32"],
        ["dist", "--A", "5", "--N", "8", "--norm", "period", "--sample", "1000000000000"],
        # the draws are priced before a depth-11 c-hat
        ["dist", "--A", "5", "--N", "8", "--norm", "geom", "--sample", "1000000000000",
         "--tol", "6e-9"],
    ])
    def test_work_cap_stops_early(self, argv, capsys, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("work started before the refusal")

        # Each refusal comes before any enumeration, scan or c-hat, and
        # writes nothing.
        for module, name in ((bulk, "_lyndon_blocks"), (verify, "_all_words"),
                             (invariants, "chat_two_tail")):
            monkeypatch.setattr(module, name, forbidden)
        monkeypatch.chdir(tmp_path)
        start = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert time.monotonic() - start < 1.0
        assert code == 4
        assert out == ""
        assert "cap" in err
        assert not any(tmp_path.iterdir())

    def test_count_overflow_stops_early(self, capsys):
        # The float asymptotic overflows before pi_exact sums 40,000 terms.
        start = time.monotonic()
        code, out, err = run_cli(capsys, "count", "--A", "3", "--N", "80000")
        assert time.monotonic() - start < 1.0
        assert code == 4
        assert out == ""
        assert "float range" in err

    def test_exact_count_mismatch_is_verify_failure(self, tmp_path):
        # Under -O too, a wrong count is reported, not asserted.
        code = ("import sys\n"
                "from modwind import cli, necklace\n"
                "necklace.pi_exact = lambda A, N: 7\n"
                "sys.exit(cli.main(['count', '--A', '3', '--N', '4', '--exact']))\n")
        proc = run_python("-O", "-c", code, cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "!= pi_exact 7" in proc.stderr

    def test_dropped_key_is_verify_failure(self, tmp_path):
        # negative control: enumeration losing one necklace of period
        # length 2 (its 9 candidates are one block) must fail the check
        # against pi_exact
        code = ("import sys\n"
                "from modwind import bulk, cli\n"
                "real = bulk._lyndon_blocks\n"
                "bulk._lyndon_blocks = lambda A, n, lo, hi, values=True: (\n"
                "    kept - (n == 2) for kept in real(A, n, lo, hi, values))\n"
                "sys.exit(cli.main(['count', '--A', '3', '--N', '4', '--exact']))\n")
        proc = run_python("-c", code, cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        expected = necklace.pi_exact(3, 4)
        # Progress lines aside, stderr is the one mismatch line.
        lines = [line for line in proc.stderr.splitlines() if not line.startswith("shard ")]
        assert lines == [f"enumerated {expected - 1} != pi_exact {expected}"]

    def test_malformed_thread_environment(self, tmp_path):
        for value in ("abc", "0"):
            proc = run_python("-m", "modwind.cli", "count", "--A", "3", "--N", "4",
                              cwd=tmp_path, MODWIND_THREADS=value)
            assert proc.returncode == 2, proc.stderr
            assert "MODWIND_THREADS" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_escaping_value_error_is_usage(self, tmp_path):
        # Any ValueError a command lets escape is reported as a usage error.
        code = ("import sys\n"
                "from modwind import cli, necklace\n"
                "def reject(A, N):\n"
                "    raise ValueError('rejected by the test')\n"
                "necklace.pi_exact = reject\n"
                "sys.exit(cli.main(['count', '--A', '3', '--N', '4']))\n")
        proc = run_python("-c", code, cwd=tmp_path)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.strip() == "modwind count: error: rejected by the test"

    def test_geom_budget_fails_before_sampling(self, tmp_path, capsys, monkeypatch):
        def over_budget(A, tol):
            raise BudgetError("over budget")

        sampled = []
        monkeypatch.setattr(invariants, "chat_two_tail", over_budget)
        monkeypatch.setattr(bulk, "sample", lambda *a: sampled.append(a))
        code, _, err = run_cli(
            capsys, "dist", "--A", "6", "--N", "12", "--norm", "geom",
            "--sample", "200", "--out-dir", str(tmp_path),
        )
        assert code == 4
        assert "over budget" in err
        assert not sampled

    def test_import_skips_sympy(self):
        # mpmath and the process pool load only when a call needs them.
        code = ("import sys\n"
                "from modwind import cli\n"
                "for name in ('sympy', 'mpmath', 'concurrent.futures.process'):\n"
                "    assert name not in sys.modules, name + ' imported'\n"
                "code = cli.main(['verify', '--A', '2', '--N', '4'])\n"
                "assert 'mpmath' in sys.modules\n"
                "sys.exit(code)\n")
        proc = run_python("-c", code)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv, expected, absent, present", [
        (["count", "--A", "5", "--N", "12"], 0, ("numpy", "modwind.bulk", "modwind.verify"), ()),
        (["--help"], 0, ("numpy", "modwind.bulk", "modwind.verify"), ()),
        (["dist", "--A", "1", "--N", "8", "--norm", "period"], 2,
         ("numpy", "modwind.bulk", "modwind.verify"), ()),
        (["dist", "--A", "3", "--N", "4", "--norm", "period"], 0,
         ("modwind.bulk", "modwind.svgplot", "modwind.verify"), ("numpy", "modwind.lattice")),
        (["dist", "--A", "3", "--N", "4", "--norm", "period", "--svg"], 0,
         ("modwind.verify",), ("modwind.svgplot",)),
    ], ids=["count", "help", "usage-error", "dist", "dist-svg"])
    def test_loads_only_its_modules(self, argv, expected, absent, present, tmp_path):
        # In a fresh interpreter: this one has imported every module.
        code = ("import sys\n"
                "from modwind import cli\n"
                "try:\n"
                f"    code = cli.main({argv!r})\n"
                "except SystemExit as exc:\n"
                "    code = exc.code\n"
                f"assert not [m for m in {absent!r} if m in sys.modules], sorted(sys.modules)\n"
                f"assert all(m in sys.modules for m in {present!r}), sorted(sys.modules)\n"
                "sys.exit(code)\n")
        proc = run_python("-c", code, cwd=tmp_path)
        assert proc.returncode == expected, proc.stderr
        assert "AssertionError" not in proc.stderr


class TestLargeAlphabet:
    def test_table_matches_pair_loop(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "dist", "--A", "300", "--N", "2",
                               "--norm", "period", "--out-dir", str(tmp_path))
        assert code == 0
        # 90,000 candidates make one shard
        assert err.splitlines() == ["shard 1/1"]
        cells = Counter((a - b, 2 * (a + b))
                        for a in range(1, 301) for b in range(1, 301))
        expected = "n,psi,lw,count\n" + "".join(
            f"2,{psi},{lw},{count}\n" for (psi, lw), count in sorted(cells.items())
        )
        assert (tmp_path / "table.csv").read_text() == expected

    def test_exact_count(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--A", "200", "--N", "2", "--exact")
        assert code == 0
        assert json.loads(out)["exact"] == 40000

    def test_grid_cap(self, capsys):
        code, _, err = run_cli(capsys, "count", "--A", "30000", "--N", "2", "--exact")
        assert code == 4
        assert "cap" in err


class TestCliVerify:
    def test_passes(self, capsys):
        for A, N in (("2", "6"), ("3", "8")):
            code, out, _ = run_cli(capsys, "verify", "--A", A, "--N", N)
            assert code == 0
            payload = json.loads(out)
            assert payload["passed"] is True
            assert all(c["passed"] for c in payload["checks"])

    def test_work_cap(self, capsys):
        start = time.monotonic()
        code, out, err = run_cli(capsys, "verify", "--A", "40", "--N", "12")
        assert time.monotonic() - start < 1.0
        assert code == 4
        assert out == ""
        assert "cap" in err

    def test_detects_tampering(self, capsys, monkeypatch):
        # negative control: a corrupted primitivity test must be caught
        real = necklace.is_primitive
        monkeypatch.setattr(
            necklace,
            "is_primitive",
            lambda w: real(w) and w != (1, 2),
        )
        code, out, _ = run_cli(capsys, "verify", "--A", "2", "--N", "6")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_detects_dropped_key(self, capsys, monkeypatch):
        # negative control: enumeration losing the necklaces of key 1,
        # digits (1, 2) and (1, 1, 1, 2), must be caught
        real = bulk._lyndon_blocks

        def dropping(A, n, lo, hi, values=True):
            for block in real(A, n, lo, hi, values):
                yield tuple(v[block[0] != 1] for v in block) if values else block

        monkeypatch.setattr(bulk, "_lyndon_blocks", dropping)
        code, out, err = run_cli(capsys, "verify", "--A", "2", "--N", "6")
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "shard_independence: FAIL" in err

    def test_detects_count_mismatch(self, capsys, monkeypatch):
        # negative control: a Lyndon key count that disagrees with the
        # merged shards must be caught, by its own message
        real = bulk.count
        monkeypatch.setattr(bulk, "count", lambda A, N: real(A, N) + 1)
        code, out, err = run_cli(capsys, "verify", "--A", "2", "--N", "6")
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "shard_independence: FAIL" in err
        assert "Lyndon key count != merged shard total" in err
        assert "shard total != pi_exact" not in err


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, -1.0, -1e-3, math.inf, -math.inf, math.nan])


class TestCliSweep:
    """Every argument combination exits 0, 2, 3 or 4, and exit 0 prints JSON."""

    @given(
        command=st.sampled_from(["count", "dist", "constants", "charfn"]),
        A=st.integers(2, 4),
        N=st.integers(2, 6),
        norm=st.sampled_from(["period", "word", "maxn", "geom"]),
        bins=st.one_of(st.integers(2, 64), st.sampled_from([-3, 0, 1, 8192])),
        tol=st.one_of(_EDGE_FLOATS, st.floats(1e-6, 10.0)),
        sample=st.one_of(st.none(), st.integers(-3, 20)),
        t=st.lists(st.one_of(_EDGE_FLOATS, st.floats(-50.0, 50.0)), min_size=1, max_size=3),
        exact=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_exit_codes_and_json(self, command, A, N, norm, bins, tol, sample, t, exact):
        argv = [command, f"--A={A}"]
        if command != "constants":
            argv.append(f"--N={N}")
        if command == "count" and exact:
            argv.append("--exact")
        if command == "dist":
            argv += [f"--norm={norm}", f"--bins={bins}", f"--tol={tol}"]
            if sample is not None:
                argv.append(f"--sample={sample}")
        if command == "constants":
            argv.append(f"--tol={tol}")
        if command == "charfn":
            argv += [f"--t={v}" for v in t]
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if command == "dist":
                argv.append(f"--out-dir={tmp}")
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        if code == 0:
            json.loads(out.getvalue(), parse_constant=_reject_constant)
