"""Acceptance gate: end-to-end checks at full experimental scale.

Each test prints a single PASS/FAIL line so a run of this module reads
as a checklist.  The heavyweight A=5, N=12 enumeration is shared by all
criteria through a module-scoped fixture.
"""

import contextlib
import itertools
import json
import math
import os
import sys
import time
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest

import modwind
from modwind import bulk, cli, invariants, lattice, necklace, stats, svgplot

NS = {"s": "http://www.w3.org/2000/svg"}


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} {name}: FAIL", file=sys.__stderr__, flush=True)
        raise
    print(f"criterion {num:2d} {name}: PASS", file=sys.__stderr__, flush=True)


@pytest.fixture(scope="module")
def full_run():
    """Single exhaustive A=5, N=12 pass with 1/1024 dual-length sampling."""
    threads = os.cpu_count() or 1
    start = time.monotonic()
    acc = bulk.run(5, 12, check_rate=1024, threads=threads)
    return acc, time.monotonic() - start


@pytest.fixture(scope="module")
def chat5():
    return invariants.chat_estimate(5, 1e-3)


@pytest.fixture(scope="module")
def restrictions(full_run):
    acc, _ = full_run
    return {N: acc.restricted(N) for N in (6, 8, 10, 12)}


def test_01_exact_count(full_run, capsys):
    with criterion(1, "exact count pi_5(12)"):
        code = cli.main(["count", "--A", "5", "--N", "12"])
        out = capsys.readouterr().out
        assert code == 0
        assert json.loads(out)["exact"] == 42_743_545
        acc, elapsed = full_run
        assert acc.total_count() == 42_743_545
        assert elapsed < 600.0
        # The paper-scale count itself, by enumerating its Lyndon keys.
        code = cli.main(["count", "--A", "5", "--N", "12", "--exact", "--threads", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["exact"] == 42_743_545
        assert payload["method"] == "enumeration"


def test_02_asymptotic_accuracy():
    with criterion(2, "asymptotic relative error"):
        rep = necklace.pi_asymptotic(5, 12)
        assert rep.asymptotic == pytest.approx((2 * 25 / 24) * 5**12 / 12)
        assert abs(rep.relative_error - 0.0084) <= 0.0005


def _proper_divisors(n):
    return [d for d in range(1, n) if n % d == 0]


def _gen_words(A, n, prefix, chunk_start, chunk_size):
    """Digit array of shape (chunk_size, n) for words with the prefix,
    suffixes enumerated lexicographically from chunk_start."""
    k = len(prefix)
    m = n - k
    digits = np.empty((chunk_size, n), dtype=np.int8)
    for i, d in enumerate(prefix):
        digits[:, i] = d
    idx = np.arange(chunk_start, chunk_start + chunk_size, dtype=np.int64)
    for i in range(m):
        digits[:, k + i] = (idx // A ** (m - 1 - i)) % A + 1
    return digits


def _minimal_period(digits):
    n = digits.shape[1]
    per = np.full(digits.shape[0], n, dtype=np.int16)
    unset = np.ones(digits.shape[0], dtype=bool)
    cols = np.arange(n)
    for d in _proper_divisors(n):
        periodic = (digits == digits[:, cols % d]).all(axis=1)
        sel = unset & periodic
        per[sel] = d
        unset &= ~periodic
    return per


def _scan_min_period_counts(A, n):
    """Vectorized independent scan: words in [A]^n with minimal period n."""
    total = A**n
    chunk = 1 << 22
    count = 0
    for start in range(0, total, chunk):
        digits = _gen_words(A, n, (), start, min(chunk, total - start))
        count += int((_minimal_period(digits) == n).sum())
    return count


def test_03_mobius_oracle():
    with criterion(3, "Moebius counting vs direct scan"):
        for A in range(2, 5):
            for n in range(1, 13):
                assert necklace.count_min_period(A, n) == _scan_min_period_counts(A, n)
                divisor_sum = sum(
                    necklace.count_min_period(A, d)
                    for d in range(1, n + 1)
                    if n % d == 0
                )
                assert divisor_sum == A**n


def test_04_necklace_oracle():
    with criterion(4, "necklace enumeration vs brute classification"):
        for A in (2, 3):
            for n in range(2, 11, 2):
                brute = {
                    necklace.canonical_even_shift(w)
                    for w in itertools.product(range(1, A + 1), repeat=n)
                    if necklace.is_primitive(w)
                }
                assert necklace.count_Pn(A, n) == len(brute)
                enumerated = {
                    nk.rep for nk in necklace.enumerate_necklaces(A, n) if nk.n == n
                }
                assert enumerated == brute


def _chat_transfer_operator(A):
    """Independent c-hat = 2 E[log(a + y)], y ~ stationary law of y -> 1/(b + y).

    u(y) = (1/A) sum_a log(a + y) is pushed through the transfer operator
    (Tu)(y) = (1/A) sum_b u(1/(b + y)) on [0, 1], carried as a Chebyshev
    interpolant; T^k u flattens to the constant E[u] because the maps
    y -> 1/(b + y) contract.
    """
    degree = steps = 60
    x = np.polynomial.chebyshev.chebpts1(degree + 1)
    y = 0.5 * (x + 1.0)
    digits = np.arange(1, A + 1, dtype=np.float64)[:, None]
    images = 2.0 / (digits + y) - 1.0
    u = np.log(digits + y).mean(axis=0)
    for _ in range(steps):
        coef = np.polynomial.chebyshev.chebfit(x, u, degree)
        u = np.polynomial.chebyshev.chebval(images, coef).mean(axis=0)
    assert u.max() - u.min() < 1e-14
    return 2.0 * u.mean()


def test_05_constants(chat5):
    with criterion(5, "variance constants and ergodic estimate"):
        assert modwind.sigma_p2(5) == Fraction(2)
        assert modwind.sigma_w2(5) == Fraction(1, 3)
        assert chat5.error_bound <= 1e-3
        # sigma_g2 is the limiting constant sigma_p^2 / c-hat (0.9023 at
        # A=5); the finite-N variance of psi/sqrt(lg) sits above it and is
        # checked in test_08.
        reference = 2.0 / _chat_transfer_operator(5)
        lo, hi = chat5.sigma_g2_interval
        assert lo <= reference <= hi
        assert abs(chat5.sigma_g2 - reference) <= hi - lo


@pytest.mark.parametrize("A", [2, 5, 6, 10, 30])
def test_two_tail_interval_contains_transfer_operator_chat(A):
    lo, hi = invariants.chat_two_tail(A).chat_interval
    assert lo <= _chat_transfer_operator(A) <= hi


def test_two_tail_interval_contains_references(restrictions):
    # dist --norm geom takes sigma_g2 from the two-tail interval; it is
    # narrower than chat5's and still holds test_05's reference and
    # test_10's N=12 mean of lg/lp.
    est = invariants.chat_two_tail(5)
    lo, hi = est.sigma_g2_interval
    assert lo <= 2.0 / _chat_transfer_operator(5) <= hi
    assert lo <= 0.9023205 <= hi
    mean_g = stats.ratio_report(restrictions[12])[0]
    lo, hi = est.chat_interval
    assert lo < mean_g < hi


def test_06_dual_geodesic_length(full_run):
    with criterion(6, "dual geometric-length routes"):
        for nk in necklace.enumerate_necklaces(5, 8):
            logsum = invariants.geodesic_length_logsum(nk.rep)
            eigen = invariants.geodesic_length_eigen(nk.rep)
            assert abs(logsum - eigen) / eigen < 1e-9
        acc, _ = full_run
        assert acc.check_count >= acc.total_count() // 1024
        assert acc.check_max_rel < 1e-9


def test_07_exact_moment_identities():
    with criterion(7, "exact winding moment identities"):
        for A in range(2, 5):
            for n in range(2, 9, 2):
                s1 = s2 = 0
                for w in itertools.product(range(1, A + 1), repeat=n):
                    psi = invariants.winding(w)
                    s1 += psi
                    s2 += psi * psi
                expected = Fraction(A**n * n * (A * A - 1), 12)
                assert expected.denominator == 1
                assert s1 == 0
                assert s2 == expected.numerator


def test_08_distributional_convergence(restrictions, chat5, tmp_path):
    with criterion(8, "KS convergence under all normalizations"):
        sigma2 = {
            stats.PERIOD: 2.0,
            stats.MAXN: 2.0,
            stats.WORD: 1 / 3,
            stats.GEOM: chat5.sigma_g2,
        }
        for norm in stats.NORMALIZATIONS:
            reports = {
                N: stats.ks_distance(restrictions[N], norm, sigma2[norm])
                for N in (6, 8, 10, 12)
            }
            ks = [reports[N].ks for N in (6, 8, 10, 12)]
            assert all(b < a for a, b in zip(ks, ks[1:])), f"{norm}: {ks}"
            if norm == stats.GEOM:
                assert ks[-1] < 0.05 + reports[12].ks_error_bound
                # Finite-N variance of psi/sqrt(lg): an O(1/N) bias keeps
                # it above the limiting sigma_g2 as it decreases towards it.
                var = [reports[N].variance for N in (6, 8, 10, 12)]
                assert 0.91 <= var[-1] <= 0.93
                assert all(b < a for a, b in zip(var, var[1:])), var
                assert min(var) > chat5.sigma_g2_interval[1], var
            else:
                assert ks[-1] < 0.05
            svg = svgplot.render(reports[12].cdf_points, sigma2[norm])
            path = tmp_path / f"dist_{norm}.svg"
            path.write_text(svg)
            root = ET.fromstring(svg)
            assert len(root.findall("s:g", NS)) == 1
            assert len(root.findall("s:path", NS)) == 1


def test_09_characteristic_function(full_run):
    with criterion(9, "characteristic function vs Gaussian target"):
        acc, _ = full_run
        ts = (0.5, 1.0, 2.0)
        period = stats.empirical_char_fn(acc, stats.PERIOD, ts)
        maxn = stats.empirical_char_fn(acc, stats.MAXN, ts)
        for t, (re_p, im_p), (re_m, _) in zip(ts, period, maxn):
            target = math.exp(-0.5 * 2.0 * t * t)
            assert abs(re_p - target) < 0.02
            assert abs(im_p) < 1e-9
            assert abs(re_m - re_p) < 0.05


def test_10_comparison_diagnostics(restrictions, chat5):
    with criterion(10, "length-ratio diagnostics"):
        rows = {N: stats.ratio_report(restrictions[N]) for N in (6, 8, 10, 12)}
        var_g = [rows[N][1] for N in (6, 8, 10, 12)]
        var_w = [rows[N][3] for N in (6, 8, 10, 12)]
        assert all(b < a for a, b in zip(var_g, var_g[1:]))
        assert all(b < a for a, b in zip(var_w, var_w[1:]))
        mean_g, _, mean_w, _ = rows[12]
        assert abs(mean_w - 6.0) < 0.2
        lo, hi = chat5.chat_interval
        assert lo < mean_g < hi


def test_11_determinism(tmp_path, capsys, real_pool):
    # geom enumerates, so --threads 8 runs its 3 shards of period length
    # 10 on a pool; the table routes ignore --threads.
    with criterion(11, "thread-count determinism"):
        outputs = []
        for threads in ("1", "8"):
            out_dir = tmp_path / threads
            code = cli.main([
                "dist", "--A", "5", "--N", "10", "--norm", "geom", "--svg",
                "--threads", threads, "--out-dir", str(out_dir),
            ])
            assert code == 0
            files = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
            outputs.append((capsys.readouterr().out, files))
        assert outputs[0] == outputs[1]
        assert set(outputs[0][1]) == {"table.csv", "cdf.csv", "report.json", "dist.svg"}
        assert len(real_pool) == 1 and real_pool[0] >= 2


def test_12_lattice_table(full_run):
    with criterion(12, "digit-sum table equals the enumerated table"):
        acc, _ = full_run
        assert lattice.table(5, 12) == acc.table
