import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modwind import GEOM, bulk, cli, lattice, necklace, stats
from modwind.errors import BudgetError

# Every output file of `dist` and stdout of both commands, for the exact
# (n, psi, lw) table routes.
DIST_RUNS = [
    ("5", "8", "period", ["--svg"]),
    ("4", "10", "word", ["--svg"]),
    ("4", "10", "maxn", []),
    ("300", "2", "period", []),
]
CHARFN_RUNS = [
    ("4", "10", "period", ["--t", "0.5", "--t", "1", "--t", "2"]),
    ("5", "8", "maxn", ["--t", "0.5", "--t", "30"]),
]


def _numpy_table(A, N):
    """The int64 construction lattice.table replaced: digit-sum counts by
    np.convolve, each Moebius term an np.outer on its sublattice."""
    M = N // 2
    sums = [np.ones(1, dtype=np.int64)]
    for _ in range(M):
        sums.append(np.convolve(sums[-1], np.ones(A, dtype=np.int64)))
    out = Counter()
    for m in range(1, M + 1):
        prim = np.zeros((sums[m].size,) * 2, dtype=np.int64)
        for d in range(1, m + 1):
            sign = necklace.mobius(d) if m % d == 0 else 0
            if sign:
                prim[::d, ::d] += sign * np.outer(sums[m // d], sums[m // d])
        assert not (prim % m).any() and not (prim < 0).any()
        e, f = np.nonzero(prim)
        for p, w, v in zip((e - f).tolist(), (2 * (e + f) + 4 * m).tolist(),
                           (prim[e, f] // m).tolist()):
            out[(2 * m, p, w)] = v
    return out


def _numpy_support(acc, normalization):
    """The support with F as numpy made it, an int64 cumsum divided by the count."""
    assert normalization != GEOM
    values = stats._table_values(acc, normalization)
    keys = sorted(values)
    counts = [values[x] for x in keys]
    total = acc.total_count()
    running = np.cumsum(counts, dtype=np.int64)
    return keys, counts, (running / total).tolist(), total


class TestTable:
    @pytest.mark.parametrize("A, N", [(2, 12), (3, 10), (4, 10), (5, 8), (5, 10),
                                      (9, 6), (9, 8), (300, 2)])
    def test_matches_enumeration(self, A, N):
        assert lattice.table(A, N) == bulk.run(A, N).table

    @given(A=st.integers(2, 6), M=st.integers(1, 4))
    @settings(max_examples=25, deadline=None)
    def test_matches_enumeration_small(self, A, M):
        assert lattice.table(A, 2 * M) == bulk.run(A, 2 * M).table

    def test_progress_per_period_length(self):
        calls = []
        lattice.table(3, 8, progress=lambda *p: calls.append(p))
        assert calls == [(1, 4), (2, 4), (3, 4), (4, 4)]

    @pytest.mark.parametrize("A, N", [(2, 60), (3, 38), (5, 26), (9, 18)])
    def test_below_int64_bound(self, A, N):
        # Past enumeration's (A+1)^N < 2^62, where nothing enumerates the
        # table: per period length n = 2m, its count, sum psi, sum psi^2
        # and sum lw against their Moebius sums over the aperiodic words.
        cells = lattice.table(A, N)
        assert sum(cells.values()) == necklace.pi_exact(A, N)
        assert all(c > 0 for c in cells.values())
        sums = {}
        for (n, psi, lw), c in cells.items():
            s = sums.setdefault(n, [0, 0, 0, 0])
            s[0] += c
            s[1] += c * psi
            s[2] += c * psi * psi
            s[3] += c * lw
        assert sorted(sums) == list(range(2, N + 1, 2))
        for n, (count, psi1, psi2, lw1) in sums.items():
            m = n // 2
            pn = necklace.count_Pn(A, n)
            mobius_sum = sum(necklace.mobius(d) * d * A ** (n // d)
                             for d in range(1, m + 1) if m % d == 0)
            assert count == pn
            assert psi1 == 0
            assert 6 * psi2 == (A * A - 1) * mobius_sum
            assert lw1 == 2 * (A + 1) * m * pn

    @pytest.mark.parametrize("A, N", [(2, 60), (3, 38), (5, 26), (9, 18), (60, 4),
                                      (300, 2)])
    def test_matches_numpy_construction(self, A, N):
        cells = lattice.table(A, N)
        assert list(cells.items()) == list(_numpy_table(A, N).items())
        assert all(type(c) is int for c in cells.values())

    @pytest.mark.parametrize("A, N", [(2, 62), (3, 40), (2**31, 2)])
    def test_int64_bound(self, A, N):
        with pytest.raises(BudgetError):
            lattice.table(A, N)

    @pytest.mark.parametrize("A, N", [(1, 4), (3, 5), (3, 0)])
    def test_invalid(self, A, N):
        with pytest.raises(ValueError):
            lattice.table(A, N)


def _cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    return out


def _dist_outputs(capsys, tmp_path, A, N, norm, extra):
    out = _cli(capsys, "dist", "--A", A, "--N", N, "--norm", norm,
               "--out-dir", str(tmp_path), *extra)
    files = {p.name: p.read_bytes() for p in sorted(tmp_path.iterdir())}
    return out, files


def _route_to_enumeration(monkeypatch):
    """The CLI's table routes as they were: the table of a full bulk.run."""
    monkeypatch.setattr(cli, "_exact_table",
                        lambda A, N: bulk.run(A, N, progress=cli._progress))


class TestCliRoute:
    @pytest.mark.parametrize("A, N, norm, extra", DIST_RUNS)
    def test_dist_matches_enumeration(self, A, N, norm, extra, tmp_path, capsys,
                                      monkeypatch):
        new = _dist_outputs(capsys, tmp_path / "table", A, N, norm, extra)
        _route_to_enumeration(monkeypatch)
        old = _dist_outputs(capsys, tmp_path / "enum", A, N, norm, extra)
        assert new == old
        assert set(new[1]) >= {"table.csv", "cdf.csv", "report.json"}

    @pytest.mark.parametrize("A, N, norm, extra", CHARFN_RUNS)
    def test_charfn_matches_enumeration(self, A, N, norm, extra, capsys, monkeypatch):
        argv = ["charfn", "--A", A, "--N", N, "--norm", norm, *extra]
        new = _cli(capsys, *argv)
        _route_to_enumeration(monkeypatch)
        assert new == _cli(capsys, *argv)

    def test_no_enumeration(self, tmp_path, capsys, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("enumerated")

        for name in ("run", "run_shard", "count"):
            monkeypatch.setattr(bulk, name, forbidden)
        for norm in ("period", "word", "maxn"):
            out = _cli(capsys, "dist", "--A", "5", "--N", "10", "--norm", norm,
                       "--threads", "2", "--out-dir", str(tmp_path / norm))
            assert json.loads(out)["count"] == necklace.pi_exact(5, 10)
        _cli(capsys, "charfn", "--A", "5", "--N", "10", "--t", "1")
        _cli(capsys, "charfn", "--A", "5", "--N", "10", "--norm", "maxn", "--t", "1")
        # geom reads per-word lengths, so it still enumerates.
        with pytest.raises(AssertionError, match="enumerated"):
            cli.main(["dist", "--A", "3", "--N", "4", "--norm", "geom",
                      "--out-dir", str(tmp_path / "geom")])

    def test_one_progress_line_per_period_length(self, tmp_path, capsys):
        code = cli.main(["dist", "--A", "9", "--N", "8", "--norm", "period",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [f"length {i}/4" for i in range(1, 5)]


class TestNumpyRendering:
    """Past 2^53 counts, F is float(count) / float(total), as numpy divided
    its int64 cumsum; the exact ratio differs in the last digit."""

    @pytest.mark.parametrize("A, N, norm", [("5", "26", "word"), ("2", "60", "period")])
    def test_cdf_and_report(self, A, N, norm, tmp_path, capsys, monkeypatch):
        assert necklace.pi_exact(int(A), int(N)) > 2**53
        new = _dist_outputs(capsys, tmp_path / "lists", A, N, norm, [])
        monkeypatch.setattr(stats, "_support", _numpy_support)
        old = _dist_outputs(capsys, tmp_path / "numpy", A, N, norm, [])
        assert new == old
        assert set(new[1]) == {"table.csv", "cdf.csv", "report.json"}


class TestVerify:
    def test_detects_wrong_table(self, capsys, monkeypatch):
        real = lattice.table

        def dropped(A, N, progress=None):
            cells = real(A, N, progress)
            del cells[(2, 0, 4)]
            return cells

        monkeypatch.setattr(lattice, "table", dropped)
        code = cli.main(["verify", "--A", "2", "--N", "6"])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["passed"] is False
        assert "lattice_table: FAIL" in captured.err
        assert "shard_independence: ok" in captured.err
