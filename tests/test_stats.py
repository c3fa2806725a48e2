import json
import math
from collections import Counter

import pytest
from mpmath import mp

from modwind import bulk, cli, invariants, necklace, sigma_p2, stats, svgplot
from modwind.stats import (
    GEOM,
    MAXN,
    PERIOD,
    WORD,
    HistConfig,
    JointCounts,
    _gaussian_cdfs,
    empirical_char_fn,
    ks_distance,
    merge,
    ratio_report,
)


def record(word):
    return invariants.build_record(necklace.Necklace(word))


def filled(A, N, words):
    acc = JointCounts(A, N)
    for w in words:
        acc.accumulate(record(w))
    return acc


def full_accumulator(A, N):
    acc = JointCounts(A, N)
    for nk in necklace.enumerate_necklaces(A, N):
        acc.accumulate(invariants.build_record(nk))
    return acc


class TestAccumulate:
    def test_examples(self):
        acc = filled(5, 12, [(3, 2, 3, 4)])
        assert acc.table[(4, 0, 24)] == 1
        acc = filled(5, 12, [(1, 1)])
        assert acc.table[(2, 0, 4)] == 1
        acc = filled(5, 12, [(1, 1), (1, 1)])
        assert acc.table[(2, 0, 4)] == 2

    def test_inconsistent_record_rejected(self):
        acc = JointCounts(5, 4)
        with pytest.raises(ValueError):
            acc.accumulate(record((1, 1, 2, 1, 1, 2)))  # n = 6 > N

    def test_total_mass(self):
        acc = full_accumulator(2, 6)
        assert acc.total_count() == necklace.pi_exact(2, 6)
        hist_total = sum(int(r.sum()) for r in acc.lg_hist.values())
        assert hist_total == acc.total_count()


class TestMerge:
    def test_identity(self):
        a = full_accumulator(2, 4)
        empty = JointCounts(2, 4)
        merged = merge(a, empty)
        assert merged.table == a.table

    def test_commutative(self):
        a = filled(3, 4, [(1, 2), (1, 1, 2, 2)])
        b = filled(3, 4, [(1, 3), (2, 3)])
        ab, ba = merge(a, b), merge(b, a)
        assert ab.table == ba.table
        assert ab.total_count() == 4

    def test_config_mismatch(self):
        with pytest.raises(ValueError):
            merge(JointCounts(2, 4), JointCounts(2, 6))
        with pytest.raises(ValueError):
            merge(JointCounts(2, 4), JointCounts(2, 4, HistConfig(-1, 1, 16)))


class TestEmpiricalCdf:
    def test_hand_example_A2_N2(self):
        # P_2 at A = 2: psi values {0, 0, -1, 1}
        acc = full_accumulator(2, 2)
        points = dict(ks_distance(acc, PERIOD, 1.0).cdf_points)
        inv = 1 / math.sqrt(2)
        assert points[-inv] == pytest.approx(0.25)
        assert points[0.0] == pytest.approx(0.75)
        assert points[inv] == pytest.approx(1.0)

    def test_symmetry(self):
        acc = full_accumulator(2, 6)
        points = ks_distance(acc, PERIOD, 1.0).cdf_points
        lookup = dict(points)
        cdf = dict(points)
        xs = sorted(lookup)
        for i, x in enumerate(xs):
            left = cdf[xs[i - 1]] if i else 0.0
            assert left == pytest.approx(1.0 - lookup.get(-x, 1.0), abs=1e-12)

    def test_single_record(self):
        acc = filled(5, 4, [(3, 2, 3, 4)])
        for norm in (PERIOD, MAXN, WORD):
            points = ks_distance(acc, norm, 1.0).cdf_points
            assert points == [(0.0, 1.0)]

    def test_monotone_and_normalized(self):
        acc = full_accumulator(3, 6)
        for norm in (PERIOD, MAXN, WORD, GEOM):
            points = ks_distance(acc, norm, 1.0).cdf_points
            fs = [f for _, f in points]
            assert all(b >= a for a, b in zip(fs, fs[1:]))
            assert fs[-1] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance(JointCounts(2, 4), PERIOD, 1.0)


class TestGaussianCdf:
    def test_examples(self):
        assert _gaussian_cdfs([0.0], 2.0) == [0.5]
        assert _gaussian_cdfs([3.0], 9.0)[0] == pytest.approx(0.8413447460685429, abs=1e-12)
        assert _gaussian_cdfs([-40.0], 1.0)[0] == pytest.approx(0.0, abs=1e-300)
        with pytest.raises(ValueError):
            _gaussian_cdfs([0.0], 0.0)

    def test_against_high_precision_oracle(self):
        # 1e3 points against the mpmath error function at 50 digits
        xs = [-8.0 + 16.0 * i / 999 for i in range(1000)]
        with mp.workdps(50):
            for x, got in zip(xs, _gaussian_cdfs(xs, 1.0)):
                want = float(0.5 * (1 + mp.erf(x / mp.sqrt(2))))
                assert abs(got - want) < 1e-12

    def test_symmetry_and_monotonicity(self):
        xs = [i / 7 for i in range(-35, 36)]
        vals = _gaussian_cdfs(xs, 0.37)
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        for v, w in zip(vals, _gaussian_cdfs([-x for x in xs], 0.37)):
            assert v + w == pytest.approx(1.0, abs=1e-12)


class TestKsDistance:
    def test_degenerate_point_mass(self):
        acc = filled(5, 4, [(3, 2, 3, 4)])
        rep = ks_distance(acc, PERIOD, 2.0)
        assert rep.ks == pytest.approx(0.5)

    def test_exact_norm_has_zero_bound(self):
        acc = full_accumulator(2, 4)
        for norm in (PERIOD, MAXN, WORD):
            assert ks_distance(acc, norm, 0.25).ks_error_bound == 0.0

    def test_geom_bound_reported(self):
        acc = full_accumulator(2, 4)
        rep = ks_distance(acc, GEOM, 0.2)
        assert 0.0 < rep.ks_error_bound <= 1.0

    def test_converges_with_N(self):
        ks = {}
        for N in (4, 8):
            acc = full_accumulator(2, N)
            ks[N] = ks_distance(acc, PERIOD, 0.25).ks
        assert ks[8] < ks[4]


class TestCharFn:
    def test_t_zero(self):
        acc = full_accumulator(2, 4)
        assert empirical_char_fn(acc, PERIOD, [0.0]) == [(1.0, 0.0)]

    def test_imaginary_part_vanishes(self):
        acc = full_accumulator(3, 6)
        for norm in (PERIOD, MAXN):
            for _, im in empirical_char_fn(acc, norm, [0.3, 1.0, 2.7]):
                assert abs(im) < 1e-12

    def test_unsupported_norms(self):
        acc = full_accumulator(2, 4)
        for norm in (WORD, GEOM):
            with pytest.raises(ValueError):
                empirical_char_fn(acc, norm, [1.0])

    @pytest.mark.parametrize("norm", [PERIOD, MAXN])
    @pytest.mark.parametrize("make", [lambda: full_accumulator(3, 6),
                                      lambda: cli._exact_table(5, 12)])
    def test_against_cellwise_oracle(self, make, norm):
        acc = make()
        ts = [0.0, 0.5, 1.0, -2.7, 13.0, 250.0]
        got = [v for pair in empirical_char_fn(acc, norm, ts) for v in pair]
        want = [v for pair in _cellwise_char_fn(acc, norm, ts) for v in pair]
        assert got == pytest.approx(want, abs=1e-15, rel=0)

    def test_overflow_names_t(self):
        acc = full_accumulator(3, 6)
        with pytest.raises(ValueError, match=r"^1e\+308 times the largest"):
            empirical_char_fn(acc, PERIOD, [1.0, 1e308, 2.0])


def _cellwise_char_fn(acc, normalization, ts):
    """(re, im) at each t, summed over the (n, psi, lw) cells one by one."""
    total = sum(acc.table.values())
    out = []
    for t in ts:
        re, im = [], []
        for (n, psi, _), cnt in acc.table.items():
            x = psi / math.sqrt(n if normalization == PERIOD else acc.N)
            re.append(cnt * math.cos(t * x))
            im.append(cnt * math.sin(t * x))
        out.append((math.fsum(re) / total, math.fsum(im) / total))
    return out


class TestOnePass:
    """Each report builds its support once, and charfn once for all its t."""

    @staticmethod
    def _count_passes(monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in ("_table_values", "_geom_counts"):
            monkeypatch.setattr(stats, name, counted(name, getattr(stats, name)))
        monkeypatch.setattr(JointCounts, "total_count",
                            counted("total_count", JointCounts.total_count))
        return calls

    @pytest.mark.parametrize("norm", [PERIOD, MAXN, WORD, GEOM])
    def test_ks_distance(self, norm, monkeypatch):
        acc = bulk.run(3, 8)
        calls = self._count_passes(monkeypatch)
        ks_distance(acc, norm, 0.5)
        support = "_geom_counts" if norm == GEOM else "_table_values"
        assert calls == {"total_count": 1, support: 1}

    @pytest.mark.parametrize("norm", [PERIOD, MAXN])
    def test_charfn(self, norm, monkeypatch, capsys):
        calls = self._count_passes(monkeypatch)
        code = cli.main(["charfn", "--A", "4", "--N", "10", "--norm", norm,
                         "--t", "0.5", "--t", "1", "--t", "2"])
        assert code == 0
        assert len(json.loads(capsys.readouterr().out)["points"]) == 3
        assert calls == {"total_count": 1, "_table_values": 1}


class TestRatios:
    def test_single_necklace(self):
        acc = filled(2, 2, [(1, 1)])
        mean_g, var_g, mean_w, var_w = ratio_report(acc)
        assert mean_w == pytest.approx(2.0)
        assert var_w == pytest.approx(0.0, abs=1e-15)
        assert var_g == pytest.approx(0.0, abs=1e-15)
        assert mean_g == pytest.approx(
            invariants.geodesic_length_logsum((1, 1)) / 2
        )

    def test_word_ratio_tends_to_A_plus_1(self):
        gaps = []
        for N in (4, 8):
            acc = full_accumulator(3, N)
            _, _, mean_w, _ = ratio_report(acc)
            gaps.append(abs(mean_w - 4.0))
        assert gaps[1] <= gaps[0]


class TestSerialization:
    def test_table_csv(self, tmp_path):
        acc = full_accumulator(2, 4)
        path = tmp_path / "table.csv"
        stats.write_table_csv(acc, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,psi,lw,count"
        rows = [tuple(int(v) for v in ln.split(",")) for ln in lines[1:]]
        assert rows == sorted(rows)
        assert sum(r[3] for r in rows) == 10

    def test_cdf_csv_and_report_json(self, tmp_path):
        acc = full_accumulator(2, 4)
        rep = ks_distance(acc, PERIOD, 0.25)
        cdf_path = tmp_path / "cdf.csv"
        stats.write_cdf_csv(rep, cdf_path)
        header, *rows = cdf_path.read_text().splitlines()
        assert header == "x,F_emp,F_gauss"
        assert len(rows) == len(rep.cdf_points)
        payload = stats.report_json(rep, 2, 4)
        parsed = json.loads(cli.dumps17(payload))
        assert parsed["count"] == 10
        assert parsed["normalization"] == "period"
        assert parsed["ks"] == pytest.approx(rep.ks)

    def test_dumps17_precision(self):
        text = cli.dumps17({"x": 1 / 3})
        assert "0.33333333333333331" in text
        assert json.loads(text)["x"] == 1 / 3


def _scalar_empirical_cdf(acc, normalization):
    """The per-point loop that the one-pass CDF of stats.ks_distance replaced."""
    total = acc.total_count()
    if normalization == GEOM:
        counts = stats._geom_counts(acc)
        points = [(acc.hist.lo, counts[0] / total)]
        running = int(counts[0])
        for i in range(acc.hist.bins):
            running += int(counts[i + 1])
            x = acc.hist.lo + (i + 1) * acc.hist.width
            points.append((x, running / total))
        return points
    values = stats._table_values(acc, normalization)
    points = []
    running = 0
    for x in sorted(values):
        running += values[x]
        points.append((x, running / total))
    return points


def _scalar_gaussian_cdf(x, sigma2):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0 * sigma2)))


def _scalar_ks(points, sigma2):
    ks = 0.0
    prev = 0.0
    for x, f in points:
        target = _scalar_gaussian_cdf(x, sigma2)
        ks = max(ks, abs(f - target), abs(prev - target))
        prev = f
    return max(ks, 1.0 - prev)


def _scalar_cdf_csv(points, sigma2):
    lines = ["x,F_emp,F_gauss\n"]
    for x, f in points:
        g = _scalar_gaussian_cdf(x, sigma2)
        lines.append(f"{x:.17g},{f:.17g},{g:.17g}\n")
    return "".join(lines).encode()


_ORACLE_ACCUMULATORS = {
    "exhaustive": lambda: bulk.run(3, 8),
    "scalar-records": lambda: full_accumulator(2, 6),
    "sampled": lambda: bulk.sample(5, 12, 400, 3),
    "two-bins": lambda: bulk.run(3, 8, hist=HistConfig(-2.0, 2.0, 2)),
    "sampled-two-bins": lambda: bulk.sample(4, 10, 300, 5, HistConfig(-2.0, 2.0, 2)),
    "under-and-overflow": lambda: bulk.run(4, 8, hist=HistConfig(-0.3, 0.2, 64)),
    # the benchmark's geom operation: 8 193 rows of cdf.csv
    "geom-operation": lambda: bulk.run(5, 8),
}


class TestCdfAgainstScalarLoops:
    """The one-pass CDF, KS and cdf.csv equal the per-point loops bit for bit."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_ACCUMULATORS))
    @pytest.mark.parametrize("norm", [PERIOD, MAXN, WORD, GEOM])
    def test_points_ks_and_csv(self, name, norm, tmp_path):
        acc = _ORACLE_ACCUMULATORS[name]()
        points = _scalar_empirical_cdf(acc, norm)
        for sigma2 in (0.37, float(sigma_p2(acc.A))):
            rep = ks_distance(acc, norm, sigma2)
            assert rep.cdf_points == points
            assert rep.ks == _scalar_ks(points, sigma2)
            path = tmp_path / f"cdf-{sigma2}.csv"
            stats.write_cdf_csv(rep, path)
            assert path.read_bytes() == _scalar_cdf_csv(points, sigma2)

    def test_tails_hold_mass(self):
        counts = stats._geom_counts(_ORACLE_ACCUMULATORS["under-and-overflow"]())
        assert counts[0] > 0 and counts[-1] > 0
        assert stats._geom_counts(_ORACLE_ACCUMULATORS["two-bins"]()).size == 4


def _scalar_density_histogram(cdf_points, lo, hi, bins):
    """The per-edge rescan of the CDF that svgplot.density_histogram replaced."""
    width = (hi - lo) / bins
    edges = [lo + i * width for i in range(bins + 1)]

    def cdf_at(x):
        f = 0.0
        for px, pf in cdf_points:
            if px <= x:
                f = pf
            else:
                break
        return f

    densities = []
    for i in range(bins):
        mass = cdf_at(edges[i + 1]) - cdf_at(edges[i])
        densities.append(mass / width)
    return edges, densities


class TestDensityHistogramAgainstLoop:
    """svgplot's one-pass bin masses equal the per-edge loop bit for bit."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_ACCUMULATORS))
    @pytest.mark.parametrize("norm", [PERIOD, WORD, GEOM])
    def test_densities(self, name, norm):
        points = ks_distance(_ORACLE_ACCUMULATORS[name](), norm, 1.0).cdf_points
        for lo, hi, bins in ((-3.0, 3.0, 80), (-0.5, 0.25, 7), (5.0, 6.0, 3)):
            got = svgplot.density_histogram(points, lo, hi, bins)
            assert got == _scalar_density_histogram(points, lo, hi, bins)

    @pytest.mark.parametrize("norm, sigma2", [(PERIOD, 2.0), (GEOM, 0.9023)])
    def test_svg_bytes(self, norm, sigma2, monkeypatch):
        points = ks_distance(bulk.run(5, 8), norm, sigma2).cdf_points
        svg = svgplot.render(points, sigma2)
        monkeypatch.setattr(svgplot, "density_histogram", _scalar_density_histogram)
        assert svg == svgplot.render(points, sigma2)
