"""The reference computations, and each output check rejecting a corrupted output.

    python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import checks
import reference as ref
import run
import tracer


def brute_table(A, N):
    """(n, psi, lw) counts by scanning every word and keeping one per class."""
    table = {}
    for n in range(2, N + 1, 2):
        for w in itertools.product(range(1, A + 1), repeat=n):
            rotations = [w[s:] + w[:s] for s in range(0, n, 2)]
            if w != min(rotations) or len(set(rotations)) != n // 2:
                continue
            key = (n, sum(w[0::2]) - sum(w[1::2]), 2 * sum(w))
            table[key] = table.get(key, 0) + 1
    return table


@pytest.mark.parametrize("A,N", [(2, 10), (3, 8), (4, 6)])
def test_pair_table_matches_word_scan(A, N):
    table = ref.pair_table(A, N)
    assert table == brute_table(A, N)
    assert sum(table.values()) == ref.necklace_total(A, N)


def test_lyndon_count():
    assert ref.lyndon_count(4, 6) == (4**6 - 4**3 - 4**2 + 4) // 6
    assert [ref.necklaces_of_length(2, n) for n in (2, 4, 6)] == [4, 6, 20]


def test_chat_against_truncated_average():
    # c_k from all 2^k words, with the Cauchy bound |c-hat - c_k| <= 2 / F_k^2
    k = 20
    idx = np.arange(2**k)
    h, h0 = np.ones(idx.size), np.zeros(idx.size)
    q, q0 = np.zeros(idx.size), np.ones(idx.size)
    for i in range(k):
        d = (idx >> (k - 1 - i)) % 2 + 1
        h, h0 = d * h + h0, h
        q, q0 = d * q + q0, q
    c_k = 2.0 * np.mean(np.log(h) - np.log(q))
    assert abs(ref.chat(2) - c_k) <= ref.fibonacci_bound(k)
    assert abs(ref.chat(5) - 2.21650732946) < 1e-10
    assert abs(ref.chat(9, degree=64) - ref.chat(9)) < 1e-13


def test_chi2_sf():
    assert ref.chi2_sf(3.0, 2) == pytest.approx(math.exp(-1.5), rel=1e-12)


def cli(op, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run([sys.executable, "-m", "modwind.cli"] + op.argv(str(out_dir)),
                          capture_output=True, text=True, env=run._env(), check=True)
    return proc.stdout


def edit_json(out_dir, stdout, **changes):
    payload = json.loads(stdout)
    payload.update(changes)
    (out_dir / "report.json").write_text(json.dumps(payload))
    return json.dumps(payload)


def edit_table(out_dir, edit):
    path = out_dir / "table.csv"
    lines = path.read_text().splitlines()
    rows = [[int(v) for v in line.split(",")] for line in lines[1:]]
    edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(map(str, r)) for r in rows]) + "\n")


@pytest.fixture(scope="module")
def checker():
    return checks.Checker()


def test_exhaustive_table_cell_changed(checker, tmp_path):
    op = run.Op("dist", 3, 8, norm="period", svg=True)
    out = cli(op, tmp_path)
    assert checker.check(op, tmp_path, out) == []

    def move_one(rows):  # total unchanged
        max(rows, key=lambda r: r[3])[3] -= 1
        rows[0][3] += 1

    edit_table(tmp_path, move_one)
    problems = checker.check(op, tmp_path, out)
    assert any("table.csv cell" in p for p in problems)


def test_exhaustive_count_off_by_one(checker, tmp_path):
    op = run.Op("dist", 3, 8, norm="word")
    out = cli(op, tmp_path)
    assert checker.check(op, tmp_path, out) == []
    out = edit_json(tmp_path, out, count=json.loads(out)["count"] + 1)
    assert any("report count" in p for p in checker.check(op, tmp_path, out))


def test_geom_sigma2_moved(checker, tmp_path):
    op = run.Op("dist", 3, 8, norm="geom")
    out = cli(op, tmp_path)
    assert checker.check(op, tmp_path, out) == []
    moved = ref.sigma_p2(3) / (ref.chat(3) - 2 * op.tol)
    out = edit_json(tmp_path, out, sigma2=moved)
    assert any("geom sigma2" in p for p in checker.check(op, tmp_path, out))


def test_geom_asymmetry(checker, tmp_path):
    op = run.Op("dist", 3, 8, norm="geom")
    out = cli(op, tmp_path)
    out = edit_json(tmp_path, out, mean=1e-6)
    assert any("geom mean" in p for p in checker.check(op, tmp_path, out))


def test_sampled_geom(checker, tmp_path):
    op = run.Op("dist", 4, 8, norm="geom", sample=400, seed=7)
    out = cli(op, tmp_path)
    assert checker.check(op, tmp_path, out) == []


def test_sample_draw_count_off_by_one(checker, tmp_path):
    op = run.Op("dist", 5, 8, norm="period", sample=500, seed=3)
    out = cli(op, tmp_path)
    assert checker.check(op, tmp_path, out) == []

    def add_one(rows):
        rows[-1][3] += 1

    edit_table(tmp_path, add_one)
    assert any("table.csv holds 501" in p for p in checker.check(op, tmp_path, out))


def test_sample_draws_per_length(checker, tmp_path):
    op = run.Op("dist", 5, 8, norm="word", sample=500, seed=4)
    out = cli(op, tmp_path)
    assert checker.check(op, tmp_path, out) == []

    def pile_on_shortest(rows):  # same total, all draws at n = 2
        total = sum(r[3] for r in rows)
        rows[:] = [[2, 0, 12, total]]

    edit_table(tmp_path, pile_on_shortest)
    assert any("chi-squared" in p for p in checker.check(op, tmp_path, out))


def test_sample_outside_support(checker, tmp_path):
    op = run.Op("dist", 5, 8, norm="period", sample=500, seed=5)
    out = cli(op, tmp_path)

    def stray(rows):
        rows[-1][2] += 1  # odd word length: no geodesic has it

    edit_table(tmp_path, stray)
    assert any("reference support" in p for p in checker.check(op, tmp_path, out))


def test_constants_sigma2_moved(checker, tmp_path):
    op = run.Op("constants", 3, tol=1e-2)
    out = cli(op, tmp_path)
    assert checker.check(op, tmp_path, out) == []
    p = json.loads(out)
    shifted = p["c_k"] + 3 * p["fibonacci_bound"]
    bad = dict(p, c_k=shifted, sigma_g2=ref.sigma_p2(3) / shifted)
    assert any("c-hat reference" in q for q in checker.check(op, tmp_path, json.dumps(bad)))
    lo, hi = p["sigma_g2_interval"]
    bad = dict(p, sigma_g2_interval=[hi, hi + (hi - lo)])
    assert checker.check(op, tmp_path, json.dumps(bad))


def test_count_off_by_one(checker, tmp_path):
    op = run.Op("count", 3, 6, exact=True, threads=2)
    out = cli(op, tmp_path)
    assert checker.check(op, tmp_path, out) == []
    bad = dict(json.loads(out), exact=json.loads(out)["exact"] + 1)
    assert any("count exact" in q for q in checker.check(op, tmp_path, json.dumps(bad)))


def test_charfn_value_moved(checker, tmp_path):
    op = run.Op("charfn", 3, 6, t=(0.5, 2.0))
    out = cli(op, tmp_path)
    assert checker.check(op, tmp_path, out) == []
    p = json.loads(out)
    p["points"][1]["empirical_re"] += 1e-9
    assert any("charfn at t=2:" in q for q in checker.check(op, tmp_path, json.dumps(p)))


def test_seed_derivation():
    a = run.workload_ops("sample", 11, 0)
    assert a == run.workload_ops("sample", 11, 0)
    assert a != run.workload_ops("sample", 12, 0)
    assert a != run.workload_ops("sample", 11, 1)
    assert run.workload_ops("geom", 11, 0) == run.workload_ops("geom", 12, 3)


def test_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_self_time_counts_overlap_once():
    spans = [
        ["1", "bulk.run", 0.0, 10.0, None, {"necklaces": 50}],
        ["2", "bulk.run_shard", 1.0, 6.0, "1", {}],  # two workers overlap
        ["3", "bulk.run_shard", 2.0, 8.0, "1", {}],
        ["4", "bulk.merge", 8.5, 9.0, "1", {}],
    ]
    layers = tracer.reduce(spans, {})
    assert layers["bulk.pool_s"] == pytest.approx(10.0 - 7.0 - 0.5)
    assert layers["bulk.shards"] == 2 and layers["bulk.shard_s_max"] == 6.0
    assert layers["necklaces"] == 50


def test_end_to_end_scales_per_operation_medians():
    def outcome(wall, geodesics=10):
        return run.Outcome(0, wall, 64.0, wall, 0.0, geodesics, 0, [], None)

    nominal = [run.CAL_NOMINAL_S] * 4
    halved = [tuple(2 * t for t in run.CAL_NOMINAL_S)] * 4
    assert run.machine_scale(nominal) == pytest.approx(1.0)
    assert run.machine_scale(halved) == pytest.approx(0.5)
    # one burst (9 s) in one round; the per-operation medians leave it out
    rounds = [[outcome(1.0), outcome(2.0)], [outcome(9.0), outcome(2.2)],
              [outcome(1.2), outcome(1.8)]]
    setup = [outcome(s, 0) for s in (0.5, 0.7, 0.6)]
    e2e = run.end_to_end(setup, rounds, 0.5)
    assert e2e["wall_s"] == pytest.approx(0.5 * (1.2 + 2.0))
    assert e2e["setup_s"] == pytest.approx(0.5 * 0.6)
    assert e2e["geodesics_per_s"] == pytest.approx(20 / e2e["wall_s"])
