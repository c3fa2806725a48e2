import glob
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


@pytest.mark.parametrize("argv", [
    ["count", "--A", "2", "--N", "4", "--exact"],
    ["dist", "--A", "2", "--N", "4", "--norm", "period"],
    ["dist", "--A", "2", "--N", "4", "--norm", "geom"],
    ["constants", "--A", "2", "--tol", "1e-2"],
    ["dist", "--A", "9", "--N", "14", "--norm", "period", "--sample", "1000", "--seed", "3"],
])
def test_traced_call(argv, tmp_path):
    # perfbench/tracer.py wraps modwind functions it looks up by name, so
    # a rename in src/ must fail here, not only in a traced benchmark run.
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    prefix = str(tmp_path / "spans")
    out_dir = ["--out-dir", str(tmp_path)] if argv[0] == "dist" else []
    proc = subprocess.run([sys.executable, TRACER, prefix, *argv, *out_dir], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = [rec[1] for path in glob.glob(prefix + ".*.jsonl")
             for rec in map(json.loads, open(path)) if isinstance(rec, list)]
    assert "cli.main" in names
    # The spans of the per-word kernels: enumeration shards, and c_k for
    # the two-tail interval of geom and the estimate of constants.
    if "geom" in argv:
        assert {"bulk.run", "bulk.run_shard", "invariants.ck_constant"} <= set(names)
    if argv[0] == "constants":
        assert {"invariants.chat_estimate", "invariants.ck_constant"} <= set(names)
