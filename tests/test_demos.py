import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@pytest.mark.parametrize("name", ["demo_counting.py", "demo_lengths.py", "demo_limit_laws.py"])
def test_demo_runs(name, tmp_path):
    # A copy, so that files a demo writes next to itself land in tmp_path.
    script = shutil.copy(os.path.join(ROOT, "demos", name), tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout
