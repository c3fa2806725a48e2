import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_python(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


@pytest.mark.parametrize("name", ["demo_counting.py", "demo_lengths.py", "demo_limit_laws.py"])
def test_demo_runs(name, tmp_path):
    # A copy, so that files a demo writes next to itself land in tmp_path.
    script = shutil.copy(os.path.join(ROOT, "demos", name), tmp_path)
    proc = run_python(script, cwd=tmp_path)
    assert proc.stdout


def test_readme_library_block(tmp_path):
    # The README's `## Library` example, run as written against src/.
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    section = readme.split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "from modwind import" in block
    run_python("-c", block, cwd=tmp_path)

