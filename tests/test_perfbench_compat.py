"""The benchmark under perfbench/ must keep working against the current code.

Its self-tests check the references and the output checks on genuine
artifacts, and its tracer wraps functions by (module, name); a rename in the
program that breaks either shows up here.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def run_python(*args):
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_perfbench_selftest_passes():
    result = run_python(str(PERFBENCH / "selftest.py"))
    assert result.returncode == 0, result.stdout + result.stderr


def test_tracer_wraps_every_listed_function():
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import tracing\n"
        "tracing.install()\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stdout + result.stderr
