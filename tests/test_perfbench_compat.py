"""The benchmark under perfbench/ must keep working against the current code.

Its self-tests check the references and the output checks on genuine
artifacts, and its tracer wraps functions by (module, name); a rename in the
program that breaks either shows up here.
"""
import json
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


def test_tracer_counts_the_grid_csv_cells(tmp_path):
    # 4 nodes in two tight pairs: the degree-1 graph is disconnected, and its cells train as the others do
    spec = {
        "node_count": 4,
        "rows_per_node": [24] * 4,
        "feature_dim": 3,
        "cluster_assignment": [0, 0, 1, 1],
        "cluster_weights": [[2.0, -1.0, 0.5], [-2.0, 1.0, -0.5]],
        "noise_std": 0.1,
        "seed": 3,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    config = tmp_path / "exp.ini"
    config.write_text(
        "[data]\nsynthetic = spec.json\n\n[optimizer]\nmax_iterations = 30\n\n"
        "[grid]\nalphas = 0.1, 1.0\netas = 0.05, 0.01\ndegrees = 1, 2\n"
    )
    out = tmp_path / "out"
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import tracing\n"
        "tracer = tracing.install()\n"
        "from fedgtv.experiment_harness import run_experiment\n"
        f"run_experiment({str(config)!r}, {str(out)!r}, mode='grid')\n"
        "print(json.dumps(tracer.counts))\n"
    )
    result = run_python("-c", code)
    assert result.returncode == 0, result.stdout + result.stderr
    counts = json.loads(result.stdout.splitlines()[-1])
    rows = (out / "grid.csv").read_text(encoding="utf-8").splitlines()[1:]
    scored = [row.rsplit(",", 1)[1] != "" for row in rows]
    assert len(rows) == 2 * 2 * 2 + 2 + 2 and all(scored)
    assert [row.split(",")[4] for row in rows].count("0") == 4
    assert counts["experiment_harness.cells_trained"] == scored.count(True) == 12
    assert counts["experiment_harness.cells_skipped"] == scored.count(False) == 0
