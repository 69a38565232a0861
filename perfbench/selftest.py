"""Quick self-tests of the benchmark's references and output checks.

The reference solvers must agree with small cases solved by hand, and every
output check must pass on genuine artifacts of small inputs and fail on a
deliberately perturbed copy. Run from the root of a source checkout:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import csv
import json
import shutil
import sys
import unittest
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402
from run import cli_args  # noqa: E402


class ReferenceTest(unittest.TestCase):
    def test_least_squares_fit(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(reference.lstsq_weights(X, np.array([1.0, 2.0, 3.0])), [1.0, 2.0])
        self.assertAlmostEqual(reference.min_mse(np.ones((2, 1)), np.array([0.0, 2.0])), 1.0)

    def test_rank_deficient_fit_keeps_the_minimum(self):
        # A duplicated column (like the rcount slots summing to the intercept)
        # leaves the reachable minimum unchanged.
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 3))
        y = rng.standard_normal(30)
        X_dup = np.hstack([X, X[:, :1]])
        self.assertAlmostEqual(reference.min_mse(X_dup, y), reference.min_mse(X, y), places=12)

    def test_pooled_fit_weighs_nodes_equally(self):
        # mean(w^2, (3 - w)^2) is least at w = 1.5 whatever the row counts.
        parts = [(np.ones((2, 1)), np.zeros(2)), (np.ones((1, 1)), np.array([3.0]))]
        w, value = reference.pooled_fit(parts)
        np.testing.assert_allclose(w, [1.5])
        self.assertAlmostEqual(value, 2.25)

    def test_gtvmin_two_nodes(self):
        # w1^2 + (2 - w2)^2 + (w1 - w2)^2 is least at (2/3, 4/3), value 4/3.
        parts = [(np.ones((1, 1)), np.array([0.0])), (np.ones((1, 1)), np.array([2.0]))]
        W, value = reference.gtvmin_exact(parts, np.array([[0, 1], [1, 0]]), alpha=1.0)
        np.testing.assert_allclose(W.ravel(), [2 / 3, 4 / 3])
        self.assertAlmostEqual(value, 4 / 3)

    def test_union_knn_and_connectivity(self):
        line = np.array([[0.0], [1.0], [3.0], [10.0]])
        A = reference.union_knn(line, 1)
        self.assertEqual(reference.edge_set(A), {(0, 1), (1, 2), (2, 3)})
        self.assertTrue(reference.is_connected(A))
        clusters = np.array([[0.0], [1.0], [10.0], [11.0]])
        self.assertEqual(reference.edge_set(reference.union_knn(clusters, 1)), {(0, 1), (2, 3)})
        self.assertFalse(reference.is_connected(reference.union_knn(clusters, 1)))
        self.assertTrue(reference.is_connected(reference.union_knn(clusters, 2)))
        # Equal distances go to the lower index.
        self.assertEqual(reference.edge_set(reference.union_knn(np.array([[0.0], [1.0], [-1.0]]), 1)), {(0, 1), (0, 2)})


def _run(argv) -> dict:
    result = worker.run_operation(argv)
    if result["exit"] not in (0, 4):
        raise AssertionError(f"fedgtv {argv[0]} failed: {result['stderr']}")
    return result


def _edit_json(path: Path, edit) -> None:
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _edit_grid(path: Path, edit) -> None:
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _scale_last_objective(algorithm: str, factor: float):
    def edit(path: Path) -> None:
        lines = path.read_text().splitlines()
        last = max(k for k, line in enumerate(lines) if line.startswith(algorithm + ","))
        fields = lines[last].split(",")
        fields[2] = repr(float(fields[2]) * factor)
        lines[last] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

    return edit


class ChecksTest(unittest.TestCase):
    """Each check passes on genuine artifacts and fails once one is perturbed."""

    @classmethod
    def setUpClass(cls):
        cls.tmp = HERE.parent / ".perfbench_work" / "selftest"
        shutil.rmtree(cls.tmp, ignore_errors=True)
        cls.los = inputs.write_los(3, cls.tmp / "los", inputs.LosShape((("A", 400), ("B", 300), ("C", 500)), 1))
        cls.los_grid = _run(cli_args("grid", cls.los.config, cls.tmp / "los_grid"))
        cls.los_graph = _run(cli_args("graph", cls.los.config, cls.tmp / "los_graph"))

        cls.sg = inputs.write_synth_grid(3, cls.tmp / "sg", inputs.SynthShape((60, 70, 80, 90, 100)))
        with cls.sg.config.open("a") as fh:
            fh.write("max_iterations = 200\n")
        _run(cli_args("grid", cls.sg.config, cls.tmp / "sg_grid"))

        cls.sm = inputs.write_synth_many(3, cls.tmp / "sm", inputs.SynthShape((120,) * 12, noise_std=0.5))
        _run(cli_args("run", cls.sm.config, cls.tmp / "sm_run"))
        _run(cli_args("graph", cls.sm.config, cls.tmp / "sm_graph"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def perturbed(self, name: str, file: str, edit) -> Path:
        """A copy of artifact directory ``name`` with ``file`` edited."""
        copy = self.tmp / f"{name}-perturbed"
        shutil.rmtree(copy, ignore_errors=True)
        shutil.copytree(self.tmp / name, copy)
        edit(copy / file)
        return copy

    # los_grid

    def check_los(self, grid_dir=None, graph_op=None, graph_dir=None):
        return checks.check_los(
            self.los,
            grid_dir or self.tmp / "los_grid",
            graph_op or self.los_graph,
            graph_dir or self.tmp / "los_graph",
        )

    def test_los_passes(self):
        self.assertEqual(self.check_los(), [])

    def test_los_dropped_rows(self):
        grid = self.perturbed("los_grid", "manifest.json", lambda p: _edit_json(p, lambda m: m["source"].update(dropped_rows=m["source"]["dropped_rows"] + 1)))
        self.assertTrue(self.check_los(grid_dir=grid))

    def test_los_rows_per_facility(self):
        grid = self.perturbed("los_grid", "manifest.json", lambda p: _edit_json(p, lambda m: m["source"]["rows_per_node"].reverse()))
        self.assertTrue(self.check_los(grid_dir=grid))

    def test_los_train_mse_below_floor(self):
        def edit(m):
            m["algorithms"][1]["train_mse"][0] = 0.5 * min(m["algorithms"][1]["train_mse"])

        grid = self.perturbed("los_grid", "metrics.json", lambda p: _edit_json(p, edit))
        self.assertTrue(self.check_los(grid_dir=grid))

    def test_los_fedavg1_off_pooled(self):
        def edit(m):
            block = next(b for b in m["algorithms"] if b["algorithm"] == "fedavg1")
            block["mean"]["train"] *= 1.001

        grid = self.perturbed("los_grid", "metrics.json", lambda p: _edit_json(p, edit))
        self.assertTrue(self.check_los(grid_dir=grid))

    def test_los_graph_failure_of_another_kind(self):
        self.assertTrue(self.check_los(graph_op={"exit": 3, "stderr": "data error: missing"}))

    def test_graph_op_success_path(self):
        ok = {"exit": 0, "stderr": ""}
        graph = self.tmp / "sm_graph"
        self.assertEqual(checks.check_graph_op(ok, graph, 2), [])
        looped = self.perturbed("sm_graph", "graph.edges", lambda p: p.write_text(p.read_text() + "1 1 1\n"))
        self.assertTrue(checks.check_graph_op(ok, looped, 2))
        cut = self.perturbed("sm_graph", "graph.edges", lambda p: p.write_text("".join(p.read_text().splitlines(True)[1:])))
        self.assertTrue(checks.check_graph_op(ok, cut, 2))

    # synth_grid

    def test_synth_grid_passes(self):
        self.assertEqual(checks.check_synth_grid(self.sg, self.tmp / "sg_grid"), [])

    def test_synth_grid_connected_flag(self):
        def edit(rows):
            row = next(r for r in rows[1:] if r[0] == "fedsgd")
            row[4] = "0" if row[4] == "1" else "1"

        grid = self.perturbed("sg_grid", "grid.csv", lambda p: _edit_grid(p, edit))
        self.assertTrue(checks.check_synth_grid(self.sg, grid))

    def test_synth_grid_selected_not_argmin(self):
        def edit(m):
            m["selected"]["fedavg1"]["eta"] = 0.001 if m["selected"]["fedavg1"]["eta"] != 0.001 else 0.1

        grid = self.perturbed("sg_grid", "manifest.json", lambda p: _edit_json(p, edit))
        self.assertTrue(checks.check_synth_grid(self.sg, grid))

    def test_synth_grid_retrained_val(self):
        grid = self.perturbed("sg_grid", "metrics.json", lambda p: _edit_json(p, lambda m: m["algorithms"][0]["mean"].update(val=m["algorithms"][0]["mean"]["val"] * 1.01)))
        self.assertTrue(checks.check_synth_grid(self.sg, grid))

    def test_synth_grid_fedsgd_not_best_on_test(self):
        def edit(m):
            blocks = {b["algorithm"]: b for b in m["algorithms"]}
            blocks["fedsgd"]["mean"]["test"] = 2 * blocks["fedavg1"]["mean"]["test"]

        grid = self.perturbed("sg_grid", "metrics.json", lambda p: _edit_json(p, edit))
        self.assertTrue(checks.check_synth_grid(self.sg, grid))

    # synth_many

    def check_many(self, run_dir=None, graph_dir=None):
        return checks.check_synth_many(self.sm, run_dir or self.tmp / "sm_run", graph_dir or self.tmp / "sm_graph")

    def test_synth_many_passes(self):
        self.assertEqual(self.check_many(), [])

    def test_synth_many_graph_edges(self):
        cut = self.perturbed("sm_graph", "graph.edges", lambda p: p.write_text("".join(p.read_text().splitlines(True)[1:])))
        self.assertTrue(self.check_many(graph_dir=cut))

    def test_synth_many_fedsgd_objective(self):
        for factor in (1 + 1e-6, 1 - 1e-6):
            run = self.perturbed("sm_run", "trace.csv", _scale_last_objective("fedsgd", factor))
            self.assertTrue(self.check_many(run_dir=run), factor)

    def test_synth_many_fedavg1_objective(self):
        run = self.perturbed("sm_run", "trace.csv", _scale_last_objective("fedavg1", 1 + 1e-6))
        self.assertTrue(self.check_many(run_dir=run))


if __name__ == "__main__":
    unittest.main()
