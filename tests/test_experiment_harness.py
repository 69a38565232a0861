import configparser
import errno
import json
import math
import os
import re
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import load_perfbench_inputs

from fedgtv import experiment_harness, fed_optimizers
from fedgtv.cli import main
from fedgtv.data_pipeline import CsvSchema, LocalDataset, SyntheticSpec, generate_synthetic, split_dataset
from fedgtv.errors import (
    ConfigError,
    DegenerateInputError,
    DivergenceError,
    ParameterError,
    SchemaError,
)
from fedgtv.experiment_harness import (
    AlgorithmMetrics,
    GridCell,
    GridSpec,
    MetricsReport,
    evaluate,
    load_experiment_config,
    load_synthetic_spec,
    run_experiment,
    run_grid_search,
    select_best,
)
from fedgtv.fed_optimizers import Algorithm, OptimizerConfig, train
from fedgtv.model_core import least_squares_fit

FIXTURE = Path(__file__).parent / "data" / "los_fixture.csv"
ROOT = Path(__file__).resolve().parent.parent

# One malformed value per typed config key; a [data] path accepts any string.
BAD_VALUES = {
    ("preprocess", "seed"): "1.5",
    ("preprocess", "condition_columns"): " , ",
    ("graph", "degree"): "two",
    ("optimizer", "algorithm"): "sgd",
    ("optimizer", "eta"): "fast",
    ("optimizer", "alpha"): "strong",
    ("optimizer", "batch_size"): "64.0",
    ("optimizer", "max_iterations"): "1e3",
    ("optimizer", "trace_every"): "ten",
    ("grid", "alphas"): "1.0, x",
    ("grid", "etas"): "0.1, fast",
    ("grid", "degrees"): "1, 2.5",
    ("grid", "algorithms"): "fedsgd, sgd",
}

SPEC_JSON = {
    "node_count": 4,
    "rows_per_node": [24, 24, 24, 24],
    "feature_dim": 3,
    "cluster_assignment": [0, 0, 1, 1],
    "cluster_weights": [[2.0, -1.0, 0.5], [-2.0, 1.0, -0.5]],
    "noise_std": 0.1,
    "seed": 3,
}


def cluster_datasets():
    return generate_synthetic(
        SyntheticSpec(
            node_count=4,
            rows_per_node=(24,) * 4,
            feature_dim=3,
            cluster_assignment=(0, 0, 1, 1),
            cluster_weights=((2.0, -1.0, 0.5), (-2.0, 1.0, -0.5)),
            noise_std=0.1,
            seed=3,
        )
    )


def src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for a fresh interpreter."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def diverging_config(tmp_path, body="[optimizer]\neta = 5.0\n"):
    """A config on a spec whose fedsgd and fedavg1 iterates overflow at eta = 5; by default a run at eta = 5."""
    spec = {
        "node_count": 5, "rows_per_node": [200] * 5, "feature_dim": 3, "cluster_assignment": [0, 0, 1, 1, 1],
        "cluster_weights": [[20.0, -10.0, 5.0], [-2.0, 1.0, -0.5]], "noise_std": 0.1, "seed": 3,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    return write_config(tmp_path, "[data]\nsynthetic = spec.json\n\n" + body)


def write_config(tmp_path, body):
    path = tmp_path / "exp.ini"
    path.write_text(textwrap.dedent(body))
    return path


def write_spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SPEC_JSON))
    return path


def synthetic_config(tmp_path, extra=""):
    write_spec(tmp_path)
    return write_config(
        tmp_path,
        """\
        [data]
        synthetic = spec.json

        [graph]
        degree = 2

        [optimizer]
        algorithm = all
        eta = 0.05
        alpha = 0.1
        max_iterations = 40

        [grid]
        alphas = 0.1, 1.0
        etas = 0.05, 0.01
        degrees = 2, 3
        """
        + extra,
    )


class TestGridSpec:
    def test_defaults(self):
        g = GridSpec()
        assert g.alphas == (1.0, 0.5, 0.1)
        assert g.etas == (0.1, 0.01, 0.001)
        assert g.degrees == (1, 2, 3, 4)
        assert len(g.algorithms) == 3

    def test_validation(self):
        with pytest.raises(ParameterError):
            GridSpec(alphas=())
        for alpha in (-0.1, math.nan, math.inf):
            with pytest.raises(ParameterError):
                GridSpec(alphas=(alpha,))
        for eta in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                GridSpec(etas=(eta,))
        with pytest.raises(ParameterError):
            GridSpec(degrees=(0,))
        with pytest.raises(ParameterError):
            GridSpec(degrees=(1.5,))

    def test_fedavg2_eta_whose_pull_overflows_rejected(self):
        etas = (0.1, 1e-309)
        with pytest.raises(ParameterError, match=r"^fedavg2 eta must be large enough that 2/eta is finite, got 1e-309$"):
            GridSpec(etas=etas)
        assert GridSpec(etas=etas, algorithms=("fedsgd", "fedavg1")).etas == etas
        assert GridSpec(etas=(1.2e-308,)).etas == (1.2e-308,)

    @pytest.mark.parametrize(
        "axis, values, shown",
        [
            ("alphas", (0.1, 1.0, 0.1), "0.1, 1.0, 0.1"),
            ("alphas", (0.0, -0.0), "0.0, -0.0"),
            ("etas", (0.1, 0.1), "0.1, 0.1"),
            ("degrees", (2, 2.0), "2, 2"),
            ("algorithms", ("fedsgd", Algorithm.FEDSGD), "fedsgd, fedsgd"),
        ],
    )
    def test_repeated_axis_value_rejected(self, axis, values, shown):
        with pytest.raises(ParameterError) as excinfo:
            GridSpec(**{axis: values})
        assert str(excinfo.value) == f"{axis} must not repeat a value, got {shown}"


class TestEvaluate:
    def test_overflowing_weights_score_inf_without_warning(self):
        # the suite turns every RuntimeWarning into an error
        block = evaluate(np.full((4, 3), 1e200), cluster_datasets()).blocks[0]
        assert block.train_mse == block.val_mse == block.test_mse == (math.inf,) * 4
        assert block.mean_test == math.inf

    def test_mean_past_the_float_range_reads_inf_without_warning(self):
        # finite per-node scores whose sum overflows; the suite turns every RuntimeWarning into an error
        block = AlgorithmMetrics("fedavg1", (1, 2), (1e308, 1e308), (1.0, 1.0), (1.0, 1.0), {})
        assert block.mean_train == math.inf
        assert block.to_dict()["mean"] == {"train": None, "val": 1.0, "test": 1.0}
        assert MetricsReport([block]).to_text().splitlines()[-1].split() == ["mean", "inf", "1.000000", "1.000000"]

    def test_zero_weights_score_label_second_moment(self):
        datasets = cluster_datasets()
        report = evaluate(np.zeros((4, 3)), datasets)
        block = report.blocks[0]
        for i, ds in enumerate(datasets):
            y = ds.train[1]
            assert block.train_mse[i] == pytest.approx(float(np.mean(y**2)), rel=1e-12)

    def test_means_are_arithmetic(self):
        datasets = cluster_datasets()
        rng = np.random.default_rng(0)
        block = evaluate(rng.standard_normal((4, 3)), datasets).blocks[0]
        assert block.mean_train == pytest.approx(np.mean(block.train_mse), abs=1e-12)
        assert block.mean_val == pytest.approx(np.mean(block.val_mse), abs=1e-12)
        assert block.mean_test == pytest.approx(np.mean(block.test_mse), abs=1e-12)

    def test_perfect_fit_scores_near_zero(self):
        datasets = generate_synthetic(
            SyntheticSpec(
                node_count=2,
                rows_per_node=(30, 30),
                feature_dim=3,
                cluster_assignment=(0, 0),
                cluster_weights=((1.0, 2.0, -0.5),),
                seed=5,
            )
        )
        W = np.array([least_squares_fit(*ds.train) for ds in datasets])
        block = evaluate(W, datasets).blocks[0]
        for seq in (block.train_mse, block.val_mse, block.test_mse):
            assert all(v < 1e-6 for v in seq)

    def test_empty_split_scores_nan(self):
        X = np.hstack([np.arange(5.0).reshape(-1, 1), np.ones((5, 1))])
        ds = LocalDataset(
            node_id=1,
            train=(X, np.arange(5.0)),
            val=(np.zeros((0, 2)), np.zeros(0)),
            test=(X[:1], np.arange(1.0)),
            numeric_columns=np.array([0]),
        )
        block = evaluate(np.zeros((1, 2)), [ds]).blocks[0]
        assert np.isnan(block.val_mse[0])
        assert not np.isnan(block.test_mse[0])

    def test_report_text_and_dict(self):
        datasets = cluster_datasets()
        report = evaluate(
            np.zeros((4, 3)), datasets, "fedsgd", {"alpha": 0.1, "eta": 0.05, "degree": 2}
        )
        text = report.to_text()
        assert text.startswith("== fedsgd (alpha=0.1, eta=0.05, degree=2) ==")
        assert text.count("\n") == 7  # header + column row + 4 nodes + mean
        d = report.to_dict()
        assert d["algorithms"][0]["mean"]["train"] == report.blocks[0].mean_train
        assert d["algorithms"][0]["node_ids"] == [1, 2, 3, 4]

    def test_report_header_keeps_values_g_would_round(self):
        hyperparameters = {"alpha": 1e-05, "eta": 0.1000001, "degree": 2}
        text = evaluate(np.zeros((4, 3)), cluster_datasets(), "fedsgd", hyperparameters).to_text()
        assert text.startswith("== fedsgd (alpha=1e-05, eta=0.1000001, degree=2) ==\n")

    def test_wrong_stack_shape(self):
        with pytest.raises(ParameterError):
            evaluate(np.zeros((2, 3)), cluster_datasets())


class TestSelectBest:
    def test_tie_break_order(self):
        cells = [
            GridCell("fedsgd", eta=0.1, alpha=0.5, degree=2, val_mse=1.0),
            GridCell("fedsgd", eta=0.01, alpha=1.0, degree=3, val_mse=1.0),
            GridCell("fedsgd", eta=0.01, alpha=0.5, degree=3, val_mse=1.0),
            GridCell("fedsgd", eta=0.01, alpha=0.5, degree=2, val_mse=1.0),
        ]
        best = select_best(cells)
        assert (best.eta, best.alpha, best.degree) == (0.01, 0.5, 2)

    def test_lowest_score_wins_regardless_of_order(self):
        cells = [
            GridCell("fedavg1", eta=0.1, val_mse=2.0),
            GridCell("fedavg1", eta=0.01, val_mse=1.5),
            GridCell("fedavg1", eta=0.001, val_mse=3.0),
        ]
        assert select_best(cells).eta == 0.01

    def test_skipped_cells_ignored(self):
        cells = [
            GridCell("fedsgd", eta=0.1, alpha=0.1, degree=1, connected=False, val_mse=None),
            GridCell("fedsgd", eta=0.1, alpha=0.1, degree=2, val_mse=9.0),
        ]
        assert select_best(cells).degree == 2

    def test_no_feasible_config(self):
        cells = [
            GridCell("fedsgd", eta=0.1, alpha=0.1, degree=1, connected=False, val_mse=None)
        ]
        message = r"^no grid candidate has a finite validation MSE \(every run diverged\)$"
        with pytest.raises(DivergenceError, match=message):
            select_best(cells)
        cells += [
            GridCell("fedsgd", eta=0.1, alpha=0.1, degree=2, val_mse=float("nan")),
            GridCell("fedsgd", eta=0.01, alpha=0.1, degree=2, val_mse=float("inf")),
        ]
        with pytest.raises(DivergenceError, match=message):
            select_best(cells)

    def test_non_finite_cells_never_selected(self):
        for bad in (float("nan"), float("inf")):
            cells = [
                GridCell("fedavg1", eta=0.1, val_mse=bad),
                GridCell("fedavg1", eta=0.01, val_mse=2.0),
            ]
            assert select_best(cells).eta == 0.01
            assert select_best(cells[::-1]).eta == 0.01


def record_stacked_cells(monkeypatch):
    """Record (graph, config, W, trace) for every cell the grid trains."""
    runs = []
    real = experiment_harness.train_cells

    def recording(datasets, graphs, configs):
        W, traces = real(datasets, graphs, configs)
        runs.extend(zip(graphs, configs, W, traces))
        return W, traces

    monkeypatch.setattr(experiment_harness, "train_cells", recording)
    return runs


def assert_same_trace(trace, solo):
    assert trace.rounds == solo.rounds
    assert np.array_equal(trace.objective, solo.objective, equal_nan=True)
    assert len(trace.node_losses) == len(solo.node_losses)
    for a, b in zip(trace.node_losses, solo.node_losses):
        assert np.array_equal(a, b, equal_nan=True)


def assert_cells_match_solo(datasets, cells, best, runs):
    """Every stacked cell is bitwise its solo train(); cells and winners are what solo runs give.

    Returns each trained cell's solo ``(W, trace)``, keyed by (algorithm, eta, alpha, degree).
    """
    solo_val, solo_fits = {}, {}
    for graph, config, W, trace in runs:
        with np.errstate(over="ignore", invalid="ignore"):  # the solo reference of a diverging cell
            W_solo, solo = train(datasets, graph, config)
            solo_val_mse = evaluate(W_solo, datasets).blocks[0].mean_val
        assert np.array_equal(W, W_solo, equal_nan=True)
        assert_same_trace(trace, solo)
        fedsgd = config.algorithm is Algorithm.FEDSGD
        key = (
            config.algorithm.value,
            config.eta,
            config.alpha if fedsgd else None,
            graph.min_degree if fedsgd else None,
        )
        solo_val[key] = solo_val_mse
        solo_fits[key] = W_solo, solo
    expected = [replace(c, val_mse=solo_val[c.algorithm, c.eta, c.alpha, c.degree]) for c in cells]
    assert len(solo_val) == len(cells)
    assert repr(cells) == repr(expected)  # repr keeps NaN cells comparable
    for name in best:
        assert best[name] == select_best([c for c in expected if c.algorithm == name])
    return solo_fits


class TestRunGridSearch:
    def test_stacked_cells_match_solo_training(self, monkeypatch):
        datasets = cluster_datasets()
        assert all(ds.train[0].shape[0] > 5 for ds in datasets)  # true mini-batches
        runs = record_stacked_cells(monkeypatch)
        grid = GridSpec(alphas=(0.1, 1.0), etas=(0.05, 0.01), degrees=(1, 2, 3))
        result = run_grid_search(datasets, grid, batch_size=5, max_iterations=30, trace_every=7)
        connected = {c.degree for c in result.cells if c.algorithm == "fedsgd" and c.connected}
        assert connected == {2, 3}
        assert len(runs) == 2 * 2 * 3 + 2 + 2  # the disconnected d = 1 cells train too
        solo = assert_cells_match_solo(datasets, result.cells, result.best, runs)
        # each cell is one record: a winner keeps what it trained, a loser its weights
        for cell in result.cells:
            W_solo, trace_solo = solo[cell.algorithm, cell.eta, cell.alpha, cell.degree]
            assert np.array_equal(cell.weights, W_solo)
            if cell is result.best[cell.algorithm]:
                assert_same_trace(cell.trace, trace_solo)
            else:
                assert cell.trace is None
        for winner in result.best.values():
            assert any(winner is cell for cell in result.cells)

    def test_losing_cells_scored_only_on_val(self, monkeypatch):
        # the search reads only its winners' traces, so a losing cell's trace
        # is never scored: the rows scored on training splits, once every
        # winner's trace is read, are each winner's trace points times n
        datasets = generate_synthetic(
            SyntheticSpec(
                node_count=5,
                rows_per_node=(200,) * 5,
                feature_dim=3,
                cluster_assignment=(0, 0, 1, 1, 1),
                cluster_weights=((2.0, -1.0, 0.5), (-2.0, 1.0, -0.5)),
                noise_std=0.5,
                seed=3,
            )
        )
        train_features = {id(ds.train[0]) for ds in datasets}
        scored = []
        real = fed_optimizers._mse_rows

        def counting(X, y, W):
            if id(X) in train_features:
                scored.append(len(W))
            return real(X, y, W)

        monkeypatch.setattr(fed_optimizers, "_mse_rows", counting)
        grid = GridSpec(alphas=(0.1, 1.0), etas=(0.05, 0.01, 0.02), degrees=(2,))
        result = run_grid_search(datasets, grid, max_iterations=30, trace_every=10)
        cells = [sum(c.algorithm == name and c.connected for c in result.cells) for name in result.best]
        assert cells == [6, 3, 3]
        assert scored == []
        for cell in result.cells:
            if cell.trace is not None:
                assert len(cell.trace.rounds) == 3 and len(cell.trace.objective) == 3
        assert sum(scored) == len(result.best) * 3 * 5

    def test_cell_accounting_and_disconnected_recording(self):
        datasets = cluster_datasets()
        grid = GridSpec(alphas=(0.1, 1.0), etas=(0.05, 0.01), degrees=(1, 2))
        result = run_grid_search(datasets, grid, max_iterations=30)
        fed = [c for c in result.cells if c.algorithm == "fedsgd"]
        assert len(fed) == 2 * 2 * 2
        # d=1 on two tight clusters of two gives two disjoint pairs, which train as the others do
        disconnected = [c for c in fed if not c.connected]
        assert {c.degree for c in disconnected} == {1} and len(disconnected) == 2 * 2
        assert all(c.weights.shape == (4, 3) and math.isfinite(c.val_mse) for c in disconnected)
        for name in ("fedavg1", "fedavg2"):
            assert sum(c.algorithm == name for c in result.cells) == 2
        assert set(result.best) == {"fedsgd", "fedavg1", "fedavg2"}
        for name, cell in result.best.items():
            assert cell.weights.shape == (4, 3)
            assert cell.trace.rounds[-1] == 30
            assert evaluate(cell.weights, datasets).blocks[0].mean_val == cell.val_mse
            if name == "fedsgd":
                assert cell.graph.min_degree == cell.degree
            else:
                assert cell.graph is None

    def test_best_matches_manual_argmin(self):
        datasets = cluster_datasets()
        grid = GridSpec(alphas=(0.1,), etas=(0.05, 0.01), degrees=(2,))
        result = run_grid_search(datasets, grid, max_iterations=30)
        fed = [c for c in result.cells if c.algorithm == "fedsgd" and c.val_mse is not None]
        assert result.best["fedsgd"] == min(fed, key=lambda c: (c.val_mse, c.eta))

    def test_single_point_grid(self):
        datasets = cluster_datasets()
        grid = GridSpec(
            alphas=(0.1,), etas=(0.05,), degrees=(2,), algorithms=("fedsgd",)
        )
        result = run_grid_search(datasets, grid, max_iterations=10)
        assert len(result.cells) == 1
        assert result.best["fedsgd"] == result.cells[0]

    def test_all_disconnected_grid_trains_and_selects(self):
        datasets = cluster_datasets()
        grid = GridSpec(alphas=(0.1,), etas=(0.05, 0.01), degrees=(1,), algorithms=("fedsgd",))
        result = run_grid_search(datasets, grid, max_iterations=10)
        assert [c.connected for c in result.cells] == [False, False]
        assert result.best["fedsgd"] == select_best(result.cells)
        assert math.isfinite(result.best["fedsgd"].val_mse)

    def test_all_diverged_raises(self):
        # every cell diverges; the error names the one the tie-break ranks first, the d = 1 cell
        datasets = cluster_datasets()
        grid = GridSpec(alphas=(0.1,), etas=(5.0,), degrees=(1, 2), algorithms=("fedsgd",))
        message = r"^fedsgd \(alpha=0\.1, eta=5, degree=1\) diverged: round 150: node 1: non-finite training loss$"
        with pytest.raises(DivergenceError, match=message):
            run_grid_search(datasets, grid)  # 1,000 rounds at eta = 5 overflow every cell

    def test_val_mean_past_the_float_range_raises(self):
        # each node's one val label is 1.3e154, so each val MSE is a finite 1.69e308 and their
        # mean is inf: no node is named, while training stays finite
        ones = np.ones((3, 1))
        datasets = [
            LocalDataset(node, (ones, np.arange(3.0)), (ones[:1], np.array([1.3e154])), (ones[:1], np.zeros(1)), np.arange(0))
            for node in (1, 2)
        ]
        grid = GridSpec(etas=(0.1,), algorithms=("fedavg1",))
        with pytest.raises(DivergenceError, match=r"^fedavg1 \(eta=0\.1\): non-finite validation MSE$"):
            run_grid_search(datasets, grid, max_iterations=5)

    def test_degree_out_of_range(self, monkeypatch):
        # fedsgd listed after fedavg1: its degrees are checked against the 4 nodes before fedavg1 trains
        datasets = cluster_datasets()
        grid = GridSpec(alphas=(0.1,), etas=(0.05,), degrees=(1, 4), algorithms=("fedavg1", "fedsgd"))
        trained = []
        monkeypatch.setattr(experiment_harness, "train_cells", lambda *args: trained.append(args))
        with pytest.raises(ParameterError, match=r"^degree d=4 outside \[1, 3\]$"):
            run_grid_search(datasets, grid, max_iterations=10)
        assert trained == []

    def test_no_datasets(self):
        with pytest.raises(DegenerateInputError, match="no datasets to search over"):
            run_grid_search([])

    def test_averaging_only_grid_needs_no_graph(self):
        datasets = cluster_datasets()
        grid = GridSpec(etas=(0.05, 0.01), algorithms=("fedavg1",))
        result = run_grid_search(datasets, grid, max_iterations=10)
        assert len(result.cells) == 2
        assert all(cell.graph is None for cell in result.cells)


class TestLoadExperimentConfig:
    def test_full_config(self, tmp_path):
        path = write_config(
            tmp_path,
            """\
            [data]
            csv = rows.csv

            [preprocess]
            seed = 7
            condition_columns = asthma, depress

            [columns]
            rcount = readmissions

            [graph]
            degree = 3

            [optimizer]
            algorithm = fedsgd
            eta = 0.2
            alpha = 0.5
            batch_size = 64
            max_iterations = 500
            trace_every = 10

            [grid]
            alphas = 1.0, 0.5
            etas = 0.1
            degrees = 1, 2
            algorithms = fedavg1, fedavg2
            """,
        )
        cfg = load_experiment_config(path)
        assert cfg.data_path == tmp_path / "rows.csv"
        assert cfg.synthetic_path is None
        assert cfg.seed == 7
        assert cfg.condition_columns == ("asthma", "depress")
        assert cfg.columns == {"rcount": "readmissions"}
        assert cfg.degree == 3
        assert [a.value for a in cfg.algorithms] == ["fedsgd"]
        assert (cfg.eta, cfg.alpha, cfg.batch_size) == (0.2, 0.5, 64)
        assert (cfg.max_iterations, cfg.trace_every) == (500, 10)
        assert cfg.grid.alphas == (1.0, 0.5)
        assert cfg.grid.etas == (0.1,)
        assert cfg.grid.degrees == (1, 2)
        assert [a.value for a in cfg.grid.algorithms] == ["fedavg1", "fedavg2"]

    def test_defaults_for_minimal_config(self, tmp_path):
        cfg = load_experiment_config(write_config(tmp_path, "[data]\ncsv = x.csv\n"))
        assert cfg.seed == 42
        assert cfg.degree == 2
        assert cfg.eta == 0.1
        assert cfg.alpha == 0.1
        assert cfg.batch_size == 512
        assert cfg.max_iterations == 1000
        assert len(cfg.algorithms) == 3
        assert cfg.grid == GridSpec()

    def test_absolute_path_kept(self, tmp_path):
        cfg = load_experiment_config(
            write_config(tmp_path, "[data]\ncsv = /abs/rows.csv\n")
        )
        assert cfg.data_path == Path("/abs/rows.csv")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment_config(tmp_path / "absent.ini")

    def test_unreadable_file(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, "[optimizer]\neta = 0.1\n")

        def refused(self, *args, **kwargs):  # as the OS refuses a user without read permission
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "read_text", refused)
        with pytest.raises(ConfigError) as info:
            load_experiment_config(path)
        assert str(info.value) == f"{path}: Permission denied"

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ConfigError, match="section"):
            load_experiment_config(write_config(tmp_path, "[training]\neta = 1\n"))

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="momentum"):
            load_experiment_config(write_config(tmp_path, "[optimizer]\nmomentum = 0.9\n"))

    @pytest.mark.parametrize(
        "section, key", [entry for entry in experiment_harness._CONFIG_KEYS if entry[0] != "data"]
    )
    def test_bad_number(self, tmp_path, section, key):
        path = write_config(tmp_path, f"[{section}]\n{key} = {BAD_VALUES[section, key]}\n")
        with pytest.raises(ConfigError) as info:
            load_experiment_config(path)
        assert str(info.value).startswith(f"[{section}] {key}:")

    def test_readme_example_config(self, tmp_path):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```ini\n(.*?)```", readme, re.DOTALL).group(1)
        cfg = load_experiment_config(write_config(tmp_path, block))
        assert (cfg.seed, cfg.degree, cfg.eta, cfg.alpha) == (42, 2, 0.1, 0.1)
        assert cfg.condition_columns == CsvSchema().condition_columns
        parser = configparser.ConfigParser()
        parser.read_string(block)
        documented = {(s, k) for s in parser.sections() if s != "columns" for k in parser[s]}
        assert documented == set(experiment_harness._CONFIG_KEYS)

    def test_bad_algorithm(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment_config(write_config(tmp_path, "[optimizer]\nalgorithm = sgd\n"))

    def test_repeated_optimizer_algorithm(self, tmp_path):
        cfg = write_config(tmp_path, "[optimizer]\nalgorithm = fedavg1, fedsgd, fedavg1\n")
        with pytest.raises(ConfigError) as excinfo:
            load_experiment_config(cfg)
        assert str(excinfo.value) == "[optimizer] algorithm: must not repeat a value, got fedavg1, fedsgd, fedavg1"

    def test_unknown_logical_column(self, tmp_path):
        with pytest.raises(ConfigError, match="heartrate"):
            load_experiment_config(write_config(tmp_path, "[columns]\nheartrate = hr\n"))

    def test_bad_grid_values(self, tmp_path):
        with pytest.raises(ConfigError):
            load_experiment_config(write_config(tmp_path, "[grid]\netas = 0.0\n"))

    @pytest.mark.parametrize(
        "body, prefix",
        [
            ("[data]\ncsv = a%b.csv\n", "[data] csv:"),
            ("[optimizer]\neta = 0.1%\n", "[optimizer] eta:"),
            ("[grid]\netas = %(missing)s\n", "[grid] etas:"),
            ("[columns]\nrcount = read%s\n", "[columns] rcount:"),
        ],
        ids=["data_path", "number", "missing_reference", "columns"],
    )
    def test_interpolation_error_names_key(self, tmp_path, body, prefix):
        with pytest.raises(ConfigError) as info:
            load_experiment_config(write_config(tmp_path, body))
        assert str(info.value).startswith(prefix)

    def test_doubled_percent_is_a_percent(self, tmp_path):
        cfg = load_experiment_config(
            write_config(tmp_path, "[data]\ncsv = a%%b.csv\n[columns]\nrcount = r%%\n")
        )
        assert cfg.data_path == tmp_path / "a%b.csv"
        assert cfg.columns == {"rcount": "r%"}


class TestLoadSyntheticSpec:
    def test_roundtrip(self, tmp_path):
        spec = load_synthetic_spec(write_spec(tmp_path))
        assert spec.node_count == 4
        assert spec.rows_per_node == (24, 24, 24, 24)
        assert spec.cluster_weights == ((2.0, -1.0, 0.5), (-2.0, 1.0, -0.5))
        assert spec.seed == 3

    def test_unknown_key(self, tmp_path):
        bad = dict(SPEC_JSON, extra=1)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(SchemaError, match="extra"):
            load_synthetic_spec(p)

    def test_missing_key(self, tmp_path):
        bad = {k: v for k, v in SPEC_JSON.items() if k != "cluster_weights"}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(bad))
        with pytest.raises(SchemaError, match="cluster_weights"):
            load_synthetic_spec(p)

    def test_non_object(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(SchemaError):
            load_synthetic_spec(p)

    def test_integer_values_accepted_as_floats(self, tmp_path):
        p = tmp_path / "ints.json"
        p.write_text(json.dumps(dict(SPEC_JSON, noise_std=0, cluster_weights=[[2, -1, 0], [-2, 1, 0]])))
        spec = load_synthetic_spec(p)
        assert spec.noise_std == 0 and spec.cluster_weights == ((2, -1, 0), (-2, 1, 0))


class TestRunExperiment:
    @pytest.mark.parametrize("mode", ["run", "grid"])
    def test_report_reads_the_record_and_scores_test_once(self, tmp_path, monkeypatch, mode):
        # train and val come from training; the report scores the test split in one call for every cell
        split_parts, losses, metrics = experiment_harness._split_parts, experiment_harness._losses, experiment_harness._metrics
        splits, scored, blocks = {}, [], []

        def tagged_split_parts(datasets, split, W):
            parts = split_parts(datasets, split, W)
            splits[id(parts)] = split
            return parts

        def counted_losses(parts, W):
            scored.append((splits[id(parts)], W.shape[0]))
            return losses(parts, W)

        def recorded_metrics(cell, test, datasets):
            blocks.append((cell, datasets, metrics(cell, test, datasets)))
            return blocks[-1][-1]

        def no_evaluate(*args, **kwargs):
            raise AssertionError("the report scored a split again")

        monkeypatch.setattr(experiment_harness, "_split_parts", tagged_split_parts)
        monkeypatch.setattr(experiment_harness, "_losses", counted_losses)
        monkeypatch.setattr(experiment_harness, "_metrics", recorded_metrics)
        monkeypatch.setattr(experiment_harness, "evaluate", no_evaluate)
        result = run_experiment(synthetic_config(tmp_path), tmp_path / "out", mode=mode)
        cells = (1, 1, 1) if mode == "run" else (8, 2, 2)  # fedsgd's 2 x 2 x 2 grid is connected
        assert scored == [("val", c) for c in cells] + [("test", 3)]
        monkeypatch.undo()
        for (cell, datasets, block), reported in zip(blocks, result["report"].blocks, strict=True):
            assert reported == block == evaluate(cell.weights, datasets, cell.algorithm, block.hyperparameters).blocks[0]
        assert [block.algorithm for block in result["report"].blocks] == ["fedsgd", "fedavg1", "fedavg2"]

    def test_run_mode_artifacts(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        result = run_experiment(cfg, out, mode="run")
        on_disk = sorted(p.name for p in out.iterdir())
        assert on_disk == [
            "graph.edges",
            "manifest.json",
            "metrics.json",
            "metrics.txt",
            "trace.csv",
        ]
        assert sorted(result["artifacts"]) == on_disk
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "run"
        assert manifest["source"]["type"] == "synthetic"
        assert manifest["source"]["nodes"] == 4
        assert manifest["graph"]["connected"] is True
        metrics = json.loads((out / "metrics.json").read_text())
        assert [b["algorithm"] for b in metrics["algorithms"]] == [
            "fedsgd",
            "fedavg1",
            "fedavg2",
        ]
        for b in metrics["algorithms"]:
            assert b["mean"]["val"] == pytest.approx(np.mean(b["val_mse"]), abs=1e-12)
        trace = (out / "trace.csv").read_text().strip().split("\n")
        assert trace[0] == "algorithm,round,objective," + ",".join(
            f"train_mse_node{i}" for i in (1, 2, 3, 4)
        )
        assert len(trace) == 1 + 3  # 40 rounds at trace_every=50 logs only round 40

    def test_single_algorithm_skips_graph(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        run_experiment(cfg, out, mode="run", algorithm="fedavg1")
        assert not (out / "graph.edges").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert [b["algorithm"] for b in metrics["algorithms"]] == ["fedavg1"]

    def test_grid_mode_records_cells_and_winners(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        result = run_experiment(cfg, out, mode="grid")
        lines = (out / "grid.csv").read_text().strip().split("\n")
        assert lines[0] == "algorithm,alpha,eta,degree,connected,val_mse"
        assert len(lines) == 1 + (2 * 2 * 2 + 2 + 2)
        manifest = result["manifest"]
        assert set(manifest["selected"]) == {"fedsgd", "fedavg1", "fedavg2"}
        assert manifest["selected"]["fedsgd"]["connected"] is True
        report = result["report"]
        assert [b.algorithm for b in report.blocks] == ["fedsgd", "fedavg1", "fedavg2"]

    def test_grid_csv_tells_apart_etas_g_would_round(self, tmp_path):
        # :g prints both etas as 0.1, so two cells per algorithm read the same; the winner, 0.09999999, matched no row
        write_spec(tmp_path)
        cfg = write_config(
            tmp_path,
            "[data]\nsynthetic = spec.json\n\n[optimizer]\nmax_iterations = 40\n\n"
            "[grid]\netas = 0.09999999, 0.1\nalphas = 0.5\ndegrees = 2\nalgorithms = fedsgd, fedavg1\n",
        )
        out = tmp_path / "out"
        result = run_experiment(cfg, out, mode="grid")
        rows = [line.split(",") for line in (out / "grid.csv").read_text().splitlines()[1:]]
        assert [(row[0], row[1], row[2]) for row in rows] == [
            ("fedsgd", "0.5", "0.09999999"), ("fedsgd", "0.5", "0.1"), ("fedavg1", "", "0.09999999"), ("fedavg1", "", "0.1"),
        ]
        headers = [line for line in (out / "metrics.txt").read_text().splitlines() if line.startswith("== ")]
        for name, selected in result["manifest"]["selected"].items():
            assert selected["eta"] == 0.09999999
            [row] = [row for row in rows if row[0] == name and float(row[2]) == selected["eta"]]
            assert float(row[-1]) == selected["val_mse"]
            [header] = [h for h in headers if h.startswith(f"== {name} (")]
            assert f"eta={row[2]}" in header

    def test_grid_mode_trains_each_cell_once(self, tmp_path, monkeypatch):
        calls = []

        def counting_train_cells(datasets, graphs, configs):
            calls.append(
                [(c, None if g is None else g.min_degree) for g, c in zip(graphs, configs)]
            )
            return real_train_cells(datasets, graphs, configs)

        def no_retrain(*args, **kwargs):
            raise AssertionError("grid mode retrained a cell")

        real_train_cells = experiment_harness.train_cells
        monkeypatch.setattr(experiment_harness, "train_cells", counting_train_cells)
        monkeypatch.setattr(experiment_harness, "train", no_retrain)
        result = run_experiment(synthetic_config(tmp_path), tmp_path / "out", mode="grid")
        trained_cells = [
            row for row in (tmp_path / "out" / "grid.csv").read_text().split("\n")[1:]
            if row and not row.endswith(",")
        ]
        # one stacked call per algorithm, and every trained cell in exactly one of them
        assert [{c.algorithm for c, _ in call} for call in calls] == [
            {Algorithm.FEDSGD}, {Algorithm.FEDAVG1}, {Algorithm.FEDAVG2}
        ]
        cells = [cell for call in calls for cell in call]
        assert len(cells) == len(set(cells)) == len(trained_cells)
        selected = result["manifest"]["selected"]
        for block in result["report"].blocks:
            assert block.mean_val == selected[block.algorithm]["val_mse"]

    def test_graph_mode_only_exports_graph(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        result = run_experiment(cfg, out, mode="graph")
        assert sorted(p.name for p in out.iterdir()) == ["graph.edges", "manifest.json"]
        assert result["report"] is None
        edges = (out / "graph.edges").read_text().strip().split("\n")
        assert all(len(line.split()) == 3 for line in edges)

    def test_dump_data(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        run_experiment(cfg, out, mode="run", algorithm="fedavg1", dump_data=True)
        assert (out / "preprocessed" / "node1_train.csv").exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        run_experiment(cfg, tmp_path / "a", mode="run")
        run_experiment(cfg, tmp_path / "b", mode="run")
        for name in ("metrics.txt", "metrics.json", "trace.csv", "manifest.json", "graph.edges"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_csv_source(self, tmp_path):
        spec = write_config(
            tmp_path,
            f"""\
            [data]
            csv = {FIXTURE}

            [optimizer]
            algorithm = fedavg1
            eta = 0.01
            max_iterations = 20
            """,
        )
        result = run_experiment(spec, tmp_path / "out", mode="run")
        manifest = result["manifest"]
        assert manifest["source"]["type"] == "csv"
        assert manifest["source"]["dropped_rows"] == 1
        assert manifest["source"]["node_labels"] == ["A", "B"]
        assert manifest["source"]["rows_per_node"] == [5, 4]

    def test_both_sources_rejected(self, tmp_path):
        write_spec(tmp_path)
        cfg = write_config(
            tmp_path,
            """\
            [data]
            csv = rows.csv
            synthetic = spec.json
            """,
        )
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path / "out", mode="run")
        with pytest.raises(ConfigError, match="pass at most one of --data and --synthetic"):
            run_experiment(cfg, tmp_path / "out", data=FIXTURE, synthetic=tmp_path / "spec.json")
        assert not (tmp_path / "out").exists()

    def test_unknown_mode_rejected(self, tmp_path):
        with pytest.raises(ParameterError, match="unknown mode 'train'"):
            run_experiment(synthetic_config(tmp_path), tmp_path / "out", mode="train")

    @pytest.mark.parametrize(
        "algorithm, params, k", [("fedsgd", "alpha=0.1, eta=5, degree=2", 150), ("fedavg1", "eta=5", 200)], ids=["fedsgd", "fedavg1"]
    )
    def test_diverged_run_raises(self, tmp_path, algorithm, params, k):
        # no RuntimeWarning escapes: pytest would turn it into an error
        out = tmp_path / "out"
        message = re.escape(f"{algorithm} ({params}) diverged: round {k}: node 1: non-finite training loss")
        with pytest.raises(DivergenceError, match=f"^{message}$"):
            run_experiment(diverging_config(tmp_path), out, mode="run", algorithm=algorithm)
        assert not out.exists()
        run_experiment(diverging_config(tmp_path), out, mode="run", algorithm="fedavg2")  # the proximal step stays finite
        metrics = (out / "metrics.json").read_text()
        assert "NaN" not in metrics and "Infinity" not in metrics

    @pytest.mark.parametrize("degree", [1, 2])
    def test_run_matches_one_point_grid(self, tmp_path, degree):
        # run is the one-cell case of the grid's per-algorithm step, also on the disconnected d = 1 graph
        write_spec(tmp_path)
        cfg = write_config(
            tmp_path,
            f"""\
            [data]
            synthetic = spec.json

            [graph]
            degree = {degree}

            [optimizer]
            eta = 0.05
            alpha = 0.1
            max_iterations = 40

            [grid]
            etas = 0.05
            alphas = 0.1
            degrees = {degree}
            """,
        )
        run_experiment(cfg, tmp_path / "run", mode="run")
        run_experiment(cfg, tmp_path / "grid", mode="grid")
        for name in ("metrics.json", "metrics.txt", "trace.csv", "graph.edges"):
            assert (tmp_path / "run" / name).read_bytes() == (tmp_path / "grid" / name).read_bytes(), name

    def test_run_trains_fedsgd_on_disconnected_graph(self, tmp_path):
        # d = 1 splits the two clusters of two, and run still trains fedsgd
        write_spec(tmp_path)
        body = "[data]\nsynthetic = spec.json\n\n[graph]\ndegree = 1\n\n[optimizer]\neta = 0.05\nmax_iterations = 40\n"
        result = run_experiment(write_config(tmp_path, body), tmp_path / "out", mode="run")
        assert result["manifest"]["graph"]["connected"] is False
        assert [b.algorithm for b in result["report"].blocks] == ["fedsgd", "fedavg1", "fedavg2"]

    def test_no_source_rejected(self, tmp_path):
        cfg = write_config(tmp_path, "[optimizer]\neta = 0.1\n")
        with pytest.raises(ConfigError):
            run_experiment(cfg, tmp_path / "out", mode="run")

    def test_diverging_cell_stays_isolated(self, tmp_path, monkeypatch):
        write_spec(tmp_path)
        cfg = write_config(
            tmp_path,
            """\
            [data]
            synthetic = spec.json

            [optimizer]
            batch_size = 5
            max_iterations = 40
            trace_every = 10

            [grid]
            alphas = 0.1, 1.0
            etas = 0.05, 1e9, 0.01
            degrees = 2, 3
            algorithms = fedsgd, fedavg1
            """,
        )
        runs = record_stacked_cells(monkeypatch)
        result = run_experiment(cfg, tmp_path / "out", mode="grid")
        rows = (tmp_path / "out" / "grid.csv").read_text().strip().split("\n")[1:]
        diverged = [row for row in rows if ",1e+09," in row]
        assert len(diverged) == 2 * 2 + 1
        assert all(row.rsplit(",", 1)[1] in ("nan", "inf") for row in diverged)
        assert all(cell["eta"] != 1e9 for cell in result["manifest"]["selected"].values())
        datasets = generate_synthetic(load_synthetic_spec(tmp_path / "spec.json"))
        cells = [
            GridCell(algo, float(eta), float(alpha) if alpha else None,
                     int(degree) if degree else None, connected == "1", float(val) if val else None)
            for algo, alpha, eta, degree, connected, val in (row.split(",") for row in rows)
        ]
        best = {name: GridCell(**cell) for name, cell in result["manifest"]["selected"].items()}
        assert_cells_match_solo(datasets, cells, best, runs)

    def test_failed_move_keeps_earlier_manifest(self, tmp_path, monkeypatch):
        # manifest.json moves last, so a failed move never leaves it naming files that did not move
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        run_experiment(cfg, out, mode="run", algorithm="fedavg1")
        before = (out / "manifest.json").read_bytes()
        move = Path.replace

        def failing_move(self, target):
            if Path(target).name == "metrics.json":
                raise PermissionError("metrics.json is locked")
            return move(self, target)

        monkeypatch.setattr(Path, "replace", failing_move)
        with pytest.raises(PermissionError, match="locked"):
            run_experiment(cfg, out, mode="run", algorithm="fedavg2")
        assert (out / "manifest.json").read_bytes() == before

    def test_failed_write_leaves_out_dir_untouched(self, tmp_path, monkeypatch):
        def failing_export(graph, path):
            raise OSError("disk full")

        monkeypatch.setattr(experiment_harness, "export_edge_list", failing_export)
        out = tmp_path / "runs" / "out"
        out.mkdir(parents=True)
        (out / "keep.txt").write_text("earlier run")
        with pytest.raises(OSError, match="disk full"):
            run_experiment(synthetic_config(tmp_path), out, mode="run", dump_data=True)
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert [p.name for p in out.parent.iterdir()] == ["out"]  # staging removed

    @pytest.fixture
    def locked_manifest(self, monkeypatch):
        """Every commit fails at its last move, manifest.json's, after graph.edges has moved."""
        move = Path.replace

        def failing_move(self, target):
            if Path(target).name == "manifest.json":
                raise PermissionError("manifest.json is locked")
            return move(self, target)

        monkeypatch.setattr(Path, "replace", failing_move)

    def test_failed_commit_removes_the_out_dir_it_created(self, tmp_path, locked_manifest):
        with pytest.raises(PermissionError, match="locked"):
            run_experiment(synthetic_config(tmp_path), tmp_path / "runs" / "out", mode="graph")
        assert not (tmp_path / "runs").exists()  # nor the parent that mkdir made for it

    def test_failed_commit_keeps_the_parent_that_existed(self, tmp_path, locked_manifest):
        (tmp_path / "runs").mkdir()
        (tmp_path / "runs" / "keep.txt").write_text("earlier run")
        with pytest.raises(PermissionError, match="locked"):
            run_experiment(synthetic_config(tmp_path), tmp_path / "runs" / "new" / "out", mode="graph")
        assert [p.name for p in (tmp_path / "runs").iterdir()] == ["keep.txt"]

    @pytest.mark.parametrize("dump_data", [False, True])
    @pytest.mark.parametrize("mode", ["run", "grid", "graph"])
    def test_manifest_lists_every_file_written(self, tmp_path, mode, dump_data):
        out = tmp_path / "out"
        result = run_experiment(synthetic_config(tmp_path), out, mode=mode, dump_data=dump_data)
        files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
        assert json.loads((out / "manifest.json").read_text())["artifacts"] == result["artifacts"] == files
        assert ("preprocessed/node4_test.csv" in files) == dump_data

    def test_rerun_deletes_stale_artifacts(self, tmp_path, monkeypatch):
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        run_experiment(cfg, out, mode="grid", algorithm="fedavg1", dump_data=True)
        (out / "keep.txt").write_text("not listed by any manifest")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

        def failing_export(graph, path):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr(experiment_harness, "export_edge_list", failing_export)
            with pytest.raises(OSError, match="disk full"):
                run_experiment(cfg, out, mode="graph")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before  # a failed run deletes nothing
        run_experiment(cfg, out, mode="graph")
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("*")) == ["graph.edges", "keep.txt", "manifest.json"]

    @pytest.mark.parametrize(
        "old_manifest, listed_deleted",
        [
            ({"artifacts": ["../outside.txt", "metrics.txt"]}, True),
            ({"artifacts": ["OUTSIDE", "metrics.txt"]}, True),
            ({"artifacts": "metrics.txt"}, False),
            ({"artifacts": ["metrics.txt", 1]}, False),
            (["metrics.txt"], False),
            ("{not json", False),
        ],
        ids=["parent_name", "absolute_name", "names_not_a_list", "name_not_a_string", "not_an_object", "not_json"],
    )
    def test_stale_deletion_stays_inside_out(self, tmp_path, old_manifest, listed_deleted):
        outside = tmp_path / "outside.txt"
        outside.write_text("outside out")
        out = tmp_path / "out"
        out.mkdir()
        (out / "metrics.txt").write_text("earlier run")
        text = old_manifest if isinstance(old_manifest, str) else json.dumps(old_manifest)
        (out / "manifest.json").write_text(text.replace("OUTSIDE", outside.as_posix()))
        run_experiment(synthetic_config(tmp_path), out, mode="graph")
        assert outside.read_text() == "outside out"
        assert (out / "metrics.txt").exists() != listed_deleted

    def test_rerun_replaces_artifacts(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        run_experiment(cfg, out, mode="run", dump_data=True)
        first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        run_experiment(cfg, out, mode="run", dump_data=True)
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == first
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "out", "spec.json"]

    def test_failure_leaves_no_partial_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, "[data]\ncsv = missing.csv\n")
        out = tmp_path / "out"
        with pytest.raises(FileNotFoundError):
            run_experiment(cfg, out, mode="run")
        assert not out.exists()

    def test_grid_on_public_format_csv(self, tmp_path):
        # The public layout is rank 18 of 19 columns (the rcount slots sum to
        # the intercept), so pretraining must take the minimum-norm fit.
        los_inputs = load_perfbench_inputs()
        shape = los_inputs.LosShape(
            facility_rows=(("A", 300), ("B", 350), ("C", 400), ("D", 450), ("E", 500)),
            malformed_per_kind=1,
        )
        written = los_inputs.write_los(1, tmp_path / "in", shape)
        result = run_experiment(written.config, tmp_path / "out", mode="grid", algorithm="all")
        manifest = result["manifest"]
        assert manifest["source"]["dropped_rows"] == written.dropped == len(los_inputs.MALFORMED_KINDS)
        assert manifest["selected"]["fedsgd"]["connected"] is True
        blocks = result["report"].to_dict()["algorithms"]
        assert [b["algorithm"] for b in blocks] == ["fedsgd", "fedavg1", "fedavg2"]
        for b in blocks:
            values = b["train_mse"] + b["val_mse"] + b["test_mse"] + list(b["mean"].values())
            assert all(math.isfinite(v) for v in values), b


class TestCli:
    def run_cli(self, *args):
        return CliRunner().invoke(main, list(args))

    def test_version(self):
        result = self.run_cli("--version")
        assert result.exit_code == 0

    def test_run_command(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 0, result.output
        assert "== fedsgd" in result.output
        assert (out / "metrics.txt").exists()

    def test_grid_command(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        result = self.run_cli(
            "grid", "--config", str(cfg), "--out", str(out), "--algorithm", "fedavg1"
        )
        assert result.exit_code == 0, result.output
        lines = (out / "grid.csv").read_text().strip().split("\n")
        assert len(lines) == 3  # header + two etas

    def test_graph_command(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        result = self.run_cli("graph", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 0, result.output
        assert (out / "graph.edges").exists()

    def test_missing_config_exits_2(self, tmp_path):
        result = self.run_cli("run", "--config", str(tmp_path / "nope.ini"))
        assert result.exit_code == 2

    def test_bad_config_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "[optimizer]\neta = fast\n")
        result = self.run_cli("run", "--config", str(cfg))
        assert result.exit_code == 2
        cfg.write_text("eta = fast\n")  # no section header: the file does not parse
        result = self.run_cli("run", "--config", str(cfg))
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"config error: {cfg}: File contains no section headers.")

    @pytest.mark.parametrize(
        "body, args, message",
        [
            ("[preprocess]\nseed = -1\n", [], "[preprocess] seed: must be non-negative, got -1"),
            ("", ["--seed", "-1"], "--seed: must be non-negative, got -1"),
            ("[optimizer]\nalgorithm = fedavg2\neta = inf\n", [], "eta must be positive and finite"),
        ],
        ids=["negative_seed", "negative_seed_override", "fedavg2_infinite_eta"],
    )
    def test_out_of_range_setting_exits_2(self, tmp_path, body, args, message):
        cfg = write_config(tmp_path, f"[data]\ncsv = {FIXTURE}\n" + body)
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out), *args)
        assert result.exit_code == 2, result.output
        assert f"config error: {message}" in result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode, body, message",
        [
            (mode, f"{key} = 0", f"{key} must be >= 1, got 0")
            for mode in ("run", "grid") for key in ("batch_size", "max_iterations", "trace_every")
        ]
        + [("run", "eta = nan", "eta must be positive and finite, got nan"), ("run", "alpha = -1", "alpha must be non-negative and finite, got -1.0")]
        # [graph] degree in every mode, also where nothing uses it (an averaging-only run)
        + [(mode, f"[graph]\ndegree = {d}", f"[graph] degree: must be >= 1, got {d}") for mode in ("run", "grid", "graph") for d in (0, -1)]
        + [("run", "algorithm = fedavg1\n[graph]\ndegree = 0", "[graph] degree: must be >= 1, got 0")],
    )
    def test_out_of_range_setting_exits_2_before_any_data_loads(self, tmp_path, monkeypatch, mode, body, message):
        def no_load(cfg):
            raise AssertionError("data loaded before the settings were checked")

        monkeypatch.setattr(experiment_harness, "_load_datasets", no_load)
        write_spec(tmp_path)
        cfg = write_config(tmp_path, f"[data]\nsynthetic = spec.json\n\n[optimizer]\n{body}\n")
        out = tmp_path / "out"
        result = self.run_cli(mode, "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2, result.output
        assert result.stderr == f"config error: {message}\n"
        assert not out.exists()

    def test_missing_data_exits_3(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        result = self.run_cli(
            "run", "--config", str(cfg), "--data", str(tmp_path / "missing.csv")
        )
        assert result.exit_code == 3

    def test_data_path_under_a_file_exits_3(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        before = sorted(tmp_path.iterdir())
        data, out = cfg / "rows.csv", tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--data", str(data), "--out", str(out))
        assert result.exit_code == 3, result.output
        assert result.stderr == f"data error: [Errno 20] Not a directory: '{data}'\n"
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize(
        "key, value",
        [
            ("rows_per_node", 24),
            ("seed", "3"),
            ("feature_dim", None),
            ("node_count", [4]),
            ("rows_per_node", [[24], 24, 24, 24]),
            ("cluster_assignment", [[0], 0, 1, 1]),
            ("cluster_weights", [[[2.0], -1.0, 0.5], [-2.0, 1.0, -0.5]]),
            ("cluster_weights", [2.0, -1.0, 0.5]),
            ("noise_std", "0.1"),
            ("node_count", True),
            ("rows_per_node", [24, True, 24, 24]),
        ],
        ids=[
            "rows_scalar", "seed_string", "dim_null", "count_array", "rows_nested",
            "assignment_nested", "weights_too_deep", "weights_flat", "noise_string",
            "count_bool", "rows_holding_bool",
        ],
    )
    def test_wrong_typed_synthetic_spec_exits_3(self, tmp_path, key, value):
        cfg = synthetic_config(tmp_path)
        (tmp_path / "spec.json").write_text(json.dumps(dict(SPEC_JSON, **{key: value})))
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 3, result.output
        assert f"synthetic spec {key!r} must be" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("noise_std", math.nan),
            ("noise_std", math.inf),
            ("cluster_weights", [[2.0, math.nan, 0.5], [-2.0, 1.0, -0.5]]),
            ("cluster_weights", [[2.0, -1.0, 0.5], [-2.0, 1.0, -math.inf]]),
        ],
        ids=["noise_nan", "noise_infinity", "weight_nan", "weight_minus_infinity"],
    )
    def test_non_finite_synthetic_spec_exits_2(self, tmp_path, key, value):
        cfg = synthetic_config(tmp_path)
        # json writes the non-standard NaN / Infinity tokens, which json.load accepts
        (tmp_path / "spec.json").write_text(json.dumps(dict(SPEC_JSON, **{key: value})))
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2, result.output
        assert "config error:" in result.output and "finite" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    @pytest.mark.parametrize("algorithm", ["fedavg1", "fedavg2"])
    def test_wrong_feature_width_exits_4(self, tmp_path, monkeypatch, algorithm):
        def widened(spec):
            datasets = generate_synthetic(spec)
            X, y = datasets[1].train
            datasets[1] = replace(datasets[1], train=(np.hstack([X, X[:, :1]]), y))
            return datasets

        monkeypatch.setattr(experiment_harness, "generate_synthetic", widened)
        cfg = synthetic_config(tmp_path)
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out), "--algorithm", algorithm)
        assert result.exit_code == 4, result.output
        assert "training error: round 0: weight vector of shape (1, 3) does not match 4 feature columns" in result.output
        assert not out.exists()

    def test_percent_in_config_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "[data]\ncsv = a%b.csv\n")
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2, result.output
        assert "config error: [data] csv:" in result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_bad_synthetic_json_exits_3(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = self.run_cli("run", "--config", str(cfg), "--synthetic", str(bad))
        assert result.exit_code == 3

    def test_infeasible_grid_exits_4(self, tmp_path):
        # every cell diverges at eta = 5, on the disconnected d = 1 graph and the connected d = 2 one alike
        cfg = diverging_config(tmp_path, "[grid]\netas = 5.0\nalphas = 0.1\ndegrees = 1, 2\nalgorithms = fedsgd\n")
        out = tmp_path / "out"
        result = self.run_cli("grid", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 4
        assert result.stderr == (
            "training error: fedsgd (alpha=0.1, eta=5, degree=1) diverged: round 150: node 1: non-finite training loss\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("alphas", "0.1, 1.0, 0.1"), ("etas", "0.05, 0.05"), ("degrees", "2, 2"), ("algorithms", "fedsgd, fedavg1, fedsgd")],
    )
    def test_repeated_grid_value_exits_2(self, tmp_path, key, value):
        write_spec(tmp_path)
        grid = {"alphas": "0.1", "etas": "0.05", "degrees": "2", "algorithms": "fedsgd", key: value}
        body = "[data]\nsynthetic = spec.json\n\n[optimizer]\nmax_iterations = 5\n\n[grid]\n"
        cfg = write_config(tmp_path, body + "".join(f"{k} = {v}\n" for k, v in grid.items()))
        out = tmp_path / "out"
        result = self.run_cli("grid", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2, result.output
        assert f"config error: [grid] {key} must not repeat a value, got {value}" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_repeated_optimizer_algorithm_exits_2(self, tmp_path):
        write_spec(tmp_path)
        body = "[data]\nsynthetic = spec.json\n\n[optimizer]\nalgorithm = fedavg1, fedavg1\nmax_iterations = 20\n"
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(write_config(tmp_path, body)), "--out", str(out))
        assert result.exit_code == 2, result.output
        assert "config error: [optimizer] algorithm: must not repeat a value, got fedavg1, fedavg1" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_non_finite_feature_statistic_exits_3(self, tmp_path):
        # finite glucose values near 1e300 pass the drop rules, but any two of
        # them overflow facility B's training std
        header, *lines = FIXTURE.read_text().splitlines()
        col = header.split(",").index("glucose")
        big = iter(["1e300", "-1e300", "3e300", "-3e300"])
        rows = [line.split(",") for line in lines]
        for row in rows:
            if row[-1] == "B":
                row[col] = next(big)
        (tmp_path / "rows.csv").write_text("\n".join([header] + [",".join(row) for row in rows]) + "\n")
        cfg = write_config(tmp_path, "[data]\ncsv = rows.csv\n")
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out), "--algorithm", "fedavg1")
        assert result.exit_code == 3, result.output
        assert "data error: feature 'glucose' has a non-finite mean or std on the training split of node 2" in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("lengthofstay", "1e300", "labels have a non-finite sum of squares"),
            ("glucose", "1e200", "feature 'glucose' has a non-finite sum of squares"),
        ],
    )
    def test_overflowing_split_exits_3(self, tmp_path, column, value, message):
        # the first data row lands in node 1's test split; its value passes the
        # drop rules, but its square overflows every loss on that split
        header, first, *lines = FIXTURE.read_text().splitlines()
        row = first.split(",")
        row[header.split(",").index(column)] = value
        (tmp_path / "rows.csv").write_text("\n".join([header, ",".join(row), *lines]) + "\n")
        cfg = write_config(tmp_path, "[data]\ncsv = rows.csv\n\n[graph]\ndegree = 1\n\n[grid]\ndegrees = 1\n")
        for mode in ("run", "grid"):
            # a fresh interpreter, so that a numpy RuntimeWarning would show on stderr
            out = tmp_path / mode
            proc = subprocess.run(
                [sys.executable, "-m", "fedgtv.cli", mode, "--config", str(cfg), "--out", str(out)],
                capture_output=True, text=True, env=src_env(), timeout=120,
            )
            assert proc.returncode == 3, proc.stderr
            assert proc.stderr == f"data error: {message} on the test split of node 1\n"
            assert not out.exists()

    def test_overflowing_synthetic_split_exits_3(self, tmp_path):
        spec = {**SPEC_JSON, "rows_per_node": [40] * 4, "cluster_weights": [[1e200, 1.0, 0.5], [-2.0, 1.0, -0.5]]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        cfg = write_config(tmp_path, "[data]\nsynthetic = spec.json\n\n[graph]\ndegree = 2\n")
        for mode in ("run", "grid", "graph"):
            # a fresh interpreter, so that a numpy RuntimeWarning would show on stderr
            out = tmp_path / mode
            proc = subprocess.run(
                [sys.executable, "-m", "fedgtv.cli", mode, "--config", str(cfg), "--out", str(out)],
                capture_output=True, text=True, env=src_env(), timeout=120,
            )
            assert proc.returncode == 3, proc.stderr
            assert proc.stderr == "data error: labels have a non-finite sum of squares on the train split of node 1\n"
            assert not out.exists()

    def test_non_utf8_csv_exits_3_naming_the_file(self, tmp_path):
        header, *lines = FIXTURE.read_text().splitlines()
        row = lines[3].split(",")
        row[header.split(",").index("facid")] = "caf\xe9"
        (tmp_path / "rows.csv").write_bytes(("\n".join([header, *lines[:3], ",".join(row), *lines[4:]]) + "\n").encode("latin-1"))
        cfg = write_config(tmp_path, "[data]\ncsv = rows.csv\n")
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 3, result.output
        assert result.stderr == f"data error: {tmp_path / 'rows.csv'}, line 5: not UTF-8 text: byte 0xe9: invalid continuation byte\n"
        assert not out.exists()

    def test_oversized_csv_field_exits_3(self, tmp_path):
        header, *lines = FIXTURE.read_text().splitlines()
        row = lines[0].split(",")
        row[header.split(",").index("glucose")] = "1" * 200_000  # over csv's default field limit
        (tmp_path / "rows.csv").write_text("\n".join([header, *lines, ",".join(row)]) + "\n")
        cfg = write_config(tmp_path, "[data]\ncsv = rows.csv\n")
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out), "--algorithm", "fedavg1")
        assert result.exit_code == 3, result.output
        assert result.stderr.startswith("data error: ") and "field larger than field limit" in result.stderr
        assert "rows.csv, line " in result.stderr
        assert "Traceback" not in result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_non_utf8_config_exits_2_naming_the_file(self, tmp_path):
        write_spec(tmp_path)
        cfg = tmp_path / "exp.ini"
        cfg.write_bytes("[data]\n# caf\xe9 note\nsynthetic = spec.json\n".encode("latin-1"))
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2, result.output
        assert result.stderr == f"config error: {cfg}, line 2: not UTF-8 text: byte 0xe9: invalid continuation byte\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{\n"node_count": "\xe9"}'.encode("latin-1"), ", line 2: not UTF-8 text: byte 0xe9: invalid continuation byte"),
            (b'{"node_count": 4, "rows":', ": not valid JSON: Expecting value: line 1 column 26 (char 25)"),
        ],
        ids=["non_utf8", "truncated"],
    )
    def test_unreadable_spec_exits_3_naming_the_file(self, tmp_path, text, message):
        cfg = synthetic_config(tmp_path)
        (tmp_path / "spec.json").write_bytes(text)
        out = tmp_path / "out"
        for mode in ("run", "grid", "graph"):
            result = self.run_cli(mode, "--config", str(cfg), "--out", str(out))
            assert result.exit_code == 3, result.output
            assert result.stderr == f"data error: {tmp_path / 'spec.json'}{message}\n"
            assert not out.exists()

    def test_diverged_run_exits_4(self, tmp_path):
        # a fresh interpreter, so that a numpy RuntimeWarning would show on stderr
        cfg, out = diverging_config(tmp_path), tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fedgtv.cli", "run", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 4, proc.stderr
        assert proc.stderr == (
            "training error: fedsgd (alpha=0.1, eta=5, degree=2) diverged: round 150: node 1: non-finite training loss\n"
        )
        assert not out.exists()

    def test_diverging_grid_writes_nothing_to_stderr(self, tmp_path):
        # a fresh interpreter, so that a numpy RuntimeWarning would show on stderr
        cfg = diverging_config(tmp_path, "[grid]\netas = 5.0, 0.01\nalphas = 0.1\ndegrees = 2\n")
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "fedgtv.cli", "grid", "--config", str(cfg), "--out", str(out)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        rows = (out / "grid.csv").read_text().strip().split("\n")[1:]
        scores = {tuple(row.split(",")[:4]): row.rsplit(",", 1)[1] for row in rows}
        assert scores.pop(("fedsgd", "0.1", "5", "2")) == scores.pop(("fedavg1", "", "5", "")) == "nan"
        assert len(scores) == 4 and all(math.isfinite(float(v)) for v in scores.values())

    @pytest.mark.parametrize("split", ["test", "val"])
    def test_overflowing_held_out_score(self, tmp_path, split):
        # fedavg1 at 2.5 / lambda_max of the mean (2/m_i) X_i^T X_i, on a stand-in
        # whose node A has glucose 1e7 in its first row of the split: training
        # ends finite near 1e304, and node A's score on that split overflows.
        # A test score is written as null; a val score leaves the cell without
        # a finite val MSE, so nothing is written. A fresh interpreter, so that
        # a numpy RuntimeWarning would show on stderr
        los_inputs = load_perfbench_inputs()
        los = los_inputs.write_los(1, tmp_path, los_inputs.LosShape((("A", 60), ("B", 60)), malformed_per_kind=0))
        csv_path = tmp_path / "los.csv"
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        rows_a = [k for k, line in enumerate(lines) if line.split(",")[header.index("facid")] == "A"]
        k = rows_a[split_dataset(60, los.split_seed)[{"val": 1, "test": 2}[split]][0]]  # node A's first row of the split
        row = lines[k].split(",")
        row[header.index("glucose")] = "1e7"
        lines[k] = ",".join(row)
        csv_path.write_text("\n".join(lines) + "\n")
        with open(los.config, "a") as f:
            f.write("\n[optimizer]\nalgorithm = fedavg1\neta = 0.5169488156737561\nmax_iterations = 860\n")
        proc = subprocess.run(
            [sys.executable, "-m", "fedgtv.cli", "run", "--config", str(los.config), "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        if split == "val":
            assert proc.returncode == 4
            assert proc.stderr == "training error: fedavg1 (eta=0.5169488156737561): node 1: non-finite validation MSE\n"
            assert not (tmp_path / "out").exists()
            return
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        (block,) = json.loads((tmp_path / "out" / "metrics.json").read_text())["algorithms"]
        assert all(math.isfinite(v) for v in block["train_mse"] + block["val_mse"])
        assert block["test_mse"][0] is None and math.isfinite(block["test_mse"][1])

    def test_huge_eta_fedavg2_run_is_the_large_eta_limit(self, tmp_path):
        # a pull 2/eta below the rounding level of the rank-deficient layout; a
        # fresh interpreter, so that a numpy RuntimeWarning would show on stderr
        metrics = {}
        for eta in ("1e6", "1e300"):
            cfg = write_config(tmp_path, f"[data]\ncsv = {FIXTURE}\n\n[optimizer]\nalgorithm = fedavg2\neta = {eta}\n")
            out = tmp_path / eta
            proc = subprocess.run(
                [sys.executable, "-m", "fedgtv.cli", "run", "--config", str(cfg), "--out", str(out)],
                capture_output=True, text=True, env=src_env(), timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr == ""
            (block,) = json.loads((out / "metrics.json").read_text())["algorithms"]
            metrics[eta] = [*block["mean"].values(), *block["train_mse"], *block["val_mse"], *block["test_mse"]]
        # the fixture's nodes fit their training rows exactly: train MSE is rounding, about 1e-28
        assert metrics["1e300"] == pytest.approx(metrics["1e6"], rel=1e-9, abs=1e-20)

    def test_huge_eta_cell_leaves_grid_intact(self, tmp_path):
        val = {}
        for etas in ("0.1", "1e300, 0.1"):
            cfg = write_config(tmp_path, f"[data]\ncsv = {FIXTURE}\n\n[grid]\netas = {etas}\nalgorithms = fedavg2\n")
            out = tmp_path / str(len(val))
            result = self.run_cli("grid", "--config", str(cfg), "--out", str(out))
            assert result.exit_code == 0, result.output
            rows = [row.split(",") for row in (out / "grid.csv").read_text().strip().split("\n")[1:]]
            assert all(math.isfinite(float(row[-1])) for row in rows)
            val[etas] = {row[2]: row[-1] for row in rows}
        assert val["1e300, 0.1"]["0.1"] == val["0.1"]["0.1"]
        assert set(val["1e300, 0.1"]) == {"1e+300", "0.1"}

    @pytest.mark.parametrize(
        "mode, body, message",
        [
            ("run", "[optimizer]\nalgorithm = fedavg2\neta = 1e-309", "fedavg2 eta must be large enough that 2/eta is finite"),
            (
                "run", "[optimizer]\nalgorithm = fedavg1, fedavg2\neta = 1e-309",
                "fedavg2 eta must be large enough that 2/eta is finite",
            ),
            (
                "grid", "[grid]\netas = 0.1, 1e-309\nalgorithms = fedavg1, fedavg2",
                "[grid] fedavg2 eta must be large enough that 2/eta is finite",
            ),
        ],
        ids=["run", "run_after_fedavg1", "grid"],
    )
    def test_fedavg2_eta_whose_pull_overflows_exits_2(self, tmp_path, monkeypatch, mode, body, message):
        # 2/eta overflows below about 1.1e-308; such an eta made every proximal map NaN
        trained = []
        monkeypatch.setattr(experiment_harness, "train_cells", lambda *args: trained.append(args))
        cfg = write_config(tmp_path, f"[data]\ncsv = {FIXTURE}\n\n{body}\n")
        out = tmp_path / "out"
        result = self.run_cli(mode, "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2, result.output
        assert result.stderr == f"config error: {message}, got 1e-309\n"
        assert trained == [] and not out.exists()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini"]

    def test_fedavg1_run_keeps_an_eta_whose_pull_overflows(self, tmp_path):
        cfg = write_config(tmp_path, f"[data]\ncsv = {FIXTURE}\n\n[optimizer]\nalgorithm = fedavg1\neta = 1e-309\n")
        result = self.run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert result.exit_code == 0, result.output
        assert (tmp_path / "out" / "metrics.json").is_file()

    @pytest.mark.parametrize(
        "mode, body, options",
        [
            ("run", "[optimizer]\nalgorithm = fedavg1\neta = 1e-309", ["--algorithm", "fedavg2"]),
            ("grid", "[grid]\nalgorithms = fedavg1\netas = 0.1, 1e-309", ["--algorithm", "fedavg2"]),  # the one mode that reads [grid]
            # the grid's rules, for every algorithm, come before the settings that no grid holds
            ("run", "[optimizer]\nalgorithm = fedsgd, fedavg2\neta = 1e-309\nbatch_size = 0", []),
        ],
        ids=["run_override", "grid_override", "run_before_batch_size"],
    )
    def test_every_algorithm_is_checked_before_any_data_loads(self, tmp_path, monkeypatch, mode, body, options):
        def no_load(cfg):
            raise AssertionError("data loaded before the settings were checked")

        monkeypatch.setattr(experiment_harness, "_load_datasets", no_load)
        cfg = write_config(tmp_path, f"[data]\ncsv = {FIXTURE}\n\n{body}\n")
        out = tmp_path / "out"
        result = self.run_cli(mode, "--config", str(cfg), "--out", str(out), *options)
        assert result.exit_code == 2, result.output
        assert result.stderr == "config error: fedavg2 eta must be large enough that 2/eta is finite, got 1e-309\n"
        assert not out.exists()

    def test_run_algorithm_override_leaves_grid_section_alone(self, tmp_path):
        # [grid] was checked with its own algorithms as it loaded, and run never reads it
        cfg = write_config(tmp_path, f"[data]\ncsv = {FIXTURE}\n\n[grid]\nalgorithms = fedavg1\netas = 0.1, 1e-309\n")
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out), "--algorithm", "fedavg2")
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        assert [b["algorithm"] for b in json.loads((out / "metrics.json").read_text())["algorithms"]] == ["fedavg2"]

    @pytest.mark.parametrize(
        "dangling, under",
        [(False, False), (False, True), (True, False), (True, True)],
        ids=["file", "under_file", "dangling_symlink", "under_dangling_symlink"],
    )
    def test_out_not_a_directory_exits_2(self, tmp_path, dangling, under):
        cfg = synthetic_config(tmp_path)
        (tmp_path / "spec.json").unlink()  # checked before the data: a config error, not a data error
        blocker = tmp_path / "taken"
        if dangling:
            blocker.symlink_to(tmp_path / "missing")
        else:
            blocker.write_text("keep\n")
        out = blocker / "sub" if under else blocker
        before = sorted(tmp_path.iterdir())
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 2, result.output
        assert result.stderr == f"config error: --out {out}: {blocker} is not a directory\n"
        assert sorted(tmp_path.iterdir()) == before  # no staging directory left
        if dangling:
            assert os.readlink(blocker) == str(tmp_path / "missing") and not blocker.exists()
        else:
            assert blocker.read_text() == "keep\n"

    def test_out_symlink_to_another_filesystem(self, tmp_path, monkeypatch):
        # every path under otherfs counts as a second device, where a move from outside fails
        other = tmp_path / "otherfs"
        (other / "dest").mkdir(parents=True)
        out = tmp_path / "xlink"
        out.symlink_to(other / "dest")
        move = Path.replace

        def cross_device_move(self, target):
            if (other in self.resolve().parents) != (other in Path(target).resolve().parents):
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            return move(self, target)

        monkeypatch.setattr(Path, "replace", cross_device_move)
        result = self.run_cli("graph", "--config", str(synthetic_config(tmp_path)), "--out", str(out))
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in (other / "dest").iterdir()) == ["graph.edges", "manifest.json"]
        assert sorted(p.name for p in other.iterdir()) == ["dest"]  # staging removed

    def test_out_mount_point(self, tmp_path, monkeypatch):
        # out itself is a second device, as a container volume given as --out is
        out = tmp_path / "volume"
        out.mkdir()
        move = Path.replace

        def cross_device_move(self, target):
            if (out in self.resolve().parents) != (out in Path(target).resolve().parents):
                raise OSError(errno.EXDEV, "Invalid cross-device link")
            return move(self, target)

        monkeypatch.setattr(Path, "replace", cross_device_move)
        result = self.run_cli("graph", "--config", str(synthetic_config(tmp_path)), "--out", str(out))
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in out.iterdir()) == ["graph.edges", "manifest.json"]  # staging removed

    @pytest.mark.parametrize("mode", ["run", "grid"])
    def test_empty_val_split_is_rejected_before_training(self, tmp_path, monkeypatch, mode):
        # a 3-row node splits 2 / 0 / 1: no cell could be selected on its val, in run's one-point grid as in grid
        spec = {**SPEC_JSON, "node_count": 5, "rows_per_node": [3, 40, 40, 40, 40], "feature_dim": 2,
                "cluster_assignment": [0, 0, 1, 1, 1], "cluster_weights": [[1.0, -1.0], [-1.0, 1.0]]}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        cfg = write_config(tmp_path, "[data]\nsynthetic = spec.json\n")
        trained = []
        monkeypatch.setattr(experiment_harness, "pretrain_local_weights", lambda *args: trained.append(args))
        monkeypatch.setattr(experiment_harness, "train_cells", lambda *args: trained.append(args))
        result = self.run_cli(mode, "--config", str(cfg), "--out", str(tmp_path / "out"))
        assert result.exit_code == 3, result.output
        assert result.stderr == "data error: node 1: empty validation split (2 train, 0 val, 1 test rows)\n"
        assert trained == [] and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", ["csv", "synthetic"])
    def test_too_small_node_is_named(self, tmp_path, source):
        # node 2 has 2 rows, one short of a split, from a CSV facility or a synthetic spec alike
        if source == "csv":
            header, *lines = FIXTURE.read_text().splitlines()
            b_rows = [line for line in lines if line.endswith(",B")]
            kept = [line for line in lines if line not in b_rows[2:]]
            (tmp_path / "rows.csv").write_text("\n".join([header, *kept]) + "\n")
            cfg = write_config(tmp_path, "[data]\ncsv = rows.csv\n")
        else:
            spec = {**SPEC_JSON, "node_count": 3, "rows_per_node": [40, 2, 40], "feature_dim": 2,
                    "cluster_assignment": [0, 0, 1], "cluster_weights": [[1.0, -1.0], [-1.0, 1.0]]}
            (tmp_path / "spec.json").write_text(json.dumps(spec))
            cfg = write_config(tmp_path, "[data]\nsynthetic = spec.json\n")
        out = tmp_path / "out"
        result = self.run_cli("run", "--config", str(cfg), "--out", str(out))
        assert result.exit_code == 3, result.output
        assert result.stderr == "data error: node 2: need at least 3 rows to split, got 2\n"
        assert not out.exists()

    def test_grid_artifacts_do_not_depend_on_the_draw_helper(self, tmp_path, monkeypatch, forks):
        write_spec(tmp_path)
        cfg = write_config(
            tmp_path,
            """\
            [data]
            synthetic = spec.json

            [optimizer]
            batch_size = 5
            max_iterations = 41
            trace_every = 10

            [grid]
            alphas = 0.1, 1.0
            etas = 0.05, 0.01
            degrees = 2, 3
            """,
        )
        artifacts = []
        for draws in (math.inf, 0):
            monkeypatch.setattr(fed_optimizers, "_HELPER_DRAWS", draws)
            out = tmp_path / f"out_{draws}"
            result = self.run_cli("grid", "--config", str(cfg), "--out", str(out))
            assert result.exit_code == 0, result.output
            artifacts.append({p.name: p.read_bytes() for p in out.iterdir()})
        assert len(forks) == 1 and artifacts[0] == artifacts[1]
        assert sorted(artifacts[0]) == ["graph.edges", "grid.csv", "manifest.json", "metrics.json", "metrics.txt", "trace.csv"]

    def test_seed_override_changes_splits(self, tmp_path):
        cfg = synthetic_config(tmp_path)
        a = self.run_cli("run", "--config", str(cfg), "--out", str(tmp_path / "a"))
        b = self.run_cli(
            "run", "--config", str(cfg), "--out", str(tmp_path / "b"), "--seed", "9"
        )
        assert a.exit_code == 0 and b.exit_code == 0
        # synthetic data carries its own generation seed, so --seed only
        # matters for CSV splits; the manifest still records the override
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        assert ma["seed"] == 42 and mb["seed"] == 9


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = re.search(r"## Library use\n\n```python\n(.*?)```", readme, re.DOTALL).group(1)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        capture_output=True, text=True, env=src_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("== fedsgd ==\n") and "\n  mean " in proc.stdout


def test_cli_import_loads_no_process_or_scipy_module():
    # every CLI call pays its import time; the fork paths import signal only once they fork
    heavy = ["signal", "subprocess", "multiprocessing", "concurrent.futures", "scipy"]
    code = f"import sys, fedgtv.cli; print([name for name in {heavy!r} if name in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
