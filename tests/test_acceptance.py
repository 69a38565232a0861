"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the PASS lines.
Criterion 7 exercises the public hospital length-of-stay benchmark and skips
itself when the CSV is not present; set FEDGTV_LOS_CSV or place
LengthOfStay.csv under tests/data/ to enable it. The paper grid also runs,
pinned, on the benchmark's seeded public-format stand-in for that CSV, on
twelve small stand-ins that show where federation pays, and on three whose
facilities move their numerics apart (covariate shift). The default grid
also runs on small clustered nodes, the regime GTVMin is for, 10 and 60 of them.
"""

import csv
import json
import os
import shutil
import textwrap
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import graph_from_edges, load_perfbench_inputs

from fedgtv.cli import main
from fedgtv.data_pipeline import LocalDataset, SyntheticSpec, generate_synthetic, load_preprocessed
from fedgtv.empirical_graph import (
    build_knn_graph,
    discrepancy_matrix,
    pretrain_local_weights,
)
from fedgtv.experiment_harness import load_synthetic_spec, run_experiment
from fedgtv.fed_optimizers import (
    OptimizerConfig,
    fedavg_v1_round,
    fedavg_v2_round,
    fedsgd_round,
    gtv_objective,
    train,
)
from fedgtv.model_core import least_squares_fit, mse_gradient, mse_loss, proximal_step

LOS_ENV = "FEDGTV_LOS_CSV"


def numeric_gradient(f, w, h=1e-6):
    g = np.zeros_like(w, dtype=float)
    for j in range(w.size):
        up = w.copy()
        dn = w.copy()
        up[j] += h
        dn[j] -= h
        g[j] = (f(up) - f(dn)) / (2.0 * h)
    return g


def coordinate_descent_prox(X, y, anchor, eta, sweeps=20000, tol=1e-13):
    """Independent minimizer of mse_loss(X, y, v) + (1/eta)*||v - anchor||^2.

    Cyclic coordinate descent on the quadratic; the (2/eta) ridge term keeps
    the Hessian strictly positive definite so the sweep always converges.
    """
    m, d = X.shape
    H = (2.0 / m) * X.T @ X + (2.0 / eta) * np.eye(d)
    b = (2.0 / m) * X.T @ y + (2.0 / eta) * anchor
    v = np.asarray(anchor, dtype=float).copy()
    for _ in range(sweeps):
        delta = 0.0
        for j in range(d):
            new = (b[j] - H[j] @ v + H[j, j] * v[j]) / H[j, j]
            delta = max(delta, abs(new - v[j]))
            v[j] = new
        if delta < tol:
            break
    return v


def make_local(X, y, node_id=1):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return LocalDataset(
        node_id=node_id,
        train=(X, y),
        val=(X[:0], y[:0]),
        test=(X[:0], y[:0]),
        numeric_columns=np.arange(X.shape[1]),
    )


def random_nodes(n_nodes, rows, dim, seed, noise=0.2):
    rng = np.random.default_rng(seed)
    datasets = []
    for node in range(n_nodes):
        X = rng.standard_normal((rows, dim))
        w = rng.standard_normal(dim)
        y = X @ w + noise * rng.standard_normal(rows)
        datasets.append(make_local(X, y, node_id=node + 1))
    return datasets


def test_criterion_1_gradient_matches_finite_differences():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(1, 21))
        d = int(rng.integers(1, 7))
        X = rng.standard_normal((m, d))
        y = rng.standard_normal(m)
        w = rng.standard_normal(d)
        analytic = mse_gradient(X, y, w)
        numeric = numeric_gradient(lambda v: mse_loss(X, y, v), w)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-6)
        worst = max(worst, rel)
        assert rel < 1e-5
    print(
        f"PASS criterion 1: analytic gradient vs central differences on 200 "
        f"instances, worst relative error {worst:.2e} < 1e-5"
    )


def test_criterion_2_proximal_step_oracle():
    rng = np.random.default_rng(1002)
    worst_grad = 0.0
    worst_gap = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 30))
        d = int(rng.integers(1, 8))
        X = rng.standard_normal((m, d))
        y = rng.standard_normal(m)
        anchor = rng.standard_normal(d)
        eta = float(10.0 ** rng.uniform(-2, 1))
        v = proximal_step(X, y, anchor, eta)
        grad = mse_gradient(X, y, v) + (2.0 / eta) * (v - anchor)
        grad_norm = float(np.linalg.norm(grad))
        reference = coordinate_descent_prox(X, y, anchor, eta)
        gap = float(np.max(np.abs(v - reference)))
        worst_grad = max(worst_grad, grad_norm)
        worst_gap = max(worst_gap, gap)
        assert grad_norm < 1e-8
        assert gap < 1e-5
    print(
        f"PASS criterion 2: proximal step on 100 instances, worst stationarity "
        f"norm {worst_grad:.2e} < 1e-8, worst coordinate-descent gap "
        f"{worst_gap:.2e} < 1e-5"
    )


def test_criterion_3_averaging_projection_invariant():
    datasets = random_nodes(4, rows=30, dim=4, seed=17)
    for algorithm, rounds in (("fedavg1", 200), ("fedavg2", 200)):
        config = OptimizerConfig(algorithm, eta=0.05, max_iterations=rounds)
        W = np.zeros((4, 4))
        for _ in range(rounds):
            if algorithm == "fedavg1":
                W = fedavg_v1_round(W, datasets, config)
            else:
                W = fedavg_v2_round(W, datasets, config)
            assert np.array_equal(W, np.tile(W[0], (4, 1)))

    # identical local datasets make averaging a no-op, so the shared iterate
    # must track plain full-batch gradient descent on that one dataset
    rng = np.random.default_rng(23)
    X = rng.standard_normal((40, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 1.5]) + 0.1 * rng.standard_normal(40)
    clones = [make_local(X, y, node_id=i + 1) for i in range(4)]
    config = OptimizerConfig("fedavg1", eta=0.05, max_iterations=1000)
    W = np.zeros((4, 4))
    w = np.zeros(4)
    worst = 0.0
    for _ in range(1000):
        W = fedavg_v1_round(W, clones, config)
        w = w - config.eta * mse_gradient(X, y, w)
        worst = max(worst, float(np.max(np.abs(W - w))))
        assert worst <= 1e-12
    print(
        f"PASS criterion 3: averaging rows bitwise identical after every round "
        f"(both variants, 200 rounds); identical-data trajectory within "
        f"{worst:.2e} <= 1e-12 of single-node GD over 1000 rounds"
    )


def test_criterion_4_fedsgd_degeneration():
    # alpha = 0 with a full batch must reduce to isolated gradient descent
    datasets = random_nodes(3, rows=30, dim=4, seed=29)
    graph = graph_from_edges(3, [(0, 1), (1, 2)])
    config = OptimizerConfig(
        "fedsgd", eta=0.02, alpha=0.0, batch_size=1 << 20, max_iterations=1000,
        trace_every=1000,
    )
    final, _ = train(datasets, graph, config)
    worst = 0.0
    for i, ds in enumerate(datasets):
        X, y = ds.train
        w = np.zeros(4)
        for _ in range(1000):
            w = w - config.eta * mse_gradient(X, y, w)
        worst = max(worst, float(np.max(np.abs(final[i] - w))))
    assert worst <= 1e-12

    # with zero data gradient the two-node weight gap contracts by exactly
    # (1 - 4*alpha*eta); dyadic pairs keep every product representable
    zero = [make_local(np.zeros((4, 2)), np.zeros(4), node_id=i + 1) for i in range(2)]
    pair_graph = graph_from_edges(2, [(0, 1)])
    for alpha, eta in ((0.125, 0.5), (0.25, 0.5), (0.0625, 1.0)):
        factor = 1.0 - 4.0 * alpha * eta
        config = OptimizerConfig("fedsgd", eta=eta, alpha=alpha, max_iterations=1)
        W = np.array([[1.0, -0.5], [-1.0, 0.5]])
        expected = W[0] - W[1]
        for k in range(40):
            W = fedsgd_round(W, zero, pair_graph, config, round_index=k)
            expected = expected * factor
            assert np.array_equal(W[0] - W[1], expected)
    print(
        f"PASS criterion 4: alpha=0 full-batch trajectories within {worst:.2e} "
        f"<= 1e-12 of standalone GD; two-node gap contracts by exactly "
        f"(1 - 4*alpha*eta) for three dyadic settings over 40 rounds"
    )


def test_criterion_5_objective_monotone_under_full_batch_descent():
    datasets = generate_synthetic(
        SyntheticSpec(
            node_count=5,
            rows_per_node=(40,) * 5,
            feature_dim=4,
            cluster_assignment=(0, 0, 0, 1, 1),
            cluster_weights=((1.0, -0.5, 2.0, 0.5), (-1.0, 0.5, -2.0, -0.5)),
            noise_std=0.05,
            seed=31,
        )
    )
    graph = build_knn_graph(discrepancy_matrix(pretrain_local_weights(datasets)), 2)
    worst_rise = -np.inf
    for alpha in (0.0, 0.1, 1.0):
        config = OptimizerConfig(
            "fedsgd", eta=1e-3, alpha=alpha, batch_size=512, max_iterations=1000,
            trace_every=1,
        )
        _, trace = train(datasets, graph, config)
        start = gtv_objective(np.zeros((5, 4)), datasets, graph, alpha)
        objective = np.array([start] + list(trace.objective))
        rises = np.diff(objective)
        worst_rise = max(worst_rise, float(rises.max()))
        assert (rises <= 1e-9).all()
    print(
        f"PASS criterion 5: full-batch descent objective non-increasing for "
        f"alpha in {{0, 0.1, 1}} over 1000 rounds, worst step change "
        f"{worst_rise:.2e} <= 1e-9"
    )


def test_criterion_6_two_cluster_graph_recovery():
    assignment = (0, 0, 0, 1, 1, 1)
    total_cross = 0
    for seed in range(50):
        datasets = generate_synthetic(
            SyntheticSpec(
                node_count=6,
                rows_per_node=(50,) * 6,
                feature_dim=4,
                cluster_assignment=assignment,
                cluster_weights=((5.0, 5.0, -5.0, 5.0), (-5.0, -5.0, 5.0, -5.0)),
                noise_std=0.05,
                seed=seed,
            )
        )
        disc = discrepancy_matrix(pretrain_local_weights(datasets))
        intra = max(
            disc[i, j]
            for i in range(6)
            for j in range(i + 1, 6)
            if assignment[i] == assignment[j]
        )
        cross = min(
            disc[i, j]
            for i in range(6)
            for j in range(i + 1, 6)
            if assignment[i] != assignment[j]
        )
        assert cross >= 100.0 * intra  # construction keeps clusters well separated
        graph = build_knn_graph(disc, 2)
        total_cross += sum(assignment[i] != assignment[j] for i, j in graph.edges())
    assert total_cross == 0
    print(
        "PASS criterion 6: d=2 neighbor graphs over 50 seeds contain zero "
        "cross-cluster edges"
    )


def locate_los_csv():
    candidates = []
    env = os.environ.get(LOS_ENV)
    if env:
        candidates.append(Path(env))
    here = Path(__file__).parent
    candidates.append(here / "data" / "LengthOfStay.csv")
    candidates.append(here.parent / "data" / "LengthOfStay.csv")
    for path in candidates:
        if path.is_file():
            return path
    return None


def test_criterion_7_length_of_stay_benchmark(tmp_path):
    path = locate_los_csv()
    if path is None:
        pytest.skip(
            "hospital length-of-stay CSV not available; set FEDGTV_LOS_CSV or "
            "place LengthOfStay.csv under tests/data/"
        )
    config = tmp_path / "los.ini"
    config.write_text(
        textwrap.dedent(
            f"""\
            [data]
            csv = {path}
            """
        )
    )
    result = run_experiment(config, tmp_path / "out", mode="grid")
    blocks = {b.algorithm: b for b in result["report"].blocks}
    means = {name: blocks[name].mean_test for name in ("fedsgd", "fedavg1", "fedavg2")}
    expected = {"fedsgd": 1.354, "fedavg1": 1.798, "fedavg2": 1.897}
    assert means["fedsgd"] < means["fedavg1"] < means["fedavg2"]
    for name, reference in expected.items():
        assert abs(means[name] - reference) <= 0.3
    for name, block in blocks.items():
        assert abs(block.mean_train - block.mean_val) < 0.2
    selected = result["manifest"]["selected"]["fedsgd"]
    print(
        f"PASS criterion 7: mean test MSE fedsgd {means['fedsgd']:.3f} < "
        f"fedavg1 {means['fedavg1']:.3f} < fedavg2 {means['fedavg2']:.3f}, all "
        f"within 0.3 of (1.354, 1.798, 1.897); selected fedsgd hyperparameters "
        f"alpha={selected['alpha']} eta={selected['eta']} "
        f"degree={selected['degree']} (reported, reference (0.1, 0.1, 2))"
    )


# The paper grid (``algorithm = all``, default axes) on the benchmark's
# public-format stand-in for the hospital CSV (``write_los(1)``): every
# grid.csv val_mse, keyed (algorithm, alpha, eta, degree).
PAPER_GRID_VAL_MSE = {
    ("fedsgd", 1.0, 0.1, 1): 1.47737565173,
    ("fedsgd", 1.0, 0.01, 1): 1.55456954909,
    ("fedsgd", 1.0, 0.001, 1): 3.64933618891,
    ("fedsgd", 0.5, 0.1, 1): 1.42813788289,
    ("fedsgd", 0.5, 0.01, 1): 1.50545129526,
    ("fedsgd", 0.5, 0.001, 1): 3.6072474494,
    ("fedsgd", 0.1, 0.1, 1): 1.36654439954,
    ("fedsgd", 0.1, 0.01, 1): 1.44475839084,
    ("fedsgd", 0.1, 0.001, 1): 3.56183021013,
    ("fedsgd", 1.0, 0.1, 2): 1.54251446598,
    ("fedsgd", 1.0, 0.01, 2): 1.61847149372,
    ("fedsgd", 1.0, 0.001, 2): 3.71008970766,
    ("fedsgd", 0.5, 0.1, 2): 1.48225549473,
    ("fedsgd", 0.5, 0.01, 2): 1.56090335027,
    ("fedsgd", 0.5, 0.001, 2): 3.65632173185,
    ("fedsgd", 0.1, 0.1, 2): 1.38522566883,
    ("fedsgd", 0.1, 0.01, 2): 1.46348848828,
    ("fedsgd", 0.1, 0.001, 2): 3.57486680181,
    ("fedsgd", 1.0, 0.1, 3): 1.56971914006,
    ("fedsgd", 1.0, 0.01, 3): 1.6446413512,
    ("fedsgd", 1.0, 0.001, 3): 3.73391142031,
    ("fedsgd", 0.5, 0.1, 3): 1.50928182132,
    ("fedsgd", 0.5, 0.01, 3): 1.58709139062,
    ("fedsgd", 0.5, 0.001, 3): 3.67880084617,
    ("fedsgd", 0.1, 0.1, 3): 1.39624468256,
    ("fedsgd", 0.1, 0.01, 3): 1.47389531973,
    ("fedsgd", 0.1, 0.001, 3): 3.58101352944,
    ("fedsgd", 1.0, 0.1, 4): 1.57792068859,
    ("fedsgd", 1.0, 0.01, 4): 1.65250892266,
    ("fedsgd", 1.0, 0.001, 4): 3.7415106497,
    ("fedsgd", 0.5, 0.1, 4): 1.5194376701,
    ("fedsgd", 0.5, 0.01, 4): 1.59637747705,
    ("fedsgd", 0.5, 0.001, 4): 3.68744874109,
    ("fedsgd", 0.1, 0.1, 4): 1.40148007838,
    ("fedsgd", 0.1, 0.01, 4): 1.47870184295,
    ("fedsgd", 0.1, 0.001, 4): 3.58419959129,
    ("fedavg1", None, 0.1, None): 1.68251728787,
    ("fedavg1", None, 0.01, None): 1.7564923245,
    ("fedavg1", None, 0.001, None): 3.84294847772,
    ("fedavg2", None, 0.1, None): 1.68232206518,
    ("fedavg2", None, 0.01, None): 2.01347702709,
    ("fedavg2", None, 0.001, None): 4.90961095767,
}

# Each algorithm's selected hyperparameters and mean (train, val, test) MSE on the stand-in.
PAPER_GRID_SELECTED = {
    "fedsgd": ({"alpha": 0.1, "eta": 0.1, "degree": 1}, (1.35061714508, 1.36654439954, 1.32927924137)),
    "fedavg1": ({"eta": 0.1}, (1.65540843849, 1.68251728787, 1.63526034899)),
    "fedavg2": ({"eta": 0.1}, (1.65545482494, 1.68232206518, 1.63512142021)),
}


def test_paper_grid_on_public_format_stand_in(tmp_path, los_csvs):
    # The paper's own experiment at paper scale (5 facilities, 100k rows) on
    # the benchmark's seeded stand-in. Values are pinned to a relative 1e-9,
    # not to their bytes: the BLAS thread count moves their last bits.
    config = los_csvs[1].parent / "los.ini"
    result = run_experiment(config, tmp_path / "out", mode="grid", algorithm="all")
    source = result["manifest"]["source"]
    assert source["dropped_rows"] == 33
    assert source["rows_per_node"] == [9875, 30012, 30755, 9929, 19429]
    with (tmp_path / "out" / "grid.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    number = lambda kind, text: kind(text) if text else None
    grid = {
        (r["algorithm"], number(float, r["alpha"]), float(r["eta"]), number(int, r["degree"])): float(r["val_mse"])
        for r in rows
    }
    assert grid.keys() == PAPER_GRID_VAL_MSE.keys()
    for cell, value in PAPER_GRID_VAL_MSE.items():
        assert grid[cell] == pytest.approx(value, rel=1e-9), cell
    blocks = {b.algorithm: b for b in result["report"].blocks}
    assert list(blocks) == list(PAPER_GRID_SELECTED)
    for name, (hyperparameters, means) in PAPER_GRID_SELECTED.items():
        block = blocks[name]
        assert dict(block.hyperparameters) == hyperparameters
        assert (block.mean_train, block.mean_val, block.mean_test) == pytest.approx(means, rel=1e-9), name
    # The parts of criterion 7 that the stand-in meets. Its fedavg1 < fedavg2
    # does not hold here (1.635260 against 1.635121): both averaging variants
    # end near the pooled fit of the stand-in's facilities, so neither order
    # is asserted.
    test = {name: block.mean_test for name, block in blocks.items()}
    assert test["fedsgd"] < test["fedavg1"] and test["fedsgd"] < test["fedavg2"]
    for name, reference in {"fedsgd": 1.354, "fedavg1": 1.798, "fedavg2": 1.897}.items():
        assert abs(test[name] - reference) <= 0.3
        assert abs(blocks[name].mean_train - blocks[name].mean_val) < 0.2
    print(
        f"PASS paper grid on the stand-in: mean test MSE fedsgd {test['fedsgd']:.6f} below "
        f"fedavg1 {test['fedavg1']:.6f} and fedavg2 {test['fedavg2']:.6f} (criterion 7's "
        "fedavg1 < fedavg2 does not hold on the stand-in); 42 grid scores pinned"
    )


# Mean test MSE (local, pooled, fedsgd, fedavg1, fedavg2) on small public-format
# stand-ins, write_los(seed) with 5 facilities of k rows and no malformed rows,
# keyed (k, seed). The algorithms' values are the default grid's winners
# (algorithm = all); local and pooled are least_squares_fit on each node's,
# and on all nodes', training split.
FEDERATION_TEST_MSE = {
    (40, 1): (2.87583521255, 1.99652339243, 1.88769580847, 1.99652749557, 1.95666244506),
    (40, 2): (4.7475033458, 2.46635071843, 2.32433322297, 2.25142877295, 2.42087738405),
    (40, 3): (2.63820381952, 1.71108391332, 1.63718358532, 1.71108238865, 1.70622214773),
    (40, 4): (1.63662631981, 1.71805601839, 1.64192393849, 1.71706614939, 1.72140250103),
    (40, 5): (3.45518376585, 2.08560557917, 2.04181140407, 2.30397477952, 2.10488554717),
    (40, 6): (6.26145004174, 2.1709285181, 2.50737862687, 2.17192563616, 2.16834521098),
    (100, 1): (1.65638354504, 1.28304356745, 1.30970412674, 1.28305114328, 1.28124371643),
    (100, 2): (1.68493018264, 1.65023418826, 1.58028095417, 1.57233938815, 1.63888518827),
    (100, 3): (1.64014491066, 1.29863392909, 1.3100551751, 1.29863056441, 1.28999977121),
    (100, 4): (1.72528908876, 1.80679926828, 1.4104578395, 1.80672863252, 1.8067372157),
    (100, 5): (1.64381281573, 1.71107175367, 1.57564696566, 1.71106751119, 1.701396701),
    (100, 6): (1.81939512113, 1.49999192806, 1.42090285242, 1.49976114035, 1.49421498065),
}


def test_where_federation_pays_on_small_stand_ins(tmp_path):
    los_inputs = load_perfbench_inputs()
    found = {}
    for k, seed in FEDERATION_TEST_MSE:
        shape = los_inputs.LosShape(tuple((facility, k) for facility in "ABCDE"), malformed_per_kind=0)
        los = los_inputs.write_los(seed, tmp_path / f"{k}_{seed}", shape)
        result = run_experiment(los.config, tmp_path / f"{k}_{seed}" / "out", mode="grid", algorithm="all")
        assert [b.algorithm for b in result["report"].blocks] == ["fedsgd", "fedavg1", "fedavg2"]
        datasets, _ = load_preprocessed(los.config.parent / "los.csv", seed=los.split_seed)
        local = np.mean([mse_loss(*ds.test, least_squares_fit(*ds.train)) for ds in datasets])
        pooled_w = least_squares_fit(*(np.concatenate(part) for part in zip(*(ds.train for ds in datasets))))
        pooled = np.mean([mse_loss(*ds.test, pooled_w) for ds in datasets])
        found[k, seed] = (local, pooled, *(b.mean_test for b in result["report"].blocks))
        assert found[k, seed] == pytest.approx(FEDERATION_TEST_MSE[k, seed], rel=1e-9), (k, seed)
    # The one order that holds on every stand-in; no seed is dropped to make another hold.
    assert all(min(algorithms) < pooled for _, pooled, *algorithms in found.values())
    count = lambda better: sum(better(*values) for values in found.values())
    print(
        f"PASS where federation pays: on {len(found)} small stand-ins (5 facilities x 40 or 100 rows, "
        f"seeds 1-6) the best algorithm beats pooled in {len(found)}, and local in "
        f"{count(lambda local, pooled, *algorithms: min(algorithms) < local)}; fedsgd beats local in "
        f"{count(lambda local, pooled, sgd, *avg: sgd < local)}, pooled in "
        f"{count(lambda local, pooled, sgd, *avg: sgd < pooled)} and both averaging variants in "
        f"{count(lambda local, pooled, sgd, *avg: sgd < min(avg))}"
    )


def write_shifted_los(inputs, los, out: Path, shift: float) -> Path:
    """A copy of the write_los stand-in ``los`` whose numerics each facility moves; returns its config.

    In population sds, facility f's column j moves its mean by shift * N(0, 1)
    and scales its spread by exp(0.5 * shift * N(0, 1)). Each label moves by
    the numerics' LOS_WEIGHTS times that move, so one raw relation holds at
    every facility, as far as write_los's per-facility weights let it.
    ``inputs`` is the benchmark's input module, which wrote ``los``.
    """
    with (los.config.parent / "los.csv").open(newline="") as fh:
        header, *lines = list(csv.reader(fh))
    columns, label = [header.index(name) for name in inputs.NUMERICS], header.index("lengthofstay")
    fields = np.array(lines)
    node = np.searchsorted(sorted(los.nodes), fields[:, header.index("facid")])
    mean, sd = np.array(inputs.NUMERIC_SHAPES)[:, :2].T
    rng = np.random.default_rng(los.split_seed)
    offset = shift * rng.standard_normal((len(los.nodes), len(columns)))
    scale = np.exp(0.5 * shift * rng.standard_normal((len(los.nodes), len(columns))))
    z = (fields[:, columns].astype(float) - mean) / sd
    moved = offset[node] + scale[node] * z
    labels = np.clip(np.round(fields[:, label].astype(int) + (moved - z) @ inputs.LOS_WEIGHTS[8:17]), 1, 17)
    for line, values, y in zip(lines, (mean + sd * moved).tolist(), labels.astype(int).tolist()):
        for c, value in zip(columns, values):
            line[c] = repr(value)
        line[label] = str(y)
    out.mkdir()
    with (out / "los.csv").open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows([header, *lines])
    shutil.copy(los.config, out / "los.ini")
    return out / "los.ini"


# Under covariate shift: the default grid on write_los(seed) stand-ins of 5
# facilities x 400 rows, as written (shift 0) and through write_shifted_los
# (shift 1), keyed (shift, seed). The selected (alpha, eta, degree) of fedsgd and
# eta of fedavg1 and fedavg2; then mean test MSE (local, pooled, fedsgd, fedavg1,
# fedavg2), as in FEDERATION_TEST_MSE.
COVARIATE_SHIFT_SELECTED = {
    (0.0, 1): ((0.1, 0.1, 1), 0.1, 0.1),
    (1.0, 1): ((0.1, 0.1, 1), 0.1, 0.1),
    (0.0, 2): ((0.1, 0.1, 2), 0.1, 0.1),
    (1.0, 2): ((0.1, 0.1, 1), 0.1, 0.1),
    (0.0, 3): ((0.1, 0.1, 1), 0.1, 0.1),
    (1.0, 3): ((0.1, 0.1, 1), 0.1, 0.1),
}
COVARIATE_SHIFT_TEST_MSE = {
    (0.0, 1): (1.49886696235, 1.77892539789, 1.54908010387, 1.77893029871, 1.77915034984),
    (1.0, 1): (1.49467414153, 2.11464024507, 1.54349855182, 2.11464762827, 2.11681931909),
    (0.0, 2): (1.47669216082, 1.54958920008, 1.41677300054, 1.54958092534, 1.54775496625),
    (1.0, 2): (1.40593088794, 1.63601140434, 1.36095168042, 1.63601096502, 1.63289248968),
    (0.0, 3): (1.58062866133, 1.75206458989, 1.54524333687, 1.75210208218, 1.75442041408),
    (1.0, 3): (1.45404151438, 2.4361401883, 1.44284895712, 2.4362340027, 2.43978780964),
}


def test_covariate_shift_on_small_stand_ins(tmp_path):
    # Each node z-scores its features with its own training statistics, so a
    # facility's move is undone in its features but not in its labels: the
    # shared models of pooling and averaging see a different relation per node.
    los_inputs = load_perfbench_inputs()
    shape = los_inputs.LosShape(tuple((facility, 400) for facility in "ABCDE"), malformed_per_kind=0)
    found = {}
    for seed in (1, 2, 3):
        los = los_inputs.write_los(seed, tmp_path / str(seed), shape)
        for shift in (0.0, 1.0):
            config = los.config if shift == 0 else write_shifted_los(los_inputs, los, tmp_path / f"{seed}_moved", shift)
            result = run_experiment(config, config.parent / "out", mode="grid", algorithm="all")
            fedsgd, fedavg1, fedavg2 = (dict(b.hyperparameters) for b in result["report"].blocks)
            selected = ((fedsgd["alpha"], fedsgd["eta"], fedsgd["degree"]), fedavg1["eta"], fedavg2["eta"])
            assert selected == COVARIATE_SHIFT_SELECTED[shift, seed], (shift, seed)
            datasets, _ = load_preprocessed(config.parent / "los.csv", seed=los.split_seed)
            local = np.mean([mse_loss(*ds.test, least_squares_fit(*ds.train)) for ds in datasets])
            pooled_w = least_squares_fit(*(np.concatenate(part) for part in zip(*(ds.train for ds in datasets))))
            pooled = np.mean([mse_loss(*ds.test, pooled_w) for ds in datasets])
            found[shift, seed] = (local, pooled, *(b.mean_test for b in result["report"].blocks))
            assert found[shift, seed] == pytest.approx(COVARIATE_SHIFT_TEST_MSE[shift, seed], rel=1e-9), (shift, seed)
    # On every seed the shift leaves the order of the five unchanged and widens
    # the gap by which pooling and averaging trail the local fits and fedsgd.
    gap = lambda local, pooled, sgd, *averaging: (pooled - local, min(averaging) - sgd)
    for seed in (1, 2, 3):
        assert np.argsort(found[0.0, seed]).tolist() == np.argsort(found[1.0, seed]).tolist(), seed
        assert all(np.greater(gap(*found[1.0, seed]), gap(*found[0.0, seed]))), seed
    print(
        "PASS covariate shift: moving each facility's numeric means and scales leaves the order of local, "
        "pooled and the three algorithms unchanged on seeds 1-3 and widens pooled - local from "
        + ", ".join(f"{gap(*found[0.0, s])[0]:.3f}" for s in (1, 2, 3)) + " to "
        + ", ".join(f"{gap(*found[1.0, s])[0]:.3f}" for s in (1, 2, 3))
    )


# The default grid on small clustered nodes: 10 nodes of 20 rows, 8 features, two
# clusters of five. Each algorithm's selected hyperparameters and mean
# (train, val, test) MSE.
GTVMIN_REGIME_SELECTED = {
    "fedsgd": ({"alpha": 1.0, "eta": 0.1, "degree": 4}, (0.604151082758, 0.634625319239, 1.18934192748)),
    "fedavg1": ({"eta": 0.1}, (3.08914634131, 1.89139987275, 3.72301672626)),
    "fedavg2": ({"eta": 0.01}, (3.0891787552, 1.89385977689, 3.71599588683)),
}
# Mean test MSE of the local and of the pooled least-squares fit on the same nodes.
GTVMIN_REGIME_LOCAL_POOLED = (1.74885116883, 3.72301672626)


def test_gtvmin_regime_on_small_clustered_nodes(tmp_path):
    # The kNN graph separates the two clusters at every degree of the grid, so
    # every fedsgd cell trains on a disconnected graph, as GTVMin allows: its
    # problem decouples into one per connected component.
    rng = np.random.default_rng(0)
    cluster_weights = [rng.standard_normal(8).tolist() for _ in range(4)][2:]
    spec = {
        "node_count": 10, "rows_per_node": [20] * 10, "feature_dim": 8, "cluster_assignment": [0] * 5 + [1] * 5,
        "cluster_weights": cluster_weights, "noise_std": 1.0, "seed": 3,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "exp.ini").write_text("[data]\nsynthetic = spec.json\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["grid", "--config", str(tmp_path / "exp.ini"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    with (out / "grid.csv").open(newline="") as fh:
        fedsgd_rows = [r for r in csv.DictReader(fh) if r["algorithm"] == "fedsgd"]
    assert len(fedsgd_rows) == 36 and all(r["connected"] == "0" for r in fedsgd_rows)
    blocks = {b["algorithm"]: b for b in json.loads((out / "metrics.json").read_text())["algorithms"]}
    assert list(blocks) == list(GTVMIN_REGIME_SELECTED)
    for name, (hyperparameters, means) in GTVMIN_REGIME_SELECTED.items():
        assert blocks[name]["hyperparameters"] == hyperparameters
        found = tuple(blocks[name]["mean"][split] for split in ("train", "val", "test"))
        assert found == pytest.approx(means, rel=1e-9), name
    datasets = generate_synthetic(load_synthetic_spec(tmp_path / "spec.json"))
    local = np.mean([mse_loss(*ds.test, least_squares_fit(*ds.train)) for ds in datasets])
    pooled_w = least_squares_fit(*(np.concatenate(part) for part in zip(*(ds.train for ds in datasets))))
    pooled = np.mean([mse_loss(*ds.test, pooled_w) for ds in datasets])
    assert (local, pooled) == pytest.approx(GTVMIN_REGIME_LOCAL_POOLED, rel=1e-9)
    test = {name: block["mean"]["test"] for name, block in blocks.items()}
    assert test["fedsgd"] < min(local, pooled, test["fedavg1"], test["fedavg2"])
    print(
        f"PASS GTVMin regime: on 10 small nodes in two clusters, every fedsgd graph disconnected, mean test MSE "
        f"fedsgd {test['fedsgd']:.4f} below local {local:.4f}, pooled {pooled:.4f}, "
        f"fedavg1 {test['fedavg1']:.4f} and fedavg2 {test['fedavg2']:.4f}"
    )


# The default grid on 60 nodes of 40 rows in four clusters: selection and (train, val, test) means per algorithm.
MANY_NODES_SELECTED = {
    "fedsgd": ({"alpha": 1.0, "eta": 0.01, "degree": 4}, (0.900736402121, 0.912354561403, 1.02860699661)),
    "fedavg1": ({"eta": 0.1}, (4.64683639826, 4.59935733866, 5.39434786458)),
    "fedavg2": ({"eta": 0.1}, (4.6473063399, 4.59800881238, 5.38165675681)),
}
# Mean test MSE of the local and of the row-pooled least-squares fit on the same nodes.
MANY_NODES_LOCAL_POOLED = (1.43682084357, 5.39434786458)


def test_gtvmin_regime_on_many_nodes(tmp_path):
    # GTVMin's home regime, many small nodes: four clusters of 15 nodes each, whose selected
    # degree-4 kNN graph is disconnected
    rng = np.random.default_rng(0)
    spec = {
        "node_count": 60, "rows_per_node": [40] * 60, "feature_dim": 8, "cluster_assignment": [i % 4 for i in range(60)],
        "cluster_weights": [rng.standard_normal(8).tolist() for _ in range(4)], "noise_std": 1.0, "seed": 3,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    (tmp_path / "exp.ini").write_text("[data]\nsynthetic = spec.json\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["grid", "--config", str(tmp_path / "exp.ini"), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert json.loads((out / "manifest.json").read_text())["selected"]["fedsgd"]["connected"] is False
    blocks = {b["algorithm"]: b for b in json.loads((out / "metrics.json").read_text())["algorithms"]}
    assert list(blocks) == list(MANY_NODES_SELECTED)
    for name, (hyperparameters, means) in MANY_NODES_SELECTED.items():
        assert blocks[name]["hyperparameters"] == hyperparameters
        found = tuple(blocks[name]["mean"][split] for split in ("train", "val", "test"))
        assert found == pytest.approx(means, rel=1e-9), name
    datasets = generate_synthetic(load_synthetic_spec(tmp_path / "spec.json"))
    local = np.mean([mse_loss(*ds.test, least_squares_fit(*ds.train)) for ds in datasets])
    pooled_w = least_squares_fit(*(np.concatenate(part) for part in zip(*(ds.train for ds in datasets))))
    pooled = np.mean([mse_loss(*ds.test, pooled_w) for ds in datasets])
    assert (local, pooled) == pytest.approx(MANY_NODES_LOCAL_POOLED, rel=1e-9)
    test = {name: block["mean"]["test"] for name, block in blocks.items()}
    assert test["fedsgd"] < min(local, pooled, test["fedavg1"], test["fedavg2"])
    print(
        f"PASS GTVMin regime at many nodes: on 60 nodes in four clusters, mean test MSE fedsgd {test['fedsgd']:.4f} "
        f"below local {local:.4f}, row-pooled {pooled:.4f}, fedavg1 {test['fedavg1']:.4f} and fedavg2 {test['fedavg2']:.4f}"
    )


def test_criterion_8_byte_identical_reports(tmp_path):
    spec = {
        "node_count": 4,
        "rows_per_node": [24, 24, 24, 24],
        "feature_dim": 3,
        "cluster_assignment": [0, 0, 1, 1],
        "cluster_weights": [[2.0, -1.0, 0.5], [-2.0, 1.0, -0.5]],
        "noise_std": 0.1,
        "seed": 3,
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    config = tmp_path / "exp.ini"
    config.write_text(
        textwrap.dedent(
            """\
            [data]
            synthetic = spec.json

            [optimizer]
            algorithm = all
            eta = 0.05
            alpha = 0.1
            max_iterations = 200
            """
        )
    )
    run_experiment(config, tmp_path / "a", mode="run")
    run_experiment(config, tmp_path / "b", mode="run")
    for name in ("metrics.txt", "metrics.json", "trace.csv", "manifest.json", "graph.edges"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    print(
        "PASS criterion 8: repeated runs produce byte-identical metrics, trace, "
        "manifest, and graph artifacts"
    )
