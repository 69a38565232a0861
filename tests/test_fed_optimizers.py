import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import graph_from_edges

import fedgtv.fed_optimizers
from fedgtv.data_pipeline import LocalDataset, SyntheticSpec, generate_synthetic
from fedgtv.errors import DegenerateInputError, ParameterError, ShapeError
from fedgtv.fed_optimizers import (
    Algorithm,
    OptimizerConfig,
    fedavg_v1_round,
    fedavg_v2_round,
    fedsgd_round,
    _losses,
    _split_parts,
    gtv_objective,
    train,
    train_cells,
)
from fedgtv.model_core import _mse_rows, _proximal_system, least_squares_fit, mse_gradient, mse_loss, proximal_step


def make_ds(X, y, node_id=1):
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    empty = (np.zeros((0, X.shape[1])), np.zeros(0))
    return LocalDataset(
        node_id=node_id,
        train=(X, y),
        val=empty,
        test=empty,
        numeric_columns=np.arange(X.shape[1]),
    )


def synthetic_datasets(n=3, rows=30, dim=3, noise=0.2, seed=0):
    spec = SyntheticSpec(
        node_count=n,
        rows_per_node=(rows,) * n,
        feature_dim=dim,
        cluster_assignment=(0,) * n,
        cluster_weights=((1.5,) + (0.0,) * (dim - 2) + (-0.5,),),
        noise_std=noise,
        seed=seed,
    )
    return generate_synthetic(spec)


class TestOptimizerConfig:
    def test_algorithm_coercion_from_string(self):
        cfg = OptimizerConfig("fedsgd", eta=0.1)
        assert cfg.algorithm is Algorithm.FEDSGD

    def test_validation(self):
        for eta in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                OptimizerConfig("fedsgd", eta=eta)
        for alpha in (-0.1, math.nan, math.inf):
            with pytest.raises(ParameterError):
                OptimizerConfig("fedsgd", eta=0.1, alpha=alpha)
        with pytest.raises(ParameterError):
            OptimizerConfig("fedsgd", eta=0.1, batch_size=0)
        with pytest.raises(ParameterError):
            OptimizerConfig("fedsgd", eta=0.1, max_iterations=0)
        with pytest.raises(ParameterError):
            OptimizerConfig("fedsgd", eta=0.1, trace_every=0)
        with pytest.raises(ParameterError):
            OptimizerConfig("fedsgd", eta=0.1, seed=-1)
        with pytest.raises(ValueError):
            OptimizerConfig("sgd", eta=0.1)

    @pytest.mark.parametrize("eta", [1.1e-308, 1e-309, 5e-324])
    def test_fedavg2_eta_whose_pull_overflows_rejected(self, eta):
        with pytest.raises(ParameterError, match=f"^fedavg2 eta must be large enough that 2/eta is finite, got {eta}$"):
            OptimizerConfig("fedavg2", eta=eta)
        assert OptimizerConfig("fedavg2", eta=1.2e-308).eta == 1.2e-308
        for algorithm in ("fedsgd", "fedavg1"):
            assert OptimizerConfig(algorithm, eta=eta).eta == eta


class TestGtvObjective:
    def test_hand_example(self):
        datasets = [make_ds([[1.0]], [0.0], 1), make_ds([[1.0]], [2.0], 2)]
        graph = graph_from_edges(2, [(0, 1)])
        W = np.array([[0.0], [2.0]])
        assert gtv_objective(W, datasets, graph, alpha=0.5) == 2.0

    def test_equal_weights_zero_penalty(self):
        datasets = synthetic_datasets()
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        W = np.tile(np.array([0.3, -0.2, 0.7]), (3, 1))
        total = sum(mse_loss(*ds.train, W[i]) for i, ds in enumerate(datasets))
        assert gtv_objective(W, datasets, graph, alpha=5.0) == pytest.approx(total, rel=1e-15)

    def test_alpha_zero_is_sum_of_losses(self):
        datasets = synthetic_datasets()
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        rng = np.random.default_rng(0)
        W = rng.standard_normal((3, 3))
        total = sum(mse_loss(*ds.train, W[i]) for i, ds in enumerate(datasets))
        assert gtv_objective(W, datasets, graph, alpha=0.0) == pytest.approx(total, rel=1e-15)

    def test_each_edge_counted_once(self):
        datasets = [make_ds([[1.0]], [0.0], i + 1) for i in range(2)]
        graph = graph_from_edges(2, [(0, 1)])
        W = np.array([[0.0], [1.0]])
        base = gtv_objective(W, datasets, graph, alpha=0.0)
        assert gtv_objective(W, datasets, graph, alpha=1.0) - base == 1.0

    def test_shape_mismatch(self):
        datasets = synthetic_datasets()
        graph = graph_from_edges(2, [(0, 1)])
        with pytest.raises(ShapeError):
            gtv_objective(np.zeros((3, 3)), datasets, graph, alpha=0.1)
        with pytest.raises(ShapeError, match="2 weight rows for 3 datasets"):
            gtv_objective(np.zeros((2, 3)), datasets, graph, alpha=0.1)


class TestFedsgdRound:
    def test_alpha_zero_full_batch_equals_isolated_gd_step(self):
        datasets = synthetic_datasets()
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        config = OptimizerConfig("fedsgd", eta=0.05, alpha=0.0, batch_size=10_000)
        rng = np.random.default_rng(1)
        W = rng.standard_normal((3, 3))
        out = fedsgd_round(W, datasets, graph, config, round_index=0)
        for i, ds in enumerate(datasets):
            expected = W[i] - 0.05 * mse_gradient(*ds.train, W[i])
            assert np.array_equal(out[i], expected)

    def test_sampled_node_steps_on_its_drawn_batch(self):
        # the README's mini-batch stream: sorted indices drawn without replacement
        # from default_rng([seed, node_id, round]), whatever eta and alpha are.
        # numpy's choice draws by Floyd's algorithm up to 10,000 rows, and by a
        # tail shuffle above that while the batch exceeds 1/50 of the rows.
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        L = graph.laplacian()
        for rows, batch_size in ((60, 5), (16_000, 512)):
            datasets = synthetic_datasets(rows=rows)
            for eta, alpha in ((0.01, 0.1), (0.05, 1.0)):
                config = OptimizerConfig("fedsgd", eta=eta, alpha=alpha, batch_size=batch_size, seed=7)
                W = np.random.default_rng(4).standard_normal((3, 3))
                for k in (3, 4):
                    out = fedsgd_round(W, datasets, graph, config, round_index=k)
                    coupling = 2 * alpha * (L @ W)
                    for i, ds in enumerate(datasets):
                        X, y = ds.train
                        assert batch_size < len(y) and (len(y) > 10_000) == (rows > 60) and len(y) < 50 * batch_size
                        rng = np.random.default_rng([config.seed, ds.node_id, k])
                        batch = np.sort(rng.choice(len(y), batch_size, replace=False))
                        # only the sorted batch matters, but on a tail shuffle shuffle=False is another stream
                        rng = np.random.default_rng([config.seed, ds.node_id, k])
                        unshuffled = np.sort(rng.choice(len(y), batch_size, replace=False, shuffle=False))
                        assert np.array_equal(unshuffled, batch) == (rows == 60)
                        grad = mse_gradient(X[batch], y[batch], W[i])
                        assert np.array_equal(out[i], W[i] - eta * (grad + coupling[i])), (rows, eta, k, i)
                    W = out

    def test_two_node_contraction_factor_exact(self):
        # zero data gradient: X = 0 keeps the local loss flat
        datasets = [make_ds(np.zeros((2, 1)), np.zeros(2), i + 1) for i in range(2)]
        graph = graph_from_edges(2, [(0, 1)])
        for alpha, eta in ((0.125, 0.5), (0.25, 0.5), (0.0625, 1.0)):
            config = OptimizerConfig("fedsgd", eta=eta, alpha=alpha)
            factor = 1.0 - 4.0 * alpha * eta
            W = np.array([[1.0], [0.0]])
            expected = 1.0
            for k in range(20):
                W = fedsgd_round(W, datasets, graph, config, round_index=k)
                expected = expected * factor
                assert W[0, 0] - W[1, 0] == expected

    def test_minibatch_reproducible_and_round_dependent(self):
        datasets = synthetic_datasets(rows=60)
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        config = OptimizerConfig("fedsgd", eta=0.01, alpha=0.1, batch_size=5, seed=7)
        W = np.zeros((3, 3))
        a = fedsgd_round(W, datasets, graph, config, round_index=3)
        b = fedsgd_round(W, datasets, graph, config, round_index=3)
        c = fedsgd_round(W, datasets, graph, config, round_index=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_isolated_node_takes_plain_step(self):
        datasets = synthetic_datasets()
        graph = graph_from_edges(3, [(1, 2)])  # node 0 has no neighbors
        config = OptimizerConfig("fedsgd", eta=0.05, alpha=2.0, batch_size=10_000)
        rng = np.random.default_rng(3)
        W = rng.standard_normal((3, 3))
        out = fedsgd_round(W, datasets, graph, config, round_index=0)
        expected = W[0] - 0.05 * mse_gradient(*datasets[0].train, W[0])
        assert np.array_equal(out[0], expected)

    def test_laplacian_coupling_matches_per_edge_sum(self):
        # zero data gradient isolates the coupling; node 4 has no neighbors
        datasets = [make_ds(np.zeros((2, 3)), np.zeros(2), i + 1) for i in range(5)]
        graph = graph_from_edges(5, [(0, 1), (0, 3), (1, 2), (2, 3), (1, 3)])
        config = OptimizerConfig("fedsgd", eta=0.1, alpha=0.3)
        rng = np.random.default_rng(8)
        W = rng.standard_normal((5, 3))
        out = fedsgd_round(W, datasets, graph, config, round_index=0)
        for i in range(5):
            per_edge = 2 * 0.3 * sum(W[i] - W[j] for j in graph.neighbors(i))
            np.testing.assert_allclose(out[i], W[i] - 0.1 * per_edge, rtol=1e-14, atol=1e-14)
        assert np.array_equal(out[4], W[4])

    def test_empty_train_split_rejected(self):
        empty = make_ds(np.zeros((0, 2)), np.zeros(0), 1)
        other = make_ds(np.eye(2), np.ones(2), 2)
        graph = graph_from_edges(2, [(0, 1)])
        config = OptimizerConfig("fedsgd", eta=0.1)
        with pytest.raises(DegenerateInputError):
            fedsgd_round(np.zeros((2, 2)), [empty, other], graph, config, round_index=0)
        with pytest.raises(DegenerateInputError, match="node 1: empty training split"):
            gtv_objective(np.zeros((2, 2)), [empty, other], graph, alpha=0.1)


class TestFedavgV1Round:
    def test_average_of_stepped_weights(self):
        # zero data gradient so the step leaves each row unchanged before averaging
        datasets = [make_ds(np.zeros((2, 2)), np.zeros(2), i + 1) for i in range(2)]
        config = OptimizerConfig("fedavg1", eta=0.1)
        W = np.array([[1.0, 1.0], [3.0, 3.0]])
        out = fedavg_v1_round(W, datasets, config)
        assert np.array_equal(out, np.array([[2.0, 2.0], [2.0, 2.0]]))

    def test_rows_bitwise_identical(self):
        datasets = synthetic_datasets(n=4)
        config = OptimizerConfig("fedavg1", eta=0.05)
        rng = np.random.default_rng(4)
        W = np.tile(rng.standard_normal(3), (4, 1))
        for _ in range(10):
            W = fedavg_v1_round(W, datasets, config)
            assert (W == W[0]).all()

    def test_identical_datasets_track_single_node_gd(self):
        base = synthetic_datasets(n=1)[0]
        datasets = [base] * 4
        config = OptimizerConfig("fedavg1", eta=0.05)
        W = np.zeros((4, 3))
        w_gd = np.zeros(3)
        for _ in range(100):
            W = fedavg_v1_round(W, datasets, config)
            w_gd = w_gd - 0.05 * mse_gradient(*base.train, w_gd)
            assert np.max(np.abs(W[0] - w_gd)) < 1e-12

    def test_zero_gradient_fixed_point(self):
        base = synthetic_datasets(n=1, noise=0.0)[0]
        w_star = least_squares_fit(*base.train)
        datasets = [base] * 3
        config = OptimizerConfig("fedavg1", eta=0.1)
        W = np.tile(w_star, (3, 1))
        out = fedavg_v1_round(W, datasets, config)
        assert np.max(np.abs(out - W)) < 1e-12


class TestFedavgV2Round:
    def test_hand_example(self):
        datasets = [make_ds([[1.0]], [0.0], 1), make_ds([[1.0]], [4.0], 2)]
        config = OptimizerConfig("fedavg2", eta=1.0)
        out = fedavg_v2_round(np.zeros((2, 1)), datasets, config)
        assert np.allclose(out, np.ones((2, 1)), atol=1e-12)

    def test_tiny_eta_near_fixed_point(self):
        datasets = synthetic_datasets(n=3)
        config = OptimizerConfig("fedavg2", eta=1e-12)
        rng = np.random.default_rng(5)
        W = np.tile(rng.standard_normal(3), (3, 1))
        out = fedavg_v2_round(W, datasets, config)
        assert np.max(np.abs(out - W)) < 1e-6

    def test_identical_datasets_converge_to_least_squares(self):
        base = synthetic_datasets(n=1)[0]
        datasets = [base] * 3
        config = OptimizerConfig("fedavg2", eta=1.0)
        W = np.zeros((3, 3))
        for _ in range(1000):
            W = fedavg_v2_round(W, datasets, config)
        assert np.max(np.abs(W[0] - least_squares_fit(*base.train))) < 1e-4

    def test_fixed_point_at_shared_minimizer(self):
        base = synthetic_datasets(n=1)[0]
        w_star = least_squares_fit(*base.train)
        datasets = [base] * 3
        config = OptimizerConfig("fedavg2", eta=2.0)
        out = fedavg_v2_round(np.tile(w_star, (3, 1)), datasets, config)
        assert np.max(np.abs(out - w_star)) < 1e-10

    def test_round_matches_proximal_step(self):
        datasets = synthetic_datasets(n=2)
        config = OptimizerConfig("fedavg2", eta=0.7)
        rng = np.random.default_rng(7)
        W = np.tile(rng.standard_normal(3), (2, 1))
        out = fedavg_v2_round(W, datasets, config)
        stepped = np.array([proximal_step(*ds.train, W[i], 0.7) for i, ds in enumerate(datasets)])
        assert np.array_equal(out[0], stepped.mean(axis=0))

    def test_round_matches_ridge_oracle(self, public_design):
        rng = np.random.default_rng(23)
        cases = [(synthetic_datasets(n=4, rows=25, dim=5, seed=s), eta) for s, eta in ((1, 0.3), (2, 4.0))]
        public = [make_ds(*public_design(rng, m), node_id=i + 1) for i, m in enumerate((120, 200, 310))]
        cases += [(public, eta) for eta in (0.1, 1.0, 10.0)]
        for datasets, eta in cases:
            # anchors that differ per node, as before a first averaging
            W = rng.standard_normal((len(datasets), datasets[0].train[0].shape[1]))
            out = fedavg_v2_round(W, datasets, OptimizerConfig("fedavg2", eta=eta))
            # an independent solve of each node's proximal system
            steps = []
            for (X, y), w in zip((ds.train for ds in datasets), W):
                scale = 2.0 / len(y)
                lhs = scale * (X.T @ X) + (2.0 / eta) * np.eye(X.shape[1])
                steps.append(np.linalg.solve(lhs, scale * (X.T @ y) + (2.0 / eta) * w))
            expected = np.mean(steps, axis=0)
            assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)

    @pytest.mark.parametrize("eta", [0.1, 1.0, 10.0, 1e6, 1e17, 1e300])
    def test_public_layout_null_direction_stays_empty(self, public_design, eta):
        # the rcount slots sum to the intercept, so v = (slots - intercept) / sqrt(7)
        # is in the null space of every node's X; steps from zero map range(X^T)
        # into itself and must not drift along v
        rng = np.random.default_rng(29)
        datasets = [make_ds(*public_design(rng, m), node_id=i + 1) for i, m in enumerate((300, 450, 600, 380))]
        v = np.zeros(19)
        v[:6], v[18] = 1.0, -1.0
        v /= math.sqrt(7.0)
        W, _ = train(datasets, None, OptimizerConfig("fedavg2", eta=eta, max_iterations=1000))
        assert np.max(np.abs(W @ v)) <= 1e-10


def rounds_to_converge(eigenvalues) -> int:
    """Rounds K with rho^K <= 1e-13, rho the largest |eigenvalue| of a symmetric iteration map off its eigenvalue 1.

    Eigenvalue 1 belongs to a direction no node's data sees (the public
    layout's null direction), which an iterate from zero never enters.
    """
    rho = max(abs(e) for e in eigenvalues if abs(1.0 - e) > 1e-9)
    return math.ceil(math.log(1e-13) / math.log(rho))


class TestExactTargets:
    """From zero, each algorithm reaches its exact target, the minimum-norm solve by ``np.linalg.lstsq``.

    The round count K comes from the contraction rho of the iteration map:
    rho^K <= 1e-13 bounds the error left by the map, so the rest is rounding.
    """

    @pytest.fixture(params=["gaussian", "public_layout"])
    def datasets(self, request, public_design):
        rng = np.random.default_rng(5)
        rows = (40, 50, 60, 70)
        if request.param == "gaussian":
            parts = [(rng.standard_normal((m, 3)), rng.standard_normal(m)) for m in rows]
        else:
            parts = [public_design(rng, m) for m in rows]
        return [make_ds(X, y, node_id=i + 1) for i, (X, y) in enumerate(parts)]

    @staticmethod
    def hessians(datasets):
        """Each node's (2/m) X^T X and (2/m) X^T y: the Hessian and right-hand side of its MSE's stationarity."""
        parts = [ds.train for ds in datasets]
        return np.array([2.0 / len(y) * (X.T @ X) for X, y in parts]), np.array([2.0 / len(y) * (X.T @ y) for X, y in parts])

    @staticmethod
    def assert_reaches(W, target):
        target = np.broadcast_to(target, W.shape)  # an averaging variant's server model on every node row
        assert np.linalg.norm(W - target) <= 1e-12 * np.linalg.norm(target)

    def test_full_batch_fedsgd_reaches_the_gtvmin_optimum(self, datasets):
        # (blockdiag H_i + 2 alpha L (x) I) w = g on a path graph
        H, g = self.hessians(datasets)
        n, d = g.shape
        graph = graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])
        alpha = 0.5
        A = np.kron(2.0 * alpha * graph.laplacian(), np.eye(d))
        for i in range(n):
            A[i * d : (i + 1) * d, i * d : (i + 1) * d] += H[i]
        lam = np.linalg.eigvalsh(A)
        eta = 1.0 / lam[-1]
        K = rounds_to_converge(1.0 - eta * lam)
        batch = max(len(ds.train[1]) for ds in datasets) + 1  # every node steps on its full training split
        W, _ = train(datasets, graph, OptimizerConfig("fedsgd", eta, alpha, batch, max_iterations=K, trace_every=K))
        self.assert_reaches(W, np.linalg.lstsq(A, g.ravel(), rcond=None)[0].reshape(n, d))

    def test_fedavg1_reaches_the_pooled_stationary_point(self, datasets):
        # (sum_i H_i) w = sum_i g_i
        H, g = self.hessians(datasets)
        lam = np.linalg.eigvalsh(H.mean(axis=0))
        eta = 1.0 / lam[-1]
        K = rounds_to_converge(1.0 - eta * lam)
        W, _ = train(datasets, None, OptimizerConfig("fedavg1", eta, max_iterations=K, trace_every=K))
        self.assert_reaches(W, np.linalg.lstsq(H.sum(axis=0), g.sum(axis=0), rcond=None)[0])

    def test_fedavg2_reaches_its_fixed_point(self, datasets):
        # each node's step is c_i + P_i w, so the fixed point solves (I - mean P_i) w = mean c_i
        xtx, xty, m = map(np.array, zip(*(ds.train_gram for ds in datasets)))
        offset, gain = _proximal_system(xtx, xty, m, np.array(1.0))
        P = gain.mean(axis=0)
        K = rounds_to_converge(np.linalg.eigvalsh(P))
        W, _ = train(datasets, None, OptimizerConfig("fedavg2", 1.0, max_iterations=K, trace_every=K))
        self.assert_reaches(W, np.linalg.lstsq(np.eye(len(P)) - P, offset.mean(axis=0), rcond=None)[0])


class TestStackedCells:
    @pytest.mark.parametrize(
        "field, value",
        [("algorithm", "fedavg1"), ("batch_size", 7), ("seed", 1), ("max_iterations", 9), ("trace_every", 3)],
    )
    def test_cells_must_share_settings(self, field, value):
        datasets = synthetic_datasets()
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        base = OptimizerConfig("fedsgd", eta=0.01, alpha=0.1, max_iterations=5)
        other = replace(base, eta=0.05, **{field: value})
        with pytest.raises(ParameterError, match="differ only in eta and alpha"):
            train_cells(datasets, [graph, graph], [base, other])

    def test_stack_shape_checked(self):
        # a round steps one (n, d) stack; only train_cells steps several cells
        datasets = synthetic_datasets()
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        config = OptimizerConfig("fedavg1", eta=0.1)
        cells = np.zeros((2, 3, 3))
        for one_round in (
            lambda W: fedsgd_round(W, datasets, graph, replace(config, algorithm="fedsgd"), round_index=0),
            lambda W: fedavg_v1_round(W, datasets, config),
            lambda W: fedavg_v2_round(W, datasets, replace(config, algorithm="fedavg2")),
        ):
            with pytest.raises(ShapeError, match="expected an \\(n, d\\) weight stack"):
                one_round(cells)
        with pytest.raises(ParameterError):
            train_cells(datasets, [None], [config] * 2)
        with pytest.raises(ParameterError):
            train_cells(datasets, [], [])
        fedsgd = replace(config, algorithm="fedsgd")
        with pytest.raises(ShapeError, match="round 0: graph has 2 nodes but weight stack has 3"):
            train_cells(datasets, [graph_from_edges(2, [(0, 1)])], [fedsgd])

    def test_split_losses_nan_on_empty_split(self):
        # the one (C, n) scorer behind trace points, evaluate and grid val scores
        datasets = synthetic_datasets()
        datasets[1] = replace(datasets[1], val=(np.zeros((0, 3)), np.zeros(0)))
        W = np.random.default_rng(2).standard_normal((4, 3, 3))
        losses = _losses(_split_parts(datasets, "val", W), W)
        assert losses.shape == (4, 3)
        assert np.isnan(losses[:, 1]).all()
        for c in range(4):
            for i in (0, 2):
                assert losses[c, i] == mse_loss(*datasets[i].val, W[c, i])
        with pytest.raises(ShapeError, match="does not match 3 feature columns"):
            _split_parts(datasets, "val", W[:, :, :2])


class TestTrain:
    def test_single_round_budget(self):
        # every cell of train_cells, and train on its config, is the public
        # round functions iterated from zeros, bitwise, for one round and for
        # several. In the first input the nodes' training splits lie on both
        # sides of batch_size, so some nodes draw a mini-batch and some take
        # their whole split; the second steps four cells that all draw.
        spec = SyntheticSpec(
            node_count=3,
            rows_per_node=(8, 16, 40),
            feature_dim=3,
            cluster_assignment=(0, 0, 0),
            cluster_weights=((1.5, 0.0, -0.5),),
            noise_std=0.2,
        )
        mixed = generate_synthetic(spec)
        sizes = [ds.train[0].shape[0] for ds in mixed]
        assert min(sizes) <= 9 < max(sizes)
        graphs = [graph_from_edges(3, [(0, 1), (1, 2)]), graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])]
        inputs = [
            (mixed, 9, 5, ((0.02, 0.1), (0.05, 0.5))),
            (synthetic_datasets(rows=40), 6, 3, ((0.01, 0.1), (0.05, 0.1), (0.01, 1.0), (0.2, 0.5))),
        ]
        rounds = {
            "fedsgd": lambda W, datasets, cfg, graph, k: fedsgd_round(W, datasets, graph, cfg, round_index=k),
            "fedavg1": lambda W, datasets, cfg, graph, k: fedavg_v1_round(W, datasets, cfg),
            "fedavg2": lambda W, datasets, cfg, graph, k: fedavg_v2_round(W, datasets, cfg),
        }
        for datasets, batch_size, seed, cells in inputs:
            cell_graphs = [graphs[c % 2] for c in range(len(cells))]
            for algorithm, step in rounds.items():
                for budget in (1, 4):
                    configs = [
                        OptimizerConfig(algorithm, eta, alpha, batch_size=batch_size, max_iterations=budget, seed=seed)
                        for eta, alpha in cells
                    ]
                    W, traces = train_cells(datasets, cell_graphs, configs)
                    assert W.shape == (len(cells), 3, 3)
                    for c, (graph, config) in enumerate(zip(cell_graphs, configs)):
                        Wc, trace = train(datasets, graph, config)
                        alone = np.zeros((3, 3))
                        for k in range(budget):
                            alone = step(alone, datasets, config, graph, k)
                        assert np.array_equal(Wc, alone) and np.array_equal(W[c], alone), (algorithm, budget, c)
                        assert trace.rounds == traces[c].rounds == [budget]
                        assert trace.objective == traces[c].objective

    @pytest.mark.parametrize("algorithm", ["fedsgd", "fedavg1", "fedavg2"])
    def test_wrong_feature_width_rejected(self, algorithm):
        datasets = synthetic_datasets()
        X, y = datasets[2].train
        datasets[2] = replace(datasets[2], train=(X[:, :2], y))
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        config = OptimizerConfig(algorithm, eta=0.05, alpha=0.1, max_iterations=3)
        with pytest.raises(ShapeError, match="round 0: weight vector of shape .* does not match 2 feature columns"):
            train(datasets, graph, config)
        one_round = {
            "fedsgd": lambda W: fedsgd_round(W, datasets, graph, config, round_index=0),
            "fedavg1": lambda W: fedavg_v1_round(W, datasets, config),
            "fedavg2": lambda W: fedavg_v2_round(W, datasets, config),
        }[algorithm]
        with pytest.raises(ShapeError, match="does not match 2 feature columns"):
            one_round(np.zeros((3, 3)))

    def test_fedsgd_requires_graph(self):
        datasets = synthetic_datasets()
        config = OptimizerConfig("fedsgd", eta=0.01)
        with pytest.raises(ParameterError):
            train(datasets, None, config)

    def test_projection_invariant_final_weights(self):
        datasets = synthetic_datasets(n=4)
        for algo in ("fedavg1", "fedavg2"):
            config = OptimizerConfig(algo, eta=0.05, max_iterations=30)
            W, _ = train(datasets, None, config)
            assert (W == W[0]).all()

    def test_trace_cadence_and_final_round(self):
        datasets = synthetic_datasets()
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        config = OptimizerConfig(
            "fedsgd", eta=0.001, alpha=0.1, max_iterations=120, trace_every=50
        )
        _, trace = train(datasets, graph, config)
        assert trace.rounds == [50, 100, 120]

    def test_trace_every_round_lengths(self):
        datasets = synthetic_datasets()
        config = OptimizerConfig("fedavg1", eta=0.05, max_iterations=25, trace_every=1)
        W, trace = train(datasets, None, config)
        assert trace.rounds == list(range(1, 26))
        assert len(trace.objective) == len(trace.node_losses) == 25

    def test_trace_values_recomputable(self):
        datasets = synthetic_datasets()
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        config = OptimizerConfig(
            "fedsgd", eta=0.001, alpha=0.2, max_iterations=10, trace_every=10
        )
        W, trace = train(datasets, graph, config)
        assert trace.objective[-1] == gtv_objective(W, datasets, graph, 0.2)
        losses = [mse_loss(*ds.train, W[i]) for i, ds in enumerate(datasets)]
        assert np.array_equal(trace.node_losses[-1], losses)

    @pytest.mark.parametrize("algorithm", ["fedsgd", "fedavg1", "fedavg2"])
    def test_every_trace_point_recomputable_across_batches(self, algorithm):
        # the two cells' 7 trace points fit in the training features, so each
        # trace is scored when read, P points at a time by the one-cell rule;
        # with 1 < P < 7 the batches end at points P, 2P, ... and at the final
        # round, so points on both sides of a batch boundary and a short last
        # batch are all checked against the public round functions stepped
        # from zero
        spec = SyntheticSpec(
            node_count=6,
            rows_per_node=(30, 34, 38, 42, 46, 50),
            feature_dim=3,
            cluster_assignment=(0, 0, 0, 1, 1, 1),
            cluster_weights=((1.5, 0.0, -0.5), (-1.0, 2.0, 0.5)),
            noise_std=0.2,
            seed=4,
        )
        datasets = generate_synthetic(spec)
        rows = [ds.train[0].shape[0] for ds in datasets]
        cells = ((0.02, 0.1), (0.05, 0.3))
        assert 7 * len(cells) * 6 * 3 <= sum(rows) * 3
        P = sum(rows) // max(rows)
        assert 1 < P < 7
        path = [(i, i + 1) for i in range(5)]
        graphs = [graph_from_edges(6, path + [(5, 0)]), graph_from_edges(6, path)]
        configs = [
            OptimizerConfig(algorithm, eta, alpha, batch_size=25, max_iterations=20, trace_every=3, seed=7)
            for eta, alpha in cells
        ]
        step = {
            "fedsgd": lambda W, cfg, graph, k: fedsgd_round(W, datasets, graph, cfg, round_index=k),
            "fedavg1": lambda W, cfg, graph, k: fedavg_v1_round(W, datasets, cfg),
            "fedavg2": lambda W, cfg, graph, k: fedavg_v2_round(W, datasets, cfg),
        }[algorithm]
        _, traces = train_cells(datasets, graphs, configs)
        for graph, config, trace in zip(graphs, configs, traces):
            assert trace.rounds == [3, 6, 9, 12, 15, 18, 20]
            alone, point = np.zeros((6, 3)), 0
            for k in range(20):
                alone = step(alone, config, graph, k)
                if k + 1 not in trace.rounds:
                    continue
                losses = [mse_loss(*ds.train, alone[i]) for i, ds in enumerate(datasets)]
                objective = (
                    gtv_objective(alone, datasets, graph, config.alpha) if algorithm == "fedsgd" else float(np.mean(losses))
                )
                assert np.array_equal(trace.node_losses[point], losses), (k + 1, config)
                assert trace.objective[point] == objective, (k + 1, config)
                point += 1
            assert point == 7

    def test_trace_points_scored_in_batches(self, monkeypatch):
        # a count, not a timing: each node's residual covers a batch of
        # P = sum_i m_i // max_i m_i trace points (one cell), so 40 traced
        # rounds make at most n * ceil(40 / P) calls, not one per node and point
        calls = []

        def counting(X, y, W):
            calls.append(len(W))
            return _mse_rows(X, y, W)

        monkeypatch.setattr(fedgtv.fed_optimizers, "_mse_rows", counting)
        spec = SyntheticSpec(
            node_count=12,
            rows_per_node=tuple(30 + 30 * i // 11 for i in range(12)),
            feature_dim=3,
            cluster_assignment=(0,) * 12,
            cluster_weights=((1.5, 0.0, -0.5),),
            noise_std=0.2,
        )
        datasets = generate_synthetic(spec)
        rows = [ds.train[0].shape[0] for ds in datasets]
        P = sum(rows) // max(rows)
        _, trace = train(datasets, None, OptimizerConfig("fedavg1", eta=0.05, max_iterations=40, trace_every=1))
        assert len(trace.rounds) == 40 and P > 1
        assert 0 < len(calls) <= 12 * math.ceil(40 / P) < 12 * 40
        assert sum(calls) == 12 * 40

    @pytest.mark.parametrize("algorithm", ["fedsgd", "fedavg1", "fedavg2"])
    @pytest.mark.parametrize(
        "cells, trace_every, deferred", [(4, 1, False), (4, 10, True), (1, 10, False)], ids=["eager", "deferred", "one-cell"]
    )
    def test_multi_cell_traces_scored_when_read_while_they_fit(self, monkeypatch, algorithm, cells, trace_every, deferred):
        # several cells keep their trace points' weight stacks, and each trace
        # scores only when read, by the one-cell P, while points * C * n * d
        # fits in the training features (sum_i m_i * d); past that, and always
        # for one cell, every point is scored while the cells train, by the
        # C-cell P. Either way a trace is its solo run's.
        calls = []

        def counting(X, y, W):
            calls.append(len(W))
            return _mse_rows(X, y, W)

        monkeypatch.setattr(fedgtv.fed_optimizers, "_mse_rows", counting)
        datasets = synthetic_datasets()
        graphs = [graph_from_edges(3, [(0, 1), (1, 2)]), graph_from_edges(3, [(0, 1), (1, 2), (0, 2)])] * 2
        configs = [
            OptimizerConfig(algorithm, eta, alpha, batch_size=8, max_iterations=40, trace_every=trace_every)
            for eta, alpha in ((0.05, 0.1), (0.01, 0.3), (0.02, 1.0), (0.03, 0.0))[:cells]
        ]
        points = math.ceil(40 / trace_every)
        rows = [ds.train[0].shape[0] for ds in datasets]
        assert (points * cells * 3 * 3 <= sum(rows) * 3) == (deferred or cells == 1)
        P = sum(rows) // max(rows)
        assert 1 < P < 4  # a read trace of 4 points takes two batches
        _, traces = train_cells(datasets, graphs[:cells], configs)
        # (rows scored, stacked residuals) on the training splits
        eager = (cells * points * 3, 3 * math.ceil(points / max(1, P // cells)))
        assert (sum(calls), len(calls)) == ((0, 0) if deferred else eager)
        for graph, config, trace in zip(graphs, configs, traces):
            calls.clear()
            objective, node_losses = trace.objective, trace.node_losses
            assert (sum(calls), len(calls)) == ((points * 3, 3 * math.ceil(points / P)) if deferred else (0, 0))
            assert trace.objective is objective  # scored once
            _, solo = train(datasets, graph, config)
            assert trace.rounds == solo.rounds and objective == solo.objective
            assert np.array_equal(node_losses, solo.node_losses)

    def test_deferred_trace_scores_under_the_callers_error_state(self):
        # a diverged cell's trace, read where no errstate is active, warns no
        # more than scoring it while training, under the caller's errstate,
        # does; the suite turns every RuntimeWarning into an error
        datasets = synthetic_datasets()
        configs = [OptimizerConfig("fedavg1", eta, max_iterations=40, trace_every=10) for eta in (0.05, 1e9)]
        with np.errstate(over="ignore", invalid="ignore"):
            _, traces = train_cells(datasets, [None, None], configs)
            _, eager = train(datasets, None, configs[1])
        assert np.isfinite(traces[0].objective).all()
        assert not np.isfinite(traces[1].objective[-1])
        assert np.array_equal(traces[1].objective, eager.objective, equal_nan=True)
        assert np.array_equal(traces[1].node_losses, eager.node_losses, equal_nan=True)

    def test_full_batch_tracks_row_form_on_public_layout(self, public_design):
        # the null direction of the rank-18 layout (rcount slots minus intercept)
        # is never damped, so a Gram-form step must not drift along it over many
        # rounds: compare against the row-form gradient (2/m) X^T (X w - y)
        rng = np.random.default_rng(17)
        datasets = [make_ds(*public_design(rng, m), node_id=i + 1) for i, m in enumerate((300, 450, 600, 380))]
        graph = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        config = OptimizerConfig("fedsgd", eta=0.05, alpha=0.2, batch_size=10_000, max_iterations=1000)
        W, _ = train(datasets, graph, config)
        L = graph.laplacian()
        expected = np.zeros((4, 19))
        for _ in range(1000):
            grad = np.array(
                [(2.0 / len(y)) * (X.T @ (X @ w - y)) for (X, y), w in zip((ds.train for ds in datasets), expected)]
            )
            expected = expected - 0.05 * (grad + 0.4 * (L @ expected))
        assert np.linalg.norm(W - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_mean_loss_trace_for_averaging_variants(self):
        datasets = synthetic_datasets()
        config = OptimizerConfig("fedavg2", eta=0.5, max_iterations=5, trace_every=5)
        W, trace = train(datasets, None, config)
        losses = [mse_loss(*ds.train, W[i]) for i, ds in enumerate(datasets)]
        assert trace.objective[-1] == float(np.mean(losses))

    def test_deterministic_trace(self):
        datasets = synthetic_datasets(rows=40)
        graph = graph_from_edges(3, [(0, 1), (1, 2)])
        config = OptimizerConfig(
            "fedsgd", eta=0.01, alpha=0.1, batch_size=8, max_iterations=40, seed=11
        )
        Wa, ta = train(datasets, graph, config)
        Wb, tb = train(datasets, graph, config)
        assert np.array_equal(Wa, Wb)
        assert ta.objective == tb.objective

    @pytest.mark.parametrize("algorithm", ["fedsgd", "fedavg1", "fedavg2"])
    def test_round_error_carries_iteration_index(self, algorithm):
        empty = make_ds(np.zeros((0, 2)), np.zeros(0), 1)
        other = make_ds(np.eye(2), np.ones(2), 2)
        graph = graph_from_edges(2, [(0, 1)])
        config = OptimizerConfig(algorithm, eta=0.1)
        with pytest.raises(DegenerateInputError, match="round 0: node 1: empty training split"):
            train([empty, other], graph, config)

    def test_no_datasets(self):
        with pytest.raises(DegenerateInputError):
            train([], None, OptimizerConfig("fedavg1", eta=0.1))



def mixed_stack():
    """A two-cell fedsgd stack whose nodes lie on both sides of batch_size, over an odd round count."""
    spec = SyntheticSpec(
        node_count=4,
        rows_per_node=(60, 8, 90, 40),
        feature_dim=3,
        cluster_assignment=(0, 0, 1, 1),
        cluster_weights=((1.5, 0.0, -0.5), (-1.0, 0.5, 0.5)),
        noise_std=0.2,
    )
    datasets = generate_synthetic(spec)
    assert min(len(ds.train[1]) for ds in datasets) <= 12 < max(len(ds.train[1]) for ds in datasets)
    graphs = [graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]), graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])]
    configs = [
        OptimizerConfig("fedsgd", eta, alpha, batch_size=12, max_iterations=41, seed=5, trace_every=4)
        for eta, alpha in ((0.02, 0.1), (0.05, 1.0))
    ]
    return datasets, graphs, configs


def trained_bits(monkeypatch, helper):
    """The final weights and trace values of :func:`mixed_stack`, the draw helper forced on or off."""
    monkeypatch.setattr(fedgtv.fed_optimizers, "_HELPER_DRAWS", 0 if helper else math.inf)
    W, traces = train_cells(*mixed_stack())
    return W.tobytes(), [(t.rounds, t.objective, [losses.tobytes() for losses in t.node_losses]) for t in traces]


class TestDrawHelper:
    """train_cells with a forked helper drawing every odd round's mini-batches, against one process."""

    def test_helper_gives_the_same_bits(self, monkeypatch, forks):
        alone = trained_bits(monkeypatch, helper=False)
        assert forks == []
        assert trained_bits(monkeypatch, helper=True) == alone
        assert len(forks) == 1

    @pytest.mark.parametrize("sent", [0, 3], ids=["before_sending", "after_three_rounds"])
    def test_helper_that_dies_gives_the_same_bits(self, monkeypatch, forks, sent):
        alone = trained_bits(monkeypatch, helper=False)
        send = fedgtv.fed_optimizers._Run._send_draws

        def dying(self, rounds, pipe):
            send(self, 2 * sent, pipe)  # the odd rounds below 2 * sent
            os._exit(1)

        monkeypatch.setattr(fedgtv.fed_optimizers._Run, "_send_draws", dying)
        assert trained_bits(monkeypatch, helper=True) == alone
        assert len(forks) == 1

    def test_fork_failure_stays_in_one_process(self, monkeypatch, forks):
        alone = trained_bits(monkeypatch, helper=False)
        pipes, pipe = [], os.pipe
        monkeypatch.setattr(os, "pipe", lambda: pipes.append(pipe()) or pipes[-1])

        def no_fork():
            raise OSError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        assert trained_bits(monkeypatch, helper=True) == alone
        assert len(pipes) == 1
        for fd in pipes[0]:
            with pytest.raises(OSError):  # closed again
                os.fstat(fd)

    def test_error_mid_run_kills_and_reaps_the_helper(self, monkeypatch, forks):
        send, step = fedgtv.fed_optimizers._Run._send_draws, fedgtv.fed_optimizers._Run.step

        def stalling(self, rounds, pipe):
            send(self, 6, pipe)  # odd rounds 1, 3 and 5, then still at work
            time.sleep(60)

        def failing(self, W, k):
            if k == 6:
                raise RuntimeError("stopped at round 6")
            return step(self, W, k)

        monkeypatch.setattr(fedgtv.fed_optimizers._Run, "_send_draws", stalling)
        monkeypatch.setattr(fedgtv.fed_optimizers._Run, "step", failing)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="round 6"):
            trained_bits(monkeypatch, helper=True)
        assert len(forks) == 1 and time.monotonic() - start < 30  # killed, not waited for
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_rounds_and_small_runs_fork_nothing(self, monkeypatch, forks):
        datasets, graphs, configs = mixed_stack()
        sampled = sum(len(ds.train[1]) > configs[0].batch_size for ds in datasets)
        assert sampled * configs[0].max_iterations < fedgtv.fed_optimizers._HELPER_DRAWS
        train_cells(datasets, graphs, configs)
        monkeypatch.setattr(fedgtv.fed_optimizers, "_HELPER_DRAWS", 0)
        for k in range(3):
            fedsgd_round(np.zeros((4, 3)), datasets, graphs[0], configs[0], round_index=k)
        assert forks == []
