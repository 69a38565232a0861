import numpy as np
import pytest
from conftest import graph_from_edges

from fedgtv.data_pipeline import SyntheticSpec, generate_synthetic
from fedgtv.empirical_graph import (
    EmpiricalGraph,
    build_knn_graph,
    discrepancy_matrix,
    export_edge_list,
    graph_summary,
    is_connected,
    pretrain_local_weights,
)
from fedgtv.errors import (
    DegenerateGraphError,
    DegenerateInputError,
    ParameterError,
    ShapeError,
)


def random_discrepancies(rng, n):
    M = np.abs(rng.standard_normal((n, n)))
    M = (M + M.T) / 2
    np.fill_diagonal(M, 0.0)
    return M


def reference_knn_adjacency(disc, d):
    """Per-node loop oracle for build_knn_graph: each node marks its d nearest peers both ways."""
    ranked = np.array(disc, dtype=float)
    np.fill_diagonal(ranked, np.inf)
    n = ranked.shape[0]
    A = np.zeros((n, n))
    for i in range(n):
        nearest = np.argsort(ranked[i], kind="stable")[:d]
        A[i, nearest] = 1.0
        A[nearest, i] = 1.0
    return A


class TestEmpiricalGraph:
    def test_neighbors_degrees_edges(self):
        g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4
        assert np.flatnonzero(g.adjacency[1]).tolist() == [0, 2]
        assert g.degrees().tolist() == [1, 2, 2, 1]
        assert g.edges() == [(0, 1), (1, 2), (2, 3)]

    def test_validation(self):
        with pytest.raises(ShapeError):
            EmpiricalGraph(adjacency=np.ones((2, 3)), min_degree=1)
        with pytest.raises(ShapeError):
            EmpiricalGraph(adjacency=np.array([[0.0, 1.0], [0.0, 0.0]]), min_degree=1)
        with pytest.raises(ShapeError):
            EmpiricalGraph(adjacency=np.array([[1.0, 1.0], [1.0, 0.0]]), min_degree=1)
        with pytest.raises(ShapeError):
            EmpiricalGraph(adjacency=np.array([[0.0, 0.5], [0.5, 0.0]]), min_degree=1)
        with pytest.raises(ParameterError):
            EmpiricalGraph(adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]), min_degree=0)


class TestDiscrepancyMatrix:
    def test_identical_vectors(self):
        for W in (np.ones((3, 4)), np.tile([1.0, -2.0, 3.0], (2, 1))):
            n = W.shape[0]
            assert np.array_equal(discrepancy_matrix(W), np.zeros((n, n)))

    def test_collinear_hand_values(self):
        W = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        D = discrepancy_matrix(W)
        assert D[0, 1] == 5.0
        assert D[0, 2] == 10.0
        assert D[1, 2] == 5.0
        assert discrepancy_matrix([[0.0, 0.0], [3.0, 4.0]])[1, 0] == 5.0

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(0)
        for W in (rng.standard_normal((6, 3)), rng.standard_normal((10, 5))):
            n = W.shape[0]
            D = discrepancy_matrix(W)
            assert np.array_equal(D, D.T)
            assert np.array_equal(np.diagonal(D), np.zeros(n))
            assert (D >= 0).all()
            for i, j in ((0, 1), (2, n - 1)):
                assert D[i, j] == pytest.approx(np.linalg.norm(W[i] - W[j]), rel=1e-14)

    def test_single_node_rejected(self):
        with pytest.raises(DegenerateGraphError):
            discrepancy_matrix(np.ones((1, 3)))
        with pytest.raises(ShapeError):
            discrepancy_matrix(np.ones(3))


class TestBuildKnnGraph:
    def test_complete_graph_at_max_degree(self):
        rng = np.random.default_rng(1)
        g = build_knn_graph(random_discrepancies(rng, 5), d=4)
        assert np.array_equal(g.adjacency, np.ones((5, 5)) - np.eye(5))

    def test_hand_example_union_symmetrization(self):
        # nodes 0,1,2 with d(0,1)=1, d(0,2)=2, d(1,2)=1.5 and d=1:
        # 0 selects 1, 1 selects 0, 2 selects 1 -> edges {(0,1),(1,2)}
        D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
        g = build_knn_graph(D, d=1)
        assert g.edges() == [(0, 1), (1, 2)]
        assert g.degrees().tolist() == [1, 2, 1]

    def test_tie_break_prefers_lower_index(self):
        # node 2 is equidistant from 0 and 1; it must select 0
        D = np.array([[0.0, 9.0, 2.0], [9.0, 0.0, 2.0], [2.0, 2.0, 0.0]])
        g = build_knn_graph(D, d=1)
        assert (0, 2) in g.edges()

    def test_min_degree_property(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            d = int(rng.integers(1, n))
            g = build_knn_graph(random_discrepancies(rng, n), d)
            assert (g.degrees() >= d).all()
            assert g.min_degree == d

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        D = random_discrepancies(rng, 8)
        a = build_knn_graph(D, 3)
        b = build_knn_graph(D, 3)
        assert np.array_equal(a.adjacency, b.adjacency)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        D = random_discrepancies(rng, 7)
        base = build_knn_graph(D, 2)
        scaled = build_knn_graph(17.3 * D, 2)
        assert np.array_equal(base.adjacency, scaled.adjacency)

    def test_matches_per_node_loop(self):
        rng = np.random.default_rng(5)
        for trial in range(400):
            n = int(rng.integers(2, 40))
            D = random_discrepancies(rng, n)
            if trial % 2:  # few distinct integer values: many ties
                D = np.round(3 * D)
            d = int(rng.integers(1, n))
            assert np.array_equal(build_knn_graph(D, d).adjacency, reference_knn_adjacency(D, d)), (n, d)
        for n in (2, 3, 6):  # every pair tied
            D = np.ones((n, n)) - np.eye(n)
            for d in range(1, n):
                assert np.array_equal(build_knn_graph(D, d).adjacency, reference_knn_adjacency(D, d))

    def test_degree_bounds(self):
        D = np.zeros((3, 3))
        for d in (0, 3):
            with pytest.raises(ParameterError):
                build_knn_graph(D, d)

    def test_input_validation(self):
        with pytest.raises(ShapeError):
            build_knn_graph(np.array([[0.0, 1.0], [2.0, 0.0]]), 1)
        with pytest.raises(ShapeError):
            build_knn_graph(np.array([[1.0, 1.0], [1.0, 0.0]]), 1)
        with pytest.raises(ShapeError):
            build_knn_graph(np.array([[0.0, -1.0], [-1.0, 0.0]]), 1)
        with pytest.raises(ShapeError, match="must be square"):
            build_knn_graph(np.zeros((2, 3)), 1)
        with pytest.raises(DegenerateGraphError, match="need at least 2 nodes, got 1"):
            build_knn_graph(np.zeros((1, 1)), 1)


class TestIsConnected:
    def test_complete_graph(self):
        g = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert is_connected(g)

    def test_two_disjoint_pairs(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        assert not is_connected(g)

    def test_path_graph(self):
        g = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert is_connected(g)


def cluster_datasets(noise=0.0, seed=0):
    spec = SyntheticSpec(
        node_count=4,
        rows_per_node=(40,) * 4,
        feature_dim=3,
        cluster_assignment=(0, 0, 1, 1),
        cluster_weights=((5.0, 5.0, 5.0), (-5.0, -5.0, -5.0)),
        noise_std=noise,
        seed=seed,
    )
    return generate_synthetic(spec), spec


class TestPretrainLocalWeights:
    def test_identical_data_gives_identical_weights(self):
        datasets, _ = cluster_datasets()
        clones = [datasets[0], datasets[0], datasets[0]]
        W = pretrain_local_weights(clones)
        assert np.array_equal(W[0], W[1]) and np.array_equal(W[0], W[2])

    def test_noiseless_recovery(self):
        datasets, spec = cluster_datasets()
        W = pretrain_local_weights(datasets)
        for i in range(4):
            truth = spec.cluster_weights[spec.cluster_assignment[i]]
            assert np.allclose(W[i], truth, atol=1e-8)

    def test_singular_node_identified(self):
        datasets, _ = cluster_datasets()

        def with_train(ds, X):
            return type(ds)(
                node_id=ds.node_id,
                train=(X, ds.train[1]),
                val=ds.val,
                test=ds.test,
                numeric_columns=ds.numeric_columns,
            )

        X = datasets[1].train[0].copy()
        X[:, 0] = X[:, 1]  # duplicate column: rank deficient, fitted at minimum norm
        W = pretrain_local_weights([datasets[0], with_train(datasets[1], X)])
        assert np.allclose(W[1], np.linalg.pinv(X) @ datasets[1].train[1], rtol=0, atol=1e-10)
        X[3, 2] = np.nan
        with pytest.raises(DegenerateInputError, match="node 2: least squares input is not finite"):
            pretrain_local_weights([datasets[0], with_train(datasets[1], X)])


class TestExports:
    def test_edge_list_format(self, tmp_path):
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        path = export_edge_list(g, tmp_path / "g.edges")
        assert path.read_text() == "1 2 1\n2 3 1\n"

    def test_summary_fields(self):
        g = graph_from_edges(4, [(0, 1), (2, 3)])
        s = graph_summary(g)
        assert s == {
            "nodes": 4,
            "min_degree": 1,
            "degrees": [1, 1, 1, 1],
            "edge_count": 2,
            "connected": False,
        }
