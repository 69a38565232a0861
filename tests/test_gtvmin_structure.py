"""GTVMin's structure as test oracles: component decoupling, node relabelling and alpha = 0.

GTVMin decouples into one problem per connected component of its graph
(SarcheshmehPour et al., arXiv:2105.12769), no result may depend on the order
in which the nodes are listed, and at alpha = 0 the graph plays no part. Each
is checked with :func:`train` on ten nodes in two clusters, whose degree-2 kNN
graph has two components, for full-batch (20-row) and sampled (300-row, batch
64) nodes alike. A sampled node's draws are keyed by its ``node_id``, so a
node draws the same batches whichever nodes train beside it.
"""
import numpy as np
import pytest

from fedgtv.data_pipeline import SyntheticSpec, generate_synthetic
from fedgtv.empirical_graph import EmpiricalGraph, build_knn_graph, discrepancy_matrix, pretrain_local_weights
from fedgtv.fed_optimizers import Algorithm, OptimizerConfig, train

ALPHAS = [1.0, 0.1, 0.0]


def components(graph: EmpiricalGraph) -> list[list[int]]:
    """Each connected component's node indices, in ascending order."""
    reach = np.eye(graph.n) + graph.adjacency
    for _ in range(graph.n):
        reach = np.minimum(reach @ reach, 1.0)
    return [list(c) for c in dict.fromkeys(tuple(np.flatnonzero(row).tolist()) for row in reach)]


@pytest.fixture(scope="module", params=[20, 300], ids=["full_batch", "sampled"])
def nodes(request):
    """The clustered nodes of the GTVMin-regime acceptance test at ``rows`` rows each, and their degree-2 graph."""
    rng = np.random.default_rng(0)
    cluster_weights = tuple(tuple(rng.standard_normal(8).tolist()) for _ in range(4))[2:]
    spec = SyntheticSpec(10, (request.param,) * 10, 8, (0,) * 5 + (1,) * 5, cluster_weights, noise_std=1.0, seed=3)
    datasets = generate_synthetic(spec)
    return datasets, build_knn_graph(discrepancy_matrix(pretrain_local_weights(datasets)), 2)


def config(algorithm: Algorithm, alpha: float = 0.0) -> OptimizerConfig:
    return OptimizerConfig(algorithm, eta=0.1, alpha=alpha, batch_size=64, max_iterations=300)


def test_the_graph_splits_the_clusters(nodes):
    datasets, graph = nodes
    assert components(graph) == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]
    sampled = [len(ds.train[1]) > 64 for ds in datasets]
    assert sampled == [len(datasets[0].train[1]) > 64] * 10  # all nodes full batch, or all sampled


@pytest.mark.parametrize("alpha", ALPHAS)
def test_each_component_trains_alone_bitwise(nodes, alpha):
    datasets, graph = nodes
    W, _ = train(datasets, graph, config(Algorithm.FEDSGD, alpha))
    assert np.isfinite(W).all()
    for part in components(graph):
        induced = EmpiricalGraph(graph.adjacency[np.ix_(part, part)], graph.min_degree)
        alone, _ = train([datasets[i] for i in part], induced, config(Algorithm.FEDSGD, alpha))
        assert np.array_equal(alone, W[part])


def test_alpha_zero_is_the_empty_graph(nodes):
    datasets, graph = nodes
    W, _ = train(datasets, graph, config(Algorithm.FEDSGD))
    empty, _ = train(datasets, EmpiricalGraph(np.zeros((10, 10)), 1), config(Algorithm.FEDSGD))
    assert np.array_equal(W, empty)


@pytest.mark.parametrize(
    "algorithm, alpha",
    [*((Algorithm.FEDSGD, alpha) for alpha in ALPHAS), (Algorithm.FEDAVG1, 0.0), (Algorithm.FEDAVG2, 0.0)],
    ids=[*(f"fedsgd-alpha={alpha:g}" for alpha in ALPHAS), "fedavg1", "fedavg2"],
)
def test_reversed_node_order_permutes_the_weights(nodes, algorithm, alpha):
    # the averaging variants and the graph coupling sum nodes in another order: an ulp-level
    # difference, none where nothing is summed over neighbours (fedsgd at alpha = 0)
    datasets, graph = nodes
    W, _ = train(datasets, graph, config(algorithm, alpha))
    reversed_graph = EmpiricalGraph(graph.adjacency[::-1, ::-1], graph.min_degree)
    flipped, _ = train(datasets[::-1], reversed_graph, config(algorithm, alpha))
    assert np.abs(flipped[::-1] - W).max() <= 1e-15
    if algorithm is Algorithm.FEDSGD and alpha == 0.0:
        assert np.array_equal(flipped[::-1], W)
