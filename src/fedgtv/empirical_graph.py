"""Empirical graph over nodes, built from locally pretrained weight vectors.

Each node fits its own training split by minimum-norm least squares without
sharing data; the fitted weight vectors act as compact dataset
representations, and pairwise Euclidean distances between them rank neighbor
candidates.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .data_pipeline import LocalDataset
from .errors import DegenerateGraphError, DegenerateInputError, ParameterError, ShapeError
from .model_core import least_squares_fit

__all__ = [
    "EmpiricalGraph",
    "build_knn_graph",
    "discrepancy_matrix",
    "export_edge_list",
    "graph_summary",
    "is_connected",
    "pretrain_local_weights",
]


@dataclass
class EmpiricalGraph:
    """Undirected graph with binary edge weights over n nodes.

    The adjacency matrix is symmetric with a zero diagonal. Graphs built by
    :func:`build_knn_graph` guarantee every node degree >= min_degree (union
    symmetrization can only add edges).
    """

    adjacency: np.ndarray
    min_degree: int

    def __post_init__(self):
        A = np.asarray(self.adjacency, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ShapeError(f"adjacency must be square, got shape {A.shape}")
        if not np.array_equal(A, A.T):
            raise ShapeError("adjacency must be symmetric")
        if np.any(np.diagonal(A) != 0.0):
            raise ShapeError("adjacency diagonal must be zero")
        if not np.isin(A, (0.0, 1.0)).all():
            raise ShapeError("edge weights must be binary")
        if self.min_degree < 1:
            raise ParameterError(f"min_degree must be >= 1, got {self.min_degree}")
        self.adjacency = A

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def neighbors(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.adjacency[i])

    def degrees(self) -> np.ndarray:
        return self.adjacency.sum(axis=1).astype(int)

    def laplacian(self) -> np.ndarray:
        """Graph Laplacian ``diag(degrees) - adjacency``."""
        return np.diag(self.degrees()) - self.adjacency

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edges as (i, j) pairs with i < j, 0-based."""
        ii, jj = np.nonzero(np.triu(self.adjacency))
        return list(zip(ii.tolist(), jj.tolist()))


def pretrain_local_weights(datasets: Sequence[LocalDataset]) -> np.ndarray:
    """Fit every node's training split by minimum-norm least squares, independently.

    Returns the (n, d) stack of fitted weight vectors. No information crosses
    nodes. Raises DegenerateInputError naming the offending node when a
    training split is empty or not finite.
    """
    weights = []
    for ds in datasets:
        X, y = ds.train
        try:
            weights.append(least_squares_fit(X, y))
        except DegenerateInputError as exc:
            raise DegenerateInputError(f"node {ds.node_id}: {exc}") from exc
    return np.array(weights)


def discrepancy_matrix(weights) -> np.ndarray:
    """Symmetric matrix of pairwise Euclidean distances between weight vectors."""
    W = np.asarray(weights, dtype=float)
    if W.ndim != 2:
        raise ShapeError(f"expected an (n, d) weight stack, got shape {W.shape}")
    n = W.shape[0]
    if n < 2:
        raise DegenerateGraphError(f"need at least 2 nodes, got {n}")
    return np.linalg.norm(W[:, None] - W[None], axis=-1)


def build_knn_graph(disc, d: int) -> EmpiricalGraph:
    """Connect each node to its d smallest-discrepancy peers, union-symmetrized.

    Every node selects the d other nodes with smallest discrepancy (ties
    broken by lower node index); an edge exists when either endpoint selected
    the other, so every degree ends up >= d. All edge weights are 1.
    """
    disc = np.asarray(disc, dtype=float)
    if disc.ndim != 2 or disc.shape[0] != disc.shape[1]:
        raise ShapeError(f"discrepancy matrix must be square, got shape {disc.shape}")
    n = disc.shape[0]
    if n < 2:
        raise DegenerateGraphError(f"need at least 2 nodes, got {n}")
    if not np.array_equal(disc, disc.T):
        raise ShapeError("discrepancy matrix must be symmetric")
    if np.any(np.diagonal(disc) != 0.0):
        raise ShapeError("discrepancy diagonal must be zero")
    if np.any(disc < 0):
        raise ShapeError("discrepancies must be non-negative")
    if not 1 <= d <= n - 1:
        raise ParameterError(f"degree d={d} outside [1, {n - 1}]")
    ranked = disc.copy()
    np.fill_diagonal(ranked, np.inf)
    A = np.zeros((n, n))
    A[np.arange(n)[:, None], np.argsort(ranked, axis=1, kind="stable")[:, :d]] = 1.0
    return EmpiricalGraph(adjacency=np.maximum(A, A.T), min_degree=d)


def is_connected(graph: EmpiricalGraph) -> bool:
    """True iff every node is reachable from node 0."""
    adjacent = graph.adjacency > 0
    seen = np.arange(graph.n) == 0
    while not seen.all():
        grown = seen | adjacent[seen].any(axis=0)
        if np.array_equal(grown, seen):
            return False
        seen = grown
    return True


def graph_summary(graph: EmpiricalGraph) -> dict:
    """Plain-dict summary used by reports and the graph export command."""
    return {
        "nodes": graph.n,
        "min_degree": graph.min_degree,
        "degrees": graph.degrees().tolist(),
        "edge_count": len(graph.edges()),
        "connected": is_connected(graph),
    }


def export_edge_list(graph: EmpiricalGraph, path) -> Path:
    """Write one "i j weight" line per undirected edge, 1-based indices."""
    path = Path(path)
    lines = [f"{i + 1} {j + 1} 1" for i, j in graph.edges()]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")
    return path
