"""Reference solvers the output checks compare the program against.

Everything here is plain numpy/scipy written from the documented maths, not
from fedgtv's code, so a fault in the program cannot hide in its own
reference. A "part" is one node's training split as an ``(X, y)`` pair.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.sparse.csgraph import connected_components


def lstsq_weights(X, y) -> np.ndarray:
    """Minimum-norm least-squares weights; well defined for rank-deficient X."""
    return np.linalg.lstsq(X, y, rcond=None)[0]


def mse(X, y, w) -> float:
    r = y - X @ w
    return float(r @ r) / len(y)


def min_mse(X, y) -> float:
    """Lowest train MSE any linear model can reach on one node."""
    return mse(X, y, lstsq_weights(X, y))


def pooled_fit(parts) -> tuple[np.ndarray, float]:
    """One shared model minimising the mean over nodes of the per-node MSE.

    This is the fixed point of server averaging of full-batch gradient steps
    (fedavg1): every node weighs 1/n, whatever its row count. Rows of node i
    are scaled by 1/sqrt(m_i), which turns the objective into one stacked
    least-squares problem. Returns the weights and the objective value.
    """
    A = np.vstack([X / np.sqrt(len(y)) for X, y in parts])
    b = np.concatenate([y / np.sqrt(len(y)) for X, y in parts])
    w = lstsq_weights(A, b)
    return w, float(np.mean([mse(X, y, w) for X, y in parts]))


def union_knn(weights, d: int) -> np.ndarray:
    """Binary adjacency of the union-symmetrised d-nearest-neighbour graph.

    Distances are Euclidean between weight rows; each node selects its d
    nearest other nodes, ties going to the lower index, and an edge exists
    when either endpoint selected the other.
    """
    W = np.asarray(weights, dtype=float)
    n = len(W)
    dist = np.sqrt(((W[:, None, :] - W[None, :, :]) ** 2).sum(axis=2))
    A = np.zeros((n, n), dtype=int)
    for i in range(n):
        others = [j for j in range(n) if j != i]
        nearest = sorted(others, key=lambda j: (dist[i, j], j))[:d]
        A[i, nearest] = 1
    return np.maximum(A, A.T)


def edge_set(adjacency) -> set[tuple[int, int]]:
    """Undirected edges (i, j), i < j, 0-based."""
    ii, jj = np.nonzero(np.triu(adjacency, k=1))
    return set(zip(ii.tolist(), jj.tolist()))


def is_connected(adjacency) -> bool:
    return connected_components(np.asarray(adjacency), directed=False)[0] == 1


def gtv_objective(parts, adjacency, alpha: float, W) -> float:
    """Sum of per-node train MSE plus alpha times the squared edge differences."""
    penalty = sum(float((W[i] - W[j]) @ (W[i] - W[j])) for i, j in edge_set(adjacency))
    return sum(mse(X, y, W[i]) for i, (X, y) in enumerate(parts)) + alpha * penalty


def gtvmin_exact(parts, adjacency, alpha: float) -> tuple[np.ndarray, float]:
    """Exact GTVMin optimum from one SPD system of size n*d.

    Stationarity of the quadratic objective gives
    ``(blockdiag((2/m_i) X_i^T X_i) + 2 alpha L kron I) w = ((2/m_i) X_i^T y_i)``
    with L the graph Laplacian (SarcheshmehPour et al., arXiv:2105.12769).
    Returns the (n, d) optimum and the objective value there.
    """
    n, d = len(parts), parts[0][0].shape[1]
    A = np.asarray(adjacency, dtype=float)
    laplacian = np.diag(A.sum(axis=1)) - A
    lhs = 2.0 * alpha * np.kron(laplacian, np.eye(d))
    rhs = np.empty(n * d)
    for i, (X, y) in enumerate(parts):
        block = slice(i * d, (i + 1) * d)
        lhs[block, block] += (2.0 / len(y)) * (X.T @ X)
        rhs[block] = (2.0 / len(y)) * (X.T @ y)
    W = scipy.linalg.solve(lhs, rhs, assume_a="pos").reshape(n, d)
    return W, gtv_objective(parts, adjacency, alpha, W)
