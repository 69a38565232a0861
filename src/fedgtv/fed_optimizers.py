"""Federated training: graph-regularized SGD and two averaging variants.

All three algorithms run synchronous rounds over per-node linear models,
starting from all-zero weights:

* ``fedsgd`` - each node takes one mini-batch gradient step on its local MSE
  plus the graph coupling ``2 * alpha * sum_{j in N(i)} (w_i - w_j)``, i.e.
  row i of ``2 * alpha * L @ W`` for the graph Laplacian ``L``, reading only
  last-round neighbor weights. This is a strict descent step on
  :func:`gtv_objective`; an update that *added* the coupling difference would
  drive neighbor weights apart instead of together.
* ``fedavg1`` - one full-batch gradient step per node, then every node adopts
  the average of the stepped weights.
* ``fedavg2`` - closed-form proximal minimization around the shared weights
  per node, then averaging. No graph is used by either averaging variant
  (the implicit topology is a star around the averaging server).

Both averaging variants see the data only through each node's cached
:attr:`~fedgtv.data_pipeline.LocalDataset.train_gram` statistics and step all
nodes with one stacked expression per round.

:func:`train_cells` trains the cells of a grid in lockstep on a (cells, n, d)
weight stack; :func:`train` is its one-cell case. Each fedsgd (node, round)
mini-batch is drawn once and shared by all cells of a grid, and each cell's
result is bitwise identical to training it alone.

Each call builds one per-run context before its first round. The context
runs the input checks once (shapes, an empty split naming its node) and
holds what every round shares: the per-cell eta and alpha, the Laplacians,
each node's training arrays and whether it draws a mini-batch, the stacked
``train_gram`` statistics and fedavg2's system matrices. A round then only
steps the weights, through the same unchecked kernels that
:func:`~fedgtv.model_core.mse_gradient`, :func:`~fedgtv.model_core.mse_loss`
and :func:`~fedgtv.model_core.proximal_step_gram` call after their checks.
The public round functions build the same context and take one step, so
they are the one-round case of the training loop. Nothing is cached between
calls.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .data_pipeline import LocalDataset
from .empirical_graph import EmpiricalGraph
from .errors import DegenerateInputError, FedGTVError, ParameterError, ShapeError
# The rounds call the unchecked kernels; mse_gradient and proximal_step_gram
# stay importable here because the benchmark's tracer wraps them at this path.
from .model_core import (  # noqa: F401
    _as_weights,
    _as_xy,
    _gradient_sum,
    _mse_rows,
    _proximal_solve,
    _proximal_system,
    mse_gradient,
    mse_loss,
    proximal_step_gram,
)


class Algorithm(str, Enum):
    """Selectable training algorithms."""

    FEDSGD = "fedsgd"
    FEDAVG1 = "fedavg1"
    FEDAVG2 = "fedavg2"


@dataclass(frozen=True)
class OptimizerConfig:
    """Hyperparameters for one training run.

    ``eta`` is the learning rate for fedsgd/fedavg1 and the proximal weight
    for fedavg2 (larger eta = weaker pull toward the shared anchor).
    ``alpha`` and ``batch_size`` only affect fedsgd. ``trace_every`` sets the
    logging cadence of the training trace. ``eta`` must be positive and
    ``alpha`` non-negative, both finite.
    """

    algorithm: Algorithm
    eta: float
    alpha: float = 0.0
    batch_size: int = 512
    max_iterations: int = 1000
    seed: int = 42
    trace_every: int = 50

    def __post_init__(self):
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ParameterError(f"eta must be positive and finite, got {self.eta}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ParameterError(f"alpha must be non-negative and finite, got {self.alpha}")
        if self.batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_iterations < 1:
            raise ParameterError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")
        if self.trace_every < 1:
            raise ParameterError(f"trace_every must be >= 1, got {self.trace_every}")


@dataclass
class TrainingTrace:
    """Objective values logged during training.

    For fedsgd ``objective`` holds the full GTV objective (full-batch train
    losses plus the weighted edge penalty); for the averaging variants it is
    the mean full-batch train loss. ``node_losses[k]`` holds per-node train
    losses at round ``rounds[k]``.
    """

    rounds: list[int] = field(default_factory=list)
    objective: list[float] = field(default_factory=list)
    node_losses: list[np.ndarray] = field(default_factory=list)


def _as_stack(weights, datasets, graph: EmpiricalGraph | None = None) -> np.ndarray:
    W = np.asarray(weights, dtype=float)
    if W.ndim != 2:
        raise ShapeError(f"expected an (n, d) weight stack, got shape {W.shape}")
    if W.shape[0] != len(datasets):
        raise ShapeError(f"{W.shape[0]} weight rows for {len(datasets)} datasets")
    if graph is not None and graph.n != W.shape[0]:
        raise ShapeError(f"graph has {graph.n} nodes but weight stack has {W.shape[0]}")
    return W


def _edges(graph: EmpiricalGraph) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint indices ``(i, j)`` of the undirected edges, each edge once."""
    return np.nonzero(np.triu(graph.adjacency))


def _edge_penalty(W: np.ndarray, edges: tuple[np.ndarray, np.ndarray]) -> float:
    """Sum of ``||w_i - w_j||^2`` over the :func:`_edges` of a graph."""
    ii, jj = edges
    diff = W[ii] - W[jj]
    return float(np.sum(diff * diff))


def gtv_objective(weights, datasets: Sequence[LocalDataset], graph: EmpiricalGraph, alpha: float) -> float:
    """Sum of per-node full-batch train MSE plus ``alpha`` times the edge penalty.

    Each undirected edge (i, j) contributes ``||w_i - w_j||^2`` exactly once;
    consequently its gradient contribution at node i is
    ``2 * alpha * sum_{j in N(i)} (w_i - w_j)``.
    """
    W = _as_stack(weights, datasets, graph)
    total = sum(mse_loss(*ds.train, W[i]) for i, ds in enumerate(datasets))
    return total + alpha * _edge_penalty(W, _edges(graph))


_Configs = OptimizerConfig | Sequence[OptimizerConfig]


def _cells(weights, datasets: Sequence[LocalDataset], config: _Configs):
    """(C, n, d) stack, the C configs, and whether one (n, d) cell came in."""
    single = isinstance(config, OptimizerConfig)
    configs = (config,) if single else tuple(config)
    W = _as_stack(weights, datasets)[None] if single else np.asarray(weights, dtype=float)
    if W.ndim != 3 or W.shape[:2] != (len(configs), len(datasets)):
        raise ShapeError(f"expected a ({len(configs)}, {len(datasets)}, d) stack, got {W.shape}")
    if len({(c.algorithm, c.batch_size, c.seed, c.max_iterations, c.trace_every) for c in configs}) != 1:
        raise ParameterError("a cell stack needs one or more cells that differ only in eta and alpha")
    return W, configs, single


class _Run:
    """The per-run context (see the module docstring) of one algorithm.

    Built from the (C, n, d) weight stack ``W``, which it checks every
    node's training split against, the cell configs and, for fedsgd, the
    (C, n, n) or (n, n) Laplacians. :meth:`step` moves the weights one
    round and :meth:`losses` scores them.
    """

    def __init__(self, algorithm: Algorithm, W: np.ndarray, datasets, configs, laplacians=None):
        shared = configs[0]
        self.algorithm = algorithm
        eta, alpha = np.array([(c.eta, c.alpha) for c in configs]).T
        self.eta = eta[:, None, None]
        self.train, grams = [], []
        for i, ds in enumerate(datasets):
            X, y = _as_xy(*ds.train)
            _as_weights(X, W[:, i], stacked=True)
            grams.append(ds.train_gram)  # rejects an empty split, naming the node
            self.train.append((X, y))
        if algorithm is Algorithm.FEDSGD:
            if laplacians.shape[-1] != W.shape[1]:
                raise ShapeError(f"graph has {laplacians.shape[-1]} nodes but weight stack has {W.shape[1]}")
            self.seed, self.batch_size = shared.seed, shared.batch_size
            self.laplacians = laplacians
            self.two_alpha = (2.0 * alpha)[:, None, None]
            self.nodes = [
                (X, X.T, y, ds.node_id, self.batch_size < len(y)) for (X, y), ds in zip(self.train, datasets)
            ]
            self.scale = np.array([2.0 / min(len(y), self.batch_size) for _, y in self.train])[:, None]
        elif algorithm is Algorithm.FEDAVG1:
            self.xtx, self.xty, m = map(np.stack, zip(*grams))
            self.two_over_m = (2.0 / m)[:, None]
        else:
            self.system = _proximal_system(*map(np.stack, zip(*grams)), eta[:, None])

    def step(self, W: np.ndarray, k: int) -> np.ndarray:
        """The weights after round ``k``."""
        # not a stored bound method: that is a reference cycle, which keeps the
        # run's arrays alive until the cyclic garbage collector runs
        if self.algorithm is Algorithm.FEDSGD:
            return self._fedsgd(W, k)
        if self.algorithm is Algorithm.FEDAVG1:
            return self._fedavg1(W)
        return self._fedavg2(W)

    def _fedsgd(self, W: np.ndarray, k: int) -> np.ndarray:
        grad = np.empty_like(W)
        for i, (X, Xt, y, node_id, sample) in enumerate(self.nodes):
            if sample:
                rng = np.random.default_rng([self.seed, node_id, k])
                batch = np.sort(rng.choice(len(y), size=self.batch_size, replace=False))
                X, y = X[batch], y[batch]
                Xt = X.T
            grad[:, i] = _gradient_sum(X, Xt, y, W[:, i])
        grad *= self.scale
        return W - self.eta * (grad + self.two_alpha * (self.laplacians @ W))

    def _fedavg1(self, W: np.ndarray) -> np.ndarray:
        grad = self.two_over_m * ((self.xtx @ W[..., None])[..., 0] - self.xty)
        return _average(W - self.eta * grad)

    def _fedavg2(self, W: np.ndarray) -> np.ndarray:
        return _average(_proximal_solve(self.system, W))

    def losses(self, W: np.ndarray) -> np.ndarray:
        """(C, n) full-batch train MSE: one stacked residual per node over the cells."""
        out = np.empty(W.shape[:2])
        for i, (X, y) in enumerate(self.train):
            out[:, i] = _mse_rows(X, y, W[:, i])
        return out


def _average(W: np.ndarray) -> np.ndarray:
    """Every node row replaced by the mean over nodes, reduced in ascending node order."""
    return np.repeat(W.mean(axis=1, keepdims=True), W.shape[1], axis=1)


def _one_round(algorithm: Algorithm, weights, datasets, config: _Configs, round_index: int = 0, graph=None):
    """One round of ``algorithm``: the one-round case of :func:`train_cells`'s loop."""
    W, configs, single = _cells(weights, datasets, config)
    laplacians = None
    if graph is not None:
        laplacians = graph.laplacian() if isinstance(graph, EmpiricalGraph) else np.asarray(graph, dtype=float)
    out = _Run(algorithm, W, datasets, configs, laplacians).step(W, round_index)
    return out[0] if single else out


def fedsgd_round(
    weights,
    datasets: Sequence[LocalDataset],
    graph: EmpiricalGraph | np.ndarray,
    config: _Configs,
    round_index: int,
) -> np.ndarray:
    """One synchronous fedsgd round; returns the next weight stack.

    Every node reads only ``weights`` (round-k values), so the result does not
    depend on processing order. Mini-batches are drawn uniformly without
    replacement from a stream seeded by (seed, node_id, round_index);
    batch_size >= m falls back to the full training split, and drawn indices
    are sorted so the summation order is fixed. The loss gradient stays in
    row form on the drawn batch; the coupling for all nodes is one product
    ``2 * alpha * L @ W``, whose rows are zero at nodes without neighbors, so
    those take a plain local step.

    C grid cells step in lockstep given a (C, n, d) stack, C configs and a
    (C, n, n) stack of their Laplacians: each node's batch is drawn once and
    every cell steps on it, bitwise as in its own single-config call.
    """
    return _one_round(Algorithm.FEDSGD, weights, datasets, config, round_index, graph)


def fedavg_v1_round(weights, datasets: Sequence[LocalDataset], config: _Configs) -> np.ndarray:
    """One projected-gradient round: per-node full-batch step, then average.

    All nodes step at once with the Gram-form gradient
    ``(2/m) (X^T X w - X^T y)``. Returns a stack of n identical rows (the
    averaged weights); the average reduces over ascending node index. Steps
    a cell stack as :func:`fedsgd_round` does.
    """
    return _one_round(Algorithm.FEDAVG1, weights, datasets, config)


def fedavg_v2_round(weights, datasets: Sequence[LocalDataset], config: _Configs) -> np.ndarray:
    """One proximal-averaging round: per-node closed-form minimization of
    ``local loss + (1/eta) ||v - w_i||^2``, then averaging.

    All nodes (of every cell of a stack) are solved by one stacked solve, the
    kernel of :func:`~fedgtv.model_core.proximal_step_gram`; each node's
    step, before averaging, is bitwise identical to
    :func:`fedgtv.model_core.proximal_step` on that node's training split.
    """
    return _one_round(Algorithm.FEDAVG2, weights, datasets, config)


def train_cells(
    datasets: Sequence[LocalDataset],
    graphs: Sequence[EmpiricalGraph | None],
    configs: Sequence[OptimizerConfig],
) -> tuple[np.ndarray, list[TrainingTrace]]:
    """Train C grid cells in lockstep from all-zero weights: cell c on ``graphs[c]`` with ``configs[c]``.

    fedsgd requires the graphs; the averaging variants ignore them. Returns
    the (C, n, d) final weights and one trace per cell, logged every
    ``trace_every`` rounds and at the final round. Each fedsgd (node, round)
    mini-batch is drawn once and shared by every cell, and no arithmetic
    mixes cells, so each cell is bitwise what training it alone gives, and a
    diverging cell leaves the others intact.

    The per-run context and the edge lists of the trace's penalty are built
    once, before the first round, so each round only steps the weights, and
    each trace point scores every cell at a node with one stacked residual.
    An input check that fails while the context is built is re-raised as
    round 0's, e.g. ``round 0: node 1: empty training split``.
    """
    if len(datasets) == 0:
        raise DegenerateInputError("no datasets to train on")
    if len(graphs) != len(configs):
        raise ParameterError(f"{len(graphs)} graphs for {len(configs)} cells")
    dim = datasets[0].train[0].shape[1]
    W, configs, _ = _cells(np.zeros((len(configs), len(datasets), dim)), datasets, configs)
    config = configs[0]
    laplacians = edges = None
    if config.algorithm is Algorithm.FEDSGD:
        if None in graphs:
            raise ParameterError("fedsgd requires an empirical graph")
        laplacians = np.stack([g.laplacian() for g in graphs])
        edges = [_edges(g) for g in graphs]
    try:
        run = _Run(config.algorithm, W, datasets, configs, laplacians)
    except FedGTVError as exc:
        raise type(exc)(f"round 0: {exc}") from exc
    traces = [TrainingTrace() for _ in configs]
    for k in range(config.max_iterations):
        W = run.step(W, k)
        if (k + 1) % config.trace_every == 0 or k + 1 == config.max_iterations:
            losses = run.losses(W)
            for c, trace in enumerate(traces):
                if edges is not None:
                    # gtv_objective's sum, without its second pass over the losses
                    value = sum(losses[c].tolist()) + configs[c].alpha * _edge_penalty(W[c], edges[c])
                else:
                    value = float(losses[c].mean())
                trace.rounds.append(k + 1)
                trace.objective.append(value)
                trace.node_losses.append(losses[c])
    return W, traces


def train(
    datasets: Sequence[LocalDataset],
    graph: EmpiricalGraph | None,
    config: OptimizerConfig,
) -> tuple[np.ndarray, TrainingTrace]:
    """:func:`train_cells` for one config; deterministic given (datasets, graph, config)."""
    W, traces = train_cells(datasets, [graph], [config])
    return W[0], traces[0]
