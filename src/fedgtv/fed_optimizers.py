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

All three step every node at once through its sufficient statistics: the
cached :attr:`~fedgtv.data_pipeline.LocalDataset.train_gram` or, for a fedsgd
node with more rows than its batch, the ``(X^T X, X^T y)`` of the batch it
draws each round, the one per-node cost left in a round.

:func:`train_cells` trains the cells of a grid in lockstep on a (cells, n, d)
weight stack; it is the one stacked path. :func:`train`, the round functions
and :func:`gtv_objective` take one (n, d) stack. Each fedsgd (node, round)
mini-batch is drawn once and shared by all cells of a grid, and each cell's
result is bitwise identical to training it alone.

Each call builds one per-run context before its first round. It runs the
input checks once (shapes, an empty split naming its node) and holds what
every round shares: the per-cell eta and alpha, the Laplacians, each node's
checked training arrays, the stacked ``train_gram`` statistics and fedavg2's
system matrices. A round then only steps the weights, through the unchecked
kernels that :func:`~fedgtv.model_core.mse_gradient`,
:func:`~fedgtv.model_core.mse_loss` and
:func:`~fedgtv.model_core.proximal_step_gram` call after their checks. A
public round builds the same context for one cell and takes one step.
Nothing is cached between calls.
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
# The rounds call the unchecked kernels; mse_gradient, mse_loss and
# proximal_step_gram stay importable here because the benchmark's tracer wraps
# them at this path.
from .model_core import (  # noqa: F401
    _as_weights,
    _as_xy,
    _gram_gradient,
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
    """Endpoint index arrays ``(i, j)`` of :meth:`EmpiricalGraph.edges`, each edge once."""
    return tuple(np.array(graph.edges(), dtype=int).reshape(-1, 2).T)


def _gtv(losses: np.ndarray, W: np.ndarray, edges, alpha: float) -> float:
    """One cell's GTV objective: its node ``losses`` summed, plus ``alpha`` times its :func:`_edges` penalty."""
    ii, jj = edges
    diff = W[ii] - W[jj]
    return sum(losses.tolist()) + alpha * float(np.sum(diff * diff))


def _split_parts(datasets: Sequence[LocalDataset], split: str, W: np.ndarray) -> list[tuple]:
    """Every node's ``split`` arrays ``(X, y)``, each checked against its (C, d) slice of the (C, n, d) ``W``."""
    parts = [_as_xy(*ds.split(split)) for ds in datasets]
    for i, (X, _) in enumerate(parts):
        _as_weights(X, W[:, i], stacked=True)
    return parts


def _losses(parts: Sequence[tuple], W: np.ndarray) -> np.ndarray:
    """(C, n) ``mse_loss`` of each cell of ``W`` at each node's part, NaN where the part is empty; unchecked."""
    out = np.full(W.shape[:2], np.nan)
    for i, (X, y) in enumerate(parts):
        if len(y):
            out[:, i] = _mse_rows(X, y, W[:, i])
    return out


def gtv_objective(weights, datasets: Sequence[LocalDataset], graph: EmpiricalGraph, alpha: float) -> float:
    """Sum of per-node full-batch train MSE plus ``alpha`` times the edge penalty.

    Each undirected edge (i, j) contributes ``||w_i - w_j||^2`` exactly once;
    consequently its gradient contribution at node i is
    ``2 * alpha * sum_{j in N(i)} (w_i - w_j)``.
    """
    W = _as_stack(weights, datasets, graph)[None]
    parts = _split_parts(datasets, "train", W)
    for ds, (_, y) in zip(datasets, parts):
        if not len(y):
            raise DegenerateInputError(f"node {ds.node_id}: empty training split")
    return _gtv(_losses(parts, W)[0], W[0], _edges(graph), alpha)


class _Run:
    """The per-run context (see the module docstring) of one algorithm.

    Built from the (C, n, d) weight stack ``W``, which it checks every
    node's training split against, the C cell configs and, for fedsgd, the
    (C, n, n) Laplacians. :meth:`step` moves the weights one round; the
    checked training parts ``train`` are what :func:`_losses` scores.
    """

    def __init__(self, algorithm: Algorithm, W: np.ndarray, datasets, configs, laplacians=None):
        shared = configs[0]
        self.algorithm = algorithm
        eta, alpha = np.array([(c.eta, c.alpha) for c in configs]).T
        self.eta = eta[:, None, None]
        self.train = _split_parts(datasets, "train", W)
        # train_gram rejects an empty split, naming the node
        self.xtx, self.xty, m = map(np.stack, zip(*[ds.train_gram for ds in datasets]))
        if algorithm is Algorithm.FEDAVG2:
            self.system = _proximal_system(self.xtx, self.xty, m, eta[:, None])
            return
        if algorithm is Algorithm.FEDSGD:
            if laplacians.shape[-1] != W.shape[1]:
                raise ShapeError(f"graph has {laplacians.shape[-1]} nodes but weight stack has {W.shape[1]}")
            self.seed, self.batch_size = shared.seed, shared.batch_size
            self.laplacians = laplacians
            self.two_alpha = (2.0 * alpha)[:, None, None]
            # a node larger than its batch overwrites its statistics slots with the drawn batch's each round
            self.sampled = [(i, *self.train[i], datasets[i].node_id) for i in np.flatnonzero(m > self.batch_size)]
            m = np.minimum(m, self.batch_size)
        self.scale = (2.0 / m)[:, None]

    def step(self, W: np.ndarray, k: int) -> np.ndarray:
        """The weights after round ``k``."""
        # not a stored bound method: that is a reference cycle, which keeps the
        # run's arrays alive until the cyclic garbage collector runs
        if self.algorithm is Algorithm.FEDSGD:
            return self._fedsgd(W, k)
        if self.algorithm is Algorithm.FEDAVG1:
            return _average(W - self.eta * _gram_gradient(self.xtx, self.xty, self.scale, W))
        return _average(_proximal_solve(self.system, W))

    def _fedsgd(self, W: np.ndarray, k: int) -> np.ndarray:
        for i, X, y, node_id in self.sampled:
            rng = np.random.default_rng([self.seed, node_id, k])
            batch = np.sort(rng.choice(len(y), size=self.batch_size, replace=False))
            X = X[batch]
            self.xtx[i], self.xty[i] = X.T @ X, X.T @ y[batch]
        grad = _gram_gradient(self.xtx, self.xty, self.scale, W)
        return W - self.eta * (grad + self.two_alpha * (self.laplacians @ W))


def _average(W: np.ndarray) -> np.ndarray:
    """Every node row replaced by the mean over nodes, reduced in ascending node order."""
    return np.repeat(W.mean(axis=1, keepdims=True), W.shape[1], axis=1)


def _one_round(algorithm: Algorithm, weights, datasets, config: OptimizerConfig, round_index: int = 0, graph=None):
    """One round of ``algorithm`` for one cell: the one-round case of :func:`train_cells`'s loop."""
    W = _as_stack(weights, datasets, graph)[None]
    laplacians = None if graph is None else graph.laplacian()[None]
    return _Run(algorithm, W, datasets, [config], laplacians).step(W, round_index)[0]


def fedsgd_round(
    weights, datasets: Sequence[LocalDataset], graph: EmpiricalGraph, config: OptimizerConfig, round_index: int
) -> np.ndarray:
    """One synchronous fedsgd round of an (n, d) weight stack; returns the next stack.

    Every node reads only ``weights`` (round-k values), so the result does not
    depend on processing order. Mini-batches are drawn uniformly without
    replacement from a stream seeded by (seed, node_id, round_index);
    batch_size >= m falls back to the full training split, and drawn indices
    are sorted so the summation order is fixed. Each loss gradient is
    bitwise :func:`~fedgtv.model_core.mse_gradient` on the node's batch; the
    coupling for all nodes is one product ``2 * alpha * L @ W``, whose rows
    are zero at nodes without neighbors, so those take a plain local step.
    """
    return _one_round(Algorithm.FEDSGD, weights, datasets, config, round_index, graph)


def fedavg_v1_round(weights, datasets: Sequence[LocalDataset], config: OptimizerConfig) -> np.ndarray:
    """One projected-gradient round: per-node full-batch step, then average.

    All nodes step at once with the Gram-form gradient
    ``(2/m) (X^T X w - X^T y)``. Returns a stack of n identical rows (the
    averaged weights); the average reduces over ascending node index.
    """
    return _one_round(Algorithm.FEDAVG1, weights, datasets, config)


def fedavg_v2_round(weights, datasets: Sequence[LocalDataset], config: OptimizerConfig) -> np.ndarray:
    """One proximal-averaging round: per-node closed-form minimization of
    ``local loss + (1/eta) ||v - w_i||^2``, then averaging.

    All nodes are solved by one stacked solve, the kernel of
    :func:`~fedgtv.model_core.proximal_step_gram`; each node's step, before
    averaging, is bitwise identical to
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

    The cells must differ only in eta and alpha. The per-run context and the
    edge lists of the trace's penalty are built once, before the first
    round, so each round only steps the weights, and each trace point scores
    the context's checked training parts, every cell at a node with one
    stacked residual. An input check that fails while the context is built
    is re-raised as round 0's, e.g. ``round 0: node 1: empty training split``.
    """
    if len(datasets) == 0:
        raise DegenerateInputError("no datasets to train on")
    if len(graphs) != len(configs):
        raise ParameterError(f"{len(graphs)} graphs for {len(configs)} cells")
    if len({(c.algorithm, c.batch_size, c.seed, c.max_iterations, c.trace_every) for c in configs}) != 1:
        raise ParameterError("a cell stack needs one or more cells that differ only in eta and alpha")
    W = np.zeros((len(configs), len(datasets), datasets[0].train[0].shape[1]))
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
            losses = _losses(run.train, W)
            for c, trace in enumerate(traces):
                value = _gtv(losses[c], W[c], edges[c], configs[c].alpha) if edges else float(losses[c].mean())
                trace.rounds.append(k + 1)
                trace.objective.append(value)
                trace.node_losses.append(losses[c])
    return W, traces


def train(
    datasets: Sequence[LocalDataset], graph: EmpiricalGraph | None, config: OptimizerConfig
) -> tuple[np.ndarray, TrainingTrace]:
    """:func:`train_cells` for one config; deterministic given (datasets, graph, config)."""
    W, traces = train_cells(datasets, [graph], [config])
    return W[0], traces[0]
