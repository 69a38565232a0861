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
from .model_core import mse_gradient, mse_loss, proximal_step_gram


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


def _edge_penalty(W: np.ndarray, graph: EmpiricalGraph) -> float:
    """Sum of ``||w_i - w_j||^2`` over the undirected edges, each counted once."""
    ii, jj = np.nonzero(np.triu(graph.adjacency))
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
    return total + alpha * _edge_penalty(W, graph)


_Configs = OptimizerConfig | Sequence[OptimizerConfig]


def _cells(weights, datasets: Sequence[LocalDataset], config: _Configs):
    """(C, n, d) stack, shared config, per-cell eta and alpha, and whether one (n, d) cell came in."""
    single = isinstance(config, OptimizerConfig)
    configs = (config,) if single else tuple(config)
    W = _as_stack(weights, datasets)[None] if single else np.asarray(weights, dtype=float)
    if W.ndim != 3 or W.shape[:2] != (len(configs), len(datasets)):
        raise ShapeError(f"expected a ({len(configs)}, {len(datasets)}, d) stack, got {W.shape}")
    if len({(c.algorithm, c.batch_size, c.seed, c.max_iterations, c.trace_every) for c in configs}) != 1:
        raise ParameterError("a cell stack needs one or more cells that differ only in eta and alpha")
    eta, alpha = np.array([(c.eta, c.alpha) for c in configs]).T
    return W, configs[0], eta, alpha, single


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
    W, shared, eta, alpha, single = _cells(weights, datasets, config)
    L = graph.laplacian() if isinstance(graph, EmpiricalGraph) else np.asarray(graph, dtype=float)
    if L.shape[-1] != W.shape[1]:
        raise ShapeError(f"graph has {L.shape[-1]} nodes but weight stack has {W.shape[1]}")
    coupling = (2.0 * alpha)[:, None, None] * (L @ W)
    grad = np.empty_like(W)
    for i, ds in enumerate(datasets):
        X, y = ds.train
        m = ds.train_gram[2]  # rejects an empty split, naming the node
        if shared.batch_size < m:
            rng = np.random.default_rng([shared.seed, ds.node_id, round_index])
            batch = np.sort(rng.choice(m, size=shared.batch_size, replace=False))
            X, y = X[batch], y[batch]
        grad[:, i] = mse_gradient(X, y, W[:, i])
    new_W = W - eta[:, None, None] * (grad + coupling)
    return new_W[0] if single else new_W


def _train_grams(datasets: Sequence[LocalDataset]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack every node's cached ``train_gram`` as (n, d, d), (n, d) and (n,) arrays."""
    xtx, xty, m = zip(*(ds.train_gram for ds in datasets))
    return np.stack(xtx), np.stack(xty), np.array(m)


def fedavg_v1_round(weights, datasets: Sequence[LocalDataset], config: _Configs) -> np.ndarray:
    """One projected-gradient round: per-node full-batch step, then average.

    All nodes step at once with the Gram-form gradient
    ``(2/m) (X^T X w - X^T y)``. Returns a stack of n identical rows (the
    averaged weights); the average reduces over ascending node index. Steps
    a cell stack as :func:`fedsgd_round` does.
    """
    W, _, eta, _, single = _cells(weights, datasets, config)
    xtx, xty, m = _train_grams(datasets)
    grad = (2.0 / m)[:, None] * ((xtx @ W[..., None])[..., 0] - xty)
    out = np.repeat((W - eta[:, None, None] * grad).mean(axis=1, keepdims=True), W.shape[1], axis=1)
    return out[0] if single else out


def fedavg_v2_round(weights, datasets: Sequence[LocalDataset], config: _Configs) -> np.ndarray:
    """One proximal-averaging round: per-node closed-form minimization of
    ``local loss + (1/eta) ||v - w_i||^2``, then averaging.

    All nodes (of every cell of a stack) are solved by one stacked
    :func:`~fedgtv.model_core.proximal_step_gram` call; each node's step,
    before averaging, is bitwise identical to
    :func:`fedgtv.model_core.proximal_step` on that node's training split.
    """
    W, _, eta, _, single = _cells(weights, datasets, config)
    stepped = proximal_step_gram(*_train_grams(datasets), W, eta[:, None])
    out = np.repeat(stepped.mean(axis=1, keepdims=True), W.shape[1], axis=1)
    return out[0] if single else out


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
    diverging cell leaves the others intact. Errors raised inside a round
    are re-raised with the round index attached.
    """
    if len(datasets) == 0:
        raise DegenerateInputError("no datasets to train on")
    if len(graphs) != len(configs):
        raise ParameterError(f"{len(graphs)} graphs for {len(configs)} cells")
    dim = datasets[0].train[0].shape[1]
    W, config, *_ = _cells(np.zeros((len(configs), len(datasets), dim)), datasets, configs)
    algorithm = config.algorithm
    if algorithm is Algorithm.FEDSGD:
        if None in graphs:
            raise ParameterError("fedsgd requires an empirical graph")
        laplacians = np.stack([g.laplacian() for g in graphs])
    traces = [TrainingTrace() for _ in configs]
    for k in range(config.max_iterations):
        try:
            if algorithm is Algorithm.FEDSGD:
                W = fedsgd_round(W, datasets, laplacians, configs, k)
            elif algorithm is Algorithm.FEDAVG1:
                W = fedavg_v1_round(W, datasets, configs)
            else:
                W = fedavg_v2_round(W, datasets, configs)
        except FedGTVError as exc:
            raise type(exc)(f"round {k}: {exc}") from exc
        if (k + 1) % config.trace_every == 0 or k + 1 == config.max_iterations:
            for c, trace in enumerate(traces):
                losses = np.array(
                    [mse_loss(ds.train[0], ds.train[1], W[c, i]) for i, ds in enumerate(datasets)]
                )
                if algorithm is Algorithm.FEDSGD:
                    # gtv_objective's sum, without its second pass over the losses
                    value = sum(losses.tolist()) + configs[c].alpha * _edge_penalty(W[c], graphs[c])
                else:
                    value = float(losses.mean())
                trace.rounds.append(k + 1)
                trace.objective.append(value)
                trace.node_losses.append(losses)
    return W, traces


def train(
    datasets: Sequence[LocalDataset],
    graph: EmpiricalGraph | None,
    config: OptimizerConfig,
) -> tuple[np.ndarray, TrainingTrace]:
    """:func:`train_cells` for one config; deterministic given (datasets, graph, config)."""
    W, traces = train_cells(datasets, [graph], [config])
    return W[0], traces[0]
