"""Federated training: graph-regularized SGD and two averaging variants.

All three algorithms run synchronous rounds over per-node linear models,
starting from all-zero weights:

* ``fedsgd`` - each node takes one mini-batch gradient step on its local MSE
  plus the graph coupling ``2 * alpha * sum_{j in N(i)} (w_i - w_j)``, i.e.
  row i of ``2 * alpha * L @ W`` for the graph Laplacian ``L``, reading only
  last-round neighbor weights. This is a strict descent step on
  :func:`gtv_objective`; an update that *added* the coupling difference would
  drive neighbor weights apart instead of together.
* ``fedavg1`` - one full-batch gradient step per node, then the server
  averages the stepped weights into the one model every node starts from.
* ``fedavg2`` - closed-form proximal minimization around the server model
  per node, then averaging. No graph is used by either averaging variant
  (the implicit topology is a star around the averaging server).

All three step every node at once through its sufficient statistics: the
cached :attr:`~fedgtv.data_pipeline.LocalDataset.train_gram` or, for a fedsgd
node with more rows than its batch, the ``(X^T X, X^T y)`` of the batch it
draws each round, the one per-node cost left in a round. A :func:`train_cells`
run of ``_HELPER_DRAWS`` or more such draws forks a helper process to draw every
odd round's; no result depends on it, and if it dies this process draws the rest.

:func:`train_cells` trains the cells of a grid in lockstep on a (cells, n, d)
weight stack; it is the one stacked path. :func:`train`, the round functions
and :func:`gtv_objective` take one (n, d) stack. Each fedsgd (node, round)
mini-batch is drawn once and shared by all cells of a grid, and each cell's
result is bitwise identical to training it alone.

Each call builds one per-run context before its first round. It runs the
input checks once (shapes, an empty split naming its node) and holds what
every round shares: the per-cell eta and alpha, the Laplacians, each node's
checked training arrays, the stacked ``train_gram`` statistics and fedavg2's
closed-form steps, affine maps of the anchor from one eigendecomposition per
node. A round then only steps the weights, through the unchecked
kernels that :func:`~fedgtv.model_core.mse_gradient`,
:func:`~fedgtv.model_core.mse_loss` and
:func:`~fedgtv.model_core.proximal_step_gram` call after their checks. A
public round builds the same context for one cell and takes one step.
Nothing is cached between calls.

Trace points are scored in batches, per node by one stacked residual over a
batch's weight rows, no larger than all training labels together, and one
stacked dot of each residual row with itself: a fixed number of numpy calls
per node whatever the batch size, each value bitwise what scoring the point
alone gives. A :func:`train_cells` call of several cells whose trace points
fit in the training features' size scores each cell's trace only on first
read, so a grid never scores a losing cell's.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .data_pipeline import LocalDataset, _forked
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

__all__ = [
    "Algorithm",
    "OptimizerConfig",
    "TrainingTrace",
    "fedavg_v1_round",
    "fedavg_v2_round",
    "fedsgd_round",
    "gtv_objective",
    "train",
    "train_cells",
]

_HELPER_DRAWS = 200  # twice the break-even of a 3-4 ms fork against 80 us draws (2-CPU VM)


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
    ``alpha`` non-negative, both finite; fedavg2's ``2/eta`` must be finite.
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
        if self.algorithm is Algorithm.FEDAVG2 and not math.isfinite(2 / self.eta):
            raise ParameterError(f"fedavg2 eta must be large enough that 2/eta is finite, got {self.eta}")
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


class TrainingTrace:
    """Objective values logged during training.

    For fedsgd ``objective`` holds the full GTV objective (full-batch train
    losses plus the weighted edge penalty); for the averaging variants it is
    the mean full-batch train loss. ``node_losses[k]`` holds per-node train
    losses at round ``rounds[k]``. ``scores`` is ``(objective, node_losses)``,
    or a function that gives it, called when either is first read.
    """

    def __init__(self, rounds: list[int], scores):
        self.rounds, self._scores = rounds, scores

    def _scored(self) -> tuple[list[float], list[np.ndarray]]:
        if callable(self._scores):
            self._scores = self._scores()
        return self._scores

    objective = property(lambda self: self._scored()[0])
    node_losses = property(lambda self: self._scored()[1])


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
            self.rows, self.pipe = [i for i, *_ in self.sampled], None  # pipe: see train_cells
            m = np.minimum(m, self.batch_size)
        self.scale = (2.0 / m)[:, None]

    def step(self, W: np.ndarray, k: int) -> np.ndarray:
        """Round ``k``'s (C, n, d) fedsgd weights, or (C, 1, d) server model, which broadcasts against every node."""
        # not a stored bound method: that is a reference cycle, which keeps the
        # run's arrays alive until the cyclic garbage collector runs
        if self.algorithm is Algorithm.FEDSGD:
            return self._fedsgd(W, k)
        fedavg1 = self.algorithm is Algorithm.FEDAVG1
        W = W - self.eta * _gram_gradient(self.xtx, self.xty, self.scale, W) if fedavg1 else _proximal_solve(self.system, W)
        return np.add.reduce(W, axis=1, keepdims=True) / W.shape[1]  # the (C, 1, d) server model

    def _fedsgd(self, W: np.ndarray, k: int) -> np.ndarray:
        if k % 2 and self.pipe and self.pipe.readinto(self.block) == self.block.nbytes:
            self.xtx[self.rows], self.xty[self.rows] = self.block[:, :-1], self.block[:, -1]
        else:
            self.pipe = None if k % 2 else self.pipe  # a short read: the helper died, so this process draws from here on
            self._draw(k)
        grad = _gram_gradient(self.xtx, self.xty, self.scale, W)
        return W - self.eta * (grad + self.two_alpha * (self.laplacians @ W))

    def _draw(self, k: int) -> None:
        """Round ``k``'s batch statistics into each sampled node's ``xtx`` and ``xty`` slots."""
        for i, X, y, node_id in self.sampled:
            rng = np.random.default_rng([self.seed, node_id, k])
            batch = rng.choice(len(y), size=self.batch_size, replace=False)
            batch.sort()
            X = X.take(batch, axis=0)
            self.xtx[i], self.xty[i] = X.T @ X, X.T @ y.take(batch)

    def _send_draws(self, rounds: int, pipe) -> None:
        """The helper's part: :meth:`_draw` of each odd round to ``pipe``, one (sampled nodes, d + 1, d) block each."""
        for k in range(1, rounds, 2):
            self._draw(k)
            pipe.write(np.concatenate((self.xtx[self.rows], self.xty[self.rows, None]), axis=1))
            pipe.flush()


def _one_round(algorithm: Algorithm, weights, datasets, config: OptimizerConfig, round_index: int = 0, graph=None):
    """One round of ``algorithm`` for one cell: the one-round case of :func:`train_cells`'s loop."""
    W = _as_stack(weights, datasets, graph)[None]
    laplacians = None if graph is None else graph.laplacian()[None]
    return np.broadcast_to(_Run(algorithm, W, datasets, [config], laplacians).step(W, round_index), W.shape)[0].copy()


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

    Each node's step is the affine map ``c_i + P_i w_i`` that the per-run
    context builds once; a round is one stacked matrix-vector product, the
    kernel of :func:`~fedgtv.model_core.proximal_step_gram`, so each node's
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

    The cells must differ only in eta and alpha. The per-run context and the
    edge lists of the trace's penalty are built once, before the first
    round, so each round only steps the weights. Trace points are scored in
    batches of ``P = max(1, sum_i m_i // (C * max_i m_i))`` points (m_i the
    training rows of node i), one stacked residual per node over a batch's
    P * C weight rows: no residual holds more values than all training
    labels, and each value is bitwise that of scoring the point alone. With
    C > 1, while the trace points' weight stacks (points * C * n * d floats)
    fit in the training features (sum_i m_i * d), each trace keeps its own
    and scores them, by the one-cell P, when first read, under this call's
    ``np.geterr()`` state; otherwise each batch is scored once trained. An
    input check that fails while the context is built is re-raised as round
    0's, e.g. ``round 0: node 1: empty training split``.
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
    rows = [len(y) for _, y in run.train]
    batch, total = sum(rows) // max(rows), -(-config.max_iterations // config.trace_every)  # one-cell P; trace points
    deferred = len(configs) > 1 and total * W.size <= sum(rows) * W.shape[2]
    # all trace points if deferred, else one batch of them, scored once full or at the final round
    points = np.empty((total if deferred else max(1, batch // len(configs)),) + W.shape)
    rounds, scores, alphas = [], [([], []) for _ in configs], [c.alpha for c in configs]

    def trained(pipe) -> np.ndarray:
        nonlocal W
        if pipe:
            run.pipe, run.block = pipe, np.empty((len(run.rows), W.shape[2] + 1, W.shape[2]))
        for k in range(config.max_iterations):
            W = run.step(W, k)
            if (k + 1) % config.trace_every == 0 or k + 1 == config.max_iterations:
                kept = len(rounds) % len(points)
                points[kept] = W
                rounds.append(k + 1)
                if not deferred and (kept + 1 == len(points) or k + 1 == config.max_iterations):
                    _score(scores, points[: kept + 1], run.train, edges, alphas, len(points))
        return W

    draws = config.algorithm is Algorithm.FEDSGD and len(run.rows) * config.max_iterations
    forked = draws and draws >= _HELPER_DRAWS and _forked(functools.partial(run._send_draws, config.max_iterations), trained)
    W = forked[0] if forked else trained(None)
    if deferred:
        cell = lambda c: (points[:, c : c + 1], run.train, edges and edges[c : c + 1], alphas[c : c + 1], max(1, batch))
        scores = [functools.partial(_score_later, np.geterr(), *cell(c)) for c in range(len(configs))]
    return np.broadcast_to(W, points.shape[1:]).copy(), [TrainingTrace(rounds.copy(), s) for s in scores]


def _score(scores, points, parts, edges, alphas, batch) -> list[tuple[list, list]]:
    """Append each cell's objective and node losses at the (K, C, n, d) ``points``, ``batch`` per :func:`_losses` call."""
    for start in range(0, len(points), batch):
        chunk = points[start : start + batch]
        losses = _losses(parts, chunk.reshape((-1,) + chunk.shape[2:])).reshape(chunk.shape[:3])
        for W, point_losses in zip(chunk, losses):
            for c, (objective, node_losses) in enumerate(scores):
                objective.append(_gtv(point_losses[c], W[c], edges[c], alphas[c]) if edges else float(point_losses[c].mean()))
                node_losses.append(point_losses[c])
    return scores


def _score_later(state: dict, *args) -> tuple[list, list]:
    """One cell's deferred :func:`_score`, under the ``np.geterr()`` ``state`` it trained in."""
    with np.errstate(**state):
        return _score([([], [])], *args)[0]


def train(
    datasets: Sequence[LocalDataset], graph: EmpiricalGraph | None, config: OptimizerConfig
) -> tuple[np.ndarray, TrainingTrace]:
    """:func:`train_cells` for one config; deterministic given (datasets, graph, config)."""
    W, traces = train_cells(datasets, [graph], [config])
    return W[0], traces[0]
