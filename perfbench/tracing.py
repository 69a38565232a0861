"""In-memory spans around the program's public functions, for the traced run.

:func:`install` replaces each function listed in :data:`WRAPPED` at the
module attribute where its callers look it up, so the program's code is not
touched. Each call records a span (name, start, end, parent) in memory; the
spans are written out once the run ends and folded into per-layer metrics.
A span's self time is its duration minus the time its child spans cover.
"""
from __future__ import annotations

import csv
import functools
import importlib
import time
from collections import Counter
from pathlib import Path

# (module, attribute) -> span name. Functions are wrapped where their callers
# look them up, e.g. fed_optimizers.train calls fedgtv.fed_optimizers.mse_gradient.
WRAPPED = {
    ("fedgtv.cli", "run_experiment"): "experiment_harness.run_experiment",
    ("fedgtv.experiment_harness", "load_preprocessed"): "data_pipeline.split_normalize",
    ("fedgtv.data_pipeline", "load_csv"): "data_pipeline.load_csv",
    ("fedgtv.data_pipeline", "engineer_features"): "data_pipeline.engineer_features",
    ("fedgtv.data_pipeline", "split_dataset"): "data_pipeline.split_normalize",
    ("fedgtv.data_pipeline", "normalize"): "data_pipeline.split_normalize",
    ("fedgtv.experiment_harness", "generate_synthetic"): "data_pipeline.generate_synthetic",
    ("fedgtv.experiment_harness", "pretrain_local_weights"): "empirical_graph.pretrain_local_weights",
    ("fedgtv.empirical_graph", "least_squares_fit"): "model_core.least_squares_fit",
    ("fedgtv.experiment_harness", "discrepancy_matrix"): "empirical_graph.discrepancy_matrix",
    ("fedgtv.experiment_harness", "build_knn_graph"): "empirical_graph.build_knn_graph",
    ("fedgtv.experiment_harness", "is_connected"): "empirical_graph.is_connected",
    ("fedgtv.empirical_graph", "is_connected"): "empirical_graph.is_connected",
    ("fedgtv.experiment_harness", "run_grid_search"): "experiment_harness.run_grid_search",
    ("fedgtv.experiment_harness", "train"): "fed_optimizers.train",
    ("fedgtv.experiment_harness", "evaluate"): "experiment_harness.evaluate",
    ("fedgtv.experiment_harness", "mse_loss"): "model_core.mse_loss",
    ("fedgtv.fed_optimizers", "mse_loss"): "model_core.mse_loss",
    ("fedgtv.fed_optimizers", "mse_gradient"): "model_core.mse_gradient",
    ("fedgtv.fed_optimizers", "proximal_step_gram"): "model_core.proximal_step_gram",
    ("fedgtv.fed_optimizers", "fedsgd_round"): "fed_optimizers.fedsgd_round",
    ("fedgtv.fed_optimizers", "fedavg_v1_round"): "fed_optimizers.fedavg_v1_round",
    ("fedgtv.fed_optimizers", "fedavg_v2_round"): "fed_optimizers.fedavg_v2_round",
}

ROUND_SPANS = ("fedsgd_round", "fedavg_v1_round", "fedavg_v2_round")

# Per-layer metrics: name -> (unit, better). Self times are in seconds.
SELF_TIME_SPANS = (
    "data_pipeline.load_csv",
    "data_pipeline.engineer_features",
    "data_pipeline.split_normalize",
    "data_pipeline.generate_synthetic",
    "model_core.mse_gradient",
    "model_core.mse_loss",
    "model_core.proximal_step_gram",
    "empirical_graph.pretrain_local_weights",
    "empirical_graph.discrepancy_matrix",
    "empirical_graph.build_knn_graph",
    "empirical_graph.is_connected",
    "fed_optimizers.fedsgd_round",
    "fed_optimizers.fedavg_v1_round",
    "fed_optimizers.fedavg_v2_round",
    "fed_optimizers.train",
    "experiment_harness.run_grid_search",
    "experiment_harness.evaluate",
    "experiment_harness.run_experiment",
)
COUNTERS = {
    "data_pipeline.rows_dropped": "lower",
    "model_core.mse_gradient.calls": "lower",
    "model_core.mse_loss.calls": "lower",
    "model_core.proximal_step_gram.calls": "lower",
    "model_core.least_squares_fit.calls": "lower",
    "model_core.least_squares_fit.failed": "lower",
    "fed_optimizers.node_rounds": "lower",
    "experiment_harness.cells_trained": "lower",
    "experiment_harness.cells_skipped": "lower",
    "experiment_harness.train_calls": "lower",
    "experiment_harness.repeat_train_calls": "lower",
}
PER_LAYER = {f"{s}.self_s": ("s", "lower") for s in SELF_TIME_SPANS}
PER_LAYER["data_pipeline.load_csv.rows_per_s"] = ("rows/s", "higher")
for _name in ROUND_SPANS:
    PER_LAYER[f"fed_optimizers.{_name}.us_per_node_round"] = ("us", "lower")
PER_LAYER.update({name: ("count", better) for name, better in COUNTERS.items()})


def _train_key(args):
    """Identity of a training run: the datasets object, the graph, the config.

    The harness calls ``train(datasets, graph, config)`` positionally.
    """
    datasets, graph, config = args
    adjacency = None if graph is None else (graph.min_degree, graph.adjacency.tobytes())
    return id(datasets), adjacency, config


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.trained: set = set()

    def begin_operation(self, name: str) -> int:
        """Open the root span of one CLI operation; returns its index."""
        self.trained = set()
        return self._open(f"operation.{name}")

    def end_operation(self, index: int) -> None:
        self._close(index)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _observe_call(self, name, args) -> None:
        if name == "fed_optimizers.train":
            key = _train_key(args)
            self.counts["experiment_harness.train_calls"] += 1
            if key in self.trained:
                self.counts["experiment_harness.repeat_train_calls"] += 1
            self.trained.add(key)
        elif name.startswith("fed_optimizers.") and name.endswith(ROUND_SPANS):
            nodes = len(args[1])
            self.counts[f"{name}.node_rounds"] += nodes
            self.counts["fed_optimizers.node_rounds"] += nodes

    def _observe_result(self, name, result) -> None:
        if name == "data_pipeline.load_csv":
            groups, dropped = result
            self.counts["data_pipeline.rows_dropped"] += dropped
            self.counts["data_pipeline.rows_read"] += dropped + sum(map(len, groups.values()))
        elif name == "experiment_harness.run_grid_search":
            skipped = sum(c.val_mse is None for c in result.cells)
            self.counts["experiment_harness.cells_skipped"] += skipped
            self.counts["experiment_harness.cells_trained"] += len(result.cells) - skipped

    def wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.counts[f"{name}.calls"] += 1
            tracer._observe_call(name, args)
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[f"{name}.failed"] += 1
                raise
            finally:
                tracer._close(index)
            tracer._observe_result(name, result)
            return result

        return traced

    def write_spans(self, path: Path) -> None:
        with path.open("w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent"])
            for i, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent])

    def per_layer(self, rounds: int) -> dict[str, float]:
        """Every per-layer metric, per round of the workload's operations."""
        child = [0.0] * len(self.spans)
        total: Counter = Counter()
        self_time: Counter = Counter()
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), covered in zip(self.spans, child):
            total[name] += end - start
            self_time[name] += end - start - covered
        metrics = {f"{s}.self_s": self_time[s] / rounds for s in SELF_TIME_SPANS}
        load = total["data_pipeline.load_csv"]
        metrics["data_pipeline.load_csv.rows_per_s"] = (
            self.counts["data_pipeline.rows_read"] / load if load else 0.0
        )
        for s in ROUND_SPANS:
            name = f"fed_optimizers.{s}"
            node_rounds = self.counts[f"{name}.node_rounds"]
            metrics[f"{name}.us_per_node_round"] = 1e6 * total[name] / node_rounds if node_rounds else 0.0
        for name in COUNTERS:
            metrics[name] = self.counts[name] / rounds
        return metrics


def install() -> Tracer:
    tracer = Tracer()
    for (module_name, attr), name in WRAPPED.items():
        module = importlib.import_module(module_name)
        setattr(module, attr, tracer.wrap(getattr(module, attr), name))
    return tracer
