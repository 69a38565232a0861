"""Grid search, evaluation reports, and experiment orchestration.

The harness ties the pipeline together: load (or generate) per-node datasets,
build the empirical graph where needed, train one or more algorithms, and
write deterministic artifacts (metrics report, training traces, graph edge
list, run manifest) to an output directory. Hyperparameter search follows the
protocol of sweeping alpha x eta x degree for fedsgd (dropping degree values
whose graph is disconnected) and eta alone for the averaging variants, picking
the lowest mean validation MSE.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import math
import platform
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from ._version import __version__
from .data_pipeline import (
    CsvSchema,
    LocalDataset,
    LOGICAL_FIELDS,
    SyntheticSpec,
    dump_preprocessed,
    generate_synthetic,
    load_preprocessed,
)
from .empirical_graph import (
    EmpiricalGraph,
    build_knn_graph,
    discrepancy_matrix,
    export_edge_list,
    graph_summary,
    is_connected,
    pretrain_local_weights,
)
from .errors import (
    ConfigError,
    DegenerateInputError,
    NoFeasibleConfigError,
    ParameterError,
    SchemaError,
)
from .fed_optimizers import Algorithm, OptimizerConfig, TrainingTrace, train
from .model_core import mse_loss

ALL_ALGORITHMS = (Algorithm.FEDSGD, Algorithm.FEDAVG1, Algorithm.FEDAVG2)


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter candidates for :func:`run_grid_search`.

    Defaults are the usual sweep: alpha in {1, 0.5, 0.1}, eta in
    {0.1, 0.01, 0.001}, degree in {1, 2, 3, 4}, all three algorithms. alphas
    and degrees only apply to fedsgd. Once the node count n is known, the
    search rejects any degree outside [1, n - 1] with ParameterError (exit 2)
    rather than dropping it, so the default degree axis fails on data with
    fewer than 5 nodes.
    """

    alphas: tuple[float, ...] = (1.0, 0.5, 0.1)
    etas: tuple[float, ...] = (0.1, 0.01, 0.001)
    degrees: tuple[int, ...] = (1, 2, 3, 4)
    algorithms: tuple[Algorithm, ...] = ALL_ALGORITHMS

    def __post_init__(self):
        if not self.alphas or not self.etas or not self.degrees or not self.algorithms:
            raise ParameterError("grid axes must be non-empty")
        if any(a < 0 for a in self.alphas):
            raise ParameterError("grid alphas must be non-negative")
        if any(e <= 0 for e in self.etas):
            raise ParameterError("grid etas must be positive")
        if any(int(d) != d or d < 1 for d in self.degrees):
            raise ParameterError("grid degrees must be integers >= 1")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        object.__setattr__(
            self, "algorithms", tuple(Algorithm(a) for a in self.algorithms)
        )


@dataclass(frozen=True)
class AlgorithmMetrics:
    """Per-node train/val/test MSE for one trained algorithm.

    Empty splits score NaN (and poison the corresponding mean; means are the
    plain arithmetic mean of the per-node values, nothing is skipped).
    """

    algorithm: str
    node_ids: tuple[int, ...]
    train_mse: tuple[float, ...]
    val_mse: tuple[float, ...]
    test_mse: tuple[float, ...]
    hyperparameters: Mapping[str, float] = field(default_factory=dict)

    @property
    def mean_train(self) -> float:
        return float(np.mean(self.train_mse))

    @property
    def mean_val(self) -> float:
        return float(np.mean(self.val_mse))

    @property
    def mean_test(self) -> float:
        return float(np.mean(self.test_mse))

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "hyperparameters": dict(self.hyperparameters),
            "node_ids": list(self.node_ids),
            "train_mse": list(self.train_mse),
            "val_mse": list(self.val_mse),
            "test_mse": list(self.test_mse),
            "mean": {
                "train": self.mean_train,
                "val": self.mean_val,
                "test": self.mean_test,
            },
        }


@dataclass
class MetricsReport:
    """Ordered collection of per-algorithm metric blocks."""

    blocks: list[AlgorithmMetrics] = field(default_factory=list)

    def block(self, algorithm: str) -> AlgorithmMetrics:
        for b in self.blocks:
            if b.algorithm == algorithm:
                return b
        raise ParameterError(f"no metrics block for algorithm {algorithm!r}")

    def to_dict(self) -> dict:
        return {"algorithms": [b.to_dict() for b in self.blocks]}

    def to_text(self) -> str:
        """Aligned plain-text tables, one block per algorithm. Deterministic."""
        lines = []
        for b in self.blocks:
            params = ", ".join(f"{k}={_fmt_param(v)}" for k, v in b.hyperparameters.items())
            lines.append(f"== {b.algorithm}" + (f" ({params})" if params else "") + " ==")
            lines.append(f"{'node':>6} {'train':>12} {'val':>12} {'test':>12}")
            for i, node in enumerate(b.node_ids):
                lines.append(
                    f"{node:>6d} {b.train_mse[i]:>12.6f} "
                    f"{b.val_mse[i]:>12.6f} {b.test_mse[i]:>12.6f}"
                )
            lines.append(
                f"{'mean':>6} {b.mean_train:>12.6f} {b.mean_val:>12.6f} {b.mean_test:>12.6f}"
            )
            lines.append("")
        return "\n".join(lines)


def _fmt_param(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{v:g}"


def _node_mse(ds: LocalDataset, split: str, w: np.ndarray) -> float:
    X, y = ds.split(split)
    if X.shape[0] == 0:
        return float("nan")
    return mse_loss(X, y, w)


def evaluate(
    weights,
    datasets: Sequence[LocalDataset],
    algorithm: str = "model",
    hyperparameters: Mapping[str, float] | None = None,
) -> MetricsReport:
    """Score every node's splits with its own weight row; append the mean.

    Returns a single-block report; callers assembling multi-algorithm reports
    concatenate the blocks.
    """
    W = np.asarray(weights, dtype=float)
    if W.ndim != 2 or W.shape[0] != len(datasets):
        raise ParameterError(
            f"need one weight row per dataset, got shape {W.shape} for {len(datasets)} nodes"
        )
    block = AlgorithmMetrics(
        algorithm=algorithm,
        node_ids=tuple(ds.node_id for ds in datasets),
        train_mse=tuple(_node_mse(ds, "train", W[i]) for i, ds in enumerate(datasets)),
        val_mse=tuple(_node_mse(ds, "val", W[i]) for i, ds in enumerate(datasets)),
        test_mse=tuple(_node_mse(ds, "test", W[i]) for i, ds in enumerate(datasets)),
        hyperparameters=dict(hyperparameters or {}),
    )
    return MetricsReport(blocks=[block])


@dataclass(frozen=True)
class GridCell:
    """One grid candidate: hyperparameters plus its validation score.

    ``alpha``/``degree`` are None for the averaging variants. ``val_mse`` is
    None when the cell was skipped because its graph is disconnected.
    """

    algorithm: str
    eta: float
    alpha: float | None = None
    degree: int | None = None
    connected: bool = True
    val_mse: float | None = None

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "eta": self.eta,
            "alpha": self.alpha,
            "degree": self.degree,
            "connected": self.connected,
            "val_mse": self.val_mse,
        }


@dataclass
class GridSearchResult:
    """All recorded cells, the per-algorithm winners, and what each winner trained.

    ``trained[name]`` is the selected cell's ``(W, trace, graph)``: the final
    weight stack and training trace, and the graph it trained on (None for
    the averaging variants). Training is deterministic, so callers report
    the winners from these without retraining them.
    """

    cells: list[GridCell]
    best: dict[str, GridCell]
    trained: dict[str, tuple[np.ndarray, TrainingTrace, EmpiricalGraph | None]]


def select_best(cells: Sequence[GridCell]) -> GridCell:
    """Lowest finite validation MSE; ties broken by smaller eta, alpha, then degree.

    Skipped (disconnected) and non-finite (diverged) cells are never selected.
    """
    trained = [c for c in cells if c.val_mse is not None and math.isfinite(c.val_mse)]
    if not trained:
        raise NoFeasibleConfigError(
            "no grid candidate has a finite validation MSE "
            "(every graph disconnected or every run diverged)"
        )
    return min(
        trained,
        key=lambda c: (
            c.val_mse,
            c.eta,
            0.0 if c.alpha is None else c.alpha,
            0 if c.degree is None else c.degree,
        ),
    )


def _mean_val_mse(W: np.ndarray, datasets: Sequence[LocalDataset]) -> float:
    return float(np.mean([_node_mse(ds, "val", W[i]) for i, ds in enumerate(datasets)]))


def run_grid_search(
    datasets: Sequence[LocalDataset],
    grid: GridSpec | None = None,
    *,
    batch_size: int = 512,
    max_iterations: int = 1000,
    seed: int = 42,
    trace_every: int = 50,
) -> GridSearchResult:
    """Exhaustively train and score every feasible grid candidate.

    fedsgd sweeps alpha x eta x degree; a degree whose union-kNN graph is
    disconnected skips all its (alpha, eta) combinations, each recorded as an
    untrained cell. The averaging variants sweep eta only. Every candidate
    trains once, fresh from zeros (no warm starts), and each algorithm's
    winner keeps its weights, trace and graph in ``trained``. Cells are
    recorded in degree-major, then alpha, then eta order; selection does not
    depend on that order. Raises NoFeasibleConfigError when an algorithm has
    no candidate with a finite validation MSE.
    """
    if len(datasets) == 0:
        raise DegenerateInputError("no datasets to search over")
    grid = GridSpec() if grid is None else grid
    cells: list[GridCell] = []
    best: dict[str, GridCell] = {}
    trained: dict[str, tuple] = {}
    fits: dict[tuple, tuple] = {}
    disc = None

    def fit(algorithm, eta, alpha, degree, graph) -> GridCell:
        config = OptimizerConfig(
            algorithm=algorithm,
            eta=eta,
            alpha=alpha or 0.0,
            batch_size=batch_size,
            max_iterations=max_iterations,
            seed=seed,
            trace_every=trace_every,
        )
        W, trace = train(datasets, graph, config)
        fits[algorithm, eta, alpha, degree] = (W, trace, graph)
        return GridCell(algorithm.value, eta, alpha, degree, True, _mean_val_mse(W, datasets))

    for algorithm in grid.algorithms:
        algo_cells: list[GridCell] = []
        if algorithm is Algorithm.FEDSGD:
            n = len(datasets)
            bad = [d for d in grid.degrees if not 1 <= d <= n - 1]
            if bad:
                raise ParameterError(f"grid degrees {bad} outside [1, {n - 1}]")
            if disc is None:
                disc = discrepancy_matrix(pretrain_local_weights(datasets))
            for d in grid.degrees:
                graph = build_knn_graph(disc, d)
                connected = is_connected(graph)
                for alpha in grid.alphas:
                    for eta in grid.etas:
                        if connected:
                            algo_cells.append(fit(algorithm, eta, alpha, d, graph))
                        else:
                            algo_cells.append(
                                GridCell(algorithm.value, eta, alpha, d, False, None)
                            )
        else:
            for eta in grid.etas:
                algo_cells.append(fit(algorithm, eta, None, None, None))
        cells.extend(algo_cells)
        winner = best[algorithm.value] = select_best(algo_cells)
        trained[algorithm.value] = fits[algorithm, winner.eta, winner.alpha, winner.degree]
    return GridSearchResult(cells=cells, best=best, trained=trained)


@dataclass
class ExperimentConfig:
    """Resolved experiment settings (config file plus CLI overrides).

    Exactly one of ``data_path`` (CSV) and ``synthetic_path`` (JSON spec)
    must be set by the time the experiment runs. Defaults for the fixed-run
    hyperparameters are the usual selected values (alpha=0.1, eta=0.1, d=2).
    """

    data_path: Path | None = None
    synthetic_path: Path | None = None
    seed: int = 42
    columns: dict[str, str] = field(default_factory=dict)
    condition_columns: tuple[str, ...] | None = None
    degree: int = 2
    algorithms: tuple[Algorithm, ...] = ALL_ALGORITHMS
    eta: float = 0.1
    alpha: float = 0.1
    batch_size: int = 512
    max_iterations: int = 1000
    trace_every: int = 50
    grid: GridSpec = field(default_factory=GridSpec)

    def optimizer_config(
        self, algorithm: Algorithm, eta: float | None = None, alpha: float | None = None
    ) -> OptimizerConfig:
        return OptimizerConfig(
            algorithm=algorithm,
            eta=self.eta if eta is None else eta,
            alpha=self.alpha if alpha is None else alpha,
            batch_size=self.batch_size,
            max_iterations=self.max_iterations,
            seed=self.seed,
            trace_every=self.trace_every,
        )


_CONFIG_KEYS = {
    "data": {"csv", "synthetic"},
    "preprocess": {"seed", "condition_columns"},
    "columns": None,  # free-form logical = physical map
    "graph": {"degree"},
    "optimizer": {"algorithm", "eta", "alpha", "batch_size", "max_iterations", "trace_every"},
    "grid": {"alphas", "etas", "degrees", "algorithms"},
}


def _parse_scalar(kind, section: str, key: str, raw: str):
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def _parse_list(kind, section: str, key: str, raw: str) -> tuple:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"[{section}] {key}: empty list")
    return tuple(_parse_scalar(kind, section, key, item) for item in items)


def _parse_algorithms(section: str, key: str, raw: str) -> tuple[Algorithm, ...]:
    if raw.strip() == "all":
        return ALL_ALGORITHMS
    names = [part.strip() for part in raw.split(",") if part.strip()]
    if not names:
        raise ConfigError(f"[{section}] {key}: empty list")
    try:
        return tuple(Algorithm(name) for name in names)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    """Parse the INI-style experiment config; unknown sections or keys fail.

    Relative data paths resolve against the config file's directory. All
    sections and keys are optional; missing values take ExperimentConfig
    defaults.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    unknown_sections = set(parser.sections()) - set(_CONFIG_KEYS)
    if unknown_sections:
        raise ConfigError(f"unknown config section(s): {sorted(unknown_sections)}")
    for section, allowed in _CONFIG_KEYS.items():
        if allowed is None or section not in parser:
            continue
        extra = set(parser[section]) - allowed
        if extra:
            raise ConfigError(f"unknown key(s) in [{section}]: {sorted(extra)}")

    cfg = ExperimentConfig()
    base = path.parent

    def resolve(raw: str) -> Path:
        p = Path(raw)
        return p if p.is_absolute() else base / p

    if "data" in parser:
        sec = parser["data"]
        if "csv" in sec:
            cfg.data_path = resolve(sec["csv"])
        if "synthetic" in sec:
            cfg.synthetic_path = resolve(sec["synthetic"])
    if "preprocess" in parser:
        sec = parser["preprocess"]
        if "seed" in sec:
            cfg.seed = _parse_scalar(int, "preprocess", "seed", sec["seed"])
        if "condition_columns" in sec:
            cfg.condition_columns = _parse_list(
                str, "preprocess", "condition_columns", sec["condition_columns"]
            )
    if "columns" in parser:
        overrides = dict(parser["columns"])
        bad = set(overrides) - set(LOGICAL_FIELDS)
        if bad:
            raise ConfigError(f"[columns] unknown logical field(s): {sorted(bad)}")
        cfg.columns = overrides
    if "graph" in parser and "degree" in parser["graph"]:
        cfg.degree = _parse_scalar(int, "graph", "degree", parser["graph"]["degree"])
    if "optimizer" in parser:
        sec = parser["optimizer"]
        if "algorithm" in sec:
            cfg.algorithms = _parse_algorithms("optimizer", "algorithm", sec["algorithm"])
        if "eta" in sec:
            cfg.eta = _parse_scalar(float, "optimizer", "eta", sec["eta"])
        if "alpha" in sec:
            cfg.alpha = _parse_scalar(float, "optimizer", "alpha", sec["alpha"])
        if "batch_size" in sec:
            cfg.batch_size = _parse_scalar(int, "optimizer", "batch_size", sec["batch_size"])
        if "max_iterations" in sec:
            cfg.max_iterations = _parse_scalar(
                int, "optimizer", "max_iterations", sec["max_iterations"]
            )
        if "trace_every" in sec:
            cfg.trace_every = _parse_scalar(int, "optimizer", "trace_every", sec["trace_every"])
    if "grid" in parser:
        sec = parser["grid"]
        kwargs = {}
        if "alphas" in sec:
            kwargs["alphas"] = _parse_list(float, "grid", "alphas", sec["alphas"])
        if "etas" in sec:
            kwargs["etas"] = _parse_list(float, "grid", "etas", sec["etas"])
        if "degrees" in sec:
            kwargs["degrees"] = _parse_list(int, "grid", "degrees", sec["degrees"])
        if "algorithms" in sec:
            kwargs["algorithms"] = _parse_algorithms("grid", "algorithms", sec["algorithms"])
        try:
            cfg.grid = replace(cfg.grid, **kwargs)
        except ParameterError as exc:
            raise ConfigError(f"[grid] {exc}") from exc
    return cfg


_SYNTHETIC_KEYS = {
    "node_count",
    "rows_per_node",
    "feature_dim",
    "cluster_assignment",
    "cluster_weights",
    "noise_std",
    "seed",
}


def load_synthetic_spec(path) -> SyntheticSpec:
    """Read a SyntheticSpec from a JSON file (keys mirror the dataclass)."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: synthetic spec must be a JSON object")
    unknown = set(raw) - _SYNTHETIC_KEYS
    if unknown:
        raise SchemaError(f"{path}: unknown synthetic spec key(s): {sorted(unknown)}")
    missing = {"node_count", "rows_per_node", "feature_dim", "cluster_assignment", "cluster_weights"} - set(raw)
    if missing:
        raise SchemaError(f"{path}: synthetic spec missing key(s): {sorted(missing)}")
    return SyntheticSpec(
        node_count=raw["node_count"],
        rows_per_node=tuple(raw["rows_per_node"]),
        feature_dim=raw["feature_dim"],
        cluster_assignment=tuple(raw["cluster_assignment"]),
        cluster_weights=tuple(tuple(w) for w in raw["cluster_weights"]),
        noise_std=raw.get("noise_std", 0.0),
        seed=raw.get("seed", 0),
    )


def _render_trace_csv(traces: dict[str, TrainingTrace], node_ids: Sequence[int]) -> str:
    lines = [
        "algorithm,round,objective," + ",".join(f"train_mse_node{i}" for i in node_ids)
    ]
    for name, trace in traces.items():
        for k, obj, losses in zip(trace.rounds, trace.objective, trace.node_losses):
            lines.append(
                f"{name},{k},{obj:.17g}," + ",".join(f"{v:.17g}" for v in losses)
            )
    return "\n".join(lines) + "\n"


def _render_grid_csv(cells: Sequence[GridCell]) -> str:
    lines = ["algorithm,alpha,eta,degree,connected,val_mse"]
    for c in cells:
        alpha = "" if c.alpha is None else f"{c.alpha:g}"
        degree = "" if c.degree is None else str(c.degree)
        val = "" if c.val_mse is None else f"{c.val_mse:.17g}"
        lines.append(f"{c.algorithm},{alpha},{c.eta:g},{degree},{int(c.connected)},{val}")
    return "\n".join(lines) + "\n"


def _hyperparameters(algorithm: Algorithm, eta, alpha, degree) -> dict:
    if algorithm is Algorithm.FEDSGD:
        return {"alpha": alpha, "eta": eta, "degree": degree}
    return {"eta": eta}


def _load_datasets(cfg: ExperimentConfig):
    """Returns (datasets, source manifest entry)."""
    if cfg.data_path is not None and cfg.synthetic_path is not None:
        raise ConfigError("configure exactly one of [data] csv and [data] synthetic")
    if cfg.data_path is not None:
        schema = CsvSchema(
            columns=cfg.columns,
            condition_columns=cfg.condition_columns
            or CsvSchema().condition_columns,
        )
        datasets, dropped = load_preprocessed(cfg.data_path, schema, cfg.seed)
        source = {
            "type": "csv",
            "path": cfg.data_path.name,
            "dropped_rows": dropped,
            "node_labels": [ds.source_label for ds in datasets],
        }
    elif cfg.synthetic_path is not None:
        spec = load_synthetic_spec(cfg.synthetic_path)
        datasets = generate_synthetic(spec)
        source = {
            "type": "synthetic",
            "path": cfg.synthetic_path.name,
            "spec_seed": spec.seed,
        }
    else:
        raise ConfigError("no data source: set [data] csv or [data] synthetic")
    source["nodes"] = len(datasets)
    source["rows_per_node"] = [
        int(sum(ds.split(s)[0].shape[0] for s in ("train", "val", "test")))
        for ds in datasets
    ]
    return datasets, source


def run_experiment(
    config_path,
    out_dir,
    *,
    mode: str = "run",
    data=None,
    synthetic=None,
    seed: int | None = None,
    algorithm: str | None = None,
    dump_data: bool = False,
) -> dict:
    """Execute one experiment and write its artifacts to ``out_dir``.

    Modes: "run" trains the configured algorithms at the fixed [optimizer]
    settings; "grid" runs the hyperparameter search and reports each
    algorithm's winner from the weights and trace the search already trained;
    "graph" only builds and exports the empirical graph.
    Nothing is written until every computation has succeeded (no partial
    artifacts), and identical inputs produce byte-identical outputs (the
    manifest records versions but no timestamps). Returns a summary dict with
    the report, manifest, and artifact names.
    """
    if mode not in ("run", "grid", "graph"):
        raise ParameterError(f"unknown mode {mode!r}")
    cfg = load_experiment_config(config_path)
    if data is not None and synthetic is not None:
        raise ConfigError("pass at most one of --data and --synthetic")
    if data is not None:
        cfg.data_path, cfg.synthetic_path = Path(data), None
    if synthetic is not None:
        cfg.data_path, cfg.synthetic_path = None, Path(synthetic)
    if seed is not None:
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        cfg.seed = seed
    chosen: tuple[Algorithm, ...] | None = None
    if algorithm is not None:
        if algorithm == "all":
            chosen = ALL_ALGORITHMS
        else:
            try:
                chosen = (Algorithm(algorithm),)
            except ValueError as exc:
                raise ConfigError(f"unknown algorithm {algorithm!r}") from exc

    datasets, source = _load_datasets(cfg)
    node_ids = [ds.node_id for ds in datasets]

    artifacts: dict[str, str] = {}
    manifest: dict = {
        "config_name": Path(config_path).name,
        "config_sha256": hashlib.sha256(Path(config_path).read_bytes()).hexdigest(),
        "mode": mode,
        "seed": cfg.seed,
        "source": source,
        "versions": {
            "fedgtv": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    report: MetricsReport | None = None
    graph: EmpiricalGraph | None = None

    if mode == "graph":
        graph = build_knn_graph(
            discrepancy_matrix(pretrain_local_weights(datasets)), cfg.degree
        )
        manifest["graph"] = graph_summary(graph)
    else:
        # One (algorithm, hyperparameters, W, trace, graph or None) record per
        # trained algorithm, reported by the loop below in both modes.
        fits = []
        if mode == "run":
            algorithms = chosen or cfg.algorithms
            manifest["optimizer"] = {
                "algorithms": [a.value for a in algorithms],
                "eta": cfg.eta,
                "alpha": cfg.alpha,
                "batch_size": cfg.batch_size,
                "max_iterations": cfg.max_iterations,
            }
            if Algorithm.FEDSGD in algorithms:
                graph = build_knn_graph(
                    discrepancy_matrix(pretrain_local_weights(datasets)), cfg.degree
                )
            for algo in algorithms:
                algo_graph = graph if algo is Algorithm.FEDSGD else None
                W, trace = train(datasets, algo_graph, cfg.optimizer_config(algo))
                params = _hyperparameters(algo, cfg.eta, cfg.alpha, cfg.degree)
                fits.append((algo, params, W, trace, algo_graph))
        else:
            grid = cfg.grid if chosen is None else replace(cfg.grid, algorithms=chosen)
            result = run_grid_search(
                datasets,
                grid,
                batch_size=cfg.batch_size,
                max_iterations=cfg.max_iterations,
                seed=cfg.seed,
                trace_every=cfg.trace_every,
            )
            artifacts["grid.csv"] = _render_grid_csv(result.cells)
            manifest["selected"] = {
                name: cell.to_dict() for name, cell in sorted(result.best.items())
            }
            for algo in grid.algorithms:
                winner = result.best[algo.value]
                params = _hyperparameters(algo, winner.eta, winner.alpha, winner.degree)
                fits.append((algo, params, *result.trained[algo.value]))
        report = MetricsReport()
        traces: dict[str, TrainingTrace] = {}
        for algo, params, W, trace, algo_graph in fits:
            if algo_graph is not None:
                graph = algo_graph
                manifest["graph"] = graph_summary(graph)
            report.blocks.extend(evaluate(W, datasets, algo.value, params).blocks)
            traces[algo.value] = trace
        artifacts["metrics.txt"] = report.to_text()
        artifacts["metrics.json"] = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
        artifacts["trace.csv"] = _render_trace_csv(traces, node_ids)

    names = sorted(artifacts) + ["manifest.json"]
    if graph is not None:
        names.append("graph.edges")
    if dump_data:
        names.extend(
            f"preprocessed/node{ds.node_id}_{s}.csv"
            for ds in datasets
            for s in ("train", "val", "test")
        )
    manifest["artifacts"] = sorted(names)
    artifacts["manifest.json"] = json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in sorted(artifacts):
        (out / name).write_text(artifacts[name], encoding="utf-8")
    if graph is not None:
        export_edge_list(graph, out / "graph.edges")
    if dump_data:
        dump_preprocessed(datasets, out / "preprocessed")

    return {
        "out_dir": str(out),
        "artifacts": manifest["artifacts"],
        "report": report,
        "manifest": manifest,
    }
