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
import shutil
import tempfile
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Mapping, Sequence, get_args, get_type_hints

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
from .fed_optimizers import Algorithm, OptimizerConfig, TrainingTrace, _losses, _split_parts, train, train_cells
# mse_loss stays importable here: the benchmark's tracer wraps it at this path.
from .model_core import mse_loss  # noqa: F401

ALL_ALGORITHMS = (Algorithm.FEDSGD, Algorithm.FEDAVG1, Algorithm.FEDAVG2)


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter candidates for :func:`run_grid_search`.

    Defaults are the usual sweep: alpha in {1, 0.5, 0.1}, eta in
    {0.1, 0.01, 0.001}, degree in {1, 2, 3, 4}, all three algorithms. alphas
    and degrees only apply to fedsgd. Every eta must be positive and every
    alpha non-negative, both finite; no axis repeats a value. Once the node
    count n is known, the search rejects any degree outside [1, n - 1] with
    ParameterError (exit 2) rather than dropping it, so the default degree
    axis fails on data with fewer than 5 nodes.
    """

    alphas: tuple[float, ...] = (1.0, 0.5, 0.1)
    etas: tuple[float, ...] = (0.1, 0.01, 0.001)
    degrees: tuple[int, ...] = (1, 2, 3, 4)
    algorithms: tuple[Algorithm, ...] = ALL_ALGORITHMS

    def __post_init__(self):
        if not self.alphas or not self.etas or not self.degrees or not self.algorithms:
            raise ParameterError("grid axes must be non-empty")
        if not all(math.isfinite(a) and a >= 0 for a in self.alphas):
            raise ParameterError("grid alphas must be non-negative and finite")
        if not all(math.isfinite(e) and e > 0 for e in self.etas):
            raise ParameterError("grid etas must be positive and finite")
        if any(int(d) != d or d < 1 for d in self.degrees):
            raise ParameterError("grid degrees must be integers >= 1")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "etas", tuple(float(e) for e in self.etas))
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))
        object.__setattr__(
            self, "algorithms", tuple(Algorithm(a) for a in self.algorithms)
        )
        for axis in ("alphas", "etas", "degrees", "algorithms"):
            values = [getattr(v, "value", v) for v in getattr(self, axis)]
            if len(set(values)) < len(values):
                raise ParameterError(f"grid {axis} must not repeat a value, got {', '.join(map(str, values))}")


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
    W = np.asarray(weights, dtype=float)[None]
    if W.ndim != 3 or W.shape[1] != len(datasets):
        raise ParameterError(f"need one weight row per dataset, got shape {W.shape[1:]} for {len(datasets)} nodes")
    train_mse, val_mse, test_mse = (
        tuple(_losses(_split_parts(datasets, split, W), W)[0].tolist()) for split in ("train", "val", "test")
    )
    block = AlgorithmMetrics(
        algorithm=algorithm,
        node_ids=tuple(ds.node_id for ds in datasets),
        train_mse=train_mse,
        val_mse=val_mse,
        test_mse=test_mse,
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
    untrained cell. The averaging variants sweep eta only. Each algorithm's
    feasible cells train together in one :func:`train_cells` call, fresh
    from zeros (no warm starts): every fedsgd (node, round) mini-batch is
    drawn once and shared by all cells, and each cell's result is bitwise
    identical to training it alone. Each algorithm's winner keeps its
    weights, trace and graph in ``trained``. Cells are recorded in
    degree-major, then alpha, then eta order; selection does not depend on
    that order. Raises NoFeasibleConfigError when an algorithm has no
    candidate with a finite validation MSE.
    """
    if len(datasets) == 0:
        raise DegenerateInputError("no datasets to search over")
    grid = GridSpec() if grid is None else grid
    cells: list[GridCell] = []
    best: dict[str, GridCell] = {}
    trained: dict[str, tuple] = {}
    settings = dict(batch_size=batch_size, max_iterations=max_iterations, seed=seed, trace_every=trace_every)
    disc = None
    for algorithm in grid.algorithms:
        # (eta, alpha, degree, graph, connected) per cell, in record order
        if algorithm is Algorithm.FEDSGD:
            n = len(datasets)
            bad = [d for d in grid.degrees if not 1 <= d <= n - 1]
            if bad:
                raise ParameterError(f"grid degrees {bad} outside [1, {n - 1}]")
            if disc is None:
                disc = discrepancy_matrix(pretrain_local_weights(datasets))
            specs = []
            for d in grid.degrees:
                graph = build_knn_graph(disc, d)
                connected = is_connected(graph)
                specs += [
                    (eta, alpha, d, graph, connected) for alpha in grid.alphas for eta in grid.etas
                ]
        else:
            specs = [(eta, None, None, None, True) for eta in grid.etas]
        live = [s for s in specs if s[4]]
        configs = [OptimizerConfig(algorithm, eta, alpha or 0.0, **settings) for eta, alpha, *_ in live]
        W, traces = train_cells(datasets, [s[3] for s in live], configs) if live else ((), ())
        fits = {s[:3]: (w, trace, s[3]) for s, w, trace in zip(live, W, traces)}
        val = _losses(_split_parts(datasets, "val", W), W) if live else ()
        val_mse = {s[:3]: float(np.mean(row)) for s, row in zip(live, val)}
        algo_cells = [
            GridCell(algorithm.value, eta, alpha, d, connected, val_mse.get((eta, alpha, d)))
            for eta, alpha, d, _, connected in specs
        ]
        cells.extend(algo_cells)
        winner = best[algorithm.value] = select_best(algo_cells)
        trained[algorithm.value] = fits[winner.eta, winner.alpha, winner.degree]
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

    def optimizer_config(self, algorithm: Algorithm) -> OptimizerConfig:
        return OptimizerConfig(
            algorithm=algorithm,
            eta=self.eta,
            alpha=self.alpha,
            batch_size=self.batch_size,
            max_iterations=self.max_iterations,
            seed=self.seed,
            trace_every=self.trace_every,
        )


def _items(raw: str) -> list[str]:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return items


def _list_of(kind):
    return lambda raw: tuple(kind(item) for item in _items(raw))


def _algorithms(raw: str) -> tuple[Algorithm, ...]:
    return ALL_ALGORITHMS if raw.strip() == "all" else _list_of(Algorithm)(raw)


def _run_algorithms(raw: str) -> tuple[Algorithm, ...]:
    """:func:`_algorithms` without a repeat: ``run`` would train and report a repeat twice."""
    algorithms = _algorithms(raw)
    if len(set(algorithms)) < len(algorithms):
        raise ValueError(f"must not repeat a value, got {', '.join(a.value for a in algorithms)}")
    return algorithms


def _seed(raw: str) -> int:
    seed = int(raw)
    if seed < 0:
        raise ValueError(f"must be non-negative, got {seed}")
    return seed


# Every typed config key: (section, key) -> (field, parser). A parser takes the
# raw string and raises ValueError on a malformed value. [grid] fields are
# GridSpec's, the others ExperimentConfig's; [columns] is a free-form
# logical = physical map and has no entry.
_CONFIG_KEYS = {
    ("data", "csv"): ("data_path", Path),
    ("data", "synthetic"): ("synthetic_path", Path),
    ("preprocess", "seed"): ("seed", _seed),
    ("preprocess", "condition_columns"): ("condition_columns", _list_of(str)),
    ("graph", "degree"): ("degree", int),
    ("optimizer", "algorithm"): ("algorithms", _run_algorithms),
    ("optimizer", "eta"): ("eta", float),
    ("optimizer", "alpha"): ("alpha", float),
    ("optimizer", "batch_size"): ("batch_size", int),
    ("optimizer", "max_iterations"): ("max_iterations", int),
    ("optimizer", "trace_every"): ("trace_every", int),
    ("grid", "alphas"): ("alphas", _list_of(float)),
    ("grid", "etas"): ("etas", _list_of(float)),
    ("grid", "degrees"): ("degrees", _list_of(int)),
    ("grid", "algorithms"): ("algorithms", _algorithms),
}


def _parse(section: str, key: str, raw: str, source: str | None = None):
    """``raw`` through the key's parser; a ConfigError names ``source`` or the key."""
    try:
        return _CONFIG_KEYS[section, key][1](raw)
    except ValueError as exc:
        raise ConfigError(f"{source or f'[{section}] {key}'}: {exc}") from exc


def _value(parser: configparser.ConfigParser, section: str, key: str) -> str:
    """The interpolated value of ``[section] key``; a configparser error names the key."""
    try:
        return parser[section][key]
    except configparser.Error as exc:
        raise ConfigError(f"[{section}] {key}: {exc}") from exc


def load_experiment_config(path) -> ExperimentConfig:
    """Parse the INI-style experiment config; unknown sections or keys fail.

    Every key parses through its ``_CONFIG_KEYS`` entry. Relative data paths
    resolve against the config file's directory. All sections and keys are
    optional; missing values take ExperimentConfig and GridSpec defaults.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    unknown_sections = set(parser.sections()) - {s for s, _ in _CONFIG_KEYS} - {"columns"}
    if unknown_sections:
        raise ConfigError(f"unknown config section(s): {sorted(unknown_sections)}")
    for section in parser.sections():
        extra = {key for key in parser[section] if (section, key) not in _CONFIG_KEYS}
        if extra and section != "columns":
            raise ConfigError(f"unknown key(s) in [{section}]: {sorted(extra)}")

    settings: dict = {}
    grid: dict = {}
    for (section, key), (name, _) in _CONFIG_KEYS.items():
        if parser.has_option(section, key):
            value = _parse(section, key, _value(parser, section, key))
            if isinstance(value, Path):  # [data] paths: relative to the config
                value = path.parent / value
            (grid if section == "grid" else settings)[name] = value
    if "columns" in parser:
        settings["columns"] = {key: _value(parser, "columns", key) for key in parser["columns"]}
        bad = set(settings["columns"]) - set(LOGICAL_FIELDS)
        if bad:
            raise ConfigError(f"[columns] unknown logical field(s): {sorted(bad)}")
    try:
        settings["grid"] = GridSpec(**grid)
    except ParameterError as exc:
        raise ConfigError(f"[grid] {exc}") from exc
    return ExperimentConfig(**settings)


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _json_fits(value, hint) -> bool:
    """Whether a JSON value fits a field typed int, float or ``tuple[X, ...]``; no bool does."""
    if isinstance(value, bool):
        return False
    if hint in (int, float):
        return isinstance(value, int) or (hint is float and isinstance(value, float))
    return isinstance(value, list) and all(_json_fits(item, get_args(hint)[0]) for item in value)


def load_synthetic_spec(path) -> SyntheticSpec:
    """Read a SyntheticSpec from a JSON object whose keys are the dataclass's fields.

    Fields without a default are required. Each value must have its field's
    JSON type (an integer is no bool, an array holds scalars of the item
    type); JSON arrays become tuples.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: synthetic spec must be a JSON object")
    spec_fields = fields(SyntheticSpec)
    unknown = set(raw) - {f.name for f in spec_fields}
    if unknown:
        raise SchemaError(f"{path}: unknown synthetic spec key(s): {sorted(unknown)}")
    missing = {f.name for f in spec_fields if f.default is MISSING} - set(raw)
    if missing:
        raise SchemaError(f"{path}: synthetic spec missing key(s): {sorted(missing)}")
    hints = get_type_hints(SyntheticSpec)
    for f in spec_fields:
        if f.name in raw and not _json_fits(raw[f.name], hints[f.name]):
            got = json.dumps(raw[f.name])
            raise SchemaError(f"{path}: synthetic spec {f.name!r} must be {f.type}, got {got}")
    return SyntheticSpec(**{key: _tuples(value) for key, value in raw.items()})


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
    Nothing is written until every computation has succeeded, and the
    artifacts are written to a sibling staging directory and moved into
    ``out_dir`` only once all of them are written, so a failure leaves no
    partial artifacts. Identical inputs produce byte-identical outputs (the
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
        cfg.seed = _parse("preprocess", "seed", str(seed), "--seed")
    if algorithm is not None:
        cfg.algorithms = _parse("optimizer", "algorithm", algorithm, "--algorithm")
        cfg.grid = replace(cfg.grid, algorithms=cfg.algorithms)

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
            manifest["optimizer"] = {
                "algorithms": [a.value for a in cfg.algorithms],
                "eta": cfg.eta,
                "alpha": cfg.alpha,
                "batch_size": cfg.batch_size,
                "max_iterations": cfg.max_iterations,
            }
            if Algorithm.FEDSGD in cfg.algorithms:
                graph = build_knn_graph(
                    discrepancy_matrix(pretrain_local_weights(datasets)), cfg.degree
                )
            for algo in cfg.algorithms:
                algo_graph = graph if algo is Algorithm.FEDSGD else None
                W, trace = train(datasets, algo_graph, cfg.optimizer_config(algo))
                params = _hyperparameters(algo, cfg.eta, cfg.alpha, cfg.degree)
                fits.append((algo, params, W, trace, algo_graph))
        else:
            result = run_grid_search(
                datasets,
                cfg.grid,
                batch_size=cfg.batch_size,
                max_iterations=cfg.max_iterations,
                seed=cfg.seed,
                trace_every=cfg.trace_every,
            )
            artifacts["grid.csv"] = _render_grid_csv(result.cells)
            manifest["selected"] = {
                name: cell.to_dict() for name, cell in sorted(result.best.items())
            }
            for algo in cfg.grid.algorithms:
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
    out.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out.name}.", dir=out.parent))
    try:
        for name in sorted(artifacts):
            (staging / name).write_text(artifacts[name], encoding="utf-8")
        if graph is not None:
            export_edge_list(graph, staging / "graph.edges")
        if dump_data:
            dump_preprocessed(datasets, staging / "preprocessed")
        for name in manifest["artifacts"]:
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (staging / name).replace(out / name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)

    return {
        "out_dir": str(out),
        "artifacts": manifest["artifacts"],
        "report": report,
        "manifest": manifest,
    }
