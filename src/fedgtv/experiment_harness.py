"""Grid search, evaluation reports, and experiment orchestration.

The harness ties the pipeline together: load (or generate) per-node datasets,
build the empirical graph where needed, train one or more algorithms, and
write deterministic artifacts (metrics report, training traces, graph edge
list, run manifest) to an output directory. Hyperparameter search sweeps
alpha x eta x degree for fedsgd, on connected and disconnected graphs alike,
and eta alone for the averaging variants, picking the lowest mean validation
MSE. ``run`` is the search's one-point case, so neither prints a numpy warning
and both raise one DivergenceError when no cell of an algorithm scores finite.
"""
from __future__ import annotations

import configparser
import hashlib
import itertools
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
    DEFAULT_CONDITION_COLUMNS,
    CsvSchema,
    LocalDataset,
    LOGICAL_FIELDS,
    SyntheticSpec,
    _not_utf8,
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
    DivergenceError,
    ParameterError,
    SchemaError,
    SplitError,
)
from .fed_optimizers import Algorithm, OptimizerConfig, TrainingTrace, _losses, _split_parts, train_cells
# train and mse_loss stay importable here: the benchmark's tracer wraps them at this path.
from .fed_optimizers import train  # noqa: F401
from .model_core import mse_loss  # noqa: F401

__all__ = [
    "AlgorithmMetrics",
    "ExperimentConfig",
    "GridCell",
    "GridSearchResult",
    "GridSpec",
    "MetricsReport",
    "evaluate",
    "load_experiment_config",
    "load_synthetic_spec",
    "run_experiment",
    "run_grid_search",
    "select_best",
]

ALL_ALGORITHMS = tuple(Algorithm)


@dataclass(frozen=True)
class GridSpec:
    """Hyperparameter candidates for :func:`run_grid_search`.

    Defaults are the usual sweep: alpha in {1, 0.5, 0.1}, eta in
    {0.1, 0.01, 0.001}, degree in {1, 2, 3, 4}, all three algorithms. alphas
    and degrees only apply to fedsgd, yet every (algorithm, eta, alpha) must
    make a valid OptimizerConfig, whose ParameterError names the rule; no
    axis repeats a value. Once the node count n is known,
    :func:`build_knn_graph` rejects a degree outside [1, n - 1] with
    ParameterError (exit 2) rather than dropping it, so the default degree
    axis fails on data with fewer than 5 nodes.
    """

    alphas: tuple[float, ...] = (1.0, 0.5, 0.1)
    etas: tuple[float, ...] = (0.1, 0.01, 0.001)
    degrees: tuple[int, ...] = (1, 2, 3, 4)
    algorithms: tuple[Algorithm, ...] = ALL_ALGORITHMS

    def __post_init__(self):
        if not self.alphas or not self.etas or not self.degrees or not self.algorithms:
            raise ParameterError("axes must be non-empty")
        if any(int(d) != d or d < 1 for d in self.degrees):
            raise ParameterError("degrees must be integers >= 1")
        for axis, kind in (("alphas", float), ("etas", float), ("degrees", int), ("algorithms", Algorithm)):
            object.__setattr__(self, axis, tuple(map(kind, getattr(self, axis))))
        [OptimizerConfig(a, eta, alpha) for a in self.algorithms for eta in self.etas for alpha in self.alphas]
        for axis in ("alphas", "etas", "degrees", "algorithms"):
            values = [getattr(v, "value", v) for v in getattr(self, axis)]
            if len(set(values)) < len(values):
                raise ParameterError(f"{axis} must not repeat a value, got {', '.join(map(str, values))}")


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
        return _mean(self.train_mse)

    @property
    def mean_val(self) -> float:
        return _mean(self.val_mse)

    @property
    def mean_test(self) -> float:
        return _mean(self.test_mse)

    def to_dict(self) -> dict:
        """Strict-JSON ready: a non-finite score (an empty split's NaN) is None."""
        scores = lambda values: [v if math.isfinite(v) else None for v in values]
        return {
            "algorithm": self.algorithm,
            "hyperparameters": dict(self.hyperparameters),
            "node_ids": list(self.node_ids),
            "train_mse": scores(self.train_mse),
            "val_mse": scores(self.val_mse),
            "test_mse": scores(self.test_mse),
            "mean": dict(zip(("train", "val", "test"), scores([self.mean_train, self.mean_val, self.mean_test]))),
        }


@dataclass
class MetricsReport:
    """Ordered collection of per-algorithm metric blocks."""

    blocks: list[AlgorithmMetrics] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"algorithms": [b.to_dict() for b in self.blocks]}

    def to_text(self) -> str:
        """Aligned plain-text tables, one block per algorithm. Deterministic."""
        lines = []
        for b in self.blocks:
            lines.append(f"== {_label(b.algorithm, b.hyperparameters)} ==")
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


def _mean(scores) -> float:
    with np.errstate(over="ignore", invalid="ignore"):  # a mean past the float range is inf, with no warning
        return float(np.mean(scores))


def _label(algorithm: str, hyperparameters: Mapping) -> str:
    """``algorithm (key=value, ...)``, as a metrics.txt block header names a block."""
    params = ", ".join(f"{k}={_fmt_param(v)}" for k, v in hyperparameters.items())
    return algorithm + (f" ({params})" if params else "")


def _fmt_param(v) -> str:
    """An int as is; a float by ``:g`` where that reads back equal, else by its shortest round-trip repr."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{v:g}" if float(f"{v:g}") == v else repr(float(v))


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
    """One grid cell: hyperparameters, validation score, and what it trained.

    ``alpha``/``degree`` are None for the averaging variants, and
    ``connected`` records whether the cell's graph is connected. ``val_mse``,
    the mean of the per-node ``val_losses``, is None until the cell is
    trained. That row, the ``weights`` and ``trace`` it trained (None until
    then) and its ``graph`` (None for the averaging variants) take no part in
    equality or ``repr``.
    """

    algorithm: str
    eta: float
    alpha: float | None = None
    degree: int | None = None
    connected: bool = True
    val_mse: float | None = None
    val_losses: np.ndarray | None = field(default=None, compare=False, repr=False)
    weights: np.ndarray | None = field(default=None, compare=False, repr=False)
    trace: TrainingTrace | None = field(default=None, compare=False, repr=False)
    graph: EmpiricalGraph | None = field(default=None, compare=False, repr=False)


@dataclass
class GridSearchResult:
    """All recorded cells, and the per-algorithm winners among them.

    Each ``best[name]`` is one of ``cells``. Every trained cell keeps its
    weights; only the winners keep their trace. Training is deterministic,
    so callers report the winners from these without retraining them.
    """

    cells: list[GridCell]
    best: dict[str, GridCell]


def _tie_break(cell: GridCell) -> tuple:
    """Smaller eta, then alpha, then degree ranks first (None as 0)."""
    return cell.eta, cell.alpha or 0.0, cell.degree or 0


def select_best(cells: Sequence[GridCell]) -> GridCell:
    """Lowest finite validation MSE; ties broken by smaller eta, alpha, then degree.

    Untrained (None) and non-finite (diverged) cells are never selected; none left is a DivergenceError.
    """
    trained = [c for c in cells if c.val_mse is not None and math.isfinite(c.val_mse)]
    if not trained:
        raise DivergenceError("no grid candidate has a finite validation MSE (every run diverged)")
    return min(trained, key=lambda c: (c.val_mse, *_tie_break(c)))


def run_grid_search(
    datasets: Sequence[LocalDataset],
    grid: GridSpec | None = None,
    **settings,
) -> GridSearchResult:
    """Exhaustively train and score every grid candidate.

    fedsgd sweeps alpha x eta x degree, on each degree's union-kNN graph
    whether or not it is connected (``connected`` records which). The
    averaging variants sweep eta only. Each algorithm's cells train together
    in one :func:`train_cells` call, fresh from zeros (no warm starts), with
    the ``settings`` of :class:`OptimizerConfig` that no grid holds (its
    batch_size, max_iterations, seed and trace_every, with its defaults):
    every fedsgd (node, round) mini-batch is drawn once and shared by all
    cells, and each cell's result is bitwise identical to training it alone.
    Each cell keeps its weights, and only each algorithm's winner its
    trace. Cells are recorded in degree-major, then alpha, then eta order;
    selection does not depend on that order. Before any training, raises
    SplitError when a node has no validation rows, and ParameterError, from
    :func:`build_knn_graph`, for a degree outside [1, n - 1]. Raises
    DivergenceError, naming the cell that the tie-break ranks first
    (:func:`_diverged`), when no cell of an algorithm has a finite val MSE.
    """
    if len(datasets) == 0:
        raise DegenerateInputError("no datasets to search over")
    for ds in datasets:  # its NaN val MSE would poison every cell's mean
        n_train, n_val, n_test = (len(ds.split(name)[1]) for name in ("train", "val", "test"))
        if not n_val:
            raise SplitError(f"node {ds.node_id}: empty validation split ({n_train} train, 0 val, {n_test} test rows)")
    grid = GridSpec() if grid is None else grid
    cells: list[GridCell] = []
    best: dict[str, GridCell] = {}
    graphs = []  # fedsgd's, one per degree
    if Algorithm.FEDSGD in grid.algorithms:
        disc = discrepancy_matrix(pretrain_local_weights(datasets))
        graphs = [build_knn_graph(disc, d) for d in grid.degrees]
    for algorithm in grid.algorithms:
        if algorithm is Algorithm.FEDSGD:
            candidates = [
                GridCell(algorithm.value, eta, alpha, d, connected, graph=graph)
                for d, graph, connected in zip(grid.degrees, graphs, map(is_connected, graphs))
                for alpha in grid.alphas for eta in grid.etas
            ]
        else:
            candidates = [GridCell(algorithm.value, eta) for eta in grid.etas]
        configs = [OptimizerConfig(c.algorithm, c.eta, c.alpha or 0.0, **settings) for c in candidates]
        with np.errstate(over="ignore", invalid="ignore"):  # a diverging cell scores non-finite, with no warning
            W, traces = train_cells(datasets, [c.graph for c in candidates], configs)
            val = _losses(_split_parts(datasets, "val", W), W)
        fits = zip(candidates, val, W, traces)
        algo_cells = [replace(c, val_mse=_mean(row), val_losses=row, weights=w, trace=t) for c, row, w, t in fits]
        if not any(math.isfinite(c.val_mse) for c in algo_cells):
            raise _diverged(min(algo_cells, key=_tie_break), datasets)
        winner = best[algorithm.value] = select_best(algo_cells)
        cells += [c if c is winner else replace(c, trace=None) for c in algo_cells]  # a grid reads only its winners' traces
    return GridSearchResult(cells=cells, best=best)


def _hyperparameters(cell: GridCell) -> dict:
    return {key: getattr(cell, key) for key in ("alpha", "eta", "degree") if getattr(cell, key) is not None}


def _diverged(cell: GridCell, datasets: Sequence[LocalDataset]) -> DivergenceError:
    """A cell without a finite val MSE, named as its metrics.txt block: its first non-finite training loss, else val."""
    label, nodes = _label(cell.algorithm, _hyperparameters(cell)), [ds.node_id for ds in datasets]
    for k, losses in zip(cell.trace.rounds, cell.trace.node_losses):
        for node, loss in zip(nodes, losses.tolist()):
            if not math.isfinite(loss):
                return DivergenceError(f"{label} diverged: round {k}: node {node}: non-finite training loss")
    where = next((f"node {node}: " for node, loss in zip(nodes, cell.val_losses.tolist()) if not math.isfinite(loss)), "")
    return DivergenceError(f"{label}: {where}non-finite validation MSE")


@dataclass
class ExperimentConfig:
    """Resolved experiment settings (config file plus CLI overrides).

    Exactly one of ``data_path`` (CSV) and ``synthetic_path`` (JSON spec)
    must be set by the time the experiment runs. Defaults for the fixed-run
    hyperparameters are the usual selected values (alpha=0.1, eta=0.1, d=2).
    """

    data_path: Path | None = None
    synthetic_path: Path | None = None
    seed: int = OptimizerConfig.seed
    columns: dict[str, str] = field(default_factory=dict)
    condition_columns: tuple[str, ...] = DEFAULT_CONDITION_COLUMNS
    degree: int = 2
    algorithms: tuple[Algorithm, ...] = ALL_ALGORITHMS
    eta: float = 0.1
    alpha: float = 0.1
    batch_size: int = OptimizerConfig.batch_size
    max_iterations: int = OptimizerConfig.max_iterations
    trace_every: int = OptimizerConfig.trace_every
    grid: GridSpec = field(default_factory=GridSpec)


def _items(raw: str) -> list[str]:
    items = [part.strip() for part in raw.split(",") if part.strip()]
    if not items:
        raise ValueError("empty list")
    return items


def _list_of(kind):
    return lambda raw: tuple(kind(item) for item in _items(raw))


def _algorithms(raw: str) -> tuple[Algorithm, ...]:
    return ALL_ALGORITHMS if raw.strip() == "all" else _list_of(Algorithm)(raw)


def _int_at_least(low: int, rule: str):
    def parse(raw: str) -> int:
        value = int(raw)
        if value < low:
            raise ValueError(f"must be {rule}, got {value}")
        return value
    return parse


# Every typed config key: (section, key) -> (field, parser). A parser takes the
# raw string and raises ValueError on a malformed value. [grid] fields are
# GridSpec's, the others ExperimentConfig's; [columns] is a free-form
# logical = physical map and has no entry.
_CONFIG_KEYS = {
    ("data", "csv"): ("data_path", Path),
    ("data", "synthetic"): ("synthetic_path", Path),
    ("preprocess", "seed"): ("seed", _int_at_least(0, "non-negative")),
    ("preprocess", "condition_columns"): ("condition_columns", _list_of(str)),
    ("graph", "degree"): ("degree", _int_at_least(1, ">= 1")),  # n - 1 is checked once the data loads
    ("optimizer", "algorithm"): ("algorithms", _algorithms),  # a repeat fails run's GridSpec
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
    optional; missing values take ExperimentConfig and GridSpec defaults. A
    file the OS will not read raises ConfigError, as a missing one does.
    """
    return _load_config(Path(path))[0]


def _load_config(path: Path) -> tuple[ExperimentConfig, bytes]:
    """:func:`load_experiment_config`'s config and the bytes it parsed, from one read."""
    try:
        raw = path.read_bytes()
        text = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")  # read_text's universal newlines
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError) as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, ConfigError) from exc
    except OSError as exc:  # unreadable, say for want of permission on the file or its directory
        raise ConfigError(f"{path}: {exc.strerror}") from exc
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=str(path))
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
    return ExperimentConfig(**settings), raw


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
    try:
        with path.open("r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except UnicodeDecodeError as exc:
        raise _not_utf8(path) from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
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
    lines = ["algorithm,round,objective," + ",".join(f"train_mse_node{i}" for i in node_ids)]
    row = "%s,%s,%.17g" + ",%.17g" * len(node_ids)  # Python floats format faster than numpy scalars, to the same text
    for name, trace in traces.items():
        for k, obj, losses in zip(trace.rounds, trace.objective, trace.node_losses):
            lines.append(row % (name, k, obj, *losses.tolist()))
    return "\n".join(lines) + "\n"


def _render_grid_csv(cells: Sequence[GridCell]) -> str:
    lines = ["algorithm,alpha,eta,degree,connected,val_mse"]
    for c in cells:
        alpha = "" if c.alpha is None else _fmt_param(c.alpha)
        degree = "" if c.degree is None else str(c.degree)
        lines.append(f"{c.algorithm},{alpha},{_fmt_param(c.eta)},{degree},{int(c.connected)},{c.val_mse:.17g}")
    return "\n".join(lines) + "\n"


def _metrics(cell: GridCell, test: np.ndarray, datasets: Sequence[LocalDataset]) -> AlgorithmMetrics:
    """A trained cell's report block: train at its final trace point, its val row, and ``test``, bitwise evaluate's."""
    scores = [tuple(row.tolist()) for row in (cell.trace.node_losses[-1], cell.val_losses, test)]
    return AlgorithmMetrics(cell.algorithm, tuple(ds.node_id for ds in datasets), *scores, _hyperparameters(cell))


def _load_datasets(cfg: ExperimentConfig):
    """Returns (datasets, source manifest entry)."""
    if cfg.data_path is not None and cfg.synthetic_path is not None:
        raise ConfigError("configure exactly one of [data] csv and [data] synthetic")
    if cfg.data_path is not None:
        schema = CsvSchema(columns=cfg.columns, condition_columns=cfg.condition_columns)
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


def _stale_artifacts(out: Path, written: Sequence[str]) -> list[Path]:
    """Paths the manifest already in ``out`` lists and ``written`` does not, none outside ``out``.

    Only a JSON object whose ``artifacts`` is a list of strings counts; absolute and ``..`` names are skipped.
    """
    try:
        old = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):  # no earlier manifest, or not JSON
        return []
    names = old.get("artifacts") if isinstance(old, dict) else None
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        return []
    kept = set(map(Path, written))
    return [out / p for p in map(Path, names) if p not in kept and not p.is_absolute() and ".." not in p.parts]


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

    Modes: "grid" runs the hyperparameter search and reports each algorithm's
    winner from the weights, trace and val scores the search already took;
    "run" is its one-point case at the [optimizer] and [graph] settings, with
    no ``grid.csv``; either's DivergenceError names the cell, round and node.
    "graph" only builds and exports the empirical graph. A mode's settings,
    its GridSpec first, are checked once before any data loads. Each mode
    passes through the same stages once: load, graph, train, report, commit;
    the report scores only the test split. Nothing is written until every
    computation has succeeded. The artifacts are written to a hidden staging
    directory inside ``out_dir``, so each move stays on one filesystem; the
    manifest lists the files actually written there, and all of them move into
    ``out_dir``, the manifest last, only once every one is written, so a
    failure leaves no partial artifacts, and no directory that this run created
    for ``out_dir``. Once the moves succeed, files that an earlier run's
    manifest in ``out_dir`` lists and this run did not write are deleted.
    Identical inputs produce byte-identical outputs (the manifest records
    versions but no timestamps). Returns the report, manifest and artifacts.
    """
    if mode not in ("run", "grid", "graph"):
        raise ParameterError(f"unknown mode {mode!r}")
    cfg, raw_config = _load_config(Path(config_path))
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
    out = Path(out_dir)
    found = next(p for p in (out, *out.parents) if p.exists() or p.is_symlink())  # out, or the ancestor mkdir would create it in
    if not found.is_dir():
        raise ConfigError(f"--out {out}: {found} is not a directory")
    settings = {key: getattr(cfg, key) for key in ("batch_size", "max_iterations", "seed", "trace_every")}
    if mode != "graph":  # every setting the mode trains with, checked once before any data loads
        grid = GridSpec((cfg.alpha,), (cfg.eta,), (cfg.degree,), cfg.algorithms) if mode == "run" else cfg.grid
        if mode == "grid" and algorithm is not None:  # [grid] was checked with its own algorithms as it loaded
            grid = replace(grid, algorithms=cfg.algorithms)
        OptimizerConfig(grid.algorithms[0], grid.etas[0], **settings)  # and the settings no grid holds

    datasets, source = _load_datasets(cfg)
    manifest: dict = {
        "config_name": Path(config_path).name,
        "config_sha256": hashlib.sha256(raw_config).hexdigest(),
        "mode": mode,
        "seed": cfg.seed,
        "source": source,
        "versions": {
            "fedgtv": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    artifacts: dict[str, str] = {}
    if mode == "graph":
        graph = build_knn_graph(discrepancy_matrix(pretrain_local_weights(datasets)), cfg.degree)
    else:
        result = run_grid_search(datasets, grid, **settings)
        fits = [result.best[algo.value] for algo in grid.algorithms]  # one trained cell per algorithm
        graph = getattr(result.best.get(Algorithm.FEDSGD.value), "graph", None)
    if mode == "run":
        manifest["optimizer"] = {
            "algorithms": [a.value for a in cfg.algorithms], "eta": cfg.eta, "alpha": cfg.alpha,
            "batch_size": cfg.batch_size, "max_iterations": cfg.max_iterations,
        }
    elif mode == "grid":
        artifacts["grid.csv"] = _render_grid_csv(result.cells)
        scored = [f.name for f in fields(GridCell) if f.compare]  # not the arrays, which JSON cannot hold
        manifest["selected"] = {name: {key: getattr(cell, key) for key in scored} for name, cell in sorted(result.best.items())}
    if graph is not None:
        manifest["graph"] = graph_summary(graph)

    report: MetricsReport | None = None
    if mode != "graph":  # the scores training took; test once, for every reported cell at once
        W = np.stack([cell.weights for cell in fits])
        report = MetricsReport([_metrics(*fit, datasets) for fit in zip(fits, _losses(_split_parts(datasets, "test", W), W))])
        artifacts["metrics.txt"] = report.to_text()
        artifacts["metrics.json"] = json.dumps(report.to_dict(), indent=2, sort_keys=True, allow_nan=False) + "\n"
        traces = {cell.algorithm: cell.trace for cell in fits}
        artifacts["trace.csv"] = _render_trace_csv(traces, [ds.node_id for ds in datasets])

    # the directories mkdir makes, out first; the topmost is removed again, with all it holds, if the commit fails
    created = [*itertools.takewhile(lambda p: not (p.exists() or p.is_symlink()), (out, *out.parents))]
    out.mkdir(parents=True, exist_ok=True)
    # staged inside out, so every move stays on out's filesystem, also through a symlink or at a mount point
    staging, committed = Path(tempfile.mkdtemp(prefix=".fedgtv-staging-", dir=out)), False
    try:
        for name, text in artifacts.items():
            (staging / name).write_text(text, encoding="utf-8")
        written = [staging / name for name in artifacts]
        if graph is not None:
            written.append(export_edge_list(graph, staging / "graph.edges"))
        if dump_data:
            written += dump_preprocessed(datasets, staging / "preprocessed")
        names = [p.relative_to(staging).as_posix() for p in written] + ["manifest.json"]
        manifest["artifacts"] = sorted(names)
        (staging / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        stale = _stale_artifacts(out, names)
        for name in names:  # manifest.json last: it never lists a file that has not moved yet
            (out / name).parent.mkdir(parents=True, exist_ok=True)
            (staging / name).replace(out / name)
        for path in stale:
            if path.is_file():
                path.unlink()
                if path.parent != out and not any(path.parent.iterdir()):
                    path.parent.rmdir()
        committed = True
    finally:
        shutil.rmtree(created[-1] if created and not committed else staging, ignore_errors=True)

    return {"out_dir": str(out), "artifacts": manifest["artifacts"], "report": report, "manifest": manifest}
