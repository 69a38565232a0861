"""Ingestion and preprocessing of per-node tabular datasets.

The raw CSV holds one hospital encounter per row: a readmission-count
category, two binary fields, nine numeric clinical measurements, a set of
binary condition flags, the integer length-of-stay label, and a facility id
that assigns the row to a node. Engineered feature rows use a fixed
19-column layout:

    [0..5]   one-hot readmission count ("0".."4", "5+")
    [6]      gender (M=1, F=0)
    [7]      hemo flag
    [8..16]  hematocrit, neutrophils, sodium, glucose, bloodureanitro,
             creatinine, bmi, pulse, respiration
    [17]     n_conditions (sum of the binary condition flags)
    [18]     intercept, constant 1

Only columns 8..16 are z-scored; the intercept column exists because labels
are unnormalized positive integers and the linear model has no other bias
term.
"""
from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import compress, count, islice, repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConstantFeatureError,
    DegenerateInputError,
    EmptyInputError,
    ParameterError,
    SchemaError,
    SplitError,
)

__all__ = [
    "CsvSchema",
    "FEATURE_DIM",
    "FEATURE_NAMES",
    "LocalDataset",
    "SyntheticSpec",
    "dump_preprocessed",
    "engineer_features",
    "generate_synthetic",
    "load_csv",
    "load_preprocessed",
    "normalize",
    "split_dataset",
]

RCOUNT_CATEGORIES = ("0", "1", "2", "3", "4", "5+")
RCOUNT_SLOT = {c: float(i) for i, c in enumerate(RCOUNT_CATEGORIES)}
GENDER_VALUE = {"M": 1.0, "F": 0.0}

NUMERIC_FIELDS = (
    "hematocrit",
    "neutrophils",
    "sodium",
    "glucose",
    "bloodureanitro",
    "creatinine",
    "bmi",
    "pulse",
    "respiration",
)

# Logical field names load_csv expects to find (via the schema's column map).
LOGICAL_FIELDS = ("rcount", "gender", "hemo") + NUMERIC_FIELDS + ("lengthofstay", "facid")

# Binary condition columns summed into n_conditions. The set is configurable
# (CsvSchema.condition_columns); this default covers the public length-of-stay
# dataset's condition flags other than gender and hemo.
DEFAULT_CONDITION_COLUMNS = (
    "dialysisrenalendstage",
    "asthma",
    "irondef",
    "pneum",
    "substancedependence",
    "psychologicaldisordermajor",
    "depress",
    "psychother",
    "fibrosisandother",
    "malnutrition",
)

FEATURE_NAMES = (
    tuple(f"rcount_{c}" for c in ("0", "1", "2", "3", "4", "5plus"))
    + ("gender", "hemo")
    + NUMERIC_FIELDS
    + ("n_conditions", "intercept")
)
FEATURE_DIM = len(FEATURE_NAMES)  # 19

# Column indices of the nine z-scored clinical measurements.
NUMERIC_COLUMNS = np.arange(8, 17)

_CHUNK_ROWS = 512  # rows load_csv reads and converts at a time; measured fastest on the LOS CSV


@dataclass(frozen=True)
class CsvSchema:
    """Maps logical field names to physical CSV column names.

    ``columns`` overrides individual logical names (defaults to identity);
    ``condition_columns`` lists the physical binary columns summed into
    n_conditions.
    """

    columns: Mapping[str, str] = field(default_factory=dict)
    condition_columns: tuple[str, ...] = DEFAULT_CONDITION_COLUMNS

    def __post_init__(self):
        unknown = set(self.columns) - set(LOGICAL_FIELDS)
        if unknown:
            raise SchemaError(f"unknown logical field(s) in column map: {sorted(unknown)}")
        if not self.condition_columns:
            raise SchemaError("condition_columns must name at least one column")

    def physical(self, logical: str) -> str:
        return self.columns.get(logical, logical)

    def required_physical_columns(self) -> list[str]:
        return [self.physical(f) for f in LOGICAL_FIELDS] + list(self.condition_columns)


@dataclass
class LocalDataset:
    """One node's engineered data with train/val/test splits.

    ``numeric_columns`` lists the feature columns subject to z-scoring;
    ``feature_stats`` holds the training-split (means, stds) once
    :func:`normalize` has run. :attr:`train_gram` caches the training
    split's sufficient statistics on first read, so the split arrays must not
    be mutated in place after that (derive a new dataset with
    :func:`dataclasses.replace` instead).
    """

    node_id: int
    train: tuple[np.ndarray, np.ndarray]
    val: tuple[np.ndarray, np.ndarray]
    test: tuple[np.ndarray, np.ndarray]
    numeric_columns: np.ndarray
    feature_names: tuple[str, ...] | None = None
    feature_stats: tuple[np.ndarray, np.ndarray] | None = None
    source_label: str | None = None

    @property
    def feature_dim(self) -> int:
        return self.train[0].shape[1]

    def split(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        if name not in ("train", "val", "test"):
            raise ParameterError(f"unknown split {name!r}")
        return getattr(self, name)

    @cached_property
    def train_gram(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``(X^T X, X^T y, m)`` of the training split, computed once."""
        X, y = self.train
        if X.shape[0] == 0:
            raise DegenerateInputError(f"node {self.node_id}: empty training split")
        return X.T @ X, X.T @ y, X.shape[0]


def _float(text: str) -> float:
    """``float()`` of the stripped text, as the drop rules read it; NaN where that raises."""
    try:
        return float(text.strip())
    except ValueError:
        return math.nan


def _floats(texts: Sequence[str]) -> np.ndarray:
    """:func:`_float` of each text, by one C-level ``float()`` map unless a text needs more."""
    try:  # where float() accepts a text, its stripped form gives the same value
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return np.fromiter(map(_float, texts), float, len(texts))


def load_csv(path, schema: CsvSchema | None = None) -> tuple[dict[str, np.ndarray], int]:
    """Read the raw CSV in one streaming pass and group the valid rows by facility id.

    Returns ``(blocks, dropped)``. ``blocks`` maps each distinct facility id,
    in sorted order, to an (m, 14) float block with one row per kept record,
    in file order: the rcount slot (0..5), gender (M=1), hemo, the nine
    numeric measurements, n_conditions and the length of stay. ``dropped``
    counts the rows discarded because a required field was missing or
    malformed (see the README's CSV format for the exact rules); blank lines
    are skipped and not counted. Rows are read in fixed chunks, each converted
    column by column with the drop rules applied as boolean masks.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    blocks: dict[str, array] = {}
    nan = repeat(math.nan)
    dropped = 0
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            for column in schema.required_physical_columns():
                if column not in header:
                    raise SchemaError(f"required column {column!r} missing from header of {path}")
            index = {name: i for i, name in enumerate(header)}  # a repeated name resolves to its last column
            logical = ("facid", "rcount", "gender", "lengthofstay") + NUMERIC_FIELDS + ("hemo",)
            picks = [index[schema.physical(f)] for f in logical] + [index[c] for c in schema.condition_columns]
            width = max(picks) + 1
            while chunk := list(islice(reader, _CHUNK_ROWS)):
                rows = [row for row in chunk if len(row) >= width]
                dropped += len(chunk) - len(rows) - chunk.count([])  # blank rows are skipped
                if not rows:
                    continue
                columns = list(zip(*rows))  # as long as the shortest row, which reaches every pick
                facid, rcount, gender = (list(map(str.strip, columns[i])) for i in picks[:3])
                los, *values = (_floats(columns[i]) for i in picks[3:])  # then the numerics, hemo, the flags
                flags = np.array(values[9:]) + 0.0  # hemo, then the condition flags; -0 becomes +0.0
                record = np.column_stack([
                    np.fromiter(map(RCOUNT_SLOT.get, rcount, nan), float),
                    np.fromiter(map(GENDER_VALUE.get, map(str.upper, gender), nan), float),
                    flags[0], *values[:9], (flags[1:] == 1.0).sum(axis=0), los,
                ])
                keep = np.isfinite(record).all(axis=1) & np.isin(flags, (0.0, 1.0)).all(axis=0)
                keep &= (los >= 1) & (los == np.floor(los)) & np.fromiter(map(bool, facid), bool)
                dropped += len(rows) - int(keep.sum())
                record = record[keep]
                labels: dict[str, int] = {}  # kept facid -> its rows' label; a numpy str drops a trailing NUL
                label = np.fromiter(map(labels.setdefault, compress(facid, keep), count()), np.intp)
                for f, i in labels.items():
                    blocks.setdefault(f, array("d")).frombytes(record[label == i].tobytes())
        except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
            raise SchemaError(f"{path}, line {reader.line_num}: {exc}") from exc
    if not blocks:
        raise EmptyInputError(f"no parseable data rows in {path}")
    return {facid: np.frombuffer(blocks[facid]).reshape(-1, 14) for facid in sorted(blocks)}, dropped


def engineer_features(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Build the unnormalized feature matrix and label vector for one node.

    ``block`` is one facility's (m, 14) block from :func:`load_csv`. Row
    layout follows :data:`FEATURE_NAMES`; labels are the length-of-stay
    values.
    """
    m = block.shape[0]
    X = np.zeros((m, FEATURE_DIM))
    X[np.arange(m), block[:, 0].astype(int)] = 1.0
    X[:, 6:18] = block[:, 1:13]
    X[:, 18] = 1.0
    return X, block[:, 13].copy()


def split_dataset(rows, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 70/15/15 split of row indices.

    The permutation is ``np.random.default_rng(seed).permutation(m)``, i.e. a
    Fisher-Yates shuffle driven by PCG64, so identical inputs and seed give
    identical splits across runs and platforms. Sizes use integer arithmetic:
    train = floor(0.70 m); the held-out remainder is halved with the odd row
    going to test (val = floor(rest/2)). The three sets always partition
    range(m).

    ``rows`` may be the row count itself or any sized sequence.
    """
    m = int(rows) if isinstance(rows, (int, np.integer)) else len(rows)
    if m < 3:
        raise SplitError(f"need at least 3 rows to split, got {m}")
    perm = np.random.default_rng(seed).permutation(m)
    n_train = (7 * m) // 10
    n_val = (m - n_train) // 2
    return (
        perm[:n_train],
        perm[n_train : n_train + n_val],
        perm[n_train + n_val :],
    )


def normalize(dataset: LocalDataset) -> LocalDataset:
    """Z-score the numeric columns using training-split statistics.

    Uses the population standard deviation (divide by m), so a normalized
    training column has mean 0 and std exactly 1. Validation and test reuse
    the training statistics; labels and non-numeric columns pass through.
    A column whose training std is zero or whose mean or std is not finite
    (values near 1e300 overflow the std) raises ConstantFeatureError naming
    the feature and the node. So does a rescaled split whose labels' or any
    feature column's sum of squares is not finite (a label near 1e300, or a
    val or test value far outside the training range, would overflow every
    loss on that split), naming the split too. Returns a new dataset; the
    input is untouched.
    """
    X_train, _ = dataset.train
    if X_train.shape[0] == 0:
        raise DegenerateInputError("cannot normalize an empty training split")
    cols = np.asarray(dataset.numeric_columns, dtype=int)

    def feature(col):
        return dataset.feature_names[col] if dataset.feature_names else f"column {col}"

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite statistic is rejected below
        means = X_train[:, cols].mean(axis=0)
        stds = X_train[:, cols].std(axis=0)
    for col, mean, std in zip(cols, means, stds):
        if std == 0.0 or not np.isfinite([mean, std]).all():
            fault = "is constant" if std == 0.0 else "has a non-finite mean or std"
            raise ConstantFeatureError(
                f"feature {feature(col)!r} {fault} on the training split of node {dataset.node_id}"
            )

    splits = {}
    for name in ("train", "val", "test"):
        X, y = dataset.split(name)
        X = X.copy()
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum of squares is rejected below
            if X.shape[0]:
                X[:, cols] = (X[:, cols] - means) / stds
            label_sq, column_sq = y @ y, np.einsum("ij,ij->j", X, X)
        where = f"on the {name} split of node {dataset.node_id}"
        if not np.isfinite(label_sq):
            raise ConstantFeatureError(f"labels have a non-finite sum of squares {where}")
        overflowed = np.flatnonzero(~np.isfinite(column_sq))
        if overflowed.size:
            raise ConstantFeatureError(f"feature {feature(overflowed[0])!r} has a non-finite sum of squares {where}")
        splits[name] = X, y
    return replace(dataset, **splits, feature_stats=(means, stds))


def _split_node(node_id: int, X: np.ndarray, y: np.ndarray, seed: int, **fields) -> LocalDataset:
    """One node's rows split by :func:`split_dataset`; ``fields`` are the other LocalDataset fields."""
    tr, va, te = split_dataset(len(y), seed)
    return LocalDataset(node_id, (X[tr], y[tr]), (X[va], y[va]), (X[te], y[te]), **fields)


def load_preprocessed(path, schema: CsvSchema | None = None, seed: int = 42) -> tuple[list[LocalDataset], int]:
    """Full pipeline: load_csv -> engineer_features -> split -> normalize.

    Nodes are numbered 1..n by sorted facility id. Every node is split with
    the same seed. Returns ``(datasets, dropped_row_count)``.
    """
    blocks, dropped = load_csv(path, schema)
    datasets = []
    for node_id, facid in enumerate(list(blocks), start=1):
        X, y = engineer_features(blocks.pop(facid))  # frees each block once its features are built
        fields = dict(numeric_columns=NUMERIC_COLUMNS.copy(), feature_names=FEATURE_NAMES, source_label=facid)
        datasets.append(normalize(_split_node(node_id, X, y, seed, **fields)))
    return datasets, dropped


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for deterministic multi-node regression data.

    ``feature_dim`` counts the trailing intercept column. Each node draws
    ``rows_per_node[i]`` feature rows i.i.d. standard normal, appends the
    intercept, and labels them with its cluster's weight vector plus
    N(0, noise_std^2) noise.
    """

    node_count: int
    rows_per_node: tuple[int, ...]
    feature_dim: int
    cluster_assignment: tuple[int, ...]
    cluster_weights: tuple[tuple[float, ...], ...]
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.node_count < 1:
            raise ParameterError("node_count must be >= 1")
        if len(self.rows_per_node) != self.node_count:
            raise ParameterError(
                f"rows_per_node has {len(self.rows_per_node)} entries for "
                f"{self.node_count} nodes"
            )
        if self.feature_dim < 1:
            raise ParameterError("feature_dim must be >= 1")
        if any(m < self.feature_dim for m in self.rows_per_node):
            raise ParameterError(
                "every node needs at least feature_dim rows for a well-posed fit"
            )
        if len(self.cluster_assignment) != self.node_count:
            raise ParameterError("cluster_assignment must list one cluster per node")
        n_clusters = len(self.cluster_weights)
        if any(not 0 <= c < n_clusters for c in self.cluster_assignment):
            raise ParameterError("cluster_assignment references a missing cluster")
        if any(len(w) != self.feature_dim for w in self.cluster_weights):
            raise ParameterError("every cluster weight vector must have feature_dim entries")
        if not all(math.isfinite(v) for w in self.cluster_weights for v in w):
            raise ParameterError("every cluster weight must be finite")
        if not (math.isfinite(self.noise_std) and self.noise_std >= 0):
            raise ParameterError(f"noise_std must be non-negative and finite, got {self.noise_std}")
        if self.seed < 0:
            raise ParameterError("seed must be non-negative")


def generate_synthetic(spec: SyntheticSpec) -> list[LocalDataset]:
    """Generate one LocalDataset per node according to ``spec``.

    Deterministic: node i draws from a stream seeded by (spec.seed, i) and is
    split with spec.seed. Features are left unnormalized (they are already
    standard normal by construction); apply :func:`normalize` if needed.
    """
    datasets = []
    names = tuple(f"f{j}" for j in range(spec.feature_dim - 1)) + ("intercept",)
    for node in range(spec.node_count):
        m = spec.rows_per_node[node]
        rng = np.random.default_rng([spec.seed, node])
        X = np.hstack([rng.standard_normal((m, spec.feature_dim - 1)), np.ones((m, 1))])
        w = np.asarray(spec.cluster_weights[spec.cluster_assignment[node]], dtype=float)
        y = X @ w
        if spec.noise_std > 0:
            y = y + spec.noise_std * rng.standard_normal(m)
        fields = dict(numeric_columns=np.arange(spec.feature_dim - 1), feature_names=names)
        datasets.append(_split_node(node + 1, X, y, spec.seed, **fields))
    return datasets


def dump_preprocessed(datasets: Sequence[LocalDataset], out_dir) -> list[Path]:
    """Write each node's splits as audit CSVs (feature layout plus label)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for ds in datasets:
        names = ds.feature_names or tuple(f"f{j}" for j in range(ds.feature_dim))
        for split_name in ("train", "val", "test"):
            X, y = ds.split(split_name)
            path = out / f"node{ds.node_id}_{split_name}.csv"
            with path.open("w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerow(list(names) + ["label"])
                np.savetxt(fh, np.column_stack([X, y]), fmt="%.17g", delimiter=",", newline="\r\n")
            written.append(path)
    return written
