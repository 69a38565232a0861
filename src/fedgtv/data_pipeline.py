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
import io
import math
import os
import pickle
from array import array
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    ConstantFeatureError,
    DegenerateInputError,
    EmptyInputError,
    FedGTVError,
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

# Lines load_csv splits and converts at a time. On the LOS CSV (2-CPU VM) every size from 256
# to 4,096 loads within noise of the others (0.59-0.61 s median), so the smaller footprint stays.
_CHUNK_ROWS = 512

# load_csv parses a file of at least this many bytes in two processes, the parent taking its first
# _SPLIT_SHARE; _PIECE_BYTES is what one os.pread or pipe read takes while it splits.
_SPLIT_BYTES = 1 << 20
_SPLIT_SHARE = 0.5
_PIECE_BYTES = 1 << 20

# float() of each one-character ASCII text: the digit's value, else NaN (float() raises on every other one).
_DIGITS = np.full(128, math.nan)
_DIGITS[ord("0") : ord("9") + 1] = range(10)


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
    """:func:`_float` of each text, by one C-level ``float()`` map unless a text needs more.

    A column whose texts are each one ASCII character (the 0/1 flags) is
    decoded through :data:`_DIGITS` instead, three times as fast as the map.
    The joined length alone would let ``""`` beside ``"10"`` through, so an
    empty text takes the map too.
    """
    joined = "".join(texts)
    if len(joined) == len(texts) and joined.isascii() and "" not in texts:
        return _DIGITS[np.frombuffer(joined.encode(), np.uint8)]
    try:  # where float() accepts a text, its stripped form gives the same value
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return np.fromiter(map(_float, texts), float, len(texts))


def _add_columns(blocks: dict[str, array], columns: Sequence[Sequence[str]]) -> int:
    """Convert one chunk's picked columns, append its kept rows to ``blocks``; returns the rows dropped.

    ``columns`` holds the texts of facid, rcount, gender, lengthofstay, the
    nine numerics, hemo and the condition flags, one entry per row; the drop
    rules apply as boolean masks.
    """
    facid, rcount, gender = (list(map(str.strip, texts)) for texts in columns[:3])
    los, *values = map(_floats, columns[3:])  # then the numerics, hemo, the flags
    flags = np.array(values[9:]) + 0.0  # hemo, then the condition flags; -0 becomes +0.0
    nan = repeat(math.nan)
    record = np.column_stack([
        np.fromiter(map(RCOUNT_SLOT.get, rcount, nan), float),
        np.fromiter(map(GENDER_VALUE.get, map(str.upper, gender), nan), float),
        flags[0], *values[:9], (flags[1:] == 1.0).sum(axis=0), los,
    ])
    keep = np.isfinite(record).all(axis=1) & np.isin(flags, (0.0, 1.0)).all(axis=0)
    keep &= (los >= 1) & (los == np.floor(los)) & np.fromiter(map(bool, facid), bool)
    record = record[keep]
    labels: dict[str, int] = {}  # kept facid -> its rows' label; a numpy str drops a trailing NUL
    label = np.fromiter(map(labels.setdefault, compress(facid, keep), count()), np.intp)
    for f, i in labels.items():
        blocks.setdefault(f, array("d")).frombytes(record[label == i].tobytes())
    return len(facid) - len(label)


def _add_rows(blocks: dict[str, array], rows: list[list[str]], picks: list[int]) -> int:
    """:func:`_add_columns` of ``csv.reader`` rows; rows too short to reach a pick are dropped, blank ones skipped."""
    need = max(picks) + 1
    full = [row for row in rows if len(row) >= need]
    dropped = len(rows) - len(full) - rows.count([])
    if full:
        columns = list(zip(*full))  # as long as the shortest row, which reaches every pick
        dropped += _add_columns(blocks, [columns[i] for i in picks])
    return dropped


def load_csv(path, schema: CsvSchema | None = None) -> tuple[dict[str, np.ndarray], int]:
    """Read the raw CSV in one streaming pass and group the valid rows by facility id.

    Returns ``(blocks, dropped)``. ``blocks`` maps each distinct facility id,
    in sorted order, to an (m, 14) float block with one row per kept record,
    in file order: the rcount slot (0..5), gender (M=1), hemo, the nine
    numeric measurements, n_conditions and the length of stay. ``dropped``
    counts the rows discarded because a required field was missing or
    malformed (see the README's CSV format for the exact rules); blank lines
    are skipped and not counted.

    Lines are read in chunks of :data:`_CHUNK_ROWS`. A plain chunk (no quote,
    no NUL, no line longer than ``csv.field_size_limit()``, and on every line
    the same number of commas, enough to reach every required column) is
    split on commas by one ``str.split``, and each column is a strided slice
    of the fields, so no per-row list is built. Any other chunk goes through
    ``csv.reader``, which gives the same fields on a plain chunk; from the
    first chunk that holds a quote on, it reads the rest of the file, since a
    quoted field may span lines. Each chunk is then converted column by
    column by :func:`_add_columns`. On the 100k-row LOS CSV (2-CPU VM) this
    takes a load from 0.79 to 0.60 s at the median, against ``csv.reader``
    and a transpose for every chunk.

    A file of at least :data:`_SPLIT_BYTES` with no quote before its split
    point (:func:`_split_point`) is parsed by two processes: a forked helper
    parses the lines after the split point while this one parses the header
    and the lines before it, then appends the helper's rows to each
    facility's block. Every row lands where one pass puts it, and if either
    part fails to parse, the one pass runs and raises its own error. On the
    LOS CSV (9.3 MB, 2-CPU VM) this takes a load from 0.60 to 0.34 s at the
    median of 8 interleaved loads, faster in all 8.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    with path.open("rb") as raw:  # both processes read it by os.pread, never through its shared offset
        fd, size = raw.fileno(), os.fstat(raw.fileno()).st_size
        split = _split_point(fd, size)
        loaded = _load_split(path, fd, schema, split, size) if split else None
        try:
            blocks, dropped = loaded or _load(path, fd, schema, size)
        except UnicodeDecodeError as exc:  # its position counts from the start of the decoder's buffer
            raise _not_utf8(path) from exc
    if not blocks:
        raise EmptyInputError(f"no parseable data rows in {path}")
    return {facid: np.frombuffer(blocks[facid]).reshape(-1, 14) for facid in sorted(blocks)}, dropped


class _FileRange(io.RawIOBase):
    """The bytes ``[start, stop)`` of an open file, read by ``os.pread``, so that a forked process
    and its parent, which share the file's offset, can each read their own range."""

    def __init__(self, fd: int, start: int, stop: int):
        self.fd, self.position, self.stop = fd, start, stop

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        data = os.pread(self.fd, min(len(buffer), self.stop - self.position), self.position)
        buffer[: len(data)] = data
        self.position += len(data)
        return len(data)


def _text(fd: int, start: int, stop: int) -> io.TextIOWrapper:
    """The bytes ``[start, stop)`` of an open file as UTF-8 text, newlines left for ``csv.reader``."""
    return io.TextIOWrapper(io.BufferedReader(_FileRange(fd, start, stop)), encoding="utf-8", newline="")


def _split_point(fd: int, size: int) -> int | None:
    """The offset just past the first ``\\n`` at or after :data:`_SPLIT_SHARE` of the file, where a
    helper process starts parsing; None for one pass.

    One pass is taken for a file under :data:`_SPLIT_BYTES`, without a ``\\n``
    past that share (lone ``\\r`` line endings), or with a quote before the
    split, because a quoted field could span it. The scans read
    :data:`_PIECE_BYTES` at a time.
    """
    if size < _SPLIT_BYTES:
        return None
    split = int(size * _SPLIT_SHARE)
    while (piece := os.pread(fd, _PIECE_BYTES, split)) and b"\n" not in piece:
        split += len(piece)
    if not piece:
        return None
    split += piece.index(b"\n") + 1
    pieces = (os.pread(fd, min(_PIECE_BYTES, split - at), at) for at in range(0, split, _PIECE_BYTES))
    return None if any(b'"' in piece for piece in pieces) else split


def _load(path: Path, fd: int, schema: CsvSchema, stop: int) -> tuple[dict[str, array], int]:
    """The blocks and dropped count of the file's bytes ``[0, stop)``: its header, then its lines."""
    blocks: dict[str, array] = {}
    with _text(fd, 0, stop) as fh:
        picks, line = _header(path, fh, schema)
        return blocks, _add_lines(path, fh, picks, blocks, line)


def _load_split(path: Path, fd: int, schema: CsvSchema, split: int, size: int) -> tuple[dict[str, array], int] | None:
    """:func:`_load` of the whole file, with a :func:`_forked` helper parsing the bytes ``[split, size)``
    while this process parses ``[0, split)``, then appends the helper's rows to its blocks. Returns
    None if either part fails to parse, so that the one pass raises its error: which error it meets
    first depends on how far it has read ahead."""

    def first_part(pipe) -> tuple[dict[str, array], int] | None:
        try:
            return _receive(pipe, *_load(path, fd, schema, split))
        except (SchemaError, UnicodeDecodeError):
            return None

    forked = _forked(lambda pipe: _parse_helper_part(path, fd, schema, split, size, pipe), first_part)
    return forked[0] if forked and not forked[1] else None


def _parse_helper_part(path: Path, fd: int, schema: CsvSchema, split: int, size: int, pipe):
    """The forked helper: parses the bytes ``[split, size)`` and sends its dropped count, its block
    sizes and its blocks' raw bytes to ``pipe``; raises, sending nothing, if they fail to parse."""
    with _text(fd, 0, split) as fh:
        picks, _ = _header(path, fh, schema)
    blocks: dict[str, array] = {}
    with _text(fd, split, size) as fh:
        dropped = _add_lines(path, fh, picks, blocks, 0)
    pickle.dump((dropped, [(facid, len(block)) for facid, block in blocks.items()]), pipe)
    for block in blocks.values():
        pipe.write(block)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _forked(child, parent):
    """``parent(read)`` run while a forked helper runs ``child(write)``, the two binary ends of a pipe.

    Returns ``parent``'s result and the helper's exit status; None, running neither, without
    ``os.fork`` or a second usable CPU, or if the fork raises OSError. The helper ends in
    ``os._exit`` (0 once ``child`` returns), so no exit handler runs and no inherited buffer is
    flushed twice. It is reaped on every path, and killed first unless ``parent`` returned non-None.
    """
    if not hasattr(os, "fork") or _usable_cpus() < 2:
        return None
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare
        os.close(read)
        os.close(write)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                child(pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    result = None
    try:
        with open(read, "rb") as pipe:
            result = parent(pipe)
    finally:
        if result is None:
            import signal  # only a helper this process stopped early needs it

            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    return result, status


def _receive(pipe, blocks: dict[str, array], dropped: int) -> tuple[dict[str, array], int] | None:
    """Append the helper's rows to ``blocks``, :data:`_PIECE_BYTES` at a time; returns them with
    ``dropped`` plus the helper's dropped count, None if it ended before sending its whole part."""
    try:
        more, sizes = pickle.load(pipe)
        for facid, size in sizes:
            block = blocks.setdefault(facid, array("d"))
            for start in range(0, size, _PIECE_BYTES // 8):
                block.fromfile(pipe, min(_PIECE_BYTES // 8, size - start))
    except (EOFError, pickle.UnpicklingError):
        return None
    return blocks, dropped + more


def _header(path: Path, fh, schema: CsvSchema) -> tuple[list[int], int]:
    """The column index of each field :func:`_add_columns` takes, from the header line of ``fh``, and
    the number of lines the header took."""
    reader = csv.reader(fh)
    try:
        header = next(reader, [])
    except csv.Error as exc:
        raise SchemaError(f"{path}, line {reader.line_num}: {exc}") from exc
    for column in schema.required_physical_columns():
        if column not in header:
            raise SchemaError(f"required column {column!r} missing from header of {path}")
    index = {name: i for i, name in enumerate(header)}  # a repeated name resolves to its last column
    logical = ("facid", "rcount", "gender", "lengthofstay") + NUMERIC_FIELDS + ("hemo",)
    return [index[schema.physical(f)] for f in logical] + [index[c] for c in schema.condition_columns], reader.line_num


def _add_lines(path: Path, fh, picks: list[int], blocks: dict[str, array], line: int) -> int:
    """Parse the lines of ``fh`` chunk by chunk into ``blocks``; returns the rows dropped.

    ``line`` counts the file's lines before the first of ``fh``, for the
    line number of an error.
    """
    dropped = 0
    limit = csv.field_size_limit()
    try:
        while lines := list(islice(fh, _CHUNK_ROWS)):
            text = "".join(lines)
            if '"' in text:  # a quoted field may span lines, so csv.reader parses the rest of the file
                reader = csv.reader(chain(lines, fh))
                while rows := list(islice(reader, _CHUNK_ROWS)):
                    dropped += _add_rows(blocks, rows, picks)
                break
            commas = set(map(str.count, lines, repeat(",")))
            width = min(commas) + 1
            # csv.reader rejects a NUL before Python 3.11, so such a chunk keeps its verdict
            plain = "\0" not in text and len(commas) == 1 and width > max(picks)
            if plain and (len(text) <= limit or max(map(len, lines)) <= limit):
                if "\r" in text:  # each line ends in \r\n, \r or \n (the file's last may end in none)
                    text = text.replace("\r\n", "\n").replace("\r", "\n")
                fields = text.replace("\n", ",").split(",")
                stop = len(lines) * width
                dropped += _add_columns(blocks, [fields[i:stop:width] for i in picks])
            else:
                reader = csv.reader(lines)
                dropped += _add_rows(blocks, list(reader), picks)
            line += len(lines)
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise SchemaError(f"{path}, line {line + reader.line_num}: {exc}") from exc
    return dropped


def _not_utf8(path: Path, error: type[FedGTVError] = SchemaError) -> FedGTVError:
    """The ``error`` for a file that is not UTF-8, naming the file, its first undecodable byte and
    that byte's line."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"?").splitlines())  # the sentinel starts or ends the byte's line
        return error(f"{path}, line {line}: not UTF-8 text: byte 0x{data[exc.start]:02x}: {exc.reason}")
    return error(f"{path}: not UTF-8 text")


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


def split_dataset(m: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic 70/15/15 split of the row indices range(m).

    The permutation is ``np.random.default_rng(seed).permutation(m)``, i.e. a
    Fisher-Yates shuffle driven by PCG64, so identical inputs and seed give
    identical splits across runs and platforms. Sizes use integer arithmetic:
    train = floor(0.70 m); the held-out remainder is halved with the odd row
    going to test (val = floor(rest/2)). The three sets always partition
    range(m).
    """
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


def _feature(dataset: LocalDataset, col: int) -> str:
    return dataset.feature_names[col] if dataset.feature_names else f"column {col}"


def _check_sums_of_squares(dataset: LocalDataset, name: str, X: np.ndarray, y: np.ndarray) -> None:
    """Raise ConstantFeatureError, naming the split and the node, if ``y`` or a column of ``X`` has a
    non-finite sum of squares: every loss on that split would overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        label_sq, column_sq = y @ y, np.einsum("ij,ij->j", X, X)
    where = f"on the {name} split of node {dataset.node_id}"
    if not np.isfinite(label_sq):
        raise ConstantFeatureError(f"labels have a non-finite sum of squares {where}")
    overflowed = np.flatnonzero(~np.isfinite(column_sq))
    if overflowed.size:
        raise ConstantFeatureError(f"feature {_feature(dataset, overflowed[0])!r} has a non-finite sum of squares {where}")


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
    input is untouched, as each split's features are copied once and
    rescaled in that copy.
    """
    splits = {name: dataset.split(name) for name in ("train", "val", "test")}
    return _zscore(replace(dataset, **{name: (X.copy(), y) for name, (X, y) in splits.items()}))


def _zscore(dataset: LocalDataset) -> LocalDataset:
    """:func:`normalize` in place: rescales ``dataset``'s own split arrays, and returns it with its feature_stats."""
    X_train, _ = dataset.train
    if X_train.shape[0] == 0:
        raise DegenerateInputError("cannot normalize an empty training split")
    cols = np.asarray(dataset.numeric_columns, dtype=int)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite statistic is rejected below
        means = X_train[:, cols].mean(axis=0)
        stds = X_train[:, cols].std(axis=0)
    for col, mean, std in zip(cols, means, stds):
        if std == 0.0 or not np.isfinite([mean, std]).all():
            fault = "is constant" if std == 0.0 else "has a non-finite mean or std"
            raise ConstantFeatureError(
                f"feature {_feature(dataset, col)!r} {fault} on the training split of node {dataset.node_id}"
            )

    for name in ("train", "val", "test"):
        X, y = dataset.split(name)
        with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value is rejected below
            if X.shape[0]:
                t = X[:, cols]  # one temporary, rescaled in place: bitwise (X[:, cols] - means) / stds
                X[:, cols] = np.divide(np.subtract(t, means, out=t), stds, out=t)
        _check_sums_of_squares(dataset, name, X, y)
    return replace(dataset, feature_stats=(means, stds))


def load_preprocessed(path, schema: CsvSchema | None = None, seed: int = 42) -> tuple[list[LocalDataset], int]:
    """Full pipeline: load_csv -> split -> engineer_features -> normalize.

    Nodes are numbered 1..n by sorted facility id. Every node is split with
    the same seed. Returns ``(datasets, dropped_row_count)``. One copy from
    block to dataset: each split is engineered from its own rows (features
    are built row by row), then z-scored in place once its block is freed.
    """
    blocks, dropped = load_csv(path, schema)
    datasets = []
    for node_id, facid in enumerate(list(blocks), start=1):
        block = blocks.pop(facid)
        splits = [engineer_features(block[rows]) for rows in split_dataset(len(block), seed)]
        del block  # freed before its splits are z-scored
        fields = dict(numeric_columns=NUMERIC_COLUMNS.copy(), feature_names=FEATURE_NAMES, source_label=facid)
        datasets.append(_zscore(LocalDataset(node_id, *splits, **fields)))
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
    Finite weights can still overflow: a split whose labels or any feature
    column have a non-finite sum of squares raises ConstantFeatureError
    naming the split and the node, as :func:`normalize` does.
    """
    datasets = []
    names = tuple(f"f{j}" for j in range(spec.feature_dim - 1)) + ("intercept",)
    for node in range(spec.node_count):
        m = spec.rows_per_node[node]
        rng = np.random.default_rng([spec.seed, node])
        X = np.hstack([rng.standard_normal((m, spec.feature_dim - 1)), np.ones((m, 1))])
        w = np.asarray(spec.cluster_weights[spec.cluster_assignment[node]], dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # overflowing labels are rejected below
            y = X @ w
        if spec.noise_std > 0:
            y = y + spec.noise_std * rng.standard_normal(m)
        fields = dict(numeric_columns=np.arange(spec.feature_dim - 1), feature_names=names)
        dataset = LocalDataset(node + 1, *[(X[rows], y[rows]) for rows in split_dataset(m, spec.seed)], **fields)
        for name in ("train", "val", "test"):
            _check_sums_of_squares(dataset, name, *dataset.split(name))
        datasets.append(dataset)
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
