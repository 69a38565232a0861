"""Seeded input generators for the benchmark workloads.

Every generator writes the files the program reads (a CSV or a synthetic
spec, plus an INI config) and returns the benchmark's own copy of what it
wrote, which the output checks use as their reference. The same seed gives
byte-identical files. Sizes and shapes are fixed per workload; the seed only
draws values, so every seed costs the program the same work.

Regenerate one workload's inputs without running it:

    python3 perfbench/inputs.py --workload los_grid --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# --- the public length-of-stay CSV format ---------------------------------

CONDITIONS = (
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
NUMERICS = (
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
LOS_HEADER = (
    ("eid", "vdate", "rcount", "gender")
    + CONDITIONS
    + ("hemo",)
    + NUMERICS
    + ("secondarydiagnosisnonicd9", "lengthofstay", "facid")
)
RCOUNT_LABELS = ("0", "1", "2", "3", "4", "5+")

# Marginals of the public dataset (100,000 encounters), as shares.
RCOUNT_SHARES = (0.55031, 0.15007, 0.09987, 0.08047, 0.07761, 0.04167)
GENDER_M_SHARE = 0.42357
HEMO_SHARE = 0.07999
CONDITION_SHARES = (0.03640, 0.03537, 0.09494, 0.03945, 0.06317, 0.23939, 0.05166, 0.04936, 0.00478, 0.04899)
# (mean, sd, decimals written); neutrophils and bloodureanitro are skewed
# and drawn log-normal with that mean and sd, the others normal.
NUMERIC_SHAPES = (
    (11.98, 2.03, 1),
    (10.18, 5.35, 1),
    (137.89, 2.99, 1),
    (141.96, 29.99, 1),
    (14.10, 12.94, 0),
    (1.10, 0.20, 2),
    (29.81, 2.00, 1),
    (73.44, 11.64, 0),
    (6.49, 0.57, 1),
)
LOGNORMAL = {"neutrophils", "bloodureanitro"}

# Length of stay = round(x . w_facility + N(0, 1.2^2)) clipped to 1..17,
# where x is the engineered 19-column row with the numerics z-scored by the
# population shapes above and w_facility = LOS_WEIGHTS + 0.2 * N(0, I).
LOS_WEIGHTS = (
    (0.0, 1.1, 2.2, 3.3, 4.4, 5.5)  # rcount slots
    + (0.2, 0.7)  # gender, hemo
    + (-0.2, 0.3, -0.1, 0.2, 0.35, 0.15, 0.1, 0.25, 0.05)  # numerics
    + (0.5, 2.0)  # n_conditions, intercept
)

# Kinds of malformed rows load_csv must drop: (kind, column, bad text).
# "row_truncated" cuts the last three fields off the row.
MALFORMED_KINDS = (
    ("rcount_unknown", "rcount", "6"),
    ("gender_unknown", "gender", "U"),
    ("hemo_not_binary", "hemo", "2"),
    ("numeric_empty", "hematocrit", ""),
    ("numeric_nonfinite", "sodium", "nan"),
    ("numeric_text", "glucose", "n/a"),
    ("flag_not_binary", "asthma", "0.5"),
    ("los_fractional", "lengthofstay", "2.5"),
    ("los_zero", "lengthofstay", "0"),
    ("facid_empty", "facid", ""),
    ("row_truncated", None, None),
)


@dataclass(frozen=True)
class LosShape:
    """Valid rows per facility and malformed rows per kind."""

    facility_rows: tuple[tuple[str, int], ...] = (
        ("A", 9875),
        ("B", 30012),
        ("C", 30755),
        ("D", 9929),
        ("E", 19429),
    )
    malformed_per_kind: int = 3


@dataclass
class LosInput:
    """What the LOS generator wrote, as the benchmark's own copy.

    ``nodes`` maps each facility, in sorted order, to its valid rows in file
    order as an unnormalised engineered matrix (the documented 19-column
    layout) and the label vector.
    """

    config: Path
    split_seed: int
    nodes: dict[str, tuple[np.ndarray, np.ndarray]]
    dropped: int
    degree: int = 2


@dataclass
class SynthInput:
    config: Path
    spec: dict
    degree: int = 2
    alpha: float = 0.1


@dataclass(frozen=True)
class SynthShape:
    rows_per_node: tuple[int, ...]
    trace_every: int = 50
    noise_std: float = 1.0


SYNTH_GRID = SynthShape(rows_per_node=(2400, 3300, 2700, 3600, 3000))
SYNTH_MANY = SynthShape(
    rows_per_node=tuple(250 + (37 * i) % 451 for i in range(60)), trace_every=10, noise_std=0.5
)


def workload_rng(name: str, seed: int) -> np.random.Generator:
    tag = int.from_bytes(name.encode(), "little") % (2**32)
    return np.random.default_rng([tag, seed % (2**32)])


def _engineered(rcount, gender, hemo, numerics, flags) -> np.ndarray:
    m = len(rcount)
    X = np.zeros((m, 19))
    X[np.arange(m), rcount] = 1.0
    X[:, 6] = gender
    X[:, 7] = hemo
    X[:, 8:17] = numerics
    X[:, 17] = flags.sum(axis=1)
    X[:, 18] = 1.0
    return X


def _draw_numerics(rng, m) -> np.ndarray:
    cols = []
    for name, (mean, sd, decimals) in zip(NUMERICS, NUMERIC_SHAPES):
        if name in LOGNORMAL:
            s2 = np.log1p((sd / mean) ** 2)
            v = rng.lognormal(np.log(mean) - s2 / 2, np.sqrt(s2), m)
        else:
            v = rng.normal(mean, sd, m)
        v = np.round(np.maximum(v, 10.0 ** -decimals), decimals)
        cols.append(v)
    return np.column_stack(cols)


def write_los(seed: int, out: Path, shape: LosShape = LosShape()) -> LosInput:
    """Write ``los.csv`` and ``los.ini`` in the public format."""
    rng = workload_rng("los_grid", seed)
    labels = [f for f, _ in shape.facility_rows]
    valid_fac = np.repeat(np.arange(len(labels)), [n for _, n in shape.facility_rows])
    rng.shuffle(valid_fac)
    n_valid = len(valid_fac)
    n_bad = shape.malformed_per_kind * len(MALFORMED_KINDS)
    total = n_valid + n_bad
    bad_pos = np.sort(rng.choice(total, n_bad, replace=False))
    bad_mask = np.zeros(total, dtype=bool)
    bad_mask[bad_pos] = True
    fac = np.empty(total, dtype=int)
    fac[~bad_mask] = valid_fac
    fac[bad_mask] = rng.integers(0, len(labels), n_bad)

    rcount = rng.choice(6, total, p=RCOUNT_SHARES)
    gender = (rng.random(total) < GENDER_M_SHARE).astype(int)
    hemo = (rng.random(total) < HEMO_SHARE).astype(int)
    flags = (rng.random((total, len(CONDITIONS))) < np.array(CONDITION_SHARES)).astype(int)
    numerics = _draw_numerics(rng, total)

    means = np.array([s[0] for s in NUMERIC_SHAPES])
    sds = np.array([s[1] for s in NUMERIC_SHAPES])
    X_label = _engineered(rcount, gender, hemo, (numerics - means) / sds, flags)
    w_fac = np.array(LOS_WEIGHTS) + 0.2 * rng.standard_normal((len(labels), 19))
    lin = np.einsum("ij,ij->i", X_label, w_fac[fac]) + rng.normal(0.0, 1.2, total)
    los = np.clip(np.round(lin), 1, 17).astype(int)

    dates = [f"{mo}/{day}/2012" for mo in range(1, 13) for day in range(1, 29)]
    cols = {
        "eid": [str(i) for i in range(1, total + 1)],
        "vdate": [dates[i % len(dates)] for i in range(total)],
        "rcount": [RCOUNT_LABELS[r] for r in rcount],
        "gender": ["M" if g else "F" for g in gender],
        "hemo": [str(h) for h in hemo],
        "secondarydiagnosisnonicd9": [str(v) for v in rng.integers(0, 11, total)],
        "lengthofstay": [str(v) for v in los],
        "facid": [labels[f] for f in fac],
    }
    for j, name in enumerate(CONDITIONS):
        cols[name] = [str(v) for v in flags[:, j]]
    for j, name in enumerate(NUMERICS):
        cols[name] = [repr(v) for v in numerics[:, j].tolist()]
    rows = [list(r) for r in zip(*(cols[h] for h in LOS_HEADER))]

    position = {h: k for k, h in enumerate(LOS_HEADER)}
    for k, pos in enumerate(bad_pos):
        _, column, text = MALFORMED_KINDS[k % len(MALFORMED_KINDS)]
        if column is None:
            del rows[pos][-3:]
        else:
            rows[pos][position[column]] = text

    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / "los.csv"
    csv_path.write_text(
        ",".join(LOS_HEADER) + "\n" + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8"
    )
    split_seed = int(rng.integers(0, 2**31))
    config = out / "los.ini"
    config.write_text(
        "[data]\ncsv = los.csv\n\n[preprocess]\n"
        f"seed = {split_seed}\n\n[grid]\nalgorithms = fedavg1, fedavg2\n",
        encoding="utf-8",
    )

    X_all = _engineered(rcount, gender, hemo, numerics, flags)
    nodes = {}
    for f, label in enumerate(labels):
        keep = (~bad_mask) & (fac == f)
        nodes[label] = (X_all[keep], los[keep].astype(float))
    return LosInput(config, split_seed, dict(sorted(nodes.items())), n_bad)


def _write_synth(name: str, out: Path, spec: dict, shape: SynthShape, rng) -> SynthInput:
    out.mkdir(parents=True, exist_ok=True)
    spec_path = out / f"{name}.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    config = out / f"{name}.ini"
    config.write_text(
        f"[data]\nsynthetic = {spec_path.name}\n\n[preprocess]\nseed = {int(rng.integers(0, 2**31))}\n\n"
        f"[optimizer]\ntrace_every = {shape.trace_every}\n",
        encoding="utf-8",
    )
    return SynthInput(config, spec)


def write_synth_grid(seed: int, out: Path, shape: SynthShape = SYNTH_GRID) -> SynthInput:
    """Five nodes in two planted clusters (three and two nodes), 19 columns.

    The clusters sit far apart relative to the fit noise, so every node's
    nearest peer is in its own cluster and the d=1 graph is disconnected.
    """
    rng = workload_rng("synth_grid", seed)
    n = len(shape.rows_per_node)
    spec = {
        "node_count": n,
        "rows_per_node": list(shape.rows_per_node),
        "feature_dim": 19,
        "cluster_assignment": [0] * (n - 2) + [1, 1],
        "cluster_weights": rng.normal(0.0, 1.0, (2, 19)).round(6).tolist(),
        "noise_std": shape.noise_std,
        "seed": int(rng.integers(0, 2**31)),
    }
    return _write_synth("synth_grid", out, spec, shape, rng)


def write_synth_many(seed: int, out: Path, shape: SynthShape = SYNTH_MANY) -> SynthInput:
    """Many small nodes whose weights lie along a line, in shuffled order.

    Node i's weight vector is a + 0.5 t_i u + 0.05 N(0, I) for a random base
    a, unit direction u and a random permutation t of 0..n-1; neighbouring
    positions are closer than the fit noise can blur, so the kNN graph
    follows the line and is connected.
    """
    rng = workload_rng("synth_many", seed)
    n = len(shape.rows_per_node)
    base = rng.normal(0.0, 1.0, 19)
    u = rng.normal(0.0, 1.0, 19)
    u /= np.linalg.norm(u)
    t = rng.permutation(n)
    weights = base + 0.5 * t[:, None] * u + 0.05 * rng.normal(0.0, 1.0, (n, 19))
    spec = {
        "node_count": n,
        "rows_per_node": list(shape.rows_per_node),
        "feature_dim": 19,
        "cluster_assignment": list(range(n)),
        "cluster_weights": weights.round(6).tolist(),
        "noise_std": shape.noise_std,
        "seed": int(rng.integers(0, 2**31)),
    }
    return _write_synth("synth_many", out, spec, shape, rng)


def split_rows(m: int, seed: int):
    """The documented 70/15/15 split: a seeded permutation, integer sizes."""
    perm = np.random.default_rng(seed).permutation(m)
    n_train = (7 * m) // 10
    n_val = (m - n_train) // 2
    return perm[:n_train], perm[n_train : n_train + n_val], perm[n_train + n_val :]


def synthetic_nodes(spec: dict) -> list[dict[str, tuple[np.ndarray, np.ndarray]]]:
    """Per-node train/val/test splits of a synthetic spec, per the README.

    Node i draws standard-normal features from a stream seeded by
    (seed, i), appends the intercept, and labels rows with its cluster's
    weights plus Gaussian noise; the split uses the spec's seed.
    """
    nodes = []
    d = spec["feature_dim"]
    for i, m in enumerate(spec["rows_per_node"]):
        rng = np.random.default_rng([spec["seed"], i])
        X = np.hstack([rng.standard_normal((m, d - 1)), np.ones((m, 1))])
        y = X @ np.array(spec["cluster_weights"][spec["cluster_assignment"][i]])
        if spec["noise_std"] > 0:
            y = y + spec["noise_std"] * rng.standard_normal(m)
        tr, va, te = split_rows(m, spec["seed"])
        nodes.append({"train": (X[tr], y[tr]), "val": (X[va], y[va]), "test": (X[te], y[te])})
    return nodes


def los_train_parts(los: LosInput) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-node normalised training splits of the benchmark's own LOS copy.

    Numeric columns 8..16 are z-scored with the training split's mean and
    population standard deviation, as the README documents.
    """
    parts = []
    for X, y in los.nodes.values():
        tr, _, _ = split_rows(len(y), los.split_seed)
        Xt = X[tr].copy()
        mean, sd = Xt[:, 8:17].mean(axis=0), Xt[:, 8:17].std(axis=0)
        Xt[:, 8:17] = (Xt[:, 8:17] - mean) / sd
        parts.append((Xt, y[tr]))
    return parts


WRITERS = {"los_grid": write_los, "synth_grid": write_synth_grid, "synth_many": write_synth_many}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WRITERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    WRITERS[args.workload](args.seed, args.out)
    print(f"inputs written to {args.out}")


if __name__ == "__main__":
    main()
