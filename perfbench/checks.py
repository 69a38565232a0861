"""Output checks: the program's artifacts against the benchmark's references.

Each ``check_*`` function reads the artifact directories one round of a
workload left behind and returns a list of failure messages, empty when all
checks pass. References come from :mod:`reference` applied to the
benchmark's own copy of the inputs, or from properties the method must have.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import inputs
import reference

# Rounding slack for "never below the optimum" and for equal values that
# reach the artifacts along different summation orders.
ROUNDING = 1e-9
# fedavg1 after 1,000 rounds at the selected eta = 0.1 is within this share
# of the pooled optimum on the LOS workload (measured: about 3e-9).
FEDAVG1_GAP_LOS = 1e-6
# The synthetic designs are well conditioned: full-batch steps converge to
# machine precision well within 1,000 rounds.
CONVERGED = 1e-9
# Exit code and message of `fedgtv graph` while every LOS design matrix is
# rank deficient (the one-hot rcount slots sum to the intercept column).
RANK_FAULT_EXIT = 4
RANK_FAULT_TEXT = "cond(X^T X)"


def _json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_grid(path: Path) -> list[dict]:
    rows = []
    with path.open(newline="", encoding="utf-8") as fh:
        for r in csv.DictReader(fh):
            rows.append(
                {
                    "algorithm": r["algorithm"],
                    "alpha": float(r["alpha"]) if r["alpha"] else None,
                    "eta": float(r["eta"]),
                    "degree": int(r["degree"]) if r["degree"] else None,
                    "connected": r["connected"] == "1",
                    "val_mse": float(r["val_mse"]) if r["val_mse"] else None,
                }
            )
    return rows


def read_edges(path: Path) -> set[tuple[int, int]]:
    """graph.edges as 0-based (i, j) pairs with i <= j."""
    edges = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        i, j = sorted(int(v) - 1 for v in line.split()[:2])
        edges.add((i, j))
    return edges


def read_trace(path: Path) -> dict[str, list[list[float]]]:
    """trace.csv rows per algorithm: [round, objective, node losses...]."""
    rows: dict[str, list[list[float]]] = {}
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for r in reader:
            rows.setdefault(r[0], []).append([float(v) for v in r[1:]])
    return rows


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_selection(out: Path) -> list[str]:
    """The selected cells are the argmin of grid.csv and retrain to their score.

    Documented tie-break: lowest val MSE, then smaller eta, alpha, degree.
    Only finite scores can win; a diverged (NaN) cell must never be selected.
    """
    failures = []
    grid = read_grid(out / "grid.csv")
    selected = _json(out / "manifest.json")["selected"]
    blocks = {b["algorithm"]: b for b in _json(out / "metrics.json")["algorithms"]}
    for algo in sorted({r["algorithm"] for r in grid}):
        scored = [r for r in grid if r["algorithm"] == algo and r["val_mse"] is not None]
        finite = [r for r in scored if math.isfinite(r["val_mse"])]
        if not finite:
            failures.append(f"{algo}: no finite grid cell")
            continue
        best = min(finite, key=lambda r: (r["val_mse"], r["eta"], r["alpha"] or 0.0, r["degree"] or 0))
        chosen = selected.get(algo, {})
        if any(chosen.get(k) != best[k] for k in ("eta", "alpha", "degree", "val_mse")):
            failures.append(f"{algo}: selected {chosen} but the argmin of grid.csv is {best}")
        mean_val = blocks[algo]["mean"]["val"] if algo in blocks else float("nan")
        if not _close(mean_val, best["val_mse"], ROUNDING):
            failures.append(
                f"{algo}: retrained winner has mean val MSE {mean_val!r}, its cell {best['val_mse']!r}"
            )
    return failures


def check_los(los: inputs.LosInput, grid_out: Path, graph_op: dict, graph_out: Path) -> list[str]:
    failures = []
    source = _json(grid_out / "manifest.json")["source"]
    tally = [len(y) for _, y in los.nodes.values()]
    if source["dropped_rows"] != los.dropped:
        failures.append(f"dropped_rows {source['dropped_rows']} != generated malformed rows {los.dropped}")
    if source["rows_per_node"] != tally or source["node_labels"] != list(los.nodes):
        failures.append(
            f"rows per facility {dict(zip(source['node_labels'], source['rows_per_node']))} "
            f"!= generated {dict(zip(los.nodes, tally))}"
        )

    parts = inputs.los_train_parts(los)
    floors = [reference.min_mse(X, y) for X, y in parts]
    blocks = _json(grid_out / "metrics.json")["algorithms"]
    for block in blocks:
        for node, value, floor in zip(block["node_ids"], block["train_mse"], floors):
            if not value >= floor * (1 - ROUNDING):
                failures.append(
                    f"{block['algorithm']} node {node}: train MSE {value!r} below its "
                    f"least-squares minimum {floor!r}"
                )
    _, pooled = reference.pooled_fit(parts)
    fedavg1 = {b["algorithm"]: b for b in blocks}["fedavg1"]["mean"]["train"]
    if not pooled * (1 - ROUNDING) <= fedavg1 <= pooled * (1 + FEDAVG1_GAP_LOS):
        failures.append(f"fedavg1 mean train MSE {fedavg1!r} not within {FEDAVG1_GAP_LOS} of pooled {pooled!r}")
    failures += check_selection(grid_out)
    failures += check_graph_op(graph_op, graph_out, los.degree)
    return failures


def check_graph_op(op: dict, out: Path, degree: int) -> list[str]:
    """`fedgtv graph` on the LOS CSV: the rank fault, or a sound graph."""
    if op["exit"] != 0:
        if op["exit"] == RANK_FAULT_EXIT and RANK_FAULT_TEXT in op["stderr"]:
            return []
        return [f"graph: exit {op['exit']}, not the known rank fault: {op['stderr'][-300:]!r}"]
    failures = []
    edges = read_edges(out / "graph.edges")
    summary = _json(out / "manifest.json")["graph"]
    n = summary["nodes"]
    A = np.zeros((n, n), dtype=int)
    for i, j in edges:
        if i == j:
            failures.append(f"graph: self-loop at node {i + 1}")
        A[i, j] = A[j, i] = 1
    degrees = A.sum(axis=1).tolist()
    if min(degrees) < degree:
        failures.append(f"graph: degrees {degrees} below d={degree}")
    if degrees != summary["degrees"] or len(reference.edge_set(A)) != summary["edge_count"]:
        failures.append(f"graph: edges {sorted(edges)} disagree with the manifest summary {summary}")
    return failures


def _own_fits(nodes) -> np.ndarray:
    return np.array([reference.lstsq_weights(*node["train"]) for node in nodes])


def check_synth_grid(inp: inputs.SynthInput, out: Path) -> list[str]:
    failures = []
    fits = _own_fits(inputs.synthetic_nodes(inp.spec))
    for row in read_grid(out / "grid.csv"):
        if row["degree"] is None:
            continue
        own = reference.is_connected(reference.union_knn(fits, row["degree"]))
        if row["connected"] != own:
            failures.append(f"grid.csv says degree {row['degree']} connected={row['connected']}, own graph {own}")
    failures += check_selection(out)
    test = {b["algorithm"]: b["mean"]["test"] for b in _json(out / "metrics.json")["algorithms"]}
    if not test["fedsgd"] < min(test["fedavg1"], test["fedavg2"]):
        failures.append(f"fedsgd winner's mean test MSE is not below both averaging winners': {test}")
    return failures


def check_synth_many(inp: inputs.SynthInput, run_out: Path, graph_out: Path) -> list[str]:
    failures = []
    nodes = inputs.synthetic_nodes(inp.spec)
    A = reference.union_knn(_own_fits(nodes), inp.degree)
    own_edges = reference.edge_set(A)
    for out in (run_out, graph_out):
        if read_edges(out / "graph.edges") != own_edges:
            failures.append(f"{out.name}/graph.edges differs from the benchmark's own kNN graph")
        if _json(out / "manifest.json")["graph"]["connected"] != reference.is_connected(A):
            failures.append(f"{out.name}/manifest.json connectivity differs from the own graph's")

    parts = [node["train"] for node in nodes]
    trace = read_trace(run_out / "trace.csv")
    _, optimum = reference.gtvmin_exact(parts, A, inp.alpha)
    final = trace["fedsgd"][-1][1]
    if final < optimum * (1 - ROUNDING) or not _close(final, optimum, CONVERGED):
        failures.append(f"final fedsgd objective {final!r} vs exact GTVMin optimum {optimum!r}")
    _, pooled = reference.pooled_fit(parts)
    final = trace["fedavg1"][-1][1]
    if final < pooled * (1 - ROUNDING) or not _close(final, pooled, CONVERGED):
        failures.append(f"final fedavg1 mean train loss {final!r} vs pooled optimum {pooled!r}")
    return failures
