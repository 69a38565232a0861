"""Benchmark of the fedgtv CLI on the paper's grid experiment and two synthetic loads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload los_grid --seed 1 --seconds 10 --trace 0

It generates the workload's inputs from the seed (untimed), then starts one
worker process with a single BLAS thread that drives the workload's CLI
operations in-process, in whole rounds, until ``--seconds`` have passed. It
checks the artifacts against independent references and prints every metric
by name and unit; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` wraps the program's public functions in
spans and reports per-layer metrics instead. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORK = Path(".perfbench_work")
SETUP_PROBES = 8
# Leaves room under the 180 s a run may take for input generation and checks.
WORKER_TIMEOUT_S = 150
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    write: Callable  # (seed, dir) -> the generator's own copy of the inputs
    operations: Callable  # (inputs, dir) -> [(name, argv)]
    check: Callable  # (inputs, dir, operation results) -> [failure]


def cli_args(command: str, config: Path, out: Path) -> list[str]:
    return [command, "--config", str(config), "--out", str(out)]


WORKLOADS = {
    "los_grid": Workload(
        inputs.write_los,
        lambda inp, d: [("grid", cli_args("grid", inp.config, d / "grid")), ("graph", cli_args("graph", inp.config, d / "graph"))],
        lambda inp, d, ops: checks.check_los(inp, d / "grid", ops[1], d / "graph"),
    ),
    "synth_grid": Workload(
        inputs.write_synth_grid,
        lambda inp, d: [("grid", cli_args("grid", inp.config, d / "grid"))],
        lambda inp, d, ops: checks.check_synth_grid(inp, d / "grid"),
    ),
    "synth_many": Workload(
        inputs.write_synth_many,
        lambda inp, d: [("run", cli_args("run", inp.config, d / "run")), ("graph", cli_args("graph", inp.config, d / "graph"))],
        lambda inp, d, ops: checks.check_synth_many(inp, d / "run", d / "graph"),
    ),
}


def worker_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = str(root / "src")
    return env


def spawn(args: list[str], env: dict[str, str], timeout: float) -> tuple[float, str]:
    """Run a worker to completion; returns its start time and its stdout."""
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args], env=env, stdout=subprocess.PIPE, text=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"worker exited with {proc.returncode}")
    return start, out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "fedgtv" / "cli.py").is_file():
        print("perfbench: run from the root of a fedgtv checkout (src/fedgtv missing)", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = root / WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    inp = workload.write(args.seed, work / "inputs")
    operations = workload.operations(inp, work / "out")
    plan = {
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "operations": [{"name": n, "argv": argv, "out": argv[-1]} for n, argv in operations],
    }
    (work / "plan.json").write_text(json.dumps(plan, indent=1), encoding="utf-8")
    env = worker_env(root)

    def probe_setup(count: int) -> list[float]:
        samples = []
        for _ in range(0 if args.trace else count):
            start, out = spawn(["--probe"], env, 60)
            samples.append(float(out) - start)
        return samples

    # Set-up probes run before and after the worker, so that the median
    # samples the machine at two moments.
    setup = probe_setup(SETUP_PROBES // 2)
    start, _ = spawn(["--plan", str(work / "plan.json"), "--result", str(work / "result.json")], env, WORKER_TIMEOUT_S)
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    setup += [result["ready"] - start] + probe_setup(SETUP_PROBES // 2)
    if not Path(result["fedgtv_file"]).resolve().is_relative_to(root / "src"):
        print(f"perfbench: imported fedgtv from {result['fedgtv_file']}, not this checkout", file=sys.stderr)
        return 2

    rounds = result["rounds"]
    attempted = sum(len(r["operations"]) for r in rounds)
    failed = sum(op["exit"] != 0 for r in rounds for op in r["operations"])
    try:
        failures = workload.check(inp, work / "out", rounds[-1]["operations"])
    except (OSError, KeyError, ValueError) as exc:
        failures = [f"artifacts missing or unreadable: {exc!r}"]
    for r in rounds[1:]:
        for first, again, (name, _) in zip(rounds[0]["operations"], r["operations"], operations):
            if (first["exit"], first["artifacts"]) != (again["exit"], again["artifacts"]):
                failures.append(f"{name}: artifacts or exit code differ between rounds")
    for message in failures:
        print(f"CHECK FAILED: {message}")

    wall = statistics.median(r["wall_s"] for r in rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s) of {len(operations)} operation(s)")
    if args.trace:
        print(f"traced wall_s (median over rounds) {wall:.4f} s")
        metrics = {name: (result["per_layer"][name], unit) for name, (unit, _) in tracing.PER_LAYER.items()}
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name:<58} {value:>16.6f} {unit}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
