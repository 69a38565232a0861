"""Child process that runs a workload's operations through the fedgtv CLI.

Started by run.py with one BLAS thread pinned in its environment. It imports
the program, notes the time (the end of set-up), then repeats whole rounds
of the planned CLI operations in-process until the run length has passed,
and writes timings, exit codes, artifact digests and its peak resident
memory as JSON. ``--probe`` only imports the program and prints the time,
for extra set-up samples.

    python3 perfbench/worker.py --plan PLAN.json --result RESULT.json
"""
import time

# The program is imported first so that READY marks the end of the set-up
# every CLI call pays: interpreter start plus the fedgtv/numpy/scipy/click
# imports.
import fedgtv.cli

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def digest(out_dir: Path) -> dict[str, str]:
    if not out_dir.is_dir():
        return {}
    return {
        p.relative_to(out_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def run_operation(argv: list[str]) -> dict:
    """One CLI call, in-process; the exit code comes from click's SystemExit."""
    err = io.StringIO()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        try:
            fedgtv.cli.main.main(args=argv, prog_name="fedgtv")
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:
            code = -1
            err.write(traceback.format_exc())
    return {"exit": code, "stderr": err.getvalue()[-4000:]}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", type=Path)
    parser.add_argument("--result", type=Path)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if args.probe:
        print(f"{READY!r}")
        return
    plan = json.loads(args.plan.read_text())
    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.install()
    rounds = []
    first = time.monotonic()
    while not rounds or time.monotonic() - first < plan["seconds"]:
        start = time.monotonic()
        ops = []
        for op in plan["operations"]:
            span = tracer.begin_operation(op["name"]) if tracer else None
            result = run_operation(op["argv"])
            if tracer:
                tracer.end_operation(span)
            ops.append(result)
        wall = time.monotonic() - start
        for op, result in zip(plan["operations"], ops):
            result["artifacts"] = digest(Path(op["out"]))
        rounds.append({"wall_s": wall, "operations": ops})
    result = {
        "ready": READY,
        "fedgtv_file": fedgtv.cli.__file__,
        "peak_rss_mb": peak_rss_mb(),
        "rounds": rounds,
    }
    if tracer:
        tracer.write_spans(args.result.with_name("spans.csv"))
        result["per_layer"] = tracer.per_layer(len(rounds))
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
