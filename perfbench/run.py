"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload api-churn --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
``--trace 0`` prints the ``end_to_end`` metrics of ``BENCHMARK.json``, timed
ones scaled to a reference host speed (``perfbench/speed.py``); ``--trace 1``
prints its ``per_layer`` metrics from a traced run, as measured, and writes
a report with every per-layer number of the workload under
``.bench_build/perfbench/reports/``.  Every workload prints every metric of
its mode.  Every run also writes its environment block and details under
``.bench_build/perfbench/runs/``.  The exit code is non-zero, with no result
printed, when the benchmark cannot run or a metric is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import batch, serving, workloads  # noqa: E402
from perfbench.host import (  # noqa: E402
    WORK, BenchError, environment, pin_to_bench_cpu, require_program, write_json,
)

WORKLOADS = ("api-churn", "api-scan", "research-batch")


def _number(value: float) -> float:
    """JSON has no infinity; a failed read's latency reads as 1e9 ms."""
    return value if math.isfinite(value) else 1e9


def manifest_metrics(trace: bool) -> List[Tuple[str, str]]:
    """(name, unit) of every metric the result line must carry."""
    try:
        manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as error:
        raise BenchError(f"cannot read BENCHMARK.json: {error}") from error
    return [(row["name"], row["unit"])
            for row in manifest["per_layer" if trace else "end_to_end"]]


def select_metrics(measured: Dict[str, Tuple[float, str]],
                   wanted: List[Tuple[str, str]]) -> Dict[str, Tuple[float, str]]:
    """The wanted metrics, in manifest order; a missing one or a unit
    mismatch is an error, so no result line ever lacks a metric."""
    problems = [f"{name} ({unit})" for name, unit in wanted
                if name not in measured or measured[name][1] != unit]
    if problems:
        raise BenchError("the run measured no " + ", ".join(problems))
    return {name: measured[name] for name, _unit in wanted}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A TERM from whoever runs the benchmark unwinds through every finally
    # block, so servers and spinners are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        wanted = manifest_metrics(bool(args.trace))
        require_program()
        pin_to_bench_cpu()
        env = environment()
        started = time.perf_counter()
        if args.workload == "research-batch":
            result = batch.run(args.seed, args.seconds, bool(args.trace), env)
        else:
            plan = workloads.CHURN if args.workload == "api-churn" else workloads.SCAN
            result = serving.run(plan, args.seed, args.seconds, bool(args.trace), env)
        env["wall_s"] = round(time.perf_counter() - started, 3)
        metrics = select_metrics(result["metrics"], wanted)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    write_json(WORK / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {"environment": env, "result": {key: value for key, value in result.items()
                                               if key != "metrics"},
                "metrics": {name: value for name, (value, _unit) in result["metrics"].items()}})
    # The environment block: host, program and hash seed, plus each timed
    # phase's steal per window, dropped windows and generator lateness.
    print(json.dumps({"environment": env, "detail": result["detail"]}), file=sys.stderr)
    line = {
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": _number(float(value)), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
