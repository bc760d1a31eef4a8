"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload api-scan --seeds 1 2 3 4 5 --seconds 30

The spread is the distance between the first and third quartile of the
per-run values (``statistics.quantiles(values, n=4)``) as a share of their
median -- the figure each end-to-end metric's ``bound`` in BENCHMARK.json
must stay well above.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/spread.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)
    bounds = {row["name"]: row.get("bound")
              for row in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    values = {}
    for seed in args.seeds:
        started = time.perf_counter()
        completed = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if completed.returncode != 0:
            print(completed.stderr[-3000:], file=sys.stderr)
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        wall = time.perf_counter() - started
        print(f"seed {seed}: {wall:5.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{name}={metric['value']:.4g}"
                         for name, metric in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    if len(args.seeds) >= 2:
        for name, series in values.items():
            median = statistics.median(series)
            spread = quartile_spread(series) if len(series) >= 2 else 0.0
            bound = bounds.get(name)
            note = f" bound {bound} (a third: {bound / 3:.3f})" if bound else ""
            print(f"{name:28s} median {median:12.5g} spread {spread:7.4f}{note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
