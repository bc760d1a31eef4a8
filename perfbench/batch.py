"""The ``research-batch`` workload: the library driver in its own process.

``op_p50_ms`` is the median time of one round -- ``experiments``, a cold
sweep and its warm rerun -- and each op's own median stays in the run's
detail.  Timed metrics are scaled to the reference host speed
(``perfbench.speed``): each start by the kernel passes timed just before and
after it, each round by the passes ``batch_driver.py`` timed before its ops.
"""

from __future__ import annotations

import json
import shutil
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

from perfbench import attribution, speed, workloads
from perfbench.host import (
    BENCH_DIR, WORK, BenchError, Program, Spinners, fixtures_dir, write_json,
)
from perfbench.stats import median, timing_summary

DRIVER = str(BENCH_DIR / "batch_driver.py")
LAUNCHER = str(BENCH_DIR / "launcher.py")


def _driver_args(seeds: Path, seconds: float, scratch: Path, out: Path) -> List[str]:
    return ["--seeds", str(seeds), "--seconds", f"{seconds:.3f}",
            "--cache", str(scratch / "sweep-cache"), "--out", str(out)]


def _start(argv: List[str]) -> Program:
    program = Program(argv, stdin=True)
    try:
        program.wait_ready()
    except BaseException:
        program.stop()
        raise
    return program


def _measure(program: Program, out: Path, seconds: float) -> dict:
    """Let a ready driver run its timed loop; return its samples."""
    with Spinners():
        program.send("go")
        code = program.finish(timeout=seconds + 150)
    if code != 0 or not out.exists():
        raise BenchError(f"batch driver exited {code}:\n{program.output_tail()}")
    return json.loads(out.read_text())


def kept_samples(samples: List[dict]) -> List[dict]:
    """Ops with low host steal; all ops if too few survive the filter."""
    kept = [sample for sample in samples if sample["steal"] <= workloads.STEAL_MAX]
    return kept if len(kept) >= len(samples) // 2 else samples


def _op_ms(samples: List[dict], kind: str) -> List[float]:
    return [sample["ms"] for sample in samples if sample["op"] == kind]


def kept_rounds(samples: List[dict]) -> List[List[dict]]:
    """The rounds whose every op had low host steal; every round if too few
    survive the filter."""
    rounds: Dict[int, List[dict]] = defaultdict(list)
    for sample in samples:
        rounds[sample["round"]].append(sample)
    whole = [ops for ops in rounds.values() if len(ops) == len(workloads.BATCH_OPS)]
    kept = [ops for ops in whole if all(op["steal"] <= workloads.STEAL_MAX for op in ops)]
    return kept if len(kept) >= len(whole) // 2 else whole


def round_ms(ops: List[dict]) -> float:
    return sum(op["ms"] for op in ops)


def scaled_round_ms(ops: List[dict]) -> float:
    """A round's time at the reference speed of the passes timed inside it."""
    return round_ms(ops) * speed.factor([ms for op in ops for ms in op["kernel_ms"]])


def run(seed: int, seconds: float, trace: bool, env: Dict[str, object]) -> Dict[str, object]:
    scratch = WORK / "runs" / f"research-batch-{seed}-{'trace' if trace else 'e2e'}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    seeds = write_json(fixtures_dir() / f"batch-seeds-{seed}.json",
                       workloads.batch_seeds(seed))
    out = scratch / "driver.json"
    if trace:
        return _traced(seed, seconds, seeds, scratch, env)

    starts = []
    bursts = []
    program = None
    for _attempt in range(workloads.COLD_STARTS):
        if program is not None:
            program.send("stop")
            program.finish()
        bursts.append(speed.burst(workloads.SETUP_KERNEL_PASSES))
        program = _start([DRIVER, *_driver_args(seeds, seconds, scratch, out)])
        starts.append(time.perf_counter() - program.started)
    bursts.append(speed.burst(workloads.SETUP_KERNEL_PASSES))
    result = _measure(program, out, seconds)
    samples = result["samples"]
    kept = kept_samples(samples)
    failed = sum(1 for sample in samples if not sample["ok"])
    passes = [ms for sample in samples for ms in sample["kernel_ms"]]
    scale = speed.factor(passes)
    rounds = kept_rounds(samples)
    metrics = {
        "setup_s": (median(speed.bracketed(starts, bursts)), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "op_p50_ms": (median([scaled_round_ms(ops) for ops in rounds]), "ms"),
    }
    detail = {
        "setup_s_raw": starts,
        "setup_kernel_ms": timing_summary([ms for burst in bursts for ms in burst]),
        "speed": {"reference_ms": speed.REFERENCE_MS, "run_factor": scale,
                  "op_p50_ms_at_run_factor": median([round_ms(ops) for ops in rounds]) * scale,
                  "kernel_ms": timing_summary(passes)},
        "rounds": timing_summary([round_ms(ops) for ops in rounds]),
        "ops": {kind: timing_summary(_op_ms(kept, kind)) for kind in workloads.BATCH_OPS},
        "ops_p50_ms_scaled": {
            kind: median([sample["ms"] * speed.factor(sample["kernel_ms"])
                          for sample in kept if sample["op"] == kind])
            for kind in workloads.BATCH_OPS},
        "measured_s": result["measured_s"],
        "dropped_ops": len(samples) - len(kept),
        "steal_max": workloads.STEAL_MAX,
        "steal_per_op": [round(sample["steal"], 4) for sample in samples],
    }
    write_json(scratch / "detail.json", {"environment": env, **detail})
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": metrics, "detail": detail}


def _traced(seed, seconds, seeds, scratch, env):
    """An untraced baseline driver, then the traced driver, one start each."""
    base_out = scratch / "base.json"
    program = _start([DRIVER, *_driver_args(seeds, seconds * 0.3, scratch, base_out)])
    base = _measure(program, base_out, seconds * 0.3)["samples"]

    spans = scratch / "spans.jsonl"
    traced_out = scratch / "traced.json"
    program = _start([LAUNCHER, "--spans", str(spans), "--batch", "--",
                         *_driver_args(seeds, seconds * 0.7, scratch, traced_out)])
    traced = _measure(program, traced_out, seconds * 0.7)["samples"]
    if not spans.exists():
        raise BenchError("traced batch driver wrote no spans")

    kept_ids: Dict[str, set] = {kind: set() for kind in workloads.BATCH_OPS}
    kept = kept_samples(traced)
    kept_set = {id(sample) for sample in kept}
    for number, sample in enumerate(traced, start=1):
        if id(sample) in kept_set:
            kept_ids[sample["op"]].add(f"op{number}:{sample['op']}")
    untraced_cold = median(_op_ms(kept_samples(base), "sweep-cold"))
    traced_cold = median(_op_ms(kept, "sweep-cold"))
    layers = attribution.batch(attribution.load_spans(spans), kept_ids,
                               untraced_cold, traced_cold)
    samples = base + traced
    failed = sum(1 for sample in samples if not sample["ok"])
    report = {"workload": "research-batch", "seed": seed, "environment": env,
              "dropped_ops": len(traced) - len(kept), **layers["report"]}
    attribution.write_report("research-batch", seed, report)
    return {"correct": failed == 0, "attempted": len(samples), "failed": failed,
            "metrics": layers["metrics"],
            "detail": {"report": str(attribution.report_path("research-batch", seed))}}
