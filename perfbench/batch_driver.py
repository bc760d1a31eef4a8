"""The research-batch program: ``repro experiments`` and cold/warm sweeps.

    python perfbench/batch_driver.py --seeds FILE --seconds S --out FILE

Set-up (imports, corpus build, first compile) ends with ``ready`` on stdout.
It then waits for one line on stdin: ``go`` runs the three
operations closed loop, single-threaded and interleaved round-robin for
``S`` seconds; anything else exits.  Each operation is timed on its own,
tagged with its round and with the host steal during it; the time of
operations with more than
``STEAL_MAX`` steal is made up by running on, up to ``EXTEND_CAP`` times
``S``.  Before each operation it times a few ``perfbench.speed``
kernel passes and keeps them with the op's sample, so the host speed is
sampled beside the work.  The per-op samples and the process's peak RSS go
to ``--out`` as JSON.

* ``experiments``: every ``repro.reports.experiments.EXPERIMENTS`` entry on
  a freshly built ``VulnerabilityDataset`` -- what ``repro experiments``
  does after building the corpus.  Every pass must equal the first.
* ``sweep-cold``: ``GridRunner.for_dataset(..., workers=1, cache=<empty
  ResultCache>)`` plus ``run(grid)`` on a fresh seed.
* ``sweep-warm``: the same seed and grid with a new runner over the
  populated cache; every cell must come from the cache and the payload must
  equal the cold one byte for byte.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import speed  # noqa: E402
from perfbench.host import read_cpu_ticks, vm_hwm_mib  # noqa: E402
from perfbench.stats import steal_share  # noqa: E402
from perfbench.workloads import BATCH_KERNEL_PASSES, EXTEND_CAP, STEAL_MAX  # noqa: E402

from repro.analysis.dataset import VulnerabilityDataset  # noqa: E402
from repro.itsys.scenarios import parse_scenario  # noqa: E402
from repro.reports.experiments import EXPERIMENTS  # noqa: E402
from repro.runner import ArrivalSpec, ExperimentGrid, GridRunner, ResultCache  # noqa: E402
from repro.synthetic.corpus import build_corpus  # noqa: E402

SET1 = ("Windows2003", "Solaris", "Debian", "OpenBSD")

#: The scenario axis crossed with the 16-cell grid of benchmarks/bench_sweep.py.
SCENARIOS = ("campaign:adversaries=3", "epidemic:spread=0.3", "adaptive:explore=0.2")


def sweep_grid() -> ExperimentGrid:
    """64 cells x 100 runs: classic plus three scenario families."""
    return ExperimentGrid(
        configurations={"homogeneous-Debian": ("Debian",) * 4, "Set1": SET1},
        quorum_models=("3f+1", "2f+1"),
        recovery_intervals=(None, 2.0),
        arrivals=(ArrivalSpec("poisson"), ArrivalSpec("aging", 1.8)),
        scenarios=(None, *(parse_scenario(spec) for spec in SCENARIOS)),
        runs=100,
    )


class State:
    def __init__(self, cache_root: Path) -> None:
        self.corpus = build_corpus()
        self.dataset = VulnerabilityDataset(self.corpus.entries).compile()
        self.grid = sweep_grid()
        self.cache_root = cache_root
        self.first_experiments = None
        self.cold_payload = None


def op_experiments(state: State) -> bool:
    dataset = VulnerabilityDataset(state.corpus.entries)
    results = [experiment.run(dataset) for experiment in EXPERIMENTS.values()]
    if state.first_experiments is None:
        state.first_experiments = results
    return results == state.first_experiments


def op_sweep_cold(state: State, seed: int) -> bool:
    runner = GridRunner.for_dataset(
        state.dataset, seed=seed, workers=1,
        cache=ResultCache(state.cache_root / str(seed)),
    )
    report = runner.run(state.grid)
    state.cold_payload = json.dumps(report.to_json_payload(), sort_keys=True)
    return report.simulated_cells == len(state.grid)


def op_sweep_warm(state: State, seed: int) -> bool:
    runner = GridRunner.for_dataset(
        state.dataset, seed=seed, workers=1,
        cache=ResultCache(state.cache_root / str(seed)),
    )
    report = runner.run(state.grid)
    payload = json.dumps(report.to_json_payload(), sort_keys=True)
    return report.simulated_cells == 0 and payload == state.cold_payload


def _timed(samples, number, kind, call, *args) -> dict:
    passes = speed.burst(BATCH_KERNEL_PASSES)
    before = read_cpu_ticks()
    started = time.perf_counter()
    try:
        ok = call(*args)
    except Exception as error:  # a crashed op is a failed op, not a crashed run
        print(f"{kind} raised {error!r}", file=sys.stderr)
        ok = False
    elapsed = time.perf_counter() - started
    sample = {
        "round": number,
        "op": kind,
        "ms": elapsed * 1e3,
        "steal": steal_share(before, read_cpu_ticks()),
        "ok": bool(ok),
        "end": time.perf_counter(),
        "kernel_ms": passes,
    }
    samples.append(sample)
    return sample


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/batch_driver.py")
    parser.add_argument("--seeds", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--cache", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    seeds = json.loads(args.seeds.read_text())
    state = State(args.cache)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if sys.stdin.readline().strip() != "go":
        return 0
    samples = []
    started = time.perf_counter()
    dropped_s = 0.0
    for number, seed in enumerate(seeds):
        elapsed = time.perf_counter() - started
        if elapsed - dropped_s >= args.seconds or elapsed >= args.seconds * EXTEND_CAP:
            break
        for sample in (
            _timed(samples, number, "experiments", op_experiments, state),
            _timed(samples, number, "sweep-cold", op_sweep_cold, state, seed),
            _timed(samples, number, "sweep-warm", op_sweep_warm, state, seed),
        ):
            if sample["steal"] > STEAL_MAX:
                dropped_s += sample["ms"] / 1e3
        shutil.rmtree(state.cache_root / str(seed), ignore_errors=True)
    payload = {"samples": samples,
               "measured_s": time.perf_counter() - started,
               "peak_rss_mb": vm_hwm_mib("self")}
    args.out.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
