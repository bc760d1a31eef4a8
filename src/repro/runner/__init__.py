"""Parallel experiment-grid runner.

The paper's evaluation is a family of sweeps; this subpackage turns "run the
simulator over a parameter grid" into a first-class, parallel, cached
operation:

* :mod:`repro.runner.grid` -- declarative grids
  (:class:`~repro.runner.grid.ExperimentGrid`) expanding deterministically
  into cells;
* :mod:`repro.runner.runner` -- :class:`~repro.runner.runner.GridRunner`,
  which chunks each cell's runs, executes chunks across a process pool and
  merges them so ``workers=1`` and ``workers=N`` agree bit for bit;
* :mod:`repro.runner.cache` -- a content-addressed JSON result cache keyed
  by the cell's *scoped* corpus digest (the sub-corpus the cell can
  observe) + cell parameters + seed + engine, so incremental corpus deltas
  invalidate only the cells whose OSes they touch.

Surfaced on the command line as ``python -m repro sweep`` (see
``docs/cli.md``) and benchmarked by ``benchmarks/bench_sweep.py``.
"""

from repro.runner.cache import (
    CACHE_SCHEMA,
    ResultCache,
    cell_key,
    corpus_digest,
    result_from_json,
    result_to_json,
)
from repro.runner.grid import (
    ADVERSARY_MODES,
    ArrivalSpec,
    ExperimentGrid,
    GridCell,
)
from repro.runner.runner import CellResult, GridRunner, SweepReport, chunk_ranges

__all__ = [
    "ADVERSARY_MODES",
    "ArrivalSpec",
    "CACHE_SCHEMA",
    "CellResult",
    "ExperimentGrid",
    "GridCell",
    "GridRunner",
    "ResultCache",
    "SweepReport",
    "cell_key",
    "chunk_ranges",
    "corpus_digest",
    "result_from_json",
    "result_to_json",
]
