"""Parallel experiment-grid runner with deterministic merging.

:class:`GridRunner` executes every cell of an
:class:`~repro.runner.grid.ExperimentGrid` and guarantees that the merged
output is **bit-for-bit identical for workers=1 and workers=N**:

* pending cells are grouped by what the event loop reads -- the OS tuple,
  the runs and every campaign keyword but the quorum model -- and each
  group's ``runs`` are executed once as run ranges
  (``CompromiseSimulation.run_range``), every run drawing from its own
  ``Random(seed + 7919 * run_index)`` stream regardless of chunking;
* the runner holds one :class:`~repro.analysis.dataset.VulnerabilityDataset`
  and takes its admitted pool from the dataset's memoised
  ``filtered(configuration)`` view, so the corpus is filtered once per
  dataset -- not once per runner, simulation or process -- and a sweep over
  a dataset whose views exist filters nothing;
* a group runs inline as one range (``workers=1``), or split into chunks
  across a ``ProcessPoolExecutor`` whose workers each build their
  simulation over that dataset once, in the executor initializer, not in
  every task;
* completed chunks are merged with
  :func:`~repro.itsys.simulation.merge_run_ranges`, which sorts partials by
  run-range start -- worker completion order cannot influence the result;
* every cell of a group is scored from the group's tallies under its own
  quorum model (:func:`~repro.itsys.simulation.result_from_tallies`), so a
  grid crossing ``3f+1`` with ``2f+1`` simulates each trajectory once;
* with a :class:`~repro.runner.cache.ResultCache` attached, cell results are
  looked up by content address before any simulation work is scheduled, so a
  warm sweep performs **zero** simulation calls.

``benchmarks/bench_sweep.py`` gates the speedup and the determinism;
``tests/runner/`` property-tests both against random corpora.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple
from weakref import WeakKeyDictionary

from repro.analysis.dataset import VulnerabilityDataset
from repro.core.enums import ServerConfiguration
from repro.core.exceptions import SimulationError
from repro.core.models import VulnerabilityEntry
from repro.obs.clock import CLOCK
from repro.obs.metrics import MetricsRegistry
from repro.itsys.simulation import (
    ENGINES,
    CompromiseSimulation,
    RunRangeTallies,
    SimulationResult,
    is_catalogued,
    merge_run_ranges,
    result_from_tallies,
)
from repro.runner.cache import ResultCache, cell_key, corpus_digest, result_to_json
from repro.runner.grid import ExperimentGrid, GridCell
from repro.snapshots.digests import scope_digest

#: Chunks scheduled per pool worker per trajectory group; >1 keeps the pool
#: busy when chunk durations vary, while staying coarse enough that
#: per-chunk compilation of the group's victim bitmasks stays negligible.
#: Inline runs take each group as one range.
_CHUNKS_PER_WORKER = 2

#: ``corpus_digest`` of each dataset a runner was built over, held while the
#: dataset lives.  ``for_dataset`` builds on the dataset's one shared valid
#: view, so every runner over one dataset hashes its corpus once.
_DATASET_DIGESTS: "WeakKeyDictionary[VulnerabilityDataset, str]" = WeakKeyDictionary()

#: Pending cells of one trajectory group, as (grid index, cell) pairs.
_Group = List[Tuple[int, GridCell]]

# -- worker-process state -----------------------------------------------------
#
# The executor initializer builds one CompromiseSimulation per worker process;
# its compiled exploitable pool is shared by every chunk the worker executes.
_WORKER_SIMULATION: Optional[CompromiseSimulation] = None


def _init_worker(
    dataset: VulnerabilityDataset,
    configuration: ServerConfiguration,
    seed: int,
    engine: str,
) -> None:
    global _WORKER_SIMULATION
    _WORKER_SIMULATION = CompromiseSimulation(
        dataset, configuration=configuration, seed=seed, engine=engine
    )


def _run_chunk(
    group_index: int, cell: GridCell, run_start: int, run_stop: int
) -> Tuple[int, RunRangeTallies, float]:
    """Execute one run range of one trajectory group inside a worker process.

    ``cell`` is any member of the group: members differ only in what the
    event loop does not read.

    The elapsed seconds ride back with the tallies so the parent process
    can feed its chunk-timing histogram without cross-process metric state;
    timings are observability only and never reach the merged results.
    """
    assert _WORKER_SIMULATION is not None, "worker initializer did not run"
    started = CLOCK.perf()
    tallies = _WORKER_SIMULATION.run_range(
        cell.os_names, run_start, run_stop, **cell.campaign_kwargs()
    )
    return group_index, tallies, CLOCK.perf() - started


def _trajectory_groups(pending: Sequence[Tuple[int, GridCell]]) -> List[_Group]:
    """Group pending cells by what the event loop reads, in first-seen order.

    Cells that differ only in their quorum model (or configuration name)
    replay the same runs: the loop reads the OS tuple, the run count and the
    campaign keywords, and the quorum model is applied when scoring.
    """
    groups: Dict[Tuple[object, ...], _Group] = {}
    for index, cell in pending:
        key = (cell.os_names, cell.runs, *cell.campaign_kwargs().values())
        groups.setdefault(key, []).append((index, cell))
    return list(groups.values())


def _score(
    members: _Group, tallies: RunRangeTallies, merged: Dict[int, SimulationResult]
) -> None:
    """Score one group's complete tallies for each member cell."""
    for index, cell in members:
        merged[index] = result_from_tallies(
            cell.cell_id, cell.os_names, tallies, cell.quorum_model
        )


def chunk_ranges(runs: int, chunks: int) -> List[Tuple[int, int]]:
    """Split ``[0, runs)`` into at most ``chunks`` contiguous ranges.

    Earlier ranges get the remainder, so sizes differ by at most one.  The
    split has **no** effect on merged results (each run is independently
    seeded); it only controls scheduling granularity.
    """
    if runs <= 0:
        raise SimulationError("the number of runs must be positive")
    chunks = max(1, min(chunks, runs))
    base, remainder = divmod(runs, chunks)
    ranges: List[Tuple[int, int]] = []
    start = 0
    for index in range(chunks):
        size = base + (1 if index < remainder else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


@dataclass(frozen=True)
class CellResult:
    """One executed (or cache-served) cell of a sweep."""

    cell: GridCell
    result: SimulationResult
    cached: bool
    #: Digest of the sub-corpus the cell can observe (its cache-key scope);
    #: unchanged across corpus deltas that do not touch the cell's OSes.
    scope_digest: str = ""


@dataclass(frozen=True)
class SweepReport:
    """The merged outcome of one grid sweep.

    ``cells`` is in grid-expansion order, independent of worker scheduling
    and cache state.  The payload produced by :meth:`to_json_payload` is
    fully deterministic (no timings, no paths), which is what the golden CLI
    tests pin down.
    """

    cells: Tuple[CellResult, ...]
    seed: int
    engine: str
    workers: int
    corpus_digest: str
    elapsed_seconds: float

    @property
    def cached_cells(self) -> int:
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def simulated_cells(self) -> int:
        return len(self.cells) - self.cached_cells

    def results(self) -> List[SimulationResult]:
        return [cell.result for cell in self.cells]

    def to_json_payload(self) -> Dict[str, object]:
        """Deterministic JSON payload (excludes timings by design).

        ``corpus_digest`` addresses the exact entry set the sweep ran over;
        each cell additionally carries its ``scope_digest`` (the sub-corpus
        it can observe, i.e. its cache-key scope), so every number in the
        payload is traceable to a dataset state.
        """
        return {
            "engine": self.engine,
            "seed": self.seed,
            "corpus_digest": self.corpus_digest,
            "cells": [
                {
                    "cell_id": cell.cell.cell_id,
                    "params": cell.cell.params(),
                    "scope_digest": cell.scope_digest,
                    "result": result_to_json(cell.result),
                }
                for cell in self.cells
            ],
        }

    # CSV view ---------------------------------------------------------------

    CSV_HEADERS: Tuple[str, ...] = (
        "cell_id", "configuration", "os_names", "quorum_model",
        "recovery_interval", "arrival", "shape", "adversary", "runs",
        "exploit_rate", "horizon", "safety_violation_probability",
        "safety_ci_low", "safety_ci_high", "mean_compromised",
        "mean_time_to_violation", "liveness_loss_probability", "cached",
        "corpus_digest", "scope_digest", "scenario",
    )

    def csv_rows(self) -> List[Tuple[object, ...]]:
        """One row per cell, aligned with :attr:`CSV_HEADERS`."""
        rows: List[Tuple[object, ...]] = []
        for cell_result in self.cells:
            cell, result = cell_result.cell, cell_result.result
            rows.append(
                (
                    cell.cell_id,
                    cell.configuration,
                    "+".join(cell.os_names),
                    cell.quorum_model,
                    "" if cell.recovery_interval is None else cell.recovery_interval,
                    cell.arrival.process,
                    cell.arrival.shape,
                    cell.adversary,
                    cell.runs,
                    cell.exploit_rate,
                    cell.horizon,
                    result.safety_violation_probability,
                    result.safety_violation_ci[0],
                    result.safety_violation_ci[1],
                    result.mean_compromised,
                    "" if result.mean_time_to_violation is None
                    else result.mean_time_to_violation,
                    result.liveness_loss_probability,
                    int(cell_result.cached),
                    self.corpus_digest,
                    cell_result.scope_digest,
                    "" if cell.scenario is None else cell.scenario.label,
                )
            )
        return rows


class GridRunner:
    """Executes experiment grids over a corpus, in parallel, deterministically.

    Cells that differ only in their quorum model share one simulated
    trajectory group, scored once per member.  ``workers=1`` runs each
    group inline in this process as one run range (the reference path);
    ``workers>1`` fans chunks out to a ``ProcessPoolExecutor`` and merges
    their tallies sorted by run-range start.  Runs are seeded by index, so
    both paths produce the same
    :class:`~repro.itsys.simulation.SimulationResult` per cell bit for bit.

    The runner holds one :class:`~repro.analysis.dataset.VulnerabilityDataset`:
    ``entries`` itself when it is one, else one built over the entries.  Its
    corpus digest is computed once per dataset, not per runner, and the
    admitted pool that scope digests and the simulation draw from is the
    dataset's memoised ``filtered(configuration)`` view.
    """

    def __init__(
        self,
        entries: Iterable[VulnerabilityEntry],
        seed: int = 7,
        engine: str = "bitset",
        configuration: ServerConfiguration = ServerConfiguration.ISOLATED_THIN,
        workers: int = 1,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if workers < 1:
            raise SimulationError("the runner needs at least one worker")
        if engine not in ENGINES:
            # Checked here, not in the workers: a bad label would otherwise
            # surface as a BrokenProcessPool, or only on a cache miss.
            raise SimulationError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self._dataset = (
            entries
            if isinstance(entries, VulnerabilityDataset)
            else VulnerabilityDataset(entries)
        )
        self._seed = seed
        self._engine = engine
        self._configuration = configuration
        #: Keys cache entries apart from a scaled catalogue's (see
        #: :func:`~repro.itsys.simulation.is_catalogued`).
        self._catalogued = is_catalogued(self._dataset)
        self._workers = workers
        self._cache = cache
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._cells_counter = self._metrics.counter(
            "sweep_cells_total",
            "Sweep cells completed, by origin (cache-served vs simulated).",
            labels=("origin",),
        )
        self._chunk_seconds = self._metrics.histogram(
            "sweep_chunk_seconds",
            "Per-chunk simulation wall time, inline or per worker process.",
        )
        if self._dataset not in _DATASET_DIGESTS:
            _DATASET_DIGESTS[self._dataset] = corpus_digest(self._dataset)
        self._digest = _DATASET_DIGESTS[self._dataset]
        #: The configuration-admitted entries every scope digest draws from.
        self._pool = self._dataset.filtered(configuration)
        #: Scoped digests memoized per (targeted, group OS set) -- many grid
        #: cells share a configuration, and the scope only depends on it.
        self._scope_digests: Dict[Tuple[bool, frozenset], str] = {}
        self._local: Optional[CompromiseSimulation] = None

    @classmethod
    def for_dataset(cls, dataset, **kwargs) -> "GridRunner":
        """A runner over a dataset's valid entries (the job-safe handle).

        The simulator only ever sees valid entries; this constructor takes
        them from the dataset's memoised valid view, so callers holding a
        :class:`~repro.analysis.dataset.VulnerabilityDataset` (the serving
        layer's job table, notebooks) cannot accidentally feed excluded
        entries into a sweep, and runners over one dataset share the view's
        corpus digest.  ``kwargs`` pass through to ``__init__``.
        """
        return cls(dataset.valid(), **kwargs)

    @property
    def workers(self) -> int:
        return self._workers

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    @property
    def metrics(self) -> MetricsRegistry:
        """The registry sweep instrumentation reports into (shared or private)."""
        return self._metrics

    @property
    def corpus_digest(self) -> str:
        return self._digest

    def scope_digest(self, cell: GridCell) -> str:
        """Digest of the sub-corpus the cell can observe (its cache scope).

        Targeted cells observe only configuration-admitted entries affecting
        their OSes; untargeted cells observe the whole admitted pool.  Cells
        whose scope a corpus delta leaves untouched keep their digest -- and
        therefore their cache key -- across the delta.
        """
        scope = (cell.targeted, frozenset(cell.os_names) if cell.targeted else frozenset())
        if scope not in self._scope_digests:
            self._scope_digests[scope] = scope_digest(
                self._pool, cell.os_names if cell.targeted else None
            )
        return self._scope_digests[scope]

    def _local_simulation(self) -> CompromiseSimulation:
        if self._local is None:
            self._local = CompromiseSimulation(
                self._dataset,
                configuration=self._configuration,
                seed=self._seed,
                engine=self._engine,
            )
        return self._local

    # -- execution -----------------------------------------------------------

    def run(self, grid: ExperimentGrid) -> SweepReport:
        """Execute every cell of the grid and return the merged report."""
        started = CLOCK.perf()
        cells = grid.expand()
        merged: Dict[int, SimulationResult] = {}
        cached: Dict[int, bool] = {}
        pending: List[Tuple[int, GridCell]] = []
        keys: Dict[int, str] = {}
        scopes: Dict[int, str] = {}
        for index, cell in enumerate(cells):
            scopes[index] = self.scope_digest(cell)
            if self._cache is not None:
                keys[index] = cell_key(
                    scopes[index],
                    cell,
                    self._seed,
                    self._engine,
                    configuration=self._configuration.value,
                    catalogued=self._catalogued,
                )
                hit = self._cache.get(keys[index])
                if hit is not None:
                    merged[index] = hit
                    cached[index] = True
                    continue
            pending.append((index, cell))
            cached[index] = False
        if pending:
            groups = _trajectory_groups(pending)
            if self._workers == 1:
                self._run_inline(groups, merged)
            else:
                self._run_pooled(groups, merged)
            if self._cache is not None:
                for index, cell in pending:
                    self._cache.put(keys[index], cell, merged[index])
        served = sum(1 for was_cached in cached.values() if was_cached)
        if served:
            self._cells_counter.inc(served, origin="cached")
        if pending:
            self._cells_counter.inc(len(pending), origin="simulated")
        return SweepReport(
            cells=tuple(
                CellResult(
                    cell=cell,
                    result=merged[index],
                    cached=cached[index],
                    scope_digest=scopes[index],
                )
                for index, cell in enumerate(cells)
            ),
            seed=self._seed,
            engine=self._engine,
            workers=self._workers,
            corpus_digest=self._digest,
            elapsed_seconds=CLOCK.perf() - started,
        )

    def _run_inline(
        self, groups: Sequence[_Group], merged: Dict[int, SimulationResult]
    ) -> None:
        # One range per group: splitting only helps a pool schedule work,
        # and each range compiles the group's pool and victim masks anew.
        simulation = self._local_simulation()
        for members in groups:
            cell = members[0][1]
            started = CLOCK.perf()
            tallies = simulation.run_range(
                cell.os_names, 0, cell.runs, **cell.campaign_kwargs()
            )
            self._chunk_seconds.observe(CLOCK.perf() - started)
            _score(members, tallies, merged)

    def _run_pooled(
        self, groups: Sequence[_Group], merged: Dict[int, SimulationResult]
    ) -> None:
        chunks_per_group = self._workers * _CHUNKS_PER_WORKER
        partials: List[List[RunRangeTallies]] = [[] for _ in groups]
        with ProcessPoolExecutor(
            max_workers=self._workers,
            initializer=_init_worker,
            initargs=(
                self._dataset, self._configuration, self._seed, self._engine
            ),
        ) as pool:
            futures: List[Future] = []
            for group_index, members in enumerate(groups):
                cell = members[0][1]
                futures.extend(
                    pool.submit(_run_chunk, group_index, cell, start, stop)
                    for start, stop in chunk_ranges(cell.runs, chunks_per_group)
                )
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in done:
                    group_index, tallies, elapsed = future.result()
                    self._chunk_seconds.observe(elapsed)
                    partials[group_index].append(tallies)
        for members, parts in zip(groups, partials):
            _score(members, merge_run_ranges(parts), merged)
