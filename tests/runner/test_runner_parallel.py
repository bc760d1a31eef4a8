"""Property-based tests: parallel sweeps are indistinguishable from serial.

Two properties gate the runner (mirroring ``benchmarks/bench_sweep.py`` but
over *random* corpora and seeds):

* for any corpus, seed and grid, ``workers=1`` and ``workers=4`` produce
  identical merged ``SimulationResult`` values per cell;
* a warm cache serves byte-identical JSON with zero simulation calls.

Process pools are expensive, so example counts are deliberately small; the
deterministic unit tests in this directory cover the edge cases.
"""

import datetime as dt
import json
import sqlite3
from contextlib import closing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.enums import AccessVector, ComponentClass, ValidityStatus
from repro.core.exceptions import SimulationError
from repro.core.models import CVSSVector, VulnerabilityEntry
from repro.itsys.simulation import CompromiseSimulation
from repro.runner import (
    ArrivalSpec,
    ExperimentGrid,
    GridRunner,
    ResultCache,
    result_to_json,
)
from repro.runner.cache import CACHE_FILE

def _rows(cache):
    """Every stored ``(key, text)`` row of a cache, as a dict."""
    with closing(sqlite3.connect(cache.cache_dir / CACHE_FILE)) as connection:
        return dict(connection.execute("SELECT key, text FROM cells"))


OS_POOL = ("Debian", "RedHat", "OpenBSD", "Solaris", "Windows2000", "Windows2003")


def _entry(index: int, oses) -> VulnerabilityEntry:
    return VulnerabilityEntry(
        cve_id=f"CVE-2004-{index:04d}",
        published=dt.date(2004, 1 + index % 12, 1 + index % 28),
        summary="A remote flaw in the kernel allows attackers to gain control.",
        cvss=CVSSVector(access_vector=AccessVector.NETWORK),
        affected_os=frozenset(oses),
        component_class=ComponentClass.KERNEL,
        validity=ValidityStatus.VALID,
    )


@st.composite
def corpora(draw):
    """Small random corpora of remote kernel flaws over the OS pool."""
    count = draw(st.integers(min_value=4, max_value=16))
    entries = []
    for index in range(count):
        oses = draw(
            st.sets(st.sampled_from(OS_POOL), min_size=1, max_size=3)
        )
        entries.append(_entry(index, oses))
    return entries


@st.composite
def grids(draw):
    group = tuple(
        draw(st.lists(st.sampled_from(OS_POOL), min_size=4, max_size=4))
    )
    return ExperimentGrid(
        configurations={"random-group": group, "homogeneous": (group[0],) * 4},
        quorum_models=("3f+1",),
        recovery_intervals=(None, draw(st.sampled_from((1.0, 2.5)))),
        arrivals=(ArrivalSpec("poisson"),),
        adversaries=(draw(st.sampled_from(("standard", "smart"))),),
        runs=draw(st.integers(min_value=5, max_value=12)),
        horizon=3.0,
    )


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(entries=corpora(), grid=grids(), seed=st.integers(0, 10_000))
def test_workers_one_and_four_merge_identically(entries, grid, seed):
    serial = GridRunner(entries, seed=seed, workers=1).run(grid)
    pooled = GridRunner(entries, seed=seed, workers=4).run(grid)
    assert serial.results() == pooled.results()
    assert [c.cell for c in serial.cells] == [c.cell for c in pooled.cells]


@settings(
    max_examples=5,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(entries=corpora(), grid=grids(), seed=st.integers(0, 10_000))
def test_cache_hits_are_byte_identical_to_cold_runs(entries, grid, seed, tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("sweep-cache"))
    cold = GridRunner(entries, seed=seed, workers=1, cache=cache).run(grid)
    cold_rows = _rows(cache)
    # One row per cell, each holding the result the cold sweep reported.
    records = [json.loads(text) for text in cold_rows.values()]
    assert len(records) == len(cold.cells) > 0
    assert {record["cell_id"]: record["result"] for record in records} == {
        cell.cell.cell_id: result_to_json(cell.result) for cell in cold.cells
    }
    warm = GridRunner(
        entries, seed=seed, workers=1, cache=ResultCache(cache.cache_dir)
    ).run(grid)
    assert warm.simulated_cells == 0
    assert warm.results() == cold.results()
    # The warm sweep emits the same JSON payload byte for byte...
    assert json.dumps(warm.to_json_payload(), sort_keys=True) == json.dumps(
        cold.to_json_payload(), sort_keys=True
    )
    # ...and never rewrites the cached rows.
    assert _rows(cache) == cold_rows


def test_paper_corpus_sweep_through_the_pool_matches_serial_json(corpus):
    """The full paper corpus through a real 4-process pool, byte for byte."""
    grid = ExperimentGrid(
        configurations={"Set1": ("Windows2003", "Solaris", "Debian", "OpenBSD")},
        recovery_intervals=(None, 2.0),
        runs=8,
        horizon=3.0,
    )
    entries = corpus.valid_entries
    serial = GridRunner(entries, seed=5, workers=1).run(grid)
    pooled = GridRunner(entries, seed=5, workers=4).run(grid)
    assert json.dumps(serial.to_json_payload(), sort_keys=True) == json.dumps(
        pooled.to_json_payload(), sort_keys=True
    )


@pytest.mark.parametrize("workers", [1, 2])
def test_unknown_engine_is_rejected_at_construction(corpus, workers):
    """Rejected up front, not as a BrokenProcessPool or on a cache miss."""
    for engine in ("quantum", "packed"):
        with pytest.raises(SimulationError, match="'bitset', 'naive'"):
            GridRunner(corpus.valid_entries, engine=engine, workers=workers)


class TestWarmCacheBypassesSimulation:
    def test_warm_sweep_never_calls_the_simulator(
        self, corpus, tmp_path, monkeypatch
    ):
        """After a cold sweep, reruns must not invoke ``run_range`` at all."""
        grid = ExperimentGrid(
            configurations={"Set1": ("Windows2003", "Solaris", "Debian", "OpenBSD")},
            recovery_intervals=(None, 2.0),
            runs=8,
            horizon=3.0,
        )
        entries = corpus.valid_entries
        cold = GridRunner(
            entries, seed=5, workers=1, cache=ResultCache(tmp_path)
        ).run(grid)

        def _forbidden(*args, **kwargs):
            raise AssertionError("simulation invoked on a warm cache")

        monkeypatch.setattr(CompromiseSimulation, "run_range", _forbidden)
        warm = GridRunner(
            entries, seed=5, workers=1, cache=ResultCache(tmp_path)
        ).run(grid)
        assert warm.simulated_cells == 0
        assert warm.results() == cold.results()

    def test_different_filter_configurations_do_not_share_cache_entries(
        self, corpus, tmp_path
    ):
        """A shared cache dir must not serve one filter's results to another."""
        from repro.core.enums import ServerConfiguration

        grid = ExperimentGrid(
            configurations={"Set1": ("Windows2003", "Solaris", "Debian", "OpenBSD")},
            runs=8,
            horizon=3.0,
        )
        entries = corpus.valid_entries
        isolated = GridRunner(
            entries, seed=5, workers=1, cache=ResultCache(tmp_path)
        ).run(grid)
        fat = GridRunner(
            entries, seed=5, workers=1,
            configuration=ServerConfiguration.FAT,
            cache=ResultCache(tmp_path),
        ).run(grid)
        assert fat.cached_cells == 0  # different pool => different key
        assert fat.results() != isolated.results()

    def test_no_cache_runner_simulates_every_cell(self, corpus):
        grid = ExperimentGrid(
            configurations={"Set1": ("Windows2003", "Solaris", "Debian", "OpenBSD")},
            runs=5,
            horizon=2.0,
        )
        report = GridRunner(corpus.valid_entries, seed=5, workers=1).run(grid)
        assert report.simulated_cells == len(report.cells) == 1
        assert report.cached_cells == 0


class TestReportShape:
    def test_csv_rows_align_with_headers(self, corpus):
        grid = ExperimentGrid(
            configurations={"Set1": ("Windows2003", "Solaris", "Debian", "OpenBSD")},
            recovery_intervals=(None, 2.0),
            runs=5,
            horizon=2.0,
        )
        report = GridRunner(corpus.valid_entries, seed=5, workers=1).run(grid)
        rows = report.csv_rows()
        assert len(rows) == 2
        assert all(len(row) == len(report.CSV_HEADERS) for row in rows)
        recovery_column = report.CSV_HEADERS.index("recovery_interval")
        assert rows[0][recovery_column] == ""
        assert rows[1][recovery_column] == 2.0

    def test_json_payload_has_no_timings(self, corpus):
        grid = ExperimentGrid(
            configurations={"Set1": ("Windows2003", "Solaris", "Debian", "OpenBSD")},
            runs=5,
            horizon=2.0,
        )
        report = GridRunner(corpus.valid_entries, seed=5, workers=1).run(grid)
        payload = report.to_json_payload()
        assert "elapsed" not in json.dumps(payload)
        assert payload["cells"][0]["cell_id"].startswith("Set1")
        assert report.elapsed_seconds > 0  # kept on the report, not the payload
