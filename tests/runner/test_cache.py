"""Content-addressed result cache: keys, round trips, corruption handling."""

import json
import os
import shutil
import sqlite3
import subprocess
import sys
from contextlib import closing
from pathlib import Path

import pytest

from repro.itsys.scenarios import parse_scenario
from repro.itsys.simulation import CompromiseSimulation
from repro.runner import cache as cache_module
from repro.runner import (
    ArrivalSpec,
    ExperimentGrid,
    GridRunner,
    ResultCache,
    cell_key,
    corpus_digest,
    result_from_json,
    result_to_json,
)
from repro.runner.cache import CACHE_FILE, CACHE_SCHEMA
from repro.synthetic.generator import generate_scaled_catalogue

SET1 = ("Windows2003", "Solaris", "Debian", "OpenBSD")
SRC = Path(__file__).resolve().parents[2] / "src"


def _cell(**overrides):
    parameters = dict(
        configurations={"Set1": SET1},
        runs=overrides.pop("runs", 12),
    )
    grid = ExperimentGrid(**parameters, **overrides)
    return grid.expand()[0]


@pytest.fixture(scope="module")
def result(request):
    corpus = request.getfixturevalue("corpus")
    simulation = CompromiseSimulation(corpus.valid_entries, seed=3)
    return simulation.run_configuration("Set1", SET1, runs=12, horizon=3.0)


class TestCorpusDigest:
    def test_digest_is_stable(self, corpus):
        assert corpus_digest(corpus.valid_entries) == corpus_digest(corpus.valid_entries)

    def test_digest_depends_on_content(self, corpus, entry_factory):
        entries = corpus.valid_entries
        extended = entries + [entry_factory(cve_id="CVE-2099-0001")]
        assert corpus_digest(entries) != corpus_digest(extended)

    def test_digest_depends_on_order(self, corpus):
        """Pool order drives ``rng.choice``, so order must change the digest."""
        entries = corpus.valid_entries
        assert corpus_digest(entries) != corpus_digest(list(reversed(entries)))


class TestCellKey:
    def test_same_inputs_same_key(self, corpus):
        digest = corpus_digest(corpus.valid_entries)
        assert cell_key(digest, _cell(), 7, "bitset") == cell_key(
            digest, _cell(), 7, "bitset"
        )

    @pytest.mark.parametrize("variation", [
        dict(runs=13),
        dict(horizon=9.0),
        dict(quorum_models=("2f+1",)),
        dict(recovery_intervals=(2.0,)),
        dict(arrivals=(ArrivalSpec("aging", 1.8),)),
        dict(adversaries=("smart",)),
    ])
    def test_any_parameter_changes_the_key(self, corpus, variation):
        digest = corpus_digest(corpus.valid_entries)
        base = cell_key(digest, _cell(), 7, "bitset")
        assert cell_key(digest, _cell(**variation), 7, "bitset") != base

    def test_seed_and_engine_change_the_key(self, corpus):
        digest = corpus_digest(corpus.valid_entries)
        base = cell_key(digest, _cell(), 7, "bitset")
        assert cell_key(digest, _cell(), 8, "bitset") != base
        assert cell_key(digest, _cell(), 7, "naive") != base

    def test_filter_configuration_and_catalogued_change_the_key(self, corpus):
        """The attack-surface filter selects the pool, so it must be keyed."""
        digest = corpus_digest(corpus.valid_entries)
        base = cell_key(digest, _cell(), 7, "bitset")
        assert cell_key(
            digest, _cell(), 7, "bitset", configuration="Fat Server"
        ) != base
        assert cell_key(digest, _cell(), 7, "bitset", catalogued=False) != base


class TestResultJson:
    def test_round_trip_is_exact(self, result):
        assert result_from_json(result_to_json(result)) == result

    def test_round_trip_through_serialised_text(self, result):
        text = json.dumps(result_to_json(result))
        assert result_from_json(json.loads(text)) == result


def _rows(cache):
    """Every stored ``(key, text)`` row of a cache, as a dict."""
    with closing(sqlite3.connect(cache.cache_dir / CACHE_FILE)) as connection:
        return dict(connection.execute("SELECT key, text FROM cells"))


def _set_text(cache, key, text):
    with closing(sqlite3.connect(cache.cache_dir / CACHE_FILE)) as connection:
        with connection:
            connection.execute(
                "UPDATE cells SET text = ? WHERE key = ?", (text, key)
            )


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        cache.put("somekey", _cell(), result)
        assert (tmp_path / CACHE_FILE).is_file()
        assert cache.get("somekey") == result
        assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)

    def test_a_row_is_the_schema_3_json_record(self, tmp_path, result):
        """A row's text is the cell's pretty-printed schema-3 JSON record."""
        cache = ResultCache(tmp_path)
        cell = _cell()
        cache.put("k", cell, result)
        assert _rows(cache) == {
            "k": json.dumps(
                {
                    "schema": CACHE_SCHEMA,
                    "key": "k",
                    "cell": cell.params(),
                    "cell_id": cell.cell_id,
                    "result": result_to_json(result),
                },
                indent=2,
                sort_keys=True,
            ) + "\n"
        }
        assert CACHE_SCHEMA == 3

    def test_hit_is_byte_identical_on_rewrite(self, tmp_path, result):
        """Re-putting the same result must reproduce the same row text."""
        cache = ResultCache(tmp_path)
        cache.put("k", _cell(), result)
        first = _rows(cache)
        cache.put("k", _cell(), result)
        assert _rows(cache) == first

    def test_corrupt_row_counts_as_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put("k", _cell(), result)
        _set_text(cache, "k", "{ not json")
        assert cache.get("k") is None

    @pytest.mark.parametrize("broken", [
        "[]",                      # JSON but not an object
        '"just a string"',
        '{"schema": 1, "result": []}',          # result not an object
        '{"schema": 1, "result": {"name": "x"}}',  # result missing fields
        '{"schema": 1, "result": {"name": "x", "os_names": 3, "runs": 1, '
        '"safety_violation_probability": 0, "mean_compromised": 0, '
        '"mean_time_to_violation": null, "liveness_loss_probability": 0, '
        '"safety_violation_ci": [0, 1], "liveness_loss_ci": [0, 1]}}',
    ])
    def test_structurally_broken_payloads_count_as_miss(
        self, tmp_path, result, broken
    ):
        cache = ResultCache(tmp_path)
        cache.put("k", _cell(), result)
        _set_text(cache, "k", broken)
        assert cache.get("k") is None

    def test_schema_mismatch_counts_as_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put("k", _cell(), result)
        payload = json.loads(_rows(cache)["k"])
        payload["schema"] = 999
        _set_text(cache, "k", json.dumps(payload))
        assert cache.get("k") is None

    def test_cache_dir_created_lazily(self, tmp_path, result):
        target = tmp_path / "nested" / "cache"
        cache = ResultCache(target)
        assert not target.exists()
        assert cache.get("k") is None
        assert not target.exists()
        cache.put("k", _cell(), result)
        assert target.is_dir()

    def test_a_lookup_never_creates_the_file(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get_many(["a", "b"]) == {}
        assert list(tmp_path.iterdir()) == []
        assert cache.misses == 2

    def test_put_after_the_directory_is_pruned_still_lands(self, tmp_path, result):
        """The directory is made once, and again when a write finds it gone."""
        target = tmp_path / "cache"
        cache = ResultCache(target)
        cache.put("first", _cell(), result)
        shutil.rmtree(target)
        cache.put("second", _cell(), result)
        assert (target / CACHE_FILE).is_file()
        assert cache.get("second") == result
        assert sorted(p.name for p in target.iterdir()) == [CACHE_FILE]
        assert sorted(_rows(cache)) == ["second"]
        assert cache.writes == 2

    def test_get_many_and_put_many_count_cells(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        cache.put_many([("a", _cell(), result), ("b", _cell(), result)])
        assert cache.get_many(["a", "absent", "b", "a"]) == {
            "a": result, "b": result
        }
        assert (cache.hits, cache.misses, cache.writes) == (3, 1, 2)
        cache.put_many([])
        assert cache.writes == 2

    def test_lookups_bind_keys_in_chunks(self, tmp_path, result):
        """More keys than one statement may bind still come back in one call."""
        keys = [f"k{index:04d}" for index in range(1201)]
        cache = ResultCache(tmp_path)
        cache.put_many((key, _cell(), result) for key in keys)
        found = cache.get_many(keys + ["absent"])
        assert sorted(found) == keys
        assert (cache.hits, cache.misses) == (1201, 1)

    def test_a_file_that_is_not_a_database_reads_as_misses(self, tmp_path, result):
        """Corruption costs recomputation: misses, then a new file."""
        cache = ResultCache(tmp_path)
        cache.put("k", _cell(), result)
        (tmp_path / CACHE_FILE).write_text("{ not a database " * 64, encoding="utf-8")
        assert cache.get_many(["k", "other"]) == {}
        assert cache.misses == 2
        cache.put("other", _cell(), result)
        assert _rows(cache).keys() == {"other"}
        assert cache.get("other") == result

    def test_a_held_write_lock_is_not_taken_for_corruption(
        self, tmp_path, result, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        cache.put("k", _cell(), result)
        before = _rows(cache)
        monkeypatch.setattr(cache_module, "_LOCK_TIMEOUT", 0.05)
        holder = sqlite3.connect(tmp_path / CACHE_FILE, isolation_level=None)
        try:
            holder.execute("BEGIN EXCLUSIVE")
            with pytest.raises(sqlite3.OperationalError, match="locked"):
                cache.put("other", _cell(), result)
            # A lookup that cannot read is a miss, not a reason to rewrite.
            assert cache.get("k") is None
        finally:
            holder.close()
        assert _rows(cache) == before
        assert cache.get("k") == result
        assert cache.writes == 1

    def test_two_processes_writing_one_directory_store_every_cell_once(
        self, tmp_path
    ):
        target = tmp_path / "shared"
        processes = [
            subprocess.Popen(
                [sys.executable, "-c", _CONCURRENT_WRITER, str(target), tag],
                env={**os.environ, "PYTHONPATH": str(SRC)},
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for tag in ("a", "b")
        ]
        outputs = [process.communicate(timeout=120) for process in processes]
        assert [process.returncode for process in processes] == [0, 0], outputs
        assert [output for output, _ in outputs] == ["ok\n", "ok\n"]
        cache = ResultCache(target)
        with closing(sqlite3.connect(cache.cache_dir / CACHE_FILE)) as connection:
            (count,) = connection.execute("SELECT COUNT(*) FROM cells").fetchone()
        rows = _rows(cache)
        assert count == len(rows) == 96
        assert sorted(rows) == sorted(
            [f"shared-{index}" for index in range(32)]
            + [f"{tag}-{index}" for tag in ("a", "b") for index in range(32)]
        )
        assert all(json.loads(text)["key"] == key for key, text in rows.items())


#: Once both writers are up, writes 32 shared and 32 own cells in each of 50
#: rounds, each round in one transaction, and reads its 64 cells back after
#: each write.
_CONCURRENT_WRITER = """
import os, sys, time
from repro.itsys.simulation import SimulationResult
from repro.runner import ExperimentGrid, ResultCache

directory, tag = sys.argv[1:]
open(f"{directory}.{tag}.ready", "w").close()
while not all(os.path.exists(f"{directory}.{peer}.ready") for peer in "ab"):
    time.sleep(0.001)
cell = ExperimentGrid(configurations={"solo": ("Debian",)}, runs=1).expand()[0]
result = SimulationResult(
    "solo", ("Debian",), 1, 0.5, 1.0, None, 0.0, (0.0, 1.0), (0.0, 1.0)
)
keys = [f"shared-{i}" for i in range(32)] + [f"{tag}-{i}" for i in range(32)]
for _ in range(50):
    cache = ResultCache(directory)
    cache.put_many((key, cell, result) for key in keys)
    assert cache.get_many(keys) == dict.fromkeys(keys, result)
    assert (cache.writes, cache.hits, cache.misses) == (64, 64, 0)
print("ok")
"""


class TestDerivedCatalogued:
    """Runners derive ``catalogued`` from the OS names of their dataset."""

    GROUP = ("F00-R00", "F01-R01", "F02-R02", "F00-R01")

    def test_a_scaled_catalogue_keys_as_an_explicit_uncatalogued_cell(
        self, tmp_path
    ):
        dataset = generate_scaled_catalogue(
            n_families=3, releases_per_family=3
        ).dataset()
        grid = ExperimentGrid(
            configurations={"mixed": self.GROUP},
            quorum_models=("3f+1", "2f+1"),
            runs=20,
            horizon=3.0,
        )
        cache = ResultCache(tmp_path)
        report = GridRunner.for_dataset(dataset, seed=5, cache=cache).run(grid)
        simulation = CompromiseSimulation(dataset, seed=5)
        for cell in report.cells:
            key = cell_key(
                cell.scope_digest, cell.cell, 5, "bitset", catalogued=False
            )
            assert cache.get(key) == cell.result
            assert cell.result == simulation.run_configuration(
                cell.cell.cell_id,
                cell.cell.os_names,
                runs=cell.cell.runs,
                quorum_model=cell.cell.quorum_model,
                **cell.cell.campaign_kwargs(),
            )
        assert sorted(_rows(cache)) == sorted(
            cell_key(cell.scope_digest, cell.cell, 5, "bitset", catalogued=False)
            for cell in report.cells
        )

    def test_the_paper_corpus_keys_as_catalogued(self, tmp_path, dataset):
        grid = ExperimentGrid(configurations={"Set1": SET1}, runs=4, horizon=1.0)
        cache = ResultCache(tmp_path)
        (cell,) = GridRunner.for_dataset(dataset, seed=5, cache=cache).run(grid).cells
        assert cache.get(cell_key(cell.scope_digest, cell.cell, 5, "bitset")) == (
            cell.result
        )


class TestOneLookupAndOneWritePerSweep:
    """The research-batch grid: one query per sweep, one write per cold one."""

    @staticmethod
    def _grid():
        """64 cells x 100 runs: classic plus three scenario families."""
        return ExperimentGrid(
            configurations={"homogeneous-Debian": ("Debian",) * 4, "Set1": SET1},
            quorum_models=("3f+1", "2f+1"),
            recovery_intervals=(None, 2.0),
            arrivals=(ArrivalSpec("poisson"), ArrivalSpec("aging", 1.8)),
            scenarios=(None, *(parse_scenario(spec) for spec in (
                "campaign:adversaries=3", "epidemic:spread=0.3",
                "adaptive:explore=0.2",
            ))),
            runs=100,
        )

    def test_statements_of_a_cold_and_a_warm_sweep(
        self, tmp_path, dataset, monkeypatch
    ):
        grid = self._grid()
        assert len(grid) == 64

        def sweep(seed):
            return GridRunner.for_dataset(
                dataset, seed=seed, cache=ResultCache(tmp_path)
            ).run(grid)

        # Another seed's cells first, so the cold lookup reads a real table.
        sweep(6)
        connect = sqlite3.connect
        opened, statements = [], []

        def traced(*args, **kwargs):
            connection = connect(*args, **kwargs)
            opened.append(connection)
            connection.set_trace_callback(statements.append)
            return connection

        monkeypatch.setattr(sqlite3, "connect", traced)
        cold = sweep(7)
        assert cold.simulated_cells == 64
        verbs = [sql.split()[0].upper() for sql in statements]
        assert len(opened) == 2
        assert verbs.count("SELECT") == 1
        assert verbs.count("BEGIN") == verbs.count("COMMIT") == 1
        begin, commit = verbs.index("BEGIN"), verbs.index("COMMIT")
        assert verbs.count("INSERT") == 64
        assert all(
            begin < at < commit for at, verb in enumerate(verbs) if verb == "INSERT"
        )

        opened.clear()
        statements.clear()
        warm = sweep(7)
        assert warm.cached_cells == 64
        assert len(opened) == 1
        assert [sql.split()[0].upper() for sql in statements] == ["SELECT"]
        assert warm.results() == cold.results()
