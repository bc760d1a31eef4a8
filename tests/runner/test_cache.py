"""Content-addressed result cache: keys, round trips, corruption handling."""

import json
import shutil

import pytest

from repro.itsys.simulation import CompromiseSimulation
from repro.runner import (
    ArrivalSpec,
    ExperimentGrid,
    ResultCache,
    cell_key,
    corpus_digest,
    result_from_json,
    result_to_json,
)

SET1 = ("Windows2003", "Solaris", "Debian", "OpenBSD")


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


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        assert cache.get("absent") is None
        path = cache.put("somekey", _cell(), result)
        assert path.exists()
        assert cache.get("somekey") == result
        assert (cache.hits, cache.misses, cache.writes) == (1, 1, 1)

    def test_hit_is_byte_identical_on_rewrite(self, tmp_path, result):
        """Re-putting the same result must reproduce the same file bytes."""
        cache = ResultCache(tmp_path)
        path = cache.put("k", _cell(), result)
        first = path.read_bytes()
        cache.put("k", _cell(), result)
        assert path.read_bytes() == first

    def test_corrupt_file_counts_as_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put("k", _cell(), result)
        path.write_text("{ not json", encoding="utf-8")
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
        path = cache.put("k", _cell(), result)
        path.write_text(broken, encoding="utf-8")
        assert cache.get("k") is None

    def test_schema_mismatch_counts_as_miss(self, tmp_path, result):
        cache = ResultCache(tmp_path)
        path = cache.put("k", _cell(), result)
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["schema"] = 999
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get("k") is None

    def test_cache_dir_created_lazily(self, tmp_path, result):
        target = tmp_path / "nested" / "cache"
        cache = ResultCache(target)
        assert not target.exists()
        cache.put("k", _cell(), result)
        assert target.is_dir()

    def test_put_after_the_directory_is_pruned_still_lands(self, tmp_path, result):
        """The directory is made once, and again when a write finds it gone."""
        target = tmp_path / "cache"
        cache = ResultCache(target)
        cache.put("first", _cell(), result)
        shutil.rmtree(target)
        path = cache.put("second", _cell(), result)
        assert path.parent == target and path.is_file()
        assert cache.get("second") == result
        assert sorted(p.name for p in target.iterdir()) == ["second.json"]
        assert cache.writes == 2
