"""Units for the artifact registry and the scoped-digest response cache."""

from __future__ import annotations

import pytest

import repro.service.registry as registry_module
from repro.analysis.dataset import ENGINES, VulnerabilityDataset
from repro.core.enums import ServerConfiguration
from repro.service.cache import (
    CachedResponse,
    ResponseCache,
    canonical_query,
    make_etag,
)
from repro.service.registry import (
    ArtifactRegistry,
    CorpusArtifacts,
    DatasetState,
    StaticDatasetProvider,
)
from repro.snapshots.digests import scope_digest

from tests.conftest import make_entry


def _provider(entries, label="unit"):
    return StaticDatasetProvider(entries, label=label)


def _entries(oses=("Debian", "OpenBSD")):
    return [
        make_entry(cve_id=f"CVE-2005-{index:04d}", oses=oses)
        for index in range(1, 4)
    ]


class TestArtifactRegistry:
    def test_one_compile_per_digest(self):
        provider = _provider(_entries())
        registry = ArtifactRegistry()
        state = provider.current()
        first = registry.get(state, provider)
        second = registry.get(state, provider)
        assert first is second
        assert registry.compile_count == 1
        assert registry.hit_count == 1

    def test_distinct_digests_compile_separately(self):
        one = _provider(_entries())
        two = _provider(_entries(("Ubuntu", "NetBSD")))
        registry = ArtifactRegistry()
        registry.get(one.current(), one)
        registry.get(two.current(), two)
        assert registry.compile_count == 2
        assert len(registry) == 2

    def test_lru_bound_evicts_oldest(self):
        providers = [
            _provider(_entries((os_name, "Debian")))
            for os_name in ("OpenBSD", "NetBSD", "Ubuntu")
        ]
        registry = ArtifactRegistry(max_datasets=2)
        for provider in providers:
            registry.get(provider.current(), provider)
        assert len(registry) == 2
        # The first provider's digest was evicted; using it again recompiles.
        registry.get(providers[0].current(), providers[0])
        assert registry.compile_count == 4

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError):
            ArtifactRegistry(max_datasets=0)


class TestCorpusArtifacts:
    def test_scope_digest_ignores_untouched_oses(self):
        base = _entries(("Debian", "OpenBSD"))
        artifacts = CorpusArtifacts(
            VulnerabilityDataset(base), DatasetState(digest="d1")
        )
        scoped = artifacts.scope_digest(("Debian", "OpenBSD"))
        # Adding a Windows-only entry must not move the Debian/OpenBSD scope.
        extended = base + [
            make_entry(cve_id="CVE-2005-9999", oses=("Windows2003",))
        ]
        extended_artifacts = CorpusArtifacts(
            VulnerabilityDataset(extended), DatasetState(digest="d2")
        )
        assert extended_artifacts.scope_digest(("Debian", "OpenBSD")) == scoped
        assert extended_artifacts.scope_digest(None) != artifacts.scope_digest(None)

    def test_scope_digest_moves_with_touched_scope(self):
        base = _entries(("Debian", "OpenBSD"))
        artifacts = CorpusArtifacts(
            VulnerabilityDataset(base), DatasetState(digest="d1")
        )
        extended = base + [make_entry(cve_id="CVE-2005-9999", oses=("Debian",))]
        extended_artifacts = CorpusArtifacts(
            VulnerabilityDataset(extended), DatasetState(digest="d2")
        )
        assert extended_artifacts.scope_digest(
            ("Debian", "OpenBSD")
        ) != artifacts.scope_digest(("Debian", "OpenBSD"))

    def test_scope_digest_memo_is_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(registry_module, "MAX_SCOPE_DIGESTS", 4)
        oses = ("Debian", "OpenBSD", "NetBSD", "Ubuntu", "Solaris")
        artifacts = CorpusArtifacts(
            VulnerabilityDataset(_entries(oses)), DatasetState(digest="d")
        )
        import itertools

        for pair in itertools.combinations(oses, 2):  # 10 distinct scopes
            artifacts.scope_digest(pair)
        assert len(artifacts._scoped) <= 4
        # Evicted scopes recompute to the same digest (memo is a cache).
        assert artifacts.scope_digest(("Debian", "OpenBSD")) == artifacts.scope_digest(
            ("Debian", "OpenBSD")
        )

    def test_pair_matrix_and_selector_are_memoized(self, dataset):
        artifacts = CorpusArtifacts(dataset, DatasetState(digest="x"))
        configuration = ServerConfiguration.ISOLATED_THIN
        assert artifacts.pair_matrix(configuration) is artifacts.pair_matrix(
            configuration
        )
        assert artifacts.selector(configuration) is artifacts.selector(
            configuration
        )


class TestScopeDigestPool:
    """What a scoped-digest miss hands the recipe, on the paper corpus."""

    CONFIGURATION = ServerConfiguration.ISOLATED_THIN

    @pytest.fixture()
    def pools(self, monkeypatch):
        """Every pool the registry passes to the recipe, in call order."""
        pools = []

        def recording(pool, os_names=None):
            pool = list(pool)
            pools.append(pool)
            return scope_digest(pool, os_names)

        monkeypatch.setattr(registry_module, "scope_digest", recording)
        return pools

    @pytest.mark.parametrize("engine", ENGINES)
    def test_a_catalogued_scope_hashes_only_its_entries(
        self, dataset, pools, engine
    ):
        artifacts = CorpusArtifacts(
            dataset.with_engine(engine), DatasetState(digest="paper")
        )
        view = artifacts.filtered_valid(self.CONFIGURATION)
        scope = ("Debian", "OpenBSD")
        digest = artifacts.scope_digest(scope, self.CONFIGURATION)
        selected = [
            entry for entry in view.entries if entry.affected_os & set(scope)
        ]
        assert 0 < len(selected) < len(view)
        assert pools == [selected]
        assert digest == scope_digest(view.entries, scope)

    @pytest.mark.parametrize("scope", [None, ("Debian", "Plan9")])
    def test_a_global_or_uncatalogued_scope_hashes_the_whole_view(
        self, dataset, pools, scope
    ):
        artifacts = CorpusArtifacts(dataset, DatasetState(digest="paper"))
        view = artifacts.filtered_valid(self.CONFIGURATION)
        digest = artifacts.scope_digest(scope, self.CONFIGURATION)
        assert pools == [list(view.entries)]
        assert digest == scope_digest(view.entries, scope)


class TestResponseCache:
    @staticmethod
    def _response(scope, body=b"{}\n"):
        return CachedResponse(body=body, scope=scope)

    def test_round_trip_and_hit_counters(self):
        cache = ResponseCache(max_entries=4)
        key = ResponseCache.key("s1", "/v1/shared", "os=Debian")
        assert cache.get(key) is None
        cache.put(key, self._response(frozenset({"Debian"})))
        assert cache.get(key).body == b"{}\n"
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_lru_eviction_drops_least_recent(self):
        cache = ResponseCache(max_entries=2)
        keys = [ResponseCache.key("s", f"/p{index}", "") for index in range(3)]
        for key in keys:
            cache.put(key, self._response(None))
        assert cache.get(keys[0]) is None
        assert cache.get(keys[2]) is not None
        assert cache.stats()["evictions"] == 1

    def test_invalidate_scope_evicts_touched_and_global(self):
        cache = ResponseCache(max_entries=8)
        debian = ResponseCache.key("s", "/debian", "")
        windows = ResponseCache.key("s", "/windows", "")
        catalogue = ResponseCache.key("s", "/matrix", "")
        cache.put(debian, self._response(frozenset({"Debian", "OpenBSD"})))
        cache.put(windows, self._response(frozenset({"Windows2003"})))
        cache.put(catalogue, self._response(None))
        evicted = cache.invalidate_scope({"Debian"})
        assert evicted == 2  # the Debian-scoped entry and the global one
        assert cache.get(windows) is not None
        assert cache.get(debian) is None
        assert cache.get(catalogue) is None

    def test_rejects_empty_capacity(self):
        with pytest.raises(ValueError):
            ResponseCache(max_entries=0)


class TestEtags:
    def test_etag_is_weak_and_stable(self):
        one = make_etag("scope", "/v1/shared", "os=Debian")
        two = make_etag("scope", "/v1/shared", "os=Debian")
        assert one == two
        assert one.startswith('W/"') and one.endswith('"')
        assert len(one) == len('W/""') + 32

    def test_etag_varies_with_every_component(self):
        base = make_etag("scope", "/path", "q=1")
        assert make_etag("other", "/path", "q=1") != base
        assert make_etag("scope", "/other", "q=1") != base
        assert make_etag("scope", "/path", "q=2") != base

    def test_canonical_query_is_key_order_independent(self):
        one = canonical_query({"os": ("Debian", "OpenBSD"), "k": ("3",)})
        two = canonical_query({"k": ("3",), "os": ("Debian", "OpenBSD")})
        assert one == two == "k=3&os=Debian&os=OpenBSD"

    def test_canonical_query_preserves_repeated_value_order(self):
        # os=A&os=B and os=B&os=A are *different* responses (os_names
        # echoes the request order), so they must not share a key/ETag.
        one = canonical_query({"os": ("Debian", "OpenBSD")})
        two = canonical_query({"os": ("OpenBSD", "Debian")})
        assert one != two
