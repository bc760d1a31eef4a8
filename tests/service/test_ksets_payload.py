"""The k-set matrix payload: one totals pass per miss, exact best/worst.

``/v1/matrix/ksets`` builds its payload from a single
:meth:`~repro.analysis.ksets.KSetAnalysis.per_combination_totals` call and
picks ``best``/``worst`` by a bounded selection over it; the property below
pins that selection to the full sort it replaces.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis.dataset import ENGINES
from repro.analysis.ksets import KSetAnalysis
from repro.service import schemas
from repro.service.registry import CorpusArtifacts, StaticDatasetProvider
from repro.service.server import HttpRequest

from tests.service.conftest import make_app
from tests.test_properties import entries_strategy


def test_one_ksets_miss_computes_the_totals_once(corpus, monkeypatch):
    calls = []
    totals = KSetAnalysis.per_combination_totals

    def counting(self, k):
        calls.append(k)
        return totals(self, k)

    monkeypatch.setattr(KSetAnalysis, "per_combination_totals", counting)
    app = make_app(corpus)
    try:
        request = HttpRequest(
            method="GET", path="/v1/matrix/ksets",
            query={"k": ("3",), "top": ("4",)}, headers={},
        )
        miss = app.dispatch(request)
        assert miss.status == 200 and miss.headers["X-Cache"] == "miss"
        assert calls == [3]
        hit = app.dispatch(request)
        assert hit.headers["X-Cache"] == "hit" and calls == [3]
    finally:
        app.shutdown()


@given(
    entries=entries_strategy,
    engine=st.sampled_from(ENGINES),
    configuration=st.sampled_from(sorted(schemas.CONFIGURATIONS)),
    k=st.integers(min_value=2, max_value=4),
    # C(11, k) is 55, 165 or 330: tops past it ask for every combination.
    top=st.integers(min_value=1, max_value=400),
)
@settings(max_examples=60, deadline=None)
def test_best_and_worst_equal_the_full_sort(entries, engine, configuration, k, top):
    """Ties included: at most 60 entries give C(11, k) > 61 combinations
    for k >= 3, so counts repeat, and zero-count combinations abound."""
    provider = StaticDatasetProvider(entries, engine=engine, label="generated")
    state = provider.current()
    artifacts = CorpusArtifacts(provider.load(state), state)
    view = schemas.CONFIGURATIONS[configuration]
    totals = artifacts.ksets(view).per_combination_totals(k)
    payload = schemas.ksets_payload(artifacts, view, k, top, "scope")

    def rows(ranked):
        return [{"os_names": list(combo), "shared": count} for combo, count in ranked]

    items = totals.items()
    assert payload["best"] == rows(sorted(items, key=lambda i: (i[1], i[0]))[:top])
    assert payload["worst"] == rows(sorted(items, key=lambda i: (-i[1], i[0]))[:top])
    assert payload["combinations"] == len(totals)
