"""Production-churn soak gate: a 2-worker cluster under mixed load + deltas.

The end-to-end "production under churn" proof for the multi-worker
serving layer, held on a live cluster (real sockets, real processes, one shared
snapshot ledger):

* **zero stale ETag reads** -- once a delta-ingest call returns, no reader
  revalidates against a retired ETag of a touched scope on *any* worker;
* **monotone snapshot visibility** -- no reader ever sees the dataset's
  ``snapshot_id`` go backwards within its request stream;
* **bounded latency** -- p99 across >= 200 mixed requests stays under
  :data:`P99_CEILING` while the deltas are landing.

The reusable harness lives in ``tests/service/soak.py`` (the same one the
fault-injection tests drive); this module is the acceptance gate over it.

Run the smoke subset (what CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_soak.py -q -s -k smoke

The same test constitutes the full gate; the suffix only mirrors the other
benchmarks' CI convention.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from repro.db.database import VulnerabilityDatabase  # noqa: E402
from repro.db.ingest import IngestPipeline  # noqa: E402
from repro.service import ServiceCluster, ServiceConfig  # noqa: E402
from repro.snapshots.store import SnapshotStore  # noqa: E402

from tests.service.soak import run_soak  # noqa: E402

#: Acceptance gate: p99 latency (seconds) across the mixed load while
#: deltas are landing.  Deliberately generous -- the gate is "bounded under
#: churn", not a micro-benchmark -- but tight enough to catch a worker
#: stalling behind an ingest.
P99_CEILING = 5.0

#: Acceptance gate: the soak must observe at least this many requests.
MIN_REQUESTS = 200

WORKERS = 2
DELTAS = 2


@pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"the soak gate needs >= {WORKERS} cores to mean anything",
)
def test_soak_smoke_production_churn(corpus, tmp_path_factory):
    """p99 bounded, 0 stale reads, monotone snapshots under live churn."""
    root = tmp_path_factory.mktemp("soak-bench")
    db_path = root / "soak.db"
    database = VulnerabilityDatabase(db_path)
    IngestPipeline(database=database).ingest_raw(corpus.to_raw_feed_entries())
    base = SnapshotStore(database).commit(source="soak seed")
    database.close()

    config = ServiceConfig(
        port=0, workers=WORKERS, db=str(db_path), drain_grace=10.0
    )
    cluster = ServiceCluster(config)
    cluster.start()
    try:
        report = run_soak(
            cluster.internal_urls,
            corpus,
            root,
            deltas=DELTAS,
            readers_per_url=2,
            min_requests=MIN_REQUESTS,
        )
    finally:
        cluster.stop()

    assert len(report.observations) >= MIN_REQUESTS, (
        f"soak observed only {len(report.observations)} requests "
        f"(floor {MIN_REQUESTS})"
    )
    assert not report.errors, (
        f"{len(report.errors)} connection errors on a healthy cluster: "
        f"{report.errors[:3]}"
    )
    unexpected = {
        status for status in report.statuses if status not in (200, 304)
    }
    assert not unexpected, f"unexpected statuses under churn: {report.statuses}"
    assert len(report.marks) == DELTAS
    for mark in report.marks:
        assert mark.report["modified"] > 0, (
            f"delta {mark.index} was a no-op: {mark.report}"
        )

    stale = report.stale_reads()
    assert not stale, (
        f"{len(stale)} stale ETag reads after ingest returned: {stale[:3]}"
    )
    regressions = report.snapshot_regressions()
    assert not regressions, (
        f"snapshot visibility went backwards: {regressions[:3]}"
    )
    # Every delta commits one snapshot on top of the seed, and the readers
    # must actually see the final head (fresh data, not just no staleness).
    head_id = base.snapshot_id + DELTAS
    seen_ids = {
        obs.snapshot_id
        for obs in report.observations
        if obs.snapshot_id is not None
    }
    assert head_id in seen_ids, (
        f"no reader ever saw the post-churn head snapshot {head_id}; "
        f"observed ids: {sorted(seen_ids)}"
    )

    p99 = report.latency_percentile(0.99)
    p50 = report.latency_percentile(0.50)
    print(f"\n=== soak: {WORKERS}-worker cluster, {DELTAS} deltas, "
          f"{len(report.observations)} mixed requests in {report.elapsed:.1f}s ===")
    print(f"  statuses : {report.statuses}")
    print(f"  latency  : p50 {p50 * 1e3:7.2f}ms  p99 {p99 * 1e3:7.2f}ms "
          f"(ceiling {P99_CEILING * 1e3:.0f}ms)")
    print(f"  stale    : 0 / regressions: 0 / head snapshot {head_id} visible")
    assert p99 <= P99_CEILING, (
        f"p99 latency {p99:.2f}s exceeds the {P99_CEILING}s ceiling under churn"
    )
