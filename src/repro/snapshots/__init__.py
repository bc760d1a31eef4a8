"""Incremental ingestion and content-addressed dataset snapshots.

This subpackage turns the batch reproduction into an incrementally
updatable system:

* :mod:`repro.snapshots.digests` -- content addressing: canonical payloads
  and sha256 digests of normalized entries and whole dataset states;
* :mod:`repro.snapshots.store` -- the snapshot ledger
  (:class:`SnapshotStore`): commit, list, time travel (``dataset_at``) and
  snapshot diffing over a :class:`~repro.db.database.VulnerabilityDatabase`;
* :mod:`repro.snapshots.delta` -- :class:`DeltaIngestPipeline`, which
  applies NVD *modified*-feed deltas (upserts plus ``** REJECT **``
  tombstones) idempotently;
* :mod:`repro.snapshots.diff` -- :class:`SnapshotDiff` with the derived
  blast radius (affected OSes / pairs / k-sets) behind selective sweep-cache
  invalidation.

Surfaced on the command line as ``repro ingest`` and ``repro snapshot``
(see ``docs/cli.md``), documented end to end in ``docs/data-model.md`` and
benchmarked by ``benchmarks/bench_snapshots.py``.

Exports resolve lazily (PEP 562) because :mod:`repro.db` imports
:mod:`repro.snapshots.digests` while :mod:`repro.snapshots.store` imports
:mod:`repro.db` -- laziness keeps that pair acyclic at import time.
"""

from __future__ import annotations

import importlib
from typing import List

_EXPORTS = {
    "PAYLOAD_SCHEMA": "repro.snapshots.digests",
    "canonical_json": "repro.snapshots.digests",
    "dataset_digest": "repro.snapshots.digests",
    "dataset_digest_of": "repro.snapshots.digests",
    "entry_digest": "repro.snapshots.digests",
    "entry_from_json": "repro.snapshots.digests",
    "entry_from_payload": "repro.snapshots.digests",
    "entry_payload": "repro.snapshots.digests",
    "entry_to_json": "repro.snapshots.digests",
    "scope_digest": "repro.snapshots.digests",
    "SnapshotDiff": "repro.snapshots.diff",
    "SnapshotRecord": "repro.snapshots.store",
    "SnapshotStore": "repro.snapshots.store",
    "DeltaIngestPipeline": "repro.snapshots.delta",
    "DeltaReport": "repro.snapshots.delta",
    "closure_lifetimes": "repro.snapshots.history",
    "entry_to_raw": "repro.snapshots.export",
    "write_snapshot_feeds": "repro.snapshots.export",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        module = importlib.import_module(_EXPORTS[name])
        value = getattr(module, name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
