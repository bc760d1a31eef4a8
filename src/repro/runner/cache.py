"""Content-addressed cache for sweep cell results.

A sweep cell is a pure function of (corpus, cell parameters, seed, engine):
the per-run random streams are derived from the seed alone, so re-running a
cell over the same corpus always reproduces the same
:class:`~repro.itsys.simulation.SimulationResult`.  That makes the result
safely cacheable under a content address:

    key = sha256(canonical-JSON of {schema, corpus digest, cell params,
                                    seed, engine})

Each cached cell is one pretty-printed JSON file ``<key>.json`` under the
cache directory, so caches can be inspected, diffed, and pruned with ordinary
file tools.  Floats survive the JSON round trip exactly (``json`` emits
``repr``-style shortest round-trip representations), so a cache hit is
bit-for-bit identical to the cold result -- property-tested by
``tests/runner/test_cache.py``.

The corpus digest covers every entry field the simulator reads (CVE id,
publication date, affected OSes, access vector, component class, validity)
*in corpus order*, because pool order determines which entry each
``rng.choice`` draw selects.

Since schema 2 the digest in a cell's key is **scoped** to the part of the
corpus the cell can actually read
(:meth:`repro.runner.runner.GridRunner.scope_digest`, built on
:func:`repro.snapshots.digests.scope_digest`): the configuration-filtered
pool, further restricted -- for targeted adversaries -- to entries affecting
at least one of the cell's OSes.  A corpus delta that never touches a cell's
OSes therefore leaves that cell's key (and its cached bytes) intact, so after
an incremental ingest a warm sweep re-runs *only* the cells named by the
snapshot diff (:meth:`repro.snapshots.diff.SnapshotDiff.touches_group`)
instead of the whole grid.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

from repro.core.enums import ServerConfiguration
from repro.core.models import VulnerabilityEntry
from repro.itsys.simulation import SimulationResult
from repro.obs.metrics import MetricsRegistry
from repro.runner.grid import GridCell

#: Bump when the cached payload layout or the digest recipe changes.
#: Schema 2: cell keys embed the *scoped* corpus digest (selective
#: invalidation after incremental ingests) instead of the full-corpus one.
#: Schema 3: the adaptive adversary now aims at the mask left after the
#: recoveries due before each event, which changes adaptive cells with
#: recovery; their schema-2 entries must not be served.
CACHE_SCHEMA = 3


def corpus_digest(entries: Iterable[VulnerabilityEntry]) -> str:
    """Deterministic digest of the simulation-relevant corpus content."""
    hasher = hashlib.sha256()
    for entry in entries:
        record = "|".join(
            (
                entry.cve_id,
                entry.published.isoformat(),
                ",".join(sorted(entry.affected_os)),
                entry.cvss.access_vector.value,
                entry.component_class.value if entry.component_class else "",
                entry.validity.value,
            )
        )
        hasher.update(record.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def cell_key(
    digest: str,
    cell: GridCell,
    seed: int,
    engine: str,
    configuration: str = ServerConfiguration.ISOLATED_THIN.value,
    catalogued: bool = True,
) -> str:
    """Content address of one sweep cell over one corpus.

    Every input that can change a cell's result participates in the key:
    the corpus digest (the runner passes the cell's *scoped* digest, see
    :meth:`repro.runner.runner.GridRunner.scope_digest`), the cell
    parameters, the seed, the engine, the server-configuration filter (it
    selects the attacker's exploitable pool) and the ``catalogued`` switch
    (it changes OS-name normalisation in the replica group).  Scenario
    cells contribute their normalised scenario parameters through
    ``cell.params()``; classic cells omit the key entirely, so pre-scenario
    cache entries keep their keys.
    """
    canonical = json.dumps(
        {
            "schema": CACHE_SCHEMA,
            "corpus": digest,
            "cell": cell.params(),
            "seed": seed,
            "engine": engine,
            "configuration": configuration,
            "catalogued": catalogued,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def result_to_json(result: SimulationResult) -> Dict[str, object]:
    """JSON-serialisable mapping that round-trips a result exactly."""
    return {
        "name": result.name,
        "os_names": list(result.os_names),
        "runs": result.runs,
        "safety_violation_probability": result.safety_violation_probability,
        "mean_compromised": result.mean_compromised,
        "mean_time_to_violation": result.mean_time_to_violation,
        "liveness_loss_probability": result.liveness_loss_probability,
        "safety_violation_ci": list(result.safety_violation_ci),
        "liveness_loss_ci": list(result.liveness_loss_ci),
    }


def result_from_json(payload: Dict[str, object]) -> SimulationResult:
    """Inverse of :func:`result_to_json`."""
    return SimulationResult(
        name=str(payload["name"]),
        os_names=tuple(payload["os_names"]),  # type: ignore[arg-type]
        runs=int(payload["runs"]),  # type: ignore[call-overload]
        safety_violation_probability=payload["safety_violation_probability"],  # type: ignore[arg-type]
        mean_compromised=payload["mean_compromised"],  # type: ignore[arg-type]
        mean_time_to_violation=payload["mean_time_to_violation"],  # type: ignore[arg-type]
        liveness_loss_probability=payload["liveness_loss_probability"],  # type: ignore[arg-type]
        safety_violation_ci=tuple(payload["safety_violation_ci"]),  # type: ignore[arg-type]
        liveness_loss_ci=tuple(payload["liveness_loss_ci"]),  # type: ignore[arg-type]
    )


class ResultCache:
    """File-backed content-addressed cache of sweep cell results.

    The cache never invalidates by time: keys embed the corpus digest and
    every campaign parameter, so a stale hit is impossible -- a changed
    corpus or parameter simply addresses a different file.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._dir = Path(cache_dir)
        # Tallies live in the (possibly shared) metrics registry so that
        # ``repro sweep --stats`` and the serving stack report warm/cold
        # behaviour from one source; the int properties below preserve the
        # original counter attribute API.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._events = self._metrics.counter(
            "sweep_cache_events_total",
            "Sweep result-cache lookups and writes.",
            labels=("event",),
        )

    @property
    def hits(self) -> int:
        return int(self._events.value(event="hit"))

    @property
    def misses(self) -> int:
        return int(self._events.value(event="miss"))

    @property
    def writes(self) -> int:
        return int(self._events.value(event="write"))

    @property
    def cache_dir(self) -> Path:
        return self._dir

    def _path(self, key: str) -> Path:
        return self._dir / f"{key}.json"

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result under ``key``, or ``None`` on a miss.

        Unreadable or schema-mismatched files count as misses (and will be
        overwritten on the next :meth:`put`), so cache corruption degrades to
        recomputation rather than failure.
        """
        path = self._path(key)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self._events.inc(event="miss")
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("schema") != CACHE_SCHEMA
            or "result" not in payload
        ):
            self._events.inc(event="miss")
            return None
        try:
            result = result_from_json(payload["result"])
        except (KeyError, TypeError, ValueError):
            # Structurally-broken result payloads (hand edits, foreign
            # writers) degrade to recomputation like any other corruption.
            self._events.inc(event="miss")
            return None
        self._events.inc(event="hit")
        return result

    def put(self, key: str, cell: GridCell, result: SimulationResult) -> Path:
        """Store ``result`` under ``key``; returns the written path.

        The write goes through a same-directory temporary file and an atomic
        rename, so concurrent sweeps sharing a cache directory never observe
        half-written JSON.  The directory is made by the first write that
        finds it missing -- the first ever, or one after a prune -- not
        before every write.
        """
        path = self._path(key)
        payload = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "cell": cell.params(),
            "cell_id": cell.cell_id,
            "result": result_to_json(result),
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        try:
            tmp.write_text(text, encoding="utf-8")
        except FileNotFoundError:
            self._dir.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text, encoding="utf-8")
        tmp.replace(path)
        self._events.inc(event="write")
        return path
