"""Content-addressed cache for sweep cell results.

A sweep cell is a pure function of (corpus, cell parameters, seed, engine):
the per-run random streams are derived from the seed alone, so re-running a
cell over the same corpus always reproduces the same
:class:`~repro.itsys.simulation.SimulationResult`.  That makes the result
safely cacheable under a content address:

    key = sha256(canonical-JSON of {schema, corpus digest, cell params,
                                    seed, engine})

Each cached cell is one ``(key, text)`` row of the ``cells`` table in one
SQLite file, ``cells.sqlite3``, inside the cache directory; ``text`` is the
cell's pretty-printed JSON record, so a cell can be read back with the
``sqlite3`` shell, and deleting the directory prunes the cache.  A sweep
looks up all of its keys in one query and writes every newly simulated cell
in one transaction.  Floats survive the JSON round trip exactly (``json``
emits ``repr``-style shortest round-trip representations), so a cache hit
is bit-for-bit identical to the cold result -- property-tested by
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
import sqlite3
from contextlib import closing
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple, Union

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

#: The SQLite file, inside the cache directory, that holds every cell.
CACHE_FILE = "cells.sqlite3"

#: Keys bound per lookup statement: below the 999-parameter cap of SQLite
#: builds before 3.32.
_KEYS_PER_QUERY = 500

#: Seconds a call waits for another connection's lock before it gives up.
_LOCK_TIMEOUT = 5.0


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


def _encode(key: str, cell: GridCell, result: SimulationResult) -> str:
    """A cell's row text: its pretty-printed JSON record."""
    payload = {
        "schema": CACHE_SCHEMA,
        "key": key,
        "cell": cell.params(),
        "cell_id": cell.cell_id,
        "result": result_to_json(result),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _decode(text: object) -> Optional[SimulationResult]:
    """The result a row's text records, or ``None`` when it records none."""
    try:
        payload = json.loads(text)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None
    if (
        not isinstance(payload, dict)
        or payload.get("schema") != CACHE_SCHEMA
        or "result" not in payload
    ):
        return None
    try:
        return result_from_json(payload["result"])
    except (KeyError, TypeError, ValueError):
        # Structurally-broken result payloads (hand edits, foreign
        # writers) degrade to recomputation like any other corruption.
        return None


class ResultCache:
    """Content-addressed cache of sweep cell results in one SQLite file.

    The cache never invalidates by time: keys embed the corpus digest and
    every campaign parameter, so a stale hit is impossible -- a changed
    corpus or parameter simply addresses a different row.  Each call opens
    its own connection and closes it before returning, so no connection
    outlives a lookup or a write, and sweeps sharing a directory serialise
    their writes on SQLite's lock.
    """

    def __init__(
        self,
        cache_dir: Union[str, Path],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._dir = Path(cache_dir)
        self._file = self._dir / CACHE_FILE
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

    def get(self, key: str) -> Optional[SimulationResult]:
        """The cached result under ``key``, or ``None`` on a miss."""
        return self.get_many((key,)).get(key)

    def put(self, key: str, cell: GridCell, result: SimulationResult) -> None:
        """Store ``result`` under ``key``."""
        self.put_many(((key, cell, result),))

    def get_many(self, keys: Iterable[str]) -> Dict[str, SimulationResult]:
        """The cached result under each of ``keys`` that has one.

        One query reads every key.  A missing file, a file that is not a
        database, a lock held past the timeout and a row whose text is
        broken or of another schema all read as misses, so cache corruption
        degrades to recomputation rather than failure.  Hits and misses are
        counted per key asked for.
        """
        keys = list(keys)
        texts = self._read(sorted(set(keys)))
        found: Dict[str, SimulationResult] = {}
        for key in keys:
            result = _decode(texts[key]) if key in texts else None
            if result is None:
                self._events.inc(event="miss")
            else:
                found[key] = result
                self._events.inc(event="hit")
        return found

    def put_many(
        self, cells: Iterable[Tuple[str, GridCell, SimulationResult]]
    ) -> None:
        """Store each ``(key, cell, result)``, all in one transaction.

        A row's text is the cell's JSON record, byte for byte what schema 3
        has always written.  The directory is made when a write finds it
        missing -- the first ever, or one after a prune.  A file that is
        not a database is replaced by a new one; any other error, such as
        a lock held past the timeout, propagates and leaves the file as it
        was.
        """
        rows = [(key, _encode(key, cell, result)) for key, cell, result in cells]
        if not rows:
            return
        self._dir.mkdir(parents=True, exist_ok=True)
        try:
            self._write(rows)
        except sqlite3.DatabaseError as error:
            # Only a file that is not a database, or a damaged one, raises
            # the base class; a lock timeout is an OperationalError and must
            # not cost the file its cells.
            if type(error) is not sqlite3.DatabaseError:
                raise
            self._file.unlink(missing_ok=True)
            self._write(rows)
        self._events.inc(len(rows), event="write")

    def _read(self, keys: List[str]) -> Dict[str, str]:
        """The row text of each of ``keys`` stored; none if the file fails."""
        if not keys:
            return {}
        texts: Dict[str, str] = {}
        try:
            # Read-only, so a lookup never creates the file.
            with closing(sqlite3.connect(
                self._file.absolute().as_uri() + "?mode=ro",
                uri=True,
                timeout=_LOCK_TIMEOUT,
            )) as connection:
                for start in range(0, len(keys), _KEYS_PER_QUERY):
                    chunk = keys[start:start + _KEYS_PER_QUERY]
                    texts.update(connection.execute(
                        "SELECT key, text FROM cells WHERE key IN "
                        f"({', '.join('?' * len(chunk))})",
                        chunk,
                    ))
        except sqlite3.Error:
            return {}
        return texts

    def _write(self, rows: List[Tuple[str, str]]) -> None:
        # No fsync: the cache is a memo, and a row lost to a crash is a
        # miss.  Closing without COMMIT rolls the transaction back.
        with closing(sqlite3.connect(
            self._file, timeout=_LOCK_TIMEOUT, isolation_level=None
        )) as connection:
            connection.execute("PRAGMA synchronous=OFF")
            connection.execute("BEGIN IMMEDIATE")
            connection.execute(
                "CREATE TABLE IF NOT EXISTS cells "
                "(key TEXT PRIMARY KEY, text TEXT NOT NULL)"
            )
            connection.executemany(
                "INSERT OR REPLACE INTO cells (key, text) VALUES (?, ?)", rows
            )
            connection.execute("COMMIT")
