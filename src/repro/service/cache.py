"""LRU response cache keyed by scoped content digests, with ETags.

Every cacheable response is addressed by the **scoped corpus digest** of
the query (the digest of the sub-corpus the query can observe, see
:meth:`repro.service.registry.CorpusArtifacts.scope_digest`) plus the
request path and its canonicalised query string.  Two consequences:

* a snapshot delta that does not touch a query's OSes leaves its key --
  and therefore its cached bytes and its ``ETag`` -- intact, so
  ``If-None-Match`` revalidation keeps answering ``304`` across unrelated
  deltas without the server recomputing anything;
* a delta that *does* touch the scope changes the key, so the stale entry
  can never be served again (it ages out of the LRU).  The worker that
  ingests the delta also evicts such entries at once through
  :meth:`ResponseCache.invalidate_scope`; every other worker only sees
  the new keys and leaves its dead entries to LRU pressure.

ETags are **weak** (``W/"<hex>"``): the hex prefix of a sha256 over the same
key material that addresses the cache entry.  They cannot be strong, because
a strong ETag promises one byte sequence and the key material leaves out the
payload's ``dataset`` block: after a delta that misses a scope, the scope's
digest -- and so its ETag -- stays, while a freshly rendered body names the
new snapshot.  The two bodies are semantically equivalent (same answer, same
scope content), which is exactly what a weak validator asserts.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.obs.metrics import MetricsRegistry


def make_etag(scope_digest: str, path: str, query: str) -> str:
    """A weak ETag for one query over one scoped dataset state."""
    material = "\n".join((scope_digest, path, query))
    return 'W/"' + hashlib.sha256(material.encode("utf-8")).hexdigest()[:32] + '"'


def canonical_query(params: Dict[str, Tuple[str, ...]]) -> str:
    """Query parameters with keys sorted, repeated values in given order.

    Key order never changes a response (``?k=3&top=5`` ≡ ``?top=5&k=3``),
    so sorting keys lets such requests share one cache entry and ETag.
    The *values* of a repeated parameter are left in request order: for
    ``os=A&os=B`` the order is part of the response identity
    (``os_names`` echoes it), so reordered values must address a
    different entry.
    """
    return "&".join(
        f"{key}={value}"
        for key in sorted(params)
        for value in params[key]
    )


@dataclass(frozen=True)
class CachedResponse:
    """One cached response body plus the scope invalidation keys off.

    The ETag is *not* stored: the serving path recomputes it from the same
    key material before consulting the cache, so a stored copy would be
    redundant state to keep in sync.
    """

    body: bytes
    #: OS names the response depends on; ``None`` = the whole catalogue.
    scope: Optional[FrozenSet[str]]


class ResponseCache:
    """Bounded LRU of rendered responses, safe under concurrent requests."""

    def __init__(
        self,
        max_entries: int = 256,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("the response cache needs at least one entry")
        self._max = max_entries
        self._entries: "OrderedDict[Tuple[str, str, str], CachedResponse]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        # Tallies live in the (possibly shared) metrics registry so that
        # /healthz and /metrics can never disagree; the int properties
        # below preserve the original counter attribute API.
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._events = self._metrics.counter(
            "response_cache_events_total",
            "Response cache lookups, evictions and scope invalidations.",
            labels=("event",),
        )

    @property
    def hits(self) -> int:
        return int(self._events.value(event="hit"))

    @property
    def misses(self) -> int:
        return int(self._events.value(event="miss"))

    @property
    def evictions(self) -> int:
        return int(self._events.value(event="eviction"))

    @property
    def invalidations(self) -> int:
        return int(self._events.value(event="invalidation"))

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def key(scope_digest: str, path: str, query: str) -> Tuple[str, str, str]:
        return (scope_digest, path, query)

    def get(self, key: Tuple[str, str, str]) -> Optional[CachedResponse]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._events.inc(event="miss")
                return None
            self._entries.move_to_end(key)
            self._events.inc(event="hit")
            return entry

    def put(self, key: Tuple[str, str, str], response: CachedResponse) -> None:
        with self._lock:
            self._entries[key] = response
            self._entries.move_to_end(key)
            while len(self._entries) > self._max:
                self._entries.popitem(last=False)
                self._events.inc(event="eviction")

    def invalidate_scope(self, affected_os: Iterable[str]) -> int:
        """Evict entries whose scope a delta's blast radius can touch.

        ``affected_os`` is a snapshot diff's
        :meth:`~repro.snapshots.diff.SnapshotDiff.affected_os_names`.
        Catalogue-wide entries (``scope=None``) are always evicted -- any
        in-catalogue change can move a global matrix.  Returns the number
        of entries evicted.
        """
        affected = set(affected_os)
        with self._lock:
            stale = [
                key
                for key, entry in self._entries.items()
                if entry.scope is None or entry.scope & affected
            ]
            for key in stale:
                del self._entries[key]
            if stale:
                self._events.inc(len(stale), event="invalidation")
            return len(stale)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self._max,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
            }
