"""Content addressing of normalized vulnerability entries and dataset states.

Every snapshot-related digest in the system is derived here, from exactly two
primitives:

* :func:`entry_digest` -- sha256 over the *canonical JSON payload* of one
  normalized :class:`~repro.core.models.VulnerabilityEntry`.  The payload
  (:func:`entry_payload`) covers every study-relevant field (identifier,
  publication date, summary, CVSS base vector, affected OSes and versions,
  component class, validity) in a key-sorted, separator-normalised encoding,
  so two entries digest equal iff the study cannot tell them apart.  The
  digest is memoised on the (frozen) entry object, so every digest built
  from one entry -- dataset, scope, ledger row -- hashes it once.
* :func:`dataset_digest` -- sha256 over the sorted ``cve_id:entry_digest``
  lines of a dataset state.  It is order-insensitive by construction (states
  are sets of entries, not sequences), so the same corpus content always
  produces the same dataset digest no matter how it was assembled -- full
  ingest, delta chain, or time-travel reconstruction.

:func:`scope_digest` derives the *scoped* content addresses from entry
digests: the digest of the part of a pool one OS group can observe.  Sweep
cache keys (:meth:`repro.runner.runner.GridRunner.scope_digest`) and
response ETags (:meth:`repro.service.registry.CorpusArtifacts.scope_digest`)
both use it, each over the configuration-filtered pool it already holds;
the service first narrows that pool to the group's entries through the
pool's incidence index, which leaves the digest unchanged.

The payload also round-trips: :func:`entry_from_payload` rebuilds the entry
(sans raw CPE names, which are feed provenance rather than normalized
content), which is what :meth:`repro.snapshots.store.SnapshotStore.dataset_at`
uses to materialise historical dataset states.

This module deliberately imports nothing outside :mod:`repro.core`, so both
the database layer and the snapshot store can depend on it without cycles.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.core.enums import AccessVector, ComponentClass, ValidityStatus
from repro.core.models import CVSSVector, VulnerabilityEntry

#: Bump when the payload layout changes; participates in every entry digest
#: so old and new digests can never be confused for one another.
PAYLOAD_SCHEMA = 1

#: Instance attribute memoising :func:`entry_digest` on an entry object.
#: Entries are frozen, so the memo can never go stale; it is not a field, so
#: equality, ``repr``, ``asdict`` and pickles do not see it.
_DIGEST_MEMO = "_entry_digest"


def entry_payload(entry: VulnerabilityEntry) -> Dict[str, object]:
    """Canonical JSON-serialisable payload of one normalized entry."""
    return {
        "schema": PAYLOAD_SCHEMA,
        "cve_id": entry.cve_id,
        "published": entry.published.isoformat(),
        "summary": entry.summary,
        "cvss": {
            "access_vector": entry.cvss.access_vector.value,
            "access_complexity": entry.cvss.access_complexity,
            "authentication": entry.cvss.authentication,
            "confidentiality_impact": entry.cvss.confidentiality_impact,
            "integrity_impact": entry.cvss.integrity_impact,
            "availability_impact": entry.cvss.availability_impact,
            "base_score": entry.cvss.base_score,
        },
        "affected_os": sorted(entry.affected_os),
        "affected_versions": {
            name: list(entry.affected_versions.get(name, ()))
            for name in sorted(entry.affected_versions)
        },
        "component_class": (
            entry.component_class.value if entry.component_class else None
        ),
        "validity": entry.validity.value,
    }


def canonical_json(payload: Mapping[str, object]) -> str:
    """The canonical (key-sorted, minimal-separator) JSON encoding."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def entry_digest(entry: VulnerabilityEntry) -> str:
    """sha256 hex digest of the entry's canonical payload.

    Computed once per entry object and memoised on it; copies made with
    ``dataclasses.replace`` (``with_validity``, ``with_class``) are new
    objects and hash afresh.
    """
    digest = entry.__dict__.get(_DIGEST_MEMO)
    if digest is None:
        digest = hashlib.sha256(
            canonical_json(entry_payload(entry)).encode("utf-8")
        ).hexdigest()
        object.__setattr__(entry, _DIGEST_MEMO, digest)
    return digest


def scope_digest(
    pool: Iterable[VulnerabilityEntry],
    os_names: Optional[Iterable[str]] = None,
) -> str:
    """Digest of the part of ``pool`` an OS group can observe.

    Hashes ``entry_digest + "\\n"`` for each entry of ``pool``, in pool
    order, that affects at least one of ``os_names`` (every entry when
    ``os_names`` is ``None``).  Callers pass the configuration-filtered pool
    they already hold, so a delta that touches none of the group's OSes
    leaves the digest -- and the cache keys and ETags derived from it --
    unchanged, while any change inside the scope moves it.  Any sub-pool
    that keeps every entry the group can observe, in pool order, digests
    the same.
    """
    targets = frozenset(os_names) if os_names is not None else None
    hasher = hashlib.sha256()
    for entry in pool:
        if targets is None or entry.affected_os & targets:
            hasher.update(entry_digest(entry).encode("ascii"))
            hasher.update(b"\n")
    return hasher.hexdigest()


def entry_to_json(entry: VulnerabilityEntry) -> str:
    """Canonical JSON text of the entry (stored by the snapshot ledger)."""
    return canonical_json(entry_payload(entry))


def entry_from_payload(payload: Mapping[str, object]) -> VulnerabilityEntry:
    """Rebuild a normalized entry from its canonical payload.

    Raw CPE names are not part of the normalized content (they are feed
    provenance), so reconstructed entries carry an empty ``raw_cpes`` --
    matching what :meth:`repro.db.database.VulnerabilityDatabase.load_entries`
    returns for the same entry.
    """
    cvss = payload["cvss"]  # type: ignore[index]
    versions: Dict[str, Tuple[str, ...]] = {
        name: tuple(values)
        for name, values in payload["affected_versions"].items()  # type: ignore[union-attr]
    }
    return VulnerabilityEntry(
        cve_id=str(payload["cve_id"]),
        published=_dt.date.fromisoformat(str(payload["published"])),
        summary=str(payload["summary"]),
        cvss=CVSSVector(
            access_vector=AccessVector(cvss["access_vector"]),  # type: ignore[index]
            access_complexity=cvss["access_complexity"],  # type: ignore[index]
            authentication=cvss["authentication"],  # type: ignore[index]
            confidentiality_impact=cvss["confidentiality_impact"],  # type: ignore[index]
            integrity_impact=cvss["integrity_impact"],  # type: ignore[index]
            availability_impact=cvss["availability_impact"],  # type: ignore[index]
            base_score=cvss["base_score"],  # type: ignore[index]
        ),
        affected_os=frozenset(payload["affected_os"]),  # type: ignore[arg-type]
        affected_versions=versions,
        component_class=(
            ComponentClass(payload["component_class"])
            if payload["component_class"]
            else None
        ),
        validity=ValidityStatus(payload["validity"]),
    )


def entry_from_json(text: str) -> VulnerabilityEntry:
    """Inverse of :func:`entry_to_json`."""
    return entry_from_payload(json.loads(text))


def dataset_digest(state: Mapping[str, str]) -> str:
    """sha256 over the sorted ``cve_id:entry_digest`` lines of a state.

    ``state`` maps CVE identifiers to their entry digests.  Sorting makes the
    digest a pure function of the *set* of (id, content) pairs, so it is the
    content address of a dataset state: two states digest equal iff they hold
    the same entries with the same normalized content.
    """
    hasher = hashlib.sha256()
    for cve_id in sorted(state):
        hasher.update(f"{cve_id}:{state[cve_id]}\n".encode("utf-8"))
    return hasher.hexdigest()


def dataset_digest_of(entries: Iterable[VulnerabilityEntry]) -> str:
    """The dataset digest of an entry collection (convenience wrapper)."""
    return dataset_digest({entry.cve_id: entry_digest(entry) for entry in entries})
