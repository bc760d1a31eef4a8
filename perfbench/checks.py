"""Correctness rules applied to every recorded response of a serving run.

Each rule names the records it fails; a record failed by several rules counts
once against the operations attempted.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from perfbench.loadgen import Record


def snapshot_id(body: bytes) -> Optional[int]:
    """The snapshot id in a payload's dataset block, if it has one."""
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    dataset = payload.get("dataset") if isinstance(payload, dict) else None
    if isinstance(dataset, dict):
        return dataset.get("snapshot_id")
    return None


def status_failures(reads: Iterable[Record], writes: Iterable[Record],
                    read_ok=(200, 304)) -> Set[int]:
    """Reads must answer ``read_ok``; ingests must answer 200."""
    failed = {id(record) for record in reads if record.status not in read_ok}
    failed |= {id(record) for record in writes if record.status != 200}
    return failed


def etag_body_failures(reads: Iterable[Record]) -> Set[int]:
    """A strong ETag names one body: a second body under it is wrong.

    Applied where the dataset never changes (api-scan).  Under deltas the
    program re-renders an evicted entry whose scoped digest -- and so its
    ETag -- did not move, with the new snapshot's dataset block; api-churn
    counts those as an observation, not a failure.
    """
    bodies: Dict[str, str] = {}
    failed: Set[int] = set()
    for record in sorted(reads, key=lambda r: r.sent):
        if record.status != 200 or not record.etag:
            continue
        digest = hashlib.sha256(record.body).hexdigest()
        if bodies.setdefault(record.etag, digest) != digest:
            failed.add(id(record))
    return failed


def _newest(snapshots: Iterable[Optional[int]]) -> Optional[int]:
    return max((snapshot for snapshot in snapshots if snapshot is not None), default=None)


def stale_etag_failures(reads: Sequence[Record], writes: Sequence[Record]) -> Set[int]:
    """No 304 (or 200) for an ETag that a returned ingest retired.

    Between two ingests -- after one returned and before the next was sent --
    the dataset cannot change, so every 200 for a URL carries its one current
    ETag.  An ETag current before an ingest and replaced after it is retired
    from the moment that ingest returned: revalidating against it (304) or
    being served it (200) afterwards is a stale read.  Within a quiet
    interval a 304 must also present the ETag that interval's 200s carry.
    Reads sent while an ingest was in flight may see either state and are
    left to the other rules.

    A scope's content can return to an earlier state (a later delta
    republishes an entry in the form an earlier one replaced), and its
    content-derived ETag with it.  A retired ETag served again with a body
    whose snapshot is at least the one that retired it is current again; the
    same ETag with an older snapshot is a stale read.
    """
    ingests = sorted(writes, key=lambda r: r.sent)
    bounds = [(float("-inf"), ingests[0].sent if ingests else float("inf"))]
    for index, ingest in enumerate(ingests):
        following = ingests[index + 1].sent if index + 1 < len(ingests) else float("inf")
        bounds.append((ingest.done, following))
    intervals: List[List[Record]] = [[] for _ in bounds]
    for record in reads:
        for index, (start, end) in enumerate(bounds):
            if record.sent >= start and record.done <= end:
                intervals[index].append(record)
                break
    failed: Set[int] = set()
    seen: Dict[int, Set[str]] = {}
    # key -> retired ETag -> (retired from, snapshot of the state that retired it)
    retired: Dict[int, Dict[str, Tuple[float, Optional[int]]]] = {}
    for (start, _end), members in zip(bounds, intervals):
        current: Dict[int, Dict[str, Optional[int]]] = {}
        for record in members:
            if record.status == 200 and record.etag:
                snapshots = current.setdefault(record.op.key, {})
                snapshots[record.etag] = _newest(
                    (snapshots.get(record.etag), snapshot_id(record.body)))
        for key, snapshots in current.items():
            gone = retired.setdefault(key, {})
            for etag, snapshot in snapshots.items():
                retiring = gone.get(etag, (0.0, None))[1]
                if snapshot is not None and retiring is not None and snapshot >= retiring:
                    del gone[etag]
            newest = _newest(snapshots.values())
            for old in seen.get(key, set()) - snapshots.keys():
                gone.setdefault(old, (start, newest))
            seen.setdefault(key, set()).update(snapshots)
        for record in members:
            gone = retired.get(record.op.key, {})
            if record.status == 304:
                now = current.get(record.op.key)
                if (now and record.presented not in now) or (
                    record.presented in gone and gone[record.presented][0] <= record.sent
                ):
                    failed.add(id(record))
            elif record.status == 200 and record.etag in gone:
                if gone[record.etag][0] <= record.sent:
                    failed.add(id(record))
    return failed


def snapshot_regressions(records: Iterable[Record]) -> Set[int]:
    """Snapshot ids never go backwards within one (connection, URL) stream.

    Streams are per URL because a response for a scope no delta touched
    keeps its cached bytes -- and the older snapshot id in its dataset
    block -- while other URLs already carry the new head.
    """
    failed: Set[int] = set()
    last: Dict[tuple, int] = {}
    for record in sorted(records, key=lambda r: r.sent):
        if record.status != 200 or record.op.kind != "read":
            continue
        snapshot = snapshot_id(record.body)
        if snapshot is None:
            continue
        stream = (record.conn, record.op.path)
        if snapshot < last.get(stream, snapshot):
            failed.add(id(record))
        last[stream] = max(snapshot, last.get(stream, snapshot))
    return failed


def churn_failures(reads: Sequence[Record], writes: Sequence[Record]) -> Dict[str, Set[int]]:
    return {
        "status": status_failures(reads, writes),
        "stale_etag": stale_etag_failures(reads, writes),
        "snapshot_regression": snapshot_regressions(reads),
    }


def scan_failures(reads: Sequence[Record]) -> Dict[str, Set[int]]:
    return {
        "status": status_failures(reads, (), read_ok=(200,)),
        "etag_body": etag_body_failures(reads),
    }


def reference_mismatches(observed: Dict[str, dict], reference: Sequence[dict]) -> List[str]:
    """Paths whose served response differs from in-process dispatch.

    ``observed`` maps a path to the served body ``sha256`` and ``etag``; each
    ``reference`` row holds the body digest rendered at the snapshot the
    served payload names and the ETag rendered at the head.
    """
    return sorted(
        row["path"]
        for row in reference
        if row["status"] != 200
        or row["path"] not in observed
        or observed[row["path"]]["sha256"] != row["sha256"]
        or observed[row["path"]]["etag"] != row["etag"]
    )
