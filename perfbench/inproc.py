"""Helpers that import the program under test; run as a separate process.

The generator process never imports ``repro``; everything that needs the
library (delta fixtures, the scaled catalogue's OS names, the in-process
reference responses) runs here, under the checkout's ``src/``::

    python perfbench/inproc.py deltas --seed N --count K --out DIR
    python perfbench/inproc.py os-names --catalogue scaled:10x10
    python perfbench/inproc.py dispatch --db PATH --requests FILE
    python perfbench/inproc.py dispatch --catalogue SPEC --requests FILE

``dispatch`` prints, per requested path, the status, body sha256 and ETag
that ``DiversityService.dispatch`` renders in-process.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

#: OSes churn deltas never touch, so their scopes keep answering 304.
UNTOUCHED_OSES = frozenset({"Windows2000", "Windows2003", "Windows2008"})

#: Churn delta targets, in rotation.  Every run starts the rotation at the
#: same OS, so every run posts the same mix of delta sizes (the targets'
#: entry counts differ).
DELTA_TARGETS = ("Debian", "OpenBSD", "RedHat", "FreeBSD", "NetBSD", "Solaris")

#: Share of the target OS's candidate entries each delta republishes.
DELTA_FRACTION = 0.05


def build_deltas(seed: int, count: int, out: Path) -> dict:
    """``count`` seeded modified feeds, each ~5% of one rotating OS's entries."""
    from repro.synthetic.corpus import build_corpus
    from repro.synthetic.evolution import evolve_corpus

    corpus = build_corpus()
    rng = random.Random(seed)
    out.mkdir(parents=True, exist_ok=True)
    deltas = []
    for index in range(count):
        target = DELTA_TARGETS[index % len(DELTA_TARGETS)]
        delta = evolve_corpus(
            corpus,
            fraction=DELTA_FRACTION,
            seed=rng.randrange(1, 2**31),
            target_os=target,
            entry_filter=lambda entry: not entry.affected_os & UNTOUCHED_OSES,
        )
        path = delta.write_feed(out / f"delta-{index:03d}.xml")
        deltas.append(
            {"file": path.name, "target": target, "entries": len(delta.modified)}
        )
    return {"seed": seed, "deltas": deltas}


def os_names(catalogue: str) -> list:
    from repro.service.config import ServiceConfig
    from repro.synthetic.generator import generate_scaled_catalogue

    config = ServiceConfig(catalogue=catalogue)
    families, releases = config.scaled_catalogue_shape()
    return list(
        generate_scaled_catalogue(
            n_families=families, releases_per_family=releases, seed=config.seed
        ).os_names
    )


def _render(service, path: str):
    from repro.service.server import HttpRequest

    parts = urlsplit(path)
    query = {
        name: tuple(values)
        for name, values in parse_qs(parts.query, keep_blank_values=True).items()
    }
    return service.dispatch(
        HttpRequest(method="GET", path=parts.path, query=query, headers={})
    )


def dispatch(requests, db=None, catalogue=None) -> list:
    """Reference responses rendered by in-process ``DiversityService.dispatch``.

    Each request names a path and, optionally, the snapshot a served payload
    claims.  The row carries the body digest at that snapshot (the head when
    none is named) and the ETag at the head, so a served response matches
    only if its bytes are what the program renders for the state it names
    and its ETag is still current.
    """
    from repro.service.config import ServiceConfig
    from repro.service.server import DiversityService

    def service(snapshot=None):
        return DiversityService(ServiceConfig(
            db=db, catalogue=catalogue,
            snapshot=str(snapshot) if snapshot is not None else None))

    head = service()
    pinned = {}
    rows = []
    try:
        for request in requests:
            at_head = _render(head, request["path"])
            rendered = at_head
            if request.get("snapshot") is not None:
                snapshot = request["snapshot"]
                if snapshot not in pinned:
                    pinned[snapshot] = service(snapshot)
                rendered = _render(pinned[snapshot], request["path"])
            rows.append({
                "path": request["path"],
                "status": max(at_head.status, rendered.status),
                "sha256": hashlib.sha256(rendered.body).hexdigest(),
                "etag": at_head.headers.get("ETag"),
            })
    finally:
        for each in (head, *pinned.values()):
            each.shutdown()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/inproc.py")
    sub = parser.add_subparsers(dest="command", required=True)
    deltas = sub.add_parser("deltas")
    deltas.add_argument("--seed", type=int, required=True)
    deltas.add_argument("--count", type=int, required=True)
    deltas.add_argument("--out", type=Path, required=True)
    names = sub.add_parser("os-names")
    names.add_argument("--catalogue", required=True)
    reference = sub.add_parser("dispatch")
    reference.add_argument("--db")
    reference.add_argument("--catalogue")
    reference.add_argument("--requests", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.command == "deltas":
        payload = build_deltas(args.seed, args.count, args.out)
    elif args.command == "os-names":
        payload = os_names(args.catalogue)
    else:
        requests = json.loads(args.requests.read_text())
        payload = dispatch(requests, db=args.db, catalogue=args.catalogue)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
