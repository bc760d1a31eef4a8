"""repro -- a reproduction of "OS Diversity for Intrusion Tolerance: Myth or Reality?".

Garcia, Bessani, Gashi, Neves and Obelheiro (DSN 2011) mined the NIST
National Vulnerability Database to measure how many vulnerabilities are
shared between 11 operating systems, and argued that OS diversity gives real
security gains to intrusion-tolerant (BFT) replicated systems.  This package
rebuilds that study end to end:

* :mod:`repro.nvd` -- NVD feed parsing (XML/JSON), CPE and CVSS handling;
* :mod:`repro.synthetic` -- a calibrated synthetic corpus standing in for the
  live NVD feeds (not downloadable in the offline reproduction environment);
* :mod:`repro.db` -- the SQL database of the paper's Figure 1 (SQLite),
  with incremental upserts and tombstones;
* :mod:`repro.snapshots` -- incremental feed ingestion: content-addressed
  dataset snapshots, the snapshot ledger, delta application, time travel
  and snapshot diffs;
* :mod:`repro.classify` -- component-class classification and the validity /
  server-configuration filters;
* :mod:`repro.analysis` -- every table and figure of the evaluation plus the
  replica-set selection strategies;
* :mod:`repro.itsys` -- an executable intrusion-tolerance model (replica
  groups, attacker, BFT service, Monte-Carlo comparison);
* :mod:`repro.runner` -- the parallel experiment-grid runner with a
  content-addressed, selectively-invalidated result cache;
* :mod:`repro.service` -- the long-lived asyncio diversity-query API
  server (``repro serve``): digest-keyed compile memoization, scoped
  ETags with 304 revalidation, background simulation jobs;
* :mod:`repro.reports` -- table/figure rendering and the experiment registry.

Quickstart
----------

>>> from repro import build_corpus, VulnerabilityDataset, PairAnalysis
>>> from repro.core import ServerConfiguration
>>> corpus = build_corpus()
>>> dataset = VulnerabilityDataset(corpus.entries)
>>> analysis = PairAnalysis(dataset)
>>> shared = analysis.shared_matrix(ServerConfiguration.ISOLATED_THIN)
>>> shared[("Debian", "Windows2003")]
0

The public names in ``__all__`` are re-exported from their subpackages
lazily, on first access (PEP 562), as :mod:`repro.snapshots` does.
Python runs this file before any ``repro.*`` module, so eager re-exports
would load every subpackage -- the asyncio server and cluster of
:mod:`repro.service` included -- into every CLI command, sweep pool worker
and cluster worker.  Lazily, each process loads only what it uses.
"""

from __future__ import annotations

import importlib
from typing import List

__version__ = "1.0.0"

_EXPORTS = {
    # corpus
    "build_corpus": "repro.synthetic",
    "SyntheticCorpus": "repro.synthetic",
    # core vocabulary
    "VulnerabilityEntry": "repro.core",
    "ComponentClass": "repro.core",
    "AccessVector": "repro.core",
    "ServerConfiguration": "repro.core",
    "ValidityStatus": "repro.core",
    "OSFamily": "repro.core",
    "OS_NAMES": "repro.core",
    # pipeline
    "VulnerabilityDatabase": "repro.db",
    "IngestPipeline": "repro.db",
    "ComponentClassifier": "repro.classify",
    "ValidityFilter": "repro.classify",
    # incremental ingestion and snapshots
    "DeltaIngestPipeline": "repro.snapshots",
    "SnapshotStore": "repro.snapshots",
    "evolve_corpus": "repro.synthetic",
    # analyses
    "VulnerabilityDataset": "repro.analysis",
    "PairAnalysis": "repro.analysis",
    "TemporalAnalysis": "repro.analysis",
    "KSetAnalysis": "repro.analysis",
    "PeriodAnalysis": "repro.analysis",
    "ReleaseDiversityAnalysis": "repro.analysis",
    "ReplicaSetSelector": "repro.analysis",
    "summary_findings": "repro.analysis",
    "run_experiment": "repro.reports",
    # intrusion tolerance
    "ReplicaGroup": "repro.itsys",
    "BFTService": "repro.itsys",
    "CompromiseSimulation": "repro.itsys",
    # serving layer
    "DiversityService": "repro.service",
    "ServiceConfig": "repro.service",
    "serve": "repro.service",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(_EXPORTS[name]), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
