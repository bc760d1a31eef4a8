"""The long-lived diversity-query serving layer (``repro serve``).

A stdlib-only asyncio HTTP/1.1 server exposing the paper's artefacts --
shared-vulnerability counts, pair/k-set matrices, replica-set selection,
snapshot ledger queries and background Monte-Carlo simulation jobs -- as
JSON endpoints that **compile each dataset state once and answer from
memory**:

* :mod:`repro.service.registry` -- dataset providers plus the
  digest-keyed :class:`~repro.service.registry.ArtifactRegistry` (one
  compile per content digest, even under concurrent requests);
* :mod:`repro.service.cache` -- the LRU response cache and scoped-digest
  ``ETag`` scheme (``If-None-Match`` -> 304 across unrelated deltas);
* :mod:`repro.service.jobs` -- background sweep jobs over the PR-3
  :class:`~repro.runner.runner.GridRunner` (``202`` + poll);
* :mod:`repro.service.server` -- the application, the asyncio front end,
  :func:`~repro.service.server.serve` and the embeddable
  :class:`~repro.service.server.ServiceServer`;
* :mod:`repro.service.cluster` -- the multi-process deployment
  (``--workers N``: ``SO_REUSEPORT`` or front-router; every worker answers
  matrix queries itself and reads deltas from the shared ledger, and the
  internal listeners carry metric and trace gathering and job-poll
  forwarding);
* :mod:`repro.service.routing` / :mod:`~repro.service.schemas` /
  :mod:`~repro.service.errors` / :mod:`~repro.service.config` -- routing,
  payload schemas, the structured error envelope and configuration.

See ``docs/service.md`` for the endpoint reference and cache semantics.
"""

from repro.service.cache import CachedResponse, ResponseCache, make_etag
from repro.service.cluster import (
    FrontRouter,
    HttpPeer,
    ServiceCluster,
    serve_cluster,
)
from repro.service.config import ServiceConfig, ServiceConfigError
from repro.service.errors import (
    ApiError,
    BadRequest,
    Conflict,
    Draining,
    MethodNotAllowed,
    NotFound,
    NotImplementedFeature,
)
from repro.service.jobs import Job, JobTable
from repro.service.registry import (
    ArtifactRegistry,
    CorpusArtifacts,
    DatasetState,
    SnapshotDatasetProvider,
    StaticDatasetProvider,
)
from repro.service.routing import Router
from repro.service.server import (
    DiversityService,
    HttpRequest,
    HttpResponse,
    ServiceServer,
    serve,
)

__all__ = [
    "ApiError",
    "ArtifactRegistry",
    "BadRequest",
    "CachedResponse",
    "Conflict",
    "CorpusArtifacts",
    "DatasetState",
    "DiversityService",
    "Draining",
    "FrontRouter",
    "HttpPeer",
    "HttpRequest",
    "HttpResponse",
    "Job",
    "JobTable",
    "MethodNotAllowed",
    "NotFound",
    "NotImplementedFeature",
    "ResponseCache",
    "Router",
    "ServiceCluster",
    "ServiceConfig",
    "ServiceConfigError",
    "ServiceServer",
    "SnapshotDatasetProvider",
    "StaticDatasetProvider",
    "make_etag",
    "serve",
    "serve_cluster",
]
