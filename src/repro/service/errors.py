"""The service's structured JSON error envelope.

Every failure the API reports -- bad query parameters, unknown resources,
state conflicts, drained servers -- is an :class:`ApiError` subclass that
renders to one stable JSON shape::

    {"error": {"code": "not_found", "status": 404,
               "message": "no job named 'job-99'"}}

``code`` is a machine-readable slug per error class, ``status`` repeats the
HTTP status for clients that lose the transport layer (logs, queues) and
``message`` is human-readable.  An optional ``detail`` object carries
structured context (e.g. the offending parameter).  The contract is pinned
by ``tests/service/test_routing_and_errors.py``.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.exceptions import ReproError


class ApiError(ReproError):
    """Base class for every error the HTTP API reports to clients."""

    status: int = 500
    code: str = "internal_error"

    def __init__(self, message: str, detail: Optional[Dict[str, object]] = None):
        super().__init__(message)
        self.message = message
        self.detail = detail

    def envelope(self) -> Dict[str, object]:
        """The JSON error payload for this failure."""
        error: Dict[str, object] = {
            "code": self.code,
            "status": self.status,
            "message": self.message,
        }
        if self.detail is not None:
            error["detail"] = self.detail
        return {"error": error}


class BadRequest(ApiError):
    """A malformed query parameter or request body (HTTP 400)."""

    status = 400
    code = "bad_request"


class NotFound(ApiError):
    """An unknown path, resource id or OS name (HTTP 404)."""

    status = 404
    code = "not_found"


class MethodNotAllowed(ApiError):
    """The path exists but not under this HTTP method (HTTP 405)."""

    status = 405
    code = "method_not_allowed"


class Conflict(ApiError):
    """The request contradicts current server state (HTTP 409).

    Raised when a job id is resubmitted with different parameters, or when
    a ledger operation (snapshots, deltas) is asked of a server that is not
    database-backed.
    """

    status = 409
    code = "conflict"


class PayloadTooLarge(ApiError):
    """The request body exceeds the server's limit (HTTP 413)."""

    status = 413
    code = "payload_too_large"


class NotImplementedFeature(ApiError):
    """The request uses an HTTP feature the server does not speak (501).

    Raised for ``Transfer-Encoding: chunked`` bodies: the front end cannot
    parse them, and pretending otherwise would leave the unread chunk
    bytes in the stream to desync the next keep-alive request -- so the
    connection is closed after this envelope is written.
    """

    status = 501
    code = "not_implemented"


class Draining(ApiError):
    """The server received SIGTERM and no longer accepts new work (HTTP 503)."""

    status = 503
    code = "draining"


class Busy(ApiError):
    """The snapshot ledger's write lock stayed taken (HTTP 503).

    Raised when a delta ingest waited out SQLite's busy timeout (5 s)
    behind another writer.  The response carries ``Retry-After: 1``.
    """

    status = 503
    code = "busy"


def internal_error(message: str = "internal server error") -> ApiError:
    """An anonymised 500 envelope (handler tracebacks never leak to clients)."""
    return ApiError(message)
