"""Observability across the serving stack: /metrics, /v1/traces, healthz.

In-process tests cover the single-worker surface (exposition validity,
healthz/metrics agreement, trace-id adoption and echo).  The cluster test
spawns two real worker processes and follows one client-supplied trace id
across the metrics-gathering hop, end to end.
"""

from __future__ import annotations

import json
import re

from repro.obs import TRACE_HEADER, valid_trace_id
from repro.service import ServiceCluster, ServiceConfig
from repro.service.server import HttpRequest

from tests.service.conftest import make_app

#: Prometheus text lines: `name{labels} value` with a numeric value.
SAMPLE_LINE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?(\d+(\.\d+)?([eE][+-]?\d+)?|\+Inf|NaN)$"
)


def _get(app, path, query=None, headers=None):
    return app.dispatch(
        HttpRequest(
            method="GET", path=path, query=query or {}, headers=headers or {}
        )
    )


def _sample_value(text: str, prefix: str) -> float:
    for line in text.splitlines():
        if line.startswith(prefix):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"no sample starting with {prefix!r} in exposition")


class TestMetricsEndpoint:
    def test_exposition_is_valid_prometheus_text(self, corpus):
        app = make_app(corpus)
        assert _get(app, "/v1/matrix/pairs").status == 200
        result = _get(app, "/metrics")
        assert result.status == 200
        assert result.content_type.startswith("text/plain")
        text = result.body.decode("utf-8")
        for line in text.splitlines():
            if line.startswith("#"):
                assert re.match(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ", line)
            else:
                assert SAMPLE_LINE.match(line), f"malformed sample line: {line!r}"
        assert "# TYPE repro_http_requests_total counter" in text
        assert 'route="/v1/matrix/pairs"' in text
        # Single worker: every sample carries this worker's shard label.
        assert 'shard="0"' in text

    def test_request_counter_increments_per_request(self, corpus):
        app = make_app(corpus)
        for _ in range(3):
            assert _get(app, "/healthz").status == 200
        text = _get(app, "/metrics").body.decode("utf-8")
        assert (
            _sample_value(
                text,
                'repro_http_requests_total{method="GET",route="/healthz",'
                'status="200"',
            )
            == 3
        )

    def test_unrouted_requests_share_one_label(self, corpus):
        app = make_app(corpus)
        assert _get(app, "/no/such/path").status == 404
        assert _get(app, "/other/missing").status == 404
        text = _get(app, "/metrics").body.decode("utf-8")
        assert (
            _sample_value(
                text,
                'repro_http_requests_total{method="GET",route="unrouted",'
                'status="404"',
            )
            == 2
        )

    def test_unknown_scope_is_a_400(self, corpus):
        app = make_app(corpus)
        assert _get(app, "/metrics", {"scope": ("bogus",)}).status == 400

    def test_metrics_flag_removes_the_public_surface_only(self, corpus):
        app = make_app(corpus, metrics=False)
        assert _get(app, "/metrics").status == 404
        assert _get(app, "/v1/traces").status == 404
        # The internal transport stays up: peers still aggregate this worker.
        assert _get(app, "/internal/v1/metrics").status == 200
        assert _get(app, "/internal/v1/traces").status == 200

    def test_healthz_and_metrics_report_from_one_registry(self, corpus):
        app = make_app(corpus)
        for _ in range(2):
            assert _get(app, "/v1/matrix/pairs").status == 200
        health = json.loads(_get(app, "/healthz").body)
        text = _get(app, "/metrics").body.decode("utf-8")
        assert _sample_value(
            text, 'repro_response_cache_events_total{event="hit"'
        ) == health["response_cache"]["hits"]
        assert _sample_value(
            text, 'repro_response_cache_events_total{event="miss"'
        ) == health["response_cache"]["misses"]
        assert _sample_value(
            text, 'repro_registry_events_total{event="compile"'
        ) == health["registry"]["compiles"]


class TestTraceEndpoint:
    def test_every_response_echoes_a_trace_id(self, corpus):
        app = make_app(corpus)
        response = _get(app, "/healthz")
        assert valid_trace_id(response.headers[TRACE_HEADER])

    def test_client_supplied_ids_are_adopted_and_queryable(self, corpus):
        app = make_app(corpus)
        response = _get(
            app, "/v1/matrix/pairs",
            headers={TRACE_HEADER.lower(): "my-trace-1"},
        )
        assert response.headers[TRACE_HEADER] == "my-trace-1"
        payload = json.loads(
            _get(app, "/v1/traces", {"id": ("my-trace-1",)}).body
        )
        assert payload["trace_id"] == "my-trace-1"
        (record,) = payload["records"]
        assert record["name"] == "GET /v1/matrix/pairs"
        assert record["status"] == 200
        assert {span["name"] for span in record["spans"]} >= {"cache.lookup"}

    def test_malformed_ids_are_rejected_not_adopted(self, corpus):
        app = make_app(corpus)
        response = _get(
            app, "/healthz", headers={TRACE_HEADER.lower(): "bad id!"}
        )
        assert response.headers[TRACE_HEADER] != "bad id!"
        assert _get(app, "/v1/traces", {"id": ("bad id!",)}).status == 400

    def test_recent_traces_list_newest_first(self, corpus):
        app = make_app(corpus)
        for path in ("/healthz", "/v1/catalogue"):
            assert _get(app, path).status == 200
        payload = json.loads(_get(app, "/v1/traces", {"limit": ("2",)}).body)
        names = [record["name"] for record in payload["traces"]]
        assert names[0] == "GET /v1/catalogue"
        assert "GET /healthz" in names


class TestClusterTracePropagation:
    def test_one_trace_spans_both_workers_end_to_end(self):
        import urllib.request

        config = ServiceConfig(
            port=0, workers=2, catalogue="scaled:4x5", drain_grace=5.0
        )
        cluster = ServiceCluster(config)
        cluster.start()
        try:
            first = cluster.internal_urls[0]
            trace_id = "e2e-metrics-trace"
            request = urllib.request.Request(
                first + "/metrics",
                headers={TRACE_HEADER: trace_id},
            )
            with urllib.request.urlopen(request, timeout=60) as response:
                assert response.status == 200
                assert response.headers[TRACE_HEADER] == trace_id

            with urllib.request.urlopen(
                first + f"/v1/traces?id={trace_id}", timeout=60
            ) as response:
                payload = json.loads(response.read())
            assert {record["shard"] for record in payload["records"]} == {0, 1}
            span_shards = {span["shard"] for span in payload["spans"]}
            assert span_shards == {0, 1}
            names = {span["name"] for span in payload["spans"]}
            # Real sockets: both sides record a parse span; the scraped
            # worker adds the gather over its peer.
            assert {"parse", "metrics.gather"} <= names
        finally:
            cluster.stop()
