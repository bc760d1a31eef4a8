"""Per-layer numbers from a traced run's spans, joined with client records.

A span's *self time* is its duration minus the part of it that its child
spans (same thread, recorded underneath it) cover.  Per-layer metrics are
medians of per-call or per-request values, reported with their counts;
ratios are reported with their bases.

Each workload's report holds every metric its spans support; the result
line carries only the ``per_layer`` metrics of ``BENCHMARK.json``, the ones
every workload measures.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from perfbench.host import WORK, write_json
from perfbench.stats import median, percentile

#: Wrapped calls into repro.obs; their self time is instrumentation cost.
OBS_SPANS = ("obs.begin", "obs.finish", "obs.span", "obs.inc", "obs.observe")

#: Spans that are request or op boundaries rather than program layers.
BOUNDARIES = ("service.dispatch_async", "service.dispatch", "op.experiments",
              "op.sweep-cold", "op.sweep-warm")


class Span:
    __slots__ = ("thread", "index", "name", "start", "end", "parent", "request",
                 "raised", "value", "children")

    def __init__(self, thread, index, name, start, end, parent, request, raised, value):
        self.thread = thread
        self.index = index
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.request = request
        self.raised = raised
        self.value = value
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start


def build_tree(spans: Iterable[Span]) -> List[Span]:
    """Link each span to its parent on the same thread; return them all."""
    spans = list(spans)
    by_key = {(span.thread, span.index): span for span in spans}
    for span in spans:
        if span.parent >= 0:
            parent = by_key.get((span.thread, span.parent))
            if parent is not None:
                parent.children.append(span)
    return spans


def self_time(span: Span) -> float:
    """Duration minus the union of the children's intervals inside the span."""
    covered = 0.0
    cursor = span.start
    for child in sorted(span.children, key=lambda c: c.start):
        start, end = max(child.start, cursor), min(child.end, span.end)
        if end > start:
            covered += end - start
            cursor = end
    return span.duration - covered


def descendants(span: Span):
    for child in span.children:
        yield child
        yield from descendants(child)


def load_spans(path: Path) -> Tuple[dict, List[Span]]:
    with open(path) as handle:
        header = json.loads(handle.readline())
        spans = [Span(*json.loads(line)) for line in handle if line.strip()]
    return header, build_tree(spans)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _ms(seconds: float) -> float:
    return seconds * 1e3


def layer_table(spans: Sequence[Span], waits: Dict[str, List[float]]) -> Dict[str, dict]:
    """Per span name: calls, raised, busy and self time, median self time."""
    table: Dict[str, dict] = {}
    grouped: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        grouped[span.name].append(span)
    for name, members in sorted(grouped.items()):
        selfs = [_ms(self_time(span)) for span in members]
        table[name] = {
            "calls": len(members),
            "raised": sum(span.raised for span in members),
            "busy_ms": sum(_ms(span.duration) for span in members),
            "self_ms": sum(selfs),
            "median_ms": median([_ms(span.duration) for span in members]),
            "median_self_ms": median(selfs),
            "wait_ms": sum(waits.get(name, [])),
        }
    return table


def _named_ms(boundary: Span) -> float:
    """Self time of every program-layer span under a boundary span."""
    return sum(_ms(self_time(span)) for span in descendants(boundary)
               if span.name not in BOUNDARIES)


def _median_or_none(values: Sequence[float]) -> Optional[float]:
    return median(values) if values else None


def _registry_waits(spans: Sequence[Span]) -> Tuple[List[Span], List[Span]]:
    """(gets that compiled, gets that blocked on another thread's compile)."""
    gets = [span for span in spans if span.name == "registry.get"]
    compiled = [span for span in gets
                if any(child.name == "analysis.compile" for child in descendants(span))]
    blocked = []
    for span in gets:
        if span in compiled:
            continue
        if any(other.thread != span.thread and other.start <= span.start < other.end
               for other in compiled):
            blocked.append(span)
    return compiled, blocked


def _calls(spans: Sequence[Span], name: str) -> List[Span]:
    return [span for span in spans if span.name == name]


def _metric(metrics: dict, name: str, value: Optional[float], unit: str) -> None:
    if value is not None:
        metrics[name] = (value, unit)


def _wrapped_calls(metrics: dict, spans: Sequence[Span]) -> None:
    """Calls recorded by every wrapper, and how many raised (per name in the
    report's layer table)."""
    _metric(metrics, "trace.calls", len(spans), "count")
    _metric(metrics, "trace.raised", sum(span.raised for span in spans), "count")


def _obs_us(requests: Iterable[Span], calibration: dict) -> Optional[float]:
    """Instrumentation self time per request, minus the wrapper's own share."""
    per_request = []
    in_span = calibration["in_span_s"]
    for boundary in requests:
        obs = [span for span in descendants(boundary) if span.name in OBS_SPANS]
        per_request.append(sum(max(0.0, self_time(span) - in_span) for span in obs) * 1e6)
    return _median_or_none(per_request)


# ---------------------------------------------------------------------------
# serving workloads
# ---------------------------------------------------------------------------


def serving(workload: str, loaded, reads, records, untraced_p50_ms: float,
            cpu_ms_per_req: float, ingest_loaded=None) -> Dict[str, object]:
    """Per-layer metrics and report for api-churn / api-scan.

    ``reads`` are the client records of the traced phase kept for latency
    (low-steal windows); ``records`` are every traced-phase record.
    """
    header, every_span = loaded
    # Request-path metrics cover the traced phase only; set-up work (the
    # first compile, corpus build) is recorded with no request id.
    phase_ids = {record.trace_id for record in records}
    spans = [span for span in every_span if span.request in phase_ids]
    setup = [span for span in every_span if span.request is None]
    by_request: Dict[str, Dict[str, Span]] = defaultdict(dict)
    for span in spans:
        if span.name in ("service.dispatch_async", "service.dispatch") and span.request:
            by_request[span.request][span.name] = span
    transport, queue, dispatch_self, shares, attributed = [], [], [], [], []
    dispatches = []
    for record in reads:
        pair = by_request.get(record.trace_id, {})
        outer, inner = pair.get("service.dispatch_async"), pair.get("service.dispatch")
        if outer is None or inner is None:
            continue
        dispatches.append(inner)
        latency = _ms(record.service_time)
        transport.append(latency - _ms(outer.duration))
        queue.append(_ms(outer.duration - inner.duration))
        dispatch_self.append(_ms(self_time(inner)))
        named = queue[-1] + _named_ms(inner)
        attributed.append(named)
        shares.append(named / latency if latency > 0 else 0.0)
    traced_ms = [_ms(record.latency) for record in reads]
    traced_p50 = percentile(traced_ms, 50.0)

    # Compiles (and waits on them) include set-up: the first compile is part
    # of ``setup_s``, the ones after each delta part of read p99.
    compiled, blocked = _registry_waits(every_span)
    metrics: Dict[str, Tuple[float, str]] = {}
    _metric(metrics, "service.server.transport_ms", _median_or_none(transport), "ms")
    _metric(metrics, "service.server.queue_ms", _median_or_none(queue), "ms")
    _metric(metrics, "service.server.dispatch_self_ms", _median_or_none(dispatch_self), "ms")
    _metric(metrics, "service.server.cpu_ms_per_req", cpu_ms_per_req, "ms")
    current = [_ms(span.duration) for span in _calls(spans, "registry.current")]
    if current:
        _metric(metrics, "service.registry.current_ms", percentile(current, 50.0), "ms")
        _metric(metrics, "service.registry.current_p99_ms", percentile(current, 99.0), "ms")
    _metric(metrics, "service.registry.compiles", len(compiled), "count")
    _metric(metrics, "service.registry.compile_ms",
            _median_or_none([_ms(span.duration) for span in compiled]), "ms")
    _metric(metrics, "service.registry.waits", len(blocked), "count")
    _metric(metrics, "service.registry.wait_ms",
            _median_or_none([_ms(span.duration) for span in blocked]), "ms")
    patches = _calls(spans, "registry.patch")
    if workload == "api-churn":
        _metric(metrics, "service.registry.patch_ratio",
                sum(span.value or 0 for span in patches) / max(1, len(patches)), "ratio")
    digests = _calls(spans, "registry.scope_digest")
    _metric(metrics, "service.registry.scope_digests", len(digests), "count")
    _metric(metrics, "service.registry.scope_digest_ms",
            _median_or_none([_ms(self_time(span)) for span in digests]), "ms")
    lookups = _calls(spans, "cache.get")
    _metric(metrics, "service.cache.hit_ratio",
            sum(span.value or 0 for span in lookups) / max(1, len(lookups)), "ratio")
    not_modified = sum(1 for record in reads if record.status == 304)
    _metric(metrics, "service.cache.not_modified_ratio", not_modified / max(1, len(reads)),
            "ratio")
    invalidations = [span.value for span in _calls(spans, "cache.invalidate_scope")
                     if span.value is not None]
    if workload == "api-churn":
        _metric(metrics, "service.cache.invalidated_per_ingest",
                _median_or_none(invalidations), "count")
    for kind in ("shared", "pairs", "ksets", "widest", "selection"):
        # The warm-up's pair matrices count: api-scan requests none later.
        builds = _calls(every_span, f"schemas.build.{kind}")
        _metric(metrics, f"service.schemas.build_ms.{kind}",
                _median_or_none([_ms(span.duration) for span in builds]), "ms")
    dumps = _calls(spans, "schemas.dumps")
    _metric(metrics, "service.schemas.dumps_ms",
            _median_or_none([_ms(span.duration) for span in dumps]), "ms")
    _metric(metrics, "service.schemas.bytes",
            _median_or_none([span.value for span in dumps if span.value is not None]), "B")
    _metric(metrics, "analysis.compile_ms", _median_or_none(
        [_ms(span.duration) for span in _calls(every_span, "analysis.compile")]), "ms")
    for metric, name in (("analysis.shared_ms", "analysis.shared"),
                         ("analysis.ksets_ms", "analysis.ksets"),
                         ("analysis.selection_ms", "analysis.selection"),
                         ("snapshots.apply_ms", "snapshots.apply"),
                         ("snapshots.commit_ms", "snapshots.commit"),
                         ("snapshots.diff_ms", "snapshots.diff"),
                         ("snapshots.dataset_at_ms", "snapshots.dataset_at"),
                         ("nvd.parse_ms", "nvd.parse"),
                         ("db.upsert_ms", "db.upsert"),
                         ("db.open_ms", "db.open")):
        _metric(metrics, metric,
                _median_or_none([_ms(span.duration) for span in _calls(spans, name)]), "ms")
    applies = _calls(spans, "snapshots.apply")
    if applies:
        per_ingest = [sum(1 for span in descendants(apply) if span.name == "db.upsert")
                      for apply in applies]
        _metric(metrics, "db.upserts", median(per_ingest), "count")
    builds = _calls(setup, "synthetic.build")
    if ingest_loaded is not None:
        builds = _calls(ingest_loaded[1], "synthetic.build")
    _metric(metrics, "synthetic.build_s",
            _median_or_none([span.duration for span in builds]), "s")
    _metric(metrics, "cli.import_s", header["import_s"], "s")
    _metric(metrics, "obs.self_us_per_req", _obs_us(dispatches, header["calibration"]), "us")
    _metric(metrics, "trace.read_p50_ms", traced_p50, "ms")
    _metric(metrics, "trace.overhead_ms", traced_p50 - untraced_p50_ms, "ms")
    _metric(metrics, "trace.coverage_share", _median_or_none(shares), "ratio")
    _wrapped_calls(metrics, every_span)

    waits = {"registry.get": [_ms(span.duration) for span in blocked]}
    report = {
        "layers": layer_table(spans, waits),
        "setup_layers": layer_table(setup, {}),
        "ratios": {
            "service.cache.hit_ratio": {"hits": sum(span.value or 0 for span in lookups),
                                        "lookups": len(lookups)},
            "service.cache.not_modified_ratio": {"not_modified": not_modified,
                                                 "reads": len(reads)},
            "service.registry.patch_ratio": {
                "patched": sum(span.value or 0 for span in patches),
                "calls": len(patches)},
        },
        "coverage": {
            "definition": "per read: (queue + self time of every named layer under "
                          "dispatch) / client latency from send; excludes transport "
                          "and dispatch self time",
            "reads": len(shares),
            "median_share": _median_or_none(shares),
            "share_of_median_latency": (
                median(attributed) / median([_ms(r.service_time) for r in reads])
                if attributed else None),
        },
        "tracing_overhead": {"untraced_read_p50_ms": untraced_p50_ms,
                             "traced_read_p50_ms": traced_p50,
                             "overhead_ms": traced_p50 - untraced_p50_ms,
                             "calibration": header["calibration"]},
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return {"metrics": metrics, "report": report}


# ---------------------------------------------------------------------------
# research-batch
# ---------------------------------------------------------------------------


def batch(loaded, kept_ops: Dict[str, set], untraced_cold_ms: float,
          traced_cold_ms: float) -> Dict[str, object]:
    """Per-layer metrics and report for research-batch.

    ``kept_ops`` maps each op kind to the op ids (``op<N>:<kind>``) kept
    after steal filtering.
    """
    header, spans = loaded
    ops: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        if span.name.startswith("op.") and span.request in kept_ops.get(span.name[3:], ()):
            ops[span.name[3:]].append(span)

    def per_op(kind: str, name: str) -> Optional[float]:
        return _median_or_none([
            sum(_ms(self_time(span)) for span in descendants(op) if span.name == name)
            for op in ops[kind]
        ])

    runs = _calls(spans, "itsys.run_range")
    classic = [span.duration / span.value[0] * 1e6 for span in runs
               if span.value and span.value[0] and not span.value[1]]
    scenario = [span.duration / span.value[0] * 1e6 for span in runs
                if span.value and span.value[0] and span.value[1]]
    gets = _calls(spans, "runner.cache_get")
    shares = [_named_ms(op) / _ms(op.duration) for op in ops["sweep-cold"]]

    metrics: Dict[str, Tuple[float, str]] = {}
    _metric(metrics, "itsys.run_us.classic", _median_or_none(classic), "us")
    _metric(metrics, "itsys.run_us.scenario", _median_or_none(scenario), "us")
    _metric(metrics, "runner.corpus_digest_ms",
            _median_or_none([_ms(s.duration) for s in _calls(spans, "runner.corpus_digest")]),
            "ms")
    _metric(metrics, "runner.scope_digest_ms", per_op("sweep-warm", "runner.scope_digest"), "ms")
    _metric(metrics, "runner.cache_get_ms", per_op("sweep-warm", "runner.cache_get"), "ms")
    _metric(metrics, "runner.cache_hit_ratio",
            sum(span.value or 0 for span in gets) / max(1, len(gets)), "ratio")
    _metric(metrics, "runner.cache_put_ms", per_op("sweep-cold", "runner.cache_put"), "ms")
    _metric(metrics, "reports.experiment_self_ms",
            per_op("experiments", "reports.experiment"), "ms")
    _metric(metrics, "analysis.compile_ms",
            _median_or_none([_ms(s.duration) for s in _calls(spans, "analysis.compile")]), "ms")
    for metric, name in (("analysis.shared_ms", "analysis.shared"),
                         ("analysis.ksets_ms", "analysis.ksets"),
                         ("analysis.selection_ms", "analysis.selection")):
        _metric(metrics, metric,
                _median_or_none([_ms(s.duration) for s in _calls(spans, name)]), "ms")
    _metric(metrics, "synthetic.build_s",
            _median_or_none([s.duration for s in _calls(spans, "synthetic.build")]), "s")
    _metric(metrics, "cli.import_s", header["import_s"], "s")
    _metric(metrics, "trace.sweep_cold_ms", traced_cold_ms, "ms")
    _metric(metrics, "trace.overhead_ms", traced_cold_ms - untraced_cold_ms, "ms")
    _metric(metrics, "trace.coverage_share", _median_or_none(shares), "ratio")
    _wrapped_calls(metrics, spans)

    report = {
        "layers": layer_table([span for span in spans if span.request], {}),
        "setup_layers": layer_table([span for span in spans if not span.request], {}),
        "ratios": {"runner.cache_hit_ratio": {
            "hits": sum(span.value or 0 for span in gets), "gets": len(gets)}},
        "coverage": {
            "definition": "per cold sweep: self time of every named layer inside the "
                          "op / the op's duration",
            "ops": len(shares),
            "median_share": _median_or_none(shares),
        },
        "tracing_overhead": {"untraced_sweep_cold_ms": untraced_cold_ms,
                             "traced_sweep_cold_ms": traced_cold_ms,
                             "overhead_ms": traced_cold_ms - untraced_cold_ms,
                             "calibration": header["calibration"]},
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return {"metrics": metrics, "report": report}


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def report_path(workload: str, seed: int) -> Path:
    return WORK / "reports" / f"{workload}-seed{seed}-trace.json"


def write_report(workload: str, seed: int, report: dict) -> Path:
    """The traced-run report: JSON plus a Markdown table beside it."""
    path = write_json(report_path(workload, seed), report)
    lines = [f"# {workload} traced run (seed {seed})", "",
             "| layer span | calls | raised | busy ms | self ms | wait ms "
             "| median ms | median self ms |",
             "| --- | --- | --- | --- | --- | --- | --- | --- |"]
    for table, suffix in ((report["layers"], ""), (report["setup_layers"], " (set-up)")):
        for name, row in table.items():
            lines.append(
                f"| {name}{suffix} | {row['calls']} | {row['raised']} | {row['busy_ms']:.2f} "
                f"| {row['self_ms']:.2f} | {row['wait_ms']:.2f} | {row['median_ms']:.4f} "
                f"| {row['median_self_ms']:.4f} |")
    lines += ["", "| metric | value | unit |", "| --- | --- | --- |"]
    for name, metric in report["metrics"].items():
        lines.append(f"| {name} | {metric['value']:.6g} | {metric['unit']} |")
    lines += ["", "Ratios and their bases: " + json.dumps(report["ratios"]),
              "", "Coverage: " + json.dumps(report["coverage"]),
              "", "Tracing overhead: " + json.dumps(report["tracing_overhead"]), ""]
    path.with_suffix(".md").write_text("\n".join(lines))
    return path
