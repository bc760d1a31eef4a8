"""The serving workloads, ``api-churn`` and ``api-scan``, end to end.

One run: build fixtures (outside every timed phase), start the server
``COLD_STARTS`` times for ``setup_s`` and keep the last one, measure an
open-loop phase at the workload's fixed rate with one ``SCHED_IDLE`` spinner
per CPU, then check every response.  ``op_p50_ms`` is the median read
latency, timed from when each read was due.  Timed metrics are scaled to the
reference host speed (``perfbench.speed``): each start by the kernel passes
timed just before and after it, each read by the passes the generator timed
nearest to it in the open loop's idle gaps.

A traced run instead measures a short untraced open-loop phase, then the
same phase against a server started through ``perfbench/launcher.py``, and
attributes the traced requests' latency to the program's layers.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import random
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import attribution, checks, speed, workloads
from perfbench.host import (
    BENCH_DIR,
    WORK,
    BenchError,
    Program,
    Spinners,
    StealSampler,
    cpu_seconds,
    fixtures_dir,
    run_tool,
    vm_hwm_mib,
    write_json,
)
from perfbench.loadgen import LoadGen, Op, Record
from perfbench.stats import median, percentile, split_windows, timing_summary, window_of

CONNECTIONS = 2

#: Value a failed read contributes to latency percentiles: it misses every limit.
FAILED_MS = math.inf


# ---------------------------------------------------------------------------
# fixtures (built with the commit under test, outside every timed phase)
# ---------------------------------------------------------------------------


def churn_ledger() -> Path:
    """The calibrated corpus ingested once per commit via ``repro ingest``."""
    ledger = fixtures_dir() / "churn-ledger.db"
    if not ledger.exists():
        ledger.parent.mkdir(parents=True, exist_ok=True)
        partial = ledger.with_suffix(".partial")
        partial.unlink(missing_ok=True)
        run_tool(["-m", "repro", "--db", str(partial), "ingest"])
        partial.rename(ledger)
    return ledger


def churn_deltas(seed: int, count: int) -> List[bytes]:
    """``count`` seeded modified feeds for this workload seed."""
    directory = fixtures_dir() / f"churn-deltas-{seed}"
    manifest = directory / "manifest.json"
    if manifest.exists() and len(json.loads(manifest.read_text())["deltas"]) >= count:
        deltas = json.loads(manifest.read_text())["deltas"]
    else:
        shutil.rmtree(directory, ignore_errors=True)
        output = run_tool([str(BENCH_DIR / "inproc.py"), "deltas", "--seed", str(seed),
                           "--count", str(count), "--out", str(directory)])
        manifest.write_text(output)
        deltas = json.loads(output)["deltas"]
    return [(directory / row["file"]).read_bytes() for row in deltas[:count]]


def scan_schedule(seed: int, seconds: float) -> Dict[str, object]:
    names_file = fixtures_dir() / "scan-os-names.json"
    if not names_file.exists():
        names_file.parent.mkdir(parents=True, exist_ok=True)
        names_file.write_text(run_tool([str(BENCH_DIR / "inproc.py"), "os-names",
                                        "--catalogue", "scaled:10x10"]))
    os_names = json.loads(names_file.read_text())
    path = fixtures_dir() / f"scan-schedule-{seed}-{seconds:g}.json"
    if not path.exists():
        write_json(path, workloads.scan_schedule(
            seed, os_names, workloads.SCAN.rate, seconds))
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# program start-up
# ---------------------------------------------------------------------------


def _get(conn: http.client.HTTPConnection, path: str) -> Tuple[int, bytes]:
    conn.request("GET", path)
    response = conn.getresponse()
    return response.status, response.read()


def start_server(argv: Sequence[str]) -> Tuple[Program, int, float]:
    """Spawn, wait for the listener, warm every lazy view; (program, port, set-up s)."""
    program = Program(argv)
    try:
        port = program.wait_listening()
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            for path in workloads.warmup_paths():
                status, _body = _get(conn, path)
                if status != 200:
                    raise BenchError(f"warm-up {path} answered {status}")
        finally:
            conn.close()
    except BaseException:
        program.stop()
        raise
    return program, port, time.perf_counter() - program.started


def server_argv(plan: workloads.ServingPlan, ledger: Optional[Path]) -> List[str]:
    if plan is workloads.CHURN:
        return ["-m", "repro", "--db", str(ledger), "serve", "--port", "0"]
    return ["-m", "repro", "serve", "--catalogue", "scaled:10x10", "--port", "0"]


def traced_argv(argv: Sequence[str], spans: Path) -> List[str]:
    return [str(BENCH_DIR / "launcher.py"), "--spans", str(spans), "--", *argv[2:]]


# ---------------------------------------------------------------------------
# timed phases
# ---------------------------------------------------------------------------


class Phase:
    """A phase that ends once it has its planned count of low-steal windows."""

    def __init__(self, planned: float) -> None:
        self.sampler = StealSampler(workloads.WINDOW_S)
        self.planned_windows = max(2, round(planned / workloads.WINDOW_S))
        self.planned = planned
        self.start = 0.0
        self.clean = 0
        self._seen = 0

    def begin(self) -> float:
        self.start = time.perf_counter() + 0.05
        self.sampler.begin(self.start)
        return self.start

    def stop(self, now: float) -> bool:
        elapsed = now - self.start
        windows = self.sampler.windows
        if len(windows) != self._seen:
            self.clean += sum(1 for w in windows[self._seen:] if w.steal <= workloads.STEAL_MAX)
            self._seen = len(windows)
        if elapsed >= self.planned * workloads.EXTEND_CAP:
            return True
        return elapsed >= self.planned and self.clean >= self.planned_windows

    def kept_windows(self):
        return split_windows(self.sampler.windows, workloads.STEAL_MAX,
                             self.planned_windows // 2)

    def summary(self, dropped) -> Dict[str, object]:
        return {
            "planned_s": self.planned,
            "measured_s": round(len(self.sampler.windows) * workloads.WINDOW_S, 3),
            "windows": len(self.sampler.windows),
            "dropped_windows": len(dropped),
            "steal_max": workloads.STEAL_MAX,
            "steal_per_window": [round(w.steal, 4) for w in self.sampler.windows],
        }


def open_phase(port: int, ops: List[Op], planned: float, prefix: str,
               pid: int) -> Dict[str, object]:
    phase = Phase(planned)
    generator = LoadGen(port, CONNECTIONS, prefix, phase.sampler.tick)
    try:
        start = phase.begin()
        cpu_before = cpu_seconds(pid)
        records = generator.open_loop(ops, start, phase.stop)
        cpu = cpu_seconds(pid) - cpu_before
    finally:
        generator.close()
    kept, dropped = phase.kept_windows()
    return {"records": records, "kept": kept, "dropped": dropped,
            "summaries": [phase.summary(dropped)], "cpu_s": cpu,
            "kernel_ms": generator.kernel_ms, "kernel_at": generator.kernel_at}


def _in_kept(kept, moment: float) -> bool:
    return window_of(kept, moment) is not None


def open_reads(result) -> List[Record]:
    """Open-loop reads due in low-steal windows."""
    return [record for record in result["records"]
            if record.op.kind == "read" and _in_kept(result["kept"], record.due)]


def _latency_ms(record: Record, failed: set) -> float:
    return record.latency * 1e3 if id(record) not in failed else FAILED_MS


def open_latencies(result, failed: set) -> List[float]:
    """Open-loop read latencies (ms, from due time) in low-steal windows."""
    return [_latency_ms(record, failed) for record in open_reads(result)]


def scaled_latencies(result, failed: set) -> List[float]:
    """The same latencies, each at the reference speed of the kernel passes
    timed nearest to its due time."""
    at, passes = result["kernel_at"], result["kernel_ms"]
    return [_latency_ms(record, failed) * speed.factor(speed.nearest(at, passes, record.due))
            for record in open_reads(result)]


def ingest_ms(result, failed: set) -> List[float]:
    """Round trips (ms) of the delta posts sent in low-steal windows."""
    return [
        (record.service_time * 1e3 if id(record) not in failed else FAILED_MS)
        for record in result["records"]
        if record.op.kind == "write" and _in_kept(result["kept"], record.sent)
    ]


def lateness_ms(result) -> Dict[str, float]:
    values = [record.lateness * 1e3 for record in result["records"]]
    return {"p50": percentile(values, 50.0), "p99": percentile(values, 99.0)}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------


def failures(plan, records: Sequence[Record]) -> Dict[str, set]:
    reads = [record for record in records if record.op.kind == "read"]
    if plan is workloads.CHURN:
        writes = [record for record in records if record.op.kind == "write"]
        return checks.churn_failures(reads, writes)
    return checks.scan_failures(reads)


def served(etag: Optional[str], body: bytes) -> Dict[str, object]:
    return {"sha256": hashlib.sha256(body).hexdigest(), "etag": etag,
            "snapshot": checks.snapshot_id(body)}


def churn_reference(port: int, ledger: Path, scratch: Path) -> Tuple[int, List[str]]:
    """(paths compared, paths whose live response differs from in-process
    dispatch over a copy of the final ledger)."""
    paths = [url for url in workloads.churn_urls()
             if not url.startswith(workloads.UNCOMPARABLE)]
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    observed = {}
    try:
        for path in paths:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
            if response.status == 200:
                observed[path] = served(response.getheader("ETag"), body)
    finally:
        conn.close()
    final = scratch / "final-ledger.db"
    shutil.copyfile(ledger, final)
    return len(paths), reference_check(observed, paths, ["--db", str(final)], scratch)


def reference_check(observed: Dict[str, dict], paths: Sequence[str],
                    source: Sequence[str], scratch: Path) -> List[str]:
    requests = [{"path": path, "snapshot": observed.get(path, {}).get("snapshot")}
                for path in paths]
    requests_file = write_json(scratch / "reference-requests.json", requests)
    reference = json.loads(run_tool([str(BENCH_DIR / "inproc.py"), "dispatch",
                                     *source, "--requests", str(requests_file)]))
    return checks.reference_mismatches(observed, reference)


def scan_sample(seed: int, records: Sequence[Record]) -> Dict[str, dict]:
    """A seeded sample of served api-scan responses, by path."""
    ok = [record for record in records
          if record.op.kind == "read" and record.status == 200]
    rng = random.Random(seed)
    sample = rng.sample(ok, min(workloads.SCAN_SAMPLE, len(ok)))
    return {record.op.path: served(record.etag, record.body) for record in sample}


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def _delta_count(seconds: float) -> int:
    """Deltas one run can post, extension included."""
    return int(seconds * workloads.EXTEND_CAP / workloads.CHURN.ingest_every) + 2


def _fresh_ledger(ledger: Optional[Path], scratch: Path) -> Optional[Path]:
    if ledger is None:
        return None
    copy = scratch / "ledger.db"
    for suffix in ("", "-journal", "-wal", "-shm"):
        Path(str(copy) + suffix).unlink(missing_ok=True)
    shutil.copyfile(ledger, copy)
    return copy


def _open_ops(plan, seed: int, seconds: float, feeds: List[bytes], schedule) -> List[Op]:
    if plan is workloads.CHURN:
        cap = seconds * workloads.EXTEND_CAP
        return (workloads.churn_reads(seed, plan.rate, cap)
                + workloads.churn_writes(feeds, plan.ingest_every, cap))
    return workloads.scan_reads(schedule)


def run(plan: workloads.ServingPlan, seed: int, seconds: float, trace: bool,
        env: Dict[str, object]) -> Dict[str, object]:
    scratch = WORK / "runs" / f"{plan.name}-{seed}-{'trace' if trace else 'e2e'}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    ledger = churn_ledger() if plan is workloads.CHURN else None
    feeds = churn_deltas(seed, _delta_count(seconds)) if ledger else []
    schedule = (scan_schedule(seed, seconds * workloads.EXTEND_CAP)
                if plan is workloads.SCAN else None)
    if trace:
        return _traced(plan, seed, seconds, ledger, feeds, schedule, scratch, env)

    starts = []
    bursts = []
    program = None
    for _attempt in range(workloads.COLD_STARTS):
        if program is not None:
            program.stop()
        copy = _fresh_ledger(ledger, scratch)
        bursts.append(speed.burst(workloads.SETUP_KERNEL_PASSES))
        program, port, elapsed = start_server(server_argv(plan, copy))
        starts.append(elapsed)
    bursts.append(speed.burst(workloads.SETUP_KERNEL_PASSES))
    try:
        ops = _open_ops(plan, seed, seconds, feeds, schedule)
        with Spinners():
            opened = open_phase(port, ops, seconds, "o", program.pid)
        peak_rss = vm_hwm_mib(program.pid)
        records = opened["records"]
        failed_by_rule = failures(plan, records)
        if plan is workloads.CHURN:
            checked, mismatched = churn_reference(port, copy, scratch)
    finally:
        program.stop()
    if plan is workloads.SCAN:
        sample = scan_sample(seed, opened["records"])
        checked = len(sample)
        mismatched = reference_check(sample, list(sample),
                                     ["--catalogue", "scaled:10x10"], scratch)
    failed = set().union(*failed_by_rule.values())

    scale = speed.factor(opened["kernel_ms"])
    open_ms = open_latencies(opened, failed)
    metrics = {
        "setup_s": (median(speed.bracketed(starts, bursts)), "s"),
        "peak_rss_mb": (peak_rss, "MiB"),
        "op_p50_ms": (percentile(scaled_latencies(opened, failed), 50.0), "ms"),
    }
    detail = {
        "setup_s_raw": starts,
        "setup_kernel_ms": timing_summary([ms for burst in bursts for ms in burst]),
        "speed": {"reference_ms": speed.REFERENCE_MS, "run_factor": scale,
                  "op_p50_ms_at_run_factor": percentile(open_ms, 50.0) * scale,
                  "open_loop_kernel_ms": timing_summary(opened["kernel_ms"])},
        "open_loop": {"phases": opened["summaries"], "rate": plan.rate,
                      "reads": timing_summary(open_ms),
                      "generator_lateness_ms": lateness_ms(opened)},
        "failed_by_rule": {rule: len(ids) for rule, ids in failed_by_rule.items()},
        "reference_mismatches": mismatched,
    }
    if plan.ingest_every:
        detail["ingests"] = timing_summary(ingest_ms(opened, failed))
    write_json(scratch / "detail.json", {"environment": env, **detail})
    return {
        "correct": not failed and not mismatched,
        "attempted": len(records) + checked,
        "failed": len(failed) + len(mismatched),
        "metrics": metrics,
        "detail": detail,
    }


def _traced(plan, seed, seconds, ledger, feeds, schedule, scratch, env):
    """Untraced baseline phase, then the same phase against the traced server."""
    base_s = seconds * 0.3
    traced_s = seconds - base_s
    ops = _open_ops(plan, seed, traced_s, feeds, schedule)

    program, port, _setup = start_server(server_argv(plan, _fresh_ledger(ledger, scratch)))
    try:
        with Spinners():
            base = open_phase(port, ops, base_s, "b", program.pid)
    finally:
        program.stop()

    ingest_loaded = None
    if plan is workloads.CHURN:
        # The churn server never builds the corpus; the ledger fixture does,
        # so a traced ``repro ingest`` supplies ``synthetic.build_s``.
        ingest_spans = scratch / "ingest-spans.jsonl"
        run_tool(traced_argv(["-m", "repro", "--db", str(scratch / "traced-ledger.db"),
                              "ingest"], ingest_spans))
        ingest_loaded = attribution.load_spans(ingest_spans)

    spans_path = scratch / "spans.jsonl"
    argv = traced_argv(server_argv(plan, _fresh_ledger(ledger, scratch)), spans_path)
    program, port, _setup = start_server(argv)
    try:
        with Spinners():
            traced = open_phase(port, ops, traced_s, "t", program.pid)
    finally:
        code = program.stop()
    if code != 0 or not spans_path.exists():
        raise BenchError(f"traced server exited {code}:\n{program.output_tail()}")

    records = base["records"] + traced["records"]
    failed_by_rule = failures(plan, base["records"])
    for rule, ids in failures(plan, traced["records"]).items():
        failed_by_rule[rule] = failed_by_rule[rule] | ids
    failed = set().union(*failed_by_rule.values())
    base_ms = open_latencies(base, failed)
    kept_reads = open_reads(traced)
    completed = sum(1 for record in base["records"] if record.done is not None)
    layers = attribution.serving(
        plan.name, attribution.load_spans(spans_path), kept_reads, traced["records"],
        untraced_p50_ms=percentile(base_ms, 50.0),
        cpu_ms_per_req=base["cpu_s"] * 1e3 / completed,
        ingest_loaded=ingest_loaded,
    )
    report = {
        "workload": plan.name, "seed": seed, "environment": env,
        "phases": {
            "untraced": {**base["summaries"][0],
                         "reads": timing_summary(base_ms),
                         "generator_lateness_ms": lateness_ms(base)},
            "traced": {**traced["summaries"][0],
                       "generator_lateness_ms": lateness_ms(traced)},
        },
        "failed_by_rule": {rule: len(ids) for rule, ids in failed_by_rule.items()},
        **layers["report"],
    }
    attribution.write_report(plan.name, seed, report)
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": layers["metrics"],
        "detail": {"report": str(attribution.report_path(plan.name, seed))},
    }
