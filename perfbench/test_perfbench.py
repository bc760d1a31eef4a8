"""Self-tests of the benchmark's own rules (pure: no program, no sockets).

    python -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib

import pytest

from perfbench import attribution, batch, checks, run, speed
from perfbench.host import BenchError
from perfbench.launcher import Recorder, make_wrapper
from perfbench.loadgen import Op, OpenLoopQueue, Record
from perfbench.stats import (
    Window,
    parse_cpu_line,
    percentile,
    samples_beyond,
    split_windows,
    steal_share,
    supported_percentile,
    window_of,
)


# -- highest supported percentile --------------------------------------------


@pytest.mark.parametrize(
    "count, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_needs_ten_samples_beyond(count, expected):
    assert supported_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


def test_nearest_rank_percentile():
    values = list(range(1, 1001))
    assert percentile(values, 50.0) == 500
    assert percentile(values, 99.0) == 990
    assert percentile([7.0], 99.0) == 7.0


# -- open-loop lateness on a fake clock --------------------------------------


def _read(due: float) -> Op:
    return Op(due=due, method="GET", path="/v1/catalogue")


def test_open_loop_charges_queueing_to_latency_not_lateness():
    """One connection, ops due every 10 ms, the first response takes 25 ms."""
    queue = OpenLoopQueue([_read(0.00), _read(0.01), _read(0.02)], start=100.0)
    clock = 100.0
    queue.release(clock)
    first = queue.take()
    record_a = Record(first, "a", 0, queue.due_of(first), 100.0, clock, None)
    record_a.done = 100.025  # the connection is busy until then
    clock = 100.0251  # generator notices 0.1 ms later
    queue.release(clock)
    assert len(queue.pending) == 2  # both later ops are due and waiting
    second = queue.take()
    record_b = Record(second, "b", 0, queue.due_of(second), record_a.done, clock, None)
    record_b.done = clock + 0.002
    assert record_b.lateness == pytest.approx(0.0001)  # only the generator's delay
    assert record_b.latency == pytest.approx(0.0171)  # due at 100.010, done 100.0271
    assert record_b.service_time == pytest.approx(0.002)


def test_open_loop_lateness_when_the_generator_oversleeps():
    queue = OpenLoopQueue([_read(0.5)], start=10.0)
    queue.release(10.49)
    assert not queue.pending and queue.next_due() == pytest.approx(10.5)
    queue.release(10.503)  # woke 3 ms late
    op = queue.take()
    record = Record(op, "x", 1, queue.due_of(op), 9.0, 10.503, None)
    assert record.lateness == pytest.approx(0.003)


# -- steal windows ------------------------------------------------------------


def test_steal_share_from_proc_stat_lines():
    before = parse_cpu_line("cpu  100 0 50 800 10 0 5 35 0 0")
    after = parse_cpu_line("cpu  150 0 60 880 10 0 5 55 7 0")
    assert before == (35, 1000)
    assert steal_share(before, after) == pytest.approx(20 / 160)


def test_windows_above_the_steal_threshold_are_dropped():
    windows = [Window(i * 0.5, (i + 1) * 0.5, steal)
               for i, steal in enumerate([0.0, 0.02, 0.27, 0.05, 0.11, 0.0])]
    kept, dropped = split_windows(windows, threshold=0.10, minimum=3)
    assert [w.steal for w in dropped] == [0.27, 0.11]
    assert [w.steal for w in kept] == [0.0, 0.02, 0.05, 0.0]
    assert window_of(kept, 1.2) is None  # inside a dropped window
    assert window_of(kept, 1.6) is kept[2]


def test_steal_filter_keeps_everything_when_too_few_windows_survive():
    windows = [Window(i, i + 1, 0.3) for i in range(4)] + [Window(4, 5, 0.0)]
    kept, dropped = split_windows(windows, threshold=0.10, minimum=2)
    assert kept == windows and dropped == []


# -- host speed scaling ---------------------------------------------------------


def test_times_are_scaled_by_the_median_kernel_pass():
    slow = [speed.REFERENCE_MS * 2] * 3
    fast = [speed.REFERENCE_MS / 2] * 3
    # one preempted pass and one impossibly fast pass leave the median alone
    assert speed.factor(slow + [1e9, 0.0]) == pytest.approx(0.5)
    assert speed.factor(fast + slow + fast) == pytest.approx(2.0)


def test_a_sample_is_scaled_by_the_passes_timed_nearest_to_it():
    at = [float(second) for second in range(30)]
    passes = [1.0] * 10 + [2.0] * 10 + [3.0] * 10
    assert set(speed.nearest(at, passes, 14.5)) == {2.0}
    assert len(speed.nearest(at, passes, 14.5)) == speed.NEAREST
    assert list(speed.nearest(at, passes, -5.0)) == passes[:speed.NEAREST]
    assert list(speed.nearest(at, passes, 99.0)) == passes[-speed.NEAREST:]
    assert list(speed.nearest(at[:4], passes[:4], 2.0)) == passes[:4]


def test_each_start_is_scaled_by_the_bursts_around_it():
    ref = speed.REFERENCE_MS
    bursts = [[ref] * 4, [ref] * 4, [ref * 3] * 4]
    # the second start's brackets have a median pass of 2 * ref
    assert speed.bracketed([1.0, 1.0], bursts) == pytest.approx([1.0, 0.5])


# -- result line and batch rounds ---------------------------------------------


def test_every_workload_prints_every_manifest_metric_or_fails():
    for trace in (False, True):
        wanted = run.manifest_metrics(trace)
        assert wanted
        measured = {name: (1.0, unit) for name, unit in wanted}
        measured["extra"] = (2.0, "ms")
        assert list(run.select_metrics(measured, wanted)) == [name for name, _ in wanted]
        name, unit = wanted[-1]
        with pytest.raises(BenchError, match=name):
            run.select_metrics({k: v for k, v in measured.items() if k != name}, wanted)
        with pytest.raises(BenchError, match=name):
            run.select_metrics({**measured, name: (1.0, unit + "x")}, wanted)


def _op(number, kind, ms, steal=0.0, kernel_ms=speed.REFERENCE_MS):
    return {"round": number, "op": kind, "ms": ms, "steal": steal, "ok": True,
            "kernel_ms": [kernel_ms] * 3}


def test_a_round_is_its_three_ops_and_a_stolen_round_is_dropped():
    samples = []
    for number, steal in enumerate([0.0, 0.02, 0.3, 0.0]):
        samples += [_op(number, "experiments", 200.0 + number),
                    _op(number, "sweep-cold", 350.0, steal),
                    _op(number, "sweep-warm", 60.0)]
    assert [batch.round_ms(ops) for ops in batch.kept_rounds(samples)] == [610.0, 611.0, 613.0]
    for sample in samples:
        sample["steal"] = 0.5  # nothing survives: every round counts
    assert len(batch.kept_rounds(samples)) == 4


def test_a_round_is_scaled_by_the_passes_timed_inside_it():
    slow = [_op(0, kind, 100.0, kernel_ms=speed.REFERENCE_MS * 2)
            for kind in ("experiments", "sweep-cold")]
    fast = [_op(0, "sweep-warm", 100.0, kernel_ms=speed.REFERENCE_MS / 2)]
    assert batch.scaled_round_ms(slow + fast) == pytest.approx(150.0)


# -- span self time -----------------------------------------------------------


def _span(thread, index, name, start, end, parent=-1, request="r1"):
    return attribution.Span(thread, index, name, start, end, parent, request, 0, None)


def test_self_time_subtracts_the_union_of_children():
    spans = attribution.build_tree([
        _span(0, 0, "service.dispatch", 0.0, 10.0),
        _span(0, 1, "registry.get", 1.0, 4.0, parent=0),
        _span(0, 2, "db.open", 1.5, 2.5, parent=1),
        _span(0, 3, "schemas.build.shared", 5.0, 9.0, parent=0),
        _span(0, 4, "obs.inc", 8.5, 9.5, parent=3),  # overruns its parent
        _span(1, 0, "registry.get", 2.0, 3.0, parent=0),  # other thread: not a child
    ])
    dispatch, get, db_open, build, inc, _other = spans
    assert attribution.self_time(dispatch) == pytest.approx(3.0)
    assert attribution.self_time(get) == pytest.approx(2.0)
    assert attribution.self_time(db_open) == pytest.approx(1.0)
    assert attribution.self_time(build) == pytest.approx(3.5)
    assert attribution.self_time(inc) == pytest.approx(1.0)
    # every layer under the boundary, in ms: 2 + 1 + 3.5 + 1
    assert attribution._named_ms(dispatch) == pytest.approx(7500.0)


def test_wrapper_records_parent_request_and_raise():
    recorder = Recorder()

    def inner(value):
        if value < 0:
            raise ValueError(value)
        return value

    traced_inner = make_wrapper("inner", inner, None, recorder)

    class Request:
        headers = {"x-repro-trace": "t-1"}

    def handler(_self, _request):
        traced_inner(1)
        with pytest.raises(ValueError):
            traced_inner(-1)

    make_wrapper("service.dispatch", handler, "dispatch", recorder)(None, Request())
    spans = recorder.state().spans
    names = [(span[0], span[3], span[4], span[5]) for span in spans]
    assert names == [("service.dispatch", -1, "t-1", 0), ("inner", 0, "t-1", 0),
                     ("inner", 0, "t-1", 1)]
    assert recorder.state().request is None


# -- correctness rules count stale and wrong responses ------------------------


def _record(kind, key, status, sent, done, etag=None, presented=None, body=b"",
            conn=0, path="/v1/shared?os=A,B"):
    op = Op(due=sent, method="GET" if kind == "read" else "POST", path=path,
            kind=kind, key=key)
    record = Record(op, f"{kind}{sent}", conn, sent, sent, sent, presented)
    record.done, record.status, record.etag, record.body = done, status, etag, body
    return record


def test_a_304_for_a_retired_etag_is_a_failure():
    old = _record("read", 0, 200, 0.1, 0.2, etag='"e1"', body=b'{"a": 1}')
    ingest = _record("write", 0, 200, 1.0, 1.2)
    fresh = _record("read", 0, 200, 1.3, 1.4, etag='"e2"', body=b'{"a": 2}')
    stale = _record("read", 0, 304, 1.5, 1.6, presented='"e1"')
    valid = _record("read", 0, 304, 1.7, 1.8, presented='"e2"')
    reads = [old, fresh, stale, valid]
    failed = checks.stale_etag_failures(reads, [ingest])
    assert failed == {id(stale)}
    assert checks.status_failures(reads, [ingest]) == set()


def test_a_retired_etag_served_again_is_a_failure_even_without_a_304():
    old = _record("read", 3, 200, 0.1, 0.2, etag='"e1"')
    first = _record("write", 0, 200, 1.0, 1.2)
    fresh = _record("read", 3, 200, 1.3, 1.4, etag='"e2"')
    second = _record("write", 1, 200, 2.0, 2.2)
    back = _record("read", 3, 200, 2.3, 2.4, etag='"e1"')
    failed = checks.stale_etag_failures([old, fresh, back], [first, second])
    assert failed == {id(back)}


def test_an_etag_whose_content_came_back_is_current_again_only_with_a_newer_body():
    def body(snapshot):
        return b'{"dataset": {"snapshot_id": %d}}' % snapshot

    first = _record("read", 5, 200, 0.1, 0.2, etag='"a"', body=body(1))
    ingests = [_record("write", index, 200, 1.0 + index, 1.2 + index) for index in range(3)]
    replaced = _record("read", 5, 200, 1.3, 1.4, etag='"b"', body=body(2))
    back = _record("read", 5, 200, 2.3, 2.4, etag='"a"', body=body(3))
    revalidated = _record("read", 5, 304, 2.5, 2.6, presented='"a"')
    stale = _record("read", 5, 200, 3.3, 3.4, etag='"b"', body=body(2))
    reads = [first, replaced, back, revalidated, stale]
    assert checks.stale_etag_failures(reads, ingests) == {id(stale)}


def test_unchanged_etags_may_keep_revalidating_across_ingests():
    before = _record("read", 1, 200, 0.1, 0.2, etag='"w"')
    ingest = _record("write", 0, 200, 1.0, 1.2)
    after = _record("read", 1, 304, 1.3, 1.4, presented='"w"')
    assert checks.stale_etag_failures([before, after], [ingest]) == set()


def test_a_wrong_body_under_one_etag_is_a_failure():
    good = _record("read", 0, 200, 0.1, 0.2, etag='"e"', body=b'{"shared": 3}')
    wrong = _record("read", 0, 200, 0.3, 0.4, etag='"e"', body=b'{"shared": 4}')
    assert checks.scan_failures([good, wrong])["etag_body"] == {id(wrong)}


def test_error_statuses_and_snapshot_regressions_fail():
    newer = _record("read", 0, 200, 0.1, 0.2, body=b'{"dataset": {"snapshot_id": 3}}')
    older = _record("read", 0, 200, 0.3, 0.4, body=b'{"dataset": {"snapshot_id": 2}}')
    other_url = _record("read", 1, 200, 0.5, 0.6, path="/v1/catalogue",
                        body=b'{"dataset": {"snapshot_id": 1}}')
    broken = _record("read", 0, 500, 0.7, 0.8)
    refused = _record("write", 0, 409, 1.0, 1.1)
    failed = checks.churn_failures([newer, older, other_url, broken], [refused])
    assert failed["snapshot_regression"] == {id(older)}
    assert failed["status"] == {id(broken), id(refused)}


def test_reference_mismatch_on_wrong_bytes_or_a_stale_etag():
    body = b'{"shared": 3}'
    digest = hashlib.sha256(body).hexdigest()
    reference = [
        {"path": "/ok", "status": 200, "sha256": digest, "etag": '"e"'},
        {"path": "/bytes", "status": 200, "sha256": digest, "etag": '"e"'},
        {"path": "/etag", "status": 200, "sha256": digest, "etag": '"new"'},
    ]
    observed = {
        "/ok": {"sha256": digest, "etag": '"e"'},
        "/bytes": {"sha256": hashlib.sha256(b"{}").hexdigest(), "etag": '"e"'},
        "/etag": {"sha256": digest, "etag": '"e"'},
    }
    assert checks.reference_mismatches(observed, reference) == ["/bytes", "/etag"]
