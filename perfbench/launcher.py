"""Traced launcher: time calls into each ``repro`` layer, then run the program.

    python perfbench/launcher.py --spans OUT -- <repro CLI arguments>
    python perfbench/launcher.py --spans OUT --batch -- <batch driver arguments>

The launcher imports the program, replaces the public calls listed in
``WRAPS`` with timing wrappers, and hands over to ``repro.cli.main`` (or to
the batch driver).  Nothing under ``src/`` changes.  Wrappers keep spans in
memory, one list per thread -- name, start, end, parent, request id, whether
the call raised, and a small per-call value -- and write them to ``OUT`` as
JSON lines when the program returns (for a server: after its SIGTERM drain).

The request id is the ``X-Repro-Trace`` header the generator stamps on each
request (read by the ``dispatch`` wrapper) or the batch driver's op id, and
is inherited by every span the same thread records under it.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

_IMPORT_STARTED = time.perf_counter()
import repro.cli  # noqa: E402  -- timed: this is ``cli.import_s``

IMPORT_S = time.perf_counter() - _IMPORT_STARTED

perf = time.perf_counter

#: (span name, "module:qualified.attr", value kind).  Value kinds: None,
#: "present" (result is not None), "int" (the result), "len" (its length),
#: "runs" ([runs, has_scenario] of a run_range call), "dispatch" / "async"
#: (request boundaries), "cm" (a context manager: time creation, enter, exit).
WRAPS = (
    ("service.dispatch_async", "repro.service.server:DiversityService.dispatch_async", "async"),
    ("service.dispatch", "repro.service.server:DiversityService.dispatch", "dispatch"),
    ("registry.current", "repro.service.registry:SnapshotDatasetProvider.current", None),
    ("registry.get", "repro.service.registry:ArtifactRegistry.get", None),
    ("registry.patch", "repro.service.registry:ArtifactRegistry.patch", "present"),
    ("registry.scope_digest", "repro.service.registry:CorpusArtifacts.scope_digest", None),
    ("cache.get", "repro.service.cache:ResponseCache.get", "present"),
    ("cache.invalidate_scope", "repro.service.cache:ResponseCache.invalidate_scope", "int"),
    ("schemas.build.shared", "repro.service.schemas:shared_payload", None),
    ("schemas.build.pairs", "repro.service.schemas:pair_matrix_payload", None),
    ("schemas.build.ksets", "repro.service.schemas:ksets_payload", None),
    ("schemas.build.widest", "repro.service.schemas:widest_payload", None),
    ("schemas.build.selection", "repro.service.schemas:selection_payload", None),
    ("schemas.dumps", "repro.service.schemas:dumps", "len"),
    ("analysis.compile", "repro.analysis.engine:IncidenceIndex.__init__", None),
    ("analysis.compile", "repro.analysis.engine:PackedIndex.__init__", None),
    ("analysis.shared", "repro.analysis.dataset:VulnerabilityDataset.shared_count", None),
    ("analysis.ksets", "repro.analysis.ksets:KSetAnalysis.per_combination_totals", None),
    ("analysis.selection", "repro.analysis.selection:ReplicaSetSelector.exhaustive", None),
    ("analysis.selection", "repro.analysis.selection:ReplicaSetSelector.greedy", None),
    ("analysis.selection", "repro.analysis.selection:ReplicaSetSelector.graph_based", None),
    ("snapshots.apply", "repro.snapshots.delta:DeltaIngestPipeline.apply_feed", None),
    ("snapshots.commit", "repro.snapshots.store:SnapshotStore.commit", None),
    ("snapshots.diff", "repro.snapshots.store:SnapshotStore.diff", None),
    ("snapshots.dataset_at", "repro.snapshots.store:SnapshotStore.dataset_at", None),
    ("nvd.parse", "repro.nvd.feed_parser:parse_xml_feed", None),
    ("db.upsert", "repro.db.database:VulnerabilityDatabase.upsert_entry", None),
    ("db.open", "repro.db.database:VulnerabilityDatabase.__init__", None),
    ("itsys.run_range", "repro.itsys.simulation:CompromiseSimulation.run_range", "runs"),
    ("runner.corpus_digest", "repro.runner.cache:corpus_digest", None),
    ("runner.scope_digest", "repro.runner.runner:GridRunner.scope_digest", None),
    ("runner.cache_get", "repro.runner.cache:ResultCache.get", "present"),
    ("runner.cache_put", "repro.runner.cache:ResultCache.put", None),
    ("reports.experiment", "repro.reports.experiments:Experiment.run", None),
    ("synthetic.build", "repro.synthetic.corpus:build_corpus", None),
    ("synthetic.build", "repro.synthetic.generator:generate_scaled_catalogue", None),
    ("obs.begin", "repro.obs.tracing:Tracer.begin", None),
    ("obs.finish", "repro.obs.tracing:Tracer.finish", None),
    ("obs.span", "repro.obs.tracing:Tracer.span", "cm"),
    ("obs.inc", "repro.obs.metrics:Counter.inc", None),
    ("obs.observe", "repro.obs.metrics:Histogram.observe", None),
)

#: The batch driver's operations, wrapped as request boundaries.
BATCH_WRAPS = (
    ("op.experiments", "perfbench.batch_driver:op_experiments", "op"),
    ("op.sweep-cold", "perfbench.batch_driver:op_sweep_cold", "op"),
    ("op.sweep-warm", "perfbench.batch_driver:op_sweep_warm", "op"),
)


class _ThreadSpans:
    __slots__ = ("number", "spans", "stack", "request")

    def __init__(self, number: int) -> None:
        self.number = number
        self.spans = []
        self.stack = []
        self.request = None


class Recorder:
    """Per-thread span lists; the only shared state is the list of lists."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads = []
        self._lock = threading.Lock()
        self._ops = 0

    def state(self) -> _ThreadSpans:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadSpans(len(self._threads))
                self._threads.append(state)
            self._local.state = state
            return state

    def next_op(self) -> int:
        with self._lock:
            self._ops += 1
            return self._ops

    def dump(self, path: Path, header: dict) -> None:
        with open(path, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for state in self._threads:
                for index, span in enumerate(state.spans):
                    if span is not None:
                        handle.write(json.dumps([state.number, index, *span]) + "\n")


RECORDER = Recorder()


def _value(kind, args, kwargs, result):
    if kind == "present":
        return int(result is not None)
    if kind == "int":
        return int(result)
    if kind == "len":
        return len(result)
    if kind == "runs":
        start = args[2] if len(args) > 2 else kwargs["run_start"]
        stop = args[3] if len(args) > 3 else kwargs["run_stop"]
        return [stop - start, int(kwargs.get("scenario") is not None)]
    return None


def make_wrapper(name, original, kind, recorder):
    """A synchronous timing wrapper around ``original``."""

    def wrapper(*args, **kwargs):
        state = recorder.state()
        outer_request = state.request
        if kind == "dispatch":
            state.request = args[1].headers.get("x-repro-trace")
        elif kind == "op":
            state.request = f"op{recorder.next_op()}:{name[3:]}"
        parent = state.stack[-1] if state.stack else -1
        index = len(state.spans)
        state.spans.append(None)
        state.stack.append(index)
        raised, value = 1, None
        started = perf()
        try:
            result = original(*args, **kwargs)
            raised = 0
            value = _value(kind, args, kwargs, result)
            return result
        finally:
            ended = perf()
            state.stack.pop()
            state.spans[index] = (name, started, ended, parent, state.request, raised, value)
            state.request = outer_request

    wrapper.__wrapped__ = original
    return wrapper


def make_async_wrapper(name, original):
    """Event-loop coroutines interleave, so their spans never nest."""

    async def wrapper(self, request, *args, **kwargs):
        state = RECORDER.state()
        raised = 1
        started = perf()
        try:
            result = await original(self, request, *args, **kwargs)
            raised = 0
            return result
        finally:
            state.spans.append(
                (name, started, perf(), -1, request.headers.get("x-repro-trace"),
                 raised, None)
            )

    wrapper.__wrapped__ = original
    return wrapper


class _TimedContext:
    """Times a context manager's enter and exit, not the block inside it."""

    __slots__ = ("context", "name")

    def __init__(self, context, name) -> None:
        self.context = context
        self.name = name

    def _leaf(self, started):
        state = RECORDER.state()
        parent = state.stack[-1] if state.stack else -1
        state.spans.append((self.name, started, perf(), parent, state.request, 0, None))

    def __enter__(self):
        started = perf()
        try:
            return self.context.__enter__()
        finally:
            self._leaf(started)

    def __exit__(self, *exc_info):
        started = perf()
        try:
            return self.context.__exit__(*exc_info)
        finally:
            self._leaf(started)


def make_context_wrapper(name, original):
    def wrapper(*args, **kwargs):
        started = perf()
        context = original(*args, **kwargs)
        timed = _TimedContext(context, name)
        timed._leaf(started)
        return timed

    wrapper.__wrapped__ = original
    return wrapper


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(wraps) -> int:
    """Wrap every target, rebinding module-level names imported elsewhere."""
    installed = 0
    for name, target, kind in wraps:
        owner, attr = _resolve(target)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "async":
            wrapper = make_async_wrapper(name, original)
        elif kind == "cm":
            wrapper = make_context_wrapper(name, original)
        else:
            wrapper = make_wrapper(name, original, kind, RECORDER)
        setattr(owner, attr, wrapper)
        installed += 1
        if not isinstance(owner, type):
            # ``from module import func`` bound the original elsewhere too.
            for module in list(sys.modules.values()):
                namespace = getattr(module, "__dict__", None)
                if not namespace or not getattr(module, "__name__", "").startswith(
                    ("repro", "perfbench")
                ):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return installed


#: Calls timed bare and wrapped to measure what one wrapper adds.
CALIBRATION_CALLS = 20000


def calibrate() -> dict:
    """What one wrapper adds: inside the span it records, and per call."""
    recorder = Recorder()

    def noop():
        return None

    wrapped = make_wrapper("calibrate", noop, None, recorder)
    started = perf()
    for _ in range(CALIBRATION_CALLS):
        noop()
    bare = perf() - started
    started = perf()
    for _ in range(CALIBRATION_CALLS):
        wrapped()
    traced = perf() - started
    inside = sorted(span[2] - span[1] for span in recorder.state().spans)
    return {
        "in_span_s": inside[len(inside) // 2],
        "per_call_s": (traced - bare) / CALIBRATION_CALLS,
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    options, program_args = argv[:split], argv[split + 1:]
    spans_path = Path(options[options.index("--spans") + 1])
    batch = "--batch" in options
    for module in {target.partition(":")[0] for _, target, _ in WRAPS}:
        importlib.import_module(module)
    header = {"import_s": IMPORT_S, "calibration": calibrate()}
    install(WRAPS)
    if batch:
        from perfbench import batch_driver

        install(BATCH_WRAPS)
        code = batch_driver.main(program_args)
    else:
        code = repro.cli.main(program_args)
    RECORDER.dump(spans_path, header)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
