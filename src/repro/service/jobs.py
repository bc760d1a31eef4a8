"""Background simulation jobs: submit, poll, drain.

Long-running work (Monte-Carlo sweeps) never executes inside a request:
``POST /v1/simulations`` validates the grid, registers a :class:`Job` and
returns ``202 Accepted`` with the job id; a worker thread then drives a
:class:`~repro.runner.runner.GridRunner` inline, in the worker that
accepted the job, and stores the deterministic
:meth:`~repro.runner.runner.SweepReport.to_json_payload` as the job
result.  Clients poll ``GET /v1/jobs/<id>`` through the
``queued -> running -> done | failed`` lifecycle.

Generated ids name the worker that owns the job (``job-<shard>-<n>``), so
ids from different workers of one deployment never collide and a poll
that lands on another worker can be forwarded to the owner.  Submission is
idempotent per client-supplied id: resubmitting the same id with the same
request body returns the existing job; the same id with a *different* body
is a 409 conflict.  Client-supplied ids are kept per worker.
:meth:`JobTable.drain` flips the table into drain mode (new submissions
fail with 503) and waits for running jobs -- the SIGTERM path of the
server.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.runner.grid import ExperimentGrid
from repro.service.errors import BadRequest, Conflict, Draining, NotFound

#: Job lifecycle states.
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"

#: Client-supplied job ids: conservative token charset only, so an id can
#: never smuggle header-breaking bytes into the ``Location`` header or
#: path separators into ``GET /v1/jobs/<id>`` routing.
JOB_ID_PATTERN = re.compile(r"^[A-Za-z0-9._-]{1,64}$")

#: Ids the table generates: ``job-<shard>-<n>``.
GENERATED_ID_PATTERN = re.compile(r"^job-(\d+)-\d+$")


def generating_shard(job_id: str) -> Optional[int]:
    """The shard index a generated job id names; ``None`` for any other id."""
    match = GENERATED_ID_PATTERN.match(job_id)
    return int(match.group(1)) if match else None


def request_fingerprint(payload: Mapping[str, object]) -> str:
    """Content address of a simulation request body (id excluded).

    Two bodies with the same fingerprint describe the same work, which is
    what makes resubmission under one client id idempotent.
    """
    material = {key: value for key, value in payload.items() if key != "id"}
    canonical = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class Job:
    """One background simulation job and its lifecycle record."""

    job_id: str
    fingerprint: str
    grid: ExperimentGrid
    seed: int
    dataset_digest: str
    #: The exact dataset the job was submitted against -- captured at
    #: submit time so a later snapshot delta (or registry eviction) cannot
    #: change what the job computes.
    dataset: object = field(default=None, repr=False, compare=False)
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None

    def payload(self) -> Dict[str, object]:
        """The JSON view polled via ``GET /v1/jobs/<id>``.

        Reads ``state`` exactly once: the executor writes result/error
        *before* flipping the state to a terminal value, so a payload that
        says ``done`` always carries its result (and the body never mixes
        two lifecycle stages), even though pollers read without a lock.
        """
        state = self.state
        body: Dict[str, object] = {
            "job_id": self.job_id,
            "state": state,
            "cells": len(self.grid),
            "runs_per_cell": self.grid.runs,
            "seed": self.seed,
            "dataset_digest": self.dataset_digest,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if state == DONE:
            body["result"] = self.result
        if state == FAILED:
            body["error"] = self.error
        return body


class JobTable:
    """Registers, executes and drains background simulation jobs.

    ``runner_factory(job)`` must return the sweep report payload for one
    job; the table owns a small thread pool that invokes it.  The factory
    runs off the event loop, so it may block for minutes -- the process
    pool inside :class:`~repro.runner.runner.GridRunner` provides the
    actual parallelism.  ``shard`` is the owning worker's index, stamped
    into every generated id.
    """

    def __init__(
        self,
        runner_factory: Callable[[Job], Dict[str, object]],
        executor_threads: int = 2,
        max_jobs: int = 128,
        shard: int = 0,
    ) -> None:
        if max_jobs < 1:
            raise ValueError("the job table needs room for at least one job")
        self._runner_factory = runner_factory
        self._executor = ThreadPoolExecutor(
            max_workers=executor_threads, thread_name_prefix="repro-job"
        )
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self._shard = shard
        self._draining = False
        self._idle = threading.Condition(self._lock)
        self._max_jobs = max_jobs

    @property
    def draining(self) -> bool:
        with self._lock:
            return self._draining

    def counts(self) -> Dict[str, int]:
        """Jobs per state (for ``/healthz``)."""
        with self._lock:
            counts = {QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
            for job in self._jobs.values():
                counts[job.state] += 1
            return counts

    # -- submission -----------------------------------------------------------

    def submit(
        self,
        grid: ExperimentGrid,
        seed: int,
        dataset_digest: str,
        fingerprint: str,
        job_id: Optional[str] = None,
        dataset: object = None,
    ) -> Job:
        """Register a job and schedule it; idempotent per client id.

        Returns the (new or existing) job.  Raises
        :class:`~repro.service.errors.Conflict` when ``job_id`` names an
        existing job with a different fingerprint, and
        :class:`~repro.service.errors.Draining` after :meth:`drain`.
        """
        with self._lock:
            if self._draining:
                raise Draining("the server is draining and accepts no new jobs")
            if job_id is not None:
                if not JOB_ID_PATTERN.match(job_id):
                    raise BadRequest(
                        f"invalid job id {job_id!r}; expected 1-64 characters "
                        "from [A-Za-z0-9._-]",
                        detail={"job_id": job_id},
                    )
                existing = self._jobs.get(job_id)
                if existing is not None:
                    if existing.fingerprint != fingerprint:
                        raise Conflict(
                            f"job {job_id!r} already exists with a different "
                            "request body",
                            detail={"job_id": job_id},
                        )
                    return existing
            else:
                # Generated ids skip over anything a client already claimed.
                while True:
                    job_id = f"job-{self._shard}-{next(self._counter)}"
                    if job_id not in self._jobs:
                        break
            job = Job(
                job_id=job_id,
                fingerprint=fingerprint,
                grid=grid,
                seed=seed,
                dataset_digest=dataset_digest,
                dataset=dataset,
            )
            self._jobs[job_id] = job
            self._order.append(job_id)
            self._evict_finished()
            # Scheduled under the lock so a concurrent drain() cannot shut
            # the executor down between the draining check and this call.
            self._executor.submit(self._execute, job)
        return job

    def _evict_finished(self) -> None:
        """Drop the oldest *terminal* jobs beyond the table bound.

        Called with the lock held.  Queued/running jobs are never evicted,
        so a long-lived server under periodic submissions holds a bounded
        history (a client that polls promptly always sees its result; one
        that returns after ``max_jobs`` newer submissions gets a 404, the
        same contract as any expiring job store).
        """
        if len(self._jobs) <= self._max_jobs:
            return
        for job_id in list(self._order):
            if len(self._jobs) <= self._max_jobs:
                break
            if self._jobs[job_id].state in (DONE, FAILED):
                del self._jobs[job_id]
                self._order.remove(job_id)

    def _execute(self, job: Job) -> None:
        with self._lock:
            job.state = RUNNING
            job.started_at = time.time()
        try:
            result = self._runner_factory(job)
        except Exception as error:  # repro: noqa[GEN301] -- worker-thread boundary: every failure is reported via the job record
            with self._idle:
                # Pollers read job fields without the lock, so the payload
                # (error/result) must be in place *before* the state flips
                # to a terminal value -- state is always written last.
                job.error = f"{type(error).__name__}: {error}"
                job.finished_at = time.time()
                job.dataset = None  # release the compiled corpus
                job.state = FAILED
                self._evict_finished()
                self._idle.notify_all()
            return
        with self._idle:
            job.result = result
            job.finished_at = time.time()
            job.dataset = None  # release the compiled corpus
            job.state = DONE
            self._evict_finished()
            self._idle.notify_all()

    # -- queries --------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise NotFound(f"no job named {job_id!r}", detail={"job_id": job_id})
        return job

    def list(self) -> List[Job]:
        """Jobs in submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    # -- shutdown -------------------------------------------------------------

    def drain(self, grace: float = 10.0) -> bool:
        """Refuse new jobs, wait up to ``grace`` seconds for running ones.

        Returns ``True`` when every job reached a terminal state in time.
        Idempotent; the executor is shut down either way (a job still
        running after the grace keeps its non-terminal state, which the
        caller can log).
        """
        deadline = time.monotonic() + grace
        with self._idle:
            self._draining = True
            while any(
                job.state in (QUEUED, RUNNING) for job in self._jobs.values()
            ):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._idle.wait(timeout=remaining)
            drained = all(
                job.state in (DONE, FAILED) for job in self._jobs.values()
            )
        # Queued-but-never-started jobs are cancelled; a job still running
        # past the grace is left to finish in the background (wait=False)
        # rather than blocking shutdown indefinitely.
        self._executor.shutdown(wait=drained, cancel_futures=not drained)
        return drained
