"""A quorum-based BFT state-machine-replication service model.

This is not a full protocol implementation with message exchanges; it is the
abstraction the paper reasons about: a service replicated over ``n = 3f+1``
(or ``2f+1``) replicas that executes client requests as long as a quorum of
correct replicas exists and whose *safety* is lost once more than ``f``
replicas are compromised (compromised replicas can then equivocate and the
correct quorum intersection argument no longer holds).

The model tracks, over a sequence of exploit events:

* when (if ever) safety is violated;
* when (if ever) liveness is lost (fewer than a quorum of correct replicas);
* the request log agreed so far (requests executed while a correct quorum
  existed), so tests can assert that agreed entries never change afterwards.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.exceptions import SimulationError
from repro.itsys.attacker import ExploitEvent
from repro.itsys.replica import ReplicaGroup


class ServiceState(str, enum.Enum):
    """Externally observable health of the replicated service."""

    CORRECT = "correct"
    DEGRADED = "degraded"          # some replicas compromised, still <= f
    SAFETY_VIOLATED = "safety-violated"  # more than f compromised

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass
class ExecutionRecord:
    """One client request executed by the service."""

    sequence_number: int
    time: float
    quorum: Tuple[int, ...]  # replica ids that formed the quorum


@dataclass
class ServiceTimeline:
    """What happened to the service during a campaign."""

    state: ServiceState
    compromised_events: List[Tuple[float, str, int]] = field(default_factory=list)
    safety_violation_time: Optional[float] = None
    liveness_loss_time: Optional[float] = None
    executed: List[ExecutionRecord] = field(default_factory=list)
    #: Highest number of simultaneously compromised replicas observed at any
    #: point of the campaign.  Unlike the group's *final* compromised count,
    #: this is not reset by proactive recovery, so it is the right quantity
    #: for damage statistics under a ``recovery_interval``.
    peak_compromised: int = 0
    #: ``reach_times[k - 1]`` is when the compromised count first reached
    #: ``k``, for ``k`` up to ``peak_compromised``: the quorum-free record
    #: :func:`repro.itsys.simulation.result_from_tallies` scores.
    reach_times: List[float] = field(default_factory=list)

    @property
    def survived(self) -> bool:
        return self.state is not ServiceState.SAFETY_VIOLATED


class BFTService:
    """The replicated service built on top of a :class:`ReplicaGroup`."""

    def __init__(self, group: ReplicaGroup) -> None:
        self.group = group
        self._sequence = 0
        self._log: List[ExecutionRecord] = []

    # -- request execution -----------------------------------------------------------

    @property
    def log(self) -> Sequence[ExecutionRecord]:
        return tuple(self._log)

    def can_make_progress(self) -> bool:
        """Whether a quorum of correct replicas is available (liveness)."""
        return len(self.group.correct_replicas()) >= self.group.quorum_size

    def is_safe(self) -> bool:
        """Whether the safety condition (at most f compromised) still holds."""
        return not self.group.safety_violated

    def execute_request(self, time: float) -> ExecutionRecord:
        """Execute one client request (requires liveness and safety)."""
        if not self.is_safe():
            raise SimulationError("cannot execute requests on a compromised service")
        if not self.can_make_progress():
            raise SimulationError("no quorum of correct replicas is available")
        quorum = tuple(
            replica.replica_id
            for replica in self.group.correct_replicas()[: self.group.quorum_size]
        )
        self._sequence += 1
        record = ExecutionRecord(sequence_number=self._sequence, time=time, quorum=quorum)
        self._log.append(record)
        return record

    # -- campaign processing ------------------------------------------------------------

    def state(self) -> ServiceState:
        if self.group.safety_violated:
            return ServiceState.SAFETY_VIOLATED
        if self.group.compromised_count() > 0:
            return ServiceState.DEGRADED
        return ServiceState.CORRECT

    def run_campaign(
        self,
        exploits: Sequence[ExploitEvent],
        request_interval: Optional[float] = None,
        recovery_interval: Optional[float] = None,
        horizon: Optional[float] = None,
    ) -> ServiceTimeline:
        """Process a campaign of exploit events against the service.

        ``request_interval`` optionally executes a client request every so
        often while the service is live and safe (so the timeline carries an
        agreed log); ``recovery_interval`` optionally performs proactive
        recovery of all compromised replicas at that period.
        """
        # Replicas compromised before the campaign reached their counts when
        # they fell.
        already = sorted(
            replica.compromised_at for replica in self.group.compromised_replicas()
        )
        timeline = ServiceTimeline(
            state=self.state(), peak_compromised=len(already), reach_times=already
        )
        events: List[Tuple[float, int, str, object]] = []
        for exploit in exploits:
            events.append((exploit.time, 0, "exploit", exploit))
        end_time = horizon
        if end_time is None:
            end_time = max((e.time for e in exploits), default=0.0)
        if request_interval is not None and request_interval > 0:
            t = request_interval
            while t <= end_time:
                events.append((t, 1, "request", None))
                t += request_interval
        if recovery_interval is not None and recovery_interval > 0:
            t = recovery_interval
            while t <= end_time:
                events.append((t, 2, "recovery", None))
                t += recovery_interval
        events.sort(key=lambda item: (item[0], item[1]))

        for time, _priority, kind, payload in events:
            if kind == "exploit":
                exploit: ExploitEvent = payload  # type: ignore[assignment]
                newly = self.group.apply_exploit(time, exploit.cve_id, exploit.affected_os)
                if newly:
                    timeline.compromised_events.append((time, exploit.cve_id, newly))
                    count = self.group.compromised_count()
                    if count > timeline.peak_compromised:
                        timeline.reach_times.extend(
                            [time] * (count - timeline.peak_compromised)
                        )
                        timeline.peak_compromised = count
                if (
                    self.group.safety_violated
                    and timeline.safety_violation_time is None
                ):
                    timeline.safety_violation_time = time
                if (
                    not self.can_make_progress()
                    and timeline.liveness_loss_time is None
                ):
                    timeline.liveness_loss_time = time
            elif kind == "recovery":
                self.group.proactive_recovery()
            elif kind == "request":
                if self.is_safe() and self.can_make_progress():
                    timeline.executed.append(self.execute_request(time))
        timeline.state = self.state()
        return timeline
