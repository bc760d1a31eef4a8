"""Attacker model: exploit-arrival processes over a vulnerability corpus.

The paper argues that a single attack can compromise several replicas only
when they share the exploited vulnerability.  The attacker model here makes
that concrete: exploits arrive over simulated time, each targeting one
vulnerability drawn from a corpus; the damage an exploit does to a replica
group is exactly the set of replicas whose OS is affected and unpatched.

Two arrival processes are provided:

* a **Poisson** process with a configurable rate (exploit development is an
  external random process, the common assumption in stochastic security
  models);
* a **publication-driven** process that replays the corpus in publication
  order, one exploit per vulnerability, optionally with a 0-day lead time
  (the paper's focus on undisclosed vulnerabilities);
* an **aging** (Weibull/Gompertz-style) process whose inter-arrival hazard
  changes over time: ``shape > 1`` models an attacker whose exploit
  production matures during the campaign, ``shape < 1`` an initial burst
  that tails off (``shape == 1`` degenerates to Poisson).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.core.enums import ServerConfiguration
from repro.core.exceptions import SimulationError
from repro.core.models import VulnerabilityEntry
from repro.classify.filters import ServerConfigurationFilter


@dataclass(frozen=True)
class ExploitEvent:
    """One weaponised vulnerability arriving at a point in simulated time."""

    time: float
    cve_id: str
    affected_os: FrozenSet[str]
    remote: bool

    @property
    def breadth(self) -> int:
        return len(self.affected_os)


def best_exploit_entry(
    pool: Iterable[VulnerabilityEntry], os_names: Sequence[str]
) -> Tuple[Optional[VulnerabilityEntry], int]:
    """The pool entry compromising the most distinct OSes of a group.

    Returns ``(entry, coverage)`` where ``coverage`` is the number of
    distinct group OSes the entry affects (``(None, 0)`` when nothing in the
    pool touches the group).  Ties are broken towards the smallest CVE id,
    so the choice is deterministic regardless of pool order.  Shared by
    :meth:`Attacker.best_single_exploit` and the bitset simulation engine,
    which must pick the same opening exploit as the naive path.
    """
    best_entry: Optional[VulnerabilityEntry] = None
    best_coverage = 0
    group = list(os_names)
    for entry in pool:
        coverage = len({name for name in group if entry.affects(name)})
        if coverage == 0:
            continue
        if (
            best_entry is None
            or coverage > best_coverage
            or (coverage == best_coverage and entry.cve_id < best_entry.cve_id)
        ):
            best_entry, best_coverage = entry, coverage
    return best_entry, best_coverage


class Attacker:
    """Generates exploit events from a vulnerability corpus."""

    def __init__(
        self,
        entries: Iterable[VulnerabilityEntry],
        configuration: ServerConfiguration = ServerConfiguration.ISOLATED_THIN,
        seed: int = 1,
    ) -> None:
        config_filter = ServerConfigurationFilter(configuration)
        self._pool: List[VulnerabilityEntry] = [
            entry for entry in entries if config_filter.admits(entry)
        ]
        if not self._pool:
            raise SimulationError("the attacker has no exploitable vulnerabilities")
        self._rng = random.Random(seed)

    @property
    def pool_size(self) -> int:
        return len(self._pool)

    def pool_for_os(self, os_name: str) -> List[VulnerabilityEntry]:
        """Vulnerabilities in the attacker's pool affecting a specific OS."""
        return [entry for entry in self._pool if entry.affects(os_name)]

    def targeted_pool(
        self, targeted_os: Optional[Sequence[str]]
    ) -> List[VulnerabilityEntry]:
        """The pool restricted to entries affecting at least one listed OS.

        ``None`` means an unfocused adversary: the whole pool.  Pool order is
        preserved, which matters for seeded reproducibility (exploits are
        drawn by index).
        """
        if targeted_os is None:
            return self._pool
        targets = set(targeted_os)
        return [entry for entry in self._pool if entry.affected_os & targets]

    # -- arrival processes ---------------------------------------------------------

    def poisson_campaign(
        self,
        rate: float,
        horizon: float,
        targeted_os: Optional[Sequence[str]] = None,
    ) -> List[ExploitEvent]:
        """Exploit events from a Poisson process of the given rate.

        ``rate`` is the expected number of new exploits per unit of simulated
        time and ``horizon`` the campaign length.  With ``targeted_os`` the
        attacker only weaponises vulnerabilities affecting at least one of the
        listed OSes (a focused adversary).
        """
        if rate <= 0:
            raise SimulationError("the exploit arrival rate must be positive")
        if horizon <= 0:
            raise SimulationError("the campaign horizon must be positive")
        pool = self.targeted_pool(targeted_os)
        if not pool:
            return []
        events: List[ExploitEvent] = []
        time = 0.0
        while True:
            time += self._rng.expovariate(rate)
            if time > horizon:
                break
            entry = self._rng.choice(pool)
            events.append(
                ExploitEvent(
                    time=time,
                    cve_id=entry.cve_id,
                    affected_os=frozenset(entry.affected_os),
                    remote=entry.is_remote,
                )
            )
        return events

    def aging_campaign(
        self,
        rate: float,
        shape: float,
        horizon: float,
        targeted_os: Optional[Sequence[str]] = None,
    ) -> List[ExploitEvent]:
        """Exploit events with Weibull-distributed inter-arrival times.

        The inter-arrival scale is ``1 / rate`` (so ``shape == 1`` is exactly
        the Poisson process of :meth:`poisson_campaign` up to the RNG stream);
        ``shape > 1`` models a maturing/aging attacker whose exploits arrive
        increasingly regularly (Gompertz-style increasing hazard between
        arrivals), ``shape < 1`` an early burst with a heavy quiet tail.
        """
        if rate <= 0:
            raise SimulationError("the exploit arrival rate must be positive")
        if shape <= 0:
            raise SimulationError("the inter-arrival shape must be positive")
        if horizon <= 0:
            raise SimulationError("the campaign horizon must be positive")
        pool = self.targeted_pool(targeted_os)
        if not pool:
            return []
        scale = 1.0 / rate
        events: List[ExploitEvent] = []
        time = 0.0
        while True:
            time += self._rng.weibullvariate(scale, shape)
            if time > horizon:
                break
            entry = self._rng.choice(pool)
            events.append(
                ExploitEvent(
                    time=time,
                    cve_id=entry.cve_id,
                    affected_os=frozenset(entry.affected_os),
                    remote=entry.is_remote,
                )
            )
        return events

    def publication_replay(
        self,
        zero_day_lead: float = 0.0,
        time_unit_days: float = 1.0,
    ) -> List[ExploitEvent]:
        """Replay the corpus in publication order, one exploit per entry.

        Exploit times are measured in simulated days from the earliest
        publication date; ``zero_day_lead`` shifts every exploit earlier to
        model attacks that precede disclosure.
        """
        if time_unit_days <= 0:
            raise SimulationError("time_unit_days must be positive")
        ordered = sorted(self._pool, key=lambda entry: (entry.published, entry.cve_id))
        origin = ordered[0].published
        events: List[ExploitEvent] = []
        for entry in ordered:
            offset_days = (entry.published - origin).days
            time = max(0.0, offset_days / time_unit_days - zero_day_lead)
            events.append(
                ExploitEvent(
                    time=time,
                    cve_id=entry.cve_id,
                    affected_os=frozenset(entry.affected_os),
                    remote=entry.is_remote,
                )
            )
        return events

    # -- single-shot adversary ----------------------------------------------------------

    def best_single_exploit(self, os_names: Sequence[str]) -> Tuple[Optional[str], int]:
        """The exploit compromising the most replicas of a group in one shot.

        Returns ``(cve_id, number_of_distinct_group_OSes_affected)``; a smart
        adversary attacking a diverse group starts from exactly this
        vulnerability.
        """
        entry, coverage = best_exploit_entry(self._pool, os_names)
        return (entry.cve_id if entry is not None else None), coverage

    def opening_exploit(
        self, os_names: Sequence[str], time: float = 0.0
    ) -> Optional[ExploitEvent]:
        """The smart adversary's first move: weaponise the best single exploit.

        Returns an :class:`ExploitEvent` at ``time`` for the vulnerability
        that compromises the most distinct OSes of the group, or ``None``
        when no pool entry affects the group at all.
        """
        entry, _coverage = best_exploit_entry(self._pool, os_names)
        if entry is None:
            return None
        return ExploitEvent(
            time=time,
            cve_id=entry.cve_id,
            affected_os=frozenset(entry.affected_os),
            remote=entry.is_remote,
        )
