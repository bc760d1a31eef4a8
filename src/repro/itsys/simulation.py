"""Monte-Carlo comparison of homogeneous vs diverse replica groups.

Ties the corpus, the attacker model and the BFT service model together: for a
set of candidate replica configurations, run many randomised exploit
campaigns and estimate the probability that the service's safety is violated
(more than ``f`` replicas compromised), the mean time to that violation and
the mean peak number of compromised replicas.

This turns the paper's qualitative argument -- "diversity reduces the chance
that one vulnerability takes out several replicas at once" -- into a number
that can be compared across configurations.

Two execution engines are provided, mirroring the analysis engine split of
:mod:`repro.analysis.engine`:

* ``"bitset"`` (default) -- one event loop for every campaign.  The
  attacker's exploitable pool is the corpus dataset's memoised
  ``filtered(configuration)`` view, filtered **once per dataset** (the
  naive path re-filters the whole corpus on every run), each exploit's
  victim set over the replica group is a precompiled integer bitmask
  (:class:`repro.analysis.engine.ReplicaIncidence`) and per-event damage is
  an AND-NOT + popcount, so a 500-run campaign runs at hardware speed.
  *When* events happen and *what* each event does come from the arrival
  model × adversary policy pair compiled by
  :func:`repro.itsys.scenarios.build_scenario`; the paper's classic
  adversary (``scenario=None``) is renewal arrivals × uniform choice;
* ``"naive"`` -- the original per-run ``Attacker`` + ``BFTService`` object
  path, kept as the reference implementation that classic campaigns are
  cross-checked against.  Scenario campaigns have no object-path twin and
  run the event loop on either engine.

Both engines consume the per-run random streams identically (seed
``seed + 7919 * run_index``, one ``expovariate``/``weibullvariate`` plus one
``choice`` per exploit) up to the point where the bitset engine ends a run
(below), so for a fixed seed they produce **bit-for-bit identical**
:class:`SimulationResult` values -- asserted by
``tests/itsys/test_simulation_equivalence.py`` and timed by
``benchmarks/bench_simulation.py``.

Because every run draws from its own ``random.Random(seed + 7919 *
run_index)`` stream, a campaign of ``runs`` runs can be split into disjoint
run ranges, executed anywhere (other processes, other machines) and merged
back without changing a single bit of the result.  That is the contract of
the partial-run API consumed by :mod:`repro.runner`:

* :meth:`CompromiseSimulation.run_range` executes runs ``[run_start,
  run_stop)`` and returns a :class:`RunRangeTallies`: for each run, the
  times the compromised count first reached 1, 2, … up to the run's peak;
* :func:`merge_run_ranges` merges partial tallies **order-independently**
  (partials are sorted by ``run_start`` before concatenation, so any
  completion order of parallel workers yields the same merged value) and
  rejects gaps and overlaps;
* :func:`result_from_tallies` scores a complete ``[0, runs)`` tally under
  one quorum model into the same :class:`SimulationResult` that
  :meth:`run_configuration` builds -- in fact ``run_configuration`` is
  implemented on top of these primitives, so the single-process and merged
  paths cannot drift apart.

The event loop never reads the quorum model: which replicas fall, and when,
does not depend on it; only the scoring does (safety is lost once the count
exceeds ``f``, liveness once fewer than a quorum stay correct).  So one
simulated run range scores under every quorum model, and
:class:`~repro.runner.runner.GridRunner` simulates the cells of a sweep that
differ only in their quorum model once.

A run ends once its record is complete.  The compromised count never
exceeds the number of replicas some exploit reaches (the popcount of the OR
of the group's victim masks), and only a rise extends the record, so the
event loop stops a run as soon as its peak reaches that bound -- and plays
no event at all when the smart opening already does.  Every run draws only
from its own stream, so no other run, range or sweep cell can see the
difference.  The naive path plays every event and stays the independent
reference.

Scenario knobs beyond the paper's Poisson attacker: a Weibull *aging*
inter-arrival process (``arrival="aging"``), a *smart* adversary that opens
the campaign with the single most damaging exploit
(:meth:`Attacker.best_single_exploit`), proactive-recovery interval sweeps
(:meth:`CompromiseSimulation.recovery_sweep`) and Wilson 95% confidence
intervals on every estimated probability.

Richer adversaries live in :mod:`repro.itsys.scenarios`: passing a
:class:`~repro.itsys.scenarios.ScenarioSpec` as the ``scenario`` campaign
keyword swaps the arrival-model/adversary-policy pair the event loop runs.
The per-run seeding contract is unchanged, so scenario campaigns merge,
cache and sweep exactly like classic ones.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.dataset import VulnerabilityDataset
from repro.analysis.engine import ReplicaIncidence
from repro.core.constants import OS_NAMES
from repro.core.enums import ServerConfiguration
from repro.core.exceptions import SimulationError
from repro.core.models import VulnerabilityEntry
from repro.itsys.attacker import Attacker, best_exploit_entry
from repro.itsys.bft import BFTService
from repro.itsys.replica import ReplicaGroup
from repro.itsys.scenarios import ScenarioSpec, build_scenario

#: Execution engines understood by :class:`CompromiseSimulation`.
ENGINES: Tuple[str, ...] = ("bitset", "naive")

#: Exploit inter-arrival processes understood by ``run_configuration``.
ARRIVALS: Tuple[str, ...] = ("poisson", "aging")

#: Two-sided z for the 95% Wilson score interval.
_WILSON_Z = 1.959963984540054


def wilson_interval(
    successes: int, trials: int, z: float = _WILSON_Z
) -> Tuple[float, float]:
    """Wilson score confidence interval for a binomial proportion.

    Unlike the normal approximation it stays inside ``[0, 1]`` and behaves
    sensibly at 0 or ``trials`` successes, which is exactly the regime of
    safety-violation counts for well-chosen diverse groups.  The boundary
    cases are pinned exactly: 0 successes yields a lower bound of exactly
    ``0.0`` and ``trials`` successes an upper bound of exactly ``1.0``
    (the analytic Wilson bounds, which float rounding would otherwise
    perturb by ~1e-17 for some trial counts -- see
    ``tests/itsys/test_wilson_boundaries.py``).
    """
    if trials <= 0:
        raise SimulationError("a confidence interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise SimulationError("successes must lie between 0 and trials")
    p = successes / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    centre = (p + z2 / (2.0 * trials)) / denominator
    half_width = (
        z
        * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials))
        / denominator
    )
    lower = 0.0 if successes == 0 else max(0.0, centre - half_width)
    upper = 1.0 if successes == trials else min(1.0, centre + half_width)
    return (lower, upper)


@dataclass(frozen=True)
class SingleExploitAnalysis:
    """What one weaponised vulnerability can do to a replica group.

    This is the deterministic core of the paper's argument: a single attack
    defeats an intrusion-tolerant group only if the exploited vulnerability is
    *common* to more than ``f`` of its (distinct) operating systems.
    """

    name: str
    os_names: Tuple[str, ...]
    #: Number of exploitable vulnerabilities that affect at least one replica.
    relevant_exploits: int
    #: Number of exploitable vulnerabilities that alone compromise more than
    #: ``f`` replicas (i.e. defeat the group in a single attack).
    defeating_exploits: int
    #: Average number of replicas compromised by one relevant exploit.
    mean_replicas_per_exploit: float

    @property
    def single_attack_defeat_probability(self) -> float:
        """P[a single relevant exploit defeats the group]."""
        if self.relevant_exploits == 0:
            return 0.0
        return self.defeating_exploits / self.relevant_exploits


@dataclass(frozen=True)
class SimulationResult:
    """Aggregated outcome of a Monte-Carlo campaign for one configuration."""

    name: str
    os_names: Tuple[str, ...]
    runs: int
    safety_violation_probability: float
    #: Mean over runs of the *peak* simultaneously-compromised count -- the
    #: timeline maximum, so proactively recovered replicas still count
    #: towards the damage they did before rejuvenation.
    mean_compromised: float
    mean_time_to_violation: Optional[float]
    liveness_loss_probability: float
    #: Wilson 95% confidence intervals on the two estimated probabilities.
    safety_violation_ci: Tuple[float, float] = (0.0, 1.0)
    liveness_loss_ci: Tuple[float, float] = (0.0, 1.0)

    def summary(self) -> str:
        """One-line human-readable summary."""
        mttv = (
            f"{self.mean_time_to_violation:.1f}"
            if self.mean_time_to_violation is not None
            else "n/a"
        )
        low, high = self.safety_violation_ci
        return (
            f"{self.name}: P[safety violated]={self.safety_violation_probability:.2f} "
            f"(95% CI {low:.2f}-{high:.2f}), "
            f"mean compromised={self.mean_compromised:.2f}, "
            f"mean time to violation={mttv}"
        )


@dataclass(frozen=True)
class RunRangeTallies:
    """What happened in the runs ``[run_start, run_stop)`` of one campaign.

    This is the *mergeable* partial result of a Monte-Carlo campaign: run
    ``i`` draws only from ``random.Random(seed + 7919 * i)``, so disjoint
    ranges are statistically and bit-wise independent and a full campaign is
    exactly the concatenation of its ranges in run order.

    The record is quorum-free: ``reach_times[r][k - 1]`` is the time the
    compromised count of the range's ``r``-th run first reached ``k``, for
    ``k`` up to that run's peak (so ``len(reach_times[r])`` *is* the peak,
    at most the group size).  :func:`result_from_tallies` scores it under a
    quorum model; runs are kept in run order so that the scored means
    iterate the same floats in the same order as a single-process campaign.
    """

    run_start: int
    run_stop: int
    #: Per run, in run order: when the compromised count first reached
    #: 1, 2, … up to the run's peak.
    reach_times: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if not 0 <= self.run_start < self.run_stop:
            raise SimulationError(
                f"invalid run range [{self.run_start}, {self.run_stop})"
            )
        if len(self.reach_times) != self.runs:
            raise SimulationError(
                f"range [{self.run_start}, {self.run_stop}) carries "
                f"{len(self.reach_times)} per-run records, expected {self.runs}"
            )

    @property
    def runs(self) -> int:
        """Number of runs covered by the range."""
        return self.run_stop - self.run_start


def merge_run_ranges(partials: Sequence[RunRangeTallies]) -> RunRangeTallies:
    """Merge disjoint partial tallies into one contiguous range.

    Merging is **order-independent**: partials are sorted by ``run_start``
    before concatenation, so shuffled worker-completion orders produce the
    same merged tallies bit for bit (regression-tested by
    ``tests/runner/test_merge.py``).  Each range must start where the one
    before it stopped: gaps, overlaps, duplicated ranges and an empty list
    raise :class:`~repro.core.exceptions.SimulationError` instead of
    silently corrupting the statistics.
    """
    if not partials:
        raise SimulationError("run ranges: cannot merge an empty list")
    ordered = sorted(partials, key=lambda tallies: tallies.run_start)
    reach_times: List[Tuple[float, ...]] = []
    for tallies in ordered:
        expected = ordered[0].run_start + len(reach_times)
        if tallies.run_start != expected:
            raise SimulationError(
                f"run ranges are not contiguous: expected a range starting "
                f"at {expected}, got [{tallies.run_start}, {tallies.run_stop})"
            )
        reach_times.extend(tallies.reach_times)
    return RunRangeTallies(
        run_start=ordered[0].run_start,
        run_stop=ordered[-1].run_stop,
        reach_times=tuple(reach_times),
    )


def is_catalogued(dataset: VulnerabilityDataset) -> bool:
    """Whether every OS of ``dataset`` is one of the paper's eleven.

    Replica groups over such a dataset resolve OS names against the
    catalogue (aliases allowed, typos fail fast); a scaled catalogue's
    release names (``generate_scaled_catalogue``) are kept verbatim.
    """
    return set(dataset.os_names) <= set(OS_NAMES)


def result_from_tallies(
    name: str,
    os_names: Sequence[str],
    tallies: RunRangeTallies,
    quorum_model: str = "3f+1",
) -> SimulationResult:
    """Score complete tallies under ``quorum_model`` into a campaign result.

    A run violates safety at the first time its compromised count reached
    ``f + 1``, and loses liveness iff its peak reached ``n - quorum + 1``
    (fewer than a quorum of correct replicas left); ``n``, ``f`` and the
    quorum are those of the :class:`~repro.itsys.replica.ReplicaGroup` over
    ``os_names``.  ``tallies`` must cover a full campaign
    (``run_start == 0``); partial ranges must be merged first.
    :meth:`CompromiseSimulation.run_configuration` routes through this
    function, so results assembled from merged parallel chunks are
    bit-for-bit identical to single-process campaigns.
    """
    if tallies.run_start != 0:
        raise SimulationError(
            f"a campaign result needs tallies starting at run 0, "
            f"got run {tallies.run_start}; merge the partial ranges first"
        )
    group = ReplicaGroup(list(os_names), quorum_model=quorum_model, catalogued=False)
    f = group.f
    tolerated = group.n - group.quorum_size  # compromised replicas liveness survives
    runs = tallies.runs
    peaks = [len(reached) for reached in tallies.reach_times]
    violation_times = [
        reached[f] for reached in tallies.reach_times if len(reached) > f
    ]
    violations = len(violation_times)
    liveness_losses = sum(1 for peak in peaks if peak > tolerated)
    return SimulationResult(
        name=name,
        os_names=tuple(os_names),
        runs=runs,
        safety_violation_probability=violations / runs,
        mean_compromised=statistics.fmean(peaks),
        mean_time_to_violation=(
            statistics.fmean(violation_times) if violation_times else None
        ),
        liveness_loss_probability=liveness_losses / runs,
        safety_violation_ci=wilson_interval(violations, runs),
        liveness_loss_ci=wilson_interval(liveness_losses, runs),
    )


class CompromiseSimulation:
    """Monte-Carlo estimator of compromise probabilities for replica groups.

    ``entries`` may be a :class:`~repro.analysis.dataset.VulnerabilityDataset`,
    which the simulation then shares (with its memoised views); otherwise a
    dataset is built over the entries and the paper's OS catalogue.
    ``engine`` selects the execution path (see the module docstring).
    Replica OS names are normalised against the catalogue only when the
    dataset's OSes all belong to it (:func:`is_catalogued`), so a scaled
    catalogue is simulated over its own dataset
    (``generate_scaled_catalogue(...).dataset()``).
    """

    def __init__(
        self,
        entries: Iterable[VulnerabilityEntry],
        configuration: ServerConfiguration = ServerConfiguration.ISOLATED_THIN,
        seed: int = 7,
        engine: str = "bitset",
    ) -> None:
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        self._dataset = (
            entries
            if isinstance(entries, VulnerabilityDataset)
            else VulnerabilityDataset(entries)
        )
        self._configuration = configuration
        self._seed = seed
        self._engine = engine
        self._catalogued = is_catalogued(self._dataset)

    @property
    def engine(self) -> str:
        return self._engine

    @property
    def seed(self) -> int:
        """Base seed; run ``i`` draws from ``Random(seed + 7919 * i)``."""
        return self._seed

    def with_engine(self, engine: str) -> "CompromiseSimulation":
        """A simulation over the same corpus and seed on another engine."""
        if engine == self._engine:
            return self
        return CompromiseSimulation(
            self._dataset,
            configuration=self._configuration,
            seed=self._seed,
            engine=engine,
        )

    # -- compiled state -------------------------------------------------------------

    def _compiled_pool(self) -> VulnerabilityDataset:
        """The attacker's exploitable pool: the dataset's shared view of the
        entries the configuration admits, filtered once per dataset."""
        pool = self._dataset.filtered(self._configuration)
        if not pool:
            # Same failure mode as constructing an Attacker over the corpus.
            raise SimulationError("the attacker has no exploitable vulnerabilities")
        return pool

    def _group(
        self, os_names: Sequence[str], quorum_model: str = "3f+1"
    ) -> ReplicaGroup:
        return ReplicaGroup(
            list(os_names), quorum_model=quorum_model, catalogued=self._catalogued
        )

    # -- single configuration -------------------------------------------------------

    def run_configuration(
        self,
        name: str,
        os_names: Sequence[str],
        runs: int = 200,
        exploit_rate: float = 1.0,
        horizon: float = 30.0,
        quorum_model: str = "3f+1",
        targeted: bool = True,
        recovery_interval: Optional[float] = None,
        arrival: str = "poisson",
        shape: float = 1.0,
        smart: bool = False,
        scenario: Optional[ScenarioSpec] = None,
    ) -> SimulationResult:
        """Estimate compromise statistics for one replica configuration.

        ``os_names`` lists the OS of each replica (repetition allowed, which
        models a homogeneous deployment).  ``targeted`` restricts the attacker
        to vulnerabilities affecting at least one of the group's OSes -- the
        pessimistic assumption that the adversary knows the deployment.
        ``arrival`` picks the inter-arrival process (``"poisson"`` or the
        Weibull ``"aging"`` process with the given ``shape``); ``smart``
        additionally opens every campaign with the single most damaging
        exploit against the group (a 0-day in hand before the clock starts).
        ``scenario`` selects a richer adversary from
        :mod:`repro.itsys.scenarios` (``None`` keeps the classic single
        adversary); the base arrival process composes with the scenario.
        """
        if runs <= 0:
            raise SimulationError("the number of runs must be positive")
        tallies = self.run_range(
            os_names,
            0,
            runs,
            exploit_rate=exploit_rate,
            horizon=horizon,
            targeted=targeted,
            recovery_interval=recovery_interval,
            arrival=arrival,
            shape=shape,
            smart=smart,
            scenario=scenario,
        )
        return result_from_tallies(name, os_names, tallies, quorum_model)

    def run_range(
        self,
        os_names: Sequence[str],
        run_start: int,
        run_stop: int,
        exploit_rate: float = 1.0,
        horizon: float = 30.0,
        targeted: bool = True,
        recovery_interval: Optional[float] = None,
        arrival: str = "poisson",
        shape: float = 1.0,
        smart: bool = False,
        scenario: Optional[ScenarioSpec] = None,
    ) -> RunRangeTallies:
        """Execute runs ``[run_start, run_stop)`` of a campaign.

        Run ``i`` is seeded ``seed + 7919 * i`` regardless of which range it
        belongs to, so splitting a campaign into disjoint ranges (for a
        process pool, say), executing them in any order and merging with
        :func:`merge_run_ranges` reproduces the single-range campaign bit
        for bit.  Campaign keyword arguments mean the same as in
        :meth:`run_configuration`; there is no quorum model, because the
        runs do not depend on it (:func:`result_from_tallies` applies it).
        """
        if not 0 <= run_start < run_stop:
            raise SimulationError(
                f"invalid run range [{run_start}, {run_stop}); "
                "run_start must satisfy 0 <= run_start < run_stop"
            )
        if arrival not in ARRIVALS:
            raise SimulationError(
                f"unknown arrival process {arrival!r}; expected one of {ARRIVALS}"
            )
        if exploit_rate <= 0:
            raise SimulationError("the exploit arrival rate must be positive")
        if arrival == "aging" and shape <= 0:
            raise SimulationError("the inter-arrival shape must be positive")
        if horizon <= 0:
            raise SimulationError("the campaign horizon must be positive")
        if recovery_interval is not None and recovery_interval <= 0:
            raise SimulationError("the recovery interval must be positive or None")
        if scenario is None and self._engine == "naive":
            reach_times = self._campaign_tallies_naive(
                os_names, run_start, run_stop, exploit_rate, horizon,
                targeted, recovery_interval, arrival, shape, smart,
            )
        else:
            reach_times = self._campaign_tallies(
                os_names, run_start, run_stop, exploit_rate, horizon,
                targeted, recovery_interval, arrival, shape, smart, scenario,
            )
        return RunRangeTallies(
            run_start=run_start, run_stop=run_stop, reach_times=tuple(reach_times)
        )

    # -- execution engines ----------------------------------------------------------

    def _campaign_tallies_naive(
        self,
        os_names: Sequence[str],
        run_start: int,
        run_stop: int,
        exploit_rate: float,
        horizon: float,
        targeted: bool,
        recovery_interval: Optional[float],
        arrival: str,
        shape: float,
        smart: bool,
    ) -> List[Tuple[float, ...]]:
        """Reference path: one ``Attacker`` + ``BFTService`` pair per run,
        filtering the corpus itself and playing every event."""
        reach_times: List[Tuple[float, ...]] = []
        for run_index in range(run_start, run_stop):
            attacker = Attacker(
                self._dataset,
                configuration=self._configuration,
                seed=self._seed + 7919 * run_index,
            )
            group = self._group(os_names)
            service = BFTService(group)
            targeted_os = list(set(os_names)) if targeted else None
            if arrival == "poisson":
                exploits = attacker.poisson_campaign(
                    rate=exploit_rate, horizon=horizon, targeted_os=targeted_os
                )
            else:
                exploits = attacker.aging_campaign(
                    rate=exploit_rate, shape=shape, horizon=horizon,
                    targeted_os=targeted_os,
                )
            if smart:
                opening = attacker.opening_exploit(os_names)
                if opening is not None:
                    exploits = [opening, *exploits]
            timeline = service.run_campaign(
                exploits, recovery_interval=recovery_interval, horizon=horizon
            )
            reach_times.append(tuple(timeline.reach_times))
        return reach_times

    def _campaign_tallies(
        self,
        os_names: Sequence[str],
        run_start: int,
        run_stop: int,
        exploit_rate: float,
        horizon: float,
        targeted: bool,
        recovery_interval: Optional[float],
        arrival: str,
        shape: float,
        smart: bool,
        scenario: Optional[ScenarioSpec],
    ) -> List[Tuple[float, ...]]:
        """The event loop: compile once, then one AND-NOT + popcount per event.

        *When* events happen and *what* each event does are delegated to the
        pair compiled by :func:`repro.itsys.scenarios.build_scenario`
        (``scenario=None`` is the classic renewal × uniform adversary).  All
        draws come from the per-run ``Random(seed + 7919 * run_index)``
        stream -- for classic campaigns in the naive path's order -- so
        results match the naive path and ranges merge bit for bit.  Each run
        yields the times its compromised count first reached 1, 2, … up to
        its peak, and ends once that peak reaches the replicas any exploit
        can reach.
        """
        pool = self._compiled_pool()
        group = self._group(os_names)
        if targeted:
            targets = set(os_names)
            targeted_pool = [
                entry for entry in pool if entry.affected_os & targets
            ]
        else:
            targeted_pool = pool
        incidence = ReplicaIncidence(targeted_pool, group.os_names)
        victim_masks = incidence.victim_masks
        opening_mask: Optional[int] = None
        if smart:
            entry, _coverage = best_exploit_entry(pool, os_names)
            if entry is not None:
                opening_mask = incidence.victim_mask_for(entry.affected_os)
        # The count never exceeds the replicas some exploit reaches (the
        # smart opening is a pool entry, and propagation spreads along the
        # victim masks), and only a rise extends a run's record, so a run
        # whose peak reaches this bound is complete and ends.
        reachable = 0
        for mask in victim_masks:
            reachable |= mask
        bound = reachable.bit_count()
        recovery_times: List[float] = []
        if recovery_interval is not None:
            t = recovery_interval
            while t <= horizon:  # same float accumulation as BFTService
                recovery_times.append(t)
                t += recovery_interval
        n_recoveries = len(recovery_times)
        if arrival == "aging":
            def draw_gap(rng, _scale=1.0 / exploit_rate, _shape=shape):
                return rng.weibullvariate(_scale, _shape)
        else:
            def draw_gap(rng, _rate=exploit_rate):
                return rng.expovariate(_rate)
        arrivals, policy = build_scenario(scenario, draw_gap, victim_masks, group.n)
        events, reset = arrivals.events, policy.reset
        choose, propagate = policy.choose, policy.propagate

        reach_times: List[Tuple[float, ...]] = []
        for run_index in range(run_start, run_stop):
            rng = random.Random(self._seed + 7919 * run_index)
            reset(rng)
            compromised = 0
            peak = 0
            reached: Tuple[float, ...] = ()
            if opening_mask:
                # The smart opening shot lands at time 0.0, before any
                # recovery (those start strictly after 0).
                compromised = opening_mask
                peak = compromised.bit_count()
                reached = (0.0,) * peak
            if peak < bound:
                recovery_index = 0
                for time in events(rng, horizon):
                    # Recoveries strictly before this exploit fire first
                    # (exploit < recovery at equal timestamps, as in
                    # BFTService.run_campaign's priority sort), so the
                    # policy aims at the post-recovery mask.
                    while (
                        recovery_index < n_recoveries
                        and recovery_times[recovery_index] < time
                    ):
                        compromised = 0
                        recovery_index += 1
                    entry_index = choose(rng, time, compromised)
                    if entry_index is None:
                        continue
                    newly = victim_masks[entry_index] & ~compromised
                    if not newly:
                        continue
                    compromised = propagate(rng, compromised | newly)
                    count = compromised.bit_count()
                    if count > peak:
                        reached += (time,) * (count - peak)
                        peak = count
                        if peak == bound:
                            break
            reach_times.append(reached)
        return reach_times

    # -- single-exploit (0-day) analysis -----------------------------------------------

    def single_exploit_analysis(
        self,
        name: str,
        os_names: Sequence[str],
        quorum_model: str = "3f+1",
    ) -> SingleExploitAnalysis:
        """Damage a single exploit can do to the group, over the whole pool.

        Walks every exploitable vulnerability in the (filtered) corpus and
        counts how many replicas of the group it would compromise on its own.
        A homogeneous group is defeated by *any* vulnerability of its OS; a
        diverse group only by a vulnerability common to more than ``f`` of its
        operating systems.
        """
        group = self._group(os_names, quorum_model)
        relevant = 0
        defeating = 0
        total_victims = 0
        if self._engine == "naive":
            attacker = Attacker(
                self._dataset, configuration=self._configuration, seed=self._seed
            )
            for entry in attacker.targeted_pool(None):
                victims = sum(
                    1 for replica in group.replicas
                    if replica.os_name in entry.affected_os
                )
                if victims == 0:
                    continue
                relevant += 1
                total_victims += victims
                if victims > group.f:
                    defeating += 1
        else:
            incidence = ReplicaIncidence(self._compiled_pool(), group.os_names)
            f = group.f
            for mask in incidence.victim_masks:
                if not mask:
                    continue
                victims = mask.bit_count()
                relevant += 1
                total_victims += victims
                if victims > f:
                    defeating += 1
        return SingleExploitAnalysis(
            name=name,
            os_names=tuple(os_names),
            relevant_exploits=relevant,
            defeating_exploits=defeating,
            mean_replicas_per_exploit=(total_victims / relevant) if relevant else 0.0,
        )

    # -- comparisons -----------------------------------------------------------------

    def compare(
        self,
        configurations: Mapping[str, Sequence[str]],
        **campaign: object,
    ) -> List[SimulationResult]:
        """Run the same campaign parameters over several configurations.

        Every keyword argument (``runs``, ``exploit_rate``, ``horizon``,
        ``quorum_model``, ``targeted``, ``recovery_interval``, ``arrival``,
        ``shape``, ``smart``) is forwarded verbatim to
        :meth:`run_configuration`, so compared configurations always run
        exactly what the caller requested.
        """
        return [
            self.run_configuration(name, os_names, **campaign)  # type: ignore[arg-type]
            for name, os_names in configurations.items()
        ]

    def homogeneous_vs_diverse(
        self,
        homogeneous_os: str,
        diverse_os: Sequence[str],
        **campaign: object,
    ) -> Tuple[SimulationResult, SimulationResult]:
        """The paper's base comparison: 4 identical replicas vs a diverse set.

        Both configurations run with identical campaign parameters -- all
        keyword arguments are forwarded to :meth:`run_configuration`.
        """
        n = len(diverse_os)
        homogeneous = self.run_configuration(
            f"homogeneous-{homogeneous_os}",
            [homogeneous_os] * n,
            **campaign,  # type: ignore[arg-type]
        )
        diverse = self.run_configuration(
            "diverse-" + "+".join(diverse_os),
            diverse_os,
            **campaign,  # type: ignore[arg-type]
        )
        return homogeneous, diverse

    def diversity_gain(
        self,
        homogeneous_os: str,
        diverse_os: Sequence[str],
        **campaign: object,
    ) -> Optional[float]:
        """Relative reduction in safety-violation probability from diversity.

        Return contract: ``1.0`` means diversity eliminated all violations
        observed for the homogeneous deployment, ``0.0`` means no improvement,
        negative values mean the diverse group fared worse, and ``None``
        means the homogeneous baseline itself had **no** violations, so the
        ratio is undefined -- deliberately distinct from ``0.0``, which would
        misreport a both-survived campaign as "diversity did not help".
        """
        homogeneous, diverse = self.homogeneous_vs_diverse(
            homogeneous_os, diverse_os, **campaign
        )
        if homogeneous.safety_violation_probability == 0:
            return None
        return 1.0 - (
            diverse.safety_violation_probability
            / homogeneous.safety_violation_probability
        )

    def recovery_sweep(
        self,
        name: str,
        os_names: Sequence[str],
        intervals: Sequence[Optional[float]],
        **campaign: object,
    ) -> Dict[Optional[float], SimulationResult]:
        """Run one configuration under several proactive-recovery intervals.

        ``intervals`` may include ``None`` (no recovery).  Returns one result
        per interval, keyed by the interval, with the result name suffixed by
        it -- the standard way to quantify how much rejuvenation frequency
        buys on top of diversity.
        """
        if "recovery_interval" in campaign:
            raise SimulationError(
                "pass recovery intervals via the sweep, not as a campaign kwarg"
            )
        results: Dict[Optional[float], SimulationResult] = {}
        for interval in intervals:
            label = (
                f"{name}@recovery={interval:g}"
                if interval is not None
                else f"{name}@no-recovery"
            )
            results[interval] = self.run_configuration(
                label, os_names, recovery_interval=interval, **campaign  # type: ignore[arg-type]
            )
        return results
