"""Composable adversary scenario library for :class:`CompromiseSimulation`.

Every campaign the simulator's event loop runs is an arrival model ×
adversary policy pair compiled by :func:`build_scenario`.  The paper's
classic adversary (``scenario=None``) is :class:`RenewalArrivals` ×
:class:`UniformPolicy`: one Poisson or Weibull-aging renewal stream, each
event throwing a uniformly random exploit.  This module grows that into a
small library of richer adversary *scenarios*, built from the same two
pluggable pieces:

* an :class:`ArrivalModel` -- *when* exploit events happen.  Implementations
  yield strictly increasing absolute event times drawn from the per-run
  ``random.Random`` stream (one gap draw per event, in a documented order),
  so scenario runs keep the bit-for-bit seed-splitting contract of
  :meth:`CompromiseSimulation.run_range`.
* an :class:`AdversaryPolicy` -- *what* each event does.  Implementations
  pick the exploit that lands (or ``None`` for a fizzled attempt) and may
  propagate damage after a successful landing, all over the precompiled
  :class:`repro.analysis.engine.ReplicaIncidence` victim bitmasks.

Four scenario families are provided, selected by :class:`ScenarioSpec`:

``campaign``
    Coordinated multi-adversary campaign: ``adversaries`` independent
    attackers share the exploit pool, each running its own renewal process;
    their event streams are superposed into one timeline (merged in time
    order, ties broken by adversary index).
``patch-race``
    Vulnerabilities close over time while the attacker races the patch.  At
    run start a closure time is drawn for every pool entry -- either from a
    Gompertz-style increasing hazard (``closure="gompertz"``) or resampled
    from empirically observed lifetimes (``closure="empirical"``, e.g. from
    :func:`repro.snapshots.closure_lifetimes` over the snapshot ledger).
    An exploit thrown after its vulnerability closed fizzles.
``epidemic``
    Cross-replica propagation over the compiled incidence structure: after
    each primary infection, every currently compromised replica infects --
    with probability ``spread`` -- all replicas sharing a vulnerability with
    it (the OR of the victim masks covering that replica).
``adaptive``
    An adversary that re-targets using the live incidence matrix:
    with probability ``explore`` it throws a uniformly random exploit,
    otherwise the exploit maximising the number of *newly* compromised
    replicas given the current compromise mask (lowest pool index wins
    ties; memoised per mask, so the pool is scanned once per distinct
    mask).

Every family consumes only the per-run RNG it is handed, so scenario
campaigns stay mergeable (:class:`RunRangeTallies`), cacheable
(:mod:`repro.runner.cache`) and sweepable (:class:`repro.runner.grid
.ExperimentGrid` grows a scenario axis); ``workers=1`` and ``workers=N``
merged results are byte-identical per seed, property-tested by
``tests/itsys/test_scenarios.py`` and ``tests/runner/test_scenario_parallel.py``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.exceptions import SimulationError

#: Scenario families understood by :class:`ScenarioSpec`.
SCENARIOS: Tuple[str, ...] = ("campaign", "patch-race", "epidemic", "adaptive")

#: Patch-closure models understood by the ``patch-race`` family.
CLOSURE_MODELS: Tuple[str, ...] = ("gompertz", "empirical")

#: A gap sampler: draws one inter-arrival gap from the given RNG.
GapSampler = Callable[["_Random"], float]

# Typing alias kept local to avoid importing random at module scope for a
# type annotation only.
_Random = "random.Random"


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one adversary scenario.

    Knobs that do not apply to the selected ``family`` are normalised back
    to their defaults (mirroring :class:`repro.runner.grid.ArrivalSpec`), so
    two specs that behave identically always compare -- and therefore cache
    and deduplicate -- as equal.

    ``lifetimes`` (the ``closure="empirical"`` sample pool) is stored
    sorted ascending; the empirical sampler draws by index from the sorted
    tuple, making the draw independent of the order lifetimes were
    collected in.
    """

    family: str
    #: ``campaign``: number of coordinated adversaries sharing the pool.
    adversaries: int = 2
    #: ``patch-race``: closure-time model (``"gompertz"`` or ``"empirical"``).
    closure: str = "gompertz"
    #: ``patch-race``/gompertz: time scale of the closure hazard.
    closure_scale: float = 2.0
    #: ``patch-race``/gompertz: hazard shape (larger closes vulns faster).
    closure_shape: float = 1.0
    #: ``patch-race``/empirical: observed lifetimes to resample from.
    lifetimes: Tuple[float, ...] = ()
    #: ``epidemic``: per-replica propagation probability after each landing.
    spread: float = 0.25
    #: ``adaptive``: probability of a uniformly random (exploring) throw.
    explore: float = 0.25

    def __post_init__(self) -> None:
        if self.family not in SCENARIOS:
            raise SimulationError(
                f"unknown scenario family {self.family!r}; "
                f"expected one of {SCENARIOS}"
            )
        set_ = object.__setattr__
        if self.family == "campaign":
            if int(self.adversaries) != self.adversaries or self.adversaries < 1:
                raise SimulationError(
                    "a campaign scenario needs at least one adversary"
                )
            set_(self, "adversaries", int(self.adversaries))
        else:
            set_(self, "adversaries", 2)
        if self.family == "patch-race":
            if self.closure not in CLOSURE_MODELS:
                raise SimulationError(
                    f"unknown closure model {self.closure!r}; "
                    f"expected one of {CLOSURE_MODELS}"
                )
            if self.closure == "empirical":
                if not self.lifetimes:
                    raise SimulationError(
                        "an empirical patch-race scenario needs observed "
                        "lifetimes (see repro.snapshots.closure_lifetimes)"
                    )
                if any(value <= 0 for value in self.lifetimes):
                    raise SimulationError("closure lifetimes must be positive")
                set_(
                    self,
                    "lifetimes",
                    tuple(sorted(float(value) for value in self.lifetimes)),
                )
                set_(self, "closure_scale", 2.0)
                set_(self, "closure_shape", 1.0)
            else:
                if self.closure_scale <= 0 or self.closure_shape <= 0:
                    raise SimulationError(
                        "gompertz closure scale and shape must be positive"
                    )
                set_(self, "closure_scale", float(self.closure_scale))
                set_(self, "closure_shape", float(self.closure_shape))
                set_(self, "lifetimes", ())
        else:
            set_(self, "closure", "gompertz")
            set_(self, "closure_scale", 2.0)
            set_(self, "closure_shape", 1.0)
            set_(self, "lifetimes", ())
        if self.family == "epidemic":
            if not 0.0 < self.spread <= 1.0:
                raise SimulationError(
                    "the epidemic spread probability must be in (0, 1]"
                )
            set_(self, "spread", float(self.spread))
        else:
            set_(self, "spread", 0.25)
        if self.family == "adaptive":
            if not 0.0 <= self.explore <= 1.0:
                raise SimulationError(
                    "the adaptive explore probability must be in [0, 1]"
                )
            set_(self, "explore", float(self.explore))
        else:
            set_(self, "explore", 0.25)

    @property
    def label(self) -> str:
        """Short human-readable identifier, used in cell ids and CSV rows."""
        if self.family == "campaign":
            return f"campaign(n={self.adversaries})"
        if self.family == "patch-race":
            if self.closure == "empirical":
                return f"patch-race(empirical,{len(self.lifetimes)})"
            return (
                f"patch-race(gompertz,s={self.closure_scale:g},"
                f"k={self.closure_shape:g})"
            )
        if self.family == "epidemic":
            return f"epidemic(p={self.spread:g})"
        return f"adaptive(eps={self.explore:g})"

    def params(self) -> dict:
        """Canonical JSON-safe parameter dict (cache keys, CLI payloads)."""
        return {
            "family": self.family,
            "adversaries": self.adversaries,
            "closure": self.closure,
            "closure_scale": self.closure_scale,
            "closure_shape": self.closure_shape,
            "lifetimes": list(self.lifetimes),
            "spread": self.spread,
            "explore": self.explore,
        }


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse a CLI scenario token ``family[:key=value[,key=value...]]``.

    Recognised keys: ``adversaries`` (campaign), ``closure``/``scale``/
    ``shape``/``lifetimes`` (patch-race; ``lifetimes`` is ``;``-separated),
    ``spread`` (epidemic) and ``explore`` (adaptive).  Examples::

        campaign:adversaries=3
        patch-race:closure=gompertz,scale=1.5,shape=2
        patch-race:closure=empirical,lifetimes=0.5;1.25;4
        epidemic:spread=0.4
        adaptive:explore=0.1
    """
    family, _, rest = text.strip().partition(":")
    family = family.strip()
    kwargs: dict = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not key or not value:
                raise SimulationError(
                    f"malformed scenario option {item!r} in {text!r}; "
                    "expected key=value"
                )
            try:
                if key == "adversaries":
                    kwargs["adversaries"] = int(value)
                elif key == "closure":
                    kwargs["closure"] = value
                elif key == "scale":
                    kwargs["closure_scale"] = float(value)
                elif key == "shape":
                    kwargs["closure_shape"] = float(value)
                elif key == "lifetimes":
                    kwargs["lifetimes"] = tuple(
                        float(part) for part in value.split(";") if part
                    )
                elif key == "spread":
                    kwargs["spread"] = float(value)
                elif key == "explore":
                    kwargs["explore"] = float(value)
                else:
                    raise SimulationError(
                        f"unknown scenario option {key!r} in {text!r}"
                    )
            except ValueError as error:
                raise SimulationError(
                    f"invalid scenario option value {item!r} in {text!r}"
                ) from error
    return ScenarioSpec(family=family, **kwargs)


def gompertz_closure_time(rng, scale: float, shape: float) -> float:
    """One closure time from the Gompertz hazard via inverse-CDF sampling.

    CDF ``F(t) = 1 - exp(-shape * (exp(t / scale) - 1))`` -- an increasing
    hazard, the qualitative shape the Beta-Gompertz vulnerability-lifetime
    literature fits to patch-closure data: the longer a vulnerability has
    been public, the likelier it closes soon.  Consumes exactly one
    ``rng.random()`` draw.
    """
    u = rng.random()
    return scale * math.log1p(-math.log1p(-u) / shape)


# -- arrival models ---------------------------------------------------------------


class ArrivalModel:
    """Yields strictly increasing absolute event times for one run.

    Implementations draw only from the RNG passed to :meth:`events` and
    document their draw order, preserving run-seed determinism.
    """

    def events(self, rng, horizon: float) -> Iterator[float]:
        raise NotImplementedError


class RenewalArrivals(ArrivalModel):
    """Single renewal stream: successive gaps from one sampler."""

    __slots__ = ("_draw_gap",)

    def __init__(self, draw_gap: Callable) -> None:
        self._draw_gap = draw_gap

    def events(self, rng, horizon: float) -> Iterator[float]:
        time = 0.0
        while True:
            time += self._draw_gap(rng)
            if time > horizon:
                return
            yield time


class SuperposedArrivals(ArrivalModel):
    """Merged timeline of several independent renewal streams.

    Draw order is fully determined: one opening gap per stream in stream
    order, then -- each time a stream's event is emitted -- that stream's
    next gap.  Simultaneous events order by stream index, so the merged
    stream is a pure function of the run RNG.
    """

    __slots__ = ("_draw_gap", "_streams")

    def __init__(self, draw_gap: Callable, streams: int) -> None:
        if streams < 1:
            raise SimulationError("a superposed arrival needs >= 1 streams")
        self._draw_gap = draw_gap
        self._streams = streams

    def events(self, rng, horizon: float) -> Iterator[float]:
        pending: List[Tuple[float, int]] = []
        for stream in range(self._streams):
            time = self._draw_gap(rng)
            if time <= horizon:
                pending.append((time, stream))
        heapq.heapify(pending)
        while pending:
            time, stream = heapq.heappop(pending)
            yield time
            nxt = time + self._draw_gap(rng)
            if nxt <= horizon:
                heapq.heappush(pending, (nxt, stream))


# -- adversary policies -----------------------------------------------------------


class AdversaryPolicy:
    """Picks which exploit lands at each arrival and propagates damage.

    :meth:`reset` is called once per run before any event (with the run
    RNG); :meth:`choose` returns a pool index or ``None`` for a fizzled
    attempt; :meth:`propagate` maps the post-landing compromise mask to a
    (possibly larger) mask.  Implementations draw only from the RNG they
    are handed.
    """

    def reset(self, rng) -> None:
        """Per-run initialisation; default: nothing."""

    def choose(self, rng, now: float, compromised: int) -> Optional[int]:
        raise NotImplementedError

    def propagate(self, rng, compromised: int) -> int:
        """Post-landing spread; default: no propagation."""
        return compromised


class UniformPolicy(AdversaryPolicy):
    """The classic adversary: every event throws a uniformly random exploit."""

    __slots__ = ("_pool_indices",)

    def __init__(self, pool_size: int) -> None:
        self._pool_indices = range(pool_size)

    def choose(self, rng, now: float, compromised: int) -> Optional[int]:
        return rng.choice(self._pool_indices)


class PatchRacePolicy(AdversaryPolicy):
    """Uniform targeting against a pool whose entries close over time.

    :meth:`reset` draws one closure time per pool entry, in pool order
    (one RNG draw each); an exploit chosen after its entry closed fizzles.
    """

    __slots__ = ("_spec", "_pool_size", "_closures")

    def __init__(self, spec: ScenarioSpec, pool_size: int) -> None:
        self._spec = spec
        self._pool_size = pool_size
        self._closures: Tuple[float, ...] = ()

    def reset(self, rng) -> None:
        spec = self._spec
        if spec.closure == "empirical":
            lifetimes = spec.lifetimes
            self._closures = tuple(
                rng.choice(lifetimes) for _ in range(self._pool_size)
            )
        else:
            self._closures = tuple(
                gompertz_closure_time(rng, spec.closure_scale, spec.closure_shape)
                for _ in range(self._pool_size)
            )

    def choose(self, rng, now: float, compromised: int) -> Optional[int]:
        index = rng.choice(range(self._pool_size))
        if self._closures[index] < now:
            return None  # the patch won the race for this vulnerability
        return index


class EpidemicPolicy(AdversaryPolicy):
    """Uniform targeting plus cross-replica propagation after each landing.

    ``adjacency[r]`` is the OR of every victim mask covering replica ``r``:
    the replicas reachable from ``r`` through at least one shared
    vulnerability.  After a landing, each compromised replica (ascending
    bit order, one RNG draw each) infects its neighbourhood with
    probability ``spread``.
    """

    __slots__ = ("_pool_indices", "_adjacency", "_spread")

    def __init__(
        self, spec: ScenarioSpec, victim_masks: Sequence[int], replicas: int
    ) -> None:
        self._pool_indices = range(len(victim_masks))
        adjacency = []
        for replica in range(replicas):
            bit = 1 << replica
            reachable = 0
            for mask in victim_masks:
                if mask & bit:
                    reachable |= mask
            adjacency.append(reachable)
        self._adjacency = tuple(adjacency)
        self._spread = spec.spread

    def choose(self, rng, now: float, compromised: int) -> Optional[int]:
        return rng.choice(self._pool_indices)

    def propagate(self, rng, compromised: int) -> int:
        adjacency = self._adjacency
        for replica in range(len(adjacency)):
            if compromised & (1 << replica):
                if rng.random() < self._spread:
                    compromised |= adjacency[replica]
        return compromised


class AdaptivePolicy(AdversaryPolicy):
    """Epsilon-greedy re-targeting over the live incidence structure.

    Each event draws one uniform variate: with probability ``explore`` the
    throw is uniformly random (a second draw), otherwise it is the exploit
    whose victim mask newly compromises the most replicas given the current
    mask (lowest pool index wins ties) -- the adversary reading the pair
    matrix and aiming where diversity is thinnest.  That greedy pick
    depends on the compromise mask alone, of which an n-replica group has
    at most 2^n, so it is memoised per mask: the pool is scanned once per
    distinct mask, and every later greedy event at that mask is one dict
    lookup.  The memo draws nothing, so the RNG stream is unchanged.
    """

    __slots__ = ("_victim_masks", "_pool_indices", "_explore", "_greedy")

    def __init__(self, spec: ScenarioSpec, victim_masks: Sequence[int]) -> None:
        self._victim_masks = tuple(victim_masks)
        self._pool_indices = range(len(victim_masks))
        self._explore = spec.explore
        #: Compromise mask -> greedy pool index, filled on first use.
        self._greedy: Dict[int, int] = {}

    def choose(self, rng, now: float, compromised: int) -> Optional[int]:
        if rng.random() < self._explore:
            return rng.choice(self._pool_indices)
        best_index = self._greedy.get(compromised)
        if best_index is None:
            best_index = 0
            best_damage = -1
            for index, mask in enumerate(self._victim_masks):
                damage = (mask & ~compromised).bit_count()
                if damage > best_damage:
                    best_damage = damage
                    best_index = index
            self._greedy[compromised] = best_index
        return best_index


def build_scenario(
    spec: Optional[ScenarioSpec],
    draw_gap: Callable,
    victim_masks: Sequence[int],
    replicas: int,
) -> Tuple[ArrivalModel, AdversaryPolicy]:
    """Compile a spec into its (arrival model, adversary policy) pair.

    ``spec=None`` compiles the classic adversary (renewal arrivals ×
    uniform choice).  ``draw_gap`` is the base inter-arrival sampler (the
    campaign's ``arrival``/``shape``/``exploit_rate`` knobs compose with
    every scenario); ``victim_masks`` is the compiled incidence of the
    targeted pool over the replica group.
    """
    pool_size = len(victim_masks)
    if spec is None:
        return RenewalArrivals(draw_gap), UniformPolicy(pool_size)
    if spec.family == "campaign":
        return (
            SuperposedArrivals(draw_gap, spec.adversaries),
            UniformPolicy(pool_size),
        )
    if spec.family == "patch-race":
        return RenewalArrivals(draw_gap), PatchRacePolicy(spec, pool_size)
    if spec.family == "epidemic":
        return (
            RenewalArrivals(draw_gap),
            EpidemicPolicy(spec, victim_masks, replicas),
        )
    return RenewalArrivals(draw_gap), AdaptivePolicy(spec, victim_masks)
