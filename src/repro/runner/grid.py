"""Declarative parameter grids for simulation sweeps.

The paper's headline results are sweeps: safety-violation probability across
replica configurations, quorum models, proactive-recovery intervals, arrival
processes and adversary behaviours.  :class:`ExperimentGrid` captures such a
sweep declaratively as the cartesian product of its axes and expands it into
:class:`GridCell` values -- one fully-specified Monte-Carlo campaign each --
that the :class:`~repro.runner.runner.GridRunner` executes and the
:class:`~repro.runner.cache.ResultCache` keys results by.

Expansion order is deterministic (configurations x quorum models x recovery
intervals x arrivals x adversaries x scenarios, each axis in declaration
order), so cell lists, cache keys and report rows are stable across
processes and runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.exceptions import SimulationError
from repro.itsys.scenarios import ScenarioSpec
from repro.itsys.simulation import ARRIVALS

#: Adversary behaviours the grid understands, mapped onto the simulator's
#: ``targeted`` / ``smart`` campaign switches.
ADVERSARY_MODES: Mapping[str, Tuple[bool, bool]] = {
    # name: (targeted, smart)
    "standard": (True, False),
    "smart": (True, True),
    "untargeted": (False, False),
}


@dataclass(frozen=True)
class ArrivalSpec:
    """An exploit inter-arrival process: the process name plus its shape.

    ``shape`` is only meaningful for the Weibull ``"aging"`` process and is
    normalised to ``1.0`` for ``"poisson"`` so equivalent specs compare (and
    cache) equal.
    """

    process: str = "poisson"
    shape: float = 1.0

    def __post_init__(self) -> None:
        if self.process not in ARRIVALS:
            raise SimulationError(
                f"unknown arrival process {self.process!r}; expected one of {ARRIVALS}"
            )
        if self.shape <= 0:
            raise SimulationError("the inter-arrival shape must be positive")
        if self.process == "poisson":
            object.__setattr__(self, "shape", 1.0)

    @property
    def label(self) -> str:
        if self.process == "aging":
            return f"aging(k={self.shape:g})"
        return self.process


@dataclass(frozen=True)
class GridCell:
    """One fully-specified Monte-Carlo campaign of a sweep.

    ``cell_id`` is a human-readable deterministic label built from the cell's
    coordinates; ``params()`` is the canonical parameter mapping used both
    for cache keys and for JSON/CSV reporting.
    """

    configuration: str
    os_names: Tuple[str, ...]
    quorum_model: str
    recovery_interval: Optional[float]
    arrival: ArrivalSpec
    adversary: str
    runs: int
    exploit_rate: float
    horizon: float
    #: Optional adversary scenario (``None`` keeps the classic single
    #: adversary).  Appended last so legacy positional construction and the
    #: pre-scenario cache keys stay valid.
    scenario: Optional[ScenarioSpec] = None

    @property
    def cell_id(self) -> str:
        recovery = (
            f"recovery={self.recovery_interval:g}"
            if self.recovery_interval is not None
            else "no-recovery"
        )
        cell_id = (
            f"{self.configuration}|{self.quorum_model}|{recovery}"
            f"|{self.arrival.label}|{self.adversary}"
        )
        if self.scenario is not None:
            cell_id += f"|{self.scenario.label}"
        return cell_id

    @property
    def targeted(self) -> bool:
        return ADVERSARY_MODES[self.adversary][0]

    @property
    def smart(self) -> bool:
        return ADVERSARY_MODES[self.adversary][1]

    def campaign_kwargs(self) -> Dict[str, object]:
        """Keyword arguments for ``CompromiseSimulation.run_range``.

        The quorum model is not among them: the runs do not depend on it,
        and :func:`repro.itsys.simulation.result_from_tallies` applies it.
        """
        return dict(
            exploit_rate=self.exploit_rate,
            horizon=self.horizon,
            targeted=self.targeted,
            recovery_interval=self.recovery_interval,
            arrival=self.arrival.process,
            shape=self.arrival.shape,
            smart=self.smart,
            scenario=self.scenario,
        )

    def params(self) -> Dict[str, object]:
        """Canonical JSON-serialisable parameter mapping for the cell.

        The ``"scenario"`` key is present only when a scenario is set, so
        classic cells keep their exact pre-scenario mapping -- and therefore
        their exact :func:`repro.runner.cache.cell_key` digests: a warmed
        cache stays warm across this upgrade.
        """
        params: Dict[str, object] = {
            "configuration": self.configuration,
            "os_names": list(self.os_names),
            "quorum_model": self.quorum_model,
            "recovery_interval": self.recovery_interval,
            "arrival": self.arrival.process,
            "shape": self.arrival.shape,
            "adversary": self.adversary,
            "runs": self.runs,
            "exploit_rate": self.exploit_rate,
            "horizon": self.horizon,
        }
        if self.scenario is not None:
            params["scenario"] = self.scenario.params()
        return params


@dataclass(frozen=True)
class ExperimentGrid:
    """A declarative sweep: campaign scalars plus the axes to cross.

    ``configurations`` maps a display name to the OS of each replica
    (repetition models homogeneous deployments).  The remaining axes default
    to single points, so the smallest grid is one cell per configuration.
    """

    configurations: Mapping[str, Sequence[str]]
    quorum_models: Tuple[str, ...] = ("3f+1",)
    recovery_intervals: Tuple[Optional[float], ...] = (None,)
    arrivals: Tuple[ArrivalSpec, ...] = (ArrivalSpec(),)
    adversaries: Tuple[str, ...] = ("standard",)
    #: Adversary scenario axis; ``None`` entries are classic campaigns.
    scenarios: Tuple[Optional[ScenarioSpec], ...] = (None,)
    runs: int = 200
    exploit_rate: float = 1.0
    horizon: float = 5.0
    #: Normalised (name, os_names) pairs, fixed at construction time.
    _configuration_items: Tuple[Tuple[str, Tuple[str, ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        items = tuple(
            (name, tuple(os_names)) for name, os_names in self.configurations.items()
        )
        if not items:
            raise SimulationError("a grid needs at least one replica configuration")
        for name, os_names in items:
            if not os_names:
                raise SimulationError(f"configuration {name!r} has no replicas")
        if self.runs <= 0:
            raise SimulationError("the number of runs must be positive")
        if self.exploit_rate <= 0:
            raise SimulationError("the exploit arrival rate must be positive")
        if self.horizon <= 0:
            raise SimulationError("the campaign horizon must be positive")
        for axis_name, axis in (
            ("quorum_models", self.quorum_models),
            ("recovery_intervals", self.recovery_intervals),
            ("arrivals", self.arrivals),
            ("adversaries", self.adversaries),
            ("scenarios", self.scenarios),
        ):
            if not axis:
                raise SimulationError(f"grid axis {axis_name!r} is empty")
            if len(set(axis)) != len(axis):
                raise SimulationError(f"grid axis {axis_name!r} has duplicates")
        for model in self.quorum_models:
            if model not in ("3f+1", "2f+1"):
                raise SimulationError(f"unknown quorum model {model!r}")
        for interval in self.recovery_intervals:
            if interval is not None and interval <= 0:
                raise SimulationError("recovery intervals must be positive or None")
        for adversary in self.adversaries:
            if adversary not in ADVERSARY_MODES:
                raise SimulationError(
                    f"unknown adversary mode {adversary!r}; "
                    f"expected one of {tuple(ADVERSARY_MODES)}"
                )
        for scenario in self.scenarios:
            if scenario is not None and not isinstance(scenario, ScenarioSpec):
                raise SimulationError(
                    "scenario axis entries must be ScenarioSpec or None, "
                    f"got {scenario!r}"
                )
        object.__setattr__(self, "_configuration_items", items)

    def __len__(self) -> int:
        """Number of cells the grid expands to."""
        return (
            len(self._configuration_items)
            * len(self.quorum_models)
            * len(self.recovery_intervals)
            * len(self.arrivals)
            * len(self.adversaries)
            * len(self.scenarios)
        )

    def expand(self) -> List[GridCell]:
        """Expand into cells, in deterministic axis order."""
        cells: List[GridCell] = []
        for name, os_names in self._configuration_items:
            for quorum_model in self.quorum_models:
                for interval in self.recovery_intervals:
                    for arrival in self.arrivals:
                        for adversary in self.adversaries:
                            for scenario in self.scenarios:
                                cells.append(
                                    GridCell(
                                        configuration=name,
                                        os_names=os_names,
                                        quorum_model=quorum_model,
                                        recovery_interval=interval,
                                        arrival=arrival,
                                        adversary=adversary,
                                        runs=self.runs,
                                        exploit_rate=self.exploit_rate,
                                        horizon=self.horizon,
                                        scenario=scenario,
                                    )
                                )
        return cells
