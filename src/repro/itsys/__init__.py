"""Intrusion-tolerant system modelling.

The paper motivates OS diversity with intrusion-tolerant (BFT) replicated
systems: as long as at most ``f`` of the ``3f+1`` (or ``2f+1``) replicas are
compromised, the service stays correct.  This subpackage makes that argument
executable:

* :mod:`repro.itsys.replica` -- replicas, replica groups and quorum sizing;
* :mod:`repro.itsys.attacker` -- an attacker model that weaponises
  vulnerabilities from a corpus with exploit-arrival processes;
* :mod:`repro.itsys.bft` -- a quorum-based state-machine-replication service
  model that reports when safety/liveness are lost;
* :mod:`repro.itsys.simulation` -- Monte-Carlo campaigns comparing
  homogeneous and diverse replica groups;
* :mod:`repro.itsys.scenarios` -- composable adversary scenarios (multi-
  adversary campaigns, patch races, epidemic propagation, adaptive
  re-targeting) plugged into the simulation's event loop.
"""

from repro.itsys.attacker import Attacker, ExploitEvent, best_exploit_entry
from repro.itsys.bft import BFTService, ServiceState
from repro.itsys.replica import Replica, ReplicaGroup
from repro.itsys.scenarios import (
    CLOSURE_MODELS,
    SCENARIOS,
    ArrivalModel,
    AdversaryPolicy,
    ScenarioSpec,
    build_scenario,
    parse_scenario,
)
from repro.itsys.simulation import (
    ARRIVALS,
    ENGINES,
    CompromiseSimulation,
    RunRangeTallies,
    SimulationResult,
    SingleExploitAnalysis,
    merge_run_ranges,
    result_from_tallies,
    wilson_interval,
)

__all__ = [
    "Replica",
    "ReplicaGroup",
    "Attacker",
    "ExploitEvent",
    "best_exploit_entry",
    "BFTService",
    "ServiceState",
    "ARRIVALS",
    "ENGINES",
    "CompromiseSimulation",
    "RunRangeTallies",
    "SimulationResult",
    "SingleExploitAnalysis",
    "merge_run_ranges",
    "result_from_tallies",
    "wilson_interval",
    "CLOSURE_MODELS",
    "SCENARIOS",
    "ArrivalModel",
    "AdversaryPolicy",
    "ScenarioSpec",
    "build_scenario",
    "parse_scenario",
]
