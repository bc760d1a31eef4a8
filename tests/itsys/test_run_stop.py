"""A run ends once its record is complete, and nothing can tell.

The event loop stops a run as soon as its peak reaches the replicas some
exploit can reach (the popcount of the OR of the group's victim masks).
Two checks hold it to that:

* **exactness** -- a hypothesis property compares ``run_range`` records
  with a test-local reference loop that plays every event to the horizon
  (in the style of ``_unmemoised_pick`` in ``test_scenarios.py``), over
  homogeneous groups, diverse groups and groups with a replica no pool
  entry reaches, under every scenario family, with and without recovery,
  smart openings and untargeted pools;
* **cost** -- a homogeneous classic campaign, where every landing takes the
  whole group, asks the policy for at most one exploit per run, and none
  at all behind a smart opening.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.engine import ReplicaIncidence
from repro.classify.filters import ServerConfigurationFilter
from repro.core.enums import ServerConfiguration
from repro.itsys.attacker import best_exploit_entry
from repro.itsys.replica import ReplicaGroup
from repro.itsys.scenarios import UniformPolicy, build_scenario
from repro.itsys.simulation import CompromiseSimulation
from tests.itsys.test_simulation_equivalence import GROUP_OSES, POOL, scenarios

#: Catalogued operating systems that no POOL entry affects.
UNREACHED_OSES = ("Ubuntu", "OpenSolaris", "Windows2008")


def _every_event_records(seed, os_names, run_start, run_stop, campaign, scenario):
    """The event loop without its stop: every run plays to the horizon.

    Filters the pool, compiles the victim masks and draws from each run's
    ``Random(seed + 7919 * run_index)`` exactly as the simulator does, and
    builds a fresh policy per run.
    """
    pool = ServerConfigurationFilter(ServerConfiguration.ISOLATED_THIN).apply(POOL)
    group = ReplicaGroup(list(os_names))
    if campaign["targeted"]:
        targeted_pool = [
            entry for entry in pool if entry.affected_os & set(os_names)
        ]
    else:
        targeted_pool = pool
    victim_masks = ReplicaIncidence(targeted_pool, group.os_names).victim_masks
    opening = 0
    if campaign["smart"]:
        entry, _coverage = best_exploit_entry(pool, os_names)
        if entry is not None:
            opening = ReplicaIncidence([entry], group.os_names).victim_masks[0]
    interval, horizon = campaign["recovery_interval"], campaign["horizon"]
    recoveries = []
    if interval is not None:
        t = interval
        while t <= horizon:
            recoveries.append(t)
            t += interval
    rate, shape = campaign["exploit_rate"], campaign["shape"]
    if campaign["arrival"] == "aging":
        def draw_gap(rng):
            return rng.weibullvariate(1.0 / rate, shape)
    else:
        def draw_gap(rng):
            return rng.expovariate(rate)
    records = []
    for run_index in range(run_start, run_stop):
        rng = random.Random(seed + 7919 * run_index)
        arrivals, policy = build_scenario(scenario, draw_gap, victim_masks, group.n)
        policy.reset(rng)
        compromised = opening
        record = [0.0] * compromised.bit_count()
        if victim_masks:
            due = 0
            for time in arrivals.events(rng, horizon):
                while due < len(recoveries) and recoveries[due] < time:
                    compromised = 0
                    due += 1
                index = policy.choose(rng, time, compromised)
                if index is None:
                    continue
                newly = victim_masks[index] & ~compromised
                if not newly:
                    continue
                compromised = policy.propagate(rng, compromised | newly)
                count = compromised.bit_count()
                if count > len(record):
                    record.extend([time] * (count - len(record)))
        records.append(tuple(record))
    return records


homogeneous_groups = st.tuples(
    st.sampled_from(GROUP_OSES), st.integers(min_value=1, max_value=6)
).map(lambda pair: (pair[0],) * pair[1])
diverse_groups = st.lists(
    st.sampled_from(GROUP_OSES), min_size=2, max_size=6, unique=True
).map(tuple)
unreached_groups = st.tuples(
    st.one_of(homogeneous_groups, diverse_groups),
    st.sampled_from(UNREACHED_OSES),
    st.integers(min_value=0, max_value=6),
).map(lambda case: case[0][: case[2]] + (case[1],) + case[0][case[2]:])

run_campaigns = st.fixed_dictionaries(
    {
        "exploit_rate": st.floats(min_value=0.25, max_value=6.0),
        "horizon": st.floats(min_value=0.5, max_value=8.0),
        "targeted": st.booleans(),
        "recovery_interval": st.one_of(
            st.none(), st.floats(min_value=0.25, max_value=3.0)
        ),
        "arrival": st.sampled_from(("poisson", "aging")),
        "shape": st.floats(min_value=0.5, max_value=2.5),
        "smart": st.booleans(),
    }
)


@given(
    os_names=st.one_of(homogeneous_groups, diverse_groups, unreached_groups),
    campaign=run_campaigns,
    scenario=scenarios,
    seed=st.integers(min_value=0, max_value=10_000),
    run_start=st.integers(min_value=0, max_value=50),
    runs=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=300, deadline=None)
def test_records_equal_a_loop_that_plays_every_event(
    os_names, campaign, scenario, seed, run_start, runs
):
    simulation = CompromiseSimulation(POOL, seed=seed)
    tallies = simulation.run_range(
        os_names, run_start, run_start + runs, scenario=scenario, **campaign
    )
    assert list(tallies.reach_times) == _every_event_records(
        seed, os_names, run_start, run_start + runs, campaign, scenario
    )


@pytest.mark.parametrize("recovery_interval", [None, 0.5])
@pytest.mark.parametrize("arrival", ["poisson", "aging"])
def test_a_homogeneous_run_asks_for_at_most_one_exploit(
    monkeypatch, recovery_interval, arrival
):
    """Every landing on 4 x Debian takes all four replicas, so a run ends
    at its first landing; behind a smart opening it plays no event."""
    calls = []
    choose = UniformPolicy.choose

    def counting_choose(self, rng, now, compromised):
        calls.append(now)
        return choose(self, rng, now, compromised)

    monkeypatch.setattr(UniformPolicy, "choose", counting_choose)
    simulation = CompromiseSimulation(POOL, seed=17)
    runs = 50
    campaign = dict(
        exploit_rate=2.0, horizon=30.0, recovery_interval=recovery_interval,
        arrival=arrival, shape=1.5,
    )
    tallies = simulation.run_range(("Debian",) * 4, 0, runs, **campaign)
    # Every run lands (about 60 arrivals each) and takes the whole group.
    assert all(len(reached) == 4 for reached in tallies.reach_times)
    assert 0 < len(calls) <= runs
    calls.clear()
    opened = simulation.run_range(("Debian",) * 4, 0, runs, smart=True, **campaign)
    assert opened.reach_times == ((0.0,) * 4,) * runs
    assert calls == []
