"""Property-based equivalence of the bitset and naive simulation engines.

The bitset engine compiles the exploitable pool and per-exploit victim
bitmasks once, then replays each run's random stream; the naive engine builds
an ``Attacker``/``ReplicaGroup``/``BFTService`` per run.  For any fixed seed
and campaign parameters the two must produce bit-for-bit identical
``SimulationResult`` dataclasses -- probabilities, means, violation times and
Wilson intervals included.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.enums import AccessVector, ComponentClass
from repro.itsys.attacker import ExploitEvent
from repro.itsys.bft import BFTService
from repro.itsys.replica import ReplicaGroup
from repro.itsys.scenarios import ScenarioSpec
from repro.itsys.simulation import (
    CompromiseSimulation,
    RunRangeTallies,
    result_from_tallies,
)
from tests.conftest import make_entry

#: A compact corpus with deliberate overlap structure: per-OS entries, pairs,
#: one wide 4-OS entry, application/local entries that the default
#: Isolated-Thin configuration filter must drop.
POOL = [
    make_entry(cve_id="CVE-2004-0001", oses=("Debian",), year=2004),
    make_entry(cve_id="CVE-2004-0002", oses=("RedHat",), year=2004),
    make_entry(cve_id="CVE-2005-0003", oses=("Debian", "RedHat"), year=2005),
    make_entry(cve_id="CVE-2005-0004", oses=("OpenBSD",), year=2005),
    make_entry(cve_id="CVE-2005-0005", oses=("OpenBSD", "NetBSD", "FreeBSD"), year=2005),
    make_entry(cve_id="CVE-2006-0006", oses=("Windows2003",), year=2006),
    make_entry(cve_id="CVE-2006-0007", oses=("Windows2000", "Windows2003"), year=2006),
    make_entry(cve_id="CVE-2007-0008", oses=("Solaris",), year=2007),
    make_entry(
        cve_id="CVE-2007-0009",
        oses=("Debian", "OpenBSD", "Solaris", "Windows2003"),
        year=2007,
    ),
    make_entry(cve_id="CVE-2008-0010", oses=("NetBSD",), year=2008),
    make_entry(cve_id="CVE-2008-0011", oses=("Debian",), year=2008,
               component_class=ComponentClass.APPLICATION),
    make_entry(cve_id="CVE-2008-0012", oses=("Solaris",), year=2008,
               access=AccessVector.LOCAL),
]

GROUP_OSES = (
    "Debian", "RedHat", "OpenBSD", "NetBSD", "FreeBSD",
    "Windows2000", "Windows2003", "Solaris",
)

campaigns = st.fixed_dictionaries(
    {
        "runs": st.integers(min_value=1, max_value=8),
        "exploit_rate": st.floats(min_value=0.25, max_value=4.0,
                                  allow_nan=False, allow_infinity=False),
        "horizon": st.floats(min_value=0.5, max_value=8.0,
                             allow_nan=False, allow_infinity=False),
        "quorum_model": st.sampled_from(("3f+1", "2f+1")),
        "targeted": st.booleans(),
        "recovery_interval": st.one_of(
            st.none(),
            st.floats(min_value=0.25, max_value=3.0,
                      allow_nan=False, allow_infinity=False),
        ),
        "arrival": st.sampled_from(("poisson", "aging")),
        "shape": st.floats(min_value=0.5, max_value=2.5,
                           allow_nan=False, allow_infinity=False),
        "smart": st.booleans(),
    }
)

groups = st.lists(st.sampled_from(GROUP_OSES), min_size=1, max_size=6)


@given(campaign=campaigns, os_names=groups, seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_engines_produce_identical_results(campaign, os_names, seed):
    fast = CompromiseSimulation(POOL, seed=seed, engine="bitset")
    naive = CompromiseSimulation(POOL, seed=seed, engine="naive")
    fast_result = fast.run_configuration("cfg", os_names, **campaign)
    naive_result = naive.run_configuration("cfg", os_names, **campaign)
    assert fast_result == naive_result


#: Optional scenario axis: the classic adversary (None) plus one
#: representative per scenario family.  ``tests/itsys/test_scenarios.py``
#: covers the knob space; here the point is that scenarios do not disturb
#: the engine equivalence.
scenarios = st.sampled_from((
    None,
    ScenarioSpec(family="campaign", adversaries=3),
    ScenarioSpec(family="patch-race", closure_scale=1.5, closure_shape=2.0),
    ScenarioSpec(
        family="patch-race", closure="empirical", lifetimes=(0.5, 1.25, 4.0)
    ),
    ScenarioSpec(family="epidemic", spread=0.4),
    ScenarioSpec(family="adaptive", explore=0.1),
))


@given(campaign=campaigns, os_names=groups, seed=st.integers(0, 10_000),
       scenario=scenarios)
@settings(max_examples=60, deadline=None)
def test_engines_identical_under_every_scenario_family(
    campaign, os_names, seed, scenario
):
    fast = CompromiseSimulation(POOL, seed=seed, engine="bitset")
    fast_result = fast.run_configuration(
        "cfg", os_names, scenario=scenario, **campaign
    )
    other = fast.with_engine("naive").run_configuration(
        "cfg", os_names, scenario=scenario, **campaign
    )
    assert other == fast_result


exploit_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
        st.sets(st.sampled_from(GROUP_OSES), min_size=1, max_size=3),
    ),
    max_size=10,
)


@given(exploits=exploit_lists, os_names=groups,
       quorum_model=st.sampled_from(("3f+1", "2f+1")),
       recovery_interval=st.one_of(st.none(), st.sampled_from((0.5, 1.0, 2.5))))
@settings(max_examples=120, deadline=None)
def test_scorer_agrees_with_the_service_model(
    exploits, os_names, quorum_model, recovery_interval
):
    """Both engines record first-reach times and share one scorer; the
    service model latches the same outcomes through its own safety and
    quorum checks, which keeps the scorer honest."""
    events = [
        ExploitEvent(time=time, cve_id=f"CVE-{index}", affected_os=frozenset(oses),
                     remote=True)
        for index, (time, oses) in enumerate(exploits)
    ]
    timeline = BFTService(ReplicaGroup(os_names, quorum_model)).run_campaign(
        events, recovery_interval=recovery_interval, horizon=6.0
    )
    result = result_from_tallies(
        "cfg", os_names, RunRangeTallies(0, 1, (tuple(timeline.reach_times),)),
        quorum_model,
    )
    assert result.mean_time_to_violation == timeline.safety_violation_time
    assert result.safety_violation_probability == float(
        timeline.safety_violation_time is not None
    )
    assert result.liveness_loss_probability == float(
        timeline.liveness_loss_time is not None
    )
    assert result.mean_compromised == timeline.peak_compromised


@given(os_names=groups, seed=st.integers(0, 10_000),
       quorum_model=st.sampled_from(("3f+1", "2f+1")))
@settings(max_examples=40, deadline=None)
def test_single_exploit_analysis_identical(os_names, seed, quorum_model):
    fast = CompromiseSimulation(POOL, seed=seed, engine="bitset")
    naive = fast.with_engine("naive")
    assert fast.single_exploit_analysis(
        "cfg", os_names, quorum_model=quorum_model
    ) == naive.single_exploit_analysis("cfg", os_names, quorum_model=quorum_model)


def test_engines_identical_on_calibrated_corpus(corpus):
    """Spot-check the equivalence on the full paper corpus, all knobs on."""
    campaign = dict(
        runs=25, exploit_rate=1.5, horizon=5.0, quorum_model="2f+1",
        recovery_interval=0.75, arrival="aging", shape=1.4, smart=True,
    )
    fast = CompromiseSimulation(corpus.valid_entries, seed=123, engine="bitset")
    naive = fast.with_engine("naive")
    group = ("Windows2003", "Solaris", "Debian", "OpenBSD", "NetBSD")
    assert fast.run_configuration("Set1+", group, **campaign) == (
        naive.run_configuration("Set1+", group, **campaign)
    )


def test_compare_and_sweep_identical_on_calibrated_corpus(corpus):
    configurations = {
        "homogeneous": ("Debian",) * 4,
        "diverse": ("Windows2003", "Solaris", "Debian", "OpenBSD"),
    }
    fast = CompromiseSimulation(corpus.valid_entries, seed=5, engine="bitset")
    naive = fast.with_engine("naive")
    campaign = dict(runs=15, exploit_rate=1.0, horizon=3.0)
    assert fast.compare(configurations, **campaign) == naive.compare(
        configurations, **campaign
    )
    intervals = [None, 1.0]
    assert fast.recovery_sweep(
        "diverse", configurations["diverse"], intervals, **campaign
    ) == naive.recovery_sweep(
        "diverse", configurations["diverse"], intervals, **campaign
    )
