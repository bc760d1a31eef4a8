"""Property suite for the adversary scenario library.

Three contracts gate every scenario family (``campaign``, ``patch-race``,
``epidemic``, ``adaptive``):

* **engine identity** -- the event loop serves scenario campaigns on both
  engine labels, so ``bitset`` and ``naive`` simulations must return
  bit-for-bit identical ``SimulationResult`` values per seed;
* **split-merge identity** -- scenario runs keep the per-run seeding
  contract (``seed + 7919 * i``), so a campaign split into disjoint run
  ranges, executed in any order and merged via :func:`merge_run_ranges`
  reproduces the single-range campaign exactly;
* **classic degeneration** -- ``campaign`` with one adversary consumes the
  per-run RNG in exactly the classic loop's order, so it must reproduce the
  scenario-less campaign bit for bit.

The adaptive policy memoises its greedy pick per compromise mask; a
hypothesis oracle holds it to an unmemoised argmax draw for draw, and a
cost test counts its pool scans over a whole run range.

Plus deterministic unit coverage of spec normalisation, parsing, labels and
the policy/arrival building blocks.
"""

from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exceptions import SimulationError
from repro.itsys.scenarios import (
    CLOSURE_MODELS,
    SCENARIOS,
    AdaptivePolicy,
    EpidemicPolicy,
    PatchRacePolicy,
    RenewalArrivals,
    ScenarioSpec,
    SuperposedArrivals,
    UniformPolicy,
    build_scenario,
    gompertz_closure_time,
    parse_scenario,
)
from repro.itsys import simulation as simulation_module
from repro.itsys.simulation import CompromiseSimulation, merge_run_ranges
from tests.itsys.test_simulation_equivalence import GROUP_OSES, POOL, campaigns

#: One strategy per family, exercising every family-specific knob.
scenario_specs = st.one_of(
    st.builds(
        ScenarioSpec,
        family=st.just("campaign"),
        adversaries=st.integers(min_value=1, max_value=4),
    ),
    st.builds(
        ScenarioSpec,
        family=st.just("patch-race"),
        closure=st.just("gompertz"),
        closure_scale=st.floats(min_value=0.5, max_value=4.0),
        closure_shape=st.floats(min_value=0.5, max_value=3.0),
    ),
    st.builds(
        ScenarioSpec,
        family=st.just("patch-race"),
        closure=st.just("empirical"),
        lifetimes=st.lists(
            st.floats(min_value=0.1, max_value=8.0), min_size=1, max_size=6
        ).map(tuple),
    ),
    st.builds(
        ScenarioSpec,
        family=st.just("epidemic"),
        spread=st.floats(min_value=0.05, max_value=1.0),
    ),
    st.builds(
        ScenarioSpec,
        family=st.just("adaptive"),
        explore=st.floats(min_value=0.0, max_value=1.0),
    ),
)

groups = st.lists(st.sampled_from(GROUP_OSES), min_size=1, max_size=6)


class _FixedRandom:
    """Stub RNG replaying a scripted sequence of ``random()`` values."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)

    def choice(self, sequence):
        return sequence[0]


# -- the three campaign-level contracts -------------------------------------------


@given(
    spec=scenario_specs,
    campaign=campaigns,
    os_names=groups,
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_every_engine_produces_identical_scenario_results(
    spec, campaign, os_names, seed
):
    base = CompromiseSimulation(POOL, seed=seed, engine="bitset")
    result = base.run_configuration("cfg", os_names, scenario=spec, **campaign)
    assert base.with_engine("naive").run_configuration(
        "cfg", os_names, scenario=spec, **campaign
    ) == result, f"naive engine diverged for {spec.label}"


@given(
    spec=scenario_specs,
    campaign=campaigns,
    os_names=groups,
    seed=st.integers(0, 10_000),
    split=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=60, deadline=None)
def test_split_runs_merge_back_to_the_full_campaign(
    spec, campaign, os_names, seed, split
):
    campaign = dict(campaign)
    runs = campaign.pop("runs") + 1  # ensure >= 2 so the split is proper
    del campaign["quorum_model"]  # applied when scoring, not by run_range
    split = min(split, runs - 1)
    simulation = CompromiseSimulation(POOL, seed=seed, engine="bitset")
    whole = simulation.run_range(
        os_names, 0, runs, scenario=spec, **campaign
    )
    # Execute the back half first: ranges must be order-independent.
    back = simulation.run_range(
        os_names, split, runs, scenario=spec, **campaign
    )
    front = simulation.run_range(
        os_names, 0, split, scenario=spec, **campaign
    )
    assert merge_run_ranges([back, front]) == whole


@given(campaign=campaigns, os_names=groups, seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_single_adversary_campaign_degenerates_to_the_classic_loop(
    campaign, os_names, seed
):
    simulation = CompromiseSimulation(POOL, seed=seed, engine="bitset")
    classic = simulation.run_configuration("cfg", os_names, **campaign)
    lone = simulation.run_configuration(
        "cfg",
        os_names,
        scenario=ScenarioSpec(family="campaign", adversaries=1),
        **campaign,
    )
    assert dataclasses.asdict(lone) == dataclasses.asdict(classic)


@given(spec=scenario_specs, seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_scenario_runs_are_seed_deterministic(spec, seed):
    group = ("Debian", "OpenBSD", "Windows2003", "Solaris")
    campaign = dict(runs=6, exploit_rate=1.0, horizon=3.0)
    first = CompromiseSimulation(POOL, seed=seed).run_configuration(
        "cfg", group, scenario=spec, **campaign
    )
    again = CompromiseSimulation(POOL, seed=seed).run_configuration(
        "cfg", group, scenario=spec, **campaign
    )
    assert first == again


def test_adaptive_policy_aims_at_the_post_recovery_mask(monkeypatch):
    """Regression: ``choose`` used to see the mask before due recoveries.

    The group is all eight POOL operating systems: no single entry covers
    them, so the greedy adversary needs several landings to take every
    replica, and runs live on past their first recoveries.  (A group that
    one entry covers ends each run at its first landing.)
    """
    seen = []
    original = AdaptivePolicy.choose

    def recording_choose(self, rng, now, compromised):
        seen.append((now, compromised))
        return original(self, rng, now, compromised)

    monkeypatch.setattr(AdaptivePolicy, "choose", recording_choose)
    group = GROUP_OSES
    recoveries = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    simulation = CompromiseSimulation(POOL, seed=3)
    checked = 0
    for run in range(20):
        seen.clear()
        simulation.run_range(
            group, run, run + 1, exploit_rate=3.0, horizon=6.0,
            recovery_interval=1.0,
            scenario=ScenarioSpec(family="adaptive", explore=0.0),
        )
        previous = 0.0
        for now, compromised in seen:
            # A recovery at t fires before an exploit at t' iff t < t', and
            # after an exploit landing at exactly t.
            if any(previous <= t < now for t in recoveries):
                assert compromised == 0, (run, now, compromised)
                checked += 1
            previous = now
    assert checked > 0


def _unmemoised_pick(victim_masks, compromised):
    """The greedy argmax, recomputed on every call: the most new damage,
    and ``list.index`` takes the lowest index among equals."""
    damages = [(mask & ~compromised).bit_count() for mask in victim_masks]
    return damages.index(max(damages))


@st.composite
def adaptive_histories(draw):
    """Victim masks over 1-7 replicas plus a sequence of compromise masks.

    Both draw from a small alphabet holding 0, so duplicate and zero victim
    masks are common and compromise masks repeat (memo hits); the sequence
    also mixes in arbitrary masks (memo misses).
    """
    replicas = draw(st.integers(min_value=1, max_value=7))
    masks = st.integers(min_value=0, max_value=(1 << replicas) - 1)
    alphabet = [0, *draw(st.lists(masks, min_size=1, max_size=4))]
    victim_masks = draw(
        st.lists(st.sampled_from(alphabet), min_size=1, max_size=12)
    )
    history = draw(
        st.lists(st.one_of(st.sampled_from(alphabet), masks), min_size=1, max_size=40)
    )
    return victim_masks, history


@given(
    case=adaptive_histories(),
    explore=st.sampled_from((0.0, 0.2, 1.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_adaptive_memo_matches_an_unmemoised_argmax(case, explore, seed):
    """Same pick and same draws as the scan it memoises, call after call."""
    victim_masks, history = case
    policy = AdaptivePolicy(
        ScenarioSpec(family="adaptive", explore=explore), victim_masks
    )
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    pool_indices = range(len(victim_masks))
    for now, compromised in enumerate(history):
        if oracle_rng.random() < explore:
            expected = oracle_rng.choice(pool_indices)
        else:
            expected = _unmemoised_pick(victim_masks, compromised)
        assert policy.choose(rng, float(now), compromised) == expected
        assert rng.getstate() == oracle_rng.getstate()


def test_adaptive_range_scans_the_pool_once_per_distinct_mask(
    corpus, monkeypatch
):
    """Over a 100-run range the greedy scan runs at most once per mask.

    The policy is handed stand-in victim masks that count every ``&``
    applied to them, and a scan applies one per pool entry; the event loop
    keeps the real masks, so only the policy's scans are counted.
    """
    ands = []
    pool_sizes = []

    class CountedMask(int):
        def __and__(self, other):
            ands.append(self)
            return int(self) & other

    def counted_scenario(spec, draw_gap, victim_masks, replicas):
        pool_sizes.append(len(victim_masks))
        counted = [CountedMask(mask) for mask in victim_masks]
        return build_scenario(spec, draw_gap, counted, replicas)

    seen = []
    choose = AdaptivePolicy.choose

    def recording_choose(self, rng, now, compromised):
        seen.append(compromised)
        return choose(self, rng, now, compromised)

    monkeypatch.setattr(simulation_module, "build_scenario", counted_scenario)
    monkeypatch.setattr(AdaptivePolicy, "choose", recording_choose)
    simulation = CompromiseSimulation(
        [entry for entry in corpus.entries if entry.is_valid], seed=11
    )
    simulation.run_range(
        ("Windows2003", "Solaris", "Debian", "OpenBSD"), 0, 100,
        recovery_interval=2.0,
        scenario=ScenarioSpec(family="adaptive", explore=0.2),
    )
    (pool_size,) = pool_sizes
    scans, remainder = divmod(len(ands), pool_size)
    assert remainder == 0
    assert 0 < scans <= len(set(seen))
    # Thousands of events visit a handful of masks: the memo answers them.
    assert len(seen) > 20 * scans


class TestScenarioSpec:
    def test_irrelevant_knobs_normalise_to_defaults(self):
        noisy = ScenarioSpec(
            family="epidemic", adversaries=7, closure_scale=9.0,
            explore=0.9, spread=0.4,
        )
        assert noisy == ScenarioSpec(family="epidemic", spread=0.4)
        assert hash(noisy) == hash(ScenarioSpec(family="epidemic", spread=0.4))

    def test_empirical_lifetimes_stored_sorted(self):
        spec = ScenarioSpec(
            family="patch-race", closure="empirical", lifetimes=(3.0, 1, 2.5)
        )
        assert spec.lifetimes == (1.0, 2.5, 3.0)
        shuffled = ScenarioSpec(
            family="patch-race", closure="empirical", lifetimes=(2.5, 3, 1.0)
        )
        assert spec == shuffled

    def test_gompertz_spec_drops_lifetimes(self):
        spec = ScenarioSpec(family="patch-race", lifetimes=(1.0, 2.0))
        assert spec.closure == "gompertz"
        assert spec.lifetimes == ()

    @pytest.mark.parametrize("kwargs", [
        dict(family="botnet"),
        dict(family="campaign", adversaries=0),
        dict(family="campaign", adversaries=1.5),
        dict(family="patch-race", closure="linear"),
        dict(family="patch-race", closure="empirical"),
        dict(family="patch-race", closure="empirical", lifetimes=(1.0, -2.0)),
        dict(family="patch-race", closure_scale=0.0),
        dict(family="patch-race", closure_shape=-1.0),
        dict(family="epidemic", spread=0.0),
        dict(family="epidemic", spread=1.5),
        dict(family="adaptive", explore=-0.1),
        dict(family="adaptive", explore=1.1),
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(SimulationError):
            ScenarioSpec(**kwargs)

    def test_labels_identify_the_family_and_knobs(self):
        assert ScenarioSpec(family="campaign", adversaries=3).label == (
            "campaign(n=3)"
        )
        assert ScenarioSpec(
            family="patch-race", closure_scale=1.5, closure_shape=2.0
        ).label == "patch-race(gompertz,s=1.5,k=2)"
        assert ScenarioSpec(
            family="patch-race", closure="empirical", lifetimes=(1.0, 2.0)
        ).label == "patch-race(empirical,2)"
        assert ScenarioSpec(family="epidemic", spread=0.4).label == (
            "epidemic(p=0.4)"
        )
        assert ScenarioSpec(family="adaptive", explore=0.1).label == (
            "adaptive(eps=0.1)"
        )

    @given(spec=scenario_specs)
    @settings(max_examples=40, deadline=None)
    def test_params_are_canonical_and_json_safe(self, spec):
        params = spec.params()
        assert params["family"] in SCENARIOS
        assert params["closure"] in CLOSURE_MODELS
        # Canonical: two equal specs serialise identically, and params
        # carries every knob (the cache key depends on this).
        assert set(params) == {
            "family", "adversaries", "closure", "closure_scale",
            "closure_shape", "lifetimes", "spread", "explore",
        }
        assert params == ScenarioSpec(**{
            key: tuple(value) if key == "lifetimes" else value
            for key, value in params.items()
        }).params()


class TestParseScenario:
    @pytest.mark.parametrize("token,expected", [
        ("campaign", ScenarioSpec(family="campaign")),
        ("campaign:adversaries=3", ScenarioSpec(family="campaign", adversaries=3)),
        (
            "patch-race:closure=gompertz,scale=1.5,shape=2",
            ScenarioSpec(
                family="patch-race", closure_scale=1.5, closure_shape=2.0
            ),
        ),
        (
            "patch-race:closure=empirical,lifetimes=0.5;1.25;4",
            ScenarioSpec(
                family="patch-race", closure="empirical",
                lifetimes=(0.5, 1.25, 4.0),
            ),
        ),
        ("epidemic:spread=0.4", ScenarioSpec(family="epidemic", spread=0.4)),
        ("adaptive:explore=0.1", ScenarioSpec(family="adaptive", explore=0.1)),
        (" epidemic : spread = 0.4 ", ScenarioSpec(family="epidemic", spread=0.4)),
    ])
    def test_round_trips(self, token, expected):
        assert parse_scenario(token) == expected

    @pytest.mark.parametrize("token", [
        "bogus",
        "campaign:adversaries",
        "campaign:=3",
        "campaign:adversaries=three",
        "epidemic:velocity=0.4",
        "patch-race:lifetimes=a;b",
    ])
    def test_malformed_tokens_rejected(self, token):
        with pytest.raises(SimulationError):
            parse_scenario(token)


# -- building blocks --------------------------------------------------------------


class TestGompertzClosure:
    def test_inverse_cdf_round_trips(self):
        scale, shape = 2.0, 1.5
        for u in (0.01, 0.25, 0.5, 0.9, 0.999):
            t = gompertz_closure_time(_FixedRandom([u]), scale, shape)
            assert t > 0.0
            cdf = -math.expm1(-shape * math.expm1(t / scale))
            assert cdf == pytest.approx(u, abs=1e-12)

    def test_consumes_exactly_one_draw(self):
        rng = _FixedRandom([0.5, 0.9])
        gompertz_closure_time(rng, 1.0, 1.0)
        assert rng._values == [0.9]


class TestSuperposedArrivals:
    @given(
        streams=st.integers(min_value=1, max_value=5),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_events_are_nondecreasing_and_bounded(self, streams, seed):
        import random

        rng = random.Random(seed)
        horizon = 4.0
        times = list(
            SuperposedArrivals(
                lambda r: r.expovariate(1.0), streams
            ).events(rng, horizon)
        )
        assert all(t <= horizon for t in times)
        assert times == sorted(times)

    def test_zero_streams_rejected(self):
        with pytest.raises(SimulationError):
            SuperposedArrivals(lambda rng: 1.0, 0)


class TestPolicies:
    def test_patch_race_fizzles_closed_entries(self):
        spec = ScenarioSpec(
            family="patch-race", closure="empirical", lifetimes=(2.0,)
        )
        policy = PatchRacePolicy(spec, pool_size=3)
        policy.reset(_FixedRandom([]))  # empirical choice() needs no random()
        assert policy._closures == (2.0, 2.0, 2.0)
        live = policy.choose(_FixedRandom([]), now=1.0, compromised=0)
        assert live == 0
        fizzled = policy.choose(_FixedRandom([]), now=3.0, compromised=0)
        assert fizzled is None

    def test_epidemic_adjacency_is_the_or_of_covering_masks(self):
        spec = ScenarioSpec(family="epidemic", spread=1.0)
        # Replica 0 shares vulns with 1 (mask 0b011) and 2 (mask 0b101).
        policy = EpidemicPolicy(spec, victim_masks=(0b011, 0b101), replicas=3)
        assert policy._adjacency == (0b111, 0b011, 0b101)
        # spread=1.0: replica 0 infects its whole neighbourhood; replicas 1
        # and 2, now compromised, draw too (one draw per compromised
        # replica in ascending bit order).
        rng = _FixedRandom([0.0, 0.0, 0.0])
        assert policy.propagate(rng, compromised=0b001) == 0b111
        assert rng._values == []

    def test_adaptive_greedy_maximises_new_damage_lowest_index_ties(self):
        spec = ScenarioSpec(family="adaptive", explore=0.0)
        policy = AdaptivePolicy(spec, victim_masks=(0b0011, 0b1100, 0b1110))
        # Nothing compromised: mask 2 newly takes 3 replicas.
        assert policy.choose(_FixedRandom([0.9]), 0.0, compromised=0) == 2
        # With 0b1100 already down, masks 0 and 2 both add limited damage;
        # mask 0 adds 2, mask 2 adds 1 -> mask 0 wins.
        assert policy.choose(_FixedRandom([0.9]), 0.0, compromised=0b1100) == 0
        # Equal damage everywhere -> lowest index.
        tied = AdaptivePolicy(spec, victim_masks=(0b01, 0b10))
        assert tied.choose(_FixedRandom([0.9]), 0.0, compromised=0) == 0

    def test_build_scenario_dispatches_per_family(self):
        masks = (0b01, 0b10)

        def gap(rng):
            return 1.0

        arrivals, policy = build_scenario(None, gap, masks, 2)
        assert isinstance(arrivals, RenewalArrivals)
        assert isinstance(policy, UniformPolicy)
        arrivals, policy = build_scenario(
            ScenarioSpec(family="campaign", adversaries=3), gap, masks, 2
        )
        assert isinstance(arrivals, SuperposedArrivals)
        _, policy = build_scenario(
            ScenarioSpec(family="patch-race"), gap, masks, 2
        )
        assert isinstance(policy, PatchRacePolicy)
        _, policy = build_scenario(
            ScenarioSpec(family="epidemic"), gap, masks, 2
        )
        assert isinstance(policy, EpidemicPolicy)
        _, policy = build_scenario(
            ScenarioSpec(family="adaptive"), gap, masks, 2
        )
        assert isinstance(policy, AdaptivePolicy)
