"""Bitset Monte-Carlo simulation engine vs the naive per-run object path.

The paper motivates the whole study with the claim that a diverse replica
group forces the adversary to compromise each replica separately.  This bench
measures that claim on the corpus *and* gates the simulation engine rework:

* on the **paper-sized** calibrated corpus both engines run the same seeded
  campaigns and must produce bit-for-bit identical ``SimulationResult``s,
  across Poisson and aging arrivals, smart openings and proactive recovery;
* on the **scaled** 100-OS catalogue (``generate_scaled_catalogue``) a
  500-run campaign must be at least 10x faster on the bitset engine, which
  compiles the exploitable pool and the per-exploit victim bitmasks once
  instead of re-filtering the 4000-entry corpus on every run.

Run the paper-sized smoke subset (what CI does)::

    PYTHONPATH=src python -m pytest benchmarks/bench_simulation.py -q -s -k paper

or the full comparison, including the 500-run 100-OS speedup gate::

    PYTHONPATH=src python -m pytest benchmarks/bench_simulation.py -q -s
"""

from __future__ import annotations

import time

from repro.core.constants import FIGURE3_CONFIGURATIONS
from repro.itsys.simulation import CompromiseSimulation
from repro.synthetic.generator import generate_scaled_catalogue

SPEEDUP_FLOOR = 10.0  # acceptance gate for the 500-run scaled campaign


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# paper-sized corpus (CI smoke subset: -k paper)
# ---------------------------------------------------------------------------


def test_paper_sized_campaigns_agree_and_speed_up(corpus):
    """Homogeneous vs Set1, 200 runs: identical results, bitset much faster."""
    configurations = {
        "homogeneous-Debian": ("Debian",) * 4,
        "Set1": FIGURE3_CONFIGURATIONS["Set1"],
    }
    campaign = dict(runs=200, exploit_rate=1.0, horizon=5.0, recovery_interval=2.0)
    fast = CompromiseSimulation(corpus.valid_entries, seed=42, engine="bitset")
    naive = CompromiseSimulation(corpus.valid_entries, seed=42, engine="naive")
    fast_results, fast_s = _timed(fast.compare, configurations, **campaign)
    naive_results, naive_s = _timed(naive.compare, configurations, **campaign)
    assert fast_results == naive_results
    by_name = {result.name: result for result in fast_results}
    print("\n=== paper-sized campaigns (200 runs, naive vs bitset) ===")
    for result in fast_results:
        print(f"  {result.summary()}")
    print(f"  naive={naive_s * 1e3:8.1f}ms  bitset={fast_s * 1e3:8.1f}ms  "
          f"x{naive_s / fast_s:.1f}")
    assert (
        by_name["homogeneous-Debian"].safety_violation_probability
        >= by_name["Set1"].safety_violation_probability
    )
    assert (
        by_name["homogeneous-Debian"].mean_compromised
        >= by_name["Set1"].mean_compromised
    )


def test_paper_sized_scenario_matrix_agrees(corpus):
    """Aging arrivals, smart openings, 2f+1 quorums: engines stay identical."""
    fast = CompromiseSimulation(corpus.valid_entries, seed=7, engine="bitset")
    naive = fast.with_engine("naive")
    scenarios = {
        "aging": dict(arrival="aging", shape=1.8),
        "smart": dict(smart=True, recovery_interval=1.0),
        "2f+1-untargeted": dict(quorum_model="2f+1", targeted=False),
    }
    print("\n=== paper-sized scenario matrix (40 runs each) ===")
    for label, extra in scenarios.items():
        campaign = dict(runs=40, exploit_rate=1.5, horizon=4.0, **extra)
        fast_result = fast.run_configuration(
            label, FIGURE3_CONFIGURATIONS["Set1"], **campaign
        )
        naive_result = naive.run_configuration(
            label, FIGURE3_CONFIGURATIONS["Set1"], **campaign
        )
        assert fast_result == naive_result
        print(f"  {fast_result.summary()}")


def test_paper_sized_recovery_sweep(corpus):
    """More frequent rejuvenation never hurts the diverse group's safety."""
    simulation = CompromiseSimulation(corpus.valid_entries, seed=11)
    sweep = simulation.recovery_sweep(
        "Set1",
        FIGURE3_CONFIGURATIONS["Set1"],
        intervals=[None, 2.0, 0.5],
        runs=60,
        exploit_rate=1.0,
        horizon=8.0,
    )
    print("\n=== paper-sized recovery sweep (Set1, 60 runs) ===")
    for interval, result in sweep.items():
        print(f"  {result.summary()}")
    assert (
        sweep[0.5].safety_violation_probability
        <= sweep[None].safety_violation_probability
    )


# ---------------------------------------------------------------------------
# scaled 100-OS catalogue (the acceptance gate)
# ---------------------------------------------------------------------------


def test_scaled_catalogue_500_run_speedup():
    """A 500-run campaign on the 100-OS catalogue: bitset >= 10x faster."""
    catalogue = generate_scaled_catalogue(n_families=10, releases_per_family=10)
    assert len(catalogue.os_names) == 100
    group = ("F00-R00", "F02-R05", "F04-R09", "F07-R03")
    campaign = dict(runs=500, exploit_rate=2.0, horizon=10.0, recovery_interval=2.0)

    fast = CompromiseSimulation(catalogue.dataset(), seed=42, engine="bitset")
    naive = fast.with_engine("naive")
    fast_result, fast_s = _timed(
        fast.run_configuration, "scaled-diverse", group, **campaign
    )
    naive_result, naive_s = _timed(
        naive.run_configuration, "scaled-diverse", group, **campaign
    )
    assert fast_result == naive_result

    speedup = naive_s / fast_s
    print("\n=== scaled catalogue: 500-run campaign, 100 OSes, 4000 entries ===")
    print(f"  {fast_result.summary()}")
    print(f"  bitset: {fast_s * 1e3:7.1f}ms   naive: {naive_s * 1e3:8.1f}ms")
    print(f"  speedup: x{speedup:.1f}  (floor: x{SPEEDUP_FLOOR:.0f})")
    assert speedup >= SPEEDUP_FLOOR


def test_scaled_catalogue_homogeneous_vs_cross_family():
    """Diversity pays on the scaled catalogue too: same family >> cross family."""
    catalogue = generate_scaled_catalogue(n_families=10, releases_per_family=10)
    simulation = CompromiseSimulation(catalogue.dataset(), seed=9, engine="bitset")
    campaign = dict(runs=200, exploit_rate=1.0, horizon=4.0)
    same_family = simulation.run_configuration(
        "same-family", ("F00-R00", "F00-R01", "F00-R02", "F00-R03"), **campaign
    )
    cross_family = simulation.run_configuration(
        "cross-family", ("F00-R00", "F03-R04", "F06-R08", "F09-R02"), **campaign
    )
    print("\n=== scaled catalogue: intra-family vs cross-family groups ===")
    print(f"  {same_family.summary()}")
    print(f"  {cross_family.summary()}")
    assert (
        cross_family.safety_violation_probability
        <= same_family.safety_violation_probability
    )
    assert cross_family.mean_compromised <= same_family.mean_compromised
