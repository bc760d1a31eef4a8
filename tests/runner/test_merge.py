"""Partial-run merging: order independence, contiguity, engine equivalence.

The merge-order regression matters because parallel workers complete chunks
in nondeterministic order: ``merge_run_ranges`` must therefore sort partials
by run-range start before concatenating, or per-run sequences (and with them
``mean_compromised`` / ``mean_time_to_violation``) would depend on worker
scheduling.
"""

import random
import statistics

import pytest

from repro.core.exceptions import SimulationError
from repro.itsys.simulation import (
    CompromiseSimulation,
    RunRangeTallies,
    merge_run_ranges,
    result_from_tallies,
)

from tests.conftest import make_entry

SET1 = ("Windows2003", "Solaris", "Debian", "OpenBSD")
THREE = ("Debian", "OpenBSD", "Solaris")


@pytest.fixture(scope="module")
def simulation(request):
    corpus = request.getfixturevalue("corpus")
    return CompromiseSimulation(corpus.valid_entries, seed=123)


class TestRunRangeTallies:
    def test_rejects_inverted_ranges(self):
        with pytest.raises(SimulationError):
            RunRangeTallies(5, 5, ())

    def test_rejects_negative_start(self):
        with pytest.raises(SimulationError):
            RunRangeTallies(-1, 2, ((), (), ()))

    def test_rejects_count_length_mismatch(self):
        with pytest.raises(SimulationError):
            RunRangeTallies(0, 3, ((1.0,), (1.0,)))


class TestMergeOrderIndependence:
    def test_shuffled_partials_merge_identically(self, simulation):
        """Regression: merging must not depend on worker completion order."""
        boundaries = [0, 7, 11, 24, 30, 40]
        partials = [
            simulation.run_range(SET1, start, stop, horizon=3.0)
            for start, stop in zip(boundaries, boundaries[1:])
        ]
        reference = merge_run_ranges(partials)
        rng = random.Random(5)
        for _ in range(10):
            shuffled = list(partials)
            rng.shuffle(shuffled)
            assert merge_run_ranges(shuffled) == reference

    def test_merge_is_associative_over_groupings(self, simulation):
        partials = [
            simulation.run_range(SET1, start, stop, horizon=3.0)
            for start, stop in ((0, 5), (5, 12), (12, 20))
        ]
        left_first = merge_run_ranges(
            [merge_run_ranges(partials[:2]), partials[2]]
        )
        right_first = merge_run_ranges(
            [partials[0], merge_run_ranges(partials[1:])]
        )
        assert left_first == right_first == merge_run_ranges(partials)

    def test_gap_rejected(self, simulation):
        first = simulation.run_range(SET1, 0, 5, horizon=3.0)
        late = simulation.run_range(SET1, 6, 10, horizon=3.0)
        with pytest.raises(SimulationError, match="not contiguous"):
            merge_run_ranges([first, late])

    def test_overlap_rejected(self, simulation):
        first = simulation.run_range(SET1, 0, 5, horizon=3.0)
        overlapping = simulation.run_range(SET1, 4, 10, horizon=3.0)
        with pytest.raises(SimulationError, match="not contiguous"):
            merge_run_ranges([first, overlapping])

    def test_empty_merge_rejected(self):
        with pytest.raises(SimulationError):
            merge_run_ranges([])


class TestRunRangeEquivalence:
    @pytest.mark.parametrize("engine", ["bitset", "naive"])
    def test_chunked_equals_single_campaign(self, corpus, engine):
        """Any chunking merges to the exact single-process result."""
        simulation = CompromiseSimulation(
            corpus.valid_entries, seed=99, engine=engine
        )
        campaign = dict(horizon=3.0, recovery_interval=1.5)
        whole = simulation.run_configuration("set1", SET1, runs=30, **campaign)
        for boundaries in ([0, 30], [0, 1, 30], [0, 10, 20, 30], list(range(31))):
            partials = [
                simulation.run_range(SET1, start, stop, **campaign)
                for start, stop in zip(boundaries, boundaries[1:])
            ]
            merged = result_from_tallies("set1", SET1, merge_run_ranges(partials))
            assert merged == whole

    def test_result_requires_complete_tallies(self, simulation):
        partial = simulation.run_range(SET1, 5, 10, horizon=3.0)
        with pytest.raises(SimulationError, match="run 0"):
            result_from_tallies("set1", SET1, partial)

    def test_run_range_validates_bounds(self, simulation):
        with pytest.raises(SimulationError):
            simulation.run_range(SET1, 3, 3)
        with pytest.raises(SimulationError):
            simulation.run_range(SET1, -1, 4)


class TestScorer:
    """``result_from_tallies``: one run's first-reach record, scored."""

    @pytest.mark.parametrize(
        "os_names, quorum_model, reached, violation_time, liveness_lost",
        [
            # f = 0 (n <= 3 under 3f+1): the first compromise violates
            # safety, and liveness holds while one replica stays correct.
            (("Debian",), "3f+1", (), None, False),
            (("Debian",), "3f+1", (2.5,), 2.5, True),
            (THREE, "3f+1", (1.5,), 1.5, False),
            (THREE, "3f+1", (1.5, 2.0), 1.5, False),
            (THREE, "3f+1", (1.5, 2.0, 4.0), 1.5, True),
            # The same group under 2f+1 tolerates one (f = 1, quorum 2).
            (THREE, "2f+1", (1.5,), None, False),
            (THREE, "2f+1", (1.5, 2.0), 2.0, True),
            # A smart opening that takes two of four replicas at t = 0.0.
            (SET1, "3f+1", (0.0, 0.0), 0.0, True),
            (SET1, "2f+1", (0.0, 0.0), 0.0, False),
            (SET1, "3f+1", (0.0,), None, False),
            # Crossed f at 1.0, recovered, crossed again higher at 3.0: the
            # violation time is the first crossing.
            (SET1, "3f+1", (1.0, 1.0, 3.0), 1.0, True),
        ],
    )
    def test_one_run_table(
        self, os_names, quorum_model, reached, violation_time, liveness_lost
    ):
        result = result_from_tallies(
            "cfg", os_names, RunRangeTallies(0, 1, (reached,)), quorum_model
        )
        assert result.safety_violation_probability == (
            0.0 if violation_time is None else 1.0
        )
        assert result.mean_time_to_violation == violation_time
        assert result.liveness_loss_probability == float(liveness_lost)
        assert result.mean_compromised == len(reached)

    def test_means_iterate_runs_in_order(self):
        records = ((0.5, 0.75), (), (0.25,), (2.0, 3.0, 3.0))
        result = result_from_tallies(
            "cfg", SET1, RunRangeTallies(0, 4, records), "3f+1"
        )
        assert result.safety_violation_probability == 0.5
        assert result.mean_time_to_violation == statistics.fmean([0.75, 3.0])
        assert result.mean_compromised == statistics.fmean([2, 0, 1, 3])
        assert result.liveness_loss_probability == 0.5

    def test_unknown_quorum_model_rejected(self):
        with pytest.raises(SimulationError, match="quorum model"):
            result_from_tallies("cfg", SET1, RunRangeTallies(0, 1, ((),)), "4f+2")

    @pytest.mark.parametrize("engine", ["bitset", "naive"])
    def test_recrossing_keeps_the_first_crossing(self, engine):
        """Every exploit takes the whole homogeneous group, and recoveries
        heal it between exploits: the count crosses f again and again, and
        each run records its first exploit's time for every level."""
        pool = [make_entry(cve_id="CVE-2005-0001", oses=("Debian",), year=2005)]
        simulation = CompromiseSimulation(pool, seed=41, engine=engine)
        campaign = dict(exploit_rate=4.0, horizon=3.0, recovery_interval=0.25)
        tallies = simulation.run_range(("Debian",) * 4, 0, 12, **campaign)
        firsts = [random.Random(41 + 7919 * run).expovariate(4.0) for run in range(12)]
        assert tallies.reach_times == tuple(
            (first,) * 4 if first <= 3.0 else () for first in firsts
        )
        result = simulation.run_configuration(
            "homogeneous", ("Debian",) * 4, runs=12, **campaign
        )
        assert result.mean_time_to_violation == statistics.fmean(
            first for first in firsts if first <= 3.0
        )
