"""Tests for the attacker model, the BFT service model and the Monte-Carlo simulation."""

import pytest

from repro.core.enums import AccessVector, ComponentClass, ServerConfiguration
from repro.core.exceptions import SimulationError
from repro.itsys.attacker import Attacker, ExploitEvent
from repro.itsys.bft import BFTService, ServiceState
from repro.itsys.replica import ReplicaGroup
from repro.itsys.simulation import CompromiseSimulation
from tests.conftest import make_entry


@pytest.fixture()
def small_pool():
    return [
        make_entry(cve_id="CVE-2005-0001", oses=("Debian",)),
        make_entry(cve_id="CVE-2005-0002", oses=("Debian", "RedHat")),
        make_entry(cve_id="CVE-2006-0003", oses=("OpenBSD",), year=2006),
        make_entry(cve_id="CVE-2007-0004", oses=("Windows2003",), year=2007),
        make_entry(cve_id="CVE-2008-0005", oses=("Debian",), year=2008,
                   component_class=ComponentClass.APPLICATION),
        make_entry(cve_id="CVE-2008-0006", oses=("Solaris",), year=2008,
                   access=AccessVector.LOCAL),
    ]


class TestAttacker:
    def test_pool_respects_configuration_filter(self, small_pool):
        attacker = Attacker(small_pool, ServerConfiguration.ISOLATED_THIN)
        assert attacker.pool_size == 4  # drops the application and local entries
        fat = Attacker(small_pool, ServerConfiguration.FAT)
        assert fat.pool_size == 6

    def test_empty_pool_rejected(self, small_pool):
        local_only = [e for e in small_pool if not e.is_remote]
        with pytest.raises(SimulationError):
            Attacker(local_only, ServerConfiguration.ISOLATED_THIN)

    def test_pool_for_os(self, small_pool):
        attacker = Attacker(small_pool, ServerConfiguration.FAT)
        assert len(attacker.pool_for_os("Debian")) == 3

    def test_poisson_campaign_times_within_horizon(self, small_pool):
        attacker = Attacker(small_pool, seed=3)
        events = attacker.poisson_campaign(rate=2.0, horizon=20.0)
        assert events, "expected at least one exploit at rate 2 over 20 time units"
        assert all(0 < event.time <= 20.0 for event in events)

    def test_poisson_campaign_is_deterministic_per_seed(self, small_pool):
        a = Attacker(small_pool, seed=11).poisson_campaign(1.0, 10.0)
        b = Attacker(small_pool, seed=11).poisson_campaign(1.0, 10.0)
        assert a == b

    def test_poisson_campaign_targeted(self, small_pool):
        attacker = Attacker(small_pool, seed=5)
        events = attacker.poisson_campaign(2.0, 30.0, targeted_os=["OpenBSD"])
        assert events
        assert all("OpenBSD" in event.affected_os for event in events)

    def test_poisson_campaign_targeting_unknown_os_yields_nothing(self, small_pool):
        attacker = Attacker(small_pool, seed=5)
        assert attacker.poisson_campaign(2.0, 30.0, targeted_os=["Windows2008"]) == []

    def test_poisson_campaign_validates_parameters(self, small_pool):
        attacker = Attacker(small_pool)
        with pytest.raises(SimulationError):
            attacker.poisson_campaign(0.0, 10.0)
        with pytest.raises(SimulationError):
            attacker.poisson_campaign(1.0, 0.0)

    def test_publication_replay_preserves_order(self, small_pool):
        attacker = Attacker(small_pool, ServerConfiguration.FAT)
        events = attacker.publication_replay()
        times = [event.time for event in events]
        assert times == sorted(times)
        assert events[0].time == 0.0

    def test_publication_replay_zero_day_lead(self, small_pool):
        attacker = Attacker(small_pool, ServerConfiguration.FAT)
        normal = attacker.publication_replay()
        early = attacker.publication_replay(zero_day_lead=30.0)
        assert all(e.time <= n.time for e, n in zip(early, normal))

    def test_best_single_exploit(self, small_pool):
        attacker = Attacker(small_pool, ServerConfiguration.FAT)
        cve, coverage = attacker.best_single_exploit(["Debian", "RedHat", "OpenBSD"])
        assert cve == "CVE-2005-0002"
        assert coverage == 2

    def test_opening_exploit_is_the_best_single_exploit(self, small_pool):
        attacker = Attacker(small_pool, ServerConfiguration.FAT)
        opening = attacker.opening_exploit(["Debian", "RedHat", "OpenBSD"])
        assert opening is not None
        assert opening.cve_id == "CVE-2005-0002"
        assert opening.time == 0.0

    def test_opening_exploit_none_when_pool_misses_group(self, small_pool):
        attacker = Attacker(small_pool, ServerConfiguration.FAT)
        assert attacker.opening_exploit(["Windows2008"]) is None

    def test_aging_campaign_times_within_horizon(self, small_pool):
        attacker = Attacker(small_pool, seed=3)
        events = attacker.aging_campaign(rate=2.0, shape=1.5, horizon=20.0)
        assert events
        assert all(0 < event.time <= 20.0 for event in events)
        times = [event.time for event in events]
        assert times == sorted(times)

    def test_aging_campaign_is_deterministic_per_seed(self, small_pool):
        a = Attacker(small_pool, seed=11).aging_campaign(1.0, 0.8, 10.0)
        b = Attacker(small_pool, seed=11).aging_campaign(1.0, 0.8, 10.0)
        assert a == b

    def test_aging_campaign_validates_shape(self, small_pool):
        attacker = Attacker(small_pool)
        with pytest.raises(SimulationError):
            attacker.aging_campaign(1.0, 0.0, 10.0)

    def test_aging_shape_below_one_bursts_early(self, small_pool):
        """A sub-exponential shape front-loads arrivals relative to aging."""
        burst = Attacker(small_pool, seed=5).aging_campaign(1.0, 0.5, 30.0)
        aging = Attacker(small_pool, seed=5).aging_campaign(1.0, 2.5, 30.0)
        assert burst and aging
        assert burst[0].time < aging[0].time


class TestBFTService:
    def _exploit(self, time, oses, cve="CVE-X"):
        return ExploitEvent(time=time, cve_id=cve, affected_os=frozenset(oses), remote=True)

    def test_execute_request_requires_quorum(self):
        service = BFTService(ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"]))
        record = service.execute_request(1.0)
        assert record.sequence_number == 1
        assert len(record.quorum) == 3

    def test_execute_request_fails_without_quorum(self):
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        group.apply_exploit(1.0, "CVE-1", {"Debian"})
        group.apply_exploit(2.0, "CVE-2", {"OpenBSD"})
        # Two compromised out of four: safety is already gone (f=1).
        with pytest.raises(SimulationError):
            service.execute_request(3.0)

    def test_campaign_homogeneous_group_falls_to_single_exploit(self):
        group = ReplicaGroup.homogeneous("Debian", 4)
        service = BFTService(group)
        timeline = service.run_campaign([self._exploit(1.0, ["Debian"])])
        assert timeline.state is ServiceState.SAFETY_VIOLATED
        assert timeline.safety_violation_time == 1.0
        assert not timeline.survived

    def test_campaign_diverse_group_survives_single_exploit(self):
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        timeline = service.run_campaign([self._exploit(1.0, ["Debian"])])
        assert timeline.state is ServiceState.DEGRADED
        assert timeline.survived
        assert timeline.safety_violation_time is None

    def test_campaign_common_vulnerability_defeats_diversity(self):
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        timeline = service.run_campaign([self._exploit(2.0, ["Debian", "OpenBSD"])])
        assert timeline.state is ServiceState.SAFETY_VIOLATED

    def test_campaign_with_requests_builds_log(self):
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        timeline = service.run_campaign(
            [self._exploit(5.0, ["Debian"])], request_interval=1.0, horizon=10.0
        )
        assert len(timeline.executed) == 10
        sequence_numbers = [record.sequence_number for record in timeline.executed]
        assert sequence_numbers == sorted(sequence_numbers)

    def test_campaign_with_proactive_recovery_restores_liveness(self):
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        exploits = [self._exploit(1.0, ["Debian"], "CVE-1")]
        timeline = service.run_campaign(exploits, recovery_interval=2.0, horizon=6.0)
        assert timeline.state is ServiceState.CORRECT
        assert group.compromised_count() == 0

    def test_liveness_loss_recorded(self):
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        exploits = [
            self._exploit(1.0, ["Debian"], "CVE-1"),
            self._exploit(2.0, ["OpenBSD"], "CVE-2"),
        ]
        timeline = service.run_campaign(exploits)
        assert timeline.liveness_loss_time == 2.0


class TestBFTEventOrdering:
    """Same-timestamp semantics: exploit < request < recovery priorities."""

    def _exploit(self, time, oses, cve="CVE-X"):
        return ExploitEvent(time=time, cve_id=cve, affected_os=frozenset(oses), remote=True)

    def test_exploit_beats_recovery_at_same_timestamp(self):
        """An exploit landing exactly at a recovery tick is processed first,
        so the compromise is recorded (and immediately healed)."""
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        timeline = service.run_campaign(
            [self._exploit(2.0, ["Debian"], "CVE-1")],
            recovery_interval=2.0,
            horizon=2.0,
        )
        assert timeline.compromised_events == [(2.0, "CVE-1", 1)]
        assert timeline.peak_compromised == 1
        assert group.compromised_count() == 0  # the same-tick recovery healed it
        assert timeline.state.value == "correct"

    def test_exploit_beats_request_at_same_timestamp(self):
        """A safety-violating exploit at a request tick suppresses the request."""
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        timeline = service.run_campaign(
            [self._exploit(1.0, ["Debian", "OpenBSD"], "CVE-1")],
            request_interval=1.0,
            horizon=2.0,
        )
        assert timeline.safety_violation_time == 1.0
        assert timeline.executed == []

    def test_request_beats_recovery_at_same_timestamp(self):
        """At a shared tick the request still sees the compromised group."""
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        # Two compromised replicas out of four: unsafe and no quorum, so the
        # requests at 1.0 and 2.0 are refused -- the 2.0 one because requests
        # sort *before* the co-timed recovery.  Once recovered, 3.0 executes.
        timeline = service.run_campaign(
            [self._exploit(0.5, ["Debian", "OpenBSD"], "CVE-1")],
            request_interval=1.0,
            recovery_interval=2.0,
            horizon=3.0,
        )
        executed_times = [record.time for record in timeline.executed]
        assert executed_times == [3.0]
        assert timeline.peak_compromised == 2

    def test_liveness_latch_survives_proactive_recovery(self):
        """Once liveness was lost, a later recovery must not clear the time."""
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        exploits = [
            self._exploit(1.0, ["Debian"], "CVE-1"),
            self._exploit(1.5, ["OpenBSD"], "CVE-2"),  # two down: liveness lost
            self._exploit(4.0, ["Solaris"], "CVE-3"),  # after full recovery at 3.0
        ]
        timeline = service.run_campaign(exploits, recovery_interval=3.0, horizon=5.0)
        assert timeline.liveness_loss_time == 1.5
        assert timeline.safety_violation_time == 1.5
        # The recovery healed the group (only the 4.0 exploit is live at the
        # end) but the latched loss times are untouched.
        assert group.compromised_count() == 1
        assert timeline.peak_compromised == 2

    def test_peak_compromised_not_reset_by_recovery(self):
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        exploits = [
            self._exploit(0.5, ["Debian"], "CVE-1"),
            self._exploit(1.0, ["OpenBSD"], "CVE-2"),
        ]
        timeline = service.run_campaign(exploits, recovery_interval=2.0, horizon=2.0)
        assert group.compromised_count() == 0
        assert timeline.peak_compromised == 2

    def test_reach_times_keep_the_first_crossing(self):
        """Crossing f, recovering and crossing again: each level keeps the
        time it was first reached, and safety latched at the first."""
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        service = BFTService(group)
        exploits = [
            self._exploit(1.0, ["Debian", "OpenBSD"], "CVE-1"),
            self._exploit(3.0, ["Debian", "OpenBSD", "Solaris"], "CVE-2"),
        ]
        timeline = service.run_campaign(exploits, recovery_interval=2.0, horizon=3.0)
        assert timeline.reach_times == [1.0, 1.0, 3.0]
        assert timeline.peak_compromised == len(timeline.reach_times)
        assert timeline.safety_violation_time == timeline.reach_times[group.f] == 1.0

    def test_reach_times_start_from_replicas_already_down(self):
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        group.apply_exploit(0.25, "CVE-0", ["Solaris"])
        timeline = BFTService(group).run_campaign(
            [self._exploit(1.0, ["Debian"], "CVE-1")], horizon=2.0
        )
        assert timeline.reach_times == [0.25, 1.0]
        assert timeline.peak_compromised == 2


class TestCompromiseSimulation:
    def test_run_configuration_basic(self, corpus):
        simulation = CompromiseSimulation(corpus.valid_entries, seed=3)
        result = simulation.run_configuration(
            "diverse", ("Debian", "OpenBSD", "Solaris", "Windows2003"),
            runs=20, exploit_rate=1.0, horizon=5.0,
        )
        assert result.runs == 20
        assert 0.0 <= result.safety_violation_probability <= 1.0
        assert 0.0 <= result.mean_compromised <= 4.0
        assert "diverse" in result.summary()

    def test_rejects_non_positive_runs(self, corpus):
        simulation = CompromiseSimulation(corpus.valid_entries)
        with pytest.raises(SimulationError):
            simulation.run_configuration("x", ("Debian",), runs=0)

    def test_homogeneous_group_is_weaker_than_diverse(self, corpus):
        """The paper's core claim, measured end to end on the corpus."""
        simulation = CompromiseSimulation(corpus.valid_entries, seed=11)
        homogeneous, diverse = simulation.homogeneous_vs_diverse(
            "Debian",
            ("Debian", "OpenBSD", "Solaris", "Windows2003"),
            runs=40,
            exploit_rate=1.0,
            horizon=4.0,
        )
        assert homogeneous.safety_violation_probability >= diverse.safety_violation_probability
        assert homogeneous.mean_compromised >= diverse.mean_compromised

    def test_diversity_gain_non_negative(self, corpus):
        simulation = CompromiseSimulation(corpus.valid_entries, seed=23)
        gain = simulation.diversity_gain(
            "Windows2003",
            ("Debian", "OpenBSD", "Solaris", "Windows2003"),
            runs=30,
            exploit_rate=1.0,
            horizon=4.0,
        )
        assert -0.2 <= gain <= 1.0

    def test_compare_returns_one_result_per_configuration(self, corpus):
        simulation = CompromiseSimulation(corpus.valid_entries, seed=5)
        results = simulation.compare(
            {"homogeneous": ("Debian",) * 4, "set1": ("Debian", "OpenBSD", "Solaris", "Windows2003")},
            runs=10, horizon=3.0,
        )
        assert [result.name for result in results] == ["homogeneous", "set1"]

    def test_single_exploit_analysis_contrast(self, corpus):
        """A single exploit defeats a homogeneous group far more often than Set1."""
        simulation = CompromiseSimulation(corpus.valid_entries)
        homogeneous = simulation.single_exploit_analysis("4xDebian", ("Debian",) * 4)
        diverse = simulation.single_exploit_analysis(
            "Set1", ("Windows2003", "Solaris", "Debian", "OpenBSD")
        )
        assert homogeneous.single_attack_defeat_probability == 1.0
        assert diverse.single_attack_defeat_probability < 0.1
        assert homogeneous.mean_replicas_per_exploit == 4.0
        assert diverse.mean_replicas_per_exploit < 1.5

    def test_single_exploit_analysis_empty_group_os(self, corpus):
        simulation = CompromiseSimulation(corpus.valid_entries)
        analysis = simulation.single_exploit_analysis(
            "pair", ("OpenSolaris", "Windows2008")
        )
        assert analysis.relevant_exploits > 0
        assert 0.0 <= analysis.single_attack_defeat_probability <= 1.0

    def test_results_are_reproducible(self, corpus):
        a = CompromiseSimulation(corpus.valid_entries, seed=9).run_configuration(
            "x", ("Debian", "OpenBSD", "Solaris", "Windows2003"), runs=10, horizon=3.0
        )
        b = CompromiseSimulation(corpus.valid_entries, seed=9).run_configuration(
            "x", ("Debian", "OpenBSD", "Solaris", "Windows2003"), runs=10, horizon=3.0
        )
        assert a == b

    def test_rejects_unknown_engine_and_arrival(self, corpus):
        with pytest.raises(SimulationError):
            CompromiseSimulation(corpus.valid_entries, engine="quantum")
        simulation = CompromiseSimulation(corpus.valid_entries)
        with pytest.raises(SimulationError):
            simulation.run_configuration("x", ("Debian",), runs=5, arrival="fractal")

    def test_mean_compromised_counts_recovered_replicas(self):
        """Regression: proactive recovery must not erase observed damage.

        The pool only targets Debian, so every run peaks at exactly one
        compromised replica; with the recovery interval equal to the horizon
        the group is always clean *at the end* of the campaign, which the old
        end-state accounting reported as zero damage.
        """
        pool = [make_entry(cve_id="CVE-2005-0001", oses=("Debian",))]
        simulation = CompromiseSimulation(pool, seed=3)
        result = simulation.run_configuration(
            "diverse",
            ("Debian", "OpenBSD", "Solaris", "Windows2003"),
            runs=20,
            exploit_rate=4.0,
            horizon=3.0,
            recovery_interval=3.0,
        )
        assert result.mean_compromised == 1.0
        # The end state really is clean: replaying one campaign shows the
        # recovery wiping the compromise that the peak accounting preserves.
        attacker = Attacker(pool, seed=3)
        group = ReplicaGroup(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        timeline = BFTService(group).run_campaign(
            attacker.poisson_campaign(4.0, 3.0, targeted_os=["Debian"]),
            recovery_interval=3.0,
            horizon=3.0,
        )
        assert group.compromised_count() == 0
        assert timeline.peak_compromised == 1

    def test_compare_forwards_targeted_and_smart(self, corpus):
        """Regression: compare() used to silently drop campaign parameters."""
        simulation = CompromiseSimulation(corpus.valid_entries, seed=5)
        configurations = {"set1": ("Windows2003", "Solaris", "Debian", "OpenBSD")}
        campaign = dict(runs=10, exploit_rate=1.0, horizon=3.0,
                        targeted=False, smart=True, quorum_model="2f+1")
        (compared,) = simulation.compare(configurations, **campaign)
        direct = simulation.run_configuration("set1", configurations["set1"], **campaign)
        assert compared == direct

    def test_homogeneous_vs_diverse_forwards_quorum_and_recovery(self, corpus):
        """Regression: quorum_model/recovery_interval were dropped entirely."""
        simulation = CompromiseSimulation(corpus.valid_entries, seed=5)
        diverse_os = ("Windows2003", "Solaris", "Debian", "OpenBSD")
        campaign = dict(runs=10, exploit_rate=1.0, horizon=3.0,
                        quorum_model="2f+1", recovery_interval=1.0)
        homogeneous, diverse = simulation.homogeneous_vs_diverse(
            "Debian", diverse_os, **campaign
        )
        assert homogeneous == simulation.run_configuration(
            "homogeneous-Debian", ("Debian",) * 4, **campaign
        )
        assert diverse == simulation.run_configuration(
            "diverse-" + "+".join(diverse_os), diverse_os, **campaign
        )

    def test_diversity_gain_none_when_baseline_has_no_violations(self):
        """A violation-free baseline is 'nothing to reduce', not 'no gain'."""
        # The pool only affects OpenBSD, so a Debian-homogeneous baseline
        # never gets compromised -- the gain ratio is undefined.
        pool = [make_entry(cve_id="CVE-2005-0001", oses=("OpenBSD",))]
        simulation = CompromiseSimulation(pool, seed=3)
        gain = simulation.diversity_gain(
            "Debian",
            ("Debian", "RedHat", "Solaris", "Windows2003"),
            runs=5,
            exploit_rate=1.0,
            horizon=2.0,
            targeted=False,
        )
        assert gain is None

    def test_recovery_sweep_rejects_conflicting_kwarg(self, corpus):
        simulation = CompromiseSimulation(corpus.valid_entries, seed=3)
        with pytest.raises(SimulationError):
            simulation.recovery_sweep(
                "x", ("Debian",), [None, 1.0], runs=5, recovery_interval=2.0
            )

    def test_smart_adversary_never_survives_longer(self, corpus):
        """Opening with the best exploit can only hurt the defenders."""
        simulation = CompromiseSimulation(corpus.valid_entries, seed=13)
        group = ("Windows2003", "Solaris", "Debian", "OpenBSD")
        campaign = dict(runs=30, exploit_rate=1.0, horizon=3.0)
        plain = simulation.run_configuration("plain", group, **campaign)
        smart = simulation.run_configuration("smart", group, smart=True, **campaign)
        assert smart.safety_violation_probability >= plain.safety_violation_probability
        assert smart.mean_compromised >= plain.mean_compromised


class TestWilsonInterval:
    def test_bounds_and_midpoint(self):
        from repro.itsys.simulation import wilson_interval

        low, high = wilson_interval(0, 20)
        assert low == 0.0 and 0.0 < high < 0.25
        low, high = wilson_interval(20, 20)
        assert 0.75 < low < 1.0 and high == 1.0
        low, high = wilson_interval(10, 20)
        assert low < 0.5 < high

    def test_more_trials_narrow_the_interval(self):
        from repro.itsys.simulation import wilson_interval

        small = wilson_interval(5, 10)
        large = wilson_interval(500, 1000)
        assert (large[1] - large[0]) < (small[1] - small[0])

    def test_invalid_inputs_rejected(self):
        from repro.itsys.simulation import wilson_interval

        with pytest.raises(SimulationError):
            wilson_interval(1, 0)
        with pytest.raises(SimulationError):
            wilson_interval(5, 3)

    def test_result_carries_wilson_intervals(self, corpus):
        from repro.itsys.simulation import wilson_interval

        simulation = CompromiseSimulation(corpus.valid_entries, seed=3)
        result = simulation.run_configuration(
            "x", ("Debian", "OpenBSD", "Solaris", "Windows2003"), runs=25, horizon=3.0
        )
        violations = round(result.safety_violation_probability * result.runs)
        assert result.safety_violation_ci == wilson_interval(violations, result.runs)
        low, high = result.safety_violation_ci
        assert low <= result.safety_violation_probability <= high
        assert "95% CI" in result.summary()
