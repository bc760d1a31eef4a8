"""Tests for the replica/replica-group model."""

import pytest

from repro.core.exceptions import SimulationError
from repro.itsys.replica import Replica, ReplicaGroup


class TestReplica:
    def test_os_name_normalised(self):
        assert Replica(0, "win2003").os_name == "Windows2003"

    def test_unknown_os_rejected(self):
        with pytest.raises(KeyError):
            Replica(0, "TempleOS")

    def test_vulnerable_and_compromise(self):
        replica = Replica(0, "Debian")
        assert replica.is_vulnerable_to("CVE-1", {"Debian", "RedHat"})
        replica.compromise(3.0, "CVE-1")
        assert replica.compromised
        assert replica.compromised_at == 3.0
        assert not replica.is_vulnerable_to("CVE-2", {"Debian"})

    def test_patch_blocks_exploit(self):
        replica = Replica(0, "Debian")
        replica.patch("CVE-1")
        assert not replica.is_vulnerable_to("CVE-1", {"Debian"})
        assert replica.is_vulnerable_to("CVE-2", {"Debian"})

    def test_recover(self):
        replica = Replica(0, "Debian")
        replica.compromise(1.0, "CVE-1")
        replica.recover()
        assert not replica.compromised
        assert replica.compromised_by is None

    def test_first_compromise_wins(self):
        replica = Replica(0, "Debian")
        replica.compromise(1.0, "CVE-1")
        replica.compromise(2.0, "CVE-2")
        assert replica.compromised_by == "CVE-1"


class TestReplicaGroup:
    def test_sizing_3f1(self):
        group = ReplicaGroup.homogeneous("Debian", 4)
        assert group.n == 4
        assert group.f == 1
        assert group.quorum_size == 3

    def test_sizing_2f1(self):
        group = ReplicaGroup(["Debian", "OpenBSD", "Solaris"], quorum_model="2f+1")
        assert group.f == 1
        assert group.quorum_size == 2

    def test_empty_group_rejected(self):
        with pytest.raises(SimulationError):
            ReplicaGroup([])

    def test_unknown_quorum_model_rejected(self):
        with pytest.raises(SimulationError):
            ReplicaGroup(["Debian"], quorum_model="4f+2")

    def test_diverse_constructor_rejects_duplicates(self):
        with pytest.raises(SimulationError):
            ReplicaGroup.diverse(["Debian", "Debian"])

    def test_is_diverse(self):
        assert ReplicaGroup.diverse(["Debian", "OpenBSD"]).is_diverse
        assert not ReplicaGroup.homogeneous("Debian", 3).is_diverse

    def test_safety_violated_after_f_plus_one_compromises(self):
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        assert group.f == 1
        group.replicas[0].compromise(1.0, "CVE-1")
        assert not group.safety_violated
        group.replicas[1].compromise(2.0, "CVE-2")
        assert group.safety_violated

    def test_apply_exploit_homogeneous_group_falls_at_once(self):
        group = ReplicaGroup.homogeneous("Debian", 4)
        hit = group.apply_exploit(1.0, "CVE-1", {"Debian"})
        assert hit == 4
        assert group.safety_violated

    def test_apply_exploit_diverse_group_limited_damage(self):
        group = ReplicaGroup.diverse(["Debian", "OpenBSD", "Solaris", "Windows2003"])
        hit = group.apply_exploit(1.0, "CVE-1", {"Debian"})
        assert hit == 1
        assert not group.safety_violated

    def test_proactive_recovery(self):
        group = ReplicaGroup.homogeneous("Debian", 4)
        group.apply_exploit(1.0, "CVE-1", {"Debian"})
        recovered = group.proactive_recovery()
        assert recovered == 4
        assert group.compromised_count() == 0

    def test_reset_clears_patches_and_compromises(self):
        group = ReplicaGroup.diverse(["Debian", "OpenBSD"])
        group.replicas[0].patch("CVE-1")
        group.apply_exploit(1.0, "CVE-2", {"OpenBSD"})
        group.reset()
        assert group.compromised_count() == 0
        assert group.replicas[0].patched == frozenset()

    def test_vulnerable_replicas_respects_patching(self):
        group = ReplicaGroup.homogeneous("Debian", 3)
        group.replicas[1].patch("CVE-1")
        vulnerable = group.vulnerable_replicas("CVE-1", {"Debian"})
        assert [replica.replica_id for replica in vulnerable] == [0, 2]
