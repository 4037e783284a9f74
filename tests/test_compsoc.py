"""Tests for the composable-execution substrate (Section III-E)."""

import pytest

from repro.compsoc import (Application, ComposablePlatform,
                           ExternalChannel, InterVepChannel,
                           PlatformRootOfTrust, VepViolation,
                           measure_overhead, periodic_workload,
                           verify_composability)


def _app(name="app", compute=3, requests=8, base=0x1000_0000):
    return periodic_workload(name, compute_ticks=compute,
                             requests=requests, base_address=base)


def _hog(name="hog", base=0x1010_0000):
    return periodic_workload(name, compute_ticks=0, requests=150,
                             base_address=base)


class TestApplications:
    def test_phase_validation(self):
        with pytest.raises(ValueError):
            Application("bad", [("jump", 3)])
        with pytest.raises(ValueError):
            Application("bad", [("compute", -1)])

    def test_periodic_workload_shape(self):
        app = periodic_workload("a", 2, 3, 0x1000)
        kinds = [phase[0] for phase in app.phases]
        assert kinds == ["compute", "mem"] * 3

    def test_zero_compute_workload(self):
        app = periodic_workload("a", 0, 2, 0x1000)
        assert all(kind == "mem" for kind, _ in app.phases)


class TestPlatformExecution:
    def test_single_app_completes(self):
        platform = ComposablePlatform("tdm")
        vep = platform.create_vep("v0")
        vep.attach(_app(requests=5))
        timelines = platform.run()
        timeline = timelines["app"]
        assert timeline.finished_cycle is not None
        assert len(timeline.completion_cycles) == 5

    def test_completions_monotone(self):
        platform = ComposablePlatform("tdm")
        vep = platform.create_vep("v0")
        vep.attach(_app())
        timeline = platform.run()["app"]
        assert timeline.completion_cycles == \
            sorted(timeline.completion_cycles)

    def test_all_policies_complete_same_work(self):
        for policy in ("tdm", "round_robin", "fcfs"):
            platform = ComposablePlatform(policy)
            platform.create_vep("v0").attach(_app())
            platform.create_vep("v1").attach(_hog())
            timelines = platform.run()
            assert len(timelines["app"].completion_cycles) == 8
            assert len(timelines["hog"].completion_cycles) == 150

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ComposablePlatform("priority")


    def test_vep_memory_isolation(self):
        platform = ComposablePlatform("tdm")
        v0 = platform.create_vep("v0")
        v1 = platform.create_vep("v1")
        # App in v0 tries to touch v1's memory.
        rogue = periodic_workload("rogue", 0, 3, v1.memory.base)
        v0.attach(rogue)
        timelines = platform.run()
        assert len(timelines["rogue"].violations) == 3
        assert timelines["rogue"].completion_cycles == []

    def test_check_access_raises(self):
        platform = ComposablePlatform("tdm")
        vep = platform.create_vep("v0")
        with pytest.raises(VepViolation):
            vep.check_access(0)


class TestComposability:
    CORUNNERS = [[_hog], [_hog, lambda: _hog("hog2", 0x1020_0000)]]

    def test_tdm_is_composable(self):
        report = verify_composability("tdm", _app, self.CORUNNERS)
        assert report.composable

    @pytest.mark.parametrize("policy", ["round_robin", "fcfs"])
    def test_work_conserving_policies_interfere(self, policy):
        report = verify_composability(policy, _app, self.CORUNNERS)
        assert not report.composable
        assert report.divergent_runs

    def test_composability_with_heavier_load(self):
        heavy = [[_hog, lambda: _hog("h2", 0x1020_0000),
                  lambda: _hog("h3", 0x1030_0000)]]
        report = verify_composability("tdm", _app, heavy)
        assert report.composable

    def test_baseline_recorded(self):
        report = verify_composability("tdm", _app, self.CORUNNERS)
        assert len(report.baseline_completions) == 8


class TestOverhead:
    def test_tdm_pays_for_composability(self):
        report = measure_overhead([_app, _hog])
        assert report.makespans["tdm"] > report.makespans["round_robin"]
        assert report.tdm_overhead_vs_best > 0

    def test_report_printable(self):
        report = measure_overhead([_app, _hog])
        assert "tdm" in str(report)


class TestSecureChannels:
    ROOT = PlatformRootOfTrust(bytes(range(32)))

    def test_root_secret_length(self):
        with pytest.raises(ValueError):
            PlatformRootOfTrust(b"short")

    def test_channel_key_symmetric(self):
        assert self.ROOT.channel_key("a", "b") == \
            self.ROOT.channel_key("b", "a")

    def test_inter_vep_roundtrip(self):
        channel = InterVepChannel(self.ROOT, "v0", "v1")
        message = channel.send("v0", b"model update")
        assert message.recipient == "v1"
        assert channel.receive(message) == b"model update"

    def test_inter_vep_rejects_foreign_sender(self):
        channel = InterVepChannel(self.ROOT, "v0", "v1")
        with pytest.raises(ValueError):
            channel.send("v2", b"spoof")

    def test_inter_vep_tamper_detected(self):
        channel = InterVepChannel(self.ROOT, "v0", "v1")
        message = channel.send("v0", b"payload")
        tampered = bytearray(message.ciphertext)
        tampered[0] ^= 1
        message.ciphertext = bytes(tampered)
        with pytest.raises(ValueError):
            channel.receive(message)

    def test_nonces_unique(self):
        channel = InterVepChannel(self.ROOT, "v0", "v1")
        first = channel.send("v0", b"a")
        second = channel.send("v0", b"b")
        assert first.nonce != second.nonce

    def test_external_channel_verifies_remotely(self):
        shared = b"\x42" * 32
        channel = ExternalChannel(self.ROOT, "v0", shared)
        message = channel.send(b"telemetry")
        payload = ExternalChannel.verify_and_open(
            message, self.ROOT.public_identity, shared)
        assert payload == b"telemetry"

    def test_external_channel_rejects_forged_signature(self):
        shared = b"\x42" * 32
        channel = ExternalChannel(self.ROOT, "v0", shared)
        message = channel.send(b"telemetry")
        forged = bytearray(message.signature)
        forged[0] ^= 1
        message.signature = bytes(forged)
        with pytest.raises(ValueError):
            ExternalChannel.verify_and_open(
                message, self.ROOT.public_identity, shared)

    def test_external_channel_rejects_other_platform(self):
        shared = b"\x42" * 32
        other = PlatformRootOfTrust(b"\x99" * 32)
        channel = ExternalChannel(other, "v0", shared)
        message = channel.send(b"telemetry")
        with pytest.raises(ValueError):
            ExternalChannel.verify_and_open(
                message, self.ROOT.public_identity, shared)
