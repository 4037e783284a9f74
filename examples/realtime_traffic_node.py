"""Traffic-supervision node: real-time + security, combined.

Run:  python examples/realtime_traffic_node.py

The traffic-supervision use case (paper Section I) needs hard timing
guarantees *and* protection from co-located software — the combination
Sections III-D/III-E address.  This example builds the node:

1. the framework derives the architecture for the use case,
2. a PMP-hardened RTOS runs the detection pipeline next to a
   third-party app that turns hostile (and is contained),
3. the shared interconnect runs under composable TDM so the camera
   pipeline's timing is provably independent of co-runners,
4. detections pass from VEP to VEP over a sealed inter-VEP channel and
   leave the node through a hybrid-signed secure channel.
"""

from repro.compsoc import (ComposablePlatform, ExternalChannel,
                           InterVepChannel, PlatformRootOfTrust,
                           periodic_workload, verify_composability)
from repro.core import SecurityFramework, traffic_supervision
from repro.rtos import Delay, Kernel, Receive, Send, TaskState


def step1_architecture():
    print("== 1. Derived architecture for traffic supervision ==")
    framework = SecurityFramework()
    architecture = framework.derive(traffic_supervision())
    print(framework.explain(architecture))


def step2_rtos():
    print("\n== 2. PMP-hardened RTOS: pipeline + hostile app ==")
    kernel = Kernel(protected=True, budget_window=50)
    frames = kernel.queue(capacity=4)
    detections = []

    def camera(ctx):
        for frame_id in range(8):
            yield Delay(3)                    # sensor frame period
            yield Send(frames, f"frame-{frame_id}")

    def detector(ctx):
        for _ in range(8):
            frame = yield Receive(frames)
            yield                             # one tick of inference
            detections.append(frame)

    def third_party(ctx):
        yield Delay(4)
        # Turns hostile: tries to read the detector's stack.
        ctx.load(detector_task.stack_region.base, 16)
        yield

    kernel.create_task("camera", priority=5, entry=camera)
    detector_task = kernel.create_task("detector", priority=4,
                                       entry=detector)
    hostile = kernel.create_task("3rdparty", priority=3,
                                 entry=third_party, budget_ticks=10)
    kernel.run(200)
    print(f"frames detected: {len(detections)}/8")
    print(f"hostile task state: {hostile.state.value} "
          f"(fault: {hostile.fault is not None})")
    assert hostile.state is TaskState.FAULTED
    assert len(detections) == 8


def step3_composability():
    print("\n== 3. Composable interconnect: timing independent of "
          "co-runners ==")
    pipeline = lambda: periodic_workload(
        "pipeline", compute_ticks=4, requests=10,
        base_address=0x1000_0000)
    burst = lambda: periodic_workload(
        "burst", compute_ticks=0, requests=300,
        base_address=0x1010_0000)
    for policy in ("tdm", "round_robin"):
        report = verify_composability(policy, pipeline,
                                      [[burst], [burst, burst]])
        print(f"{policy:>12}: composable={report.composable} "
              f"(divergent runs: {report.divergent_runs})")


def step4_secure_uplink():
    print("\n== 4. Signed + sealed uplink to the control centre ==")
    root = PlatformRootOfTrust(b"\x33" * 32)
    # The detector VEP hands its event to the uplink VEP over an
    # inter-VEP channel keyed from the platform root of trust.
    internal = InterVepChannel(root, "detector-vep", "pipeline-vep")
    event = internal.receive(
        internal.send("detector-vep", b"17:03 lane2 speeding event #4411"))
    print(f"inter-VEP hand-off: {event.decode()}")
    shared = b"\x44" * 32           # provisioned with the control centre
    channel = ExternalChannel(root, "pipeline-vep", shared)
    message = channel.send(event)
    print(f"message: {len(message.ciphertext)} B ciphertext, "
          f"{len(message.signature)} B hybrid signature")
    payload = ExternalChannel.verify_and_open(
        message, root.public_identity, shared)
    print(f"control centre verified + decrypted: {payload.decode()}")


def main():
    step1_architecture()
    step2_rtos()
    step3_composability()
    step4_secure_uplink()


if __name__ == "__main__":
    main()
