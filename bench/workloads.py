"""The six benchmark workloads.

Each workload builds its inputs from the seed in :meth:`Workload.setup`
(which also constructs the program objects and runs an untimed
warm-up: one op, or a smaller one over the same code), then runs a
fixed number of timed ops.  Op ``i`` runs input ``i % distinct`` of
:attr:`Workload.distinct` inputs.  An op's output is checked against
an oracle the benchmark constructed, so ``failed`` counts ops whose
output contradicts the ground truth.  The seed
changes the inputs, never the op count: the count is sized from
``--seconds`` by :attr:`Workload.ops_per_s`, chosen so that a run
makes whole passes over its inputs and all the runs the benchmark
contract makes (4 + 22 per workload) fit its time limit even when the
reference machine (2 vCPU x86-64 guest, one thread) runs at half
speed.

The program receives only the generated inputs; expected verdicts,
optima and thresholds stay on the benchmark side.
"""

from __future__ import annotations

import hashlib
import json
import random


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}/{seed}")


class Workload:
    """One set of inputs plus the op the benchmark times."""

    name = ""
    #: What ``items_per_s`` counts on this workload.
    item = ""
    #: Timed ops per second of ``--seconds``.
    ops_per_s = 1.0
    quick_ops = 1
    #: Distinct inputs the ops cycle through.
    distinct = 1
    #: Top-level HADES template whose ``cost`` the traced run times.
    template = None
    #: The :mod:`speed` kernel doing this workload's kind of work.
    kernel = "python"

    def __init__(self, seed: int, quick: bool = False):
        self.seed = seed
        self.quick = quick
        self.rng = _rng(self.name, seed)

    def op_count(self, seconds: float) -> int:
        if self.quick:
            return self.quick_ops
        return max(1, round(seconds * self.ops_per_s))

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> bool:
        """The oracle; also tallies what :meth:`ratios` reports."""
        raise NotImplementedError

    def items(self, index: int, output) -> int:
        raise NotImplementedError

    def encode(self, output) -> bytes:
        """Canonical bytes of one op output, for the run digest."""
        raise NotImplementedError

    def inputs(self) -> bytes:
        """Canonical bytes of the generated inputs."""
        raise NotImplementedError

    def ratios(self) -> dict:
        """Per-layer ratios this workload measures from op outputs."""
        return {}


# -- attestation service -------------------------------------------------

#: The fleet: 32 devices x 2 enclaves, alternating hybrid-PQ and
#: classical, so half the reports carry ML-DSA signatures.
DEVICES = 32
QUICK_DEVICES = 4
ENCLAVES = 2
WAVE = 64
#: Policy failures: rejected before any crypto runs.
POLICY_KINDS = ("unknown-device", "malformed", "enclave-mismatch")
_WRONG_ENCLAVE_HASH = hashlib.sha3_512(b"bench-not-this-enclave").digest()
#: Byte 0 of ``enclave.data`` (after the 64-byte hash and 8-byte length).
_DATA_OFFSET = 72


class _Fleet:
    """Seeded device fleet that signs attestation requests."""

    def __init__(self, seed: int, devices: int):
        from repro.tee import build_tee
        self.identities = {}
        self.members = []          # (device_id, platform, enclaves)
        for index in range(devices):
            root = hashlib.sha256(
                f"bench-fleet/{seed}/{index}".encode()).digest()
            platform = build_tee(root, post_quantum=index % 2 == 0)
            device_id = f"dev{index:02d}"
            self.identities[device_id] = \
                platform.device.public_identity()
            enclaves = [platform.sm.create_enclave(b"bench-enclave-%d" % e)
                        for e in range(ENCLAVES)]
            self.members.append((device_id, platform, enclaves))

    @property
    def enclave_count(self) -> int:
        return len(self.members) * ENCLAVES

    def sign(self, slots) -> list:
        """``slots`` are ``(enclave index, nonce)``; returns one valid
        ``(device_id, report, expected_enclave_hash)`` request each."""
        by_device = {}
        for position, (enclave_index, nonce) in enumerate(slots):
            device, enclave = divmod(enclave_index, ENCLAVES)
            by_device.setdefault(device, []).append(
                (position, enclave, nonce))
        requests = [None] * len(slots)
        for device, entries in sorted(by_device.items()):
            device_id, platform, enclaves = self.members[device]
            reports = platform.sm.attestation_requests(
                [enclaves[e] for _, e, _ in entries],
                [nonce for _, _, nonce in entries])
            for (position, enclave, _), report in zip(entries, reports):
                requests[position] = (device_id, report,
                                      enclaves[enclave].measurement)
        return requests


def _invalid(request, kind: str):
    """A request the service must reject, derived from a valid one."""
    device_id, report, enclave_hash = request
    if kind == "bad-signature":
        # Altering signed content leaves every signature structurally
        # valid but wrong, so the batch check fails and falls back.
        tampered = bytearray(report)
        tampered[_DATA_OFFSET] ^= 0x01
        return device_id, bytes(tampered), enclave_hash
    if kind == "unknown-device":
        return "ghost", report, enclave_hash
    if kind == "malformed":
        return device_id, report[:-1], enclave_hash
    if kind == "enclave-mismatch":
        return device_id, report, _WRONG_ENCLAVE_HASH
    raise ValueError(kind)


def _verdicts_hold(results, expected) -> bool:
    """Verdicts equal the ground truth, and a session token is minted
    exactly for the accepted requests."""
    return len(results) == len(expected) and all(
        result["ok"] is want and bool(result["session"]) is want
        for result, want in zip(results, expected))


def _encode_results(results) -> bytes:
    return json.dumps(results, sort_keys=True).encode()


def _encode_requests(requests) -> bytes:
    digest = hashlib.sha256()
    for device_id, report, enclave_hash in requests:
        digest.update(device_id.encode() + b"\0" + report + enclave_hash)
    return digest.digest()


class AttestFresh(Workload):
    """Every request is a report the service has never seen."""

    name = "attest-fresh"
    item = "verifications"
    ops_per_s = 6.4
    quick_ops = 3
    #: Distinct waves signed in set-up; ops cycle through them, each
    #: through a new service, so no session-cache entry is ever reused.
    distinct = 8
    BAD_SIGNATURES = 1

    def setup(self) -> None:
        from repro.tee import AttestationService
        self.service_class = AttestationService
        rng = self.rng
        devices = QUICK_DEVICES if self.quick else DEVICES
        fleet = _Fleet(self.seed, devices)
        self.identities = fleet.identities
        if self.quick:
            self.distinct = 1
        # Slot j of every wave goes to a hybrid-PQ device when j is
        # even, so each wave holds 32 ML-DSA reports and the seed moves
        # which devices a wave sees, not how much crypto it costs.
        slots = [((2 * rng.randrange(devices // 2) + j % 2) * ENCLAVES
                  + rng.randrange(ENCLAVES), rng.randbytes(32))
                 for j in range(self.distinct * WAVE)]
        # One roster request per enclave for the warm-up, so per-key
        # verification state is built before timing starts.
        roster = [(e, rng.randbytes(32))
                  for e in range(fleet.enclave_count)]
        requests = fleet.sign(slots + roster)
        pool, roster = requests[:len(slots)], requests[len(slots):]
        expected = [True] * len(pool)
        kinds = ["bad-signature"] * self.BAD_SIGNATURES + \
            list(POLICY_KINDS)
        for kind, position in zip(kinds,
                                  rng.sample(range(len(pool)),
                                             len(kinds))):
            pool[position] = _invalid(pool[position], kind)
            expected[position] = False
        self.pool = pool
        self.waves = [(pool[lo:lo + WAVE], expected[lo:lo + WAVE])
                      for lo in range(0, len(pool), WAVE)]
        self.hits = self.lookups = 0
        self.service_class(self.identities, max_batch=WAVE).process(
            roster, jobs=1)

    def op(self, index: int):
        service = self.service_class(self.identities, max_batch=WAVE)
        self.service = service
        return service.process(self.waves[index % len(self.waves)][0],
                               jobs=1)

    def check(self, index: int, output) -> bool:
        stats = self.service.cache_stats()
        self.hits += stats["hits"]
        self.lookups += stats["hits"] + stats["misses"]
        return _verdicts_hold(output,
                              self.waves[index % len(self.waves)][1])

    def items(self, index: int, output) -> int:
        return len(output)

    def encode(self, output) -> bytes:
        return _encode_results(output)

    def inputs(self) -> bytes:
        return _encode_requests(self.pool)

    def ratios(self) -> dict:
        return {"tee.service.cache_hit_ratio":
                self.hits / self.lookups if self.lookups else 0.0}


class AttestSteady(Workload):
    """Re-attestation: a long-lived service sees the same 64 reports
    over and over, plus a trickle of invalid requests."""

    name = "attest-steady"
    item = "verifications"
    #: Session-key SHA3-512 is most of an op (see the traced run).
    kernel = "hash"
    ops_per_s = 256.0
    quick_ops = 20
    #: Distinct waves in the request stream the ops cycle through.
    distinct = 64
    #: Invalid requests in the stream (0.49% of 4096).
    INVALID = 20

    def setup(self) -> None:
        from repro.tee import AttestationService
        rng = self.rng
        fleet = _Fleet(self.seed, QUICK_DEVICES if self.quick
                       else DEVICES)
        reports = fleet.sign([(e, rng.randbytes(32))
                              for e in range(fleet.enclave_count)])
        kinds = ("bad-signature",) + POLICY_KINDS
        invalid = [_invalid(reports[rng.randrange(len(reports))], kind)
                   for kind in kinds]
        if self.quick:
            self.distinct = 2
        # As in attest-fresh, even slots hold hybrid-PQ reports (7.5 KB
        # to hash for the session key) and odd slots classical ones, so
        # the seed moves which reports a wave re-presents, not its cost.
        devices = len(fleet.members)
        stream = [(2 * rng.randrange(devices // 2) + j % 2) * ENCLAVES
                  + rng.randrange(ENCLAVES)
                  for j in range(self.distinct * WAVE)]
        for n, position in enumerate(rng.sample(range(len(stream)),
                                                self.INVALID)):
            stream[position] = -1 - n % len(invalid)
        self.requests = [reports[i] if i >= 0 else invalid[-1 - i]
                         for i in stream]
        expected = [i >= 0 for i in stream]
        self.waves = [(self.requests[lo:lo + WAVE],
                       expected[lo:lo + WAVE])
                      for lo in range(0, len(stream), WAVE)]
        self.service = AttestationService(fleet.identities,
                                          max_batch=WAVE)
        # Onboarding: the warm-up op fills the session cache.
        onboarded = self.service.process(reports + invalid, jobs=1)
        self.tokens = {report[1]: result["session"]
                       for report, result in zip(reports, onboarded)}
        self.stats = self.service.cache_stats()

    def op(self, index: int):
        return self.service.process(self.waves[index % len(self.waves)][0],
                                    jobs=1)

    def check(self, index: int, output) -> bool:
        requests, expected = self.waves[index % len(self.waves)]
        return _verdicts_hold(output, expected) and all(
            result["session"] == self.tokens[request[1]]
            for request, result, want in zip(requests, output, expected)
            if want)

    def items(self, index: int, output) -> int:
        return len(output)

    def encode(self, output) -> bytes:
        return _encode_results(output)

    def inputs(self) -> bytes:
        return _encode_requests(self.requests)

    def ratios(self) -> dict:
        now = self.service.cache_stats()
        hits = now["hits"] - self.stats["hits"]
        lookups = hits + now["misses"] - self.stats["misses"]
        return {"tee.service.cache_hit_ratio":
                hits / lookups if lookups else 0.0}


# -- HADES design-space exploration --------------------------------------

#: Table I's worst row and its exhaustive optimum (area goal, d=1).
KYBER_CCA_CONFIGS = 1_148_364
KYBER_CCA_BEST_KGE = 90.74725
#: The quick runs' smaller space over the same cost models.
KYBER_CPA_CONFIGS = 40_362
KYBER_CPA_BEST_KGE = 45.0908


def _context():
    from repro.hades import DesignContext
    return DesignContext(masking_order=1)


def _area_goal():
    from repro.hades import OptimizationGoal
    return OptimizationGoal.AREA


def _encode_design(design) -> bytes:
    return (design.configuration.describe() + repr(design.metrics)).encode()


class DseExhaustive(Workload):
    """Table I's Kyber-CCA traversal; its input is the space itself,
    so the seed changes nothing."""

    name = "dse-exhaustive"
    item = "designs"
    ops_per_s = 0.2
    quick_ops = 1

    def setup(self) -> None:
        from repro.hades import ExhaustiveExplorer
        from repro.hades.library import keccak, kyber_cca, kyber_cpa
        self.goal = _area_goal()
        context = _context()
        large, warm = (kyber_cpa, keccak) if self.quick \
            else (kyber_cca, kyber_cpa)
        self.expected = (KYBER_CPA_CONFIGS, KYBER_CPA_BEST_KGE) \
            if self.quick else (KYBER_CCA_CONFIGS, KYBER_CCA_BEST_KGE)
        self.template = large()
        self.explorer = ExhaustiveExplorer(self.template, context)
        ExhaustiveExplorer(warm(), context).run(self.goal, jobs=1)

    def op(self, index: int):
        return self.explorer.run(self.goal, jobs=1)

    def check(self, index: int, output) -> bool:
        configs, best = self.expected
        return output.explored == configs and \
            abs(output.best.metrics.area_kge - best) < 1e-9

    def items(self, index: int, output) -> int:
        return output.explored

    def encode(self, output) -> bytes:
        return b"%d/%d/" % (output.explored, output.feasible) + \
            _encode_design(output.best)

    def inputs(self) -> bytes:
        return self.template.name.encode()


class DseLocal(Workload):
    """Multi-start local search over the same space, one seeded search
    per op, evaluated point by point."""

    name = "dse-local"
    item = "searches"
    ops_per_s = 14.4
    quick_ops = 3
    #: Search seeds.  A search's work varies little with its seed (the
    #: evaluation count's coefficient of variation is 4%), so few seeds
    #: and many passes over them.
    distinct = 16
    STARTS = 10
    WARMUP_SEARCHES = 5

    def setup(self) -> None:
        from repro.hades import LocalSearchExplorer
        from repro.hades.library import kyber_cca
        self.explorer_class = LocalSearchExplorer
        self.goal = _area_goal()
        self.context = _context()
        self.template = kyber_cca()
        self.seeds = [self.rng.getrandbits(32) for _ in range(self.distinct)]
        for _ in range(self.WARMUP_SEARCHES):
            self._search(self.rng.getrandbits(32))

    def _search(self, seed: int):
        return self.explorer_class(self.template, self.context,
                                   seed=seed).run(self.goal,
                                                  starts=self.STARTS, jobs=1)

    def op(self, index: int):
        return self._search(self.seeds[index % self.distinct])

    def check(self, index: int, output) -> bool:
        best = output.best
        return abs(best.metrics.area_kge - KYBER_CCA_BEST_KGE) < 1e-9 \
            and self.template.evaluate(best.configuration,
                                       self.context) == best.metrics

    def items(self, index: int, output) -> int:
        return 1

    def encode(self, output) -> bytes:
        return b"%d/" % output.evaluations + _encode_design(output.best)

    def inputs(self) -> bytes:
        return json.dumps(self.seeds).encode()


# -- fault campaigns -----------------------------------------------------

class FaultCampaign(Workload):
    """The standard scenario suite under a seeded fault grid, with
    PERF-signature coverage on as shipped."""

    name = "fault-campaign"
    item = "injections"
    ops_per_s = 1.4
    quick_ops = 1
    #: Campaign seeds, one per op.  A campaign's cost varies by about
    #: 6% with its seed, so a run's median op is taken over as many of
    #: them as it has ops.
    distinct = 14
    #: Three cycles of the suite's 20 fault points: the grid visits
    #: points in a fixed order, so every campaign has the same scenario
    #: mix and the seed draws only the free fault parameters.
    INJECTIONS = 60
    QUICK_INJECTIONS = 20

    def setup(self) -> None:
        from repro.faults.campaign import standard_campaign
        from repro.faults.report import Outcome
        from repro.obs.coverage import CoverageMap
        self.campaign = standard_campaign
        self.coverage_class = CoverageMap
        self.crash = Outcome.CRASH.value
        self.injections = self.QUICK_INJECTIONS if self.quick \
            else self.INJECTIONS
        self.seeds = [self.rng.getrandbits(32) for _ in range(self.distinct)]
        self.fired = self.runs = 0
        standard_campaign(seed=self.rng.getrandbits(32),
                          injections=self.QUICK_INJECTIONS, jobs=1,
                          coverage=CoverageMap())

    def op(self, index: int):
        coverage = self.coverage_class()
        result = self.campaign(seed=self.seeds[index % self.distinct],
                               injections=self.injections, jobs=1,
                               coverage=coverage)
        return result, coverage

    def check(self, index: int, output) -> bool:
        result, _ = output
        self.runs += len(result.runs)
        self.fired += sum(1 for run in result.runs if run.fired)
        return result.injections == self.injections and \
            not result.hardened_violations() and \
            all(run.outcome != self.crash for run in result.runs)

    def items(self, index: int, output) -> int:
        return output[0].injections

    def encode(self, output) -> bytes:
        result, coverage = output
        return (result.canonical_json()
                + json.dumps(coverage.to_dict(), sort_keys=True)).encode()

    def inputs(self) -> bytes:
        return json.dumps(self.seeds).encode()

    def ratios(self) -> dict:
        return {"faults.campaign.fired_ratio":
                self.fired / self.runs if self.runs else 0.0}


# -- CIM side-channel attacks --------------------------------------------

#: The higher-order CIM bench's weights.
CIM_WEIGHTS = (0, 3, 7, 15, 15, 0, 7, 3)
#: Smallest variance gap between two order-1 variance classes (values
#: 0/14 at 30.1 against 1/13 at 28.0).  Values inside one class have
#: the same share distribution, so no variance attack can tell them
#: apart: the order-1 oracle checks the recovered class, not the value.
#: Order 2 flattens the variance; its oracle asks that the column
#: variances spread less than this gap, so no class is separable.
#: (Exact order-2 accuracy is no oracle: near-equal templates make it
#: 0.375 on 3% of mask seeds, so 0.5 is reachable by chance.)
CLASS_GAP = 2.0


class CimAttack(Workload):
    """A variance attack on an order-1 and an order-2 masked macro per
    op; the seed sets the macros' mask seeds."""

    name = "cim-attack"
    item = "traces"
    kernel = "numpy"
    ops_per_s = 0.6
    quick_ops = 1
    distinct = 3
    #: Profiling and attack traces per attack.  At this size the oracle
    #: held on 120 of 120 random mask-seed pairs; at 25,000 it failed
    #: on 6 of 120.
    TRACES = 50_000
    WARMUP_TRACES = 10_000

    def setup(self) -> None:
        from repro.cim import MaskedCimMacro, PowerModel, SecondOrderAttack
        from repro.cim.macro import WEIGHT_MAX
        self.macro_class = MaskedCimMacro
        self.power_class = PowerModel
        self.attack_class = SecondOrderAttack
        self.mask_seeds = [(self.rng.getrandbits(32),
                            self.rng.getrandbits(32))
                           for _ in range(self.distinct)]
        per_order = (WEIGHT_MAX + 1 + len(CIM_WEIGHTS)) * self.TRACES
        self.traces_per_op = 2 * per_order
        self._attack((self.rng.getrandbits(32), self.rng.getrandbits(32)),
                     self.WARMUP_TRACES)

    def _attack(self, seeds, traces):
        return tuple(
            self.attack_class(
                self.macro_class(list(CIM_WEIGHTS), seed=seed,
                                 order=order),
                self.power_class(0.0)).run(traces=traces,
                                           profile_traces=traces)
            for order, seed in zip((1, 2), seeds))

    def op(self, index: int):
        return self._attack(self.mask_seeds[index % self.distinct],
                            self.TRACES)

    def check(self, index: int, output) -> bool:
        first, second = output
        templates = first.templates
        return all(abs(templates[got] - templates[want]) < CLASS_GAP / 2
                   for got, want in zip(first.recovered, CIM_WEIGHTS)) \
            and max(second.variances) - min(second.variances) < CLASS_GAP

    def items(self, index: int, output) -> int:
        return self.traces_per_op

    def encode(self, output) -> bytes:
        return json.dumps([[r.recovered, r.variances] for r in output]
                          ).encode()

    def inputs(self) -> bytes:
        return json.dumps(self.mask_seeds).encode()


WORKLOADS = {cls.name: cls for cls in (AttestFresh, AttestSteady,
                                       DseExhaustive, DseLocal,
                                       FaultCampaign, CimAttack)}
