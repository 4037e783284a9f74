"""Seeded adversary mutators: every input a pure function of a seed.

The generator half of ISSUE 7's coverage-guided fuzzing loop.  Where
the PR 2 campaign planner draws single :class:`~repro.faults.injector.
FaultSpec` upsets from hand-declared grids, the mutators here derive
whole *adversarial inputs* — mutated boot images, hostile RTOS task
programs, replay/rollback delivery scripts, bus transaction storms —
from nothing but an integer seed:

* :func:`derive_seed` builds the seed tree (SHA3
  over the canonical encoding of the parts, so seeds are stable across
  interpreter runs and machines);
* an :class:`OpSpace` declares a family's mutation vocabulary as
  ``kind -> pure parameter generator`` and provides seeded generation
  (:meth:`~OpSpace.ops`), neighborhood mutation (:meth:`~OpSpace.
  mutate`) and single-op tweaks, all driven by ``random.Random`` whose
  Mersenne Twister sequence is pinned by CPython's compatibility
  guarantee;
* op sequences are canonical JSON-native tuples ``(kind, int, ...)``
  so a corpus entry round-trips through JSON bit-identically
  (:func:`ops_to_json` / :func:`ops_from_json`) and replays the exact
  run that earned it a corpus slot.

Hashing here uses :mod:`hashlib` directly (not the instrumented
``repro.crypto`` wrappers): seed derivation and golden digests are
harness bookkeeping, and keeping them counter-free means a run's
PERF-vector signature reflects only the stack under attack.
"""

from __future__ import annotations

import hashlib

#: Hard ceiling on ops per case: keeps every generated adversary cheap
#: enough for 10^5-injection campaigns and bounds the ddmin search.
MAX_OPS = 12

#: Boot-image families mutate a small synthetic SM image: big enough
#: to have structure (beyond one hash block), small enough that a boot
#: costs hashing 4 KiB instead of the production 192 KiB.
BOOT_IMAGE_BYTES = 4096


def _encode_part(part) -> bytes:
    if isinstance(part, bytes):
        return part
    if isinstance(part, (tuple, list)):
        return b"".join(_encode_part(p) + b"\x1f" for p in part)
    return str(part).encode()


def derive_seed(*parts) -> int:
    """A 64-bit seed from the canonical encoding of ``parts``.

    Length-prefixed SHA3-256, so ``("a", "bc")`` and ``("ab", "c")``
    derive different seeds and the tree has no accidental collisions.
    """
    digest = hashlib.sha3_256()
    for part in parts:
        data = _encode_part(part)
        digest.update(len(data).to_bytes(4, "big"))
        digest.update(data)
    return int.from_bytes(digest.digest()[:8], "big")


def filler(length: int, tag: int = 0) -> bytes:
    """Deterministic non-trivial byte pattern (image/extension stuffing
    that is obviously not an all-zero page)."""
    return bytes((i * 167 + tag * 29 + 13) & 0xFF for i in range(length))


def boot_base_image() -> bytes:
    """The pristine small SM image the boot adversary mutates."""
    return filler(BOOT_IMAGE_BYTES, tag=7)


# -- op sequences --------------------------------------------------------

def ops_to_json(ops) -> list:
    """JSON-native form of an op tuple: a list of ``[kind, int...]``."""
    return [list(op) for op in ops]


def ops_from_json(payload) -> tuple:
    """Inverse of :func:`ops_to_json`; validates shape strictly."""
    ops = []
    for entry in payload:
        if not entry or not isinstance(entry[0], str):
            raise ValueError(f"malformed op {entry!r}")
        if not all(isinstance(p, int) for p in entry[1:]):
            raise ValueError(f"non-integer op parameter in {entry!r}")
        ops.append((entry[0],) + tuple(entry[1:]))
    return tuple(ops)


class OpSpace:
    """A family's mutation vocabulary: ``kind -> param generator``.

    ``kinds`` maps each op kind to a pure function ``rng -> tuple`` of
    integer parameters; ``weights`` biases the draw (default uniform).
    Everything downstream — fresh generation, neighborhood mutation,
    tweaks — is a pure function of the :class:`random.Random` handed
    in, which is itself a pure function of a seed.
    """

    def __init__(self, kinds: dict, weights: dict = None):
        if not kinds:
            raise ValueError("an OpSpace needs at least one op kind")
        self._params = dict(kinds)
        self._draw = []
        for kind in kinds:                    # declaration order
            self._draw.extend([kind] * (weights or {}).get(kind, 1))

    def random_op(self, rng) -> tuple:
        kind = rng.choice(self._draw)
        return (kind,) + tuple(self._params[kind](rng))

    def tweak_op(self, op: tuple, rng) -> tuple:
        """Same kind, freshly drawn parameters (falls back to a random
        op for kinds this space does not know, e.g. after a schema
        change made a corpus entry stale)."""
        params = self._params.get(op[0])
        if params is None:
            return self.random_op(rng)
        return (op[0],) + tuple(params(rng))

    def ops(self, rng, hi: int = 6) -> tuple:
        """A fresh op sequence of seeded length in ``[1, hi]``."""
        hi = min(hi, MAX_OPS)
        return tuple(self.random_op(rng)
                     for _ in range(rng.randint(1, hi)))

    def mutate(self, ops: tuple, rng, max_ops: int = MAX_OPS) -> tuple:
        """One neighborhood step: append, drop, tweak, swap or
        duplicate a single op.  Pure in ``(ops, rng)``."""
        ops = list(ops)
        moves = ["append"]
        if ops:
            moves += ["drop", "tweak", "tweak", "swap", "dup"]
        move = rng.choice(moves)
        if move == "append" or not ops:
            ops.insert(rng.randint(0, len(ops)), self.random_op(rng))
        elif move == "drop":
            ops.pop(rng.randrange(len(ops)))
        elif move == "tweak":
            index = rng.randrange(len(ops))
            ops[index] = self.tweak_op(ops[index], rng)
        elif move == "swap":
            i = rng.randrange(len(ops))
            j = rng.randrange(len(ops))
            ops[i], ops[j] = ops[j], ops[i]
        elif move == "dup":
            index = rng.randrange(len(ops))
            ops.insert(index, ops[index])
        return tuple(ops[:max_ops])


# -- the four concrete op vocabularies -----------------------------------

#: Boot-image surgery on a BOOT_IMAGE_BYTES pristine image.  Offsets
#: are drawn against the pristine size and reduced modulo the current
#: length at apply time (truncation can shrink the image first).
BOOT_OPS = OpSpace({
    "flip": lambda rng: (rng.randrange(BOOT_IMAGE_BYTES * 8),),
    "set": lambda rng: (rng.randrange(BOOT_IMAGE_BYTES),
                        rng.randrange(256)),
    "zero": lambda rng: (rng.randrange(BOOT_IMAGE_BYTES),
                         rng.randint(1, 64)),
    "truncate": lambda rng: (rng.randint(1, 512),),
    "extend": lambda rng: (rng.randint(1, 64),),
    "splice": lambda rng: (rng.randrange(BOOT_IMAGE_BYTES),
                           rng.randrange(BOOT_IMAGE_BYTES),
                           rng.randint(1, 64)),
})


def apply_boot_ops(base: bytes, ops) -> bytes:
    """The mutated boot image: a pure function of ``(base, ops)``."""
    image = bytearray(base)
    for op in ops:
        kind = op[0]
        if kind == "flip" and image:
            bit = op[1] % (len(image) * 8)
            image[bit // 8] ^= 1 << (bit % 8)
        elif kind == "set" and image:
            image[op[1] % len(image)] = op[2] & 0xFF
        elif kind == "zero" and image:
            start = op[1] % len(image)
            image[start:start + op[2]] = bytes(
                len(image[start:start + op[2]]))
        elif kind == "truncate":
            image = image[:-op[1]] if op[1] < len(image) \
                else bytearray()
        elif kind == "extend":
            image += filler(op[1], tag=op[1])
        elif kind == "splice" and image:
            src, dst = op[1] % len(image), op[2] % len(image)
            chunk = bytes(image[src:src + op[3]])
            image[dst:dst + len(chunk)] = chunk
    return bytes(image)


#: Hostile RTOS task programs: each op is ``(kind, task, params...)``
#: with ``task`` selecting one of the scenario's two generated tasks.
#: ``kstore`` offsets stay inside the sentinel window the family
#: hashes, so the flat baseline visibly corrupts while the PMP port
#: contains the very same program.
TASK_OPS = OpSpace({
    "store": lambda rng: (rng.randrange(2), rng.randrange(4096),
                          rng.randint(1, 32)),
    "load": lambda rng: (rng.randrange(2), rng.randrange(4096),
                         rng.randint(1, 32)),
    "delay": lambda rng: (rng.randrange(2), rng.randint(1, 3)),
    "kstore": lambda rng: (rng.randrange(2), rng.randrange(120)),
    "kload": lambda rng: (rng.randrange(2), rng.randrange(2048)),
    "peer": lambda rng: (rng.randrange(2), rng.randrange(4096)),
    "mmio": lambda rng: (rng.randrange(2), rng.randrange(64)),
    "smash": lambda rng: (rng.randrange(2), rng.randint(2, 8)),
}, weights={"store": 3, "load": 3, "delay": 2})

#: Task ops that must be contained by the hardened (PMP) kernel.
HOSTILE_TASK_OPS = frozenset(
    {"kstore", "kload", "peer", "mmio", "smash"})


#: Per-attempt transport scripts for the delivery adversary: attempt
#: ``i`` of the channel consumes op ``i`` (missing ops pass clean).
#: ``replay`` substitutes a stale package recorded from an earlier
#: delivery session — the rollback attack the sequence-bound labels
#: must detect.
DELIVERY_OPS = OpSpace({
    "pass": lambda rng: (),
    "drop": lambda rng: (),
    "corrupt": lambda rng: (rng.randrange(8192),),
    "delay": lambda rng: (rng.randint(1, 96),),
    "replay": lambda rng: (),
    "truncate": lambda rng: (rng.randint(1, 64),),
}, weights={"replay": 2, "drop": 2})


#: Bus transaction storms against the TDM fabric: honest traffic
#: (``tx``/``burst``), a transaction whose latency can never fit the
#: owner's slot run (``wedge``) and a requestor that owns no slot at
#: all (``rogue``) — both must surface via the drained-bus watchdog.
BUS_OPS = OpSpace({
    "tx": lambda rng: (rng.randrange(2), rng.randint(1, 2),
                       rng.randrange(256)),
    "burst": lambda rng: (rng.randrange(2), rng.randint(2, 5)),
    "wedge": lambda rng: (rng.randrange(2), rng.randrange(256)),
    "rogue": lambda rng: (rng.randrange(256),),
}, weights={"tx": 4, "burst": 2})

#: Bus ops that can never complete under the fixed TDM table.
UNSERVICEABLE_BUS_OPS = frozenset({"wedge", "rogue"})
