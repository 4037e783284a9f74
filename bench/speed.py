"""Machine-speed sampling, so that timings read at a fixed speed.

The reference machine is a shared 2-vCPU guest whose speed moves with
its neighbours' load: a fixed loop runs up to 1.8 times slower for
seconds or minutes at a time, and a run's wall times move with it (by
14-28% from run to run on the workloads here).  A
:class:`SpeedSampler` runs a small fixed kernel from a ``SIGALRM``
handler every :data:`PERIOD_S` seconds of wall time, so the kernel's
duration samples the machine's speed all through a run, the inside of
long ops included.  :meth:`SpeedSampler.scale` turns the samples near
an interval into the factor that converts wall time spent in it to
time at the kernel's reference speed.

The kernel does the same kind of work as the workload it calibrates:
interpreter work for the Python-bound workloads, SHA3 hashing for the
one that mostly hashes, in-place vector arithmetic for the numpy-bound
one.  A kernel touches none of the
program's code or data.  The numpy kernel writes into an array it
allocated up front: a kernel that allocated large temporaries took
either 0.6 or 1.8 ms, depending on whether the program's last frees
left it memory to reuse or pages to fault in.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: Wall seconds between two kernel samples.
PERIOD_S = 0.05
#: Samples up to this many seconds outside an interval also calibrate
#: it, so a short op borrows its neighbours' samples.
MARGIN_S = 0.25


def _python_kernel():
    """Interpreter work: dict updates, integer arithmetic, a sort."""
    def run() -> int:
        acc = 0
        table = {}
        for i in range(2000):
            key = (i * 2654435761) & 0x3FF
            table[key] = table.get(key, 0) + i
            acc ^= key * 31 + (acc >> 3)
        return acc + len(sorted(table.items()))
    return run


def _hash_kernel():
    """SHA3-512 over an 8 KiB buffer, 8 times: about a hybrid-PQ
    report's session-key hash each."""
    import hashlib
    buffer = bytes(range(256)) * 32

    def run() -> bytes:
        for _ in range(8):
            digest = hashlib.sha3_512(buffer).digest()
        return digest
    return run


def _numpy_kernel():
    """Vector arithmetic on 64 Ki int64 values, into a preallocated
    array."""
    import numpy as np
    values = np.arange(1 << 16, dtype=np.int64)
    out = np.empty_like(values)

    def run() -> int:
        np.multiply(values, 7, out=out)
        np.add(out, values, out=out)
        np.bitwise_and(out, 0xFF, out=out)
        return int(out.sum())
    return run


#: Kernel name -> (factory, the kernel's wall seconds on the reference
#: machine at full speed, the 5th percentile of its samples inside the
#: workloads it calibrates).  Timings are reported at this speed, so
#: they read about what the wall clock reads on a quiet host.  The
#: numpy kernel takes 2.5 times longer inside ``cim-attack`` than on
#: its own, because the workload's large arrays leave it cold caches.
KERNELS = {"python": (_python_kernel, 0.00070),
           "hash": (_hash_kernel, 0.00030),
           "numpy": (_numpy_kernel, 0.00015)}


class SpeedSampler:
    """Samples one kernel's wall time every :data:`PERIOD_S` seconds
    while the ``with`` block runs."""

    def __init__(self, kernel: str):
        factory, self.reference = KERNELS[kernel]
        self.kernel = factory()
        #: ``(start, seconds)`` per sample, in ``perf_counter`` time.
        self.samples = []

    def __enter__(self) -> "SpeedSampler":
        self.kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.kernel()
        self.samples.append((start, perf_counter() - start))

    def scale(self, begin: float, end: float) -> float:
        """Reference over measured speed between ``begin`` and ``end``:
        the mean of ``reference / sample`` over the samples taken in
        that interval widened by :data:`MARGIN_S` on each side.

        At speed ``s(t)`` a wall second does ``1 / s(t)`` seconds of
        reference work, so the inverse samples are averaged, not the
        samples.
        """
        near = [seconds for start, seconds in self.samples
                if begin - MARGIN_S <= start <= end + MARGIN_S]
        if not near:
            raise RuntimeError("no speed sample near the interval")
        return sum(self.reference / seconds for seconds in near) \
            / len(near)
