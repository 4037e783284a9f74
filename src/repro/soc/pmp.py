"""RISC-V Physical Memory Protection (privileged spec v1.12 semantics).

PMP is the isolation primitive of the whole paper: Keystone's security
monitor programs it to carve enclaves out of DRAM (Section III-B), and
the hardened FreeRTOS uses it as an MPU substitute for inter-task
protection (Section III-D).

The model implements the architectural behaviour the software stack
depends on:

* 16 entries, statically prioritised (lowest index wins),
* address-matching modes OFF / TOR / NA4 / NAPOT,
* R/W/X permission bits,
* the L (lock) bit, which makes an entry apply to M-mode as well,
* default-deny for S/U modes when no entry matches, default-allow for M.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

from ..obs.audit import AUDIT
from ..obs.perf import PERF


class PrivilegeMode(IntEnum):
    """RISC-V privilege levels used by the simulator."""

    USER = 0
    SUPERVISOR = 1
    MACHINE = 3


class AddressMode(Enum):
    """PMP address-matching mode (the A field of pmpcfg)."""

    OFF = 0
    TOR = 1
    NA4 = 2
    NAPOT = 3


PMP_ENTRY_COUNT = 16

@dataclass
class PmpEntry:
    """One pmpcfg/pmpaddr pair.

    ``address`` follows the hardware convention: it holds bits [XLEN-1:2]
    of the physical address, i.e. ``physical >> 2``.
    """

    mode: AddressMode = AddressMode.OFF
    readable: bool = False
    writable: bool = False
    executable: bool = False
    locked: bool = False
    address: int = 0

    def range_for(self, previous_address: int) -> tuple:
        """The matched physical byte range ``[lo, hi)`` of this entry.

        ``previous_address`` is the pmpaddr of the preceding entry,
        needed for TOR.  Returns ``(0, 0)`` when the entry is OFF.
        """
        if self.mode is AddressMode.OFF:
            return (0, 0)
        if self.mode is AddressMode.TOR:
            lo = previous_address << 2
            hi = self.address << 2
            return (lo, hi) if lo < hi else (0, 0)
        if self.mode is AddressMode.NA4:
            lo = self.address << 2
            return (lo, lo + 4)
        # NAPOT: trailing ones of the stored address encode the size.
        trailing = 0
        value = self.address
        while value & 1:
            trailing += 1
            value >>= 1
        size = 1 << (trailing + 3)
        lo = (self.address & ~((1 << trailing) - 1)) << 2
        return (lo, lo + size)


def napot_address(base: int, size: int) -> int:
    """Encode a naturally-aligned power-of-two region as a pmpaddr value.

    Raises ``ValueError`` if ``size`` is not a power of two >= 8 or the
    base is not aligned to it.
    """
    if size < 8 or size & (size - 1):
        raise ValueError(f"NAPOT size must be a power of two >= 8: {size}")
    if base % size:
        raise ValueError(f"base {base:#x} not aligned to size {size:#x}")
    return (base >> 2) | ((size // 8) - 1)


class Pmp:
    """The per-hart PMP register file with the standard check algorithm."""

    def __init__(self):
        self.entries = [PmpEntry() for _ in range(PMP_ENTRY_COUNT)]

    def set_entry(self, index: int, entry: PmpEntry) -> None:
        """Program entry ``index`` (from M-mode, the only writer);
        locked entries are immutable until reset (as in hardware)."""
        if self.entries[index].locked:
            raise PermissionError(f"PMP entry {index} is locked")
        self.entries[index] = entry

    def set_napot(self, index: int, base: int, size: int, *,
                  readable: bool = False, writable: bool = False,
                  executable: bool = False, locked: bool = False) -> None:
        """Convenience: program a NAPOT entry covering ``[base, base+size)``."""
        entry = PmpEntry(mode=AddressMode.NAPOT, readable=readable,
                         writable=writable, executable=executable,
                         locked=locked,
                         address=napot_address(base, size))
        self.set_entry(index, entry)

    def clear_entry(self, index: int) -> None:
        self.set_entry(index, PmpEntry())

    def _matching_entry(self, address: int, size: int):
        previous = 0
        for entry in self.entries:
            lo, hi = entry.range_for(previous)
            previous = entry.address
            if entry.mode is AddressMode.OFF:
                continue
            if lo <= address and address + size <= hi:
                return entry
            # A partial overlap fails the access outright (spec: accesses
            # must not straddle a PMP boundary with differing permissions;
            # we conservatively deny).
            if lo < address + size and address < hi:
                return PmpEntry(mode=entry.mode, locked=True)
        return None

    def check(self, address: int, size: int, access: str,
              mode: PrivilegeMode) -> bool:
        """True iff an ``access`` ('read'/'write'/'exec') is permitted."""
        if access not in ("read", "write", "exec"):
            raise ValueError(f"unknown access type {access!r}")
        entry = self._matching_entry(address, size)
        if entry is None:
            # No matching entry: M succeeds, S/U fail.
            allowed = mode is PrivilegeMode.MACHINE
        elif mode is PrivilegeMode.MACHINE and not entry.locked:
            allowed = True
        elif access == "read":
            allowed = entry.readable
        elif access == "write":
            allowed = entry.writable
        else:
            allowed = entry.executable
        if PERF.enabled:
            PERF.inc("soc.pmp.checks")
            if not allowed:
                PERF.inc("soc.pmp.denials")
        if not allowed and AUDIT.enabled:
            AUDIT.emit("soc.pmp", "pmp-denial", severity="warning",
                       access=access, mode=int(mode), address=address,
                       size=size)
        return allowed
