"""Physical memory and memory map for the simulated RISC-V SoC.

The paper's hardware target is a Chipyard Rocket SoC with a bootrom, an
L2-backed 2 GB DRAM and memory-mapped peripherals (Section III-B).  The
TEE and RTOS substrates share this model: a sparse physical memory plus a
named memory map, with every access mediated by the PMP (see
:mod:`repro.soc.pmp`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..faults.injector import FAULTS
from ..obs.perf import PERF


class AccessFault(Exception):
    """A memory access was denied or fell outside mapped memory."""

    def __init__(self, message: str, address: int = None,
                 access: str = None):
        super().__init__(message)
        self.address = address
        self.access = access


@dataclass(frozen=True)
class Region:
    """A named, contiguous physical address range ``[base, base+size)``."""

    name: str
    base: int
    size: int

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"region {self.name!r} must have positive size")
        if self.base < 0:
            raise ValueError(f"region {self.name!r} has negative base")

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int, size: int = 1) -> bool:
        return self.base <= address and address + size <= self.end

    def overlaps(self, other: "Region") -> bool:
        return self.base < other.end and other.base < self.end


class MemoryMap:
    """An ordered collection of non-overlapping named regions."""

    def __init__(self):
        self._regions = []

    def add(self, name: str, base: int, size: int) -> Region:
        region = Region(name, base, size)
        for existing in self._regions:
            if existing.name == name:
                raise ValueError(f"duplicate region name {name!r}")
            if existing.overlaps(region):
                raise ValueError(
                    f"region {name!r} overlaps {existing.name!r}")
        self._regions.append(region)
        return region

    def __getitem__(self, name: str) -> Region:
        for region in self._regions:
            if region.name == name:
                return region
        raise KeyError(name)

    def __len__(self) -> int:
        return len(self._regions)

    def region_at(self, address: int):
        """The region containing ``address``, or None."""
        for region in self._regions:
            if region.contains(address):
                return region
        return None


# Default layout mirroring the paper's evaluation SoC: a boot ROM, MMIO
# space and external DRAM (scaled down from 2 GB for simulation).
BOOTROM_BASE = 0x0000_1000
BOOTROM_SIZE = 0x0002_0000        # generous 128 KB window for ROM images
MMIO_BASE = 0x0200_0000
MMIO_SIZE = 0x0010_0000
DRAM_BASE = 0x8000_0000
DRAM_SIZE = 0x0400_0000           # 64 MB of simulated DRAM


def default_memory_map() -> MemoryMap:
    """The Rocket-style layout used by the TEE and RTOS substrates."""
    memory_map = MemoryMap()
    memory_map.add("bootrom", BOOTROM_BASE, BOOTROM_SIZE)
    memory_map.add("mmio", MMIO_BASE, MMIO_SIZE)
    memory_map.add("dram", DRAM_BASE, DRAM_SIZE)
    return memory_map


class PhysicalMemory:
    """Sparse byte-addressable physical memory.

    Backing storage is allocated per page on first touch, so a 64 MB DRAM
    region costs nothing until written.  Accesses outside any mapped
    region raise :class:`AccessFault`.
    """

    PAGE_SIZE = 4096

    def __init__(self, memory_map: MemoryMap = None):
        self.memory_map = memory_map or default_memory_map()
        self._pages = {}

    def _page(self, page_number: int) -> bytearray:
        page = self._pages.get(page_number)
        if page is None:
            page = bytearray(self.PAGE_SIZE)
            self._pages[page_number] = page
        return page

    def _check_mapped(self, address: int, size: int) -> None:
        region = self.memory_map.region_at(address)
        if region is None or not region.contains(address, size):
            if PERF.enabled:
                PERF.inc("soc.memory.faults")
            raise AccessFault(
                f"unmapped physical access at {address:#x} (+{size})",
                address=address, access="map")

    def read(self, address: int, size: int) -> bytes:
        """Read ``size`` bytes; the range must lie in one mapped region."""
        if size < 0:
            raise ValueError("negative read size")
        if PERF.enabled:
            PERF.inc("soc.memory.reads")
        self._check_mapped(address, max(size, 1))
        out = bytearray()
        while size > 0:
            page_number, offset = divmod(address, self.PAGE_SIZE)
            take = min(size, self.PAGE_SIZE - offset)
            page = self._pages.get(page_number)
            if page is None:
                out.extend(bytes(take))
            else:
                out.extend(page[offset:offset + take])
            address += take
            size -= take
        data = bytes(out)
        if FAULTS.enabled:
            data = FAULTS.corrupt("soc.memory.read", data)
        return data

    def write(self, address: int, data: bytes) -> None:
        """Write ``data``; the range must lie in one mapped region."""
        if PERF.enabled:
            PERF.inc("soc.memory.writes")
        if FAULTS.enabled:
            data = FAULTS.corrupt("soc.memory.write", data)
        self._check_mapped(address, max(len(data), 1))
        offset_in_data = 0
        size = len(data)
        while offset_in_data < size:
            page_number, offset = divmod(address, self.PAGE_SIZE)
            take = min(size - offset_in_data, self.PAGE_SIZE - offset)
            page = self._page(page_number)
            page[offset:offset + take] = \
                data[offset_in_data:offset_in_data + take]
            address += take
            offset_in_data += take
