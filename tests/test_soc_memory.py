"""Tests for physical memory and the memory map."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc import (AccessFault, MemoryMap, PhysicalMemory, Region,
                       DRAM_BASE, DRAM_SIZE, default_memory_map)


class TestRegion:
    def test_contains(self):
        region = Region("r", 0x1000, 0x100)
        assert region.contains(0x1000)
        assert region.contains(0x10FF)
        assert not region.contains(0x1100)
        assert region.contains(0x10F0, 0x10)
        assert not region.contains(0x10F0, 0x11)

    def test_overlap(self):
        a = Region("a", 0, 100)
        assert a.overlaps(Region("b", 50, 100))
        assert not a.overlaps(Region("c", 100, 10))

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            Region("r", 0, 0)
        with pytest.raises(ValueError):
            Region("r", -1, 10)


class TestMemoryMap:
    def test_default_layout(self):
        memory_map = default_memory_map()
        assert len(memory_map) == 3
        assert memory_map["dram"].base == DRAM_BASE
        assert memory_map["dram"].size == DRAM_SIZE

    def test_rejects_overlap(self):
        memory_map = MemoryMap()
        memory_map.add("a", 0, 100)
        with pytest.raises(ValueError):
            memory_map.add("b", 50, 100)

    def test_rejects_duplicate_name(self):
        memory_map = MemoryMap()
        memory_map.add("a", 0, 100)
        with pytest.raises(ValueError):
            memory_map.add("a", 200, 100)

    def test_region_at(self):
        memory_map = default_memory_map()
        assert memory_map.region_at(DRAM_BASE).name == "dram"
        assert memory_map.region_at(0) is None

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            default_memory_map()["nothere"]


class TestPhysicalMemory:
    @pytest.fixture
    def memory(self):
        return PhysicalMemory()

    def test_read_uninitialised_is_zero(self, memory):
        assert memory.read(DRAM_BASE, 16) == bytes(16)

    def test_write_read_roundtrip(self, memory):
        memory.write(DRAM_BASE + 100, b"enclave")
        assert memory.read(DRAM_BASE + 100, 7) == b"enclave"

    def test_cross_page_write(self, memory):
        address = DRAM_BASE + PhysicalMemory.PAGE_SIZE - 3
        memory.write(address, b"ABCDEF")
        assert memory.read(address, 6) == b"ABCDEF"

    def test_unmapped_access_faults(self, memory):
        with pytest.raises(AccessFault):
            memory.read(0x5000_0000, 4)
        with pytest.raises(AccessFault):
            memory.write(0x5000_0000, b"x")

    def test_access_straddling_region_end_faults(self, memory):
        with pytest.raises(AccessFault):
            memory.read(DRAM_BASE + DRAM_SIZE - 2, 4)

    def test_negative_read_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.read(DRAM_BASE, -1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, DRAM_SIZE - 4096), st.binary(min_size=1,
                                                       max_size=4096))
    def test_roundtrip_random(self, offset, data):
        memory = PhysicalMemory()
        memory.write(DRAM_BASE + offset, data)
        assert memory.read(DRAM_BASE + offset, len(data)) == data
