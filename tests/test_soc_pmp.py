"""Tests for the RISC-V PMP model — the isolation primitive of the paper."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soc import (AddressMode, Pmp, PmpEntry, PrivilegeMode,
                       napot_address)

M = PrivilegeMode.MACHINE
S = PrivilegeMode.SUPERVISOR
U = PrivilegeMode.USER


class TestNapotEncoding:
    @pytest.mark.parametrize("base,size", [
        (0x8000_0000, 0x1000), (0, 8), (0x4000, 0x4000)])
    def test_roundtrip(self, base, size):
        entry = PmpEntry(mode=AddressMode.NAPOT,
                         address=napot_address(base, size))
        assert entry.range_for(0) == (base, base + size)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            napot_address(0, 24)

    def test_rejects_too_small(self):
        with pytest.raises(ValueError):
            napot_address(0, 4)

    def test_rejects_misaligned_base(self):
        with pytest.raises(ValueError):
            napot_address(0x100, 0x1000)


class TestAddressModes:
    def test_off_matches_nothing(self):
        assert PmpEntry().range_for(0) == (0, 0)

    def test_na4(self):
        entry = PmpEntry(mode=AddressMode.NA4, address=0x1000 >> 2)
        assert entry.range_for(0) == (0x1000, 0x1004)

    def test_tor(self):
        entry = PmpEntry(mode=AddressMode.TOR, address=0x2000 >> 2)
        assert entry.range_for(0x1000 >> 2) == (0x1000, 0x2000)

    def test_tor_empty_when_inverted(self):
        entry = PmpEntry(mode=AddressMode.TOR, address=0x1000 >> 2)
        assert entry.range_for(0x2000 >> 2) == (0, 0)


class TestCheckAlgorithm:
    @pytest.fixture
    def pmp(self):
        pmp = Pmp()
        # Entry 0: 4 KB RW region for U-mode at 0x8000_0000.
        pmp.set_napot(0, 0x8000_0000, 0x1000, readable=True, writable=True)
        # Entry 1: 4 KB execute-only region.
        pmp.set_napot(1, 0x8000_1000, 0x1000, executable=True)
        return pmp

    def test_user_allowed_inside(self, pmp):
        assert pmp.check(0x8000_0000, 4, "read", U)
        assert pmp.check(0x8000_0FFC, 4, "write", U)
        assert not pmp.check(0x8000_0000, 4, "exec", U)

    def test_user_denied_outside(self, pmp):
        assert not pmp.check(0x8000_2000, 4, "read", U)

    def test_supervisor_denied_outside(self, pmp):
        assert not pmp.check(0x9000_0000, 4, "read", S)

    def test_machine_default_allow(self, pmp):
        assert pmp.check(0x9000_0000, 4, "read", M)
        assert pmp.check(0x8000_0000, 4, "exec", M)  # unlocked entry

    def test_execute_only_region(self, pmp):
        assert pmp.check(0x8000_1000, 4, "exec", U)
        assert not pmp.check(0x8000_1000, 4, "read", U)

    def test_access_straddling_boundary_denied(self, pmp):
        # 8-byte access straddling the RW region's end: conservative deny.
        assert not pmp.check(0x8000_0FFC, 8, "write", U)

    def test_priority_lowest_index_wins(self):
        pmp = Pmp()
        pmp.set_napot(0, 0x8000_0000, 0x1000, readable=True)
        pmp.set_napot(1, 0x8000_0000, 0x1000, readable=True, writable=True)
        assert pmp.check(0x8000_0000, 4, "read", U)
        # Entry 0 (read-only) shadows entry 1 (RW).
        assert not pmp.check(0x8000_0000, 4, "write", U)

    def test_locked_entry_binds_machine_mode(self):
        pmp = Pmp()
        pmp.set_napot(0, 0x8000_0000, 0x1000, readable=True, locked=True)
        assert pmp.check(0x8000_0000, 4, "read", M)
        assert not pmp.check(0x8000_0000, 4, "write", M)

    def test_locked_entry_immutable(self):
        pmp = Pmp()
        pmp.set_napot(0, 0x8000_0000, 0x1000, readable=True, locked=True)
        with pytest.raises(PermissionError):
            pmp.clear_entry(0)

    def test_unknown_access_type(self):
        with pytest.raises(ValueError):
            Pmp().check(0, 4, "jump", M)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**30), st.sampled_from([8, 64, 4096, 65536]))
    def test_napot_range_property(self, block, size):
        """Every NAPOT entry covers exactly [base, base+size)."""
        base = (block * size) % (1 << 34)
        entry = PmpEntry(mode=AddressMode.NAPOT,
                         address=napot_address(base, size))
        lo, hi = entry.range_for(0)
        assert (lo, hi) == (base, base + size)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**20))
    def test_isolation_invariant(self, address):
        """U-mode can never touch anything with an all-OFF PMP."""
        assert not Pmp().check(address, 4, "read", U)
        assert Pmp().check(address, 4, "read", M)
