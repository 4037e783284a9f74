"""Tests for the from-scratch Keccak/SHA-3/SHAKE implementation.

The strongest oracle available offline is ``hashlib``, which implements
the same FIPS 202 functions in C; we cross-validate against it on fixed
and randomized inputs.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import keccak

import crypto_reference as ref


class TestPermutation:
    """The loop-form Keccak-f[1600] the reference sponge runs on."""

    def test_round_constant_count(self):
        assert len(ref.ROUND_CONSTANTS) == 24

    def test_rho_offsets_shape_and_origin(self):
        assert len(ref.ROTATION_OFFSETS) == 5
        assert all(len(row) == 5 for row in ref.ROTATION_OFFSETS)
        assert ref.ROTATION_OFFSETS[0][0] == 0

    def test_rho_offsets_known_values(self):
        # Spot-check entries of the FIPS 202 table.
        assert ref.ROTATION_OFFSETS[1][0] == 1
        assert ref.ROTATION_OFFSETS[2][2] == 43
        assert ref.ROTATION_OFFSETS[4][4] == 14

    def test_permutation_changes_zero_state(self):
        out = ref.keccak_f1600([0] * 25)
        assert out != [0] * 25
        # First lane of Keccak-f[1600] applied to the zero state.
        assert out[0] == 0xF1258F7940E1DDE7

    def test_permutation_zero_state_full_kat(self):
        # All 25 lanes after one Keccak-f[1600] on the zero state, and the
        # first lanes after a second one (the Keccak team's
        # KeccakF-1600-IntermediateValues), so every lane position of
        # theta, rho, pi, chi and iota is checked, not only lane 0.
        first = ref.keccak_f1600([0] * 25)
        assert first == [
            0xF1258F7940E1DDE7, 0x84D5CCF933C0478A, 0xD598261EA65AA9EE,
            0xBD1547306F80494D, 0x8B284E056253D057, 0xFF97A42D7F8E6FD4,
            0x90FEE5A0A44647C4, 0x8C5BDA0CD6192E76, 0xAD30A6F71B19059C,
            0x30935AB7D08FFC64, 0xEB5AA93F2317D635, 0xA9A6E6260D712103,
            0x81A57C16DBCF555F, 0x43B831CD0347C826, 0x01F22F1A11A5569F,
            0x05E5635A21D9AE61, 0x64BEFEF28CC970F2, 0x613670957BC46611,
            0xB87C5A554FD00ECB, 0x8C3EE88A1CCF32C8, 0x940C7922AE3A2614,
            0x1841F924A2C509E4, 0x16F53526E70465C2, 0x75F644E97F30A13B,
            0xEAF1FF7B5CECA249]
        second = ref.keccak_f1600(first)
        assert second[:2] == [0x2D5C954DF96ECB3C, 0x6A332CD07057B56D]

    def test_permutation_is_pure(self):
        state = list(range(25))
        snapshot = list(state)
        ref.keccak_f1600(state)
        assert state == snapshot


class TestPureAgainstHashlib:
    """The from-scratch sponge must be byte-identical to CPython's C
    implementation of FIPS 202 — this is the correctness oracle that
    justifies the public entry points calling hashlib."""

    CASES = [b"", b"a", b"abc", b"x" * 135, b"x" * 136, b"x" * 137,
             b"y" * 1000]

    @pytest.mark.parametrize("data", CASES)
    def test_sha3_256(self, data):
        assert ref.sha3_256(data) == \
            hashlib.sha3_256(data).digest()

    @pytest.mark.parametrize("data", CASES)
    def test_sha3_512(self, data):
        assert ref.sha3_512(data) == \
            hashlib.sha3_512(data).digest()

    @pytest.mark.parametrize("data", CASES)
    def test_shake128(self, data):
        assert ref.shake128(data, 64) == \
            hashlib.shake_128(data).digest(64)

    @pytest.mark.parametrize("data", CASES)
    def test_shake256(self, data):
        assert ref.shake256(data, 64) == \
            hashlib.shake_256(data).digest(64)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=600), st.integers(min_value=1, max_value=300))
    def test_shake256_random(self, data, out_len):
        assert ref.shake256(data, out_len) == \
            hashlib.shake_256(data).digest(out_len)

    @settings(max_examples=30, deadline=None)
    @given(st.binary(max_size=600))
    def test_sha3_256_random(self, data):
        assert ref.sha3_256(data) == \
            hashlib.sha3_256(data).digest()


class TestDispatch:
    """Public entry points agree with the pure sponge."""

    @pytest.mark.parametrize("data", [b"", b"dispatch", b"z" * 137])
    def test_oneshot_functions(self, data):
        assert keccak.sha3_256(data) == ref.sha3_256(data)
        assert keccak.sha3_512(data) == ref.sha3_512(data)
        assert keccak.Shake128(data).read(77) == ref.shake128(data, 77)
        assert keccak.shake256(data, 77) == ref.shake256(data, 77)


class TestIncremental:
    def test_split_absorption_matches_oneshot(self):
        xof = keccak.Shake256()
        xof.absorb(b"hello ").absorb(b"world")
        assert xof.read(99) == keccak.shake256(b"hello world", 99)

    def test_split_squeeze_matches_oneshot(self):
        xof = keccak.Shake128(b"seed")
        out = xof.read(10) + xof.read(200) + xof.read(1)
        assert out == ref.shake128(b"seed", 211)

    @pytest.mark.parametrize("xof_cls, oneshot, rate", [
        (keccak.Shake256, keccak.shake256, 136),
        (keccak.Shake128, lambda data, n: hashlib.shake_128(data).digest(n),
         168)])
    def test_byte_reads_across_rate_boundaries(self, xof_cls, oneshot,
                                               rate):
        # SampleInBall's access pattern: one 8-byte read, then single
        # bytes, here past three rate boundaries, plus reads that
        # straddle a boundary and outgrow the squeezed buffer.
        xof = xof_cls(b"ball-seed")
        out = xof.read(8)
        out += b"".join(xof.read(1) for _ in range(3 * rate + 5))
        out += xof.read(rate - 1) + xof.read(2) + xof.read(5 * rate)
        assert out == oneshot(b"ball-seed", len(out))

    def test_absorb_after_read_rejected(self):
        xof = keccak.Shake256(b"x")
        xof.read(1)
        with pytest.raises(RuntimeError):
            xof.absorb(b"late")

    def test_pure_sponge_split_squeeze(self):
        sponge = ref.KeccakSponge(136, 0x1F).absorb(b"seed")
        out = sponge.squeeze(10) + sponge.squeeze(200)
        assert out == hashlib.shake_256(b"seed").digest(210)

    def test_pure_sponge_absorb_after_squeeze_rejected(self):
        sponge = ref.KeccakSponge(136, 0x1F)
        sponge.squeeze(1)
        with pytest.raises(RuntimeError):
            sponge.absorb(b"late")

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ref.KeccakSponge(0, 0x06)
        with pytest.raises(ValueError):
            ref.KeccakSponge(200, 0x06)

    @pytest.mark.parametrize("rate", [1, 100, 135, 199])
    def test_non_lane_aligned_rate_rejected(self, rate):
        # Blocks are absorbed as whole 64-bit lanes: a rate of 100 would
        # drop bytes 96..99 of every block, so bytes(100) + b"x" and
        # bytes(96) + b"\xff" * 4 + b"x" would collide.
        with pytest.raises(ValueError):
            ref.KeccakSponge(rate, 0x1F)

    def test_squeeze_across_rate_boundary(self):
        # 136-byte rate: a 150-byte read forces a mid-read permutation.
        assert ref.shake256(b"q", 150) == \
            hashlib.shake_256(b"q").digest(150)
