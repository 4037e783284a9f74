"""Known-answer pins for ML-KEM and AES-CTR over a seeded corpus.

Each digest is SHA-256 over the concatenated outputs of one operation
across the corpus.  They were computed on the list-form ML-KEM kernels
and the per-block AES T-table loop, before either moved onto numpy, and
must never be regenerated: a kernel rewrite has to reproduce them
byte for byte.  The FIPS-197 block vectors live in ``test_aes.py``.
"""

import hashlib

import pytest

from repro.crypto.aes import aes_ctr
from repro.crypto.mlkem import ML_KEM_512, ML_KEM_768, ML_KEM_1024, MLKEM

KEM_CASES = 10

#: (key_gen ek||dk, encaps key||ct, decaps valid, decaps one-bit flip)
KEM_DIGESTS = {
    "ML-KEM-512": (
        "dc66d8c2e05e3b57e6b8103592f5aa57e5328ff4f90f6cbfb731a3f666696474",
        "ca3bfc46e34e540fb50ae482ee18ad11157459775b32af1146032c5b974946f0",
        "ab50ba77aa43bbcd01ea40135962ddcda1dd1a735045bc53094b59548b096953",
        "042b04f92c85afde3b1dbaa6e95472eeb964b88cfc35fe65924332ca7a08a96e",
    ),
    "ML-KEM-768": (
        "42f64c8d47d82ce98ce311b128a5cbc32a4264ea7a7dd6793c3660c461a8618a",
        "39baaa4b4dcb70d9247187b6bc6e748034efd169c1526ac0d14919acffaa3ff1",
        "5b56137d4012001a5584b9a1e95e79bc55d779a66c48ede4ced789a5b51371db",
        "65e8721d9cf42a1d1398d2d923b980211370c894f99206f3d7ba2b3813bb0d6b",
    ),
    "ML-KEM-1024": (
        "aad8aa2f57f3201eab3f344f0e6ed1dc9d9dba206076d1f0c6db70f4a7ad39aa",
        "cb751c760f3a379e456a78351feb8ad31efb82653cb17fab2e0d93f1e424457b",
        "2b835fb4b26f1664847aa4e6d4ceec0d3fa16639d9cbe49293d23876f7147bfa",
        "d222098a989ede319cd0e12d2318df9c55aa1b440f34c2adfb5be85c753e02e5",
    ),
}

#: Message lengths 0..5000: a stride plus every block-boundary edge.
CTR_LENGTHS = sorted(set(range(0, 5001, 97)) | {
    1, 15, 16, 17, 31, 32, 33, 47, 48, 63, 64, 65, 255, 256, 257,
    1023, 1024, 1025, 4095, 4096, 4097, 4999, 5000})

CTR_DIGESTS = {
    16: "c8893f71781042ccb34a81d2898710623ba095b1b037402769cdad7e7faae34c",
    24: "817c698b4cdbf68ed30c3a646e428a558c7626d71cfa0b373f6e4596daf1bbc6",
    32: "7bb476539498dc9e8b8902b85e761336b203d9c727c29f40a416f05de024a029",
}


def _seed(*parts) -> bytes:
    return hashlib.sha256(repr(parts).encode()).digest()


def _kem_outputs(params):
    kem = MLKEM(params)
    streams = [hashlib.sha256() for _ in range(4)]
    for case in range(KEM_CASES):
        ek, dk = kem.key_gen(_seed("d", params.name, case),
                             _seed("z", params.name, case))
        key, ct = kem.encaps(ek, _seed("m", params.name, case))
        assert kem.decaps(dk, ct) == key
        flipped = bytearray(ct)
        bit = int.from_bytes(_seed("flip", params.name, case)[:4], "big") \
            % (8 * len(ct))
        flipped[bit // 8] ^= 1 << (bit % 8)
        rejected = kem.decaps(dk, bytes(flipped))
        assert rejected != key
        streams[0].update(ek + dk)
        streams[1].update(key + ct)
        streams[2].update(kem.decaps(dk, ct))
        streams[3].update(rejected)
    return tuple(h.hexdigest() for h in streams)


@pytest.mark.parametrize("params", [ML_KEM_512, ML_KEM_768, ML_KEM_1024],
                         ids=lambda p: p.name)
def test_mlkem_known_answers(params):
    keygen, encaps, decaps, reject = _kem_outputs(params)
    pinned = KEM_DIGESTS[params.name]
    assert keygen == pinned[0], "key_gen ek||dk"
    assert encaps == pinned[1], "encaps key||ciphertext"
    assert decaps == pinned[2], "decaps of the valid ciphertext"
    assert reject == pinned[3], "implicit rejection of a flipped bit"


@pytest.mark.parametrize("key_len", [16, 24, 32])
def test_aes_ctr_known_answers(key_len):
    stream = hashlib.sha256()
    for length in CTR_LENGTHS:
        key = _seed("key", key_len, length)[:key_len]
        nonce = _seed("nonce", key_len, length)[:12]
        data = hashlib.shake_256(_seed("data", key_len, length)) \
            .digest(length)
        out = aes_ctr(key, nonce, data)
        assert len(out) == length
        assert aes_ctr(key, nonce, out) == data
        stream.update(out)
    assert stream.hexdigest() == CTR_DIGESTS[key_len]
