"""Parity suites for the batch-throughput kernels.

Every batch API added for serving-scale throughput — ML-DSA
``sign_many``/``verify_many``, Ed25519 random-linear-combination batch
verification, vectorized CIM trace synthesis and the TEE consumers
threading them — is pinned here against a per-call loop: byte-identical
outputs (signatures, toggle counts, reports) or boolean-identical
verdicts, across all three ML-DSA parameter sets, ragged batch sizes and
injected-invalid lanes.

Per-call ML-DSA ``sign``/``verify`` run the batch kernels at size 1, so
"batch == per-call loop" checks lane independence only; the ML-DSA
verdicts and signatures are additionally pinned to the retained
``sign_reference``/``verify_reference`` flows.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cim.countermeasures import MaskedCimMacro, ShuffledCimMacro
from repro.cim.macro import WEIGHT_MAX, DigitalCimMacro, one_hot
from repro.cim.power import PowerModel
from repro.cim.tvla import assess_macro, welch_t
from repro.crypto import ed25519 as ed
from repro.crypto.mldsa import ML_DSA_44, ML_DSA_65, ML_DSA_87, MLDSA
from repro.obs.perf import counting
from repro.tee import build_tee, verify_report, verify_reports

import crypto_reference as ref
from helpers import reset_telemetry

ALL_PARAMS = (ML_DSA_44, ML_DSA_65, ML_DSA_87)
RAGGED_SIZES = (1, 2, 63, 64, 65)
MAX_BATCH = max(RAGGED_SIZES)


#: Rejection-loop attempts of ``sign(_messages(8)[i])`` under the
#: ``b"\x42" * 32`` key, per parameter set.
SIGN_ATTEMPTS = {
    "ML-DSA-44": [4, 3, 1, 9, 11, 5, 2, 4],
    "ML-DSA-65": [11, 21, 3, 4, 17, 3, 11, 2],
    "ML-DSA-87": [3, 2, 4, 10, 6, 6, 6, 3],
}


def _messages(count: int) -> list:
    return [b"batch-message-%04d" % i for i in range(count)]


@pytest.fixture(scope="module", params=[p.name for p in ALL_PARAMS])
def mldsa_setup(request):
    params = next(p for p in ALL_PARAMS if p.name == request.param)
    scheme = MLDSA(params)
    public, secret = scheme.key_gen(b"\x42" * 32)
    messages = _messages(MAX_BATCH)
    signer = scheme.signer(secret)
    signatures = [signer.sign(m) for m in messages]
    return scheme, public, secret, messages, signatures


class TestMLDSABatch:

    def test_fixture_signatures_match_reference(self, mldsa_setup):
        scheme, _, secret, messages, signatures = mldsa_setup
        for message, signature in zip(messages[:2], signatures[:2]):
            assert signature == ref.mldsa_sign(scheme, secret, message)

    def test_sign_trace_attempts_pinned(self, mldsa_setup):
        scheme, _, secret, messages, signatures = mldsa_setup
        expected = SIGN_ATTEMPTS[scheme.params.name]
        for i, message in enumerate(messages[:len(expected)]):
            trace = {}
            assert scheme.sign(secret, message, _trace=trace) == \
                signatures[i]
            assert trace["attempts"] == expected[i], i

    def test_sign_many_matches_scalar_across_sizes(self, mldsa_setup):
        scheme, _, secret, messages, signatures = mldsa_setup
        signer = scheme.signer(secret)
        for size in RAGGED_SIZES:
            assert signer.sign_many(messages[:size]) == \
                signatures[:size], size
        assert signer.sign_many([]) == []

    def test_sign_many_with_context(self, mldsa_setup):
        scheme, _, secret, messages, _ = mldsa_setup
        signer = scheme.signer(secret)
        context = b"batch-ctx"
        assert signer.sign_many(messages[:3], context=context) == \
            [signer.sign(m, context=context) for m in messages[:3]]

    def test_verify_many_matches_scalar_across_sizes(self, mldsa_setup):
        scheme, public, _, messages, signatures = mldsa_setup
        verifier = scheme.verifier(public)
        scalar = [verifier.verify(m, s)
                  for m, s in zip(messages, signatures)]
        assert scalar == [True] * MAX_BATCH
        for size in RAGGED_SIZES:
            assert verifier.verify_many(messages[:size],
                                        signatures[:size]) == \
                scalar[:size], size
        assert verifier.verify_many([], []) == []

    def test_verify_many_rejects_injected_invalid_lanes(self,
                                                        mldsa_setup):
        scheme, public, _, messages, signatures = mldsa_setup
        verifier = scheme.verifier(public)
        bad = list(signatures[:8])
        bad[1] = bytes(len(bad[1]))                   # zeroed signature
        bad[3] = bad[3][:-1]                          # truncated
        bad[5] = b"\xff" + bad[5][1:]                 # c_tilde corrupted
        bad[6] = bad[6][:-1] + bytes([bad[6][-1] ^ 1])  # hint corrupted
        msgs = list(messages[:8])
        msgs[7] = b"wrong message"
        scalar = [verifier.verify(m, s) for m, s in zip(msgs, bad)]
        assert scalar == [True, False, True, False, True, False,
                          False, False]
        assert verifier.verify_many(msgs, bad) == scalar
        assert [ref.mldsa_verify(scheme, public, m, s)
                for m, s in zip(msgs, bad)] == scalar

    def test_cross_key_verify_many_matches_scalar(self):
        """One ``MLDSA.verify_many`` call over lanes of five keys (one
        malformed, one that decodes but signed nothing), with wrong-key
        and truncated lanes, equals scalar ``verify`` per lane and
        counts exactly what the per-key grouped calls count."""
        scheme = MLDSA(ML_DSA_44)
        keys = [scheme.key_gen(bytes([seed]) * 32) for seed in (1, 2, 3)]
        publics, messages, signatures = [], [], []
        for lane in range(11):
            public, secret = keys[lane % 3]
            message = b"cross-key-%d" % lane
            publics.append(public)
            messages.append(message)
            signatures.append(scheme.sign(secret, message))
        publics[4] = keys[0][0]                       # wrong key
        signatures[7] = signatures[7][:-1]            # truncated
        publics[9] = publics[9][:-1]                  # malformed key
        publics.append(bytes(len(keys[0][0])))       # decodes, wrong
        messages.append(messages[0])
        signatures.append(signatures[0])
        scalar = [scheme.verify(pk, m, s)
                  for pk, m, s in zip(publics, messages, signatures)]
        assert scalar == [lane not in (4, 7, 9, 11) for lane in range(12)]
        with counting() as window:
            assert scheme.verify_many(publics, messages, signatures) == \
                scalar
        cross = window.delta()
        with counting() as window:
            for public in dict.fromkeys(publics):
                lanes = [i for i, pk in enumerate(publics) if pk == public]
                scheme.verify_many([public] * len(lanes),
                                   [messages[i] for i in lanes],
                                   [signatures[i] for i in lanes])
        # Ten lanes reach the transforms (all but the truncated and the
        # malformed-key one), nine rows each: c, four of z, four of w.
        assert cross == window.delta()
        assert cross["crypto.mldsa.ntt_calls"] == 10 * 9
        with pytest.raises(ValueError):
            scheme.verify_many(publics[:2], messages[:1], signatures[:1])

    def test_batch_counters_distinguish_batch_from_scalar(self):
        scheme = MLDSA(ML_DSA_44)
        public, secret = scheme.key_gen(b"\x42" * 32)
        messages = _messages(4)
        with counting() as window:
            signatures = scheme.signer(secret).sign_many(messages)
        delta = window.delta()
        assert delta["crypto.mldsa.sign"] == 4
        assert delta["crypto.mldsa.batch_sign_lanes"] == 4
        with counting() as window:
            assert scheme.verify_many([public] * 4, messages,
                                      signatures) == [True] * 4
        delta = window.delta()
        assert delta["crypto.mldsa.verify"] == 4
        assert delta["crypto.mldsa.batch_verify_lanes"] == 4
        with counting() as window:
            assert scheme.verify(public, messages[0], signatures[0])
        delta = window.delta()
        assert "crypto.mldsa.batch_verify_lanes" not in delta

    def test_ntt_counter_totals_match_scalar_loop(self):
        """Staged sub-batching must keep ``ntt_calls`` totals exactly
        equal to the per-call loop (the transparency contract)."""
        scheme = MLDSA(ML_DSA_44)
        public, secret = scheme.key_gen(b"\x42" * 32)
        messages = _messages(6)
        signer = scheme.signer(secret)
        with counting() as window:
            signatures = signer.sign_many(messages)
        batch = {k: v for k, v in window.delta().items()
                 if not k.startswith("crypto.mldsa.batch_")}
        with counting() as window:
            assert [signer.sign(m) for m in messages] == signatures
        assert window.delta() == batch

    @settings(max_examples=10, deadline=None)
    @given(st.lists(st.binary(max_size=40), min_size=0, max_size=6),
           st.randoms(use_true_random=False))
    def test_hypothesis_verify_many_parity(self, messages, rand):
        scheme = MLDSA(ML_DSA_44)
        public, secret = scheme.key_gen(b"\x42" * 32)
        signer = scheme.signer(secret)
        verifier = scheme.verifier(public)
        signatures = []
        for message in messages:
            sig = signer.sign(message)
            roll = rand.random()
            if roll < 0.3:
                position = rand.randrange(len(sig))
                sig = (sig[:position]
                       + bytes([sig[position] ^ (1 << rand.randrange(8))])
                       + sig[position + 1:])
            elif roll < 0.4:
                sig = sig[:rand.randrange(len(sig))]
            signatures.append(sig)
        scalar = [verifier.verify(m, s)
                  for m, s in zip(messages, signatures)]
        assert verifier.verify_many(messages, signatures) == scalar
        assert [ref.mldsa_verify(scheme, public, m, s)
                for m, s in zip(messages, signatures)] == scalar


@pytest.fixture(scope="module")
def ed_batch():
    lanes = []
    for i in range(MAX_BATCH):
        seed = bytes([i]) * 32
        public = ed.public_key(seed)
        message = b"attest-%04d" % i
        lanes.append((public, message, ed.sign(seed, message)))
    return lanes


class TestEd25519Batch:

    def test_verify_batch_matches_scalar_across_sizes(self, ed_batch):
        for size in RAGGED_SIZES:
            assert ed.verify_batch(ed_batch[:size]) == [True] * size
        assert ed.verify_batch([]) == []

    def test_verify_batch_localizes_offenders(self, ed_batch):
        items = [list(lane) for lane in ed_batch[:10]]
        items[2][2] = bytes(64)                      # invalid signature
        items[4][1] = b"substituted message"
        items[7][2] = items[7][2][:32] + (2**253).to_bytes(32, "little")
        items = [tuple(lane) for lane in items]
        scalar = [ed.verify(*lane) for lane in items]
        expected = [True] * 10
        expected[2] = expected[4] = expected[7] = False
        assert scalar == expected
        assert ed.verify_batch(items) == expected

    def test_verify_batch_structural_rejects(self, ed_batch):
        public, message, signature = ed_batch[0]
        items = [
            (public, message, signature),
            (public[:-1], message, signature),        # bad pk length
            (public, message, signature[:-1]),        # bad sig length
            (b"\xff" * 32, message, signature),       # invalid pk
            # R encoding no compression produces (y >= P)
            (public, message, b"\xff" * 32 + signature[32:]),
        ]
        scalar = [ed.verify(*lane) for lane in items]
        assert scalar == [True, False, False, False, False]
        assert ed.verify_batch(items) == scalar

    def test_batch_counter(self, ed_batch):
        with counting() as window:
            assert ed.verify_batch(ed_batch[:5]) == [True] * 5
        assert window.delta()["crypto.ed25519.batch_verifies"] == 5

    def test_empty_batch_allocates_no_span(self):
        from repro.obs import TELEMETRY
        was_enabled = TELEMETRY.enabled
        TELEMETRY.enabled = True
        reset_telemetry()
        try:
            assert ed.verify_batch([]) == []
            spans = TELEMETRY.tracer.snapshot()
        finally:
            reset_telemetry()
            TELEMETRY.enabled = was_enabled
        assert spans == []

    def test_batch_of_one_short_circuits_to_scalar(self, ed_batch):
        with counting() as window:
            assert ed.verify_batch(ed_batch[:1]) == [True]
        delta = window.delta()
        assert "crypto.ed25519.batch_verifies" not in delta
        assert delta["crypto.ed25519.verify"] == 1

    def test_duplicate_keys_share_one_wnaf_table(self, monkeypatch):
        from repro.runtime.memo import Memo
        seed = b"\x21" * 32
        public = ed.public_key(seed)
        lanes = [(public, b"dup-%d" % i, ed.sign(seed, b"dup-%d" % i))
                 for i in range(6)]
        # Fresh memo: the batch-local sharing, not global cache warmth,
        # must deduplicate the table lookup.
        monkeypatch.setattr(ed, "_VERIFY_MEMO", Memo(maxsize=256))
        calls = []
        real_table = ed._verify_table

        def counting_table(public, width=ed._WNAF_POINT):
            calls.append((bytes(public), width))
            return real_table(public, width)

        monkeypatch.setattr(ed, "_verify_table", counting_table)
        with counting() as cold:
            assert ed.verify_batch(lanes) == [True] * len(lanes)
        cold_delta = cold.delta()   # snapshot before the warm rerun
        assert calls == [(public, ed._WNAF_BATCH)]
        # Online point_adds are cache-warmth independent: the warm rerun
        # (memoized tables, no builds) ticks the exact same delta.
        with counting() as warm:
            assert ed.verify_batch(lanes) == [True] * len(lanes)
        assert warm.delta()["crypto.ed25519.point_adds"] == \
            cold_delta["crypto.ed25519.point_adds"]


def _order2_defect(seed: bytes, message: bytes) -> tuple:
    """A lane only the key holder can make: ``R = r*B + (0, -1)`` and
    ``s = r + k*a``, so ``s*B - k*A - R`` is the order-2 point."""
    digest = ed._sha512(seed)
    a = ed._clamp(digest[:32])
    public = ed.public_key(seed)
    r = int.from_bytes(ed._sha512(digest[32:] + message), "little") % ed.L
    order2 = (0, ed.P - 1, 1, 0)
    r_bytes = ed._compress(ed._point_add(ed._point_mul_base(r), order2))
    k = int.from_bytes(ed._sha512(r_bytes + public + message),
                       "little") % ed.L
    return public, message, r_bytes + ((r + k * a) % ed.L).to_bytes(
        32, "little")


class TestEd25519Cofactored:
    """Every path checks ``[8](s*B - R - k*A) == identity``: two odd
    coefficients sum an order-2 defect away, so a cofactorless scalar
    check would disagree with the batch on such lanes."""

    def test_order2_defect_verdicts_agree(self, ed_batch):
        defects = [_order2_defect(bytes([200 + i]) * 32, b"defect-%d" % i)
                   for i in range(2)]
        assert [ed.verify(*lane) for lane in defects] == [True, True]
        assert ref.ed25519_verify(*defects[0])
        assert ed.verify_batch(defects) == [True, True]
        for lanes in (defects[:1] + list(ed_batch[:6]),
                      defects + list(ed_batch)):
            assert ed.verify_batch(lanes) == \
                [ed.verify(*lane) for lane in lanes] == [True] * len(lanes)

    def test_small_order_public_key_rejected(self):
        # A = (sqrt(-1), 0) has order 4: with s = 0 and R = A the
        # cofactored equation holds for any message, so such keys fail.
        lane = (bytes(32), b"any message", bytes(64))
        assert not ed.verify(*lane)
        assert not ref.ed25519_verify(*lane)
        assert ed.verify_batch([lane, lane]) == [False, False]


class TestEd25519Msm:
    """The combined-equation chain: interleaved Straus over per-key
    coalesced scalars, with bisection triage on failure."""

    def test_msm_matches_straus_and_scalar(self, ed_batch):
        points = [ed._decompress(lane[0]) for lane in ed_batch[:5]]
        scalars = [int.from_bytes(ed._sha512(b"%d" % i), "little") % ed.L
                   for i in range(6)]
        chain = ed._multi_scalar_mul(scalars[0], [
            (s, ed._WNAF_BATCH, ed._point_table(p, ed._WNAF_BATCH))
            for s, p in zip(scalars[1:], points)])
        reference = ref.ed25519_point_mul(scalars[0], ed.BASE_POINT)
        for s, p in zip(scalars[1:], points):
            reference = ed._point_add(reference, ref.ed25519_point_mul(s, p))
        assert ed._point_equal(chain, reference)
        items = [list(lane) for lane in ed_batch[:16]]
        items[3][2] = bytes(64)                       # invalid lane
        items[8][1] = b"tampered message"
        items = [tuple(lane) for lane in items]
        scalar = [ed.verify(*lane) for lane in items]
        assert scalar.count(False) == 2
        assert ed.verify_batch(items) == scalar

    def test_msm_counters(self, ed_batch):
        with counting() as window:
            assert ed.verify_batch(ed_batch[:8]) == [True] * 8
        delta = window.delta()
        # One combined chain: the base point, -R_i per lane and one -A
        # per distinct key (eight here).
        assert delta["crypto.ed25519.msm_points"] == 8 + 8 + 1
        assert delta["crypto.ed25519.point_adds"] > 0
        seed = b"\x33" * 32
        shared = [(ed.public_key(seed), b"k-%d" % i,
                   ed.sign(seed, b"k-%d" % i)) for i in range(5)]
        with counting() as window:
            assert ed.verify_batch(shared + list(ed_batch[:3])) == \
                [True] * 8
        # Five lanes of one key coalesce into a single -A term.
        assert window.delta()["crypto.ed25519.msm_points"] == 8 + 4 + 1

    @pytest.mark.parametrize("size", [5, 13, 33])
    def test_bisection_localizes_bad_lanes(self, ed_batch, size):
        for bad in (set(), {size // 2}, {0, size - 1}, set(range(size))):
            items = [(public, b"forged" if i in bad else message, sig)
                     for i, (public, message, sig)
                     in enumerate(ed_batch[:size])]
            expected = [i not in bad for i in range(size)]
            assert [ed.verify(*lane) for lane in items] == expected
            with counting() as window:
                assert ed.verify_batch(items) == expected, (size, bad)
            scalar = window.delta().get("crypto.ed25519.verify", 0)
            # Leaves of at most two lanes: each bad lane costs at most
            # two scalar verifies, and all-bad batches one per lane.
            assert scalar <= min(2 * len(bad), size), (size, bad, scalar)


def _cim_macros(weights):
    return (
        ("plain", lambda: DigitalCimMacro(list(weights))),
        ("masked1", lambda: MaskedCimMacro(list(weights), seed=5)),
        ("masked2", lambda: MaskedCimMacro(list(weights), seed=5,
                                           order=2)),
        ("masked3", lambda: MaskedCimMacro(list(weights), seed=5,
                                           order=3)),
        ("shuffled", lambda: ShuffledCimMacro(list(weights), seed=9)),
    )


class TestCimVectorized:

    #: 17/18 leaves straddle the uint8 -> uint16 tree-node edge and
    #: 4370 the uint16 -> uint32 edge (``WEIGHT_MAX * length``).
    @pytest.mark.parametrize("length", [1, 3, 16, 17, 18, 4370])
    def test_query_fresh_many_bit_equal(self, length):
        rng = np.random.default_rng(length)
        traces = 4 if length > 4369 else 40
        masks = rng.integers(0, 2, size=(traces, length))
        # The all-ones row drives the all-WEIGHT_MAX macro's root to
        # the dtype's bound; the last row replays through the scalar
        # path, so it goes first.
        masks[0] = 1
        random_weights = [int(w) for w in rng.integers(0, 16, length)]
        for weights in (random_weights, [WEIGHT_MAX] * length):
            for name, make in _cim_macros(weights):
                scalar_macro = make()
                scalar = [scalar_macro.query_fresh([int(b) for b in row])
                          for row in masks]
                batch_macro = make()
                assert batch_macro.query_fresh_many(masks).tolist() == \
                    scalar, name
                # Final macro state (registers, tree nodes, RNG stream)
                # must match the scalar loop exactly.
                assert batch_macro.mac_register == \
                    scalar_macro.mac_register
                assert batch_macro.tree._levels == \
                    scalar_macro.tree._levels
                if hasattr(batch_macro, "_rng"):
                    assert batch_macro._rng.bit_generator.state == \
                        scalar_macro._rng.bit_generator.state, name

    def test_masked_synthesis_memory_peak(self):
        """One order-2 masked call at the ``cim-attack`` shape (50,000
        one-hot rows of 8 leaves) peaks at most 20 MiB: the leaves,
        levels and popcounts share one uint8 node buffer, and only the
        int64 share draw is wide."""
        masks = np.tile(np.asarray(one_hot(8, 3), dtype=np.int64),
                        (50_000, 1))
        macro = MaskedCimMacro([0, 3, 7, 15, 15, 0, 7, 3], seed=1,
                               order=2)
        tracemalloc.start()
        try:
            macro.query_fresh_many(masks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2 ** 20, f"{peak / 2 ** 20:.1f} MiB"

    def test_query_fresh_many_validates(self):
        macro = DigitalCimMacro([1, 2, 3])
        with pytest.raises(ValueError):
            macro.query_fresh_many(np.zeros((2, 4), dtype=np.int64))
        with pytest.raises(ValueError):
            macro.query_fresh_many(np.full((2, 3), 2, dtype=np.int64))

    def test_measure_many_parity(self):
        toggles = list(range(30))
        for sigma in (0.0, 1.7):
            scalar_power = PowerModel(noise_sigma=sigma, seed=3)
            batch_power = PowerModel(noise_sigma=sigma, seed=3)
            assert [scalar_power.measure(t) for t in toggles] == \
                batch_power.measure_many(toggles).tolist()

    def test_trace_parity_with_interleaved_scalar_loop(self):
        weights = [3, 7, 15, 0, 9, 12, 1, 4]
        inputs = [1, 0, 1, 1, 0, 1, 0, 1]
        scalar_macro = MaskedCimMacro(list(weights), seed=2)
        scalar_power = PowerModel(noise_sigma=1.0, seed=4)
        scalar = [scalar_power.measure(scalar_macro.query_fresh(inputs))
                  for _ in range(25)]
        batch_macro = MaskedCimMacro(list(weights), seed=2)
        batch_power = PowerModel(noise_sigma=1.0, seed=4)
        assert batch_power.trace(batch_macro, inputs,
                                 repetitions=25).tolist() == scalar

    def test_tvla_matches_scalar_reference_loop(self):
        """``assess_macro`` pinned to an inline copy of the pre-batch
        scalar loop, including the interleaved noise-stream order."""
        weights = [0, 3, 7, 15, 15, 0, 7, 3]
        traces, sigma, seed = 300, 1.0, 0

        def scalar_reference(factory):
            rng = np.random.default_rng(seed)
            power = PowerModel(noise_sigma=sigma, seed=seed + 1)
            mask = [1] * len(weights)
            fixed_samples, random_samples = [], []
            fixed_macro = factory(list(weights))
            for _ in range(traces):
                fixed_samples.append(
                    power.measure(fixed_macro.query_fresh(mask)))
                random_weights = [int(w)
                                  for w in rng.integers(0, 16,
                                                        len(weights))]
                random_samples.append(power.measure(
                    factory(random_weights).query_fresh(mask)))
            return welch_t(fixed_samples, random_samples)

        for factory in (DigitalCimMacro,
                        lambda w: MaskedCimMacro(w, seed=6)):
            got = assess_macro(factory, weights)
            assert got.t_statistic == scalar_reference(factory)

    def test_traces_vectorized_counter(self):
        macro = DigitalCimMacro([1, 2, 3, 4])
        masks = np.zeros((12, 4), dtype=np.int64)
        with counting() as window:
            macro.query_fresh_many(masks)
        assert window.delta()["cim.traces_vectorized"] == 11


class TestConsumers:

    @pytest.fixture(scope="class")
    def pq_platform(self):
        return build_tee(post_quantum=True)

    def test_attest_enclaves_byte_identical(self, pq_platform):
        sm = pq_platform.sm
        enclaves = [sm.create_enclave(b"batch-enclave-%d" % i * 64)
                    for i in range(3)]
        data = [b"d%d" % i for i in range(3)]
        try:
            scalar = [sm.attest_enclave(e, d).encode()
                      for e, d in zip(enclaves, data)]
            batch = [r.encode()
                     for r in sm.attest_enclaves(enclaves, data)]
            assert scalar == batch
        finally:
            for enclave in enclaves:
                sm.destroy_enclave(enclave)

    def test_verify_reports_boolean_identical(self, pq_platform):
        sm = pq_platform.sm
        identity = pq_platform.device.public_identity()
        enclaves = [sm.create_enclave(b"verify-enclave-%d" % i * 64)
                    for i in range(3)]
        try:
            reports = sm.attest_enclaves(enclaves)
            reports[1].enclave_pq_signature = bytes(
                len(reports[1].enclave_pq_signature))
            scalar = [verify_report(r, identity) for r in reports]
            assert scalar == [True, False, True]
            assert verify_reports(reports, identity) == scalar
        finally:
            for enclave in enclaves:
                sm.destroy_enclave(enclave)

    def test_verify_reports_verifies_each_certificate_once(self,
                                                            monkeypatch):
        reports, identities = [], []
        for index in range(2):
            platform = build_tee(bytes([index + 1]) * 32,
                                 post_quantum=True)
            sm = platform.sm
            enclaves = [sm.create_enclave(b"dedup-enclave-%d" % e)
                        for e in range(8)]
            reports += sm.attest_enclaves(enclaves)
            identities += [platform.device.public_identity()] * 8
        # Tampered certificates, each shared by several reports: the
        # classical one on three of device 1's reports, the PQ one on
        # two of device 0's.
        forged = bytearray(reports[8].sm_signature)
        forged[0] ^= 1
        for report in reports[8:11]:
            report.sm_signature = bytes(forged)
        forged_pq = bytearray(reports[3].sm_pq_signature)
        forged_pq[0] ^= 1
        for report in reports[3:5]:
            report.sm_pq_signature = bytes(forged_pq)
        scalar = [verify_report(r, identity)
                  for r, identity in zip(reports, identities)]
        assert scalar == [i not in (3, 4, 8, 9, 10) for i in range(16)]

        ed_lanes, mldsa_lanes, mldsa_calls = [], [], []
        real_batch, real_many = ed.verify_batch, MLDSA.verify_many

        def recording_batch(items):
            items = list(items)
            ed_lanes.extend(items)
            return real_batch(items)

        def recording_many(scheme, publics, messages, signatures,
                           context=b""):
            mldsa_calls.append(len(messages))
            mldsa_lanes.extend(zip(publics, messages, signatures))
            return real_many(scheme, publics, messages, signatures,
                             context)

        monkeypatch.setattr(ed, "verify_batch", recording_batch)
        monkeypatch.setattr(MLDSA, "verify_many", recording_many)
        assert verify_reports(reports, identities) == scalar
        # Each distinct signed item reaches a kernel once: three device
        # certificates (two genuine, one forged) plus sixteen enclave
        # signatures on the Ed25519 side; on the ML-DSA side three
        # device certificates for the 13 reports still standing, plus
        # the enclave signatures of the 11 that passed them.
        assert len(set(ed_lanes)) == len(ed_lanes) == 3 + 16
        assert len(set(mldsa_lanes)) == len(mldsa_lanes) == 3 + 11
        # ... in two cross-key kernel calls, one per signature layer.
        assert mldsa_calls == [3, 11]
