"""Adversarial robustness: corrupted or spliced artifacts never verify.

The PoC's security claim is unforgeability: no byte-level manipulation
of a valid proof may survive Algorithm 2.  These tests flip arbitrary
bytes (hypothesis-chosen positions), truncate, splice fields between two
valid proofs, and confirm the verifier rejects every mutation while
still accepting the pristine original.

The same holds for Merkle batch attestation: :func:`verify_batch`,
:func:`verify_merkle_proof` and :class:`VerifierService` reject flipped
and spliced leaves, wrong roots, proofs from another batch, wrong
signers and a verified root replayed over other payloads — with their
caches cold, and warm from having just accepted the pristine batch.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.charging.cycle import ChargingCycle
from repro.core.messages import (
    POC_WIRE_SIZE,
    MessageError,
    ProofOfCharging,
    TlcCda,
    TlcCdr,
)
from repro.core.plan import DataPlan
from repro.core.protocol import NegotiationAgent, run_negotiation
from repro.core.records import UsageView
from repro.core.strategies import OptimalStrategy, Role
from repro.core.verifier import PublicVerifier
from repro.crypto.merkle import (
    merkle_proof,
    merkle_root,
    sign_batch,
    verify_batch,
    verify_merkle_proof,
)
from repro.crypto.nonces import NonceFactory
from repro.service import (
    ChargingCore,
    SealedClaimBatch,
    ServiceConfig,
    SessionSpec,
    UsageEvent,
    VerifierService,
)

MB = 1_000_000


@pytest.fixture(scope="module")
def valid_poc(edge_keys, operator_keys):
    """A pristine negotiated PoC plus its plan."""
    cycle = ChargingCycle(index=0, start=0.0, end=3600.0)
    plan = DataPlan(cycle=cycle, loss_weight=0.5)
    view = UsageView(sent_estimate=1000 * MB, received_estimate=930 * MB)
    nonce_factory = NonceFactory(random.Random(55))
    edge = NegotiationAgent(
        role=Role.EDGE,
        strategy=OptimalStrategy(Role.EDGE, view),
        plan=plan,
        private_key=edge_keys.private,
        peer_public_key=operator_keys.public,
        nonce_factory=nonce_factory,
    )
    operator = NegotiationAgent(
        role=Role.OPERATOR,
        strategy=OptimalStrategy(Role.OPERATOR, view),
        plan=plan,
        private_key=operator_keys.private,
        peer_public_key=edge_keys.public,
        nonce_factory=nonce_factory,
    )
    outcome = run_negotiation(operator, edge)
    assert outcome.converged
    return outcome.poc.to_bytes(), plan


# The PoC tail is zero padding; flipping it does not change the parsed
# proof, so restrict mutations to the meaningful prefix.
_MEANINGFUL_PREFIX = 597


class TestByteFlips:
    @given(
        position=st.integers(min_value=0, max_value=_MEANINGFUL_PREFIX - 1),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=150, deadline=None)
    def test_any_flipped_byte_is_rejected(
        self, valid_poc, edge_keys, operator_keys, position, mask
    ):
        wire, plan = valid_poc
        mutated = bytearray(wire)
        mutated[position] ^= mask
        result = PublicVerifier().verify(
            bytes(mutated), plan, edge_keys.public, operator_keys.public
        )
        assert not result.ok

    def test_pristine_original_still_verifies(
        self, valid_poc, edge_keys, operator_keys
    ):
        wire, plan = valid_poc
        result = PublicVerifier().verify(
            wire, plan, edge_keys.public, operator_keys.public
        )
        assert result.ok


class TestStructuralMutations:
    @given(cut=st.integers(min_value=1, max_value=POC_WIRE_SIZE - 1))
    @settings(max_examples=40, deadline=None)
    def test_truncation_rejected(
        self, valid_poc, edge_keys, operator_keys, cut
    ):
        wire, plan = valid_poc
        result = PublicVerifier().verify(
            wire[:cut], plan, edge_keys.public, operator_keys.public
        )
        assert not result.ok

    def test_extension_rejected(self, valid_poc, edge_keys, operator_keys):
        wire, plan = valid_poc
        result = PublicVerifier().verify(
            wire + b"\x00", plan, edge_keys.public, operator_keys.public
        )
        assert not result.ok

    def test_random_bytes_rejected(self, valid_poc, edge_keys, operator_keys):
        _wire, plan = valid_poc
        rng = random.Random(77)
        garbage = bytes(rng.getrandbits(8) for _ in range(POC_WIRE_SIZE))
        result = PublicVerifier().verify(
            garbage, plan, edge_keys.public, operator_keys.public
        )
        assert not result.ok


class TestSplicing:
    def _negotiate(self, edge_keys, operator_keys, seed, volume=1000 * MB):
        cycle = ChargingCycle(index=0, start=0.0, end=3600.0)
        plan = DataPlan(cycle=cycle, loss_weight=0.5)
        view = UsageView(
            sent_estimate=volume, received_estimate=volume * 0.93
        )
        nonce_factory = NonceFactory(random.Random(seed))
        edge = NegotiationAgent(
            role=Role.EDGE,
            strategy=OptimalStrategy(Role.EDGE, view),
            plan=plan,
            private_key=edge_keys.private,
            peer_public_key=operator_keys.public,
            nonce_factory=nonce_factory,
        )
        operator = NegotiationAgent(
            role=Role.OPERATOR,
            strategy=OptimalStrategy(Role.OPERATOR, view),
            plan=plan,
            private_key=operator_keys.private,
            peer_public_key=edge_keys.public,
            nonce_factory=nonce_factory,
        )
        return run_negotiation(operator, edge).poc, plan

    def test_cda_from_another_negotiation_rejected(
        self, edge_keys, operator_keys
    ):
        # Splice the CDA of a small-volume negotiation into the PoC of a
        # large one: signatures are individually valid, but the outer
        # PoC signature no longer covers the spliced body.
        big, plan = self._negotiate(edge_keys, operator_keys, seed=1)
        small, _ = self._negotiate(
            edge_keys, operator_keys, seed=2, volume=10 * MB
        )
        spliced = ProofOfCharging(
            party=big.party,
            cycle_start=big.cycle_start,
            cycle_end=big.cycle_end,
            c=big.c,
            volume=big.volume,
            cda=small.cda,
            edge_nonce=big.edge_nonce,
            operator_nonce=big.operator_nonce,
            signature=big.signature,
        )
        result = PublicVerifier().verify(
            spliced, plan, edge_keys.public, operator_keys.public
        )
        assert not result.ok

    def test_resigned_splice_caught_by_nonce_check(
        self, edge_keys, operator_keys
    ):
        # Even if the operator RE-SIGNS the spliced PoC with its own key,
        # the nonces inside the foreign CDA disagree with the PoC's.
        big, plan = self._negotiate(edge_keys, operator_keys, seed=3)
        small, _ = self._negotiate(
            edge_keys, operator_keys, seed=4, volume=10 * MB
        )
        spliced = ProofOfCharging(
            party=big.party,
            cycle_start=big.cycle_start,
            cycle_end=big.cycle_end,
            c=big.c,
            volume=big.volume,
            cda=small.cda,
            edge_nonce=big.edge_nonce,
            operator_nonce=big.operator_nonce,
        ).signed(operator_keys.private)
        result = PublicVerifier().verify(
            spliced, plan, edge_keys.public, operator_keys.public
        )
        assert not result.ok
        assert "nonce" in result.reason or "volume" in result.reason


class TestMessageParsers:
    @given(data=st.binary(min_size=0, max_size=1000))
    @settings(max_examples=100, deadline=None)
    def test_cdr_parser_never_crashes_unexpectedly(self, data):
        try:
            TlcCdr.from_bytes(data)
        except (MessageError, ValueError):
            pass  # clean rejection is the contract

    @given(data=st.binary(min_size=0, max_size=1000))
    @settings(max_examples=100, deadline=None)
    def test_cda_parser_never_crashes_unexpectedly(self, data):
        try:
            TlcCda.from_bytes(data)
        except (MessageError, ValueError):
            pass

    @given(data=st.binary(min_size=0, max_size=1000))
    @settings(max_examples=100, deadline=None)
    def test_poc_parser_never_crashes_unexpectedly(self, data):
        try:
            ProofOfCharging.from_bytes(data)
        except (MessageError, ValueError):
            pass


# -- Merkle batch attestation -------------------------------------------------

CACHE_STATES = ("cold", "warm")


def _payloads(seed, count=7):
    rng = random.Random(seed)
    return [rng.randbytes(rng.randrange(1, 200)) for _ in range(count)]


@pytest.fixture(scope="module")
def batches(operator_keys):
    """Two batches of seven payloads, each signed by the operator."""
    a, b = _payloads(1), _payloads(2)
    return (
        (a, sign_batch(operator_keys.private, a)),
        (b, sign_batch(operator_keys.private, b)),
    )


def _flip(payload, position, mask):
    mutated = bytearray(payload)
    mutated[position % len(mutated)] ^= mask
    return bytes(mutated)


class TestVerifyBatchForgeries:
    """Warm: the pristine batch verified first (signing caches primed)."""

    @staticmethod
    def _check(key, payloads, batch, cache, pristine):
        if cache == "warm":
            assert verify_batch(key, *pristine)
        return verify_batch(key, payloads, batch)

    @pytest.mark.parametrize("cache", CACHE_STATES)
    @given(
        leaf=st.integers(min_value=0, max_value=6),
        position=st.integers(min_value=0, max_value=10_000),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=40, deadline=None)
    def test_flipped_leaf(
        self, batches, operator_keys, cache, leaf, position, mask
    ):
        (payloads, batch), _ = batches
        mutated = list(payloads)
        mutated[leaf] = _flip(mutated[leaf], position, mask)
        assert not self._check(
            operator_keys.public, mutated, batch, cache, (payloads, batch)
        )

    @pytest.mark.parametrize("cache", CACHE_STATES)
    @pytest.mark.parametrize("leaf", range(7))
    def test_spliced_leaf(self, batches, operator_keys, cache, leaf):
        (payloads, batch), (other, _) = batches
        spliced = list(payloads)
        spliced[leaf] = other[leaf]
        assert not self._check(
            operator_keys.public, spliced, batch, cache, (payloads, batch)
        )

    @pytest.mark.parametrize("cache", CACHE_STATES)
    def test_wrong_root(self, batches, operator_keys, cache):
        (payloads, batch), (_, other_batch) = batches
        for root in (other_batch.root, _flip(batch.root, 0, 1)):
            forged = dataclasses.replace(batch, root=root)
            assert not self._check(
                operator_keys.public, payloads, forged, cache,
                (payloads, batch),
            )

    @pytest.mark.parametrize("cache", CACHE_STATES)
    def test_wrong_signer(self, batches, edge_keys, operator_keys, cache):
        (payloads, batch), _ = batches
        imposter = sign_batch(edge_keys.private, payloads)
        assert not self._check(
            operator_keys.public, payloads, imposter, cache,
            (payloads, batch),
        )

    @pytest.mark.parametrize("cache", CACHE_STATES)
    def test_verified_root_replayed_with_other_payloads(
        self, batches, operator_keys, cache
    ):
        (payloads, batch), (other, _) = batches
        for replayed in (other, payloads[::-1], payloads[:-1]):
            assert not self._check(
                operator_keys.public, replayed, batch, cache,
                (payloads, batch),
            )


class TestMerkleProofForgeries:
    @given(
        leaf=st.integers(min_value=0, max_value=6),
        position=st.integers(min_value=0, max_value=10_000),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=60, deadline=None)
    def test_flipped_leaf_or_sibling(self, batches, leaf, position, mask):
        (payloads, batch), _ = batches
        proof = merkle_proof(payloads, leaf)
        assert verify_merkle_proof(payloads[leaf], proof, batch.root)
        flipped = _flip(payloads[leaf], position, mask)
        assert not verify_merkle_proof(flipped, proof, batch.root)
        level = position % len(proof)
        is_right, sibling = proof[level]
        bent = (
            proof[:level]
            + ((is_right, _flip(sibling, position, mask)),)
            + proof[level + 1:]
        )
        assert not verify_merkle_proof(payloads[leaf], bent, batch.root)

    @pytest.mark.parametrize("leaf", range(7))
    def test_proof_from_another_batch(self, batches, leaf):
        (payloads, batch), (other, _) = batches
        foreign = merkle_proof(other, leaf)
        assert not verify_merkle_proof(payloads[leaf], foreign, batch.root)
        # ... nor does the other batch's leaf pass under this root.
        assert not verify_merkle_proof(other[leaf], foreign, batch.root)

    @pytest.mark.parametrize("leaf", range(7))
    def test_wrong_root_or_spliced_leaf(self, batches, leaf):
        (payloads, batch), (other, other_batch) = batches
        proof = merkle_proof(payloads, leaf)
        assert not verify_merkle_proof(
            payloads[leaf], proof, other_batch.root
        )
        assert not verify_merkle_proof(other[leaf], proof, batch.root)
        # A proof is position-bound: the neighbour's proof does not fit.
        neighbour = merkle_proof(payloads, (leaf + 1) % 7)
        assert not verify_merkle_proof(payloads[leaf], neighbour, batch.root)

    def test_inner_node_is_not_a_leaf(self, batches):
        (payloads, batch), _ = batches
        # Domain separation: a level-1 node's preimage is no leaf.
        inner = merkle_root(payloads[:2])
        assert not verify_merkle_proof(
            inner, merkle_proof(payloads, 0)[1:], batch.root
        )


@pytest.fixture(scope="module")
def service_outputs():
    """A small service run's sealed claim and record batches."""
    config = ServiceConfig(cycle_duration=10.0, cdr_period=5.0, attest_batch=8)
    core = ChargingCore(config)
    specs = [SessionSpec.indexed(i) for i in range(2)]
    for spec in specs:
        core.open_session(spec)
    for spec in specs:
        for i in range(24):
            core.process(
                UsageEvent(
                    session_id=spec.session_id,
                    timestamp=float(i),
                    sent_bytes=1000,
                    lost_bytes=100,
                )
            )
    core.finalize()
    outputs = core.drain_outbox()
    claims = [p for k, p in outputs if k == "claim_batch"]
    records = [p for k, p in outputs if k == "record_batch"]
    assert len(claims) >= 2 and len(records) >= 2
    return core, claims, records


def _verifier(core, cache, pristine):
    """A fresh verifier; ``warm`` has already accepted ``pristine``."""
    verifier = VerifierService(
        edge_key=core.edge_keys.public,
        operator_key=core.operator_keys.public,
        loss_weight=core.config.loss_weight,
    )
    if cache == "warm":
        accept = (
            verifier.accept_claim_batch
            if isinstance(pristine, SealedClaimBatch)
            else verifier.accept_record_batch
        )
        assert accept(pristine).ok
    return verifier


def _rejects(verifier, sealed):
    before = verifier.stats()
    if isinstance(sealed, SealedClaimBatch):
        result = verifier.accept_claim_batch(sealed)
    else:
        result = verifier.accept_record_batch(sealed)
    after = verifier.stats()
    verified = ("claim_batches_verified", "record_batches_verified")
    return (
        not result.ok
        and after["batches_rejected"] == before["batches_rejected"] + 1
        and all(after[k] == before[k] for k in verified)
        and after["claims_verified"] == before["claims_verified"]
    )


def _with_leaf(sealed, index, leaf):
    if isinstance(sealed, SealedClaimBatch):
        claims = list(sealed.claims)
        claims[index] = leaf
        return dataclasses.replace(sealed, claims=tuple(claims))
    records = list(sealed.records)
    records[index] = leaf
    return dataclasses.replace(sealed, records=tuple(records))


def _leaves(sealed):
    if isinstance(sealed, SealedClaimBatch):
        return sealed.claims
    return sealed.records


@pytest.mark.parametrize("kind", ["claim", "record"])
class TestVerifierServiceForgeries:
    @staticmethod
    def _pair(service_outputs, kind):
        core, claims, records = service_outputs
        sealed, other = (claims if kind == "claim" else records)[:2]
        return core, sealed, other

    @pytest.mark.parametrize("cache", CACHE_STATES)
    @given(
        index=st.integers(min_value=0, max_value=100),
        delta=st.integers(min_value=1, max_value=10**9),
    )
    @settings(max_examples=25, deadline=None)
    def test_altered_leaf(self, service_outputs, kind, cache, index, delta):
        core, sealed, _ = self._pair(service_outputs, kind)
        leaves = _leaves(sealed)
        index %= len(leaves)
        victim = leaves[index]
        if kind == "claim":
            altered = dataclasses.replace(victim, volume=victim.volume + delta)
        else:
            altered = dataclasses.replace(
                victim, downlink_bytes=victim.downlink_bytes + delta
            )
        verifier = _verifier(core, cache, sealed)
        assert _rejects(verifier, _with_leaf(sealed, index, altered))

    @pytest.mark.parametrize("cache", CACHE_STATES)
    def test_spliced_leaf(self, service_outputs, kind, cache):
        core, sealed, other = self._pair(service_outputs, kind)
        for index in range(min(len(_leaves(sealed)), len(_leaves(other)))):
            forged = _with_leaf(sealed, index, _leaves(other)[index])
            assert _rejects(_verifier(core, cache, sealed), forged)

    @pytest.mark.parametrize("cache", CACHE_STATES)
    def test_wrong_root(self, service_outputs, kind, cache):
        core, sealed, other = self._pair(service_outputs, kind)
        # Another verified batch's root, with or without its signature.
        for batch in (
            dataclasses.replace(sealed.batch, root=other.batch.root),
            dataclasses.replace(other.batch, count=sealed.batch.count),
        ):
            forged = dataclasses.replace(sealed, batch=batch)
            verifier = _verifier(core, cache, sealed)
            if cache == "warm":
                verifier.accept(f"{kind}_batch", other)
            assert _rejects(verifier, forged)

    @pytest.mark.parametrize("cache", CACHE_STATES)
    def test_wrong_signer(self, service_outputs, kind, cache):
        core, sealed, _ = self._pair(service_outputs, kind)
        payloads = [
            leaf.payload_bytes() if kind == "claim" else leaf.to_bytes()
            for leaf in _leaves(sealed)
        ]
        imposter = sign_batch(core.edge_keys.private, payloads)
        forged = dataclasses.replace(sealed, batch=imposter)
        assert _rejects(_verifier(core, cache, sealed), forged)
        zeroed = dataclasses.replace(
            sealed.batch, signature=bytes(len(sealed.batch.signature))
        )
        forged = dataclasses.replace(sealed, batch=zeroed)
        assert _rejects(_verifier(core, cache, sealed), forged)

    @pytest.mark.parametrize("cache", CACHE_STATES)
    def test_verified_root_replayed_with_other_payloads(
        self, service_outputs, kind, cache
    ):
        core, sealed, other = self._pair(service_outputs, kind)
        leaves = _leaves(sealed)
        others = _leaves(other)
        for replayed in (
            others[: len(leaves)],
            others,
            leaves[::-1],
            leaves[:-1],
        ):
            if tuple(replayed) == tuple(leaves):
                continue
            field = "claims" if kind == "claim" else "records"
            forged = dataclasses.replace(sealed, **{field: tuple(replayed)})
            assert _rejects(_verifier(core, cache, sealed), forged)

    @pytest.mark.parametrize("cache", CACHE_STATES)
    def test_pristine_batch_is_accepted(self, service_outputs, kind, cache):
        core, sealed, _ = self._pair(service_outputs, kind)
        verifier = _verifier(core, cache, sealed)
        accept = (
            verifier.accept_claim_batch
            if kind == "claim"
            else verifier.accept_record_batch
        )
        ops = verifier.public_key_ops
        assert accept(sealed).ok
        # Warm: the signature that verified under this root is reused.
        assert verifier.public_key_ops == ops + (cache == "cold")
