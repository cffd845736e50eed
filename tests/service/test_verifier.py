"""The verification tier: caching, queries, batch attestation (Alg. 2)."""

import dataclasses

import pytest

from repro.crypto.merkle import sign_batch, verify_merkle_proof
from repro.crypto.rsa import keypair_for_seed
from repro.service import (
    ChargingCore,
    SealedClaimBatch,
    SealedRecordBatch,
    ServiceConfig,
    SessionSpec,
    UsageEvent,
    VerificationCache,
    VerifierService,
)


CFG = ServiceConfig(
    cycle_duration=10.0, cdr_period=5.0, attest_batch=8
)


def stream(sid, n, start=0.0, step=1.0, sent=1000, lost=100):
    return [
        UsageEvent(
            session_id=sid,
            timestamp=start + i * step,
            sent_bytes=sent,
            lost_bytes=lost,
        )
        for i in range(n)
    ]


def run_core(config=CFG, sessions=3, n=25):
    core = ChargingCore(config)
    specs = [SessionSpec.indexed(i) for i in range(sessions)]
    for spec in specs:
        core.open_session(spec)
    for spec in specs:
        for e in stream(spec.session_id, n):
            core.process(e)
    core.finalize()
    return core, specs


def make_verifier(core, **overrides):
    return VerifierService(
        edge_key=core.edge_keys.public,
        operator_key=core.operator_keys.public,
        loss_weight=core.config.loss_weight,
        **overrides,
    )


def feed(core, verifier):
    outputs = core.drain_outbox()
    for kind, payload in outputs:
        verifier.accept(kind, payload)
    return outputs


class TestVerificationCache:
    def test_lru_eviction_and_counters(self):
        cache = VerificationCache(max_entries=2)
        cache.put(b"a", b"sig-a")
        cache.put(b"b", b"sig-b")
        assert cache.contains(b"a", b"sig-a")  # refresh a
        cache.put(b"c", b"sig-c")  # evicts b
        assert not cache.contains(b"b", b"sig-b")
        assert cache.contains(b"a", b"sig-a")
        assert cache.contains(b"c", b"sig-c")
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["hits"] == 3
        assert stats["misses"] == 1

    def test_a_hit_needs_the_signature_that_verified(self):
        cache = VerificationCache(max_entries=2)
        cache.put(b"root", b"good")
        assert not cache.contains(b"root", bytes(4))
        assert cache.contains(b"root", b"good")
        assert cache.stats()["misses"] == 1

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            VerificationCache(0)


class TestBatchAttestationOnByDefault:
    """Satellite 3: Algorithm-2 batch verification of interleaved streams."""

    def test_service_claim_batches_interleave_sessions(self):
        core, _ = run_core()
        batches = [
            p for k, p in core.drain_outbox() if k == "claim_batch"
        ]
        assert batches, "attestation must be on by default"
        assert any(
            len({claim.app_id for claim in batch.claims}) > 1
            for batch in batches
        ), "no batch mixed claims from different sessions"

    def test_interleaved_batches_verify_with_one_op_each(self):
        core, _ = run_core()
        verifier = make_verifier(core)
        feed(core, verifier)
        assert verifier.claim_batches_verified > 0
        assert verifier.record_batches_verified > 0
        assert (
            verifier.claim_batches_verified
            + verifier.record_batches_verified
            == core.batches_sealed
        )
        assert verifier.batches_rejected == 0
        # One public-key op per batch, plus three per PoC settlement.
        expected = (
            verifier.claim_batches_verified
            + verifier.record_batches_verified
            + 3 * (verifier.pocs_verified + verifier.pocs_rejected)
        )
        assert verifier.public_key_ops == expected

    def test_tampered_leaf_is_rejected(self):
        core, _ = run_core(sessions=2, n=12)
        verifier = make_verifier(core)
        sealed = next(
            p for k, p in core.drain_outbox() if k == "claim_batch"
        )
        victim = sealed.claims[0]
        forged = dataclasses.replace(victim, volume=victim.volume + 5000)
        tampered = SealedClaimBatch(
            cycle=sealed.cycle,
            claims=(forged,) + sealed.claims[1:],
            batch=sealed.batch,
        )
        result = verifier.accept_claim_batch(tampered)
        assert not result.ok
        assert verifier.batches_rejected == 1

    def test_wrong_signer_batch_is_rejected(self):
        core, _ = run_core(sessions=1, n=12)
        verifier = make_verifier(core)
        sealed = next(
            p for k, p in core.drain_outbox() if k == "claim_batch"
        )
        imposter = keypair_for_seed(999, bits=512)
        forged_batch = sign_batch(
            imposter.private,
            [claim.to_bytes() for claim in sealed.claims],
        )
        tampered = SealedClaimBatch(
            cycle=sealed.cycle, claims=sealed.claims, batch=forged_batch
        )
        result = verifier.accept_claim_batch(tampered)
        assert not result.ok

    def test_batch_attested_pocs_requires_both_streams(self):
        core, specs = run_core()
        verifier = make_verifier(core)
        feed(core, verifier)
        assert verifier.pocs_verified > 0
        assert verifier.batch_attested_pocs > 0
        assert verifier.batch_attested_pocs <= verifier.pocs_verified

    def test_redelivered_batch_is_a_cache_hit_not_an_rsa_op(self):
        core, _ = run_core(sessions=2, n=12)
        verifier = make_verifier(core)
        outputs = feed(core, verifier)
        sealed = next(p for k, p in outputs if k == "claim_batch")
        ops_before = verifier.public_key_ops
        hits_before = verifier.cache.hits
        verifier.accept_claim_batch(sealed)
        assert verifier.public_key_ops == ops_before
        assert verifier.cache.hits == hits_before + 1


class TestWarmCacheNeverVouchesForPayloads:
    """A cached root skips only the RSA op, never the payload checks.

    Forgeries reuse a root the verifier has already accepted, under an
    all-zero signature: one with another batch's claims, one with an
    inflated gateway record.
    """

    @staticmethod
    def _warm():
        core, _ = run_core(sessions=2, n=24)
        verifier = make_verifier(core)
        outputs = feed(core, verifier)
        assert verifier.batches_rejected == 0
        return verifier, outputs

    @staticmethod
    def _zero_signed(batch):
        return dataclasses.replace(
            batch, signature=bytes(len(batch.signature))
        )

    def test_verified_root_with_another_batchs_claims_is_rejected(self):
        verifier, outputs = self._warm()
        first, second = [p for k, p in outputs if k == "claim_batch"][:2]
        forged = SealedClaimBatch(
            cycle=first.cycle,
            claims=second.claims,
            batch=self._zero_signed(first.batch),
        )
        verified = verifier.claim_batches_verified
        claims = verifier.claims_verified
        assert not verifier.accept_claim_batch(forged).ok
        assert verifier.batches_rejected == 1
        assert verifier.claim_batches_verified == verified
        assert verifier.claims_verified == claims

    def test_verified_root_with_an_inflated_record_is_rejected(self):
        verifier, outputs = self._warm()
        sealed = next(p for k, p in outputs if k == "record_batch")
        victim = sealed.records[0]
        inflated = dataclasses.replace(
            victim, downlink_bytes=victim.downlink_bytes + 10**6
        )
        forged = SealedRecordBatch(
            records=(inflated,) + sealed.records[1:],
            batch=self._zero_signed(sealed.batch),
        )
        sid = verifier._session_for_record(victim)
        attested = verifier.session_status(sid)["records_attested"]
        assert not verifier.accept_record_batch(forged).ok
        assert verifier.batches_rejected == 1
        # Nothing of a rejected batch is indexed for queries.
        assert verifier.session_status(sid)["records_attested"] == attested

    def test_verified_root_with_a_forged_signature_costs_an_rsa_op(self):
        verifier, outputs = self._warm()
        sealed = next(p for k, p in outputs if k == "claim_batch")
        forged = dataclasses.replace(
            sealed, batch=self._zero_signed(sealed.batch)
        )
        ops = verifier.public_key_ops
        assert not verifier.accept_claim_batch(forged).ok
        assert verifier.public_key_ops == ops + 1
        # The genuine batch still verifies from the cache afterwards.
        assert verifier.accept_claim_batch(sealed).ok
        assert verifier.public_key_ops == ops + 1


class TestQuerySurface:
    def test_session_status_and_get_poc(self):
        core, specs = run_core(sessions=1)
        verifier = make_verifier(core)
        feed(core, verifier)
        sid = specs[0].session_id
        status = verifier.session_status(sid)
        assert status["known"]
        assert status["pocs_ok"] >= 1
        assert status["last_volume"] is not None
        poc = verifier.get_poc(sid)
        assert poc is not None
        first_cycle = status["settled_cycles"][0]
        assert verifier.get_poc(sid, first_cycle) is not None
        assert verifier.get_poc(sid, 999) is None
        assert verifier.get_poc("sess-ghost") is None

    def test_two_phase_cdr_loading(self):
        core, specs = run_core(sessions=1, n=40)
        verifier = make_verifier(core)
        feed(core, verifier)
        query_sid = specs[0].app_id  # records index under the app id
        page = verifier.get_cdrs(query_sid, cursor=0, limit=3)
        assert page.total > 3
        assert len(page.refs) == 3
        assert page.next_cursor == 3
        # Walk every page; refs must cover all attested records.
        seen = list(page.refs)
        cursor = page.next_cursor
        while cursor is not None:
            page = verifier.get_cdrs(query_sid, cursor=cursor, limit=3)
            seen.extend(page.refs)
            cursor = page.next_cursor
        assert len(seen) == page.total
        # Phase 2: load one full record with its inclusion proof.
        loaded = verifier.load_cdr(query_sid, seen[0].sequence_number)
        assert loaded is not None
        assert loaded.proof_ok
        assert verify_merkle_proof(
            loaded.record.to_bytes(), loaded.proof, loaded.batch_root
        )

    def test_proofs_are_cached_per_batch_root(self):
        core, specs = run_core(sessions=1, n=40)
        verifier = make_verifier(core)
        feed(core, verifier)
        query_sid = specs[0].app_id
        page = verifier.get_cdrs(query_sid, limit=1)
        seq = page.refs[0].sequence_number
        first = verifier.load_cdr(query_sid, seq)
        second = verifier.load_cdr(query_sid, seq)
        assert first.proof is second.proof  # same cached tuple

    def test_unknown_session_queries_are_empty(self):
        core, _ = run_core(sessions=1, n=5)
        verifier = make_verifier(core)
        feed(core, verifier)
        assert verifier.session_status("nope") == {"known": False}
        page = verifier.get_cdrs("nope")
        assert page.total == 0 and page.refs == ()
        assert verifier.load_cdr("nope", 1) is None
