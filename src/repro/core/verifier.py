"""Algorithm 2: public verification of a Proof-of-Charging.

An independent third party (FCC, court, MVNO — §5.3.4) receives a PoC plus
the public data plan and both parties' public keys, and checks — without
ever seeing the data transfer — that:

1. every signature layer is valid (PoC by its constructor, the embedded
   CDA by the other party, the inner CDR by the constructor again);
2. the data plan ``(T, c)`` is consistent across all layers and equal to
   the verifier's copy (lines 2-4);
3. nonces and sequence numbers are coherent, and the nonce pair has not
   been presented before (replay defence, lines 5-7);
4. the negotiated volume equals line 8's formula recomputed from the two
   embedded claims (lines 8-9).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.charging.policy import charged_volume
from repro.core.messages import MessageError, ProofOfCharging, TlcCdr
from repro.core.plan import DataPlan
from repro.core.strategies import Role
from repro.crypto.keys import PublicKey
from repro.crypto.merkle import BatchSignature, verify_batch
from repro.crypto.signing import cached_verify
from repro.crypto.signing import verify as rsa_verify


@dataclass(frozen=True)
class VerificationResult:
    """The verdict and, on failure, the violated check."""

    ok: bool
    reason: str = ""
    volume: float | None = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.ok


class PublicVerifier:
    """A third-party verification service with a replay cache."""

    def __init__(
        self,
        volume_tolerance: float = 1e-6,
        settlement_window: float | None = None,
    ) -> None:
        self.volume_tolerance = float(volume_tolerance)
        #: When set, a PoC presented more than this many seconds after
        #: its cycle end is rejected — the operator has already settled
        #: the cycle, and honouring late proofs would let a party replay
        #: negotiation outcomes against closed books.
        self.settlement_window = (
            None if settlement_window is None else float(settlement_window)
        )
        self._seen_nonce_pairs: set[tuple[bytes, bytes]] = set()
        self.verified_count = 0
        self.rejected_count = 0
        self.late_rejections = 0

    def verify(
        self,
        poc: ProofOfCharging | bytes,
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
        presented_at: float | None = None,
    ) -> VerificationResult:
        """Run Algorithm 2 on one PoC.

        ``presented_at`` is the reference time the proof reached the
        verifier; it only matters when a :attr:`settlement_window` is
        configured.
        """
        result = self._verify(poc, plan, edge_key, operator_key, presented_at)
        if result.ok:
            self.verified_count += 1
        else:
            self.rejected_count += 1
        return result

    def _verify(
        self,
        poc: ProofOfCharging | bytes,
        plan: DataPlan,
        edge_key: PublicKey,
        operator_key: PublicKey,
        presented_at: float | None = None,
    ) -> VerificationResult:
        if isinstance(poc, bytes):
            try:
                poc = ProofOfCharging.from_bytes(poc)
            except (MessageError, ValueError) as exc:
                return VerificationResult(False, f"malformed PoC: {exc}")

        # (0) settlement deadline: a proof that shows up after the books
        # closed is not accepted, however internally consistent.
        if (
            self.settlement_window is not None
            and presented_at is not None
            and presented_at > poc.cycle_end + self.settlement_window
        ):
            self.late_rejections += 1
            return VerificationResult(
                False,
                "PoC presented after the verification deadline "
                f"(cycle end {poc.cycle_end} + window "
                f"{self.settlement_window} < {presented_at})",
            )

        constructor_key = (
            edge_key if poc.party is Role.EDGE else operator_key
        )
        accepter_key = (
            operator_key if poc.party is Role.EDGE else edge_key
        )

        # (1) signature layers: PoC outer, CDA by the other party, inner
        # CDR by the PoC constructor (it is the constructor's own CDR that
        # the peer's CDA embeds).  Signature checks go through the
        # memoized verifier: PoCs embedding already-seen CDR/CDA layers
        # (and re-verified proofs across campaign grid points) skip the
        # RSA public op entirely.
        if not cached_verify(
            constructor_key, poc.payload_bytes(), poc.signature
        ):
            return VerificationResult(False, "invalid PoC signature")
        cda = poc.cda
        if cda.party is poc.party:
            return VerificationResult(
                False, "CDA and PoC signed by the same party"
            )
        if not cached_verify(
            accepter_key, cda.payload_bytes(), cda.signature
        ):
            return VerificationResult(False, "invalid CDA signature")
        cdr = cda.peer_cdr
        if cdr.party is not poc.party:
            return VerificationResult(
                False, "inner CDR not from the PoC constructor"
            )
        if not cached_verify(
            constructor_key, cdr.payload_bytes(), cdr.signature
        ):
            return VerificationResult(False, "invalid inner CDR signature")

        # (2) plan consistency across layers and with the verifier's copy.
        layers = [
            (poc.cycle_start, poc.cycle_end, poc.c),
            (cda.cycle_start, cda.cycle_end, cda.c),
            (cdr.cycle_start, cdr.cycle_end, cdr.c),
        ]
        for start, end, c in layers:
            if (start, end) != plan.cycle.key() or abs(c - plan.c) > 1e-9:
                return VerificationResult(False, "inconsistent data plan")

        # (3) nonce coherence + replay defence + sequence agreement.
        edge_msg = cda if cda.party is Role.EDGE else cdr
        op_msg = cda if cda.party is Role.OPERATOR else cdr
        if poc.edge_nonce != edge_msg.nonce:
            return VerificationResult(False, "edge nonce mismatch")
        if poc.operator_nonce != op_msg.nonce:
            return VerificationResult(False, "operator nonce mismatch")
        # Sequence numbers are claim-round indices; legitimate protocol
        # paths pair claims from the same or adjacent rounds.  A larger
        # gap means a stale message was spliced into the proof.
        if abs(cda.sequence - cdr.sequence) > 1:
            return VerificationResult(
                False, "sequence numbers disagree (possible replay splice)"
            )
        pair = (poc.edge_nonce, poc.operator_nonce)
        if pair in self._seen_nonce_pairs:
            return VerificationResult(False, "replayed PoC")
        self._seen_nonce_pairs.add(pair)

        # (4) recompute line 8 from the embedded claims.
        expected = charged_volume(cdr.volume, cda.volume, plan.c)
        if abs(expected - poc.volume) > self.volume_tolerance * max(
            1.0, abs(expected)
        ):
            return VerificationResult(
                False,
                f"negotiated volume {poc.volume} does not match "
                f"recomputed {expected}",
            )
        return VerificationResult(True, volume=poc.volume)

    def verify_cdr_batch(
        self,
        cdrs: Sequence[TlcCdr],
        batch: BatchSignature,
        signer_key: PublicKey,
        plan: DataPlan,
        verify_signature: Callable[
            [PublicKey, bytes, bytes], bool
        ] = rsa_verify,
    ) -> VerificationResult:
        """Verify a Merkle-batched stream of one party's CDR claims.

        The amortized variant of the layer-1 check: instead of N
        independent RSA verifications, the submitting party signed the
        Merkle root of its CDR payloads once
        (:func:`repro.core.protocol.sign_cdr_batch`), and this check
        costs one RSA public op plus N SHA-256 leaf recomputations.
        The per-CDR plan-consistency checks (Algorithm 2 lines 2-4)
        still run individually.  ``verify_signature`` is the root's RSA
        check, as in :func:`repro.crypto.merkle.verify_batch`.
        """
        if not cdrs:
            return VerificationResult(False, "empty CDR batch")
        parties = {cdr.party for cdr in cdrs}
        if len(parties) != 1:
            return VerificationResult(
                False, "CDR batch mixes parties; one signer per batch"
            )
        payloads = [cdr.payload_bytes() for cdr in cdrs]
        if not verify_batch(signer_key, payloads, batch, verify_signature):
            return VerificationResult(False, "invalid batch signature")
        for cdr in cdrs:
            if (cdr.cycle_start, cdr.cycle_end) != plan.cycle.key() or abs(
                cdr.c - plan.c
            ) > 1e-9:
                return VerificationResult(
                    False, "inconsistent data plan in batched CDR"
                )
        self.verified_count += len(cdrs)
        return VerificationResult(True)
