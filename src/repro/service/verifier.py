"""The verification tier: Algorithm 2 as a continuously running service.

:class:`VerifierService` consumes everything the charging core emits —
settled PoCs, interleaved multi-session claim batches, and gateway CDR
batches — and verifies it as it arrives, cheaply enough to run inline:

- PoCs go through the full Algorithm 2
  (:class:`repro.core.verifier.PublicVerifier`) with its replay cache;
- Merkle batches cost one RSA public op each, and even that op is
  amortized by :class:`VerificationCache`, an LRU keyed by **batch
  root** — re-presenting an already-verified batch (a query, an audit
  re-check, a redelivery) skips the RSA op when its signature is the
  one that verified under that root.  Every other check (root
  recomputation, one signer, plan consistency) runs on every accept;
- Merkle inclusion proofs for single-CDR queries are built lazily and
  cached under the same root key.

The query surface (:meth:`get_poc`, :meth:`get_cdrs`,
:meth:`session_status`) serves large result sets in two phases:
:meth:`get_cdrs` returns light-weight reference pages (sequence numbers
and sizes, with a cursor), and :meth:`load_cdr` fetches one full record
— with its inclusion proof — on demand.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.charging.cdr import ChargingDataRecord
from repro.core.plan import DataPlan
from repro.core.verifier import PublicVerifier, VerificationResult
from repro.crypto.keys import PublicKey
from repro.crypto.merkle import (
    merkle_proof,
    verify_batch,
    verify_merkle_proof,
)
from repro.crypto.signing import verify
from repro.service.core import (
    SealedClaimBatch,
    SealedRecordBatch,
    SettledCycle,
)


class VerificationCache:
    """LRU of the signature that verified under each Merkle batch root.

    Only signatures that passed the RSA check are stored, so a hit is
    proof that the presented ``(root, signature)`` pair is valid under
    the one key its owner verifies with — and nothing more: the caller
    still has to show that the presented payloads hash to ``root``.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries < 1:
            raise ValueError(f"cache bound must be >= 1: {max_entries}")
        self.max_entries = max_entries
        self._signatures: OrderedDict[bytes, bytes] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def contains(self, root: bytes, signature: bytes) -> bool:
        """True iff ``signature`` is the one that verified under ``root``."""
        if self._signatures.get(root) != signature:
            self.misses += 1
            return False
        self._signatures.move_to_end(root)
        self.hits += 1
        return True

    def put(self, root: bytes, signature: bytes) -> None:
        self._signatures[root] = signature
        self._signatures.move_to_end(root)
        if len(self._signatures) > self.max_entries:
            self._signatures.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._signatures),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


@dataclass(frozen=True)
class CdrRef:
    """Phase-1 reference to one verified gateway CDR (light-weight)."""

    sequence_number: int
    total_bytes: int
    time_of_first_usage: float
    batch_root: bytes


@dataclass(frozen=True)
class CdrPage:
    """One page of CDR references plus the cursor for the next."""

    session_id: str
    refs: tuple[CdrRef, ...]
    next_cursor: int | None
    total: int


@dataclass(frozen=True)
class LoadedCdr:
    """Phase-2 result: the full record plus its inclusion proof."""

    record: ChargingDataRecord
    batch_root: bytes
    proof: tuple[tuple[bool, bytes], ...]
    proof_ok: bool


@dataclass
class _SessionLedger:
    """Everything the verifier has accepted for one session."""

    settlements: dict[int, SettledCycle] = field(default_factory=dict)
    poc_verdicts: dict[int, VerificationResult] = field(
        default_factory=dict
    )
    #: (record, root of the batch that attested it), in arrival order.
    records: list[tuple[ChargingDataRecord, bytes]] = field(
        default_factory=list
    )


class VerifierService:
    """Continuously verifies the charging service's output stream."""

    def __init__(
        self,
        edge_key: PublicKey,
        operator_key: PublicKey,
        loss_weight: float,
        cache_entries: int = 256,
        settlement_window: float | None = None,
    ) -> None:
        self.edge_key = edge_key
        self.operator_key = operator_key
        self.loss_weight = loss_weight
        self._poc_verifier = PublicVerifier(
            settlement_window=settlement_window
        )
        self.cache = VerificationCache(cache_entries)
        self._proofs: dict[
            bytes, dict[int, tuple[tuple[bool, bytes], ...]]
        ] = {}
        self._batch_payloads: dict[bytes, list[bytes]] = {}
        self._sessions: dict[str, _SessionLedger] = {}
        #: cycle indices with at least one verified claim batch.
        self._attested_cycles: set[int] = set()
        self.pocs_verified = 0
        self.pocs_rejected = 0
        self.claim_batches_verified = 0
        self.record_batches_verified = 0
        self.batches_rejected = 0
        self.claims_verified = 0
        self.public_key_ops = 0

    # ------------------------------------------------------------------
    # the accept path (driven by the charging service)

    def accept(self, kind: str, payload: object) -> None:
        """Route one drained core output to its verification path."""
        if kind == "settlement":
            self.accept_settlement(payload)  # type: ignore[arg-type]
        elif kind == "claim_batch":
            self.accept_claim_batch(payload)  # type: ignore[arg-type]
        elif kind == "record_batch":
            self.accept_record_batch(payload)  # type: ignore[arg-type]
        else:
            raise ValueError(f"unknown core output kind: {kind!r}")

    def accept_settlement(
        self, settlement: SettledCycle, presented_at: float | None = None
    ) -> VerificationResult:
        """Algorithm 2 over one settled cycle's PoC."""
        ledger = self._sessions.setdefault(
            settlement.session_id, _SessionLedger()
        )
        ledger.settlements[settlement.cycle.index] = settlement
        plan = DataPlan(
            cycle=settlement.cycle, loss_weight=self.loss_weight
        )
        if settlement.outcome.poc is None:
            result = VerificationResult(False, "negotiation not converged")
        else:
            result = self._poc_verifier.verify(
                settlement.outcome.poc,
                plan,
                self.edge_key,
                self.operator_key,
                presented_at=presented_at,
            )
            self.public_key_ops += 3  # PoC + CDA + inner CDR layers
        ledger.poc_verdicts[settlement.cycle.index] = result
        if result.ok:
            self.pocs_verified += 1
        else:
            self.pocs_rejected += 1
        return result

    def _verify_root(
        self, key: PublicKey, root: bytes, signature: bytes
    ) -> bool:
        """The batch root's RSA check, skipped for a signature that
        already verified under that root.

        The batch paths call this only after the payloads hashed to
        ``root``, and always with :attr:`operator_key`, the key every
        cached signature verified under.
        """
        if self.cache.contains(root, signature):
            return True
        self.public_key_ops += 1
        if not verify(key, root, signature):
            return False
        self.cache.put(root, signature)
        return True

    def accept_claim_batch(
        self, sealed: SealedClaimBatch
    ) -> VerificationResult:
        """One RSA op (cached by root) for a whole multi-session batch."""
        plan = DataPlan(cycle=sealed.cycle, loss_weight=self.loss_weight)
        result = self._poc_verifier.verify_cdr_batch(
            list(sealed.claims),
            sealed.batch,
            self.operator_key,
            plan,
            self._verify_root,
        )
        if result.ok:
            self.claim_batches_verified += 1
            self.claims_verified += sealed.batch.count
            self._attested_cycles.add(sealed.cycle.index)
        else:
            self.batches_rejected += 1
        return result

    def accept_record_batch(
        self, sealed: SealedRecordBatch
    ) -> VerificationResult:
        """Verify a gateway-CDR batch and index it for queries."""
        payloads = [record.to_bytes() for record in sealed.records]
        if not verify_batch(
            self.operator_key, payloads, sealed.batch, self._verify_root
        ):
            self.batches_rejected += 1
            return VerificationResult(False, "invalid CDR batch signature")
        self.record_batches_verified += 1
        self.claims_verified += sealed.batch.count
        self._batch_payloads[sealed.batch.root] = payloads
        for record in sealed.records:
            session_id = self._session_for_record(record)
            ledger = self._sessions.setdefault(session_id, _SessionLedger())
            ledger.records.append((record, sealed.batch.root))
        return VerificationResult(True)

    def _session_for_record(self, record: ChargingDataRecord) -> str:
        # Gateway CDRs carry the charging id, not the service session
        # id; queries are keyed by the derived app id so both claim and
        # record streams land in the same ledger bucket.
        return f"s{record.charging_id:08x}"

    # ------------------------------------------------------------------
    # query surface

    @property
    def batch_attested_pocs(self) -> int:
        """Verified PoCs whose cycle also carries a verified claim batch."""
        count = 0
        for ledger in self._sessions.values():
            for index, verdict in ledger.poc_verdicts.items():
                if verdict.ok and index in self._attested_cycles:
                    count += 1
        return count

    def session_status(self, session_id: str) -> dict:
        """What the verifier knows about one session."""
        ledger = self._sessions.get(session_id)
        if ledger is None:
            return {"known": False}
        settled = sorted(ledger.settlements)
        return {
            "known": True,
            "settled_cycles": settled,
            "pocs_ok": sum(
                1 for v in ledger.poc_verdicts.values() if v.ok
            ),
            "pocs_rejected": sum(
                1 for v in ledger.poc_verdicts.values() if not v.ok
            ),
            "records_attested": len(ledger.records),
            "last_volume": (
                ledger.settlements[settled[-1]].volume if settled else None
            ),
        }

    def get_poc(self, session_id: str, cycle_index: int | None = None):
        """The verified PoC for a cycle (latest settled by default)."""
        ledger = self._sessions.get(session_id)
        if ledger is None or not ledger.settlements:
            return None
        if cycle_index is None:
            cycle_index = max(ledger.settlements)
        settlement = ledger.settlements.get(cycle_index)
        if settlement is None:
            return None
        return settlement.outcome.poc

    def get_cdrs(
        self, session_id: str, cursor: int = 0, limit: int = 64
    ) -> CdrPage:
        """Phase 1 of two-phase loading: a page of CDR references.

        Large sessions hold thousands of attested records; a page is a
        tuple of light :class:`CdrRef` entries plus the cursor to pass
        back for the next page (``None`` when exhausted).  Fetch full
        records one at a time with :meth:`load_cdr`.
        """
        if limit < 1:
            raise ValueError(f"page limit must be >= 1: {limit}")
        ledger = self._sessions.get(session_id)
        records = ledger.records if ledger is not None else []
        window = records[cursor:cursor + limit]
        refs = tuple(
            CdrRef(
                sequence_number=record.sequence_number,
                total_bytes=record.total_bytes,
                time_of_first_usage=record.time_of_first_usage,
                batch_root=root,
            )
            for record, root in window
        )
        next_cursor = cursor + limit
        return CdrPage(
            session_id=session_id,
            refs=refs,
            next_cursor=next_cursor if next_cursor < len(records) else None,
            total=len(records),
        )

    def load_cdr(
        self, session_id: str, sequence_number: int
    ) -> LoadedCdr | None:
        """Phase 2: one full record plus its Merkle inclusion proof."""
        ledger = self._sessions.get(session_id)
        if ledger is None:
            return None
        for record, root in ledger.records:
            if record.sequence_number == sequence_number:
                proof = self._proof_for(root, record)
                return LoadedCdr(
                    record=record,
                    batch_root=root,
                    proof=proof,
                    proof_ok=verify_merkle_proof(
                        record.to_bytes(), proof, root
                    ),
                )
        return None

    def _proof_for(
        self, root: bytes, record: ChargingDataRecord
    ) -> tuple[tuple[bool, bytes], ...]:
        payloads = self._batch_payloads[root]
        index = payloads.index(record.to_bytes())
        per_root = self._proofs.setdefault(root, {})
        proof = per_root.get(index)
        if proof is None:
            proof = merkle_proof(payloads, index)
            per_root[index] = proof
        return proof

    def stats(self) -> dict:
        """Picklable verification counters for snapshots."""
        return {
            "pocs_verified": self.pocs_verified,
            "pocs_rejected": self.pocs_rejected,
            "batch_attested_pocs": self.batch_attested_pocs,
            "claim_batches_verified": self.claim_batches_verified,
            "record_batches_verified": self.record_batches_verified,
            "batches_rejected": self.batches_rejected,
            "claims_verified": self.claims_verified,
            "public_key_ops": self.public_key_ops,
            "cache": self.cache.stats(),
        }
