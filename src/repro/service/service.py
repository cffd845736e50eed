"""The long-lived asyncio charging service.

:class:`ChargingService` multiplexes many concurrent sessions over one
event loop: the ingest front end admits events into bounded per-session
queues, one worker task per session drains its queue into the shared
:class:`repro.service.core.ChargingCore`, and every core output
(settlement, claim batch, record batch) flows straight into the
:class:`repro.service.verifier.VerifierService`.  Backpressure is the
queue bound itself — a full queue surfaces as an explicit
``QUEUE_FULL`` rejection at :meth:`submit`, never as silent buffering.

The exception barrier in :meth:`_session_worker` is the fault
middleware: whatever a session raises degrades *that session* (its
remaining queued bytes are tallied as ``session_degraded`` drops) and
the service keeps charging everyone else.

Charging decisions depend only on event timestamps and seeded streams,
so :meth:`settlements` equals a synchronous batch replay
(:func:`repro.service.core.replay_settlements`) of the same accepted
events — the service's equivalence contract, asserted by
:meth:`verify_batch_equivalence`.
"""

from __future__ import annotations

import asyncio

from repro.crypto.bignum import backend
from repro.service.config import ServiceConfig
from repro.service.core import ChargingCore, replay_settlements
from repro.service.events import (
    Admission,
    SessionSpec,
    UsageEvent,
)
from repro.service.ingest import END_OF_STREAM, UsageIngest
from repro.service.middleware import DegradedLedger, ServiceHooks
from repro.service.verifier import VerifierService
from repro.telemetry.accounting import AccountingTable, LayerAccount


class ChargingService:
    """Charging-as-a-service: ingest → charge → verify, continuously."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        hooks: ServiceHooks | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.ingest = UsageIngest(self.config)
        self.core = ChargingCore(self.config, hooks=hooks)
        self.verifier = VerifierService(
            edge_key=self.core.edge_keys.public,
            operator_key=self.core.operator_keys.public,
            loss_weight=self.config.loss_weight,
            cache_entries=self.config.verify_cache_entries,
            settlement_window=self.config.settlement_window,
        )
        self.degraded = DegradedLedger()
        self._workers: dict[str, asyncio.Task] = {}
        self._settlements: dict[tuple[str, int], float | None] = {}
        self._shut_down = False

    # ------------------------------------------------------------------
    # session lifecycle

    def open_session(self, spec: SessionSpec) -> Admission:
        """Admit a session and start its worker task."""
        if self._shut_down:
            raise RuntimeError("service is shut down")
        admission = self.ingest.open_session(spec)
        if admission:
            self.core.open_session(spec)
            self._workers[spec.session_id] = asyncio.create_task(
                self._session_worker(spec.session_id),
                name=f"charge-{spec.session_id}",
            )
        return admission

    def submit(self, event: UsageEvent) -> Admission:
        """Offer one usage event (explicit verdict, never a silent drop)."""
        return self.ingest.submit(event)

    async def close_session(self, session_id: str) -> None:
        """End a session's stream and wait for it to settle."""
        await self.ingest.end_session(session_id)
        worker = self._workers.get(session_id)
        if worker is not None:
            await worker

    async def drain(self) -> None:
        """Wait for every currently open session to finish."""
        for session_id in list(self.ingest.open_session_ids()):
            await self.ingest.end_session(session_id)
        await asyncio.gather(*self._workers.values())

    async def shutdown(self) -> dict:
        """Graceful stop: drain sessions, seal batches, verify the rest.

        Idempotent; returns the final :meth:`snapshot`.
        """
        if not self._shut_down:
            self._shut_down = True
            self.ingest.closed = True
            await self.drain()
            self.core.finalize()
            self._route_outputs()
        return self.snapshot()

    # ------------------------------------------------------------------
    # the per-session worker (with the fault barrier)

    async def _session_worker(self, session_id: str) -> None:
        queue = self.ingest.queue_for(session_id)
        degraded = False
        while True:
            item = await queue.get()
            if item is END_OF_STREAM:
                break
            if degraded:
                # Accepted before the fault, never charged: tally so
                # the accounting identity still closes exactly.
                self.degraded.record_drop(item.sent_bytes)
                continue
            try:
                self.core.process(item)
            except Exception as exc:  # noqa: BLE001 — the fault barrier
                degraded = True
                self.degraded.record_fault(session_id, exc)
                self.degraded.record_drop(item.sent_bytes)
                self.ingest.mark_degraded(session_id)
                self.core.mark_degraded(session_id, str(exc))
            self._route_outputs()
            # One yield per event keeps sessions interleaved instead of
            # letting a hot producer monopolize the loop.
            await asyncio.sleep(0)
        if not degraded:
            try:
                self.core.close_session(session_id)
            except Exception as exc:  # noqa: BLE001 — the fault barrier
                self.degraded.record_fault(session_id, exc)
                self.ingest.mark_degraded(session_id)
                self.core.mark_degraded(session_id, str(exc))
        self._route_outputs()

    def _route_outputs(self) -> None:
        for kind, payload in self.core.drain_outbox():
            if kind == "settlement":
                self._settlements[
                    (payload.session_id, payload.cycle.index)
                ] = payload.volume
                hooks = self.core.hooks
                if hooks.on_settle is not None:
                    hooks.on_settle(payload)
            self.verifier.accept(kind, payload)

    # ------------------------------------------------------------------
    # accounting + equivalence

    def accounting(self) -> AccountingTable:
        """The service tier's exact byte-accounting table.

        ``counted`` is every byte offered at the front door; the loss
        layers are the ingest's per-reason rejections, the queue's
        degraded drops (plus still-queued residue mid-run), and the
        stream's transit loss; ``received`` is what the receiver-side
        meter saw.  All integers — the identity holds exactly.
        """
        ingest = self.ingest
        core = self.core
        rows = [
            LayerAccount(
                layer="svc-ingest",
                bytes_in=ingest.received_bytes,
                bytes_out=ingest.accepted_bytes,
                dropped=dict(sorted(ingest.rejected_bytes.items())),
            ),
            LayerAccount(
                layer="svc-queue",
                bytes_in=ingest.accepted_bytes,
                bytes_out=core.processed_sent_bytes,
                dropped=(
                    {"session_degraded": self.degraded.dropped_bytes}
                    if self.degraded.dropped_bytes
                    else {}
                ),
            ),
            LayerAccount(
                layer="svc-transit",
                bytes_in=core.processed_sent_bytes,
                bytes_out=core.delivered_bytes,
                dropped=(
                    {"transit_loss": core.transit_lost_bytes}
                    if core.transit_lost_bytes
                    else {}
                ),
            ),
        ]
        return AccountingTable(
            direction=self.config.direction,
            sender_layer="svc-ingest",
            receiver_layer="receiver-meter",
            counted=ingest.received_bytes,
            received=core.delivered_bytes,
            rows=rows,
        )

    @property
    def settlements(self) -> dict[tuple[str, int], float | None]:
        """Every settled (session, cycle) and its negotiated volume."""
        return dict(self._settlements)

    def verify_batch_equivalence(self) -> bool:
        """Replay accepted events batch-style; settlements must match.

        Degraded sessions are excluded: their streams were truncated by
        the fault barrier, so no equivalent fault-free batch exists.
        """
        specs = []
        events_by_session = {}
        for state in self.core.sessions():
            if state.spec.session_id in self.degraded.reasons:
                continue
            specs.append(state.spec)
            events_by_session[state.spec.session_id] = list(state.history)
        replayed = replay_settlements(
            self.config, specs, events_by_session
        )
        service_side = {
            key: volume
            for key, volume in self._settlements.items()
            if key[0] not in self.degraded.reasons
        }
        return replayed == service_side

    # ------------------------------------------------------------------
    # status

    def session_status(self, session_id: str) -> dict:
        """Merged core + verifier view of one session."""
        status = self.verifier.session_status(session_id)
        try:
            state = self.core.session(session_id)
        except KeyError:
            status.setdefault("known", False)
            return status
        status.update(
            known=True,
            status=state.status,
            degraded_reason=state.degraded_reason,
            events_processed=state.events_processed,
            sent_bytes=state.sent_bytes,
            delivered_bytes=state.delivered_bytes,
        )
        return status

    def snapshot(self) -> dict:
        """Picklable service-wide metrics (the ``--metrics-out`` body)."""
        table = self.accounting()
        return {
            "config": {
                "seed": self.config.seed,
                "cycle_duration": self.config.cycle_duration,
                "cdr_period": self.config.cdr_period,
                "attest_batch": self.config.attest_batch,
                "key_bits": self.config.key_bits,
            },
            "ingest": self.ingest.stats(),
            "delivery": self.core.delivery_stats(),
            "attestation": {
                "claims_attested": self.core.claims_attested,
                "batches_sealed": self.core.batches_sealed,
                "sign_ops": self.core.sign_ops,
            },
            "verifier": self.verifier.stats(),
            "crypto": {"backend": backend()},
            "degraded": self.degraded.as_dict(),
            "settlements": len(self._settlements),
            "accounting": table.as_dict(),
        }
