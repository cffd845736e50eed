"""Proof-of-Charging cost: Figure 17.

Three parts:

1. **Message sizes** — measured directly from the wire encodings in
   :mod:`repro.core.messages` (199 / 398 / 796 bytes, plus the 34-byte
   binary LTE CDR), matching the paper's table.
2. **Negotiation / verification latency per device** — the paper's
   numbers are dominated by `java.security` RSA-1024 on phone-class CPUs;
   this host is not a Pixel 2 XL, so per-device latency comes from a
   calibrated cost model: crypto time from the device profile plus the
   device's LTE round trip (the paper's 54.9% / 45.1% split), with
   measured jitter shapes.  The *real* signing/verification cost on
   this host is measured too (the Z840-equivalent row and the
   verification-throughput claim), tagged with the exponentiation
   backend that ran it.
3. **Verifier throughput** — PoCs/hour a single host can verify, both
   modelled (paper: 230K/hr on a Z840) and measured live.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

from repro.charging.cycle import ChargingCycle
from repro.core.messages import (
    CDA_WIRE_SIZE,
    CDR_WIRE_SIZE,
    POC_WIRE_SIZE,
    ProofOfCharging,
)
from repro.core.plan import DataPlan
from repro.core.protocol import NegotiationAgent, run_negotiation
from repro.core.records import UsageView
from repro.core.strategies import OptimalStrategy, Role
from repro.core.verifier import PublicVerifier
from repro.charging.cdr import BINARY_CDR_SIZE
from repro.crypto.bignum import backend
from repro.crypto.keys import KeyPair
from repro.crypto.nonces import NonceFactory
from repro.crypto.rsa import generate_keypair
from repro.lte.ue import DEVICE_PROFILES
from repro.sim.rng import RngStreams

# Crypto share of negotiation time measured by the paper (§7.2).
CRYPTO_SHARE = 0.549
RTT_SHARE = 1.0 - CRYPTO_SHARE

# Calibrated per-device negotiation crypto cost (ms): sign(CDA) +
# verify(CDR) + verify(PoC) on the device CPU.  Chosen so the modelled
# totals land on the paper's 65.8 / 105.5 / 93.7 ms means.
NEGOTIATION_CRYPTO_MS = {
    "EL20": 36.1,
    "Pixel2XL": 57.9,
    "S7Edge": 51.4,
    "Z840": 8.0,
}


def message_sizes() -> dict[str, int]:
    """The Figure 17 size table, from the actual encodings."""
    return {
        "lte-cdr": BINARY_CDR_SIZE,
        "tlc-cdr": CDR_WIRE_SIZE,
        "tlc-cda": CDA_WIRE_SIZE,
        "tlc-poc": POC_WIRE_SIZE,
        "total-signaling": CDR_WIRE_SIZE + CDA_WIRE_SIZE + POC_WIRE_SIZE,
    }


@dataclass(frozen=True)
class PocCostSample:
    """Modelled per-negotiation costs for one device."""

    device: str
    negotiation_ms: tuple[float, ...]
    verification_ms: tuple[float, ...]

    @property
    def negotiation_mean_ms(self) -> float:
        """Average time to negotiate one PoC."""
        return statistics.mean(self.negotiation_ms)

    @property
    def verification_mean_ms(self) -> float:
        """Average time to verify one PoC."""
        return statistics.mean(self.verification_ms)


def modelled_poc_costs(
    devices: tuple[str, ...] = ("EL20", "Pixel2XL", "S7Edge", "Z840"),
    samples: int = 200,
    seed: int = 21,
) -> list[PocCostSample]:
    """Per-device negotiation and verification latency distributions."""
    rngs = RngStreams(seed)
    out = []
    for device in devices:
        profile = DEVICE_PROFILES[device]
        rng = rngs.stream(device)
        crypto_ms = NEGOTIATION_CRYPTO_MS[device]
        rtt_ms = profile.baseline_rtt_ms
        # The negotiation exchanges CDR -> CDA -> PoC: 1.5 RTTs on the
        # radio path, matching the paper's 45.1% RTT share.
        negotiation = tuple(
            crypto_ms * rng.lognormvariate(0.0, 0.18)
            + 1.65 * rtt_ms * rng.lognormvariate(0.0, 0.22)
            for _ in range(samples)
        )
        verification = tuple(
            profile.crypto_ms_per_verify * rng.lognormvariate(0.0, 0.20)
            for _ in range(samples)
        )
        out.append(
            PocCostSample(
                device=device,
                negotiation_ms=negotiation,
                verification_ms=verification,
            )
        )
    return out


def modelled_verifier_throughput_per_hour(device: str = "Z840") -> float:
    """PoCs/hour at the device's modelled verification latency."""
    mean_ms = DEVICE_PROFILES[device].crypto_ms_per_verify
    return 3600.0 * 1000.0 / mean_ms


@dataclass(frozen=True)
class MeasuredPocCost:
    """Live (this host) negotiation and verification timings."""

    negotiation_ms_mean: float
    verification_ms_mean: float
    verifications_per_hour: float
    poc_bytes: int
    #: The modular-exponentiation path that ran
    #: (:func:`repro.crypto.bignum.backend`).
    backend: str


def _build_agents(
    edge_keys: KeyPair, operator_keys: KeyPair, seed: int = 5
) -> tuple[NegotiationAgent, NegotiationAgent, DataPlan]:
    cycle = ChargingCycle(index=0, start=0.0, end=3600.0)
    plan = DataPlan(cycle=cycle, loss_weight=0.5)
    view_edge = UsageView(sent_estimate=1.0e9, received_estimate=0.93e9)
    view_op = UsageView(sent_estimate=1.01e9, received_estimate=0.94e9)
    rngs = RngStreams(seed)
    nonce_factory = NonceFactory(rngs.stream("nonces"))
    edge = NegotiationAgent(
        role=Role.EDGE,
        strategy=OptimalStrategy(Role.EDGE, view_edge),
        plan=plan,
        private_key=edge_keys.private,
        peer_public_key=operator_keys.public,
        nonce_factory=nonce_factory,
    )
    operator = NegotiationAgent(
        role=Role.OPERATOR,
        strategy=OptimalStrategy(Role.OPERATOR, view_op),
        plan=plan,
        private_key=operator_keys.private,
        peer_public_key=edge_keys.public,
        nonce_factory=nonce_factory,
    )
    return edge, operator, plan


def measure_live_poc_costs(
    iterations: int = 20, seed: int = 5
) -> MeasuredPocCost:
    """Run real signed negotiations + verifications on this host."""
    rngs = RngStreams(seed)
    edge_keys = generate_keypair(1024, rngs.stream("edge-key"))
    operator_keys = generate_keypair(1024, rngs.stream("op-key"))

    negotiation_times = []
    poc: ProofOfCharging | None = None
    plan = None
    for i in range(iterations):
        edge, operator, plan = _build_agents(
            edge_keys, operator_keys, seed + i
        )
        t0 = time.perf_counter()
        outcome = run_negotiation(operator, edge)
        negotiation_times.append(time.perf_counter() - t0)
        poc = outcome.poc
    assert poc is not None and plan is not None

    verifier = PublicVerifier()
    verification_times = []
    for _ in range(iterations):
        verifier = PublicVerifier()  # fresh replay cache per timing run
        t0 = time.perf_counter()
        result = verifier.verify(
            poc, plan, edge_keys.public, operator_keys.public
        )
        verification_times.append(time.perf_counter() - t0)
        if not result.ok:
            raise RuntimeError(f"PoC failed verification: {result.reason}")

    verify_mean = statistics.mean(verification_times)
    return MeasuredPocCost(
        negotiation_ms_mean=statistics.mean(negotiation_times) * 1e3,
        verification_ms_mean=verify_mean * 1e3,
        verifications_per_hour=3600.0 / verify_mean,
        poc_bytes=len(poc.to_bytes()),
        backend=backend(),
    )
