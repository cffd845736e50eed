"""Figure 17's throughput claim, measured as a sustained batch.

The paper: "a verifier (e.g., FCC) with a single HP Z840 workstation can
process 230K verification requests per hour".  This bench archives a
batch of distinct negotiated PoCs into the ledger and times a full
:class:`~repro.core.ledger.VerificationService` audit (parse + three
signature layers + plan/nonce/sequence checks + recompute per receipt),
reporting the sustained PoCs/hour on this host.
"""

import random
import time

from repro.charging.cycle import CycleSchedule
from repro.core.ledger import PocLedger, VerificationService
from repro.core.plan import DataPlan
from repro.core.protocol import NegotiationAgent, run_negotiation
from repro.core.records import UsageView
from repro.core.strategies import OptimalStrategy, Role
from repro.crypto.nonces import NonceFactory
from repro.crypto.rsa import generate_keypair
from repro.sim.rng import RngStreams

BATCH = 60
MB = 1_000_000


def build_batch():
    rngs = RngStreams(3030)
    edge_keys = generate_keypair(1024, rngs.stream("edge"))
    operator_keys = generate_keypair(1024, rngs.stream("op"))
    schedule = CycleSchedule(origin=0.0, duration=3600.0)
    nonce_factory = NonceFactory(rngs.stream("nonces"))
    usage = rngs.stream("usage")

    ledger = PocLedger()
    plans = []
    for index in range(BATCH):
        plan = DataPlan(cycle=schedule.cycle(index), loss_weight=0.5)
        plans.append(plan)
        sent = usage.uniform(500, 1500) * MB
        view = UsageView(
            sent_estimate=sent, received_estimate=sent * 0.94
        )
        edge = NegotiationAgent(
            Role.EDGE,
            OptimalStrategy(Role.EDGE, view),
            plan,
            edge_keys.private,
            operator_keys.public,
            nonce_factory,
        )
        operator = NegotiationAgent(
            Role.OPERATOR,
            OptimalStrategy(Role.OPERATOR, view),
            plan,
            operator_keys.private,
            edge_keys.public,
            nonce_factory,
        )
        outcome = run_negotiation(operator, edge)
        assert outcome.converged
        ledger.append("batch-app", outcome.poc)
    return ledger, plans, edge_keys, operator_keys


def test_fig17_batch_verification_throughput(benchmark, emit):
    ledger, plans, edge_keys, operator_keys = benchmark.pedantic(
        build_batch, rounds=1, iterations=1
    )

    service = VerificationService()
    entries = ledger.entries_for("batch-app")
    t0 = time.perf_counter()
    accepted = 0
    for entry, plan in zip(entries, plans):
        service.register(
            "batch-app", plan, edge_keys.public, operator_keys.public
        )
        accepted += service.verify_entry(entry).ok
    elapsed = time.perf_counter() - t0
    per_hour = len(entries) / elapsed * 3600.0

    emit(
        "fig17_batch_throughput",
        f"audited {len(entries)} receipts in {elapsed * 1e3:.1f} ms -> "
        f"{per_hour:,.0f} PoCs/hour sustained "
        f"(paper's Z840 + Java: 230K/hour)",
    )
    assert accepted == len(entries)
    # RSA with libcrypto's exponentiation (or even pure-Python pow) on a
    # modern host comfortably clears the paper's Java-on-Z840 number.
    assert per_hour > 230_000
