"""Figure 17: Proof-of-Charging cost.

Three parts of the paper's figure:

- the message-size table (LTE CDR 34 B, TLC CDR 199 B, CDA 398 B,
  PoC 796 B, 1393 B / 3 messages total) — measured from real encodings;
- per-device negotiation/verification latency — modelled from the
  calibrated device profiles (this host is not a Pixel 2 XL), plus the
  paper's 230K verifications/hour on a Z840;
- live timings of this repo's actual RSA-1024 negotiation and
  verification, with `benchmark` measuring single-PoC verification.
"""

import random

import pytest

from repro.charging.cycle import ChargingCycle
from repro.core.plan import DataPlan
from repro.core.protocol import NegotiationAgent, run_negotiation
from repro.core.records import UsageView
from repro.core.strategies import OptimalStrategy, Role
from repro.core.verifier import PublicVerifier
from repro.crypto.nonces import NonceFactory
from repro.crypto.rsa import generate_keypair
from repro.experiments.poc_cost import (
    measure_live_poc_costs,
    message_sizes,
    modelled_poc_costs,
    modelled_verifier_throughput_per_hour,
)
from repro.experiments.report import render_table


def test_fig17_message_sizes(benchmark, emit):
    sizes = benchmark.pedantic(message_sizes, rounds=1, iterations=1)
    emit(
        "fig17_message_sizes",
        render_table(
            ["message", "bytes", "paper"],
            [
                ["LTE CDR", sizes["lte-cdr"], 34],
                ["TLC CDR", sizes["tlc-cdr"], 199],
                ["TLC CDA", sizes["tlc-cda"], 398],
                ["TLC PoC", sizes["tlc-poc"], 796],
                ["total (3 msgs)", sizes["total-signaling"], 1393],
            ],
        ),
    )
    assert sizes["lte-cdr"] == 34
    assert sizes["tlc-cdr"] == 199
    assert sizes["tlc-cda"] == 398
    assert sizes["tlc-poc"] == 796
    assert sizes["total-signaling"] == 1393


def test_fig17_modelled_device_costs(benchmark, emit):
    costs = benchmark.pedantic(
        lambda: modelled_poc_costs(samples=400, seed=21),
        rounds=1,
        iterations=1,
    )
    paper_negotiation = {"EL20": 65.8, "Pixel2XL": 105.5, "S7Edge": 93.7}
    paper_verification = {
        "EL20": 23.2,
        "Pixel2XL": 75.6,
        "S7Edge": 58.3,
        "Z840": 15.7,
    }
    rows = [
        [
            c.device,
            f"{c.negotiation_mean_ms:.1f}",
            f"{paper_negotiation.get(c.device, float('nan')):.1f}"
            if c.device in paper_negotiation
            else "-",
            f"{c.verification_mean_ms:.1f}",
            f"{paper_verification[c.device]:.1f}",
        ]
        for c in costs
    ]
    throughput = modelled_verifier_throughput_per_hour("Z840")
    emit(
        "fig17_modelled_device_costs",
        render_table(
            [
                "device",
                "negotiate ms",
                "paper",
                "verify ms",
                "paper",
            ],
            rows,
        )
        + f"\nZ840 modelled verifier throughput: {throughput:,.0f}/hr "
        "(paper: 230K/hr)",
    )

    by_device = {c.device: c for c in costs}
    for device, expected in paper_negotiation.items():
        assert by_device[device].negotiation_mean_ms == pytest.approx(
            expected, rel=0.15
        )
    for device, expected in paper_verification.items():
        assert by_device[device].verification_mean_ms == pytest.approx(
            expected, rel=0.15
        )
    assert throughput == pytest.approx(230_000, rel=0.05)


def test_fig17_live_negotiation_costs(benchmark, emit):
    measured = benchmark.pedantic(
        lambda: measure_live_poc_costs(iterations=10),
        rounds=1,
        iterations=1,
    )
    emit(
        "fig17_live_costs",
        f"live negotiation (RSA-1024, this host, {measured.backend}): "
        f"{measured.negotiation_ms_mean:.2f} ms\n"
        f"live verification: {measured.verification_ms_mean:.3f} ms "
        f"-> {measured.verifications_per_hour:,.0f} PoCs/hour\n"
        f"PoC size: {measured.poc_bytes} bytes",
    )
    assert measured.poc_bytes == 796
    # A modern host comfortably exceeds the paper's Z840 Java throughput.
    assert measured.verifications_per_hour > 230_000


def test_fig17_single_verification_benchmark(benchmark):
    """pytest-benchmark timing of one full Algorithm 2 verification."""
    rngs = random.Random(31)
    edge_keys = generate_keypair(1024, random.Random(31))
    operator_keys = generate_keypair(1024, random.Random(32))
    plan = DataPlan(
        cycle=ChargingCycle(index=0, start=0.0, end=3600.0),
        loss_weight=0.5,
    )
    view = UsageView(sent_estimate=1e9, received_estimate=0.93e9)
    nonce_factory = NonceFactory(rngs)
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
    poc_bytes = run_negotiation(operator, edge).poc.to_bytes()

    def verify_once():
        # Fresh verifier: replays are rejected by design.
        verifier = PublicVerifier()
        result = verifier.verify(
            poc_bytes, plan, edge_keys.public, operator_keys.public
        )
        assert result.ok
        return result

    benchmark(verify_once)
