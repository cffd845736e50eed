"""Command-line interface: regenerate any table or figure.

Usage::

    python -m repro list
    python -m repro run fig03 [--fast]
    python -m repro run table2 --workers 4
    python -m repro run all --fast --cache-dir ~/.cache/tlc-campaigns
    python -m repro serve --sessions 50 --metrics-out metrics.json

Each experiment id maps to the same driver the benchmark suite uses;
``--fast`` shrinks seeds and cycle lengths for a quick look.
``--workers N`` fans the scenario grids out over N processes through the
campaign engine, and ``--cache-dir`` reuses previously computed scenario
results — both are numerically transparent: any worker count and any
cache state produce identical tables.

``--metrics-out FILE`` turns on per-scenario telemetry: every scenario
run by the experiment collects per-layer byte counters, the CLI prints a
reconciliation summary (gateway-counted minus per-layer losses equals
device-received, per scenario), and the full metric snapshots are
written to ``FILE`` as JSON.  ``--trace FILE`` additionally captures
structured trace events (simulated-clock timestamps) to ``FILE`` as
JSON Lines, streamed through a buffered :class:`TraceSink` that never
leaves a truncated line behind — even when a scenario or worker fails
mid-campaign.  See ``docs/api.md``.

``--profile`` wraps the experiment loop in cProfile and prints the top
25 functions by cumulative time on exit; ``--profile-out FILE`` dumps
the raw stats for ``python -m pstats`` so hot-path regressions are
diagnosable without editing code.

``serve`` boots the long-lived async charging service
(:mod:`repro.service`) instead of a batch experiment: it drives
``--sessions`` concurrent synthetic sessions through the real ingest
path and keeps serving until the load completes (plus ``--linger``) or
SIGTERM/SIGINT arrives.  Shutdown is graceful either way, and
``--metrics-out`` writes the final service snapshot — ingest tallies,
delivery stats, attestation counts, and the exact accounting table —
as JSON after the drain, so even a signal-stopped service leaves a
complete snapshot.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from typing import Callable

from repro.experiments.campaign import (
    CampaignEngine,
    set_default_engine,
)
from repro.experiments.cdr_error import record_error_samples
from repro.experiments import fault_tolerance
from repro.experiments.congestion import (
    ALL_APPS,
    FIG3_APPS,
    congestion_sweep,
)
from repro.experiments.intermittent import (
    intermittent_sweep,
    intermittent_timeseries,
)
from repro.experiments.latency import negotiation_rounds, rtt_comparison
from repro.experiments.mobility import mobility_sweep
from repro.experiments.overall import overall_dataset, table2_summary
from repro.experiments.plan_sweep import plan_sweep
from repro.experiments.poc_cost import (
    measure_live_poc_costs,
    message_sizes,
    modelled_poc_costs,
    modelled_verifier_throughput_per_hour,
)
from repro.experiments.report import (
    cdf_summary,
    render_accounting,
    render_table,
)
from repro.experiments.scenario import ScenarioConfig
from repro.experiments.transport_comparison import compare_transports
from repro.telemetry.accounting import AccountingTable
from repro.telemetry.trace import TraceSink


def _fig03(fast: bool) -> str:
    backgrounds = (
        (0.0, 120e6, 160e6)
        if fast
        else (0.0, 100e6, 120e6, 140e6, 160e6)
    )
    points = congestion_sweep(
        apps=FIG3_APPS,
        backgrounds_bps=backgrounds,
        seeds=(1,) if fast else (1, 2, 3),
        cycle_duration=20.0 if fast else 30.0,
    )
    return render_table(
        ["app", "background Mbps", "record gap MB/hr", "loss"],
        [
            [
                p.app,
                f"{p.background_bps / 1e6:.0f}",
                f"{p.record_gap_mb_per_hr:.1f}",
                f"{p.loss_fraction:.1%}",
            ]
            for p in points
        ],
    )


def _fig04(fast: bool) -> str:
    trace = intermittent_timeseries(
        duration=120.0 if fast else 300.0, seed=4,
        disconnectivity_ratio=0.10,
    )
    lines = ["t  sent(Mbps)  delivered(Mbps)  gap(MB)  radio"]
    for s in trace.samples[:: 10 if fast else 15]:
        lines.append(
            f"{s.time:4.0f}  {s.edge_rate_mbps:10.2f}  "
            f"{s.network_rate_mbps:15.2f}  {s.cumulative_gap_mb:7.2f}  "
            f"{'up' if s.connected else 'DOWN'}"
        )
    lines.append(
        f"final gap {trace.final_gap_mb:.2f} MB, mean outage "
        f"{trace.mean_outage_duration:.2f}s"
    )
    return "\n".join(lines)


def _fig12(fast: bool) -> str:
    from repro.experiments.overall import gap_cdf_series

    outcomes = overall_dataset(
        apps=ALL_APPS,
        conditions=((0.0, 0.0), (160e6, 0.05))
        if fast
        else ((0.0, 0.0), (120e6, 0.02), (160e6, 0.05)),
        seeds=(1,) if fast else (1, 2),
        cycle_duration=20.0 if fast else 30.0,
    )
    lines = []
    for app in ALL_APPS:
        series = gap_cdf_series(outcomes, app)
        lines.append(f"--- {app} ---")
        for scheme, values in series.items():
            lines.append(cdf_summary(scheme, values, unit="MB/hr"))
    return "\n".join(lines)


def _table2(fast: bool) -> str:
    outcomes = overall_dataset(
        apps=ALL_APPS,
        conditions=((0.0, 0.0), (140e6, 0.03))
        if fast
        else ((0.0, 0.0), (100e6, 0.0), (140e6, 0.03), (160e6, 0.06)),
        seeds=(1, 2) if fast else (1, 2, 3, 4, 5),
        cycle_duration=20.0 if fast else 30.0,
    )
    rows = table2_summary(outcomes)
    return render_table(
        ["app", "Mbps", "legacy ∆", "ε", "optimal ∆", "ε", "random ∆", "ε"],
        [
            [
                r.app,
                f"{r.bitrate_mbps:.2f}",
                f"{r.legacy_gap_mb_per_hr:.2f}",
                f"{r.legacy_gap_ratio:.1%}",
                f"{r.tlc_optimal_gap_mb_per_hr:.2f}",
                f"{r.tlc_optimal_gap_ratio:.1%}",
                f"{r.tlc_random_gap_mb_per_hr:.2f}",
                f"{r.tlc_random_gap_ratio:.1%}",
            ]
            for r in rows
        ],
    )


def _fig13(fast: bool) -> str:
    points = congestion_sweep(
        apps=ALL_APPS,
        backgrounds_bps=(0.0, 160e6) if fast else (0.0, 120e6, 160e6),
        seeds=(1, 2) if fast else (1, 2, 3, 4),
        cycle_duration=20.0 if fast else 30.0,
    )
    return render_table(
        ["app", "background Mbps", "legacy ε", "random ε", "optimal ε"],
        [
            [
                p.app,
                f"{p.background_bps / 1e6:.0f}",
                f"{p.legacy_gap_ratio:.1%}",
                f"{p.tlc_random_gap_ratio:.1%}",
                f"{p.tlc_optimal_gap_ratio:.1%}",
            ]
            for p in points
        ],
    )


def _fig14(fast: bool) -> str:
    points = intermittent_sweep(
        etas=(0.05, 0.15) if fast else (0.05, 0.09, 0.12, 0.15),
        seeds=(1, 2) if fast else (1, 2, 3),
        cycle_duration=40.0 if fast else 120.0,
    )
    return render_table(
        ["η", "legacy ε", "random ε", "optimal ε"],
        [
            [
                f"{p.disconnectivity_ratio:.0%}",
                f"{p.legacy_gap_ratio:.1%}",
                f"{p.tlc_random_gap_ratio:.1%}",
                f"{p.tlc_optimal_gap_ratio:.1%}",
            ]
            for p in points
        ],
    )


def _fig15(fast: bool) -> str:
    results = plan_sweep(
        seeds=(1, 2) if fast else (1, 2, 3, 4, 5, 6),
        backgrounds_bps=(120e6,) if fast else (0.0, 120e6, 160e6),
        cycle_duration=20.0 if fast else 60.0,
    )
    return "\n".join(
        cdf_summary(f"c={r.c:.2f} µ", list(r.reductions)) for r in results
    )


def _fig16(fast: bool) -> str:
    rtts = rtt_comparison(probes=50 if fast else 200)
    rounds = negotiation_rounds(
        seeds=tuple(range(1, 6 if fast else 21)),
        cycle_duration=15.0 if fast else 30.0,
    )
    a = render_table(
        ["device", "RTT w/o TLC", "RTT w/ TLC"],
        [
            [m.device, f"{m.rtt_ms_without_tlc:.1f}ms",
             f"{m.rtt_ms_with_tlc:.1f}ms"]
            for m in rtts
        ],
    )
    b = render_table(
        ["app", "optimal rounds", "random rounds"],
        [
            [r.app, f"{r.optimal_rounds_mean:.1f}",
             f"{r.random_rounds_mean:.1f}"]
            for r in rounds
        ],
    )
    return a + "\n\n" + b


def _fig17(fast: bool) -> str:
    sizes = message_sizes()
    costs = modelled_poc_costs(samples=100 if fast else 400)
    live = measure_live_poc_costs(iterations=3 if fast else 15)
    lines = [
        render_table(
            ["message", "bytes"], [[k, v] for k, v in sizes.items()]
        ),
        "",
        render_table(
            ["device", "negotiate ms", "verify ms"],
            [
                [
                    c.device,
                    f"{c.negotiation_mean_ms:.1f}",
                    f"{c.verification_mean_ms:.1f}",
                ]
                for c in costs
            ],
        ),
        f"modelled Z840 throughput: "
        f"{modelled_verifier_throughput_per_hour():,.0f}/hr",
        f"live verification on this host: "
        f"{live.verification_ms_mean:.3f} ms "
        f"({live.verifications_per_hour:,.0f}/hr, {live.backend})",
    ]
    return "\n".join(lines)


def _fig18(fast: bool) -> str:
    samples = record_error_samples(
        seeds=tuple(range(1, 9 if fast else 25)),
        app="webcam-udp",
        cycle_duration=30.0 if fast else 60.0,
    )
    return render_table(
        ["record", "mean", "p95"],
        [
            [
                "operator γo",
                f"{samples.operator_mean:.2%}",
                f"{samples.operator_percentile(95):.2%}",
            ],
            [
                "edge γe",
                f"{samples.edge_mean:.2%}",
                f"{samples.edge_percentile(95):.2%}",
            ],
        ],
    )


def _mobility(fast: bool) -> str:
    points = mobility_sweep(
        intervals=(30.0, 1.5) if fast else (30.0, 5.0, 1.5),
        seeds=(1,) if fast else (1, 2, 3),
        duration=30.0 if fast else 40.0,
    )
    return render_table(
        ["HO interval s", "HO/cycle", "legacy ε", "TLC ε"],
        [
            [
                f"{p.mean_handover_interval:.1f}",
                f"{p.handovers_per_cycle:.1f}",
                f"{p.legacy_gap_ratio:.2%}",
                f"{p.tlc_gap_ratio:.2%}",
            ]
            for p in points
        ],
    )


def _rss(fast: bool) -> str:
    from repro.experiments.rss_sweep import rss_sweep

    points = rss_sweep(
        rss_values_dbm=(-95.0, -110.0) if fast else (-95.0, -103.0, -110.0),
        seeds=(1,) if fast else (1, 2, 3),
        cycle_duration=20.0 if fast else 30.0,
    )
    return render_table(
        ["RSS dBm", "loss", "legacy ε", "optimal ε"],
        [
            [
                f"{p.rss_dbm:.0f}",
                f"{p.loss_fraction:.1%}",
                f"{p.legacy_gap_ratio:.1%}",
                f"{p.tlc_optimal_gap_ratio:.1%}",
            ]
            for p in points
        ],
    )


def _faults(fast: bool) -> str:
    results = fault_tolerance.fault_campaign(
        seeds=(1,) if fast else (1, 2),
        cycle_duration=20.0 if fast else 30.0,
        intensities=(0.5,) if fast else (0.2, 0.5, 0.8),
    )
    return fault_tolerance.render_fault_report(results)


# ``run scale --ues N --shards A,B,C [--mode M] [--schedule S]
# [--chunk-ues C]`` overrides, set by main() and cleared in its
# finally block (same pattern as the fault-plan override).
_scale_ues: int | None = None
_scale_shards: tuple[int, ...] | None = None
_scale_mode: str | None = None
_scale_schedule: str | None = None
_scale_chunk_ues: int | None = None


def set_scale_override(
    ues: int | None,
    shards: tuple[int, ...] | None,
    mode: str | None = None,
    schedule: str | None = None,
    chunk_ues: int | None = None,
) -> None:
    """Override the ``scale`` experiment's population / shard grid."""
    global _scale_ues, _scale_shards, _scale_mode
    global _scale_schedule, _scale_chunk_ues
    _scale_ues = ues
    _scale_shards = shards
    _scale_mode = mode
    _scale_schedule = schedule
    _scale_chunk_ues = chunk_ues


def _scale(fast: bool) -> str:
    """Scaling campaign: one population cell at several shard counts.

    Regenerates the ``million_ue`` scaling curve (events/s, normalized
    per-UE compute cost, and peak shard RSS vs shard count) and checks
    the merge-invariant contract: every shard count must produce the
    byte-identical merged accounting table and Algorithm 1 settlement.
    ``--ues``/``--shards`` set the population and the shard-count
    grid; ``--mode`` picks the advancement mode (default fluid);
    ``--schedule`` picks the fan-out strategy (default: the
    work-stealing chunk scheduler) and ``--chunk-ues`` its chunk size.
    Merged totals depend only on the seed, the population, and the
    mode — never on the shard count, the schedule, or the chunk size.
    """
    from repro.experiments.sharding import scaling_curve

    ues = _scale_ues if _scale_ues is not None else (200 if fast else 2000)
    shard_counts = (
        _scale_shards
        if _scale_shards is not None
        else ((1, 2, 4) if fast else (1, 2, 4, 8))
    )
    mode = _scale_mode if _scale_mode is not None else "fluid"
    schedule = _scale_schedule if _scale_schedule is not None else "steal"
    config = ScenarioConfig(
        app="webcam-udp",
        seed=42,
        cycle_duration=2.0,
        mode=mode,
        telemetry=True,
        n_ues=ues,
    )
    points = scaling_curve(
        config, shard_counts, schedule=schedule, chunk_ues=_scale_chunk_ues
    )
    table = render_table(
        ["shards", "wall s", "ms/UE", "cpu ms/UE", "events/s",
         "app MB/s", "peak RSS MB", "reconciles", "settled B",
         "invariant"],
        [
            [
                p.shards,
                f"{p.wall_s:.2f}",
                f"{p.per_ue_ms:.3f}",
                f"{p.cpu_per_ue_ms:.3f}",
                f"{p.events_per_sec:,.0f}",
                f"{p.bytes_per_sec / 1e6:.1f}",
                f"{p.rss_max_bytes / 1e6:.1f}",
                "yes" if p.reconciles else "NO",
                f"{p.settled:.0f}",
                "yes" if p.matches_first else "NO",
            ]
            for p in points
        ],
    )
    ok = all(p.matches_first and p.reconciles for p in points)
    verdict = (
        "merged accounting and settlement are shard-count invariant"
        if ok
        else "MERGE INVARIANT VIOLATED — shard counts disagree"
    )
    chunk = "auto" if _scale_chunk_ues is None else _scale_chunk_ues
    header = (
        f"{ues:,} UEs per point, mode={mode}, schedule={schedule}"
        + (f", chunk_ues={chunk}" if schedule == "steal" else "")
    )
    return f"{header}\n{table}\n{verdict}"


def _service_load(fast: bool) -> str:
    """Drive the long-lived charging service with concurrent sessions.

    Boots a :class:`repro.service.ChargingService` on one asyncio loop,
    submits every session's synthetic stream through the real ingest
    path (admission control, bounded queues, backpressure retries),
    shuts down cleanly, and reports the service tier's verdicts: exact
    accounting reconciliation, batch-attested PoCs, and settlement
    equivalence with a batch replay of the same events.  The CI
    ``service-smoke`` job greps this output.
    """
    from repro.service import LoadProfile, render_service_report
    from repro.service.load import run_service_load

    profile = LoadProfile(
        sessions=12 if fast else 50,
        events_per_session=20 if fast else 40,
    )
    return render_service_report(run_service_load(profile))


def _transport(fast: bool) -> str:
    udp, tcp = compare_transports(
        seed=3, loss_rate=0.10, duration=15.0 if fast else 30.0
    )
    return render_table(
        ["transport", "delivery", "charged B", "retx B"],
        [
            [o.transport, f"{o.delivery_ratio:.1%}", o.gateway_charged,
             o.retransmitted_bytes]
            for o in (udp, tcp)
        ],
    )


EXPERIMENTS: dict[str, tuple[str, Callable[[bool], str]]] = {
    "fig03": ("record gap vs congestion (Figure 3)", _fig03),
    "fig04": ("intermittent-connectivity time series (Figure 4)", _fig04),
    "fig12": ("gap CDFs per scheme (Figure 12)", _fig12),
    "table2": ("average gap per app (Table 2)", _table2),
    "fig13": ("gap ratio vs congestion (Figure 13)", _fig13),
    "fig14": ("gap ratio vs disconnectivity (Figure 14)", _fig14),
    "fig15": ("reduction vs plan weight c (Figure 15)", _fig15),
    "fig16": ("latency friendliness (Figure 16)", _fig16),
    "fig17": ("PoC cost (Figure 17)", _fig17),
    "fig18": ("record accuracy (Figure 18)", _fig18),
    "mobility": ("handover-rate ablation", _mobility),
    "transport": ("UDP vs TCP-like ablation", _transport),
    "rss": ("signal-strength ablation", _rss),
    "faults": ("fault-injection & recovery campaign", _faults),
    "scale": ("sharded population scaling curve", _scale),
    "service-load": ("async charging service under load", _service_load),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TLC (SIGCOMM'19) reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list available experiments")
    serve = sub.add_parser(
        "serve",
        help="run the long-lived async charging service",
        description="Boot repro.service.ChargingService, drive the "
        "synthetic session load through it, and keep serving until the "
        "load finishes (plus --linger) or SIGTERM/SIGINT arrives; "
        "shutdown is always graceful: sessions drain, partial Merkle "
        "batches seal, and --metrics-out gets the final snapshot.",
    )
    serve.add_argument(
        "--sessions",
        type=int,
        default=8,
        metavar="N",
        help="concurrent synthetic sessions to drive (default 8)",
    )
    serve.add_argument(
        "--events",
        type=int,
        default=40,
        metavar="N",
        help="usage events per session (default 40)",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=23,
        metavar="N",
        help="seed for the synthetic load streams (default 23)",
    )
    serve.add_argument(
        "--cycle",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="charging-cycle length in stream seconds (default 60)",
    )
    serve.add_argument(
        "--cdr-period",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="CDR flush period in stream seconds (default 10)",
    )
    serve.add_argument(
        "--linger",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="keep the service up this long after the load completes, "
        "until SIGTERM/SIGINT (default 0: shut down immediately)",
    )
    serve.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the service's final metrics snapshot (ingest, "
        "delivery, attestation, verifier, accounting) to FILE as JSON "
        "on shutdown — including signal-driven shutdown",
    )
    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument("experiment", help="experiment id from 'list', or 'all'")
    run.add_argument(
        "--fast",
        action="store_true",
        help="smaller seeds/cycles for a quick look",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="fan scenario grids out over N worker processes (default 1)",
    )
    run.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="content-addressed scenario result cache directory "
        "(default: no caching)",
    )
    run.add_argument(
        "--mode",
        choices=("packet", "fluid", "analytic"),
        default=None,
        help="data-plane granularity: 'packet' pays one event chain per "
        "packet, 'fluid' moves one block per video frame through the "
        "same elements with bit-identical byte totals, 'analytic' "
        "settles whole stable intervals in closed form with "
        "statistically equivalent totals that still reconcile exactly "
        "(default: each experiment's own setting)",
    )
    run.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="collect per-layer telemetry for every scenario, print a "
        "byte-accounting summary, and write the metric snapshots to "
        "FILE as JSON",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="also capture structured trace events (simulated-clock "
        "timestamps) to FILE as JSON Lines",
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="run the 'faults' experiment against a fault plan loaded "
        "from PLAN (JSON) instead of the built-in grid",
    )
    run.add_argument(
        "--ues",
        type=int,
        default=None,
        metavar="N",
        help="population size for the 'scale' experiment (UEs per cell)",
    )
    run.add_argument(
        "--shards",
        default=None,
        metavar="N[,N...]",
        help="shard counts for the 'scale' experiment, e.g. '8' or "
        "'1,2,4,8'; merged results are byte-identical for every count",
    )
    run.add_argument(
        "--schedule",
        default=None,
        choices=("static", "steal"),
        help="fan-out strategy for the 'scale' experiment: 'steal' "
        "(default) pulls small UE chunks through the work-stealing "
        "scheduler's warm workers; 'static' runs one contiguous range "
        "per shard on the campaign engine",
    )
    run.add_argument(
        "--chunk-ues",
        type=int,
        default=None,
        metavar="N",
        help="UEs per work-stealing chunk for the 'scale' experiment "
        "(default: auto-sized, ~8 chunks per worker); only valid with "
        "--schedule steal",
    )
    run.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the whole run on the first failing scenario "
        "(default: record failures, report them, and exit nonzero)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="run the experiments under cProfile and print the top 25 "
        "functions by cumulative time on exit",
    )
    run.add_argument(
        "--profile-out",
        default=None,
        metavar="FILE",
        help="with --profile, also dump the raw cProfile stats to FILE "
        "(inspect with python -m pstats FILE)",
    )
    return parser


def _render_telemetry_summary(records: list[dict]) -> str:
    """The per-scenario reconciliation summary ``--metrics-out`` prints."""
    rows = []
    for record in records:
        table = AccountingTable.from_dict(record["telemetry"]["accounting"])
        rows.append(
            [
                record["scenario"],
                table.direction,
                f"{table.counted:.0f}",
                f"{table.total_losses:.0f}",
                f"{table.received:.0f}",
                "yes" if table.reconciles else "NO",
            ]
        )
    return render_table(
        ["scenario", "dir", "counted", "losses", "received", "reconciles"],
        rows,
    )


def serve_command(args: argparse.Namespace) -> int:
    """``python -m repro serve``: the service as a long-lived process.

    The service runs until its synthetic load completes (plus
    ``--linger``) or a SIGTERM/SIGINT arrives; either way the shutdown
    path is the same graceful one — sessions drain, the retry spool
    resolves, partial Merkle batches seal — and ``--metrics-out`` is
    written *after* it, so a signal-stopped service still leaves a
    complete, reconciled snapshot behind.
    """
    import asyncio
    import signal

    from repro.service import ChargingService, LoadProfile, ServiceConfig
    from repro.service.load import drive_load

    try:
        profile = LoadProfile(
            sessions=args.sessions,
            events_per_session=args.events,
            seed=args.seed,
        )
        config = ServiceConfig(
            seed=args.seed,
            cycle_duration=args.cycle,
            cdr_period=args.cdr_period,
        )
    except ValueError as exc:
        print(f"invalid serve configuration: {exc}", file=sys.stderr)
        return 2

    async def _serve() -> tuple[ChargingService, dict, str]:
        service = ChargingService(config)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        reason = {"why": "load complete"}

        def _on_signal(name: str) -> None:
            reason["why"] = name
            stop.set()

        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, _on_signal, sig.name)
        print(
            f"[serve] charging service up: {profile.sessions} sessions x "
            f"{profile.events_per_session} events, cycle "
            f"{config.cycle_duration:.0f}s (pid ready for SIGTERM)",
            flush=True,
        )
        load = asyncio.create_task(drive_load(service, profile))
        stopped = asyncio.create_task(stop.wait())
        await asyncio.wait(
            {load, stopped}, return_when=asyncio.FIRST_COMPLETED
        )
        if load.done() and not stop.is_set() and args.linger > 0:
            print(
                f"[serve] load complete; serving for up to "
                f"{args.linger:.0f}s more (SIGTERM to stop)",
                flush=True,
            )
            try:
                await asyncio.wait_for(stop.wait(), timeout=args.linger)
            except asyncio.TimeoutError:
                pass
        snapshot = await service.shutdown()
        # A signal mid-load leaves the driver submitting into a closed
        # ingest; every remaining event rejects with CLOSED and the
        # driver finishes on its own — await it so nothing is pending.
        await load
        stopped.cancel()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.remove_signal_handler(sig)
        return service, snapshot, reason["why"]

    service, snapshot, why = asyncio.run(_serve())
    table = service.accounting()
    print(f"[serve] shutdown ({why}): "
          f"{snapshot['ingest']['accepted_events']} events charged, "
          f"{snapshot['settlements']} settlements, "
          f"{snapshot['attestation']['claims_attested']} claims attested "
          f"in {snapshot['attestation']['batches_sealed']} batches")
    print(f"[serve] accounting reconciles exactly: "
          f"{'yes' if table.reconciles else 'NO'} "
          f"(residual {table.residual:.0f} B)")
    if args.metrics_out is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(snapshot, fh, indent=2)
            fh.write("\n")
        print(f"[serve] metrics snapshot written to {args.metrics_out}")
    return 0 if table.reconciles else 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for name, (description, _fn) in EXPERIMENTS.items():
            print(f"{name:10s} {description}")
        return 0
    if args.command == "serve":
        return serve_command(args)

    if args.experiment == "all":
        targets = list(EXPERIMENTS)
    elif args.experiment in EXPERIMENTS:
        targets = [args.experiment]
    else:
        print(
            f"unknown experiment {args.experiment!r}; "
            f"choose from {', '.join(EXPERIMENTS)} or 'all'",
            file=sys.stderr,
        )
        return 2

    workers = getattr(args, "workers", 1)
    cache_dir = getattr(args, "cache_dir", None)
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace", None)
    plan_file = getattr(args, "faults", None)
    if plan_file is not None:
        from repro.faults.plan import FaultPlan, FaultPlanError

        try:
            fault_tolerance.set_plan_override(FaultPlan.load(plan_file))
        except (OSError, ValueError, FaultPlanError) as exc:
            print(f"cannot load fault plan {plan_file!r}: {exc}",
                  file=sys.stderr)
            return 2
    shards_arg = getattr(args, "shards", None)
    if shards_arg is not None:
        try:
            shard_counts = tuple(
                int(part) for part in str(shards_arg).split(",") if part
            )
            if not shard_counts or any(s < 1 for s in shard_counts):
                raise ValueError(shards_arg)
        except ValueError:
            print(
                f"--shards must be positive integers like '8' or "
                f"'1,2,4,8', got {shards_arg!r}",
                file=sys.stderr,
            )
            return 2
    else:
        shard_counts = None
    chunk_ues = getattr(args, "chunk_ues", None)
    if chunk_ues is not None and chunk_ues < 1:
        print(
            f"--chunk-ues must be a positive integer, got {chunk_ues}",
            file=sys.stderr,
        )
        return 2
    schedule = getattr(args, "schedule", None)
    if chunk_ues is not None and schedule == "static":
        print(
            "--chunk-ues only applies to --schedule steal",
            file=sys.stderr,
        )
        return 2
    set_scale_override(
        getattr(args, "ues", None),
        shard_counts,
        getattr(args, "mode", None),
        schedule,
        chunk_ues,
    )
    collect = metrics_out is not None or trace_out is not None
    engine = CampaignEngine(
        workers=workers,
        cache_dir=cache_dir,
        telemetry=collect,
        trace=trace_out is not None,
        mode=getattr(args, "mode", None),
        fail_fast=getattr(args, "fail_fast", False),
    )
    set_default_engine(engine)
    failures: list = []

    # The trace sink opens before any experiment runs and closes in the
    # finally block, so a crashing scenario (or worker) can never leave
    # a truncated JSONL line: TraceSink serializes whole batches of
    # complete lines before a single write, and close() flushes whatever
    # completed scenarios already produced.
    trace_sink = TraceSink(trace_out) if trace_out is not None else None
    traced_records = 0

    def _drain_trace() -> None:
        """Stream newly collected per-scenario traces into the sink."""
        nonlocal traced_records
        if trace_sink is None:
            return
        records = engine.telemetry_records
        for record in records[traced_records:]:
            trace_sink.write(record["telemetry"].get("trace", ()))
        traced_records = len(records)

    profiler: cProfile.Profile | None = None
    if getattr(args, "profile", False) or getattr(args, "profile_out", None):
        profiler = cProfile.Profile()
        profiler.enable()
    try:
        for name in targets:
            description, fn = EXPERIMENTS[name]
            print(f"===== {name}: {description} =====")
            print(fn(args.fast))
            print()
            failures.extend(engine.last_failures)
            _drain_trace()
    finally:
        if profiler is not None:
            profiler.disable()
        set_default_engine(None)
        fault_tolerance.set_plan_override(None)
        set_scale_override(None, None, None, None, None)
        if trace_sink is not None:
            _drain_trace()
            trace_sink.close()

    if collect:
        records = engine.telemetry_records
        if records:
            print("===== telemetry: per-layer byte accounting =====")
            print(_render_telemetry_summary(records))
            for record in records:
                if not record["telemetry"]["accounting"]["reconciles"]:
                    table = AccountingTable.from_dict(
                        record["telemetry"]["accounting"]
                    )
                    print()
                    print(
                        render_accounting(
                            table, title=f"! {record['scenario']}"
                        )
                    )
            print()
        else:
            print(
                "[telemetry] no scenario-grid runs in this experiment; "
                "nothing to meter"
            )
        if metrics_out is not None:
            with open(metrics_out, "w", encoding="utf-8") as fh:
                json.dump(
                    [
                        {
                            "scenario": r["scenario"],
                            "config": r["config"],
                            "direction": r["telemetry"]["direction"],
                            "accounting": r["telemetry"]["accounting"],
                            "metrics": r["telemetry"]["metrics"],
                        }
                        for r in records
                    ],
                    fh,
                    indent=2,
                )
                fh.write("\n")
            print(f"[telemetry] metrics for {len(records)} scenario runs "
                  f"written to {metrics_out}")
        if trace_sink is not None:
            print(
                f"[telemetry] {trace_sink.lines_written} trace events "
                f"written to {trace_out}"
            )

    if workers > 1 or cache_dir is not None:
        totals = engine.snapshot_totals()
        print(
            f"[campaign] {totals.total} scenario runs: "
            f"{totals.executed} executed, {totals.cache_hits} cached, "
            f"{totals.tasks_per_second:.2f} runs/s "
            f"({totals.compute_seconds:.1f}s compute in "
            f"{totals.wall_seconds:.1f}s wall)"
        )

    if profiler is not None:
        profile_out = getattr(args, "profile_out", None)
        if profile_out is not None:
            profiler.dump_stats(profile_out)
            print(f"[profile] cProfile stats written to {profile_out}")
        print("[profile] top 25 functions by cumulative time:")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(25)

    if failures:
        print(
            f"[campaign] {len(failures)} scenario(s) FAILED:",
            file=sys.stderr,
        )
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
