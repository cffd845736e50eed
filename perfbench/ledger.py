"""The per-layer ledger: trace totals turned into normalised metrics.

Every ``*_ms`` / ``*_us`` time below is a layer's *self* time, so the
layers are disjoint and, with ``trace.residual_frac``, add up to the
traced wall time.  Simulation layers are normalised per UE cycle;
service layers per call, event or settled cycle as their names say.  A
layer a workload leaves idle reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench import measure

#: Per-UE-cycle self times of the simulation layers: metric -> layer.
SIM_SELF_MS = {
    "lte.build_ms": "lte.build",
    "sim.loop_self_ms": "sim.loop",
    "net.queue_self_ms": "net.queue",
    "net.channel_self_ms": "net.channel",
    "lte.gateway_self_ms": "lte.gateway",
    "lte.ran_self_ms": "lte.ran",
    "apps.emit_self_ms": "apps.emit",
    "lte.analytic_self_ms": "lte.analytic",
    "charging.cdr_ms": "charging.cdr",
    "telemetry.flush_ms": "telemetry.flush",
    "telemetry.snapshot_ms": "telemetry.snapshot",
    "experiments.fold_ms": "experiments.fold",
}

#: Every per-layer metric, in report order.
PER_LAYER = (
    *SIM_SELF_MS,
    "sim.events",
    "charging.cdrs",
    "net.packet_path_frac",
    "experiments.settle_ms",
    "scheduler.idle_frac",
    "scheduler.dispatch_kb",
    "scheduler.chunks",
    "scheduler.retries",
    "service.ingest_us",
    "service.process_us",
    "service.queue_wait_ms_p50",
    "service.queue_wait_ms_tail",
    "service.event_p50_ms",
    "core.negotiate_ms",
    "crypto.seal_ms",
    "crypto.sign_ops",
    "crypto.verify_ops",
    "service.verify_ms",
    "service.verify_cache_hit_frac",
    "service.query_us",
    "service.proof_cache_hit_frac",
    "service.burst_ms",
    "service.gen_lag_tail_ms",
    "trace.residual_frac",
    "trace.overhead_frac",
)


def request_summary(result) -> dict:
    """What the ledger needs from one finished request (kept small, so
    the traced run's memory stays the program's)."""
    sharding = result.extras.get("sharding", {})
    return {
        "ue_cycles": result.config.n_ues,
        "events": int(result.extras.get("processed_events", 0)),
        "cdrs": int(result.extras.get("cdrs", 0)),
        "dispatch_bytes": int(sharding.get("dispatch_bytes", 0)),
        "chunks": int(sharding.get("n_chunks", 0)),
        "retries": int(sharding.get("retries", 0)),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_call_ms(tracer, layer: str) -> float:
    calls, _, self_ns = tracer.totals.get(layer, (0, 0, 0))
    return _ratio(self_ns / 1e6, calls)


def sim_layers(tracer, summaries, passes, chunk_summary=None) -> dict:
    """The ledger of a traced simulation workload."""
    layers = dict.fromkeys(PER_LAYER, 0.0)
    cycles = sum(s["ue_cycles"] for s in summaries)
    for metric, layer in SIM_SELF_MS.items():
        layers[metric] = _ratio(tracer.self_ms(layer), cycles)
    layers["sim.events"] = _ratio(sum(s["events"] for s in summaries), cycles)
    layers["charging.cdrs"] = _ratio(sum(s["cdrs"] for s in summaries), cycles)
    counts = tracer.counts
    carried = (
        counts["channel.packets"]
        + counts["channel.block_packets"]
        + counts["channel.interval_packets"]
    )
    layers["net.packet_path_frac"] = _ratio(counts["channel.packets"], carried)
    layers["experiments.settle_ms"] = _per_call_ms(tracer, "experiments.settle")

    wall_ms = sum(r.wall for p in passes for r in p) * 1e3
    attributed = tracer.attributed_ms()
    capacity = wall_ms
    if chunk_summary is not None:
        workers = len(chunk_summary)
        busy_ms = sum(w["busy_ns"] for w in chunk_summary) / 1e6
        idle_ms = workers * wall_ms - busy_ms
        layers["scheduler.idle_frac"] = _ratio(idle_ms, workers * wall_ms)
        requests = len(summaries)
        layers["scheduler.dispatch_kb"] = _ratio(
            sum(s["dispatch_bytes"] for s in summaries) / 1024.0, requests
        )
        layers["scheduler.chunks"] = _ratio(
            sum(s["chunks"] for s in summaries), requests
        )
        layers["scheduler.retries"] = float(
            sum(s["retries"] for s in summaries)
        )
        # Worker waits between chunks count as attributed (to idle), so
        # the residual is what no layer claims inside the parent and
        # inside chunks.
        attributed += idle_ms
        capacity += workers * wall_ms
    layers["trace.residual_frac"] = _ratio(capacity - attributed, capacity)
    return layers


def svc_layers(
    tracer,
    service,
    schedule,
    wall: float,
    submitted: dict,
    started: dict,
    event_ms: list,
    settled: dict,
    lags: list,
    read_stats: dict,
) -> dict:
    """The ledger of a traced ``svc_open`` run (``tracer`` holds the
    window's totals only)."""
    layers = dict.fromkeys(PER_LAYER, 0.0)
    settlements = len(settled)
    layers["charging.cdr_ms"] = _ratio(
        tracer.self_ms("charging.cdr"), settlements
    )
    layers["service.ingest_us"] = _per_call_ms(tracer, "service.ingest") * 1e3
    layers["service.process_us"] = (
        _per_call_ms(tracer, "service.process") * 1e3
    )
    waits = [
        (started[key] - submitted[key]) * 1e3
        for key in started
        if key in submitted
    ]
    layers["service.queue_wait_ms_p50"] = measure.p50(waits)
    layers["service.queue_wait_ms_tail"] = measure.tail(waits)[0]
    layers["service.event_p50_ms"] = measure.p50(event_ms)
    layers["core.negotiate_ms"] = _per_call_ms(tracer, "core.negotiate")
    layers["crypto.seal_ms"] = _per_call_ms(tracer, "crypto.seal")
    layers["crypto.sign_ops"] = _ratio(
        tracer.counts["crypto.sign_ops"], settlements
    )
    layers["crypto.verify_ops"] = _ratio(
        tracer.counts["crypto.verify_ops"], settlements
    )
    layers["service.verify_ms"] = _per_call_ms(tracer, "service.verify")
    cache = service.verifier.cache.stats()
    layers["service.verify_cache_hit_frac"] = _ratio(
        cache["hits"], cache["hits"] + cache["misses"]
    )
    layers["service.query_us"] = _per_call_ms(tracer, "service.query") * 1e3
    loads = read_stats["loads"]
    layers["service.proof_cache_hit_frac"] = _ratio(
        loads - tracer.counts["service.merkle_proofs"], loads
    )
    # One cycle end's herd: first to last settlement triggered by an
    # event crossing that boundary (session closes excluded).
    closes = {
        (schedule.specs[index].session_id, due) for due, index in schedule.closes
    }
    by_cycle = defaultdict(list)
    for (session_id, cycle), when in settled.items():
        due = schedule.cycle_close_due[(session_id, cycle)]
        if (session_id, due) not in closes:
            by_cycle[cycle].append(when)
    bursts = [
        (max(times) - min(times)) * 1e3
        for times in by_cycle.values()
        if len(times) > 1
    ]
    layers["service.burst_ms"] = statistics.median(bursts) if bursts else 0.0
    layers["service.gen_lag_tail_ms"] = measure.tail(lags)[0] * 1e3
    wall_ms = wall * 1e3
    attributed_ms = tracer.attributed_ms()
    layers["trace.residual_frac"] = _ratio(wall_ms - attributed_ms, wall_ms)
    return layers
