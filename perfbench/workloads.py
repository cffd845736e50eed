"""The benchmark's four workloads, each loading one data-plane path or tier.

Every workload turns ``--seed`` into its inputs, hands the program only
those inputs through its public calls, measures for the requested wall
seconds, and checks the program's outputs.  The simulation workloads
are closed loops that repeat one fixed *pass* of work (a set of distinct
population cells) until the window has elapsed; every figure comes from
each cell's fastest repetition, and every pass must reproduce the first
pass's results exactly.  ``svc_open`` is an open loop whose schedule is fixed
by the seed and the window length.

Each workload returns an :class:`Outcome`; ``run.py`` adds ``setup_s``
and prints.  With a :class:`~perfbench.tracer.Tracer` installed the same
code also produces the per-layer ledger (``Outcome.layers``).
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import selectors
import shutil
import time
from dataclasses import dataclass, field, replace

from perfbench import measure
from perfbench.config import (
    BOUNDED_SCHEMES,
    MIN_PASSES,
    POP_ANALYTIC_UES,
    POP_CELLS,
    POP_STEAL_UES,
    POP_WORKERS,
    SCHEMES,
    SVC_COMPRESSION,
    SVC_CYCLE_S,
    SVC_EVENT_INTERVAL,
    SVC_EVENT_RATE,
    SVC_READ_RATE,
    SVC_SESSIONS,
    svc_config,
)
from perfbench.ledger import request_summary, sim_layers, svc_layers

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass
class Outcome:
    """What one workload run measured and verified."""

    attempted: int = 0
    failed: int = 0
    #: verdict name -> passed
    checks: dict = field(default_factory=dict)
    #: end-to-end metric -> value (every metric but ``setup_s``)
    e2e: dict = field(default_factory=dict)
    #: per-layer metric -> value (traced runs)
    layers: dict = field(default_factory=dict)
    #: the simulated results the work digest covers
    work: object = None
    #: sizes and counts, printed with the run
    info: dict = field(default_factory=dict)
    #: CPU seconds per work unit (UE cycle or event), for trace overhead
    cpu_per_unit: float = 0.0

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(passed)


def _seed(seed: int, *names) -> int:
    from repro.sim.rng import derive_seed

    return derive_seed(seed, "perfbench", *names)


# -- settling and checking one finished cycle ------------------------------


def settle(result, tracer=None) -> dict:
    """Charge a finished cycle under every scheme (Algorithm 1 for TLC)."""
    from repro.experiments.scenario import ChargingScheme, charge_with_scheme

    def charge_all():
        return {
            name: charge_with_scheme(result, ChargingScheme(name), seed=0)
            for name in SCHEMES
        }

    if tracer is None:
        return charge_all()
    return tracer.call("experiments.settle", charge_all)


def theorem2_holds(result, outcomes: dict) -> bool:
    """x̂o ≤ x ≤ x̂e for every converged rational/honest settlement.

    x̂o and x̂e are the parties' metered records at settlement (the
    operator's and edge's received/sent estimates), the inputs
    Algorithm 1 negotiates over.
    """
    edge, operator = result.edge_view, result.operator_view
    low = min(edge.received_estimate, operator.received_estimate)
    high = max(edge.sent_estimate, operator.sent_estimate)
    return all(
        low <= outcomes[name].charged <= high
        for name in BOUNDED_SCHEMES
        if outcomes[name].converged
    )


def reconciles(result) -> bool:
    """Exact ``counted − Σ losses_by_layer == received`` on a merged,
    metered cell."""
    from repro.telemetry.accounting import AccountingTable

    table = AccountingTable.from_dict(result.extras["telemetry"]["accounting"])
    losses = sum(table.losses_by_layer.values())
    return table.counted - losses == table.received


def cell_work(result, outcomes: dict) -> dict:
    """The simulated results of one cycle that the work digest covers."""
    return {
        "generated_bytes": result.generated_bytes,
        "sent": result.truth.sent,
        "received": result.truth.received,
        "legacy": result.legacy_charged,
        "cdrs": int(result.extras.get("cdrs", 0)),
        "events": int(result.extras.get("processed_events", 0)),
        "charged": {name: outcomes[name].charged for name in SCHEMES},
    }


def _check_cycle(out: Outcome, result, outcomes: dict) -> bool:
    bounded = theorem2_holds(result, outcomes)
    exact = reconciles(result)
    out.check("theorem2_bound", bounded)
    out.check("accounting_reconciles", exact)
    return bounded and exact


# -- the closed-loop population workloads ---------------------------------


@dataclass
class _Request:
    due: float
    closed: float
    settled: float
    cpu: float
    ue_cycles: int
    events: int

    @property
    def wall(self) -> float:
        return self.settled - self.due


def _closed_loop(out, seconds, run_pass, min_passes):
    """Repeat ``run_pass`` until ``seconds`` have elapsed (and at least
    ``min_passes`` ran); returns each pass's list of requests."""
    passes = []
    started = time.perf_counter()
    while (
        len(passes) < min_passes
        or time.perf_counter() - started < seconds
    ):
        passes.append(run_pass())
    out.info["passes"] = len(passes)
    out.info["window_s"] = time.perf_counter() - started
    return passes


def _sim_metrics(out: Outcome, passes) -> None:
    """The end-to-end metrics every simulation workload reports.

    Every figure comes from each cell's fastest repetition (its minimum
    over passes): the host's vCPUs switch between a fast and a
    ~1.5-2x slower state several times a second, and the minimum of
    identical work is the figure that does not drift with how much of a
    run the slow state covered.  Latency percentiles are taken across
    the pass's distinct cells.
    """
    cells = range(len(passes[0]))
    wall = [min(p[i].wall for p in passes) for i in cells]
    cpu = sum(min(p[i].cpu for p in passes) for i in cells)
    cycles = sum(r.ue_cycles for r in passes[0])
    events = sum(r.events for r in passes[0])
    out.e2e["ue_cycles_per_s"] = cycles / sum(wall)
    out.e2e["cpu_ms_per_ue_cycle"] = cpu * 1e3 / cycles
    out.e2e["cpu_ms_per_event"] = cpu * 1e3 / events
    requests = [r for p in passes for r in p]
    latency = [w * 1e3 for w in wall]
    settle_ms = [
        min(p[i].settled - p[i].closed for p in passes) * 1e3 for i in cells
    ]
    out.e2e["event_tail_ms"], out.info["event_tail_pct"] = measure.tail(
        latency
    )
    out.e2e["settle_p50_ms"] = measure.p50(settle_ms)
    out.e2e["settle_tail_ms"], out.info["settle_tail_pct"] = measure.tail(
        settle_ms
    )
    out.info["requests"] = len(requests)
    out.info["requests_wall_s"] = sum(r.wall for r in requests)
    out.cpu_per_unit = sum(r.cpu for r in requests) / sum(
        r.ue_cycles for r in requests
    )


def _run_request(out, tracer, cpu, fn, *args) -> tuple[_Request, object]:
    """One closed-loop request: simulate a cycle, then settle it."""
    cpu.start()
    due = time.perf_counter()
    result = fn(*args)
    closed = time.perf_counter()
    outcomes = settle(result, tracer)
    settled = time.perf_counter()
    spent = cpu.stop()
    work = cell_work(result, outcomes)
    request = _Request(
        due=due,
        closed=closed,
        settled=settled,
        cpu=spent,
        ue_cycles=result.config.n_ues,
        events=work["events"],
    )
    out.attempted += 1
    if not _check_cycle(out, result, outcomes):
        out.failed += 1
    return request, (result, work)


def _check_passes_identical(out: Outcome, works: list) -> None:
    out.check("passes_identical", all(w == works[0] for w in works))
    out.work = works[0]


def pop_analytic(seed: int, seconds: float, tracer=None) -> Outcome:
    """Distinct in-process analytic population cells of the
    ``million_ue_config`` shape, repeated."""
    from benchmarks.perf.workloads import million_ue_config
    from repro.experiments.sharding import run_population

    configs = [
        replace(
            million_ue_config(POP_ANALYTIC_UES),
            mode="analytic",
            seed=_seed(seed, "pop_analytic", cell),
        )
        for cell in range(POP_CELLS)
    ]
    out = Outcome()
    works, results = [], []
    cpu = measure.CpuMeter()

    def run_pass():
        requests, work = [], []
        for config in configs:
            request, (result, cell) = _run_request(
                out, tracer, cpu, run_population, config
            )
            requests.append(request)
            work.append(cell)
            if tracer is not None:
                results.append(request_summary(result))
        works.append(work)
        return requests

    passes = _closed_loop(out, seconds, run_pass, MIN_PASSES)
    _sim_metrics(out, passes)
    _check_passes_identical(out, works)
    out.e2e["peak_rss_mb"] = measure.peak_rss_mb()
    out.info["ues_per_cell"] = POP_ANALYTIC_UES
    if tracer is not None:
        tracer.flush()
        out.layers.update(sim_layers(tracer, results, passes))
    return out


def pop_fluid_steal(seed: int, seconds: float, tracer=None) -> Outcome:
    """Distinct skewed heterogeneous fluid cells on one warm stealing
    pool."""
    from benchmarks.perf.workloads import million_ue_hetero_config
    from repro.experiments.scheduler import (
        StealingScheduler,
        run_stealing_scenario,
    )
    from perfbench.tracer import traced_chunk

    configs = [
        replace(
            million_ue_hetero_config(POP_STEAL_UES),
            seed=_seed(seed, "pop_fluid_steal", cell),
        )
        for cell in range(POP_CELLS)
    ]
    out = Outcome()
    works, results = [], []
    runner = None
    if tracer is not None:
        runner = traced_chunk
        tracer.worker_dir = _fresh_dir(f"workers-{os.getpid()}")
    with StealingScheduler(workers=POP_WORKERS) as scheduler:
        scheduler.warm_up()
        workers = measure.child_pids()
        cpu = measure.CpuMeter(workers)

        def run_pass():
            requests, work = [], []
            for config in configs:
                request, (result, cell) = _run_request(
                    out,
                    tracer,
                    cpu,
                    run_stealing_scenario,
                    config,
                    POP_WORKERS,
                    None,
                    scheduler,
                    runner,
                )
                retries = int(result.extras["sharding"]["retries"])
                out.check("scheduler_no_retries", retries == 0)
                if retries:
                    out.failed += 1
                requests.append(request)
                work.append(cell)
                if tracer is not None:
                    results.append(request_summary(result))
            works.append(work)
            return requests

        passes = _closed_loop(out, seconds, run_pass, MIN_PASSES)
        out.e2e["peak_rss_mb"] = measure.peak_rss_mb(workers)
        out.info["workers"] = len(workers)
    _sim_metrics(out, passes)
    _check_passes_identical(out, works)
    requests = [r for p in passes for r in p]
    out.check(
        "cpu_within_capacity",
        all(r.cpu <= r.wall * (1 + len(workers)) for r in requests),
    )
    out.info["ues_per_cell"] = POP_STEAL_UES
    if tracer is not None:
        tracer.flush()
        chunk_summary = tracer.absorb_workers()
        shutil.rmtree(tracer.worker_dir, ignore_errors=True)
        out.layers.update(
            sim_layers(tracer, results, passes, chunk_summary)
        )
    return out


# -- svc_open -------------------------------------------------------------


class _TimedSelector(selectors.DefaultSelector):
    """The benchmark's event-loop selector, charging waits to a layer."""

    def __init__(self, tracer) -> None:
        super().__init__()
        self._tracer = tracer

    def select(self, timeout=None):
        started = self._tracer.clock()
        try:
            return super().select(timeout)
        finally:
            self._tracer.attribute(
                "service.idle", self._tracer.clock() - started
            )


@dataclass
class _Schedule:
    """The open-loop inputs: events, closes and reads, by due time."""

    specs: list
    events: list  # (due_s, session index, UsageEvent)
    closes: list  # (due_s, session index)
    reads: list  # (due_s, session index)
    #: (session id, cycle index) -> due time of the moment it closed
    cycle_close_due: dict


def svc_schedule(seed: int, seconds: float) -> _Schedule:
    """Generate the open loop's inputs from the seed."""
    from repro.charging.cycle import CycleSchedule
    from repro.service import LoadProfile
    from repro.service.load import generate_session_events

    per_session = max(
        1, math.ceil(seconds * SVC_EVENT_RATE / SVC_SESSIONS)
    )
    profile = LoadProfile(
        sessions=SVC_SESSIONS,
        events_per_session=per_session,
        event_interval=SVC_EVENT_INTERVAL,
        seed=_seed(seed, "svc_open"),
    )
    cycles = CycleSchedule(origin=0.0, duration=SVC_CYCLE_S)
    specs, events, closes, close_due = [], [], [], {}
    for index in range(SVC_SESSIONS):
        spec, stream = generate_session_events(profile, index)
        specs.append(spec)
        cycle = cycles.cycle(0)
        has_events = False
        for event in stream:
            due = event.timestamp / SVC_COMPRESSION
            # Mirror ChargingCore.process: the first event stamped at or
            # after a cycle's end closes it (idle cycles never settle).
            while event.timestamp >= cycle.end:
                if has_events:
                    close_due[(spec.session_id, cycle.index)] = due
                cycle = cycles.cycle(cycle.index + 1)
                has_events = False
            has_events = True
            events.append((due, index, event))
        last_due = stream[-1].timestamp / SVC_COMPRESSION
        closes.append((last_due, index))
        close_due[(spec.session_id, cycle.index)] = last_due
    events.sort(key=lambda item: (item[0], item[1]))
    horizon = max(due for due, _ in closes)
    rng = random.Random(_seed(seed, "svc_reads"))
    reads, t = [], rng.expovariate(SVC_READ_RATE)
    while t < horizon:
        reads.append((t, rng.randrange(SVC_SESSIONS)))
        t += rng.expovariate(SVC_READ_RATE)
    return _Schedule(specs, events, sorted(closes), reads, close_due)


def svc_open(seed: int, seconds: float, tracer=None) -> Outcome:
    """An open loop of usage events and verifier reads into one
    :class:`~repro.service.ChargingService`."""
    from repro.service import ChargingService
    from repro.service.middleware import ServiceHooks

    schedule = svc_schedule(seed, seconds)
    clock = time.perf_counter
    submitted: dict[int, float] = {}
    started: dict[int, float] = {}
    done: dict[int, float] = {}
    settled: dict[tuple, float] = {}
    lags: list[float] = []
    read_stats = {"reads": 0, "empty": 0, "failed": 0, "loads": 0}
    config = svc_config()
    hooks = ServiceHooks(
        on_settle=lambda s: settled.__setitem__(
            (s.session_id, s.cycle.index), clock()
        )
    )
    out = Outcome()
    service = ChargingService(config, hooks=hooks)
    process = service.core.process

    def timed_process(event):
        started[id(event)] = clock()
        try:
            return process(event)
        finally:
            done[id(event)] = clock()

    service.core.process = timed_process

    async def sleep_until(target: float) -> None:
        delay = target - clock()
        if delay > 0:
            await asyncio.sleep(delay)

    async def generate(t0: float) -> list:
        closers = []
        closes = iter(schedule.closes)
        next_close = next(closes, None)
        for due, index, event in schedule.events:
            while next_close is not None and next_close[0] < due:
                await sleep_until(t0 + next_close[0])
                closers.append(close(next_close[1]))
                next_close = next(closes, None)
            await sleep_until(t0 + due)
            now = clock()
            lags.append(now - (t0 + due))
            admission = service.submit(event)
            if admission:
                submitted[id(event)] = now
        while next_close is not None:
            await sleep_until(t0 + next_close[0])
            closers.append(close(next_close[1]))
            next_close = next(closes, None)
        return closers

    def close(index: int):
        session_id = schedule.specs[index].session_id
        return asyncio.ensure_future(service.close_session(session_id))

    async def read(t0: float, stop: asyncio.Event) -> None:
        verifier = service.verifier
        for due, index in schedule.reads:
            await sleep_until(t0 + due)
            if stop.is_set():
                return
            spec = schedule.specs[index]
            read_stats["reads"] += 1
            verifier.get_poc(spec.session_id)
            page = verifier.get_cdrs(spec.app_id, cursor=0, limit=1)
            if page.total == 0:
                read_stats["empty"] += 1
                continue
            newest = verifier.get_cdrs(
                spec.app_id, cursor=page.total - 1, limit=1
            ).refs[0]
            loaded = verifier.load_cdr(spec.app_id, newest.sequence_number)
            read_stats["loads"] += 1
            if loaded is None or not loaded.proof_ok:
                read_stats["failed"] += 1

    async def main() -> tuple[float, float, float]:
        for spec in schedule.specs:
            if not service.open_session(spec):
                raise RuntimeError(f"session refused: {spec.session_id}")
        stop = asyncio.Event()
        cpu0 = time.process_time()
        t0 = clock()
        reader = asyncio.ensure_future(read(t0, stop))
        closers = await generate(t0)
        await asyncio.gather(*closers)
        t_end = clock()
        cpu = time.process_time() - cpu0
        # The ledger covers the window only: shutdown and the batch
        # replay below also run traced calls.
        window = None
        if tracer is not None:
            tracer.flush("svc")
            window = tracer.window()
        stop.set()
        await reader
        await service.shutdown()
        return t0, t_end, cpu, window

    selector = _TimedSelector(tracer) if tracer is not None else None
    loop = asyncio.SelectorEventLoop(selector)
    try:
        t0, t_end, cpu, window = loop.run_until_complete(main())
    finally:
        loop.close()
    wall = t_end - t0

    # Event latency: due -> ChargingCore.process returned; +inf if the
    # event was refused or never processed.
    event_ms = []
    for due, _, event in schedule.events:
        key = id(event)
        finished = done.get(key) if key in submitted else None
        event_ms.append(measure.latency_ms(t0 + due, finished))
    settle_ms = []
    for key, due in schedule.cycle_close_due.items():
        settle_ms.append(measure.latency_ms(t0 + due, settled.get(key)))
    accepted = service.ingest.accepted_events
    refused = len(schedule.events) - accepted
    unprocessed = accepted - len(done)
    missing = sum(1 for key in schedule.cycle_close_due if key not in settled)
    out.attempted = len(schedule.events) + read_stats["reads"]
    out.failed = refused + unprocessed + missing + read_stats["failed"]

    out.e2e["ue_cycles_per_s"] = len(settled) / wall
    out.e2e["cpu_ms_per_ue_cycle"] = cpu * 1e3 / max(1, len(settled))
    out.e2e["cpu_ms_per_event"] = cpu * 1e3 / max(1, accepted)
    out.e2e["event_tail_ms"], out.info["event_tail_pct"] = measure.tail(
        event_ms
    )
    out.e2e["settle_p50_ms"] = measure.p50(settle_ms)
    out.e2e["settle_tail_ms"], out.info["settle_tail_pct"] = measure.tail(
        settle_ms
    )
    out.e2e["peak_rss_mb"] = measure.peak_rss_mb()
    out.cpu_per_unit = cpu / max(1, accepted)

    table = service.accounting()
    core, verifier = service.core, service.verifier
    out.check("accounting_reconciles", table.reconciles)
    out.check("sign_ops_equal_batches", core.sign_ops == core.batches_sealed)
    out.check("pocs_rejected_zero", verifier.pocs_rejected == 0)
    out.check("degraded_zero", service.degraded.degraded_sessions == 0)
    out.check("all_events_processed", refused == 0 and unprocessed == 0)
    out.check(
        "all_cycles_settled",
        missing == 0 and set(settled) == set(schedule.cycle_close_due),
    )
    out.check("reads_ok", read_stats["failed"] == 0)
    out.check("batch_equivalent", service.verify_batch_equivalence())
    volumes = service.settlements
    out.work = {
        "settlements": sorted(
            [sid, cycle, volume] for (sid, cycle), volume in volumes.items()
        ),
        "events": core.processed_events,
        "bytes": core.processed_sent_bytes,
        "delivered": core.delivered_bytes,
        "cdrs": core.cdrs_delivered,
        "sign_ops": core.sign_ops,
        "claims_attested": core.claims_attested,
    }
    out.info.update(
        sessions=SVC_SESSIONS,
        events=len(schedule.events),
        settlements=len(settled),
        window_s=wall,
        **read_stats,
    )
    if tracer is not None:
        sequence: dict[str, int] = {}
        for _, _, event in schedule.events:
            n = sequence[event.session_id] = sequence.get(event.session_id, -1) + 1
            key = id(event)
            if key in done:
                tracer.span(
                    "svc.event",
                    [event.session_id, n],
                    int(started[key] * 1e9),
                    int(done[key] * 1e9),
                )
        for key, due in schedule.cycle_close_due.items():
            if key in settled:
                tracer.span(
                    "svc.settle",
                    list(key),
                    int((t0 + due) * 1e9),
                    int(settled[key] * 1e9),
                )
        out.layers.update(
            svc_layers(
                window, service, schedule, wall, submitted, started,
                event_ms, settled, lags, read_stats,
            )
        )
    return out


def _fresh_dir(name: str) -> str:
    """An empty scratch directory under the checkout's ``.perfbench/``."""
    path = os.path.join(ROOT, ".perfbench", name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


WORKLOADS = {
    "pop_fluid_steal": pop_fluid_steal,
    "pop_analytic": pop_analytic,
    "svc_open": svc_open,
}
