"""Per-layer tracing from outside the program.

:class:`Tracer` wraps public entry points of the program's classes and
modules (``CongestedQueue.send``, ``ChargingCore.process``, ...) with
timers that charge each call's *self time* — its duration minus the
time its traced children covered — to a named layer.  Per-packet calls
are never recorded one by one: each layer keeps a call count, total
time and self time, folded per UE cycle into a per-UE record.  Coarse
spans (one per UE cycle, service event or settlement) are kept in
memory and written out once, at the end.

The wrappers must be installed before any network is built:
``LteNetwork.__init__`` binds its neighbours' methods at construction
(``gateway.connect_downlink(self.dl_queue.send)``), so a network built
before :meth:`Tracer.install` keeps calling the unwrapped methods.

Population workers are forked from the traced process and inherit the
wrappers.  :func:`traced_chunk` is the chunk runner they execute: it
folds each chunk under a ``scheduler.chunk`` span and appends the
worker's per-UE records to a file the parent reads after the run.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable

#: ``(module, attribute path, layer)``: what the tracer wraps — public
#: entry points plus the callbacks the event loop runs for a layer (so
#: ``sim.loop`` keeps only the loop's own time).  Class methods are
#: wrapped on the class, module functions in the namespace of every
#: module that calls them through a module-level name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # simulator core and network build
    ("repro.sim.events", "EventLoop.run", "sim.loop"),
    ("repro.lte.network", "LteNetwork.__init__", "lte.build"),
    # data-plane layers, all three granularities
    ("repro.net.congestion", "CongestedQueue.send", "net.queue"),
    ("repro.net.congestion", "CongestedQueue.send_block", "net.queue"),
    ("repro.net.congestion", "CongestedQueue.send_interval", "net.queue"),
    ("repro.net.congestion", "CongestedQueue._deliver", "net.queue"),
    ("repro.net.congestion", "CongestedQueue._deliver_block", "net.queue"),
    ("repro.net.channel", "WirelessChannel.send", "net.channel"),
    ("repro.net.channel", "WirelessChannel.send_block", "net.channel"),
    ("repro.net.channel", "WirelessChannel.send_interval", "net.channel"),
    (
        "repro.net.channel",
        "WirelessChannel.flush_interval_buffer",
        "net.channel",
    ),
    ("repro.net.channel", "WirelessChannel._deliver", "net.channel"),
    ("repro.net.channel", "WirelessChannel._deliver_block", "net.channel"),
    ("repro.net.channel", "WirelessChannel._flush_buffer", "net.channel"),
    ("repro.lte.gateway", "ChargingGateway.forward_downlink", "lte.gateway"),
    ("repro.lte.gateway", "ChargingGateway.forward_uplink", "lte.gateway"),
    (
        "repro.lte.gateway",
        "ChargingGateway.forward_downlink_block",
        "lte.gateway",
    ),
    (
        "repro.lte.gateway",
        "ChargingGateway.forward_uplink_block",
        "lte.gateway",
    ),
    ("repro.lte.gateway", "ChargingGateway.forward_interval", "lte.gateway"),
    ("repro.lte.enodeb", "ENodeB.send_downlink", "lte.ran"),
    ("repro.lte.enodeb", "ENodeB.receive_uplink", "lte.ran"),
    ("repro.lte.enodeb", "ENodeB.send_downlink_block", "lte.ran"),
    ("repro.lte.enodeb", "ENodeB.receive_uplink_block", "lte.ran"),
    ("repro.lte.enodeb", "ENodeB.send_downlink_interval", "lte.ran"),
    ("repro.lte.enodeb", "ENodeB.receive_uplink_interval", "lte.ran"),
    ("repro.lte.enodeb", "ENodeB._on_air_delivery", "lte.ran"),
    ("repro.lte.enodeb", "ENodeB._on_air_delivery_block", "lte.ran"),
    ("repro.lte.ue", "UserEquipment.receive_from_air", "lte.ran"),
    ("repro.lte.ue", "UserEquipment.receive_from_air_block", "lte.ran"),
    ("repro.lte.ue", "UserEquipment.receive_interval", "lte.ran"),
    ("repro.lte.ue", "UserEquipment.prepare_uplink", "lte.ran"),
    ("repro.lte.ue", "UserEquipment.prepare_uplink_block", "lte.ran"),
    ("repro.lte.ue", "UserEquipment.prepare_uplink_interval", "lte.ran"),
    # the edge app: frame emission and the network's app-facing hops
    ("repro.apps.base", "Workload._tick", "apps.emit"),
    ("repro.apps.base", "Workload._emit_frame", "apps.emit"),
    ("repro.apps.base", "Workload.interval_traffic", "apps.emit"),
    ("repro.lte.network", "LteNetwork.send_downlink", "apps.emit"),
    ("repro.lte.network", "LteNetwork.send_uplink", "apps.emit"),
    ("repro.lte.network", "LteNetwork.send_downlink_block", "apps.emit"),
    ("repro.lte.network", "LteNetwork.send_uplink_block", "apps.emit"),
    ("repro.lte.network", "LteNetwork._server_app_receive", "apps.emit"),
    (
        "repro.lte.network",
        "LteNetwork._server_app_receive_block",
        "apps.emit",
    ),
    ("repro.lte.analytic", "AnalyticDriver.advance", "lte.analytic"),
    # charging records
    ("repro.lte.gateway", "ChargingGateway.flush_cdr", "charging.cdr"),
    ("repro.lte.ofcs", "OfflineChargingSystem.ingest", "charging.cdr"),
    # telemetry
    ("repro.telemetry", "Telemetry.flush", "telemetry.flush"),
    ("repro.telemetry.metrics", "MetricsRegistry.snapshot", "telemetry.snapshot"),
    ("repro.experiments.scenario", "build_accounting", "telemetry.snapshot"),
    ("repro.experiments.sharding", "build_accounting", "telemetry.snapshot"),
    # population fold
    ("repro.experiments.sharding", "_fold_ues", "experiments.fold"),
    ("repro.telemetry.merge", "SnapshotAccumulator.add", "experiments.fold"),
    ("repro.charging.merge", "ChargingAggregate.merge", "experiments.fold"),
    ("repro.experiments.sharding", "ShardResult.merge", "experiments.fold"),
    ("repro.experiments.scheduler", "StealingScheduler.run", "scheduler.dispatch"),
    # the charging service
    ("repro.service.ingest", "UsageIngest.submit", "service.ingest"),
    ("repro.service.core", "ChargingCore.process", "service.process"),
    ("repro.service.core", "ChargingCore.close_session", "service.process"),
    ("repro.service.core", "run_negotiation", "core.negotiate"),
    ("repro.service.core", "sign_cdr_batch", "crypto.seal"),
    ("repro.service.core", "sign_batch", "crypto.seal"),
    ("repro.service.verifier", "VerifierService.accept", "service.verify"),
    ("repro.service.verifier", "VerifierService.get_poc", "service.query"),
    ("repro.service.verifier", "VerifierService.get_cdrs", "service.query"),
    ("repro.service.verifier", "VerifierService.load_cdr", "service.query"),
)

#: Calls counted but not timed (they run inside timed layers).
COUNTED: tuple[tuple[str, str, str], ...] = (
    ("repro.crypto.signing", "rsa_private_op", "crypto.sign_ops"),
    ("repro.crypto.signing", "rsa_public_op", "crypto.verify_ops"),
    ("repro.service.verifier", "merkle_proof", "service.merkle_proofs"),
)

#: Packets carried through the air interface, by path: the per-packet
#: ``send``, a fluid block, or an analytic interval.
PACKET_COUNTS: tuple[tuple[str, str, str, str | None], ...] = (
    ("repro.net.channel", "WirelessChannel.send", "channel.packets", None),
    (
        "repro.net.channel",
        "WirelessChannel.send_block",
        "channel.block_packets",
        "count",
    ),
    (
        "repro.net.channel",
        "WirelessChannel.send_interval",
        "channel.interval_packets",
        "packets",
    ),
)

#: Where one UE charging cycle runs: ``run_scenario`` of a single-UE
#: config.  Its self time (monitor, workload and telemetry wiring plus
#: result assembly) is charged to ``lte.build`` with the network build,
#: and each call closes one per-UE record.
UE_CYCLE: tuple[tuple[str, str], ...] = (
    ("repro.experiments.scenario", "run_scenario"),
    ("repro.experiments.sharding", "run_scenario"),
)

#: The tracer a forked population worker inherited (set by install).
_INSTALLED: "Tracer | None" = None


def _resolve(module_name: str, path: str) -> tuple[Any, str]:
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Self-time accounting per layer, per UE cycle, kept in memory."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self._stack: list[list] = []
        #: layer -> [calls, total_ns, self_ns] for the current UE cycle.
        self.current: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        #: layer -> [calls, total_ns, self_ns] over the whole run.
        self.totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        #: Coarse spans: (kind, id, start_ns, end_ns).
        self.spans: list[tuple[str, Any, int, int]] = []
        #: Per-UE-cycle records: (ue id, {layer: [calls, total, self]}).
        self.ue_records: list[tuple[Any, dict]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.worker_dir: str | None = None
        self.pid = os.getpid()
        #: Id of the UE cycle being simulated (set by ``per_ue_config``
        #: inside a population fold).
        self.ue: Any = None

    # -- timing ------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` with its self time charged to ``layer``."""
        stack = self._stack
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                acc = tracer.current[layer]
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__qualname__ = getattr(fn, "__qualname__", "traced")
        traced.__module__ = getattr(fn, "__module__", __name__)
        return traced

    def count(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _count_packets(
        self, name: str, size: str | None, fn: Callable
    ) -> Callable:
        counts = self.counts

        def counted(owner, item, *args, **kwargs):
            counts[name] += 1 if size is None else getattr(item, size)
            return fn(owner, item, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def call(self, layer: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` now as a traced call of ``layer``."""
        return self.wrap(layer, fn)(*args, **kwargs)

    def attribute(self, layer: str, elapsed_ns: int) -> None:
        """Charge time measured elsewhere (idle waits) to ``layer``."""
        acc = self.current[layer]
        acc[0] += 1
        acc[1] += elapsed_ns
        acc[2] += elapsed_ns
        if self._stack:
            self._stack[-1][0] += elapsed_ns

    def span(self, kind: str, ident: Any, start_ns: int, end_ns: int) -> None:
        self.spans.append((kind, ident, start_ns, end_ns))

    def close_ue(self, ue: Any) -> None:
        """Fold the current per-layer accumulators into UE ``ue``'s
        record and the run totals."""
        record = {}
        for layer, acc in self.current.items():
            record[layer] = list(acc)
            total = self.totals[layer]
            total[0] += acc[0]
            total[1] += acc[1]
            total[2] += acc[2]
        self.current.clear()
        self.ue_records.append((ue, record))

    def flush(self, ident: Any = "rest") -> None:
        """Close whatever the accumulators hold as one more record."""
        if self.current:
            self.close_ue(ident)

    def _ue_cycle(self, fn: Callable) -> Callable:
        timed = self.wrap("lte.build", fn)
        tracer = self

        def ue_cycle(config, *args, **kwargs):
            started = tracer.clock()
            result = timed(config, *args, **kwargs)
            tracer.span("ue.cycle", tracer.ue, started, tracer.clock())
            tracer.close_ue(tracer.ue)
            return result

        ue_cycle.__wrapped__ = fn
        return ue_cycle

    def _ue_index(self, fn: Callable) -> Callable:
        timed = self.wrap("experiments.fold", fn)
        tracer = self

        def ue_index(scenario, index, *args, **kwargs):
            tracer.ue = index
            return timed(scenario, index, *args, **kwargs)

        ue_index.__wrapped__ = fn
        return ue_index

    def window(self) -> "Tracer":
        """A frozen copy of the totals and counts gathered so far."""
        frozen = Tracer(self.clock)
        frozen.totals.update({k: list(v) for k, v in self.totals.items()})
        frozen.counts.update(self.counts)
        return frozen

    def self_ms(self, layer: str) -> float:
        return self.totals[layer][2] / 1e6 if layer in self.totals else 0.0

    def attributed_ms(self) -> float:
        return sum(acc[2] for acc in self.totals.values()) / 1e6

    # -- install -------------------------------------------------------------

    def install(self) -> "Tracer":
        global _INSTALLED
        if _INSTALLED is not None:
            raise RuntimeError("a tracer is already installed")
        for module_name, path, name, size in PACKET_COUNTS:
            self._patch(
                module_name,
                path,
                lambda fn, n=name, s=size: self._count_packets(n, s, fn),
            )
        for module_name, path, layer in TARGETS:
            self._patch(module_name, path, lambda fn, l=layer: self.wrap(l, fn))
        for module_name, path, name in COUNTED:
            self._patch(module_name, path, lambda fn, n=name: self.count(n, fn))
        for module_name, path in UE_CYCLE:
            self._patch(module_name, path, self._ue_cycle)
        self._patch(
            "repro.experiments.sharding", "per_ue_config", self._ue_index
        )
        _INSTALLED = self
        return self

    def _patch(self, module_name: str, path: str, make: Callable) -> None:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        global _INSTALLED
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if _INSTALLED is self:
            _INSTALLED = None

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- population workers ------------------------------------------------

    def reset_in_child(self) -> None:
        """A forked worker starts from empty accumulators."""
        self._stack.clear()
        self.current.clear()
        self.totals.clear()
        self.counts.clear()
        self.spans.clear()
        self.ue_records.clear()
        self.pid = os.getpid()

    def dump_worker(self) -> None:
        """Append this worker's new UE records and spans to its file."""
        if self.worker_dir is None:
            return
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(
                json.dumps(
                    {
                        "ue_records": self.ue_records,
                        "spans": self.spans,
                        "counts": dict(self.counts),
                    }
                )
                + "\n"
            )
        self.ue_records = []
        self.spans = []
        self.counts.clear()

    def absorb_workers(self) -> list[dict]:
        """Fold every worker file into this tracer; return per-worker
        chunk-span summaries ``{pid, chunks, busy_ns}``."""
        summaries = []
        if self.worker_dir is None:
            return summaries
        for name in sorted(os.listdir(self.worker_dir)):
            if not name.startswith("worker-"):
                continue
            busy = 0
            chunks = 0
            with open(os.path.join(self.worker_dir, name)) as handle:
                for line in handle:
                    part = json.loads(line)
                    for ue, record in part["ue_records"]:
                        self.ue_records.append((ue, record))
                        for layer, acc in record.items():
                            total = self.totals[layer]
                            total[0] += acc[0]
                            total[1] += acc[1]
                            total[2] += acc[2]
                    for kind, ident, start, end in part["spans"]:
                        self.spans.append((kind, ident, start, end))
                        if kind == "scheduler.chunk":
                            busy += end - start
                            chunks += 1
                    for key, value in part["counts"].items():
                        self.counts[key] += value
            summaries.append(
                {"worker": name, "chunks": chunks, "busy_ns": busy}
            )
        return summaries

    def write(self, path: str, extra: dict | None = None) -> None:
        """Write the whole in-memory trace as one JSON document."""
        with open(path, "w") as handle:
            json.dump(
                {
                    "totals": self.totals,
                    "counts": self.counts,
                    "spans": self.spans,
                    "ue_records": self.ue_records,
                    "extra": extra or {},
                },
                handle,
            )


def traced_chunk(config, start: int, stop: int):
    """Chunk runner for traced population runs (executes in a worker).

    Module-level so the scheduler can pickle it by reference; the
    tracer it reports into is the one the worker inherited at fork.
    """
    from repro.experiments.scheduler import run_chunk

    tracer = _INSTALLED
    if tracer is None:
        return run_chunk(config, start, stop)
    if tracer.pid != os.getpid():
        tracer.reset_in_child()
    began = tracer.clock()
    result = run_chunk(config, start, stop)
    tracer.span("scheduler.chunk", [start, stop], began, tracer.clock())
    tracer.flush(["chunk", start, stop])
    tracer.dump_worker()
    return result
