"""Tests of the benchmark's measurement code.

A mislabelled metric is a bug, so the arithmetic behind the reported
figures is pinned here: the tail rule, latency from the due time,
refused requests as +inf, CPU bounded by wall x processes, traced self
times plus the residual adding up to the wall, and every declared metric
printed with its declared unit.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(ROOT, "src"), ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import measure, run  # noqa: E402
from perfbench.config import POP_WORKERS  # noqa: E402
from perfbench.ledger import SIM_SELF_MS  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = run.load_spec()
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _spin(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _result(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestPercentiles:
    def test_tail_is_highest_percentile_with_ten_samples_beyond(self):
        samples = list(range(1, 101))
        value, percentile = measure.tail(samples)
        assert (value, percentile) == (90, 90.0)
        assert sum(1 for s in samples if s > value) == measure.BEYOND

    def test_tail_moves_out_with_more_samples(self):
        assert measure.tail(list(range(1, 1001))) == (990, 99.0)

    def test_tail_fails_with_fewer_than_ten_samples_beyond(self):
        assert measure.tail(list(range(11)))[0] == 0
        with pytest.raises(measure.TooFewSamples):
            measure.tail(list(range(10)))

    def test_median_needs_ten_samples_beyond(self):
        assert measure.p50(list(range(21))) == 10
        with pytest.raises(measure.TooFewSamples):
            measure.p50(list(range(20)))


class TestLatency:
    def test_timed_from_the_due_time(self):
        assert measure.latency_ms(10.0, 10.25) == pytest.approx(250.0)

    def test_refused_or_failed_request_is_infinite(self):
        assert measure.latency_ms(1.0, None) == math.inf
        samples = [1.0] * 30 + [math.inf] * 11
        assert measure.tail(samples)[0] == math.inf

    def test_stalled_generator_raises_event_tail(self, monkeypatch):
        from repro.service import ChargingService

        base = WORKLOADS["svc_open"](5, 1.0).e2e["event_tail_ms"]
        submit = ChargingService.submit
        calls = []

        def stalling_submit(self, event):
            calls.append(event)
            if len(calls) == 300:
                # The generator stalls; the events behind it stay due.
                time.sleep(0.4)
            return submit(self, event)

        monkeypatch.setattr(ChargingService, "submit", stalling_submit)
        stalled = WORKLOADS["svc_open"](5, 1.0).e2e["event_tail_ms"]
        assert stalled > base + 150


class TestCpu:
    def test_cpu_meter_within_wall(self):
        meter = measure.CpuMeter()
        meter.start()
        started = time.perf_counter()
        _spin(0.05)
        cpu = meter.stop()
        wall = time.perf_counter() - started
        assert 0 < cpu <= wall + 1e-3

    def test_steal_cpu_within_wall_times_processes(self):
        out = WORKLOADS["pop_fluid_steal"](3, 0.1)
        assert out.info["workers"] == POP_WORKERS
        assert out.checks["cpu_within_capacity"]
        cores_busy = (
            out.e2e["cpu_ms_per_ue_cycle"] * out.e2e["ue_cycles_per_s"] / 1e3
        )
        assert 0 < cores_busy <= 1 + out.info["workers"]


class TestTracer:
    def test_self_times_and_residual_add_up_to_wall(self):
        tracer = Tracer()
        leaf = tracer.wrap("leaf", lambda: _spin(0.01))

        def body():
            _spin(0.01)
            leaf()

        middle = tracer.wrap("middle", body)
        started = time.perf_counter_ns()
        middle()
        _spin(0.005)  # time no layer claims
        wall_ms = (time.perf_counter_ns() - started) / 1e6
        tracer.flush()
        _, total, self_ns = tracer.totals["middle"]
        assert total == self_ns + tracer.totals["leaf"][1]
        residual_ms = wall_ms - tracer.attributed_ms()
        assert residual_ms >= 4.0
        assert tracer.self_ms("middle") + tracer.self_ms(
            "leaf"
        ) + residual_ms == pytest.approx(wall_ms)

    def test_traced_ledger_adds_up_to_traced_wall(self):
        tracer = Tracer()
        with tracer:
            out = WORKLOADS["pop_analytic"](4, 0.1, tracer)
        layers = out.layers
        requests = out.info["requests"]
        cycles = requests * out.info["ues_per_cell"]
        wall_ms = out.info["requests_wall_s"] * 1e3
        attributed = (
            sum(layers[m] for m in SIM_SELF_MS) * cycles
            + layers["experiments.settle_ms"] * requests
        )
        residual = layers["trace.residual_frac"] * wall_ms
        assert attributed + residual == pytest.approx(wall_ms, rel=1e-9)
        assert 0 <= layers["trace.residual_frac"] <= 0.10

    def test_uninstall_restores_the_program(self):
        from repro.net.congestion import CongestedQueue

        original = CongestedQueue.__dict__["send"]
        with Tracer():
            assert CongestedQueue.__dict__["send"] is not original
        assert CongestedQueue.__dict__["send"] is original


class TestReport:
    @pytest.mark.parametrize("workload", WORKLOAD_NAMES)
    def test_every_end_to_end_metric_with_its_unit(self, workload, capsys):
        argv = ["--workload", workload, "--seed", "2", "--seconds", "0.1"]
        assert run.main(argv + ["--trace", "0"]) == 0
        result = _result(capsys)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared
        assert all(m["value"] > 0 for m in result["metrics"].values())

    def test_traced_run_reports_the_ledger(self, capsys):
        argv = ["--workload", "pop_fluid_steal", "--seed", "2"]
        assert run.main(argv + ["--seconds", "0.1", "--trace", "1"]) == 0
        result = _result(capsys)
        assert result["correct"]
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == declared
        value = {name: m["value"] for name, m in result["metrics"].items()}
        assert value["trace.residual_frac"] <= 0.10
        assert value["scheduler.chunks"] > 0
        assert value["scheduler.retries"] == 0
        assert 0 < value["scheduler.idle_frac"] < 1
        assert value["service.process_us"] == 0  # an idle tier reports 0

    def test_identical_work_gives_identical_digest(self):
        first = WORKLOADS["pop_analytic"](6, 0.1)
        again = WORKLOADS["pop_analytic"](6, 0.1)
        other = WORKLOADS["pop_analytic"](7, 0.1)
        digest = measure.work_digest
        assert digest(first.work) == digest(again.work)
        assert digest(first.work) != digest(other.work)

    def test_no_result_without_the_program(self, tmp_path):
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
        shutil.copytree(
            os.path.join(ROOT, "perfbench"),
            tmp_path / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "pop_analytic", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
