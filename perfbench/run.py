"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` runs the workload untraced for
half the window and traced for the other half, and reports the
per-layer ledger (the traced half also writes its spans and per-UE
records to ``.perfbench/``).  Every metric is printed by name with the
unit ``BENCHMARK.json`` declares, followed by the correctness verdicts,
the work digest, the host block and noise diagnostics.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 60.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def measure_setup(workload: str, probes: int = SETUP_PROBES) -> list[float]:
    """Wall seconds from launching a fresh interpreter to the workload's
    program state being ready, ``probes`` times."""
    script = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(probes):
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, script, workload],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            proc.communicate(timeout=SETUP_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
        times.append(ready)
    return times


def run_untraced(workload: str, seed: int, seconds: float):
    from perfbench.workloads import WORKLOADS

    setups = measure_setup(workload)
    outcome = WORKLOADS[workload](seed, seconds)
    metrics = dict(outcome.e2e, setup_s=statistics.median(setups))
    outcome.info["setup_probes_s"] = setups
    return outcome, metrics


def run_traced(workload: str, seed: int, seconds: float):
    """Untraced then traced halves; the ledger comes from the traced one."""
    from perfbench.tracer import Tracer
    from perfbench.workloads import WORKLOADS, Outcome, _fresh_dir

    fn = WORKLOADS[workload]
    plain = fn(seed, seconds / 2)
    tracer = Tracer()
    with tracer:
        traced = fn(seed, seconds / 2, tracer)
    metrics = dict(traced.layers)
    metrics["trace.overhead_frac"] = (
        traced.cpu_per_unit / plain.cpu_per_unit - 1.0
    )
    path = os.path.join(
        _fresh_dir(f"trace-{workload}-{seed}"), "trace.json"
    )
    tracer.write(path, extra={"workload": workload, "seed": seed})
    outcome = Outcome(
        attempted=plain.attempted + traced.attempted,
        failed=plain.failed + traced.failed,
        work=traced.work,
        info=dict(traced.info, trace_file=os.path.relpath(path, ROOT)),
    )
    for name, passed in list(plain.checks.items()) + list(
        traced.checks.items()
    ):
        outcome.check(name, passed)
    outcome.check("traced_work_identical", plain.work == traced.work)
    return outcome, metrics


def result_line(spec_metrics: list, metrics: dict, outcome) -> dict:
    """The final JSON object, every declared metric with its unit."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    correct = outcome.failed == 0 and all(outcome.checks.values())
    report = {}
    for metric in spec_metrics:
        value = float(metrics[metric["name"]])
        if not math.isfinite(value):
            # A refused or failed request pushed a percentile to +inf.
            correct = False
            value = sys.float_info.max
        report[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": report,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(
            f"perfbench: no program source under {ROOT}/src; run from "
            "the repository root",
            file=sys.stderr,
        )
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {names}", file=sys.stderr)
        return 2
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import measure

    host = measure.host_block()
    noise = measure.NoiseProbe()
    if args.trace:
        outcome, metrics = run_traced(args.workload, args.seed, args.seconds)
        declared = spec["per_layer"]
    else:
        outcome, metrics = run_untraced(
            args.workload, args.seed, args.seconds
        )
        declared = spec["end_to_end"]
    result = result_line(declared, metrics, outcome)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, entry in result["metrics"].items():
        print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']}")
    for name, passed in sorted(outcome.checks.items()):
        print(f"  check {name:<28} {'ok' if passed else 'FAILED'}")
    print(f"  attempted {outcome.attempted}  failed {outcome.failed}")
    print("  work digest " + measure.work_digest(outcome.work))
    print("info " + json.dumps(outcome.info, sort_keys=True))
    print("host " + json.dumps(host, sort_keys=True))
    print("noise " + json.dumps(noise.finish(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
