"""One set-up, in a fresh interpreter: what a user pays once per run.

``python3 perfbench/setup_probe.py <workload>`` imports the program
modules the workload uses, boots what it keeps warm (the stealing
pool with ``warm_up``; the charging service, whose boot
generates its RSA keys), prints ``ready``, then tears down.  The caller
times launch to ``ready``; the benchmark's own input generation is not
part of it.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]


def boot(workload: str):
    """Set the workload's program state up; return its teardown."""
    if workload == "pop_analytic":
        import repro.experiments.sharding  # noqa: F401
    elif workload == "pop_fluid_steal":
        from repro.experiments.scheduler import StealingScheduler

        from perfbench.config import POP_WORKERS

        scheduler = StealingScheduler(workers=POP_WORKERS)
        scheduler.warm_up()
        return scheduler.close
    elif workload == "svc_open":
        from repro.service import ChargingService

        from perfbench.config import svc_config

        ChargingService(svc_config())
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return None


def main() -> int:
    teardown = boot(sys.argv[1])
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if teardown is not None:
        teardown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
