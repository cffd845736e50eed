"""Workload sizes and rates: the one place they are stated."""

from __future__ import annotations

from perfbench.measure import BEYOND

#: Distinct cells per pass: percentiles are taken across them, and a
#: median needs ten samples beyond it.
POP_CELLS = 2 * BEYOND + 4
#: Repetitions of the pass, at least, whatever the run length.
MIN_PASSES = 3

# -- population cells --------------------------------------------------------
#: Workers of the ``pop_fluid_steal`` pool.  One: the parent plus one
#: worker fit the host's two vCPUs, and a cell's wall then needs one
#: vCPU in its fast state, not both at once (see README, "Why one
#: worker").
POP_WORKERS = 1
POP_STEAL_UES = 4
POP_ANALYTIC_UES = 8

# -- svc_open: one ChargingService under an open loop ------------------------
SVC_SESSIONS = 32
#: Offered usage events per wall second, over all sessions.
SVC_EVENT_RATE = 1280.0
#: Stream seconds per wall second.
SVC_COMPRESSION = 40.0
#: Mean stream-time gap between one session's events.
SVC_EVENT_INTERVAL = SVC_SESSIONS * SVC_COMPRESSION / SVC_EVENT_RATE
#: Shared cycle length (stream s): a cycle end every 0.5 s of wall time.
SVC_CYCLE_S = 20.0
SVC_CDR_PERIOD_S = 5.0
#: Claims or CDRs per sealed Merkle batch: small enough that record
#: batches seal (and become readable) during the run.
SVC_ATTEST_BATCH = 32
#: Verifier reads per wall second (Poisson).
SVC_READ_RATE = 100.0
#: The service's own seed (its RSA keys): fixed, so set-up cost does
#: not vary with the load seed.
SVC_SERVICE_SEED = 17

#: The paper's charging schemes, every one settled per cell.
SCHEMES = ("legacy", "tlc-optimal", "tlc-honest", "tlc-random")
#: The schemes Theorem 2 covers (rational or honest parties).
BOUNDED_SCHEMES = ("tlc-optimal", "tlc-honest")


def svc_config():
    """The service configuration ``svc_open`` boots."""
    from repro.service import ServiceConfig

    return ServiceConfig(
        seed=SVC_SERVICE_SEED,
        cycle_duration=SVC_CYCLE_S,
        cdr_period=SVC_CDR_PERIOD_S,
        attest_batch=SVC_ATTEST_BATCH,
        max_sessions=SVC_SESSIONS,
    )
