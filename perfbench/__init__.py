"""Repository benchmark: workloads, tracer and per-layer ledger."""
