"""Benchmark of gemax: workloads, independent oracles and layer tracing."""
