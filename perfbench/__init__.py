"""Benchmark harness for qaelab: workloads, output checks and an outside-in tracer.

Run it from the repository root with ``python3 perfbench/run.py``; see
``perfbench/README.md`` for the workloads and metrics.
"""
