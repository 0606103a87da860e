"""Benchmark for the branchbench library: workloads, checks and layer tracing.

Run it with ``python3 perfbench/run.py --workload proof --seed 1 --seconds 20
--trace 0`` from the repository root; ``perfbench/README.md`` describes the
workloads and the metrics.
"""
