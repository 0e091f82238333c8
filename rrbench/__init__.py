"""Benchmark for rrlab: four CLI-level workloads, output checks, and an
outside-in tracer for per-layer numbers.  Run ``python3 rrbench/run.py -h``."""
