"""End-to-end benchmark: DML-to-notification latency and throughput.

``python3 benchmarks/e2e/run.py`` (or ``python -m benchmarks.e2e.run``) is
the one command; ``BENCHMARK.json`` at the repository root fixes the metric
names, units and regression bounds, and ``README.md`` next to this file
says who each metric is for and which layer should move it.
"""
