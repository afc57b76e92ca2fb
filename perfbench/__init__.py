"""The repo benchmark: three workloads, end-to-end metrics and a traced
per-layer run.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload from the root of a checkout and prints its metrics;
``BENCHMARK.json`` at the repo root names the workloads and metrics.
Everything here measures the program from outside: nothing under
``src/`` knows it is being timed.
"""
