#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig2_sweep --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` records why each was chosen):

* ``fig2_sweep`` — the reference Figure-2 campaign, drained through a
  sweep manifest into a fresh ``file:`` store and summarised by
  streaming it back;
* ``grid_sweep`` — a scenario grid on the cross-cell stacked engine, in
  memory;
* ``service_open`` — live key-agreement sessions arriving in an open
  loop over an in-process transport that runs the frame codec.

With ``--trace 0`` the last line of output is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics
of a traced run, and the spans are written to
``.perfbench_out/spans-<workload>-<seed>.jsonl``.  Lines before it are a
human-readable report.  A failed correctness check prints the result
with ``"correct": false`` and exits with status 1.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "fig2_sweep": "perfbench.wl_fig2",
    "grid_sweep": "perfbench.wl_grid",
    "service_open": "perfbench.wl_service",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"no program source under {ROOT}/src", file=sys.stderr)
        return 2
    # Single-threaded numeric kernels, set before numpy loads: the
    # workloads are sized for a 2-core host and measure one serial process.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for path in (os.path.join(ROOT, "scripts"), os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    workload = importlib.import_module(WORKLOADS[args.workload])
    import_s = time.perf_counter() - _START

    result = workload.run(args.seed, args.seconds, bool(args.trace), import_s)
    from perfbench.common import END_TO_END_METRICS
    from perfbench.layers import PER_LAYER_METRICS

    expected = PER_LAYER_METRICS if args.trace else END_TO_END_METRICS
    if [(n, u) for n, u, _ in expected] != list((n, u) for n, (_, u) in result.metrics.items()):
        raise RuntimeError(f"{args.workload} returned metrics {sorted(result.metrics)}")

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    for line in result.report:
        print(line)
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"checks passed {result.checks.passed}, failed {len(result.checks.failures)}")
    for failure in result.checks.failures:
        print(f"CHECK FAILED: {failure}")
    if result.tracer is not None:
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.jsonl")
        result.tracer.write_jsonl(path)
        print(f"{len(result.tracer)} spans written to {os.path.relpath(path, ROOT)}")
    print(
        json.dumps(
            {
                "correct": result.checks.ok,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()
                },
            }
        )
    )
    sys.stdout.flush()
    return 0 if result.checks.ok else 1


if __name__ == "__main__":
    sys.exit(main())
