"""``grid_sweep``: a scenario grid on the cross-cell stacked engine.

Each pass runs one :class:`~repro.sim.ScenarioGrid` — n = 3..6, an IID
and a Gilbert-Elliott loss model, four estimator
policies per stack signature, ``ROUNDS`` rounds per cell — through
``CampaignRunner`` on its default stacked path, in memory.  It exercises
the ``sim`` kernels and the ``theory`` realised flow and bypasses the
store, the testbed, GF arithmetic and the service.

Checks: a fixed anchor grid must reproduce its golden digest, and a
seeded sample of each pass's cells, re-run one engine per cell, must
match the stacked results bit for bit.
"""

from __future__ import annotations

import dataclasses
import time
from typing import List, Optional

import numpy as np

from perfbench import golden
from perfbench.batch import (
    PassOutput,
    cache_counts,
    clear_caches,
    summarise,
    timed_passes,
    traced_metrics,
)
from perfbench.common import (
    Checks,
    RunResult,
    array_digest,
    derived_seed,
    peak_rss_mb,
    timed_median,
)
from perfbench.layers import layer_hooks
from perfbench.trace import Tracer
from repro.sim import (
    BatchResult,
    CampaignRunner,
    CollusionEstimatorSpec,
    FixedFractionEstimatorSpec,
    GilbertElliottLossSpec,
    IIDLossSpec,
    LeaveOneOutEstimatorSpec,
    OracleEstimatorSpec,
    ScenarioGrid,
)

GROUP_SIZES = (3, 4, 5, 6)
ESTIMATORS = (
    OracleEstimatorSpec(),
    LeaveOneOutEstimatorSpec(rate_margin=0.05),
    FixedFractionEstimatorSpec(fraction=0.3),
    CollusionEstimatorSpec(k=2, rate_margin=0.05),
)
#: Both at a mean loss of 0.4; the Gilbert-Elliott channel is bursty.
LOSS_MODELS = (
    IIDLossSpec(0.4),
    GilbertElliottLossSpec(p_g2b=0.1, p_b2g=0.2, p_good=0.2, p_bad=0.8),
)
ROUNDS = 200
N_X_PACKETS = 90
#: Cells per pass re-run on the per-cell engine.
CELLS_CHECKED = 2
SETUP_REPEATS = 3

_ARRAYS = tuple(f.name for f in dataclasses.fields(BatchResult) if f.name != "scenario")


def result_digest(results: List[BatchResult]) -> str:
    """Digest of every array of every cell's ``BatchResult``, in order."""
    return array_digest(getattr(r, name) for r in results for name in _ARRAYS)


def make_grid(seed: int, index: int):
    """One pass's grid and campaign seed: the grid is fixed, the seed
    drives every cell's reception and sampling streams."""
    grid = ScenarioGrid(
        group_sizes=GROUP_SIZES,
        loss_models=LOSS_MODELS,
        estimators=ESTIMATORS,
        rounds=ROUNDS,
        n_x_packets=N_X_PACKETS,
    )
    return grid, derived_seed(seed, 11, index)


def anchor_grid() -> ScenarioGrid:
    return ScenarioGrid(
        group_sizes=(3, 4),
        loss_models=LOSS_MODELS,
        estimators=ESTIMATORS[:2],
        rounds=40,
        n_x_packets=N_X_PACKETS,
    )


def anchor_digest() -> str:
    result = CampaignRunner(seed=golden.GRID_ANCHOR_SEED).run(anchor_grid())
    return result_digest([o.result for o in result.outcomes])


def run(seed: int, seconds: float, trace: bool, import_s: float) -> RunResult:
    def setup():
        grids = [make_grid(seed, index) for index in range(4)]
        return [grid.scenarios() for grid, _ in grids]

    setup_s, _ = timed_median(setup, SETUP_REPEATS)
    checks = Checks()
    report: List[str] = []
    checks.equal("anchor grid digest", anchor_digest(), golden.GRID_DIGEST)

    def run_pass(index: int, tracer: Optional[Tracer]) -> PassOutput:
        grid, campaign_seed = make_grid(seed, index)
        cells = grid.scenarios()
        clear_caches()
        t0 = time.perf_counter()
        result = CampaignRunner(seed=campaign_seed).run(cells)
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.record("harness.pass", t0, t1, index)
        hits, misses, lp_misses = cache_counts()
        outcomes = result.outcomes
        return PassOutput(
            index=index,
            timed_s=t1 - t0,
            items=result.total_rounds,
            digest=result_digest([o.result for o in outcomes]),
            flow_hits=hits,
            flow_misses=misses,
            lp_misses=lp_misses,
            payload=(campaign_seed, cells, outcomes),
        )

    def check_pass(output: PassOutput) -> None:
        campaign_seed, cells, outcomes = output.payload
        rng = np.random.default_rng(derived_seed(seed, 12, output.index))
        for i in sorted(rng.choice(len(cells), size=CELLS_CHECKED, replace=False)):
            single = CampaignRunner(seed=campaign_seed, cell_batching=False).run([cells[i]])
            checks.equal(
                f"pass {output.index} cell {i} per-cell vs stacked digest",
                result_digest([single.outcomes[0].result]),
                result_digest([outcomes[i].result]),
            )
        output.payload = None

    if trace:
        metrics, tracer, items = traced_metrics(
            run_pass, seconds, layer_hooks(), check_pass, report, checks
        )
        return RunResult(items, 0, metrics, checks, report, tracer)

    outputs = timed_passes(run_pass, seconds, check_pass)
    stats = summarise(outputs)
    report += [
        f"rounds_per_s = {stats['items_per_s']:.4f} 1/s"
        f" (median pass; {stats['items']} cell-rounds in {stats['passes']} passes of"
        f" {len(ESTIMATORS) * len(GROUP_SIZES) * 2} cells x {ROUNDS} rounds)",
        f"theory.realised_flow hit ratio {stats['flow_hit_ratio']:.4f}"
        f" ({stats['flow_hits']} hits, {stats['flow_misses']} misses);"
        f" allocation LP misses {stats['lp_misses']}",
        "failed_frac = 0.0000",
    ]
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        "throughput_per_s": (stats["items_per_s"], "1/s"),
        "latency_p50_ms": (stats["pass_p50_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return RunResult(stats["items"], 0, metrics, checks, report)
