"""The pass loop shared by the two sweep workloads.

A *pass* is one complete sweep on inputs derived from the workload seed
and the pass index.  Every pass starts with cold memo caches — a user's
fresh process has them cold too — and only the sweep itself is timed;
its correctness checks run afterwards.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.layers import layer_metrics
from perfbench.trace import Tracer
from repro.theory.allocation import clear_realised_flow_cache, realised_flow_cache_info
from repro.theory.efficiency import clear_efficiency_cache, efficiency_cache_info

__all__ = [
    "PassOutput",
    "clear_caches",
    "cache_counts",
    "timed_passes",
    "traced_passes",
    "summarise",
    "traced_metrics",
]


@dataclasses.dataclass
class PassOutput:
    index: int
    timed_s: float
    #: Work items the pass completed (experiments, or cell-rounds).
    items: int
    #: Digest of the pass's results, for comparing two runs of it.
    digest: str
    #: Realised-flow memo hits and misses, allocation-LP memo misses.
    flow_hits: int
    flow_misses: int
    lp_misses: int
    #: Whatever the workload's checks need.
    payload: Any = None


def clear_caches() -> None:
    clear_realised_flow_cache()
    clear_efficiency_cache()


def cache_counts() -> Tuple[int, int, int]:
    flow = realised_flow_cache_info()
    return flow.hits, flow.misses, efficiency_cache_info().misses


RunPass = Callable[[int, Optional[Tracer]], PassOutput]


def timed_passes(
    run_pass: RunPass, seconds: float, check_pass: Callable[[PassOutput], None]
) -> List[PassOutput]:
    """Passes 0, 1, 2, ... until their timed parts add up to ``seconds``.

    Each pass is checked, and its payload dropped, before the next one
    starts, so peak memory does not grow with the number of passes a
    fast host fits into ``seconds``."""
    outputs: List[PassOutput] = []
    total = 0.0
    while total < seconds or not outputs:
        output = run_pass(len(outputs), None)
        check_pass(output)
        outputs.append(output)
        total += output.timed_s
    return outputs


def traced_passes(
    run_pass: RunPass, indices: Sequence[int], hooks: Sequence[tuple]
) -> Tuple[List[PassOutput], Tracer]:
    """Run the given passes again with every hook installed."""
    tracer = Tracer()
    tracer.install(hooks)
    try:
        outputs = [run_pass(index, tracer) for index in indices]
    finally:
        tracer.restore()
    return outputs, tracer


def summarise(outputs: Sequence[PassOutput]) -> Dict[str, float]:
    total_s = sum(o.timed_s for o in outputs)
    hits = sum(o.flow_hits for o in outputs)
    misses = sum(o.flow_misses for o in outputs)
    return {
        "passes": len(outputs),
        "items": sum(o.items for o in outputs),
        "timed_s": total_s,
        # A median over passes, like the pass time: a passing stall on a
        # shared host moves neither.
        "items_per_s": statistics.median(o.items / o.timed_s for o in outputs),
        "pass_p50_ms": statistics.median(o.timed_s for o in outputs) * 1e3,
        "flow_hits": hits,
        "flow_misses": misses,
        "flow_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "lp_misses": sum(o.lp_misses for o in outputs),
    }


def traced_metrics(
    run_pass: RunPass,
    seconds: float,
    hooks: Sequence[tuple],
    check_pass: Callable[[PassOutput], None],
    report: List[str],
    checks,
):
    """The per-layer half of a sweep workload: half the time untraced,
    then the same passes traced; traced results must equal untraced."""
    untraced = timed_passes(run_pass, seconds / 2.0, check_pass)
    traced, tracer = traced_passes(run_pass, [o.index for o in untraced], hooks)
    for before, after in zip(untraced, traced):
        checks.equal(f"pass {before.index} digest traced vs untraced", after.digest, before.digest)
    base, with_trace = summarise(untraced), summarise(traced)
    report.append(
        f"untraced {base['timed_s']:.3f} s, traced {with_trace['timed_s']:.3f} s"
        f" over {len(traced)} passes"
    )
    metrics = layer_metrics(
        tracer,
        wall_s=with_trace["timed_s"],
        busy_wall_s=with_trace["timed_s"],
        flow_info=(int(with_trace["flow_hits"]), int(with_trace["flow_misses"])),
        lp_misses=int(with_trace["lp_misses"]),
        overhead_frac=with_trace["timed_s"] / base["timed_s"] - 1.0,
    )
    share = metrics["theory.realised_flow.share"][0]
    report.append(f"theory.realised_flow share of traced wall time: {share:.1%}")
    items = base["items"] + with_trace["items"]
    return metrics, tracer, items
