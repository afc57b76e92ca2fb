"""Which calls the traced run wraps, and the per-layer metrics it derives.

Every hook names the layer's public function on the module or class the
*caller* resolves it through.  Each per-layer metric is listed with the
end-to-end metric it should move:

* ``theory.realised_flow``, ``theory.allocation_lp``, ``sim.*`` —
  ``throughput_per_s`` on ``grid_sweep`` (stacked path) and
  ``fig2_sweep`` (per-cell path);
* ``testbed.pertable``, ``store.*``, ``analysis.aggregate`` —
  ``throughput_per_s`` on ``fig2_sweep`` only;
* ``service.*``, ``auth.mac``, ``coding.plan``, ``gf``, ``core.eve`` —
  ``throughput_per_s`` (sessions per loop-busy second) and ``latency_p50_ms``
  on ``service_open``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from perfbench.trace import ResultHook, Span, Tracer, self_times, union_length

__all__ = ["HARNESS_PREFIX", "PER_LAYER_METRICS", "count_hook", "layer_hooks", "layer_metrics"]

#: Spans the harness records around its own work (a sweep pass, a
#: session) carry this prefix and are not layer time.
HARNESS_PREFIX = "harness."

#: Every per-layer metric a traced run prints: name, unit, and which
#: direction is better.  Layers a workload never calls read 0.
PER_LAYER_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("theory.realised_flow.calls", "count", "lower"),
    ("theory.realised_flow.busy_s", "s", "lower"),
    ("theory.realised_flow.hit_ratio", "ratio", "higher"),
    ("theory.realised_flow.share", "ratio", "lower"),
    ("theory.allocation_lp.calls", "count", "lower"),
    ("theory.allocation_lp.busy_s", "s", "lower"),
    ("theory.allocation_lp.misses", "count", "lower"),
    ("sim.reception.busy_s", "s", "lower"),
    ("sim.account.self_s", "s", "lower"),
    ("sim.rounds", "count", "higher"),
    ("testbed.pertable.calls", "count", "lower"),
    ("testbed.pertable.busy_s", "s", "lower"),
    ("store.append.records", "count", "higher"),
    ("store.append.busy_s", "s", "lower"),
    ("store.read.records", "count", "lower"),
    ("store.read.busy_s", "s", "lower"),
    ("store.queue.claims", "count", "higher"),
    ("store.queue.claim_misses", "count", "lower"),
    ("store.queue.busy_s", "s", "lower"),
    ("analysis.aggregate.busy_s", "s", "lower"),
    ("service.engine.self_s", "s", "lower"),
    ("service.engine.frames", "count", "lower"),
    ("service.frames.encode_s", "s", "lower"),
    ("service.frames.decode_s", "s", "lower"),
    ("service.frames.bytes", "bytes", "lower"),
    ("auth.mac.calls", "count", "lower"),
    ("auth.mac.busy_s", "s", "lower"),
    ("service.pool.calls", "count", "lower"),
    ("service.pool.busy_s", "s", "lower"),
    ("coding.plan.calls", "count", "lower"),
    ("coding.plan.busy_s", "s", "lower"),
    ("gf.self_s", "s", "lower"),
    ("core.eve.calls", "count", "lower"),
    ("core.eve.busy_s", "s", "lower"),
    ("service.derive.busy_s", "s", "lower"),
    ("loop.busy_frac", "ratio", "lower"),
    ("harness.gen_lag_ms.p90", "ms", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def count_hook(name: str, amount=lambda args, kwargs, result: 1) -> ResultHook:
    def hook(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
        tracer.count(name, amount(args, kwargs, result))

    return hook


def _count_claim(tracer: Tracer, args: tuple, kwargs: dict, claimed) -> None:
    tracer.count("store.queue.claims" if claimed else "store.queue.claim_misses")


def _count_rounds(tracer: Tracer, args: tuple, kwargs: dict, result) -> None:
    results = result if isinstance(result, list) else [result]
    tracer.count("sim.rounds", sum(r.rounds for r in results))


def layer_hooks(extra: Sequence[tuple] = ()) -> List[tuple]:
    """The ``(owner, attribute, layer, on_result[, item_of])`` table of
    one traced run (see :meth:`Tracer.wrap`).

    ``extra`` adds hooks on the benchmark's own modules (the aggregate
    call of ``fig2_sweep``, the codec of ``service_open``)."""
    import repro.analysis.experiments as experiments
    import repro.service.engine as service_engine
    import repro.sim.campaign as sim_campaign
    import repro.sim.engine as sim_engine
    import repro.sim.stack as sim_stack
    from repro.auth.bootstrap import AuthenticatedChannel
    from repro.gf.linalg import GFMatrix
    from repro.service.config import ServiceConfig
    from repro.service.frames import FrameDecoder
    from repro.store.queue import WorkQueue
    from repro.store.store import CampaignStore

    loaded = lambda args, kwargs, result: 0 if result is None else 1  # noqa: E731
    hooks: List[tuple] = [
        # theory, reached from both engine paths
        (sim_stack, "realised_support_flow", "theory.realised_flow", None),
        (sim_engine, "realised_support_flow", "theory.realised_flow", None),
        (sim_stack, "group_allocation_profile", "theory.allocation_lp", None),
        (sim_engine, "group_allocation_profile", "theory.allocation_lp", None),
        # sim: reception sampling and the accounting kernels
        (sim_engine, "sample_receptions", "sim.reception", None),
        (sim_stack, "sample_receptions_stacked", "sim.reception", None),
        (sim_engine.BatchedRoundEngine, "account", "sim.account", _count_rounds),
        (
            sim_campaign,
            "run_stacked_batch",
            "sim.account",
            _count_rounds,
            lambda args, kwargs: "group:" + args[0][0].label(),
        ),
        # testbed PER-table bridge
        (experiments, "placement_schedule_specs", "testbed.pertable", None),
        # store
        (CampaignStore, "append", "store.append", count_hook("store.append.records")),
        (CampaignStore, "load", "store.read", count_hook("store.read.records", loaded)),
        (WorkQueue, "claim", "store.queue", _count_claim),
        # service engines and the stages they call
        (service_engine.LeaderEngine, "__init__", "service.engine", None),
        (service_engine.FollowerEngine, "__init__", "service.engine", None),
        (service_engine.FollowerEngine, "start", "service.engine", None),
        (
            service_engine.LeaderEngine,
            "on_frame",
            "service.engine",
            count_hook("service.engine.frames"),
        ),
        (
            service_engine.FollowerEngine,
            "on_frame",
            "service.engine",
            count_hook("service.engine.frames"),
        ),
        (FrameDecoder, "feed", "service.frames.decode", None),
        (AuthenticatedChannel, "authenticate", "auth.mac", None),
        (AuthenticatedChannel, "verify_next", "auth.mac", None),
        (ServiceConfig, "pair_pool", "service.pool", None),
        (service_engine, "plan_y_allocation", "coding.plan", None),
        (service_engine, "build_phase2_matrices", "coding.plan", None),
        (service_engine, "round_leakage", "core.eve", None),
        (service_engine, "derive_session_keys", "service.derive", None),
        (service_engine, "cauchy_matrix", "gf", None),
    ]
    for method in ("__matmul__", "solve", "rank", "inverse", "rref", "null_space"):
        hooks.append((GFMatrix, method, "gf", None))
    hooks.extend(extra)
    return hooks


class _Layers:
    """Per-name views over one tracer's spans."""

    def __init__(self, spans: List[Span]) -> None:
        self.spans = spans
        self.self_s = self_times(spans)
        self.by_name: Dict[str, List[int]] = {}
        for index, span in enumerate(spans):
            self.by_name.setdefault(span.name, []).append(index)

    def calls(self, name: str) -> int:
        """Outermost calls: a span nested in a span of its own layer is
        part of that call."""
        count = 0
        for index in self.by_name.get(name, ()):
            parent = self.spans[index].parent
            while parent is not None and self.spans[parent].name != name:
                parent = self.spans[parent].parent
            count += parent is None
        return count

    def busy(self, name: str) -> float:
        """Wall time inside the layer (nested calls counted once)."""
        return union_length(
            (self.spans[i].start, self.spans[i].end) for i in self.by_name.get(name, ())
        )

    def self_time(self, name: str) -> float:
        return sum(self.self_s[i] for i in self.by_name.get(name, ()))

    def covered(self, names) -> float:
        return union_length(
            (self.spans[i].start, self.spans[i].end)
            for name in names
            for i in self.by_name.get(name, ())
        )


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    busy_wall_s: float,
    flow_info: Tuple[int, int] = (0, 0),
    lp_misses: int = 0,
    loop_busy_frac: float = 0.0,
    gen_lag_p90_ms: float = 0.0,
    overhead_frac: float = 0.0,
) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER_METRICS` entry from one traced region.

    ``wall_s`` is the traced region's wall time, ``busy_wall_s`` the part
    of it the process was working (equal for the batch workloads; the
    event loop's busy time for the service), ``flow_info`` the
    realised-flow memo's ``(hits, misses)`` over the region.
    """
    layers = _Layers(tracer.spans())
    counts = tracer.counts
    hits, misses = flow_info
    layer_names = [n for n in layers.by_name if not n.startswith(HARNESS_PREFIX)]
    values: Dict[str, float] = {
        "theory.realised_flow.calls": layers.calls("theory.realised_flow"),
        "theory.realised_flow.busy_s": layers.busy("theory.realised_flow"),
        "theory.realised_flow.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "theory.realised_flow.share": (
            layers.busy("theory.realised_flow") / wall_s if wall_s > 0 else 0.0
        ),
        "theory.allocation_lp.calls": layers.calls("theory.allocation_lp"),
        "theory.allocation_lp.busy_s": layers.busy("theory.allocation_lp"),
        "theory.allocation_lp.misses": lp_misses,
        "sim.reception.busy_s": layers.busy("sim.reception"),
        "sim.account.self_s": layers.self_time("sim.account"),
        "sim.rounds": counts.get("sim.rounds", 0),
        "testbed.pertable.calls": layers.calls("testbed.pertable"),
        "testbed.pertable.busy_s": layers.busy("testbed.pertable"),
        "store.append.records": counts.get("store.append.records", 0),
        "store.append.busy_s": layers.busy("store.append"),
        "store.read.records": counts.get("store.read.records", 0),
        "store.read.busy_s": layers.busy("store.read"),
        "store.queue.claims": counts.get("store.queue.claims", 0),
        "store.queue.claim_misses": counts.get("store.queue.claim_misses", 0),
        "store.queue.busy_s": layers.busy("store.queue"),
        "analysis.aggregate.busy_s": layers.busy("analysis.aggregate"),
        "service.engine.self_s": layers.self_time("service.engine"),
        "service.engine.frames": counts.get("service.engine.frames", 0),
        "service.frames.encode_s": layers.busy("service.frames.encode"),
        "service.frames.decode_s": layers.busy("service.frames.decode"),
        "service.frames.bytes": counts.get("service.frames.bytes", 0),
        "auth.mac.calls": layers.calls("auth.mac"),
        "auth.mac.busy_s": layers.busy("auth.mac"),
        "service.pool.calls": layers.calls("service.pool"),
        "service.pool.busy_s": layers.busy("service.pool"),
        "coding.plan.calls": layers.calls("coding.plan"),
        "coding.plan.busy_s": layers.busy("coding.plan"),
        "gf.self_s": layers.self_time("gf"),
        "core.eve.calls": layers.calls("core.eve"),
        "core.eve.busy_s": layers.busy("core.eve"),
        "service.derive.busy_s": layers.busy("service.derive"),
        "loop.busy_frac": loop_busy_frac,
        "harness.gen_lag_ms.p90": gen_lag_p90_ms,
        "unattributed_s": max(busy_wall_s - layers.covered(layer_names), 0.0),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: (float(values[name]), unit) for name, unit, _ in PER_LAYER_METRICS}
