"""``fig2_sweep``: the reference Figure-2 campaign, persisted and summarised.

Each pass is the campaign ``scripts/run_reference_campaign.py`` runs —
its ``build_config``, ``combined_spec(pmin)`` and ``ROUNDS_PER_LEADER``
— with the campaign seed taken from the workload seed and
``PLACEMENTS_PER_N`` sampled placements per group size (the reference
samples 18).  ``analysis.run_campaign(engine="batched")`` drains it
through a sweep manifest into a fresh ``file:`` store, and
``stream_aggregates`` folds the stored records into the Figure-2
summary.  It is the only workload that exercises the testbed PER-table
bridge, the per-cell engine path, cold allocation LPs and the store.

Checks: a fixed anchor campaign must reproduce its golden record and
aggregate digests; in every pass each manifest key must have a record,
a seeded sample of experiments re-run directly (no store, no queue)
must equal the stored records, and the streamed aggregates must equal
the ones summarised in memory from the campaign result.
"""

from __future__ import annotations

import dataclasses
import math
import os
import shutil
import sys
import tempfile
import time
from typing import List, Optional

import numpy as np

import run_reference_campaign as reference
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
    ROOT,
    Checks,
    RunResult,
    derived_seed,
    json_digest,
    peak_rss_mb,
    timed_median,
)
from perfbench.layers import layer_hooks
from perfbench.trace import Tracer, current_item
from repro.analysis import (
    placement_label,
    run_campaign,
    run_placement_experiment_batched,
    summarize_reliability,
)
from repro.store import SweepManifest, open_store
from repro.store.aggregate import stream_aggregates
from repro.store.records import experiment_record_to_json
from repro.testbed.estimator import calibrate_min_jam_loss

#: Sampled placements per group size in one pass (the reference: 18).
PLACEMENTS_PER_N = 3
#: Experiments per pass re-run directly and compared with the store.
EXPERIMENTS_CHECKED = 1
SETUP_REPEATS = 3
MANIFEST = reference.manifest_name("bench", "batched", "combined")
#: Fresh stores go in a temporary directory under this one, inside the checkout.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def campaign_config(seed: int, placements_per_n: int, group_sizes=None):
    config = reference.build_config(())
    config = dataclasses.replace(
        config, seed=seed, max_placements_per_n=placements_per_n
    )
    if group_sizes is not None:
        config = dataclasses.replace(config, group_sizes=tuple(group_sizes))
    return config


def setup():
    """The reference script's set-up: the testbed and its calibrated
    minimum jam loss."""
    testbed = reference.build_testbed()
    pmin = calibrate_min_jam_loss(testbed, np.random.default_rng(0), trials=250)
    return testbed, pmin


def sweep(testbed, pmin, config, store_dir: str, progress=None):
    """One campaign into a fresh store; ``(store, result, aggregates)``."""
    store = open_store("file:" + store_dir)
    result = run_campaign(
        testbed,
        config=config,
        engine="batched",
        store=store,
        manifest=MANIFEST,
        rounds_per_leader=reference.ROUNDS_PER_LEADER,
        estimator_spec=reference.combined_spec(pmin),
        progress=progress,
    )
    return store, result, stream_aggregates(store, manifest=MANIFEST)


def aggregates_view(groups) -> dict:
    """The Figure-2 summary per group size, as plain values."""
    return {
        str(n): [
            dataclasses.asdict(agg.reliability_summary()) if agg.reliability else None,
            agg.efficiency.minimum if agg.efficiency else None,
            agg.efficiency.mean if agg.efficiency else None,
        ]
        for n, agg in sorted(groups.items())
    }


def in_memory_view(result) -> dict:
    """The same summary computed from the in-memory campaign result."""
    view = {}
    for n in result.group_sizes():
        rels = result.reliabilities(n)
        effs = result.efficiencies(n)
        view[str(n)] = [
            dataclasses.asdict(summarize_reliability(n, rels)) if rels else None,
            min(effs) if effs else None,
            float(np.mean(effs)) if effs else None,
        ]
    return view


def views_match(a, b) -> bool:
    """Equal summaries: order statistics and counts exactly, means to
    1e-12 relative (the streaming accumulators and ``np.mean`` add in
    different orders, so a mean may differ in its last bit)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(views_match(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(views_match(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)
    return a == b


def records_digest(result) -> str:
    return json_digest([experiment_record_to_json(r) for r in result.records])


def anchor_digests(testbed, pmin, store_dir: str):
    seed, per_n, sizes = golden.FIG2_ANCHOR
    _, result, groups = sweep(testbed, pmin, campaign_config(seed, per_n, sizes), store_dir)
    return records_digest(result), json_digest(aggregates_view(groups))


def run(seed: int, seconds: float, trace: bool, import_s: float) -> RunResult:
    setup_s, (testbed, pmin) = timed_median(setup, SETUP_REPEATS)
    checks = Checks()
    report: List[str] = [f"min_jam_loss = {pmin:.4f}"]
    missing_records = []
    os.makedirs(WORK_ROOT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as work:
        records, aggregates = anchor_digests(testbed, pmin, os.path.join(work, "anchor"))
        checks.equal("anchor records digest", records, golden.FIG2_RECORDS_DIGEST)
        checks.equal("anchor aggregates digest", aggregates, golden.FIG2_AGGREGATES_DIGEST)

        def run_pass(index: int, tracer: Optional[Tracer]) -> PassOutput:
            config = campaign_config(derived_seed(seed, 20, index), PLACEMENTS_PER_N)
            store_dir = os.path.join(work, f"pass-{index}-{'traced' if tracer else 'plain'}")

            def progress(n, placement):
                current_item.set(placement_label(placement))

            clear_caches()
            t0 = time.perf_counter()
            store, result, groups = sweep(testbed, pmin, config, store_dir, progress)
            t1 = time.perf_counter()
            current_item.set(None)
            if tracer is not None:
                tracer.record("harness.pass", t0, t1, index)
            hits, misses, lp_misses = cache_counts()
            return PassOutput(
                index=index,
                timed_s=t1 - t0,
                items=len(result.records),
                digest=records_digest(result),
                flow_hits=hits,
                flow_misses=misses,
                lp_misses=lp_misses,
                payload=(config, store, store_dir, result, groups),
            )

        def check_pass(output: PassOutput) -> None:
            config, store, store_dir, result, groups = output.payload
            keys = SweepManifest.load(store, MANIFEST).keys()
            missing = [k for k in keys if store.load(k) is None]
            missing_records.extend(missing)
            checks.expect(
                not missing and len(keys) == len(result.records),
                f"pass {output.index}: {len(missing)} of {len(keys)} manifest keys have no record",
            )
            streamed, in_memory = aggregates_view(groups), in_memory_view(result)
            checks.expect(
                views_match(streamed, in_memory),
                f"pass {output.index}: streamed aggregates {streamed}"
                f" differ from in-memory {in_memory}",
            )
            rng = np.random.default_rng(derived_seed(seed, 21, output.index))
            spec = reference.combined_spec(pmin)
            for i in sorted(rng.choice(len(keys), size=EXPERIMENTS_CHECKED, replace=False)):
                record = result.records[i]
                direct = run_placement_experiment_batched(
                    testbed, record.placement, spec, config, reference.ROUNDS_PER_LEADER
                )
                checks.equal(
                    f"pass {output.index} experiment {i} direct vs stored",
                    experiment_record_to_json(direct),
                    store.load(keys[i]),
                )
            output.payload = None
            shutil.rmtree(store_dir, ignore_errors=True)

        if trace:
            hooks = layer_hooks(
                extra=[(sys.modules[__name__], "stream_aggregates", "analysis.aggregate", None)]
            )
            metrics, tracer, items = traced_metrics(
                run_pass, seconds, hooks, check_pass, report, checks
            )
            return RunResult(items, len(missing_records), metrics, checks, report, tracer)

        outputs = timed_passes(run_pass, seconds, check_pass)
    stats = summarise(outputs)
    report += [
        f"experiments_per_s = {stats['items_per_s']:.4f} 1/s"
        f" (median pass; {stats['items']} experiments in {stats['passes']} passes)",
        f"theory.realised_flow hit ratio {stats['flow_hit_ratio']:.4f}"
        f" ({stats['flow_hits']} hits, {stats['flow_misses']} misses);"
        f" allocation LP misses {stats['lp_misses']}",
        f"failed_frac = {len(missing_records) / stats['items']:.4f}",
    ]
    metrics = {
        "setup_s": (import_s + setup_s, "s"),
        "throughput_per_s": (stats["items_per_s"], "1/s"),
        "latency_p50_ms": (stats["pass_p50_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return RunResult(stats["items"], len(missing_records), metrics, checks, report)
