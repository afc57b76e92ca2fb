"""Cross-cell batched accounting: one pattern-table pass over many cells.

A campaign grid holds many cells that differ only along axes the
reception tensor never sees (estimator policy, slack, z-cost).  Cells
sharing a **stack signature** — ``(n_terminals, loss model, adversary,
n_x_packets)`` — have reception tensors of identical shape drawn from
the same channel law, so their rounds can be stacked into one
``(sum_of_rounds, r, N)`` tensor and fed through the pattern-histogram
``bincount`` and the subset-lattice zeta transforms
(:func:`~repro.sim.engine.pattern_tables`) **once per group** instead
of once per cell.  That is the whole difference from the per-cell
path: each cell's planning, realised assignment and epilogue then run
in :meth:`~repro.sim.engine.BatchedRoundEngine.account_rounds`, the
engine's own accounting, on the cell's row range of the stacked
tables.

Seed discipline (the bit-identity contract):

* Every cell keeps its private generator, derived exactly as the
  per-cell path derives it (``SeedSequence(entropy=campaign_seed,
  spawn_key=content-hash(cell))``).  The stacked reception tensor is
  **shared storage, not shared randomness**: each cell's block is
  filled by the very same :func:`~repro.sim.reception.sample_receptions`
  call the per-cell engine would make, from the cell's own generator.
* The engine consumes its generator in a fixed order — reception tensor
  first, then one hypergeometric draw per (active subset, contributing
  cell) pair per round — and the stacked path preserves that order
  per cell exactly.

Every pattern table is row-wise in the rounds, so a cell's slice of the
stacked tables equals the tables of its own batch, and every stored
shard, resumed campaign, and aggregate is bit-identical between the
stacked and per-cell paths; the equivalence suite
(``tests/sim/test_stack.py``) and ``scripts/check_sweep_equivalence.py``
pin this byte-for-byte.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.sim.engine import BatchResult, BatchedRoundEngine, pattern_tables
from repro.sim.reception import ReceptionBatch, sample_receptions_stacked
from repro.sim.spec import Scenario

# Only trace points for perfbench/layers.py; the kernel calls them via repro.sim.engine.
from repro.theory.allocation import realised_support_flow  # noqa: F401
from repro.theory.efficiency import group_allocation_profile  # noqa: F401

__all__ = ["stack_signature", "group_cells", "run_stacked_batch"]


def stack_signature(scenario: Scenario) -> tuple:
    """The axes a reception tensor depends on: cells agreeing on these
    may share one stacked draw pass (never random values — each cell
    keeps its content-keyed stream)."""
    return (
        scenario.n_terminals,
        scenario.loss,
        scenario.adversary,
        scenario.n_x_packets,
    )


def group_cells(scenarios: Sequence[Scenario]) -> List[List[int]]:
    """Partition cell indices by :func:`stack_signature`.

    Groups appear in first-occurrence order and preserve cell order
    within each group; grouping affects kernel batching only, never
    results (every cell's generator is content-keyed).
    """
    groups: Dict[tuple, List[int]] = {}
    for index, scenario in enumerate(scenarios):
        groups.setdefault(stack_signature(scenario), []).append(index)
    return list(groups.values())


def run_stacked_batch(
    scenarios: Sequence[Scenario],
    rngs: Sequence[np.random.Generator],
) -> List[BatchResult]:
    """Run one stacked accounting pass over same-signature cells.

    Args:
        scenarios: the cells, all sharing one :func:`stack_signature`.
        rngs: each cell's private generator, consumed exactly as the
            per-cell engine would (reception first, then per-round
            hypergeometric draws).

    Returns:
        One :class:`~repro.sim.engine.BatchResult` per cell, in order,
        bit-identical to ``BatchedRoundEngine(cell, rng=rng).run()``.
    """
    scenarios = list(scenarios)
    rngs = list(rngs)
    if not scenarios:
        return []
    if len(rngs) != len(scenarios):
        raise ValueError("need exactly one generator per scenario")
    signature = stack_signature(scenarios[0])
    for scenario in scenarios[1:]:
        if stack_signature(scenario) != signature:
            raise ValueError(
                "stacked cells must share (n_terminals, loss, adversary, "
                "n_x_packets); group with group_cells() first"
            )
    engines = [
        BatchedRoundEngine(scenario, rng=rng)
        for scenario, rng in zip(scenarios, rngs)
    ]

    # One stacked reception tensor for the whole group (each cell's
    # block from its own generator), then the histogram and both zeta
    # transforms once over every round of every cell; each cell's
    # accounting reads its own row range.
    batch, segments = sample_receptions_stacked(scenarios, rngs)
    tables = pattern_tables(batch)
    return [
        engine.account_rounds(
            ReceptionBatch(
                terminals=batch.terminals[start:stop], eve=batch.eve[start:stop]
            ),
            tuple(table[start:stop] for table in tables),
        )
        for engine, (start, stop) in zip(engines, segments)
    ]
