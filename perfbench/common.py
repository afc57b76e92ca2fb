"""Shared pieces of the workloads: digests, checks, results."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import resource
import statistics
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

#: Root of the checkout the benchmark runs in.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The end-to-end metrics every untraced run prints: name, unit, and
#: which direction is better.
END_TO_END_METRICS = (
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

# -- digests and checks -------------------------------------------------------


def array_digest(arrays: Iterable[np.ndarray]) -> str:
    """SHA-256 over the dtype, shape and bytes of each array, in order."""
    h = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        h.update(array.dtype.str.encode())
        h.update(repr(array.shape).encode())
        h.update(array.tobytes())
    return h.hexdigest()


def json_digest(value: Any) -> str:
    """SHA-256 of a canonical JSON rendering (floats by ``repr``)."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Correctness checks of one run; any failure fails the run."""

    def __init__(self) -> None:
        self.passed = 0
        self.failures: List[str] = []

    def expect(self, condition: bool, message: str) -> bool:
        if condition:
            self.passed += 1
        else:
            self.failures.append(message)
        return bool(condition)

    def equal(self, what: str, actual: Any, expected: Any) -> bool:
        return self.expect(
            actual == expected, f"{what}: got {actual!r}, expected {expected!r}"
        )

    @property
    def ok(self) -> bool:
        return not self.failures and self.passed > 0


# -- results ----------------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    """What a workload hands back to ``run.py``."""

    attempted: int
    failed: int
    metrics: Dict[str, Tuple[float, str]]
    checks: Checks
    report: List[str] = dataclasses.field(default_factory=list)
    #: The traced run's spans, written out by ``run.py``.
    tracer: Optional[Any] = None


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_median(fn: Callable[[], Any], repeats: int) -> Tuple[float, Any]:
    """Run ``fn`` ``repeats`` times; the median wall time and the last
    result."""
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def derived_seed(seed: int, *labels: int) -> int:
    """A 63-bit seed for one labelled use of the workload seed."""
    state = np.random.SeedSequence(entropy=seed % 2**64, spawn_key=tuple(labels))
    return int(state.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))
