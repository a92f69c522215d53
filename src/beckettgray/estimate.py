"""Monte-Carlo backtrack-tree size estimation (Knuth's method).

Each probe walks from the root to a leaf, choosing uniformly among the
pruned children; the running product of branching factors gives an
unbiased estimate of the number of nodes at each level, and their sum an
unbiased estimate of the whole tree size.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from .search import SearchConfig, SearchState, enumerate_beckett


@dataclass(frozen=True)
class EstimateReport:
    n: int
    mode: str
    samples: int
    mean_nodes: float
    stderr: float
    log2_mean: float
    rng_seed: int


def _probe(state: SearchState, rng: random.Random) -> float:
    nodes = prod = 1.0
    for k in state.descend(rng, 1 << state.n):  # no node lies deeper
        prod *= k
        nodes += prod
    return nodes


def estimate_tree_size(
    config: SearchConfig, samples: int, rng_seed: int
) -> EstimateReport:
    """Estimate the pruned search-tree size from random root-to-leaf probes."""
    if not all(isinstance(value, int) for value in (samples, rng_seed)):
        raise ValueError(f"samples={samples!r} and rng_seed={rng_seed!r} must be ints")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(rng_seed)
    total = 0.0
    total_sq = 0.0
    for _ in range(samples):
        state = SearchState.from_prefix(config.n, config.prefix)
        est = _probe(state, rng)
        total += est
        total_sq += est * est
    mean = total / samples
    if samples > 1:
        var = max(0.0, (total_sq - samples * mean * mean) / (samples - 1))
        stderr = math.sqrt(var / samples)
    else:
        stderr = 0.0
    return EstimateReport(
        n=config.n,
        mode=config.mode,
        samples=samples,
        mean_nodes=mean,
        stderr=stderr,
        log2_mean=math.log2(mean),
        rng_seed=rng_seed,
    )


def exact_tree_size(config: SearchConfig) -> int:
    """Exact node count of the pruned tree (ground truth for the estimator)."""
    if config.n > 5:
        raise ValueError("exact tree size limited to n <= 5")
    report = enumerate_beckett(replace(config, emit="count-only"))
    if report.truncated:
        raise RuntimeError("exact tree count truncated by budget")
    return report.nodes_visited
