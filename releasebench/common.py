"""Inputs and statistics shared by the release benchmark's workloads.

Every workload uses the paper-default pipeline on the reduced salary table
(PAPER.md, Section 6): ``salary_reduced`` with n = 2000 records and t = 14
attribute values, LOF with k = 10 and threshold 1.5, BFS sampling with
n_samples = 50, population-size utility and epsilon = 0.2.
"""

from __future__ import annotations

import math
import zlib
from typing import Dict, List, Sequence

import numpy as np

#: The served table: the README's example dataset.
N_RECORDS = 2000
DATASET_SEED = 7

SPEC = {
    "detector": "lof",
    "detector_kwargs": {"k": 10, "threshold": 1.5},
    "sampler": "bfs",
    "n_samples": 50,
    "utility": "population_size",
    "epsilon": 0.2,
}

def workload_rng(seed: int, workload: str, stream: str) -> np.random.Generator:
    """An independent generator per (run seed, workload, input stream)."""
    key = [int(seed), zlib.crc32(workload.encode()), zlib.crc32(stream.encode())]
    return np.random.default_rng(np.random.SeedSequence(key))


def release_seeds(rng: np.random.Generator, n: int) -> List[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def evenly_spaced(items: Sequence[int], n: int, keep=None) -> List[int]:
    """``n`` items spread evenly over ``items`` (all of them if fewer).

    With ``keep``, a pick that fails it is replaced by the next item that
    passes and is not picked yet, so a few rejected items leave the rest
    of the choice unchanged.
    """
    chosen: List[int] = []
    for i in range(min(n, len(items))):
        j = (i * len(items)) // n
        while j < len(items) and (items[j] in chosen or (keep is not None and not keep(items[j]))):
            j += 1
        if j < len(items):
            chosen.append(items[j])
    return chosen


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-th percentile by nearest rank; a failed operation is +inf."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_figures(latencies_s: Sequence[float], horizon_s: float) -> Dict[str, float]:
    """p50 and p90 in ms.  A failed operation (latency +inf) counts as
    missing every figure; a percentile that lands on one reports the
    whole timed phase, the least it could have taken."""

    def figure(q: float) -> float:
        value = nearest_rank(latencies_s, q)
        return (horizon_s if math.isinf(value) else value) * 1000.0

    return {"p50": figure(50), "p90": figure(90)}
