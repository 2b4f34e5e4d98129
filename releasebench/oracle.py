"""Independent output oracle for the release benchmark.

Every release the benchmark makes is checked against values computed here,
from the raw attribute codes and metric values of the dataset, with plain
numpy.  Nothing in this module calls the program's mask index, profile
store or detectors, so a fault in any of them cannot hide behind itself.

* :class:`Table` — one dataset version as raw columns.  A context's
  population is the records whose code of every attribute is one of the
  values the context selects (the paper's AND-of-OR filter, Section 3).
* :func:`lof_scores` / :func:`lof_score_at` — brute-force 1-d Local Outlier
  Factor.  Each point's neighbours are found by sorting its distance to
  every other point, not by a window: exactly ``k`` neighbours, ties broken
  by smaller distance first, then smaller position in the stably sorted
  values.  That is the tie rule documented in ``repro/outliers/lof.py``;
  in one dimension tied candidates beyond a ±k window are copies of values
  inside it, so both give the same scores.  Duplicate clusters follow the
  same conventions: ``k-dist = 0`` gives ``lrd = inf`` and ``inf/inf``
  contributes 1.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: LOF parameters of the paper-default pipeline the benchmark releases with.
LOF_K = 10
LOF_THRESHOLD = 1.5
#: Populations smaller than this have no outliers: LOF needs more than k
#: points, and the program's detectors declare populations below 10 clean.
MIN_POPULATION = max(10, LOF_K + 1)


class Table:
    """Raw columns of one dataset version.

    ``codes`` holds one integer code column per categorical attribute, in
    schema order; ``sizes`` the domain size of each attribute, so attribute
    ``i`` owns context bits ``sum(sizes[:i]) .. sum(sizes[:i+1]) - 1``.
    """

    def __init__(
        self,
        codes: Sequence[np.ndarray],
        sizes: Sequence[int],
        metric: np.ndarray,
        ids: np.ndarray,
    ):
        self.codes = [np.asarray(c, dtype=np.int64) for c in codes]
        self.sizes = [int(s) for s in sizes]
        self.metric = np.asarray(metric, dtype=np.float64)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.offsets = [int(o) for o in np.cumsum([0] + self.sizes[:-1])]
        self._position = {int(r): p for p, r in enumerate(self.ids)}

    def __len__(self) -> int:
        return int(self.metric.shape[0])

    def append(self, codes: Sequence[np.ndarray], metric: np.ndarray, ids: np.ndarray) -> "Table":
        """The table grown by appended rows (a new object)."""
        return Table(
            [np.concatenate([a, np.asarray(b, dtype=np.int64)]) for a, b in zip(self.codes, codes)],
            self.sizes,
            np.concatenate([self.metric, np.asarray(metric, dtype=np.float64)]),
            np.concatenate([self.ids, np.asarray(ids, dtype=np.int64)]),
        )

    def position_of(self, record_id: int) -> int:
        return self._position[int(record_id)]

    def record_bits(self, record_id: int) -> int:
        """Bits of the record's exact context: its own value of every attribute."""
        pos = self.position_of(record_id)
        return sum(1 << (off + int(col[pos])) for off, col in zip(self.offsets, self.codes))

    def population(self, bits: int) -> np.ndarray:
        """Row positions selected by context ``bits``, ascending."""
        mask = np.ones(len(self), dtype=bool)
        for off, size, col in zip(self.offsets, self.sizes, self.codes):
            selected = [j for j in range(size) if (bits >> (off + j)) & 1]
            mask &= np.isin(col, selected)
        return np.flatnonzero(mask)

    def cells(self) -> Dict[Tuple[int, ...], np.ndarray]:
        """Row positions grouped by exact context (one code per attribute)."""
        keys = np.stack(self.codes, axis=1)
        out: Dict[Tuple[int, ...], List[int]] = {}
        for pos, key in enumerate(map(tuple, keys.tolist())):
            out.setdefault(key, []).append(pos)
        return {key: np.asarray(rows) for key, rows in out.items()}


def _neighbours(sorted_values: np.ndarray, i: int, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """The k nearest sorted positions to ``i`` and their distances, by
    brute force: stable sort on distance over every other point, so ties
    go to the smaller sorted position."""
    dist = np.abs(sorted_values - sorted_values[i])
    dist[i] = np.inf
    nbr = np.argsort(dist, kind="stable")[:k]
    return nbr, dist[nbr]


def _ratios(lrd_neighbours: np.ndarray, lrd_self: float) -> np.ndarray:
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        ratios = lrd_neighbours / lrd_self
    return np.where(np.isnan(ratios), 1.0, ratios)


def _lrd(reach: np.ndarray) -> np.ndarray:
    mean_reach = reach.mean(axis=-1)
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(mean_reach > 0.0, 1.0 / mean_reach, np.inf)


def lof_scores(values: np.ndarray, k: int = LOF_K) -> np.ndarray:
    """LOF score of every value (brute-force neighbours, O(n^2 log n))."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.shape[0]
    if n <= k:
        raise ValueError(f"LOF needs more than k={k} points, got {n}")
    order = np.argsort(arr, kind="stable")
    sv = arr[order]
    nbr = np.empty((n, k), dtype=np.int64)
    nbr_dist = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        nbr[i], nbr_dist[i] = _neighbours(sv, i, k)
    k_dist = nbr_dist[:, -1]
    lrd = _lrd(np.maximum(k_dist[nbr], nbr_dist))
    scores_sorted = _ratios(lrd[nbr], lrd[:, None]).mean(axis=1)
    scores = np.empty(n, dtype=np.float64)
    scores[order] = scores_sorted
    return scores


def lof_score_at(values: np.ndarray, position: int, k: int = LOF_K) -> float:
    """LOF score of one value, computing only the neighbourhoods it needs
    (its neighbours, theirs, and their k-distances): O(k^2 n log n)."""
    arr = np.asarray(values, dtype=np.float64)
    n = arr.shape[0]
    if n <= k:
        raise ValueError(f"LOF needs more than k={k} points, got {n}")
    order = np.argsort(arr, kind="stable")
    sv = arr[order]
    rank = int(np.flatnonzero(order == position)[0])
    found: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def neighbours(i: int) -> Tuple[np.ndarray, np.ndarray]:
        if i not in found:
            found[i] = _neighbours(sv, i, k)
        return found[i]

    def lrd(i: int) -> float:
        nbr, dist = neighbours(i)
        k_dist = np.array([neighbours(int(q))[1][-1] for q in nbr])
        return float(_lrd(np.maximum(k_dist, dist)))

    nbr, _ = neighbours(rank)
    lrd_nbr = np.array([lrd(int(o)) for o in nbr])
    return float(_ratios(lrd_nbr, lrd(rank)).mean())


def lof_outlier_positions(
    values: np.ndarray,
    k: int = LOF_K,
    threshold: float = LOF_THRESHOLD,
    min_population: int = MIN_POPULATION,
) -> np.ndarray:
    """Positions (into ``values``) whose LOF score exceeds ``threshold``."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape[0] < min_population:
        return np.empty(0, dtype=np.int64)
    return np.flatnonzero(lof_scores(arr, k) > threshold)


def is_lof_outlier(
    values: np.ndarray,
    position: int,
    k: int = LOF_K,
    threshold: float = LOF_THRESHOLD,
    min_population: int = MIN_POPULATION,
) -> bool:
    """Is ``values[position]`` an outlier of ``values``?"""
    if len(values) < min_population:
        return False
    return lof_score_at(values, position, k) > threshold


def exact_context_outliers(table: Table) -> List[int]:
    """Ids of records that are outliers within their own exact context,
    ascending — the records every workload queries."""
    out: List[int] = []
    for rows in table.cells().values():
        for p in lof_outlier_positions(table.metric[rows]):
            out.append(int(table.ids[rows[p]]))
    return sorted(out)


def check_release(table: Table, record_id: int, bits: int, utility_value: float) -> List[str]:
    """Problems with one released context (an empty list when correct).

    The context must contain the queried record, its population must be
    the reported utility (population-size utility), and the record must be
    a LOF outlier of that population.
    """
    problems: List[str] = []
    record_bits = table.record_bits(record_id)
    if (record_bits & bits) != record_bits:
        problems.append(f"record {record_id}: context {bits:#x} does not contain it")
        return problems
    rows = table.population(bits)
    if float(len(rows)) != float(utility_value):
        problems.append(
            f"record {record_id}: context {bits:#x} holds {len(rows)} records "
            f"but the release reports utility {utility_value}"
        )
    where = int(np.flatnonzero(rows == table.position_of(record_id))[0])
    if not is_lof_outlier(table.metric[rows], where):
        problems.append(f"record {record_id}: not a LOF outlier in context {bits:#x}")
    return problems
