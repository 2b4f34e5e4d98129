"""Tests of the benchmark's output oracle against hand-worked values.

Run with ``python3 -m pytest releasebench/test_oracle.py``.  The oracle is
what every benchmark release is checked against, so it is tested on its
own, without the program.
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import oracle  # noqa: E402


def test_lof_hand_worked():
    # k = 2 on 0, 1, 2, 3, 10.  Neighbours (ties to the smaller position):
    #   0: {1, 2} k-dist 2    1: {0, 2} k-dist 1    2: {1, 3} k-dist 1
    #   3: {2, 1} k-dist 2   10: {3, 2} k-dist 8
    # Mean reach distances 1.5, 1.5, 1.5, 1.5 and (7 + 8) / 2 = 7.5, so
    # lrd = 2/3 for the first four and 2/15 for 10, whose LOF is
    # (2/3) / (2/15) = 5; the others have LOF 1.
    values = np.array([3.0, 10.0, 0.0, 2.0, 1.0])
    expected = np.array([1.0, 5.0, 1.0, 1.0, 1.0])
    assert np.allclose(oracle.lof_scores(values, k=2), expected)
    for pos in range(5):
        assert math.isclose(oracle.lof_score_at(values, pos, k=2), expected[pos])
    got = oracle.lof_outlier_positions(values, k=2, threshold=1.5, min_population=1)
    assert got.tolist() == [1]


def test_lof_duplicate_cluster():
    # k = 2 on 5, 5, 5, 5, 9: the copies of 5 have k-dist 0, so their mean
    # reach distance is 0 and lrd = inf; inf / inf counts as 1, so each
    # copy scores 1.  For 9 both neighbours are at distance 4 (reach 4,
    # lrd 1/4) and its LOF is inf / (1/4) = inf.
    values = np.array([5.0, 5.0, 9.0, 5.0, 5.0])
    scores = oracle.lof_scores(values, k=2)
    assert scores[[0, 1, 3, 4]].tolist() == [1.0, 1.0, 1.0, 1.0]
    assert math.isinf(scores[2])
    assert math.isinf(oracle.lof_score_at(values, 2, k=2))
    assert oracle.is_lof_outlier(values, 2, k=2, min_population=1)
    assert not oracle.is_lof_outlier(values, 0, k=2, min_population=1)


@pytest.mark.parametrize("seed", range(6))
def test_local_score_matches_full_scores_on_duplicate_heavy_input(seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 5, size=40).astype(float)
    values[rng.integers(0, 40)] = 30.0
    full = oracle.lof_scores(values, k=10)
    for pos in range(len(values)):
        local = oracle.lof_score_at(values, pos, k=10)
        assert local == full[pos] or (math.isnan(local) and math.isnan(full[pos]))


def test_small_populations_have_no_outliers():
    values = np.array([1.0] * 9 + [100.0])
    assert oracle.lof_outlier_positions(values).size == 0
    assert not oracle.is_lof_outlier(values, 9)


def test_population_and_record_bits_from_codes():
    # Two attributes with 2 and 3 values: bits 0-1 and 2-4.
    table = oracle.Table(
        codes=[np.array([0, 1, 0, 1]), np.array([2, 2, 0, 1])],
        sizes=[2, 3],
        metric=np.array([1.0, 2.0, 3.0, 4.0]),
        ids=np.array([10, 11, 12, 13]),
    )
    assert table.record_bits(10) == (1 << 0) | (1 << 4)
    assert table.record_bits(13) == (1 << 1) | (1 << 3)
    # Attribute 0 = value 0, attribute 1 in {value 0, value 2}.
    assert table.population(0b10101).tolist() == [0, 2]
    # An attribute with no selected value selects nothing.
    assert table.population(0b00011).tolist() == []
    grown = table.append([np.array([0]), np.array([2])], np.array([5.0]), np.array([14]))
    assert grown.population(0b10101).tolist() == [0, 2, 4]
    assert len(table) == 4


def test_check_release_reports_each_fault():
    metric = np.array([10.0] * 12 + [50.0])
    table = oracle.Table([np.zeros(13, dtype=int)], [1], metric, np.arange(13))
    assert oracle.check_release(table, 12, 0b1, 13.0) == []
    assert "holds 13 records" in oracle.check_release(table, 12, 0b1, 12.0)[0]
    assert "not a LOF outlier" in oracle.check_release(table, 0, 0b1, 13.0)[0]
