"""Tests of the benchmark's own scoring and tracing code."""

import numpy as np

import tracing
from blockdpp import map_inference as mi
from blockdpp import matrix_core as mc
from scoring import (is_increasing_inside, is_index_set, match_count,
                     precision_recall_f1, tail)


def test_repeated_detection_is_a_false_positive():
    prc, rcl, _ = precision_recall_f1([100, 100], [100, 300], 50)
    assert prc == 0.5 and rcl == 0.5


def test_matching_is_one_to_one_by_distance():
    assert match_count([95, 104], [100], 10) == 1
    assert match_count([95, 104], [100, 106], 10) == 2
    assert precision_recall_f1([], [], 5) == (1.0, 1.0, 1.0)
    assert precision_recall_f1([], [10], 5) == (0.0, 0.0, 0.0)


def test_tail_leaves_ten_samples_beyond():
    pct, v = tail(list(range(20)))
    assert v == 9 and sum(x > v for x in range(20)) == 10 and pct == 50.0
    assert tail(range(10)) == (None, None)


def test_index_set_check():
    assert is_index_set(np.array([0, 2, 5]), 6)
    assert not is_index_set(np.array([0, 2, 2]), 6)
    assert not is_index_set(np.array([0, 6]), 6)
    assert not is_index_set(np.array([0.0, 1.0]), 6)
    assert is_index_set(np.array([], dtype=np.int64), 0)


def test_time_sequence_check():
    assert is_increasing_inside(np.array([0.0, 2.5, 10.0]), 0.0, 10.0)
    assert not is_increasing_inside(np.array([1.0, 1.0]), 0.0, 10.0)
    assert not is_increasing_inside(np.array([1.0, 10.5]), 0.0, 10.0)
    assert not is_increasing_inside(np.array([[1.0]]), 0.0, 10.0)


def test_tracer_records_nested_spans_and_restores_functions():
    orig = mc.as_matrix
    tr = tracing.Tracer()
    with tracing.instrumented(tr), tr.op("full", "full"):
        sel = mi.greedy_map(2.0 * np.eye(3))
    assert mc.as_matrix is orig and sel.tolist() == [0, 1, 2]
    by_id = {s[1]: s for s in tr.spans}
    greedy = [s for s in tr.spans if s[3] == "map_inference.greedy_map"]
    check = [s for s in tr.spans if s[3] == "matrix_core.as_matrix"]
    assert len(greedy) == 1 and len(check) == 1
    assert by_id[check[0][2]][3] == "map_inference.greedy_map"
    m = tracing.per_layer(tr, 1, [(1.0, 1.0)])
    assert set(m) == set(tracing.PER_LAYER)
    assert m["map_inference.picks"]["value"] == 3
    assert m["map_inference.picks_frac"]["value"] == 1.0
    assert m["matrix_core.as_matrix.calls"]["value"] == 1
