import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netformtest as nt
from netformtest.graphs import (
    DataError,
    DuplicateArcWarning,
    cross_link_matrix,
    read_edge_csv,
    read_node_csv,
    reciprocity_index,
    transitivity_index,
)
from netformtest.cli import _arc_rows, _write_csv

from _fixtures import DyadCensus, arcs_of, dense_oracle, dyad_census_oracle, random_digraph

# Sizes on either side of the byte and 64-bit word boundaries of the bitmasks.
BOUNDARY_SIZES = (1, 2, 3, 7, 8, 9, 63, 64, 65, 96)


# -- construction -------------------------------------------------------------


def test_empty_edge_list_gives_zero_matrix():
    d = nt.from_edge_list([], 3)
    assert d.arc_count() == 0
    assert d.to_array().sum() == 0


def test_two_node_complete_digraph():
    d = nt.from_edge_list([(0, 1), (1, 0)], 2)
    assert d.to_array().tolist() == [[0, 1], [1, 0]]


def test_edge_list_round_trip_deduplicates():
    rng = random.Random(3)
    pairs = [(rng.randrange(10), rng.randrange(10)) for _ in range(200)]
    pairs = [(i, j) for i, j in pairs if i != j][:100]
    with pytest.warns(DuplicateArcWarning):
        d = nt.from_edge_list(pairs + pairs[:7], 10)
    assert sorted(arcs_of(d)) == sorted(set(pairs))


def test_self_loop_rejected():
    with pytest.raises(DataError):
        nt.from_edge_list([(2, 2)], 4)


def test_out_of_range_id_rejected():
    with pytest.raises(DataError):
        nt.from_edge_list([(0, 5)], 4)


def test_diagonal_flip_rejected():
    d = nt.AdjacencyMatrix(3)
    with pytest.raises(ValueError):
        d.set_arc(1, 1, True)


@pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64])
@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_from_dense_matches_the_set_arc_oracle(n, dtype):
    rng = np.random.default_rng(n)
    off = ~np.eye(n, dtype=bool)
    for dense in (rng.random((n, n)) < 0.3, rng.random((n, n)) < 0.8, off, ~off):
        dense = (dense & off).astype(dtype)
        d = nt.AdjacencyMatrix.from_dense(dense)
        expected = dense_oracle(dense)
        assert d.n == n
        assert d.rows == expected.rows
        assert d.cols == expected.cols


@pytest.mark.parametrize(
    "array, message",
    [
        (np.zeros((3, 4), dtype=np.uint8), "adjacency array must be square"),
        (np.zeros(3, dtype=np.uint8), "adjacency array must be square"),
        ([[0, 2], [1, 0]], "adjacency entries must be 0 or 1"),
        ([[0, -1], [1, 0]], "adjacency entries must be 0 or 1"),
        ([[0, 0.5], [1, 0]], "adjacency entries must be 0 or 1"),
        ([[0, 1, 0], [1, 0, 0], [0, 1, 1]], "self-loop at node 2"),
        (np.ones((4, 4), dtype=bool), "self-loop at node 0"),
        (np.zeros((0, 0), dtype=np.uint8), "need at least one node"),
    ],
)
def test_from_dense_rejects_malformed_arrays(array, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        nt.AdjacencyMatrix.from_dense(array)


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_asarray_is_a_fresh_copy_of_to_array(n):
    d = random_digraph(n, 0.4, random.Random(n))
    a = np.asarray(d)
    assert a.dtype == np.uint8 and np.array_equal(a, d.to_array())
    a[...] = 1
    assert np.array_equal(np.asarray(d), d.to_array())
    as_float = np.asarray(d, dtype=np.float64)
    assert as_float.dtype == np.float64 and np.array_equal(as_float, d.to_array())
    with pytest.raises(ValueError, match="only by copying"):
        np.array(d, copy=False)


def test_switch_arc_is_involution():
    d = nt.AdjacencyMatrix(4)
    d.set_arc(0, 2, True)
    before = d.key()
    d.set_arc(0, 2, False)
    d.set_arc(0, 2, True)
    assert d.key() == before


# -- sufficient statistics ------------------------------------------------------


def test_degree_sequence_empty_and_complete():
    empty = nt.AdjacencyMatrix(3)
    assert empty.out_degrees() == [0, 0, 0] and empty.in_degrees() == [0, 0, 0]
    complete = nt.AdjacencyMatrix.from_dense(1 - np.eye(3, dtype=int))
    assert complete.out_degrees() == [2, 2, 2] and complete.in_degrees() == [2, 2, 2]


def test_degree_sequence_matches_naive_recount():
    d = random_digraph(10, 0.35, random.Random(11))
    out = [sum(d.has_arc(i, j) for j in range(10) if j != i) for i in range(10)]
    into = [sum(d.has_arc(i, j) for i in range(10) if i != j) for j in range(10)]
    assert d.out_degrees() == out
    assert d.in_degrees() == into


def test_cross_link_matrix_single_group_is_total():
    d = random_digraph(7, 0.4, random.Random(5))
    m = cross_link_matrix(d, nt.GroupAssignment.single_group(7))
    assert m == ((d.arc_count(),),)


def test_cross_link_matrix_two_groups_example():
    # two boys {0,1}, two girls {2,3}; one arc within each gender
    d = nt.from_edge_list([(0, 1), (2, 3)], 4)
    g = nt.GroupAssignment((0, 0, 1, 1), 2)
    assert cross_link_matrix(d, g) == ((1, 0), (0, 1))


def test_cross_link_matrix_matches_brute_force():
    rng = random.Random(7)
    d = random_digraph(8, 0.45, rng)
    codes = tuple(rng.randrange(3) for _ in range(8))
    codes = codes[:5] + (0, 1, 2)  # force all groups non-empty
    g = nt.GroupAssignment(codes, 3)
    expected = [[0] * 3 for _ in range(3)]
    for i in range(8):
        for j in range(8):
            if i != j and d.has_arc(i, j):
                expected[codes[i]][codes[j]] += 1
    assert [list(row) for row in cross_link_matrix(d, g)] == expected


def test_arc_count_identities():
    d = random_digraph(9, 0.3, random.Random(13))
    m = cross_link_matrix(d, nt.GroupAssignment((0, 1, 2) * 3, 3))
    total = d.arc_count()
    assert sum(d.out_degrees()) == sum(d.in_degrees()) == sum(map(sum, m)) == total


# -- descriptive indices -----------------------------------------------------


def test_reciprocity_all_mutual_is_one():
    d = nt.from_edge_list([(0, 1), (1, 0), (2, 3), (3, 2)], 4)
    assert reciprocity_index(d) == 1.0


def test_reciprocity_single_arc_is_zero():
    d = nt.from_edge_list([(0, 1)], 3)
    assert reciprocity_index(d) == 0.0


def test_reciprocity_mixed_dyads():
    # 2 mutual dyads, 3 asymmetric dyads -> 2*2/(2*2+3)
    d = nt.from_edge_list(
        [(0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (1, 3), (3, 0)], 4
    )
    assert reciprocity_index(d) == pytest.approx(4 / 7)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 64, 65])
def test_reciprocity_index_is_the_dyad_census_ratio(n):
    rng = random.Random(n)
    for d in [random_digraph(n, p, rng) for p in (0.1, 0.5, 0.9)]:
        census = dyad_census_oracle(d)
        denom = 2 * census.mutual + census.asymmetric
        if denom:
            assert reciprocity_index(d) == 2 * census.mutual / denom
        else:
            assert math.isnan(reciprocity_index(d))


def test_reciprocity_undefined_on_empty():
    assert math.isnan(reciprocity_index(nt.AdjacencyMatrix(4)))


def test_transitivity_complete_digraph_is_one():
    d = nt.AdjacencyMatrix.from_dense(1 - np.eye(5, dtype=int))
    assert transitivity_index(d) == 1.0


def test_transitivity_open_path_is_zero():
    d = nt.from_edge_list([(0, 1), (1, 2)], 3)
    assert transitivity_index(d) == 0.0


def test_transitivity_undefined_without_two_paths():
    d = nt.from_edge_list([(0, 1)], 3)
    assert math.isnan(transitivity_index(d))


def test_transitivity_matches_triple_loop():
    d = random_digraph(10, 0.4, random.Random(17))
    closed = opened = 0
    for i in range(10):
        for k in range(10):
            for j in range(10):
                if i != k and k != j and i != j and d.has_arc(i, k) and d.has_arc(k, j):
                    opened += 1
                    closed += d.has_arc(i, j)
    assert transitivity_index(d) == pytest.approx(closed / opened)


def test_dyad_census_empty_and_complete():
    assert dyad_census_oracle(nt.AdjacencyMatrix(5)) == DyadCensus(0, 0, 10)
    complete = nt.AdjacencyMatrix.from_dense(1 - np.eye(5, dtype=int))
    assert dyad_census_oracle(complete) == DyadCensus(10, 0, 0)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 64, 65])
def test_dyad_census_matches_the_pair_scan(n):
    # reciprocity_index counts mutual dyads as half the ones of a & a.T.
    rng = random.Random(n)
    graphs = [random_digraph(n, p, rng) for p in (0.1, 0.5, 0.9)]
    graphs.append(nt.AdjacencyMatrix(n))
    graphs.append(nt.AdjacencyMatrix.from_dense(1 - np.eye(n, dtype=np.uint8)))
    for d in graphs:
        a = np.asarray(d)
        census = dyad_census_oracle(d)
        assert int((a & a.T).sum()) == 2 * census.mutual
        assert census.total() == n * (n - 1) // 2


def test_dyad_census_total_identity():
    census = dyad_census_oracle(random_digraph(12, 0.37, random.Random(19)))
    assert census.mutual + census.asymmetric + census.null == 66


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.data())
def test_census_and_degree_identities_hold(n, data):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    chosen = data.draw(st.sets(st.sampled_from(pairs)))
    d = nt.from_edge_list(sorted(chosen), n)
    census = dyad_census_oracle(d)
    assert sum(d.out_degrees()) == sum(d.in_degrees()) == d.arc_count() == len(chosen)
    assert census.mutual + census.asymmetric + census.null == n * (n - 1) // 2
    assert 2 * census.mutual + census.asymmetric == len(chosen)


# -- CSV interfaces -----------------------------------------------------------


def write_arcs(path, d, index_base=0):
    """Write ``d`` as the ``simulate`` command writes its edges.csv."""
    _write_csv(path, ["source", "target"], [(i, j) for _, i, j in _arc_rows([d], index_base)])


def test_edge_csv_round_trip(tmp_path):
    d = random_digraph(9, 0.4, random.Random(23))
    path = tmp_path / "edges.csv"
    write_arcs(path, d)
    assert sorted(read_edge_csv(path)) == sorted(arcs_of(d))


def test_edge_csv_one_based_round_trip(tmp_path):
    d = random_digraph(6, 0.5, random.Random(29))
    path = tmp_path / "edges.csv"
    write_arcs(path, d, index_base=1)
    raw = path.read_text().splitlines()
    assert "0" not in {cell for line in raw[1:] for cell in line.split(",")}
    assert sorted(read_edge_csv(path, index_base=1)) == sorted(arcs_of(d))


def test_edge_csv_bad_header_rejected(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("from,to\n0,1\n")
    with pytest.raises(DataError):
        read_edge_csv(path)


def test_edge_csv_malformed_row_reports_line_number(tmp_path):
    path = tmp_path / "edges.csv"
    path.write_text("source,target\n0,1\n2,x\n")
    with pytest.raises(DataError, match="line 3"):
        read_edge_csv(path)


def test_node_csv_round_trip(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("node,group\n0,1\n1,0\n2,1\n3,0\n")
    n, g = read_node_csv(path)
    assert n == 4
    assert g.codes == (1, 0, 1, 0)


def test_node_csv_missing_node_rejected(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("node,group\n0,0\n2,0\n")
    with pytest.raises(DataError):
        read_node_csv(path)


def test_group_assignment_relabels_arbitrary_labels():
    g = nt.GroupAssignment.from_labels(["west", "east", "west", "east"])
    assert g.n_groups == 2
    assert g.codes == (1, 0, 1, 0)


def test_group_assignment_caches_members_and_masks():
    g = nt.GroupAssignment((2, 0, 2, 1, 0, 2), 3)
    assert g.members == ((1, 4), (3,), (0, 2, 5))
    assert g.masks == (0b010010, 0b001000, 0b100101)
    assert nt.GroupAssignment.single_group(3).members == ((0, 1, 2),)


def test_group_assignment_rejects_empty_group():
    with pytest.raises(ValueError):
        nt.GroupAssignment((0, 0, 0), 2)
