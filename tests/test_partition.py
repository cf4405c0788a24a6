"""Unit tests for the Bipartition value object and its measures."""

import pytest

from repro.core.hypergraph import Hypergraph
from repro.core.partition import Bipartition, PartitionError, bipartition_from_sides


@pytest.fixture
def square():
    """4-cycle of 2-pin nets: modules 1-2-3-4-1."""
    return Hypergraph(
        edges={"e12": [1, 2], "e23": [2, 3], "e34": [3, 4], "e41": [4, 1]}
    )


class TestValidity:
    def test_valid(self, square):
        bp = Bipartition(square, {1, 2}, {3, 4})
        assert bp.left == frozenset({1, 2})

    def test_overlap_rejected(self, square):
        with pytest.raises(PartitionError):
            Bipartition(square, {1, 2}, {2, 3, 4})

    def test_missing_vertex_rejected(self, square):
        with pytest.raises(PartitionError):
            Bipartition(square, {1, 2}, {3})

    def test_extra_vertex_rejected(self, square):
        with pytest.raises(PartitionError):
            Bipartition(square, {1, 2, 99}, {3, 4})

    def test_empty_side_rejected(self, square):
        with pytest.raises(PartitionError):
            Bipartition(square, set(), {1, 2, 3, 4})

    def test_single_vertex_hypergraph_allows_empty_side(self):
        h = Hypergraph(vertices=["only"])
        bp = Bipartition(h, {"only"}, set())
        assert bp.cutsize == 0

    def test_from_sides_helper(self, square):
        bp = bipartition_from_sides(square, [1, 2])
        assert bp.right == frozenset({3, 4})


class TestCutMeasures:
    def test_adjacent_split(self, square):
        bp = Bipartition(square, {1, 2}, {3, 4})
        assert bp.cutsize == 2
        assert bp.crossing_edges == frozenset({"e23", "e41"})

    def test_opposite_split(self, square):
        bp = Bipartition(square, {1, 3}, {2, 4})
        assert bp.cutsize == 4

    def test_edge_crosses(self, square):
        bp = Bipartition(square, {1, 2}, {3, 4})
        assert bp.edge_crosses("e23")
        assert not bp.edge_crosses("e12")

    def test_weighted_cutsize(self):
        h = Hypergraph()
        h.add_edge([1, 2], name="x", weight=5.0)
        h.add_edge([1, 3], name="y", weight=2.0)
        bp = Bipartition(h, {1}, {2, 3})
        assert bp.weighted_cutsize == 7.0

    def test_singleton_edge_never_crosses(self):
        h = Hypergraph(edges={"s": [1]}, vertices=[1, 2])
        bp = Bipartition(h, {1}, {2})
        assert bp.cutsize == 0

    def test_swapped_same_cut(self, square):
        bp = Bipartition(square, {1, 2}, {3, 4})
        assert bp.swapped().cutsize == bp.cutsize
        assert bp.swapped() == bp

    def test_move(self, square):
        bp = Bipartition(square, {1, 2}, {3, 4})
        moved = bp.move(2)
        assert moved.left == frozenset({1})
        assert moved.cutsize == 2
        with pytest.raises(PartitionError):
            bp.move(99)


class TestBalanceMeasures:
    def test_bisection(self, square):
        assert Bipartition(square, {1, 2}, {3, 4}).is_bisection()
        h5 = Hypergraph(vertices=range(5))
        assert Bipartition(h5, {0, 1}, {2, 3, 4}).is_bisection()
        assert not Bipartition(h5, {0}, {1, 2, 3, 4}).is_bisection()

    def test_r_bipartition(self, square):
        bp = Bipartition(square, {1}, {2, 3, 4})
        assert bp.cardinality_imbalance == 2
        assert bp.satisfies_r_bipartition(2)
        assert not bp.satisfies_r_bipartition(1)
        with pytest.raises(ValueError):
            bp.satisfies_r_bipartition(-1)

    def test_weight_balance(self):
        h = Hypergraph(vertices=[1, 2, 3])
        h.set_vertex_weight(1, 4.0)
        bp = Bipartition(h, {1}, {2, 3})
        assert bp.left_weight == 4.0
        assert bp.right_weight == 2.0
        assert bp.weight_imbalance == 2.0
        assert bp.weight_imbalance_fraction == pytest.approx(2.0 / 6.0)


class TestAlternativeObjectives:
    def test_quotient_cut(self, square):
        bp = Bipartition(square, {1}, {2, 3, 4})
        assert bp.quotient_cut == 2.0  # cut 2 / min side 1

    def test_ratio_cut(self, square):
        bp = Bipartition(square, {1, 2}, {3, 4})
        assert bp.ratio_cut == pytest.approx(2 / 4)

    def test_one_vertex_quotient_infinite(self):
        h = Hypergraph(vertices=["v"])
        bp = Bipartition(h, {"v"}, set())
        assert bp.quotient_cut == float("inf")
        assert bp.ratio_cut == float("inf")


class TestMisc:
    def test_side_of(self, square):
        bp = Bipartition(square, {1, 2}, {3, 4})
        assert bp.side_of(1) == "L"
        assert bp.side_of(4) == "R"
        with pytest.raises(PartitionError):
            bp.side_of(99)

    def test_as_dict(self, square):
        bp = Bipartition(square, {1, 2}, {3, 4})
        d = bp.as_dict()
        assert d[1] == "L" and d[3] == "R"
        assert len(d) == 4

    def test_hash_symmetric(self, square):
        bp = Bipartition(square, {1, 2}, {3, 4})
        assert hash(bp) == hash(bp.swapped())
        assert len({bp, bp.swapped()}) == 1

    def test_eq_other_type(self, square):
        assert Bipartition(square, {1, 2}, {3, 4}) != "nope"

    def test_repr(self, square):
        assert "cutsize=2" in repr(Bipartition(square, {1, 2}, {3, 4}))


class TestCutTotals:
    def test_cut_measures_leave_crossing_edges_unbuilt(self):
        h = Hypergraph(edges={"a": [1, 2], "b": [2, 3], "c": [3, 4]})
        h.add_edge([1, 4], name="d", weight=0.1)
        bp = Bipartition(h, {1, 2}, {3, 4})
        assert (bp.cutsize, bp.weighted_cutsize) == (2, 1.1)
        assert "crossing_edges" not in vars(bp)
        assert bp.crossing_edges == {"b", "d"}
