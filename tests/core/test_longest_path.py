"""Unit tests for longest valid path extraction (Alg. 1 line 5)."""

import pytest

from repro.core import GraphError, LongestPathEngine, OpGraph
from repro.models.worked_examples import fig4_graph


class TestBasics:
    def test_single_vertex(self):
        g = OpGraph.from_edges({"a": 3.0}, [])
        p = LongestPathEngine(g).longest_valid_path({"a"})
        assert p.vertices == ("a",)
        assert p.length == 3.0
        assert len(p) == 1
        assert list(p) == ["a"]

    def test_chain_all_unscheduled(self):
        g = OpGraph.from_edges(
            {"a": 1, "b": 2, "c": 3}, [("a", "b", 0.5), ("b", "c", 0.5)]
        )
        p = LongestPathEngine(g).longest_valid_path({"a", "b", "c"})
        assert p.vertices == ("a", "b", "c")
        assert p.length == 1 + 0.5 + 2 + 0.5 + 3

    def test_picks_heavier_branch(self):
        g = OpGraph.from_edges(
            {"a": 1, "b": 10, "c": 1}, [("a", "b", 0.0), ("a", "c", 0.0)]
        )
        p = LongestPathEngine(g).longest_valid_path(set(g.names))
        assert p.vertices == ("a", "b")

    def test_empty_unscheduled_rejected(self):
        g = OpGraph.from_edges({"a": 1}, [])
        with pytest.raises(GraphError):
            LongestPathEngine(g).longest_valid_path(set())

    def test_unknown_vertex_rejected(self):
        g = OpGraph.from_edges({"a": 1}, [])
        with pytest.raises(GraphError):
            LongestPathEngine(g).longest_valid_path({"zz"})


class TestAnchors:
    def test_anchor_edges_count_toward_length(self):
        # a (scheduled) -> b -> c (scheduled): path {b} gains both
        # anchor edge weights
        g = OpGraph.from_edges(
            {"a": 1, "b": 2, "c": 1}, [("a", "b", 3.0), ("b", "c", 4.0)]
        )
        p = LongestPathEngine(g).longest_valid_path({"b"})
        assert p.vertices == ("b",)
        assert p.length == 3.0 + 2 + 4.0

    def test_best_anchor_chosen(self):
        g = OpGraph.from_edges(
            {"a": 1, "a2": 1, "b": 2},
            [("a", "b", 1.0), ("a2", "b", 5.0)],
        )
        p = LongestPathEngine(g).longest_valid_path({"b"})
        assert p.length == 5.0 + 2


class TestValidityConstraint:
    def test_fig4_second_path_avoids_scheduled_neighbor(self):
        """The paper's walk-through: after mapping v1 v2 v4 v6 v8, the
        longer candidate through v7 is invalid because its intermediate
        vertex v5 has an edge to the scheduled v6."""
        g = fig4_graph()
        engine = LongestPathEngine(g)
        p1 = engine.longest_valid_path(set(g.names))
        assert p1.vertices == ("v1", "v2", "v4", "v6", "v8")
        remaining = set(g.names) - set(p1.vertices)
        p2 = engine.longest_valid_path(remaining)
        assert p2.vertices == ("v3", "v5")
        # length: anchor e2 (1) + v3 (2) + e4 (1) + v5 (3) + anchor (1)
        assert p2.length == 8.0
        remaining -= set(p2.vertices)
        p3 = engine.longest_valid_path(remaining)
        assert p3.vertices == ("v7",)
        assert p3.length == 1 + 2 + 1  # e7 + v7 + e9

    def test_endpoints_exempt_from_constraint(self):
        # x (scheduled) <- a -> b, with a also feeding the scheduled y:
        # a is a path END or START, so it may touch scheduled vertices
        g = OpGraph.from_edges(
            {"x": 1, "a": 2, "b": 2, "y": 1},
            [("x", "a", 1.0), ("a", "b", 1.0), ("a", "y", 0.5)],
        )
        p = LongestPathEngine(g).longest_valid_path({"a", "b"})
        assert p.vertices == ("a", "b")

    def test_interior_vertex_touching_scheduled_blocks_path(self):
        # chain a -> b -> c where b also feeds scheduled s: the 3-vertex
        # path would make b interior (invalid); the best valid path
        # must stop or start at b.
        g = OpGraph.from_edges(
            {"a": 1, "b": 1, "c": 1, "s": 1},
            [("a", "b", 0.1), ("b", "c", 0.1), ("b", "s", 0.1)],
        )
        p = LongestPathEngine(g).longest_valid_path({"a", "b", "c"})
        assert set(p.vertices) != {"a", "b", "c"} or len(p.vertices) < 3
        # a->b is valid (b is the last vertex) and collects the b->s anchor
        assert p.vertices in (("a", "b"), ("b", "c"))


class TestDeterminism:
    def test_repeatable(self):
        g = fig4_graph()
        a = LongestPathEngine(g).longest_valid_path(set(g.names))
        b = LongestPathEngine(g).longest_valid_path(set(g.names))
        assert a.vertices == b.vertices
        assert a.length == b.length
