"""The checking constructor of SimpleGraph."""

import pytest

from tricirc.graphs import SimpleGraph


@pytest.mark.parametrize("n, edges, tags, message", [
    (-1, [], None, "non-negative"),
    (3, [(0, 3)], None, "out of range"),
    (3, [(1, 1)], None, "loop at vertex 1"),
    (3, [(0, 1), (1, 0)], None, "parallel edge"),
    (3, [(0, 1)], {(1, 2): "R"}, "tag on non-edge"),
    (3, [(0, 1), (1, 2)], {(-1, 1): "x"}, "tag on non-edge"),
    (3, [(0, 1), (1, 2)], {(-5, 1): "x"}, "tag on non-edge"),
    (2, [(0, 1)], {(0, 1): "a", (1, 0): "b"}, r"conflicting tags on edge \(0, 1\)"),
])
def test_simple_graph_rejects_bad_input(n, edges, tags, message):
    with pytest.raises(ValueError, match=message):
        SimpleGraph(n, edges, edge_tags=tags)


def test_the_same_tag_given_twice_is_legal():
    g = SimpleGraph(2, [(0, 1)], edge_tags={(0, 1): "a", (1, 0): "a"})
    assert g.edge_tags == {(0, 1): "a"}
