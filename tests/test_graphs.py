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
])
def test_simple_graph_rejects_bad_input(n, edges, tags, message):
    with pytest.raises(ValueError, match=message):
        SimpleGraph(n, edges, edge_tags=tags)
