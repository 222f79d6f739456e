"""The rooted extension search: the sweep's vertex-transitivity decider and
its naming of classes, against the IR search, with every map it returns
checked by adjacency alone."""

import random

import pytest

from tricirc.families import (
    FamilyParams,
    moebius,
    parameter_representatives,
    prism,
    t1,
    x_graph,
    y_graph,
)
from tricirc.graphs import SimpleGraph
from tricirc.symmetry import (
    _rooted_isomorphism,
    canonical_form,
    is_vertex_transitive,
)
from tricirc.verify import _family_graphs, _is_vt_cover
from tricirc.voltage import cover_connected, cover_is_simple, lifted_adjacency


def check_isomorphism(g: SimpleGraph, h: SimpleGraph, img, a: int, b: int):
    """Certificate check from `has_edge` alone: img is a bijection of the
    vertices that sends a to b, and a pair is an edge of g exactly when its
    image is an edge of h."""
    assert g.n == h.n and sorted(img) == list(range(g.n))
    assert img[a] == b
    for x in range(g.n):
        for y in range(x + 1, g.n):
            assert g.has_edge(x, y) == h.has_edge(img[x], img[y]), (x, y)


def simple_connected_covers(k):
    for t in (1, 2, 3, 4):
        for r, s in parameter_representatives(t, k):
            params = FamilyParams(t, k, r, s)
            va = params.voltages()
            if cover_is_simple(va) and cover_connected(va):
                yield params, va


@pytest.mark.parametrize("k", range(1, 11))
def test_decider_and_naming_agree_with_the_ir_search(k):
    family = _family_graphs(k)
    vt_covers = 0
    for params, va in simple_connected_covers(k):
        adj = lifted_adjacency(va)
        g = params.build()
        vt = _is_vt_cover(adj, va.n)
        assert vt == is_vertex_transitive(g), params
        if not vt:
            continue
        vt_covers += 1
        # lifted_adjacency numbers the vertices as the built cover does.
        for x in (1, 2):
            img, _ = _rooted_isomorphism(adj, 0, adj, x * va.n)
            check_isomorphism(g, g, img, 0, x * va.n)
        if k < 3:
            continue
        for name, f in family.items():
            img, _ = _rooted_isomorphism(adj, 0, f.adjacency(), 0)
            assert (img is not None) == (
                canonical_form(g) == canonical_form(f)), (params, name)
            if img is not None:
                check_isomorphism(g, f, img, 0, 0)
    assert vt_covers > 0


@pytest.mark.parametrize("k", [9, 15, 21])
def test_family_graphs_extend_onto_each_other(k):
    # Each family graph onto itself from every root, and X(k) onto a
    # relabelled copy of itself; the four are pairwise non-isomorphic.
    graphs = [x_graph(k), y_graph(k), prism(3 * k), moebius(3 * k)]
    for i, g in enumerate(graphs):
        for b in range(0, g.n, 7):
            img, _ = _rooted_isomorphism(g.adjacency(), 0, g.adjacency(), b)
            check_isomorphism(g, g, img, 0, b)
        for h in graphs[i + 1:]:
            assert _rooted_isomorphism(g.adjacency(), 0, h.adjacency(), 0)[0] is None
    g = graphs[0]
    relabel = list(range(g.n))
    random.Random(k).shuffle(relabel)
    h = SimpleGraph(g.n, [(relabel[a], relabel[b]) for a, b in g.edges()])
    img, _ = _rooted_isomorphism(g.adjacency(), 0, h.adjacency(), 0)
    check_isomorphism(g, h, img, 0, 0)


def test_extension_rejects_disconnected_graphs_and_other_orders():
    two_triangles = SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    with pytest.raises(ValueError, match="connected"):
        _rooted_isomorphism(two_triangles.adjacency(), 0, two_triangles.adjacency(), 3)
    triangle = SimpleGraph(3, [(0, 1), (1, 2), (0, 2)])
    assert _rooted_isomorphism(
        triangle.adjacency(), 0, two_triangles.adjacency(), 0) == (None, 0)
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert _rooted_isomorphism(star.adjacency(), 0, star.adjacency(), 1)[0] is None


@pytest.mark.parametrize("k, r, s", [(9, 1, 15), (35, 1, 19)])
def test_node_counts_on_girth_eight_non_vt_covers(time_limit, k, r, s):
    # Non-VT covers that pass the screen, so every branch from u_0 is
    # tried: 1387 and 1709 vertices placed on the lifted adjacency, 1393 and
    # 1713 on the built graph. Plain BFS order, which does not place first
    # the vertices that close a cycle, placed about 13 000.
    va = FamilyParams(1, k, r, s).voltages()
    with time_limit(5):
        for adj in (lifted_adjacency(va), t1(k, r, s).adjacency()):
            for x in (1, 2):
                img, nodes = _rooted_isomorphism(adj, 0, adj, x * va.n)
                assert img is None
                assert nodes <= 2500
