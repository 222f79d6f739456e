"""The rooted extension search: the sweep's vertex-transitivity decider and
its naming of classes, against the IR search, with every map it returns
checked by adjacency alone, and the iterative search against the recursive
one it replaced."""

import random
import sys
from collections import Counter, deque

import pytest

from tricirc import symmetry
from tricirc.families import (
    FamilyParams,
    gp,
    moebius,
    parameter_orbits,
    prism,
    t1,
    x_graph,
    y_graph,
)
from tricirc.graphs import SimpleGraph
from tricirc.symmetry import (
    EXTENSION_BUDGET,
    _rooted_isomorphism,
    are_isomorphic,
    canonical_form,
    is_vertex_transitive,
)
from tricirc.verify import _family_graphs, _is_vt_cover, _passes_vt_screen
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
        for r, s in [p for p, _ in parameter_orbits(t, k)]:
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


def reference_rooted_isomorphism(adj, a, adj_h, b, limit=None, colors=None):
    """The recursive extension that `_rooted_isomorphism` replaced, with one
    Python frame per placed vertex: the same order, the same candidates in
    the same order, the same count and the same stop at `limit`; with
    `colors`, each vertex and its image share a colour."""
    n = len(adj)
    parent, rank = {a: a}, {}
    queue, forced = deque([a]), []
    while forced or queue:
        v = forced.pop() if forced else queue.popleft()
        if v not in rank:
            rank[v] = len(rank)
            for w in adj[v]:
                if w in parent:
                    forced.append(w)
                else:
                    parent[w] = v
                    queue.append(w)
    if len(rank) != n:
        raise ValueError("the graph must be connected")
    if len(adj_h) != n or len(adj[a]) != len(adj_h[b]):
        return None, 0
    if colors is not None and colors[a] != colors[b]:
        return None, 0
    order = list(rank)
    back = {v: [w for w in adj[v] if rank[w] < rank[v] and w != parent[v]]
            for v in order}
    img = [-1] * n
    used = [False] * n
    img[a], used[b] = b, True
    nodes = 0
    stop = -1 if limit is None else limit

    def place(i):
        nonlocal nodes
        if i == n:
            return True
        v = order[i]
        for y in adj_h[img[parent[v]]]:
            if used[y] or len(adj_h[y]) != len(adj[v]) or any(
                    img[w] not in adj_h[y] for w in back[v]):
                continue
            if colors is not None and colors[y] != colors[v]:
                continue
            if nodes == stop:
                return False
            nodes += 1
            img[v], used[y] = y, True
            if place(i + 1):
                return True
            used[y] = False
        return False

    return (img if place(1) else None), nodes


@pytest.mark.parametrize("k", range(1, 13))
def test_iterative_extension_matches_the_recursive_one(k):
    # Every call the funnel makes on a screened cover: u_0 onto v_0 and
    # w_0, and vertex 0 onto vertex 0 of each family graph, unbounded and
    # stopped at 1, 37 and the budget of are_isomorphic.
    family = [f.adjacency() for f in _family_graphs(k).values()]
    found = refuted = 0
    for _, va in simple_connected_covers(k):
        adj = lifted_adjacency(va)
        if not _passes_vt_screen(adj, va.n):
            continue
        targets = [(adj, va.n), (adj, 2 * va.n)] + [(f, 0) for f in family]
        for limit in (None, 1, 37, EXTENSION_BUDGET * len(adj)):
            for adj_h, b in targets:
                got = _rooted_isomorphism(adj, 0, adj_h, b, limit)
                assert got == reference_rooted_isomorphism(adj, 0, adj_h, b, limit)
                found += got[0] is not None
                refuted += got[0] is None and got[1] != limit
    assert found and refuted


def first_path_colourings(adj):
    """The equitable colouring of each node on the IR search's first path,
    each with its target cell: the colourings its extension runs under."""
    colors = symmetry._wl_refine(adj, symmetry._initial_colors(adj))
    while len(set(colors)) < len(adj):
        size = Counter(colors)
        target = min(c for c in size if size[c] > 1)
        cell = [v for v in range(len(adj)) if colors[v] == target]
        yield colors, cell
        colors = symmetry._wl_refine(
            adj, symmetry._individualize(colors, cell[0]), cell[:1])


@pytest.mark.parametrize("k", range(1, 9))
def test_coloured_extension_matches_the_recursive_one(k):
    # The loop as the search runs it on a screened cover's sorted rows: the
    # first vertex of each first-path node's cell onto every vertex of the
    # graph, under the node's colouring, unbounded and stopped at 1, 37 and
    # the search's budget.
    found = refuted = 0
    for _, va in simple_connected_covers(k):
        adj = lifted_adjacency(va)
        if not _passes_vt_screen(adj, va.n):
            continue
        rows = tuple(tuple(sorted(row)) for row in adj)
        for colors, cell in first_path_colourings(rows):
            for b in range(len(rows)):
                plan = symmetry._extension_plan(rows, cell[0])
                for limit in (None, 1, 37, EXTENSION_BUDGET * len(rows)):
                    got = symmetry._extend(plan, rows, b, limit, colors)
                    assert got == reference_rooted_isomorphism(
                        rows, cell[0], rows, b, limit, colors)
                    if got[0] is not None:
                        found += 1
                        assert all(colors[got[0][v]] == colors[v] for v in range(len(rows)))
                    refuted += got[0] is None and got[1] != limit
    assert found and refuted


def test_extension_refuses_a_map_that_breaks_the_colouring():
    # On the path 0-1-2-3-4 the only automorphism sending 0 to 4 is the
    # reversal, which swaps 1 and 3; the colouring tells them apart.
    path5 = SimpleGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).adjacency()
    plan = symmetry._extension_plan(path5, 0)
    assert symmetry._extend(plan, path5, 4)[0] == [4, 3, 2, 1, 0]
    colors = [0, 1, 2, 3, 0]
    for limit in (None, EXTENSION_BUDGET * 5):
        assert symmetry._extend(plan, path5, 4, limit, colors)[0] is None
        assert reference_rooted_isomorphism(path5, 0, path5, 4, limit, colors)[0] is None
    assert symmetry._extend(plan, path5, 1, None, colors) == (None, 0)


def test_are_isomorphic_still_spends_the_budget_on_the_outer_rim(monkeypatch):
    # The images b are tried in index order, so on gp(7, 2) against
    # gp(7, 3) the outer rim b = 0..6 uses up the 16·14 placements and the
    # pair goes to the two IR searches, although b = 7 would succeed.
    calls = []
    original = symmetry._rooted_isomorphism

    def counted(adj, a, adj_h, b, limit=None):
        img, nodes = original(adj, a, adj_h, b, limit)
        calls.append((a, b, limit, img is not None, nodes))
        return img, nodes

    monkeypatch.setattr(symmetry, "_rooted_isomorphism", counted)
    symmetry._search_cached.cache_clear()
    assert are_isomorphic(gp(7, 2), gp(7, 3))
    assert symmetry._search_cached.cache_info().misses == 2
    assert calls == [(0, b, 224 - 37 * b, False, 37) for b in range(6)] + [
        (0, 6, 2, False, 2)]


def test_extension_runs_above_the_recursion_limit(time_limit):
    g, h = prism(700), moebius(700)
    assert g.n > sys.getrecursionlimit()
    with time_limit(5):
        img, nodes = _rooted_isomorphism(g.adjacency(), 0, g.adjacency(), 5)
        assert img is not None and nodes == g.n - 1
        assert sorted(img) == list(range(g.n))
        assert {tuple(sorted((img[x], img[y]))) for x, y in g.edges()} == set(g.edges())
        assert _rooted_isomorphism(g.adjacency(), 0, h.adjacency(), 0)[0] is None
