"""The stabiliser chain against the plain group algorithms it replaced.

`group_order`, `group_elements` and `find_k_circulant` rest on one
Schreier-Sims chain and one walk over it. The references below build the
whole group by closure and scan it in sorted order. The chain must give the
same order, the same element list, the same least semiregular element for
every orbit count, and the same cap behaviour. The orbits of vertices,
edges and arcs, and the cycles of each element, must be the ones read off
the element list.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricirc.families import FamilyParams
from tricirc.graphs import SimpleGraph
from tricirc.symmetry import (
    EnumerationCapExceeded,
    Permutation,
    arc_orbit_count,
    automorphism_group,
    edge_orbits,
    find_k_circulant,
    group_elements,
    group_order,
    vertex_orbits,
)
from tricirc.voltage import NonSimpleCover

CAP = 2000


def reference_closure(n, gens, cap):
    """Every element generated by gens, by BFS closure, sorted by image."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = deque([identity])
    gen_imgs = [p.img for p in gens]
    while frontier:
        cur = frontier.popleft()
        for g in gen_imgs:
            nxt = tuple(g[x] for x in cur)
            if nxt not in seen:
                if len(seen) >= cap:
                    raise EnumerationCapExceeded(f"more than {cap}")
                seen.add(nxt)
                frontier.append(nxt)
    return sorted(seen)


def cycle_lengths(img):
    seen = [False] * len(img)
    out = set()
    for v in range(len(img)):
        length, x = 0, v
        while not seen[x]:
            seen[x] = True
            x = img[x]
            length += 1
        if length:
            out.add(length)
    return out


def reference_scan(elements, target):
    """The first element, in sorted order, with every cycle of one length."""
    if target == 1:
        return elements[0]
    for img in elements:
        if cycle_lengths(img) == {target}:
            return img
    return None


def reference_orbits(elements, points, act):
    """The orbits of the points under the listed elements, each sorted, in
    sorted order."""
    orbits = {tuple(sorted({act(e, x) for e in elements})) for x in points}
    return [list(o) for o in sorted(orbits)]


def on_vertex(e, v):
    return e[v]


def on_edge(e, edge):
    return tuple(sorted((e[edge[0]], e[edge[1]])))


def on_arc(e, arc):
    return e[arc[0]], e[arc[1]]


def powers(img):
    """The cyclic group generated by one element, by repeated composition."""
    out = [tuple(range(len(img)))]
    while (nxt := tuple(img[x] for x in out[-1])) != out[0]:
        out.append(nxt)
    return out


def assert_orbits_match(g, gens, elements):
    edges = g.edges()
    arcs = [(a, b) for a in range(g.n) for b in g.neighbors(a)]
    assert vertex_orbits(g, gens) == reference_orbits(elements, range(g.n), on_vertex)
    assert edge_orbits(g, gens) == reference_orbits(elements, edges, on_edge)
    assert arc_orbit_count(g, gens) == len(reference_orbits(elements, arcs, on_arc))
    for img in elements:
        assert Permutation(img).orbits() == reference_orbits(powers(img), range(g.n), on_vertex)


def assert_matches_reference(g):
    gens = automorphism_group(g)
    try:
        elements = reference_closure(g.n, gens, CAP)
    except EnumerationCapExceeded:
        assert group_order(g.n, gens) > CAP
        with pytest.raises(EnumerationCapExceeded):
            group_elements(g.n, gens, cap=CAP)
        with pytest.raises(EnumerationCapExceeded):
            find_k_circulant(g, 1, cap=CAP)
        return
    assert group_order(g.n, gens) == len(elements)
    assert [p.img for p in group_elements(g.n, gens, cap=CAP)] == elements
    assert_orbits_match(g, gens, elements)
    if len(elements) > 1:
        with pytest.raises(EnumerationCapExceeded):
            group_elements(g.n, gens, cap=len(elements) - 1)
        with pytest.raises(EnumerationCapExceeded):
            find_k_circulant(g, 1, cap=len(elements) - 1)
    for m in range(1, g.n + 1):
        if g.n % m == 0:
            found = find_k_circulant(g, m, cap=CAP)
            want = reference_scan(elements, g.n // m)
            assert (None if found is None else found.img) == want


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, [e for e, k in zip(pairs, keep) if k])


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_random_graphs_match_reference(g):
    assert_matches_reference(g)


def simple_covers(kmax):
    """Every simple cover of the four types over the full (r, s) grid."""
    for k in range(1, kmax + 1):
        grid = [(r, s) for r in range(2 * k) for s in range(2 * k)]
        params = [(3, r, None) for r in range(2 * k)] + [
            (t, r, s) for t in (1, 2, 4) for r, s in grid
        ]
        for t, r, s in params:
            try:
                yield f"t{t}({k},{r},{s})", FamilyParams(t, k, r, s).build()
            except NonSimpleCover:
                pass


COVERS = list(simple_covers(4))


@pytest.mark.parametrize("g", [g for _, g in COVERS],
                         ids=[name for name, _ in COVERS])
def test_simple_covers_match_reference(g):
    assert_matches_reference(g)
