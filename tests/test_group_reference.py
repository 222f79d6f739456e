"""The stabiliser chain against the plain group algorithms it replaced.

`group_order`, `group_elements` and `find_k_circulant` rest on one
Schreier-Sims chain and one walk over it. The references below build the
whole group by closure and scan it in sorted order. The chain must give the
same order, the same element list, the same least semiregular element for
every orbit count, and the same cap behaviour. The chain of Aut tests
Schreier generators on the search's base; it must be the chain built
without it, and the base must leave only the identity. The orbits of
vertices, edges and arcs, and the cycles of each element, must be the ones
read off the element list. On graphs with several vertex orbits, the
semiregular search may answer None from the orbit sizes or the groups
induced on the orbits; that answer, too, must be the reference's.
"""

import random
from collections import deque
from math import prod
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricirc.families import FamilyParams, gp, moebius, prism, t3, x_graph, y_graph
from tricirc.graphs import SimpleGraph
from tricirc import symmetry
from tricirc.symmetry import (
    EnumerationCapExceeded,
    _individualize,
    _initial_colors,
    _wl_refine,
    arc_orbit_count,
    edge_orbits,
    find_k_circulant,
    group_elements,
    group_order,
    vertex_orbits,
)
from tricirc.voltage import NonSimpleCover

from test_oracles import LITERATURE_ORDERS

CAP = 2000


def reference_closure(n, gens, cap):
    """Every element generated by gens, by BFS closure, sorted by image."""
    identity = tuple(range(n))
    seen = {identity}
    frontier = deque([identity])
    while frontier:
        cur = frontier.popleft()
        for g in gens:
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


def assert_orbits_match(g, elements):
    edges = g.edges()
    arcs = [(a, b) for a in range(g.n) for b in g.neighbors(a)]
    assert vertex_orbits(g) == reference_orbits(elements, range(g.n), on_vertex)
    assert edge_orbits(g) == reference_orbits(elements, edges, on_edge)
    assert arc_orbit_count(g) == len(reference_orbits(elements, arcs, on_arc))
    for img in elements:
        assert symmetry._orbits(g.n, [img]) == reference_orbits(powers(img), range(g.n), on_vertex)


def assert_matches_reference(g):
    gens = symmetry._searched(g).gens
    try:
        elements = reference_closure(g.n, gens, CAP)
    except EnumerationCapExceeded:
        assert group_order(g) > CAP
        with pytest.raises(EnumerationCapExceeded):
            group_elements(g, cap=CAP)
        with pytest.raises(EnumerationCapExceeded):
            find_k_circulant(g, 1, cap=CAP)
        return
    assert group_order(g) == len(elements)
    assert group_elements(g, cap=CAP) == elements
    assert_orbits_match(g, elements)
    if len(elements) > 1:
        with pytest.raises(EnumerationCapExceeded):
            group_elements(g, cap=len(elements) - 1)
        with pytest.raises(EnumerationCapExceeded):
            find_k_circulant(g, 1, cap=len(elements) - 1)
    for m in range(1, g.n + 1):
        if g.n % m == 0:
            found = find_k_circulant(g, m, cap=CAP)
            want = reference_scan(elements, g.n // m)
            assert found == want


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


def necklace(beads):
    """A ring of K4-e beads: bead i is a, b, c, d = 4i..4i+3 without the edge
    c-d, and d of each bead joins c of the next. Two vertex orbits, {a, b}
    and {c, d} of every bead; |Aut| = 2^beads * 2*beads."""
    edges = []
    for i in range(beads):
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(a, b), (a, c), (a, d), (b, c), (b, d)]
        edges.append((d, (4 * (i + 1) + 2) % (4 * beads)))
    return SimpleGraph(4 * beads, edges)


def cycles(*lengths):
    """The disjoint union of cycles of the given lengths."""
    edges, start = [], 0
    for c in lengths:
        edges += [(start + i, start + (i + 1) % c) for i in range(c)]
        start += c
    return SimpleGraph(start, edges)


MULTI_ORBIT = {
    "necklace(3)": necklace(3),
    "necklace(4)": necklace(4),
    "necklace(5)": necklace(5),
    "C3+C4": cycles(3, 4),
    "C4+C6": cycles(4, 6),
    "C5+C5": cycles(5, 5),
}


@pytest.mark.parametrize("g", list(MULTI_ORBIT.values()), ids=list(MULTI_ORBIT))
def test_multi_orbit_graphs_match_reference(g):
    """Graphs where the orbit sizes or an induced group refute some m."""
    assert group_order(g) <= CAP
    assert_matches_reference(g)


@pytest.mark.parametrize("name, m", [
    ("necklace(3)", 1),  # 12 does not divide the orbit size 6
    ("necklace(4)", 2),  # no 8-cycle on the 8 points c, d: the induced group is D_4
    ("C3+C4", 1),  # 7 divides neither 3 nor 4
    ("C4+C6", 2),  # 5 divides neither 4 nor 6
])
def test_refutation_does_not_walk_the_group(name, m, monkeypatch):
    """None comes from the orbits alone: no walk over Aut(g)'s own chain."""
    g = MULTI_ORBIT[name]
    walked = []
    walk = symmetry._walk
    monkeypatch.setattr(symmetry, "_walk",
                        lambda trans, keep: walked.append(len(trans)) or walk(trans, keep))
    assert find_k_circulant(g, m, cap=CAP) is None
    assert g.n not in walked


@pytest.mark.parametrize("name", ["necklace(3)", "C3+C4", "C5+C5"])
def test_cap_comes_before_the_orbit_refutation(name):
    """m = 1 is refuted by the orbit sizes, yet a cap below |Aut| still raises."""
    g = MULTI_ORBIT[name]
    with pytest.raises(EnumerationCapExceeded):
        find_k_circulant(g, 1, cap=group_order(g) - 1)


def test_necklace_circulants_refuted_fast(time_limit):
    """necklace(10) has |Aut| = 20 480 and no semiregular element with one
    or two orbits; the orbit refutation answers without walking the group,
    which took about 0.25 s for the pair."""
    g = necklace(10)
    assert group_order(g) == 2**10 * 20
    with time_limit(1):
        start = perf_counter()
        assert find_k_circulant(g, 1) is None
        assert find_k_circulant(g, 2) is None
        assert perf_counter() - start < 0.1


# -- the search's base -------------------------------------------------------

FAMILY = {
    **{f"x_graph({k})": x_graph(k) for k in (9, 15, 25, 35, 49)},
    **{f"y_graph({k})": y_graph(k) for k in (9, 15, 25, 35, 49)},
    **{f"{f.__name__}({m})": f(m) for f in (prism, moebius) for m in (9, 27)},
    "gp(24, 5)": gp(24, 5),
    "t3(12, 6)": t3(12, 6),  # |Aut| = 137 594 142 720, above the cap
}


def base_refinement(g):
    """The search's base individualized in turn, each time refined."""
    adj = g.adjacency()
    colors = _wl_refine(adj, _initial_colors(adj))
    for b in symmetry._searched(g).base:
        colors = _wl_refine(adj, _individualize(colors, b), [b])
    return colors


def automorphisms_fixing(g, base):
    """Every automorphism of g that fixes each base point: the other
    vertices are placed in turn, each where its adjacency to those already
    placed is kept."""
    adj = [set(g.neighbors(v)) for v in range(g.n)]
    img = {b: b for b in base}
    rest = [v for v in range(g.n) if v not in img]
    out = []

    def place(i):
        if i == len(rest):
            out.append([img[v] for v in range(g.n)])
            return
        v = rest[i]
        for y in set(range(g.n)).difference(img.values()):
            if all((u in adj[v]) == (img[u] in adj[y]) for u in img):
                img[v] = y
                place(i + 1)
                del img[v]

    place(0)
    return out


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_the_base_is_discrete_and_fixed_only_by_the_identity(g):
    assert sorted(base_refinement(g)) == list(range(g.n))
    assert automorphisms_fixing(g, symmetry._searched(g).base) == [list(range(g.n))]


@pytest.mark.parametrize("name", list(FAMILY))
def test_the_base_is_discrete_on_family_graphs(name):
    g = FAMILY[name]
    assert sorted(base_refinement(g)) == list(range(g.n))


@pytest.mark.parametrize("name", list(FAMILY))
def test_the_chain_with_the_base_is_the_chain_without(name):
    g = FAMILY[name]
    entry = symmetry._searched(g)
    # Equal per level: the same points, each with the same u_x. "Without"
    # is the base 0..n-1.
    assert (symmetry._stabiliser_chain(g.n, entry.gens, entry.base)
            == symmetry._stabiliser_chain(g.n, entry.gens, range(g.n)))


@st.composite
def groups_with_a_base(draw):
    """Generators of a permutation group on at most 7 points, and a base of
    it in a drawn order: each point is kept while some element that fixes
    the points kept so far moves it."""
    n = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    elements = reference_closure(n, gens, 5040)
    base = []
    for x in draw(st.permutations(range(n))):
        if any(e[x] != x for e in elements if all(e[b] == b for b in base)):
            base.append(x)
    return n, [tuple(g) for g in gens], base, len(elements)


@given(groups_with_a_base())
@settings(max_examples=200, deadline=None)
def test_the_chain_with_any_base_is_the_chain_without(group):
    n, gens, base, order = group
    with_base = symmetry._stabiliser_chain(n, gens, base)
    assert with_base == symmetry._stabiliser_chain(n, gens, range(n))
    assert prod(map(len, with_base)) == order


def group_answers(g, base_known):
    """|Aut(g)| and the least semiregular element for m = 1, 2, 3, from a
    fresh search whose chain is built on the search's base or on 0..n-1."""
    symmetry._search_cached.cache_clear()
    if not base_known:
        symmetry._searched(g).base = range(g.n)
    out = [group_order(g)]
    for m in (1, 2, 3):
        try:
            out.append(find_k_circulant(g, m))
        except EnumerationCapExceeded:
            out.append("cap")
    symmetry._search_cached.cache_clear()
    return out


@pytest.mark.parametrize("name", list(FAMILY))
def test_group_answers_agree_with_and_without_the_base(name):
    g = FAMILY[name]
    assert group_answers(g, True) == group_answers(g, False)


# -- |Aut| from the search against the chain ---------------------------------

def seeded_graph(n, p, seed):
    """G(n, p) from a seeded random draw per vertex pair."""
    rng = random.Random(seed)
    return SimpleGraph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                           if rng.random() < p])


SEEDED = {f"G({n}, {p}) seed {seed}": seeded_graph(n, p, seed)
          for n in (12, 25, 40) for p in (0.05, 0.2, 0.5, 0.9) for seed in (1, 2)}
AGREEMENT = {**FAMILY, **MULTI_ORBIT, **SEEDED,
             **{name: g for name, g, _ in LITERATURE_ORDERS}}


def assert_orders_agree(g):
    """The search's |Aut| is the product of the full chain's orbits, and the
    chain stopped at that order is the full chain, level for level."""
    entry = symmetry._searched(g)
    full = symmetry._stabiliser_chain(g.n, entry.gens, entry.base)
    assert group_order(g) == prod(map(len, full))
    assert symmetry._stabiliser_chain(g.n, entry.gens, entry.base, group_order(g)) == full


@pytest.mark.parametrize("name", list(AGREEMENT))
def test_the_search_order_is_the_chain_order(name):
    assert_orders_agree(AGREEMENT[name])


def test_the_search_order_is_the_chain_order_on_the_covers():
    for _, g in COVERS:
        assert_orders_agree(g)


@given(small_graphs())
@settings(max_examples=200, deadline=None)
def test_the_search_order_is_the_chain_order_on_small_graphs(g):
    assert_orders_agree(g)
