"""Automorphism groups, canonical forms, orbits, cycles and girth."""

import random
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_families import cycle_lengths
from test_oracles import ROOK_4X4, SHRIKHANDE, small_graphs

from tricirc import symmetry
from tricirc.families import (
    FamilyParams, fibre_map, gp, moebius, prism, t3, x_graph, y_graph)
from tricirc.graph6 import encode_graph6
from tricirc.graphs import SimpleGraph
from tricirc.symmetry import (
    EnumerationCapExceeded,
    SizeGuardError,
    are_isomorphic,
    arc_orbit_count,
    c_signature,
    canonical_form,
    cycle_counts,
    cycles_of_length,
    edge_orbits,
    find_k_circulant,
    girth,
    group_elements,
    group_order,
    is_automorphism,
    is_c_cycle_regular,
    is_c_vertex_regular,
    is_vertex_transitive,
    uniform_local_profile,
    vertex_orbits,
)
from tricirc.voltage import NonSimpleCover


def path(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


# -- permutations -------------------------------------------------------------

def test_permutation_is_automorphism():
    c5 = cycle(5).adjacency()
    rot = tuple((i + 1) % 5 for i in range(5))
    flip = tuple((-i) % 5 for i in range(5))
    assert is_automorphism(c5, rot)
    assert is_automorphism(c5, flip)
    assert not is_automorphism(c5, (1, 0, 2, 3, 4))
    assert not is_automorphism(c5, (1, 2, 3, 0))  # one image short
    two_k4 = SimpleGraph(8, [(a + o, b + o) for o in (0, 4)
                             for a in range(4) for b in range(a + 1, 4)])
    # each row maps onto a row, but both copies fold onto the first
    assert not is_automorphism(two_k4.adjacency(), (0, 1, 2, 3, 0, 1, 2, 3))


# -- groups -------------------------------------------------------------------

KNOWN_ORDERS = [
    (cycle(5), 10),          # dihedral
    (cycle(6), 12),
    (path(4), 2),
    (gp(5, 2), 120),         # Petersen
    (t3(1, 1), 72),          # K_{3,3}
    (prism(3), 12),          # K_3 x K_2
    (prism(5), 20),
    (moebius(4), 16),        # Wagner graph
    (gp(4, 1), 48),          # cube
]


@pytest.mark.parametrize("g,order", KNOWN_ORDERS, ids=lambda x: str(x))
def test_known_automorphism_group_orders(g, order):
    if isinstance(g, int):
        pytest.skip("id")
    assert group_order(g) == order


def test_group_order_of_trivial_group():
    # The triangle 2-3-4 with the path 2-1-0 at vertex 2 and the leaf 5 at
    # vertex 3: by brute force over all 720 permutations, only the identity
    # preserves it.
    g = SimpleGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 4), (3, 5)])
    assert group_order(g) == 1


def test_group_elements_enumeration():
    c4 = cycle(4)
    elems = group_elements(c4)
    assert len(elems) == 8
    assert len(set(elems)) == 8 and elems == sorted(elems)
    with pytest.raises(EnumerationCapExceeded):
        group_elements(gp(5, 2), cap=10)


def test_vertex_and_edge_orbits():
    p = path(4)                      # orbits {0,3}, {1,2}
    vo = vertex_orbits(p)
    assert sorted(sorted(b) for b in vo) == [[0, 3], [1, 2]]
    eo = edge_orbits(p)
    assert len(eo) == 2       # end edges vs middle edge
    pet = gp(5, 2)
    assert len(vertex_orbits(pet)) == 1
    assert len(edge_orbits(pet)) == 1
    assert arc_orbit_count(pet) == 1


def test_edge_orbits_are_computed_once_and_handed_out_fresh(monkeypatch):
    g = prism(5)
    symmetry._search_cached.cache_clear()
    want = edge_orbits(g)
    want[0].clear()
    want.append([(0, 0)])
    calls = []
    monkeypatch.setattr(symmetry, "_orbits", lambda *args: calls.append(args))
    rims = [e for e in g.edges() if e[1] - e[0] != 5]
    assert edge_orbits(g) == [rims, [(v, v + 5) for v in range(5)]]
    assert calls == []


def test_transitivity_predicates():
    pet = gp(5, 2)
    assert is_vertex_transitive(pet)
    assert len(edge_orbits(pet)) == 1
    assert arc_orbit_count(pet) == 1
    assert not is_vertex_transitive(path(3))
    pr = prism(6)
    assert is_vertex_transitive(pr)
    assert arc_orbit_count(pr) > 1       # rungs vs rim edges
    # star K_{1,3}: edge- but not vertex-transitive
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert len(edge_orbits(star)) == 1 and not is_vertex_transitive(star)


def test_uniform_local_profile_screen():
    assert uniform_local_profile(gp(5, 2))
    assert uniform_local_profile(x_graph(9))
    assert not uniform_local_profile(path(4))


def complete(n):
    return SimpleGraph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def check_bfs_keys_against_ball_rounds(g):
    """`_bfs_key` at each root is that vertex's column of `_ball_rounds`,
    and `_initial_colors` ranks these keys densely."""
    adj = g.adjacency()
    keys = [symmetry._bfs_key(adj, v) for v in range(g.n)]
    rounds = list(symmetry._ball_rounds(adj))
    assert len(rounds) == 4
    for v, key in enumerate(keys):
        assert key == tuple(sizes[v] for sizes in rounds), v
        assert key[0] == 1 + len(adj[v])
    code = {key: i for i, key in enumerate(sorted(set(keys)))}
    assert symmetry._initial_colors(adj) == [code[key] for key in keys]


@pytest.mark.parametrize("g", [
    SimpleGraph(0, []),
    SimpleGraph(1, []),
    SimpleGraph(3, [(0, 1)]),                  # an isolated vertex
    SimpleGraph(4, []),
    path(3),                                   # layers stop before depth 4
    path(12),                                  # layers stop at some roots only
    SimpleGraph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]),  # C_3 + C_4
    complete(30),
    gp(5, 2),                                  # every ball is the graph by radius 2
    x_graph(9),
    FamilyParams(2, 25, 1, 3).build(),         # 150 vertices: three words a ball
], ids=["empty", "K1", "isolated", "edgeless", "P3", "P12", "C3+C4", "K30",
        "Petersen", "X(9)", "t2(25,1,3)"])
def test_bfs_keys_equal_the_per_vertex_keys(g):
    check_bfs_keys_against_ball_rounds(g)


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_bfs_keys_equal_the_per_vertex_keys_on_small_graphs(g):
    check_bfs_keys_against_ball_rounds(g)


# -- canonical forms ----------------------------------------------------------

def test_canonical_form_is_a_valid_encoding():
    g = gp(5, 2)
    from tricirc.graph6 import decode_graph6
    h = decode_graph6(canonical_form(g))
    assert are_isomorphic(g, h)


def test_canonical_form_relabeling_invariance():
    rng = random.Random(42)
    graphs = [gp(5, 2), prism(4), y_graph(5), t3(3, 2), cycle(9)]
    for g in graphs:
        ref = canonical_form(g)
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert canonical_form(g.relabel(perm)) == ref


def test_canonical_labeling_is_a_permutation():
    g = y_graph(5)
    lab = symmetry._searched(g).labeling
    assert sorted(lab) == list(range(g.n))


def test_are_isomorphic_distinguishes():
    assert are_isomorphic(gp(7, 2), gp(7, 3))        # classic isomorphic pair
    assert not are_isomorphic(gp(11, 2), gp(11, 3))
    assert not are_isomorphic(cycle(6), path(6))
    # same degree sequence, different graphs
    assert not are_isomorphic(prism(3), t3(1, 1))


def test_size_guard():
    big = SimpleGraph(601, [])
    with pytest.raises(SizeGuardError):
        canonical_form(big)


# -- are_isomorphic: invariant, extension, canonical forms -------------------

@pytest.fixture
def deciders(monkeypatch):
    """Empties the search cache and counts the extensions run; returns a
    function giving (IR searches run, extensions run) since then."""
    extensions = []
    original = symmetry._rooted_isomorphism

    def counted(*args):
        extensions.append(args)
        return original(*args)

    monkeypatch.setattr(symmetry, "_rooted_isomorphism", counted)
    symmetry._search_cached.cache_clear()
    return lambda: (symmetry._search_cached.cache_info().misses, len(extensions))


def relabelled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return g.relabel(perm)


def test_are_isomorphic_rejects_by_the_key_multiset(deciders):
    two_triangles = SimpleGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not are_isomorphic(cycle(6), two_triangles)
    assert not are_isomorphic(gp(11, 2), gp(11, 3))
    assert deciders() == (0, 0)


def test_are_isomorphic_rejects_by_keys_when_every_round_agrees(deciders):
    # Each round's sorted ball sizes agree, but not the per-vertex keys:
    # g has keys (4, 5) and (3, 6) where h has (4, 6) and (3, 5).
    g = SimpleGraph(6, [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (2, 3), (2, 5)])
    h = SimpleGraph(6, [(0, 2), (0, 4), (0, 5), (1, 2), (2, 4), (3, 4), (3, 5)])
    assert [sorted(x) for x in symmetry._ball_rounds(g.adjacency())] == [
        sorted(x) for x in symmetry._ball_rounds(h.adjacency())]
    assert not are_isomorphic(g, h)
    assert deciders() == (0, 0)
    assert canonical_form(g) != canonical_form(h)


def test_are_isomorphic_accepts_by_extension(deciders):
    g = y_graph(9)
    assert are_isomorphic(g, relabelled(g, 1))
    assert deciders() == (0, 1)


def test_are_isomorphic_rejects_by_extension(deciders):
    # Both are cubic on 6 vertices with 3 vertices at distance 1 and 2 at
    # distance 2 from each, so only the extension tells them apart.
    assert not are_isomorphic(prism(3), t3(1, 1))
    assert deciders() == (0, 6)


def test_are_isomorphic_falls_back_when_the_budget_runs_out(deciders):
    # Strongly regular with equal parameters: every vertex has the same key
    # in both, and refuting all 16 images of the root takes 288 placements,
    # more than the 16·16 allowed.
    assert not are_isomorphic(ROOK_4X4, SHRIKHANDE)
    searches, extensions = deciders()
    assert searches == 2 and 0 < extensions < 16


def test_are_isomorphic_on_disconnected_graphs_uses_canonical_forms(deciders):
    c3_c4 = SimpleGraph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    assert are_isomorphic(c3_c4, relabelled(c3_c4, 2))
    assert are_isomorphic(relabelled(c3_c4, 3), c3_c4)
    assert deciders() == (3, 0)  # c3_c4's search is cached


def test_are_isomorphic_on_the_empty_graph():
    assert are_isomorphic(SimpleGraph(0, []), SimpleGraph(0, []))
    assert not are_isomorphic(SimpleGraph(0, []), SimpleGraph(1, []))


def test_are_isomorphic_size_guard_comes_before_the_extension(deciders):
    c601 = cycle(601)
    with pytest.raises(SizeGuardError):
        are_isomorphic(c601, relabelled(c601, 4))
    assert deciders() == (0, 0)


def test_are_isomorphic_on_a_complete_graph(time_limit):
    for n, seconds in ((100, 1), (600, 3)):  # 600: the size guard
        k_n = complete(n)
        with time_limit(seconds):
            assert are_isomorphic(k_n, relabelled(k_n, 5))


def connected_cover(rng, t, k):
    """A seeded simple connected cover of type t at k, with its parameters."""
    while True:
        params = (t, k, rng.randrange(2 * k), None if t == 3 else rng.randrange(2 * k))
        try:
            g = FamilyParams(*params).build()
        except NonSimpleCover:
            continue
        if g.is_connected():
            return params, g


def test_are_isomorphic_agrees_with_canonical_forms_on_covers():
    rng = random.Random(24)
    for k in range(8, 13):
        for t in (1, 2, 3, 4):
            _, g = connected_cover(rng, t, k)
            _, h = connected_cover(rng, t % 4 + 1, k)
            for x, y in ((g, relabelled(g, k)), (relabelled(h, t), h), (g, h), (h, g)):
                assert are_isomorphic(x, y) == (canonical_form(x) == canonical_form(y))


@pytest.fixture
def rounds_run(monkeypatch):
    """Counts the rounds each `_ball_rounds` call yields; returns the list of
    counts since then, one per call."""
    counts = []
    original = symmetry._ball_rounds

    def counted(adj):
        counts.append(0)
        mine = len(counts) - 1
        for sizes in original(adj):
            counts[mine] += 1
            yield sizes

    monkeypatch.setattr(symmetry, "_ball_rounds", counted)
    return counts


@pytest.mark.parametrize("params_g, params_h, rounds", [
    ((1, 8, 13, 8), (2, 8, 7, 15), 2),
    ((4, 9, 1, 16), (1, 9, 4, 6), 4),
], ids=["round 2", "round 4"])
def test_are_isomorphic_stops_at_the_first_round_that_differs(
        rounds_run, deciders, params_g, params_h, rounds):
    g, h = FamilyParams(*params_g).build(), FamilyParams(*params_h).build()
    differ = [sorted(a) != sorted(b) for a, b in zip(
        symmetry._ball_rounds(g.adjacency()), symmetry._ball_rounds(h.adjacency()))]
    assert differ.index(True) == rounds - 1
    del rounds_run[:]
    assert not are_isomorphic(g, h)
    assert rounds_run == [rounds, rounds]
    assert deciders() == (0, 0)


def test_are_isomorphic_runs_every_round_on_a_relabelled_cover(rounds_run, deciders):
    g = FamilyParams(1, 8, 13, 8).build()
    assert are_isomorphic(g, relabelled(g, 6))
    assert rounds_run == [4, 4]
    assert deciders() == (0, 1)


@given(small_graphs(), small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_are_isomorphic_agrees_with_canonical_forms(g, h, rng):
    assert are_isomorphic(g, h) == (canonical_form(g) == canonical_form(h))
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert are_isomorphic(g, g.relabel(perm))
    assert are_isomorphic(g.relabel(perm), g)


# -- cycles and girth ---------------------------------------------------------

GIRTHS = [
    (cycle(5), 5),
    (gp(5, 2), 5),
    (t3(1, 1), 4),
    (prism(3), 3),
    (gp(4, 1), 4),
    (x_graph(9), 8),
    (y_graph(9), 6),
    (path(4), None),
]


@pytest.mark.parametrize("g,want", GIRTHS)
def test_girth_known_values(g, want):
    assert girth(g) == want


def test_cycle_enumeration_known_counts():
    assert len(cycles_of_length(cycle(8), 8)) == 1
    assert len(cycles_of_length(t3(1, 1), 4)) == 9
    assert len(cycles_of_length(t3(1, 1), 6)) == 6
    assert len(cycles_of_length(gp(5, 2), 5)) == 12
    assert len(cycles_of_length(gp(5, 2), 6)) == 10
    cube = gp(4, 1)
    assert len(cycles_of_length(cube, 4)) == 6
    assert len(cycles_of_length(cube, 6)) == 16
    assert len(cycles_of_length(cube, 8)) == 6
    assert cycles_of_length(gp(5, 2), 3) == []


def test_cycles_are_listed_once_each():
    for g in (gp(5, 2), prism(4)):
        for c in (4, 5, 6):
            seen = set()
            for cyc in cycles_of_length(g, c):
                assert len(cyc) == c
                assert len(set(cyc)) == c
                assert cyc[0] == min(cyc)
                assert cyc[1] < cyc[-1]
                key = frozenset(cyc)
                edges = set()
                for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                    assert g.has_edge(a, b)
                    edges.add((min(a, b), max(a, b)))
                assert (key, frozenset(edges)) not in seen
                seen.add((key, frozenset(edges)))


def test_cycle_counts_consistency():
    g = gp(5, 2)
    per_vertex, per_edge, total = cycle_counts(g, 5)
    assert total == 12
    assert sum(per_vertex) == 5 * total
    assert sum(per_edge.values()) == 5 * total
    assert is_c_vertex_regular(g, 5)
    assert is_c_cycle_regular(g, 5)
    assert c_signature(g, 0, 5) == (4, 4, 4)


def test_x_graph_eight_cycle_signature():
    g = x_graph(9)
    assert c_signature(g, 0, 8) == (5, 5, 6)
    assert is_c_cycle_regular(g, 8)
    # paw graph: triangle edges sit in one 3-cycle, the pendant edge in none
    paw = SimpleGraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert not is_c_cycle_regular(paw, 3)
    assert not is_c_vertex_regular(paw, 3)


# -- k-circulant detection ----------------------------------------------------

def test_find_k_circulant():
    pet = gp(5, 2)
    bi = find_k_circulant(pet, 2)
    assert is_automorphism(pet.adjacency(), bi)
    assert cycle_lengths(bi) == [5, 5]
    c6 = cycle(6)
    assert find_k_circulant(c6, 1) == (1, 2, 3, 4, 5, 0)  # the least 6-cycle
    with pytest.raises(ValueError):
        find_k_circulant(pet, 3)                 # 10/3 is not integral
    assert find_k_circulant(t3(1, 1), 3) is not None
    # the trivial partition: everything is an n-circulant via the identity
    assert find_k_circulant(pet, 10) == tuple(range(10))


def test_petersen_is_not_a_circulant():
    assert find_k_circulant(gp(5, 2), 1) is None


def test_find_k_circulant_on_the_empty_graph_is_a_value_error():
    with pytest.raises(ValueError):
        find_k_circulant(SimpleGraph(0, []), 1)


def test_group_order_of_six_prisms(time_limit):
    # t3(12, 6) is six copies of prism(6), whose group has order 24; the
    # generators from the search once made the order computation hang.
    g = t3(12, 6)
    with time_limit(10):
        order = group_order(g)
    assert order == 24**6 * factorial(6) == 137_594_142_720


@pytest.mark.parametrize("make, circulant", [
    (lambda: prism(297), (True, True, True)),  # C_297 x K_2 is cyclic
    (lambda: x_graph(99), (False, False, True)),  # a tricirculant only
], ids=["prism(297)", "x_graph(99)"])
def test_group_questions_at_the_size_guard(time_limit, make, circulant):
    # 594 vertices, under the guard of 600. Searching, ordering and the
    # semiregular search took about 0.3 s a graph before refinement re-keyed
    # only the marked vertices and the chain tested on the search's base,
    # and about 0.1-0.2 s after.
    g = make()
    symmetry._search_cached.cache_clear()
    with time_limit(2):
        canonical_form(g)
        assert group_order(g) == 2 * g.n
        found = tuple(find_k_circulant(g, m) is not None for m in (1, 2, 3))
    assert found == circulant


@pytest.mark.parametrize("complete", [False, True], ids=["edgeless", "complete"])
def test_search_on_the_full_symmetric_group(time_limit, complete):
    # Every relabeling of these graphs is an automorphism. Without the jump
    # from a leaf that matches the first leaf back to their deepest common
    # ancestor, the edgeless graph on 40 vertices took about 14 s.
    n = 60
    g = SimpleGraph(n, [(a, b) for a in range(n) for b in range(a + 1, n)]
                    if complete else [])
    with time_limit(10):
        assert canonical_form(g) == encode_graph6(g)
        assert group_order(g) == factorial(n)


def test_search_ignores_the_row_order_of_lifted_adjacency():
    # `lifted_adjacency` keeps each row in dart order, not sorted; the
    # generator check must not read that as an invalid generator, and the
    # search must give the result it gives on the built cover.
    from tricirc.symmetry import _search_cached
    from tricirc.voltage import (
        cover_is_simple, derived_cover, lifted_adjacency, zeta_for)

    checked = unsorted = 0
    for t in (1, 2, 3, 4):
        for k in range(1, 5):
            for r in range(2 * k):
                for s in range(2 * k) if t != 3 else (0,):
                    va = zeta_for(t, k, r, s)
                    if not cover_is_simple(va):
                        continue
                    lifted = lifted_adjacency(va)
                    built = derived_cover(va).adjacency()
                    unsorted += lifted != built
                    a, b = _search_cached(lifted), _search_cached(built)
                    assert (a.gens, a.labeling, a.cert) == (
                        b.gens, b.labeling, b.cert)
                    checked += 1
    assert checked > 0 and unsorted > 0


def _edge_orbits_of(g, gens):
    edges = g.edges()
    index = {e: i for i, e in enumerate(edges)}
    maps = ([index[tuple(sorted((p[a], p[b])))] for a, b in edges] for p in gens)
    return symmetry._orbits(len(edges), maps)


def test_a_seeded_search_gives_the_unseeded_answers():
    # Seeding with the maps a family graph carries only prunes: on every
    # family graph at k <= 50 the certificate, base, |Aut| and orbits are
    # those of its unseeded twin, the same rows carrying no maps, and |Aut|
    # is the chain's order over the seeded entry's own generators. The two
    # are separate cache entries.
    from tricirc.verify import _family_graphs

    checked = 0
    for k in range(1, 51):
        for name, g in _family_graphs(k).items():
            twin = SimpleGraph._from_rows(g.adjacency())
            assert g.known_automorphisms and twin.known_automorphisms == ()
            symmetry._search_cached.cache_clear()
            seeded = symmetry._searched(g)
            plain = symmetry._searched(twin)
            assert symmetry._search_cached.cache_info().misses == 2, name
            assert seeded is not plain
            assert (seeded.cert, seeded.base, seeded.order) == (
                plain.cert, plain.base, plain.order), name
            assert (symmetry._orbits(g.n, seeded.gens)
                    == symmetry._orbits(g.n, plain.gens)), name
            assert _edge_orbits_of(g, seeded.gens) == _edge_orbits_of(g, plain.gens)
            chain = symmetry._stabiliser_chain(g.n, seeded.gens, seeded.base)
            assert prod(map(len, chain)) == seeded.order, name
            checked += 1
    assert checked == 123


def test_a_seed_that_is_not_an_automorphism_raises_before_the_search(monkeypatch):
    # Copies of X(9) that carry a transposed pair of vertices, or a map of
    # the wrong length.
    searches = []
    original = symmetry._search

    def recorded(*args):
        searches.append(args)
        return original(*args)

    monkeypatch.setattr(symmetry, "_search", recorded)

    def carrying(*maps):
        g = SimpleGraph._from_rows(x_graph(9).adjacency())
        g.known_automorphisms = maps
        return g

    rho = fibre_map(9, shift=1)
    swapped = list(range(len(rho)))
    swapped[0], swapped[1] = 1, 0
    symmetry._search_cached.cache_clear()
    for bad in (tuple(swapped), rho[:-1]):
        with pytest.raises(ValueError, match="seed 1 is not an automorphism"):
            symmetry._searched(carrying(rho, bad))
    assert searches == []
    assert symmetry._searched(carrying(rho)).order == 108
    assert len(searches) == 1


# -- sibling automorphisms by colour-preserving extension --------------------

def assert_pruning_is_exact(g, monkeypatch, adj=None):
    """The search on adj (g's rows, or the same rows in another order), and
    a plain one whose extension never finds a map, so that every sibling
    not joined by a known automorphism is explored: the same certificate,
    base, |Aut|, vertex orbits and edge orbits, and the chain over the
    pruned search's generators has order |Aut|."""
    adj = g.adjacency() if adj is None else adj
    gens, _, cert, base, order = symmetry._search(adj)
    with monkeypatch.context() as m:
        m.setattr(symmetry, "_extend", lambda *args: (None, 0))
        plain_gens, _, *plain = symmetry._search(adj)
    assert (cert, base, order) == tuple(plain)
    assert all(is_automorphism(adj, img) for img in gens)
    assert symmetry._orbits(g.n, gens) == symmetry._orbits(g.n, plain_gens)
    assert _edge_orbits_of(g, gens) == _edge_orbits_of(g, plain_gens)
    assert prod(map(len, symmetry._stabiliser_chain(g.n, gens, base))) == order


@st.composite
def connected_graphs(draw):
    """A random spanning tree plus random extra edges, on 1..12 vertices,
    relabelled at random."""
    n = draw(st.integers(1, 12))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges.update(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else ())
    perm = draw(st.permutations(range(n)))
    return SimpleGraph(n, [(perm[a], perm[b]) for a, b in edges])


@given(connected_graphs())
@settings(max_examples=200, deadline=None)
def test_pruned_search_is_exact_on_small_connected_graphs(g):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_pruning_is_exact(g, monkeypatch)


@pytest.mark.parametrize("k", range(1, 7))
def test_pruned_search_is_exact_on_every_cover(monkeypatch, k):
    # Every simple connected cover at order 6k on the whole (r, s) grid, on
    # its lifted rows (in dart order) and built.
    from tricirc.voltage import (
        cover_connected, cover_is_simple, derived_cover, lifted_adjacency, zeta_for)

    checked = 0
    for t in (1, 2, 3, 4):
        for r in range(2 * k):
            for s in range(2 * k) if t != 3 else (0,):
                va = zeta_for(t, k, r, s)
                if cover_is_simple(va) and cover_connected(va):
                    g = derived_cover(va)
                    assert_pruning_is_exact(g, monkeypatch, lifted_adjacency(va))
                    assert_pruning_is_exact(g, monkeypatch)
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("k", range(1, 26))
def test_pruned_search_is_exact_on_relabelled_family_graphs(monkeypatch, k):
    graphs = [prism(3 * k), moebius(3 * k)]
    if k % 2 and k >= 3:
        graphs += [x_graph(k), y_graph(k)]
    for seed, g in enumerate(graphs):
        assert_pruning_is_exact(relabelled(g, 100 * k + seed), monkeypatch)


def complete_bipartite(n):
    return SimpleGraph(2 * n, [(a, n + b) for a in range(n) for b in range(n)])


@pytest.mark.parametrize("g", [complete(n) for n in range(1, 9)]
                         + [complete_bipartite(n) for n in range(1, 9)],
                         ids=[f"K{n}" for n in range(1, 9)]
                         + [f"K{n},{n}" for n in range(1, 9)])
def test_pruned_search_is_exact_on_complete_graphs(monkeypatch, g):
    assert_pruning_is_exact(g, monkeypatch)


def test_pruned_search_is_exact_on_the_necklace(monkeypatch):
    from test_group_reference import necklace

    assert_pruning_is_exact(necklace(10), monkeypatch)


@pytest.mark.parametrize("make", [
    lambda: x_graph(49), lambda: y_graph(49),
    lambda: prism(147), lambda: moebius(147),
], ids=["X(49)", "Y(49)", "prism(147)", "moebius(147)"])
def test_siblings_are_pruned_without_refining(monkeypatch, make):
    # A graph6 round trip carries no maps, so only the search finds the
    # automorphisms; refining each explored sibling to a leaf took 8, 8, 8
    # and 6 refinements.
    from tricirc.graph6 import decode_graph6

    g = decode_graph6(encode_graph6(make()))
    assert g.known_automorphisms == ()
    refined = []
    original = symmetry._wl_refine

    def counted(*args):
        refined.append(args)
        return original(*args)

    monkeypatch.setattr(symmetry, "_wl_refine", counted)
    symmetry._search_cached.cache_clear()
    assert group_order(g) == 2 * g.n
    assert len(refined) <= 3
