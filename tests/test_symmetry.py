"""Automorphism groups, canonical forms, orbits, cycles and girth."""

import random
from math import factorial

import pytest

from tricirc.families import gp, moebius, prism, t3, x_graph, y_graph
from tricirc.graph6 import encode_graph6
from tricirc.graphs import SimpleGraph
from tricirc.symmetry import (
    EnumerationCapExceeded,
    Permutation,
    SizeGuardError,
    are_isomorphic,
    arc_orbit_count,
    automorphism_group,
    c_signature,
    canonical_form,
    canonical_labeling,
    cycle_counts,
    cycles_of_length,
    edge_orbits,
    find_k_circulant,
    girth,
    group_elements,
    group_order,
    is_arc_transitive,
    is_c_cycle_regular,
    is_c_vertex_regular,
    is_edge_transitive,
    is_vertex_transitive,
    uniform_local_profile,
    vertex_orbits,
)


def path(n):
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


# -- permutations -------------------------------------------------------------

def test_permutation_algebra():
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    assert (p * p * p).is_identity()
    assert p.inverse() * p == Permutation((0, 1, 2))
    assert p.order() == 3
    assert (p * q).img != (q * p).img
    assert sorted(p.cycle_lengths()) == [3]
    assert sorted(q.cycle_lengths()) == [1, 2]
    assert p.is_semiregular() and not q.is_semiregular()


def test_permutation_is_automorphism():
    c5 = cycle(5)
    rot = Permutation(tuple((i + 1) % 5 for i in range(5)))
    flip = Permutation(tuple((-i) % 5 for i in range(5)))
    bad = Permutation((1, 0, 2, 3, 4))
    assert rot.is_automorphism(c5)
    assert flip.is_automorphism(c5)
    assert not bad.is_automorphism(c5)


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
    gens = automorphism_group(g)
    assert group_order(g.n, gens) == order


def test_group_order_of_trivial_group():
    assert group_order(5, []) == 1


def test_group_elements_enumeration():
    c4 = cycle(4)
    elems = group_elements(c4.n, automorphism_group(c4))
    assert len(elems) == 8
    assert len({e.img for e in elems}) == 8
    with pytest.raises(EnumerationCapExceeded):
        group_elements(gp(5, 2).n, automorphism_group(gp(5, 2)), cap=10)


def test_vertex_and_edge_orbits():
    p = path(4)                      # orbits {0,3}, {1,2}
    gens = automorphism_group(p)
    vo = vertex_orbits(p, gens)
    assert sorted(sorted(b) for b in vo) == [[0, 3], [1, 2]]
    eo = edge_orbits(p, gens)
    assert len(eo) == 2       # end edges vs middle edge
    pet = gp(5, 2)
    assert len(vertex_orbits(pet)) == 1
    assert len(edge_orbits(pet)) == 1
    assert arc_orbit_count(pet) == 1


def test_transitivity_predicates():
    pet = gp(5, 2)
    assert is_vertex_transitive(pet)
    assert is_edge_transitive(pet)
    assert is_arc_transitive(pet)
    assert not is_vertex_transitive(path(3))
    pr = prism(6)
    assert is_vertex_transitive(pr)
    assert not is_arc_transitive(pr)     # rungs vs rim edges
    # star K_{1,3}: edge- but not vertex-transitive
    star = SimpleGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert is_edge_transitive(star) and not is_vertex_transitive(star)


def test_uniform_local_profile_screen():
    assert uniform_local_profile(gp(5, 2))
    assert uniform_local_profile(x_graph(9))
    assert not uniform_local_profile(path(4))


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
    lab = canonical_labeling(g)
    assert sorted(lab.img) == list(range(g.n))


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
    assert bi is not None and bi.order() == 5 and bi.is_semiregular()
    c6 = cycle(6)
    uni = find_k_circulant(c6, 1)
    assert uni is not None and uni.order() == 6
    with pytest.raises(ValueError):
        find_k_circulant(pet, 3)                 # 10/3 is not integral
    assert find_k_circulant(t3(1, 1), 3) is not None
    # the trivial partition: everything is an n-circulant via the identity
    assert find_k_circulant(pet, 10).is_identity()


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
        order = group_order(g.n, automorphism_group(g))
    assert order == 24**6 * factorial(6) == 137_594_142_720


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
        assert group_order(n, automorphism_group(g)) == factorial(n)
