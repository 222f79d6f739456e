"""Parametrized cover families, named graphs and their explicit symmetries."""

import random
from math import gcd, lcm, prod

import pytest

from tricirc.families import (
    FamilyParams,
    family_automorphism,
    fibre_indexers,
    fibre_map,
    gp,
    moebius,
    parameter_orbits,
    parameter_symmetries,
    prism,
    r_star,
    t1,
    t2,
    t3,
    t4,
    torus_cycle_decomposition,
    unit_generators,
    x_graph,
    y_graph,
)
from tricirc.graph6 import decode_graph6, encode_graph6
from tricirc.symmetry import (
    _orbits,
    _searched,
    _stabiliser_chain,
    are_isomorphic,
    canonical_form,
    girth,
    group_order,
    is_automorphism,
    is_vertex_transitive,
)
from tricirc.voltage import (
    NonSimpleCover,
    NotAutomorphism,
    cover_connected,
    zeta_for,
)


def cycle_lengths(img):
    """The sorted cycle lengths of a permutation given by its image tuple."""
    return sorted(len(orbit) for orbit in _orbits(len(img), [img]))


def test_family_orders():
    assert t1(9, 6, 1).n == 54
    assert t2(9, 2, 1).n == 54
    assert t3(9, 2).n == 54
    assert t4(5, 1, 2).n == 30


def test_family_connectivity_criterion():
    assert cover_connected(zeta_for(1, 9, 6, 1))
    assert not cover_connected(zeta_for(1, 9, 6, 3))
    assert cover_connected(zeta_for(3, 9, 2))
    assert not cover_connected(zeta_for(3, 9, 3))
    assert t1(9, 6, 3).is_connected() is False
    assert t3(9, 3).is_connected() is False


def test_family_params_object():
    p = FamilyParams(1, 9, 6, 1)
    assert cover_connected(zeta_for(p.family_type, p.k, p.r, p.s))
    assert p.build().n == 54
    assert FamilyParams(3, 9, 2).build().n == 54
    with pytest.raises(ValueError):
        FamilyParams(5, 9, 2, 1)
    with pytest.raises(ValueError):
        FamilyParams(1, 0, 1, 1)


def test_r_star_values():
    assert r_star(9) == 6
    assert r_star(11) == 18
    assert r_star(13) == 8
    assert r_star(15) == 24
    assert r_star(21) == 12
    for k in range(9, 32, 2):
        r = r_star(k)
        assert r % 2 == 0
        assert (3 - 2 * r + k) % (2 * k) == 0
    with pytest.raises(ValueError):
        r_star(8)


def test_x_graph_basics():
    for k in (9, 11, 13):
        g = x_graph(k)
        assert g.n == 6 * k
        assert girth(g) >= 5
        assert is_vertex_transitive(g)


def test_y_graph_basics():
    for k in (9, 11):
        g = y_graph(k)
        assert g.n == 6 * k
        assert is_vertex_transitive(g)
        assert girth(g) == 6


def test_gp_construction():
    pet = gp(5, 2)
    assert pet.n == 10 and pet.edge_count() == 15
    assert girth(pet) == 5
    assert gp(9, 2).n == 18
    # m is taken mod n and folded to min(m, n-m)
    assert set(gp(7, 5).edges()) == set(gp(7, 2).edges())
    with pytest.raises(ValueError):
        gp(6, 3)    # 2m = n collapses the inner rim
    with pytest.raises(ValueError):
        gp(5, 0)


def test_prism_and_moebius():
    assert prism(3).n == 6
    assert are_isomorphic(prism(4), gp(4, 1))
    m3 = moebius(3)
    assert are_isomorphic(m3, t3(1, 1))          # K_{3,3}
    assert girth(moebius(4)) == 4
    assert prism(6).is_bipartite()
    assert not prism(5).is_bipartite()
    # the twist makes the ladder bipartite exactly for an odd rung count
    assert moebius(5).is_bipartite()
    assert not moebius(4).is_bipartite()
    with pytest.raises(ValueError):
        prism(2)


def test_t3_gives_prisms_and_moebius_ladders():
    """Odd shift twists the ladder, even shift leaves it straight."""
    for k in range(9, 21):
        for r in range(2 * k):
            if not cover_connected(zeta_for(3, k, r)):
                continue
            g = t3(k, r)
            want = moebius(3 * k) if r % 2 else prism(3 * k)
            assert are_isomorphic(g, want), (k, r)


def test_x_graph_is_generalized_petersen():
    # inner skip read off the two phi-orbit cycles: k+1 when k = 1 mod 3,
    # k-1 when k = 2 mod 3
    assert are_isomorphic(x_graph(7), gp(21, 8))
    assert are_isomorphic(x_graph(11), gp(33, 10))
    assert are_isomorphic(x_graph(13), gp(39, 14))
    assert not are_isomorphic(x_graph(11), gp(33, 12))
    assert not are_isomorphic(x_graph(13), gp(39, 12))


def test_parameter_isomorphism_identities():
    for k in (5, 7, 9):
        n = 2 * k
        # swapping the two parallel edges
        assert are_isomorphic(t1(k, 2, 1), t1(k, 1, 2))
        # unit rescaling of the voltages
        for a in (3, 5):
            if a % 2 == 0 or n % a == 0:
                continue
            try:
                g = t1(k, 2, 1)
                h = t1(k, (2 * a) % n, a % n)
            except NonSimpleCover:
                continue
            assert are_isomorphic(g, h), (k, a)
        # global negation
        assert are_isomorphic(t2(k, 2, 1), t2(k, n - 2, n - 1))
        assert are_isomorphic(t4(k, 1, 2), t4(k, n - 1, n - 2))
        # loop swap
        assert are_isomorphic(t4(k, 1, 2), t4(k, 2, 1))
        assert are_isomorphic(t3(k, 2), t3(k, n - 2))


def _grid(t, k):
    n = 2 * k
    if t == 3:
        return [(r, None) for r in range(n)]
    return [(r, s) for r in range(n) for s in range(n)]


def _cover_or_none(t, k, r, s):
    try:
        return FamilyParams(t, k, r, s).build()
    except NonSimpleCover:
        return None


def test_declared_symmetries_are_cover_isomorphisms():
    """Every declared map on (r, s) keeps the grid and simplicity, and its
    vertex map relabels the cover at (r, s) onto the cover at the image."""
    for k in range(1, 7):
        for t in (1, 2, 3, 4):
            grid = _grid(t, k)
            for sym in parameter_symmetries(t, k):
                vmap = fibre_map(k, sym.scale, fibres=sym.fibres)
                for r, s in grid:
                    image = sym.image(r, s)
                    assert image in grid, (t, k, r, s)
                    g = _cover_or_none(t, k, r, s)
                    h = _cover_or_none(t, k, *image)
                    assert (g is None) == (h is None), (t, k, r, s)
                    if g is not None:
                        assert g.relabel(vmap) == h, (t, k, r, s, sym)


def _orbit_minima(grid, images):
    """Grid point -> the minimum of its orbit under the maps `images`."""
    least = {}
    for p in grid:  # ascending
        if p in least:
            continue
        least[p] = p
        stack = [p]
        while stack:
            q = stack.pop()
            for image in images:
                x = image(*q)
                if x not in least:
                    least[x] = p
                    stack.append(x)
    return least


def _orbit_pairs(grid, fine, coarse):
    """The sorted (fine orbit minimum, unit orbit minimum) pairs, walked
    once per map set."""
    fine_min = _orbit_minima(grid, fine)
    unit_min = _orbit_minima(grid, fine + coarse)
    return sorted({(fine_min[p], unit_min[p]) for p in grid})


def test_unit_generators_generate_every_unit():
    for n in range(1, 201):
        units = {a % n for a in range(1, n + 1) if gcd(a, n) == 1}
        gens = unit_generators(n)
        group, stack = {1 % n}, [1 % n]
        while stack:
            x = stack.pop()
            for a in gens:
                if x * a % n not in group:
                    group.add(x * a % n)
                    stack.append(x * a % n)
        assert group == units, n
    assert len(unit_generators(200)) <= 3


def test_unit_orbit_counts_are_pinned():
    """Unit orbits and fine representatives over the four types, up to the
    size guard's k = 100, counted at the grid walk that came before the
    flat-index pass."""
    for k, units, fine in ((15, 225, 487), (50, 519, 4173), (100, 1107, 15880)):
        pairs = [parameter_orbits(t, k) for t in (1, 2, 3, 4)]
        assert sum(len({m for _, m in p}) for p in pairs) == units, k
        assert sum(map(len, pairs)) == fine, k
    assert [len(parameter_orbits(t, 100)) for t in (1, 2, 3, 4)] == [427, 10201, 101, 5151]


def test_unit_orbits_are_unions_of_fine_orbits():
    """Each fine orbit of the declared fine maps lies in one orbit of all
    the declared maps, and `parameter_orbits` pairs their minima."""
    for k in range(1, 13):
        for t in (1, 2, 3, 4):
            grid = _grid(t, k)
            syms = parameter_symmetries(t, k)
            fine = [sym.image for sym in syms if sym.fine]
            coarse = [sym.image for sym in syms if not sym.fine]
            fine_min = _orbit_minima(grid, fine)
            unit_min = _orbit_minima(grid, fine + coarse)
            for p in grid:
                assert unit_min[p] == unit_min[fine_min[p]], (t, k, p)
            assert parameter_orbits(t, k) == _orbit_pairs(grid, fine, coarse)


def test_non_fine_maps_commute_with_fine_maps():
    """`parameter_orbits` moves each fine orbit by a non-fine map as a
    whole, which is sound only while the maps commute on the grid."""
    for k in range(1, 21):
        for t in (1, 2, 3, 4):
            syms = parameter_symmetries(t, k)
            for c in (sym.image for sym in syms if not sym.fine):
                for f in (sym.image for sym in syms if sym.fine):
                    for p in _grid(t, k):
                        assert c(*f(*p)) == f(*c(*p)), (t, k, p)


@pytest.mark.parametrize("k", [49, 50, 99, 100])
def test_orbits_match_the_oracle_at_the_guards(k):
    """Odd and even k at the sweep's guard (order 300) and at the size
    guard (order 600)."""
    for t in (1, 2, 3, 4):
        syms = parameter_symmetries(t, k)
        fine = [sym.image for sym in syms if sym.fine]
        coarse = [sym.image for sym in syms if not sym.fine]
        pairs = _orbit_pairs(_grid(t, k), fine, coarse)
        assert parameter_orbits(t, k) == pairs, t


def test_orbits_match_a_walk_over_all_units():
    """The same orbits as scaling by every unit of Z_2k, not generators:
    type 1 reports its unit orbits, the others only join by them."""
    for k in range(1, 21):
        n = 2 * k
        units = [lambda r, s, a=a: (a * r % n, None if s is None else a * s % n)
                 for a in range(1, n) if gcd(a, n) == 1]

        def neg_r(r, s):
            return (-r % n, s)

        def neg_s(r, s):
            return (r, -s % n)

        def swap(r, s):
            return (s, r)

        for t, fine, coarse in ((1, [swap] + units, []),
                                (2, [neg_r, neg_s], units),
                                (3, [neg_r], units),
                                (4, [neg_r, neg_s, swap], units)):
            pairs = _orbit_pairs(_grid(t, k), fine, coarse)
            assert parameter_orbits(t, k) == pairs, (t, k)


@pytest.mark.parametrize("family_type, k, message", [
    (5, 9, "family type must be 1..4"),
    (0, 9, "family type must be 1..4"),
    (1, 0, "k must be positive"),
    (3, 0, "k must be positive"),
    (2, -1, "k must be positive"),
])
@pytest.mark.parametrize("declared", [parameter_symmetries, parameter_orbits])
def test_parameter_symmetries_and_orbits_reject_bad_input(
        declared, family_type, k, message):
    with pytest.raises(ValueError, match=message):
        declared(family_type, k)


@pytest.mark.parametrize("args, field", [
    ((1, 9, 2.5, 1), "r"),
    ((1, 9.0, 2, 1), "k"),
    ((2, 9, 2, "1"), "s"),
    ((3, 9, 2.0), "r"),
])
def test_family_params_reject_fields_that_are_not_ints(args, field):
    """Named at construction, not as a slice or range error in the build."""
    with pytest.raises(TypeError, match=f"^{field} must be an int"):
        FamilyParams(*args)


def test_gcd_rule_matches_cover_connectivity():
    """The gcd rule and a search of the built cover decide one fact."""
    for k in range(1, 7):
        for t in (1, 2, 3, 4):
            for r, s in _grid(t, k):
                g = _cover_or_none(t, k, r, s)
                if g is not None:
                    va = zeta_for(t, k, r, 0 if s is None else s)
                    assert cover_connected(va) == g.is_connected(), (t, k, r, s)


def test_rho_is_the_deck_translation():
    rho = family_automorphism("rho", 9, r=6, s=1)
    assert rho == tuple(f * 18 + (i + 1) % 18 for f in range(3) for i in range(18))
    assert cycle_lengths(rho) == [18] * 3
    assert is_automorphism(t1(9, 6, 1).adjacency(), rho)


def test_phi_x_has_order_three():
    for k in (9, 11, 13):
        phi = family_automorphism("phi_x", k, r=r_star(k), s=1)
        assert lcm(*cycle_lengths(phi)) == 3


def test_phi_t1_bic_orbit_structure():
    for k in (7, 11, 13):        # 3 does not divide k
        phi = family_automorphism("phi_t1_bic", k, r=r_star(k), s=1)
        assert cycle_lengths(phi) == [3 * k, 3 * k]


def test_phi_y_orbit_structure():
    phi9 = family_automorphism("phi_y", 9)
    assert cycle_lengths(phi9) == [9] * 6
    phi11 = family_automorphism("phi_y", 11)
    assert cycle_lengths(phi11) == [33, 33]


def test_declared_automorphisms_generate_the_whole_group():
    # The order of the group the carried maps generate, read off their
    # stabiliser chain on the search's base, against |Aut|. Four graphs have
    # more automorphisms than their maps generate: K_{3,3} and the three
    # arc-transitive X(3) (girth 3), Y(3) (the Pappus graph) and Y(9).
    from tricirc.verify import _family_graphs

    short = {}
    for k in range(1, 50):
        for name, g in _family_graphs(k).items():
            generated = prod(map(len, _stabiliser_chain(
                g.n, g.known_automorphisms, _searched(g).base)))
            if generated != group_order(g):
                short[name] = (generated, group_order(g))
    assert short == {"moebius(3)": (12, 72), "X(3)": (36, 72),
                     "Y(3)": (36, 216), "Y(9)": (108, 324)}


def test_declared_automorphisms_are_the_named_maps():
    k = 9
    _, u, v, w = fibre_indexers(k)
    rho, phi, tau = x_graph(k).known_automorphisms
    assert (rho, phi) == (family_automorphism("rho", k),
                          family_automorphism("phi_x", k))
    assert tau == fibre_map(k, -1, fibres=(0, 2, 1))
    rho, phi, tau = y_graph(k).known_automorphisms
    assert (rho, phi) == (family_automorphism("rho", k),
                          family_automorphism("phi_y", k))
    assert [tau[x(i)] for x in (u, v, w) for i in (0, 5)] == [
        u(0), u(-5), v(0), v(-5), w(2), w(-3)]
    assert [len(graph(27).known_automorphisms) for graph in (prism, moebius)] == [3, 2]


def test_family_graphs_carry_automorphisms_at_every_size_the_search_takes():
    # X(k) and Y(k) at every odd k up to order 594, the ladders up to order
    # 600: the 600-vertex size guard of the IR search.
    graphs = [f(k) for k in range(3, 100, 2) for f in (x_graph, y_graph)]
    graphs += [f(m) for m in range(3, 301) for f in (prism, moebius)]
    for g in graphs:
        assert g.known_automorphisms, g
        assert all(is_automorphism(g.adjacency(), img)
                   for img in g.known_automorphisms), g
    # A relabelled or decoded copy carries none, since the maps name the
    # constructor's vertices, and is still searched to the same form.
    g = x_graph(9)
    perm = list(range(g.n))
    random.Random(9).shuffle(perm)
    relabelled = g.relabel(perm)
    assert relabelled.known_automorphisms == ()
    decoded = decode_graph6(encode_graph6(g))
    assert decoded.known_automorphisms == ()
    assert decoded == g and hash(decoded) == hash(g)
    assert canonical_form(relabelled) == canonical_form(g)


def test_family_automorphism_rejects_bad_maps():
    with pytest.raises(NotAutomorphism):
        family_automorphism("phi_t1_bic", 9, r=2, s=1)  # wrong parameters
    with pytest.raises(ValueError):
        family_automorphism("nope", 9)
    for k in (0, -2, -3):
        with pytest.raises(ValueError, match="k must be positive"):
            family_automorphism("rho", k)


def test_family_automorphism_rejects_a_map_that_is_not_a_bijection():
    # k + s odd: the odd v_i and the even w_i both land on the even u_j
    with pytest.raises(ValueError, match="not a permutation") as caught:
        family_automorphism("phi_t1_bic", 9, r=2, s=0)
    assert not isinstance(caught.value, NotAutomorphism)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_phi_y_at_even_k_says_k_must_be_odd(k):
    # y_graph(k) is built, and checks k, before phi_y's table is read.
    with pytest.raises(ValueError, match="k must be odd"):
        family_automorphism("phi_y", k)


def test_fibre_map_rejects_a_map_that_is_not_a_bijection():
    with pytest.raises(ValueError):
        fibre_map(9, 3)  # 3 is not a unit mod 18
    with pytest.raises(ValueError):
        fibre_map(9, fibres=(0, 0, 1))
    for k in (0, -2, -3):
        with pytest.raises(ValueError, match="k must be positive"):
            fibre_map(k)
    assert cycle_lengths(fibre_map(9, -1, fibres=(1, 2, 0))) == [3, 3] + [6] * 8


def test_torus_cycle_decomposition():
    for k in (9, 11, 13):
        g = y_graph(k)
        dec = torus_cycle_decomposition(g, k)
        assert [len(c) for c in dec.cycles] == [2 * k] * 3
        covered = set()
        for c in dec.cycles:
            covered.update(c)
        assert len(covered) == g.n
        assert len(dec.matching) == g.n // 2
        matched = {v for e in dec.matching for v in e}
        assert len(matched) == g.n
        for a, b in dec.matching:
            assert g.has_edge(a, b)


def test_torus_decomposition_rejects_non_y_graphs():
    with pytest.raises(ValueError):
        torus_cycle_decomposition(x_graph(9), 9)


def test_y_graph_arc_transitive_exception():
    # order 54 is the one arc-transitive member of the family
    g = y_graph(9)
    assert group_order(g) == 324
