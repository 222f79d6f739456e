"""Voltage assignments, derived covers and cyclic quotients."""

import pytest

from tricirc.graphs import SimpleGraph
from tricirc.pregraph import Pregraph, Walk, delta, pregraphs_isomorphic
from tricirc.voltage import (
    NonSimpleCover,
    NotAutomorphism,
    NotSemiregular,
    SymbolicVoltage,
    VoltageAssignment,
    cover_connected,
    cover_is_simple,
    derived_cover,
    lifted_adjacency,
    net_voltage,
    quotient_with_voltages,
    symbolic_dart_voltage,
    symbolic_net_voltage,
    zeta_for,
)


def test_assignment_validates_inverse_voltages():
    base = delta(1)
    zeta = {d: 0 for d in range(base.n_darts)}
    zeta[base.dart("(uu)_k")] = 3  # order > 2 on a semi-edge
    with pytest.raises(ValueError):
        VoltageAssignment(base, 10, zeta)


@pytest.mark.parametrize("changes, message", [
    ({"(uv)_0": None}, "dart 1 has no voltage"),
    ({"(uu)_k": 3}, r"semi-edge \(uu\)_k needs a voltage of order at most 2"),
    ({"(vw)_r": 1}, r"voltage of \(vw\)_r does not negate"),
])
def test_voltage_assignment_rejects_bad_input(changes, message):
    base = delta(1)
    zeta = {d: 0 for d in range(base.n_darts)}
    for name, value in changes.items():
        if value is None:
            del zeta[base.dart(name)]
        else:
            zeta[base.dart(name)] = value
    with pytest.raises(ValueError, match=message):
        VoltageAssignment(base, 10, zeta)


def test_zeta_for_standard_values():
    va = zeta_for(1, 9, r=6, s=1)
    base = va.base
    assert va.n == 18
    assert va.voltage(base.dart("(uu)_k")) == 9
    assert va.voltage(base.dart("(vw)_r")) == 6
    assert va.voltage(base.dart("(wv)_-r")) == 12
    assert va.voltage(base.dart("(uv)_0")) == 0
    assert va.is_normalised()


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_zeta_for_evaluates_each_dart_symbol(t):
    base = delta(t)
    for k in range(1, 9):
        for r in range(2 * k):
            for s in range(2 * k):
                va = zeta_for(t, k, r, s)
                assert va.base is base and va.n == 2 * k
                assert va.zeta == {
                    d: symbolic_dart_voltage(base, d).evaluate(k, r, s)
                    for d in range(base.n_darts)}


def test_cover_shape_and_valence():
    for idx, k, r, s in [(1, 9, 6, 1), (2, 9, 2, 1), (3, 9, 2, 0), (4, 5, 1, 2)]:
        va = zeta_for(idx, k, r=r, s=s)
        g = derived_cover(va)
        assert g.n == 6 * k
        assert g.edge_count() == 9 * k
        assert set(map(len, g.adjacency())) == {3}


def test_cover_vertex_layout():
    # fibres are blocks: u_i = i, v_i = 2k+i, w_i = 4k+i
    k = 5
    g = derived_cover(zeta_for(1, k, r=2, s=1))
    n = 2 * k
    for i in range(n):
        assert g.has_edge(i, (i + k) % n)          # semi-edge fibre
        assert g.has_edge(i, n + i)                # u_i v_i
        assert g.has_edge(i, 2 * n + i)            # u_i w_i
        assert g.has_edge(n + i, 2 * n + (i + 2) % n)   # v_i w_{i+r}
        assert g.has_edge(n + i, 2 * n + (i + 1) % n)   # v_i w_{i+s}


def test_cover_edge_tags():
    g = derived_cover(zeta_for(1, 9, r=6, s=1))
    from collections import Counter
    tags = Counter(g.edge_tag(a, b) for a, b in g.edges())
    assert tags == {"0": 36, "R": 18, "S": 18, "K": 9}


def test_non_simple_covers_are_rejected():
    with pytest.raises(NonSimpleCover):
        derived_cover(zeta_for(1, 9, r=1, s=1))  # parallel R/S lifts
    with pytest.raises(NonSimpleCover):
        derived_cover(zeta_for(2, 9, r=2, s=0))  # loop lifts to a loop
    with pytest.raises(NonSimpleCover):
        derived_cover(zeta_for(2, 9, r=2, s=9))  # loop at half the modulus
    with pytest.raises(NonSimpleCover):
        derived_cover(zeta_for(1, 9, r=0, s=0))


@pytest.mark.parametrize("delta_index,r,s,contains,label,voltage", [
    (1, 1, 1, "parallel edges", "(vw)_s", 1),
    (2, 2, 0, "loops", "(vv)_s", 0),
    (2, 2, 9, "parallel edges", "(vv)_s", 9),
    (2, 0, 0, "loops", "(vv)_s", 0),
    (2, 0, 1, "parallel edges", "(uw)_r", 0),
    (4, 3, 0, "loops", "(vv)_s", 0),
])
def test_non_simple_cover_names_its_base_edge(delta_index, r, s, contains,
                                              label, voltage):
    va = zeta_for(delta_index, 9, r=r, s=s)
    assert not cover_is_simple(va)
    with pytest.raises(NonSimpleCover) as excinfo:
        derived_cover(va)
    err = excinfo.value
    assert (err.label, err.voltage) == (label, voltage)
    assert va.base.dart_label(err.dart) == label
    assert str(err) == (f"cover would contain {contains} (base edge {label},"
                        f" voltage {voltage} mod 18)")


def test_voltage_rules_match_the_built_cover():
    """On the full (r, s) grid of all four types for k <= 10, the
    simplicity rule at the fibre roots agrees with the lifted adjacency
    lists at every vertex (no vertex among its own neighbours, none twice)
    and with whether `derived_cover` builds a graph, and the lifted
    adjacency of a simple cover is the built cover's."""
    for k in range(1, 11):
        for t in (1, 2, 3, 4):
            for r in range(2 * k):
                for s in [0] if t == 3 else range(2 * k):
                    va = zeta_for(t, k, r, s)
                    adj = lifted_adjacency(va)
                    simple = all(v not in nb and len(set(nb)) == len(nb)
                                 for v, nb in enumerate(adj))
                    assert cover_is_simple(va) == simple, (t, k, r, s)
                    try:
                        g = derived_cover(va)
                    except NonSimpleCover:
                        assert not simple, (t, k, r, s)
                        continue
                    assert simple, (t, k, r, s)
                    assert [tuple(sorted(nb)) for nb in adj] \
                        == list(g.adjacency()), (t, k, r, s)


def test_cover_connectivity_follows_gcd():
    assert cover_connected(zeta_for(1, 9, r=6, s=1))
    assert not cover_connected(zeta_for(1, 9, r=6, s=3))  # gcd(9,6,3)=3
    assert cover_connected(zeta_for(3, 9, r=2))
    assert not cover_connected(zeta_for(3, 9, r=6))
    g = derived_cover(zeta_for(1, 9, r=6, s=3))
    assert not g.is_connected()
    assert len(g.components()) == 3


def test_net_voltage_on_walks():
    va = zeta_for(1, 9, r=6, s=1)
    base = va.base
    w = Walk(base, [base.dart(nm) for nm in ["(uv)_0", "(vw)_r", "(wu)_0"]])
    assert net_voltage(va, w) == 6
    assert net_voltage(va, w.inverse()) == 12


def test_symbolic_voltage_canonical_representative():
    sv = SymbolicVoltage(0, -2, 1)
    assert sv.canonical() == SymbolicVoltage(0, 2, -1)
    assert SymbolicVoltage(1, 0, 0).canonical() == SymbolicVoltage(1, 0, 0)
    # eps lives mod 2: negating k gives k back
    assert SymbolicVoltage(-1, 0, 0) == SymbolicVoltage(1, 0, 0)


def test_symbolic_voltage_evaluate_and_str():
    sv = SymbolicVoltage(1, 2, -1)
    assert str(sv) == "k+2r-s"
    assert sv.evaluate(9, 6, 1) == (9 + 12 - 1) % 18
    assert str(SymbolicVoltage(0, 0, 0)) == "0"


def test_symbolic_net_voltage_matches_numeric():
    va = zeta_for(1, 7, r=4, s=1)
    base = va.base
    w = Walk(base, [base.dart(nm)
                 for nm in ["(uu)_k", "(uv)_0", "(vw)_s", "(wu)_0"]])
    sv = symbolic_net_voltage(base, w)
    assert sv == SymbolicVoltage(1, 0, 1)
    assert sv.evaluate(7, 4, 1) == net_voltage(va, w)


def test_quotient_round_trip():
    """Quotienting a cover by its deck shift recovers the base."""
    for idx, k, r, s in [(1, 5, 2, 1), (2, 5, 2, 1), (3, 5, 2, 0), (4, 5, 1, 2)]:
        va = zeta_for(idx, k, r=r, s=s)
        g = derived_cover(va)
        n = 2 * k
        rho = []
        for x in range(3):
            for i in range(n):
                rho.append(x * n + (i + 1) % n)
        q = quotient_with_voltages(g, rho)[0]
        assert pregraphs_isomorphic(q, delta(idx))


def test_quotient_with_voltages_rebuilds_the_cover():
    va = zeta_for(2, 5, r=2, s=1)
    g = derived_cover(va)
    n = 10
    rho = [x * n + (i + 1) % n for x in range(3) for i in range(n)]
    q, qva = quotient_with_voltages(g, rho)
    assert qva.n == n
    assert qva.is_normalised()
    from tricirc.symmetry import are_isomorphic
    assert are_isomorphic(derived_cover(qva), g)


def test_quotient_rejects_non_automorphisms_and_unequal_orbits():
    g = derived_cover(zeta_for(1, 5, r=2, s=1))
    not_auto = list(range(g.n))
    not_auto[0], not_auto[1] = 1, 0
    with pytest.raises(NotAutomorphism):
        quotient_with_voltages(g, not_auto)
    # a reflection of C6 fixes two vertices, so its orbits have mixed sizes
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    reflection = [(-i) % 6 for i in range(6)]
    with pytest.raises(NotSemiregular):
        quotient_with_voltages(c6, reflection)


def test_quotient_rejects_a_rho_that_is_not_a_permutation_of_the_vertices():
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    with pytest.raises(NotAutomorphism):
        quotient_with_voltages(c6, [1, 2, 3, 4, 5, 1])  # 1 twice, 0 never
    with pytest.raises(NotAutomorphism):
        quotient_with_voltages(c6, [1, 2, 3, 4, 0])  # a 5-cycle on 0..4


def test_quotient_of_a_disconnected_graph_is_refused():
    # rho turns each of two triangles, so no quotient tree spans both orbits
    two_triangles = SimpleGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    with pytest.raises(ValueError, match="quotient tree incomplete"):
        quotient_with_voltages(two_triangles, [1, 2, 0, 4, 5, 3])


def test_quotient_of_c6_by_its_antipodal_involution_is_a_triangle():
    # no edge of C6 joins antipodal vertices, so there are no semi-edges
    c6 = SimpleGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    rho = [(i + 3) % 6 for i in range(6)]
    q = quotient_with_voltages(c6, rho)[0]
    assert sum(q.semi_edge_count(v) for v in range(3)) == 0
    # the links u-v, v-w and w-u: darts 2j and 2j+1 are mutually inverse
    triangle = Pregraph(3, [0, 1, 1, 2, 2, 0], [1, 0, 3, 2, 5, 4])
    assert pregraphs_isomorphic(q, triangle)


def _quotient_of_order(g, order):
    """The quotient by the least semiregular automorphism of that order, as
    `tricirc quotient --order` takes it."""
    from tricirc.symmetry import find_k_circulant
    q, qva = quotient_with_voltages(g, find_k_circulant(g, g.n // order))
    return (q.vertex_names, q.beg, q.inv, q.dart_names,
            tuple(qva.voltage(d) for d in range(q.n_darts)), qva.n)


def test_quotient_with_loops_is_pinned():
    # recorded before the arc orbits came from the shared orbit routine
    from tricirc.families import prism
    assert _quotient_of_order(prism(9), 9) == (
        ("a", "b"), (0, 0, 0, 1, 1, 1), (1, 0, 3, 2, 5, 4),
        ("(aa)#0", "(aa)#1", "(ab)#2", "(ba)#3", "(bb)#4", "(bb)#5"),
        (1, 8, 0, 0, 1, 8), 9)


def test_quotient_past_26_orbits_is_pinned():
    # 30 orbits: vertices are named by number, not by letter. The sha256 of
    # the repr was recorded before the arc orbits came from the shared
    # orbit routine.
    import hashlib
    from tricirc.families import prism
    dump = _quotient_of_order(prism(30), 2)
    assert dump[0] == tuple(str(i) for i in range(30))
    assert dump[3][:4] == ("(00)#0", "(01)#1", "(015)#2", "(10)#3")
    assert hashlib.sha256(repr(dump).encode()).hexdigest() == (
        "11f0ebf9840c4eeeb78e54bb2e8618ef459defb19a51ef23989f749f21b227b9")


def test_standard_assignments_are_normalised_on_the_full_grid():
    # On a normalised assignment `cover_connected` reduces to the gcd of
    # the voltages; the funnel applies it to `zeta_for` at every (t, k, r, s).
    for t in (1, 2, 3, 4):
        for k in range(1, 11):
            for r in range(2 * k):
                for s in range(2 * k) if t != 3 else (0,):
                    assert zeta_for(t, k, r, s).is_normalised(), (t, k, r, s)


def test_connectivity_rule_holds_on_an_assignment_that_is_not_normalised():
    # Delta_1 over Z_4 with voltage 1 on both tree links: the voltages have
    # gcd 1, but the fundamental closed walks have net voltages 2, 2 and 0.
    base = delta(1)
    zeta = {base.dart("(uu)_k"): 2, base.dart("(uv)_0"): 1,
            base.dart("(uw)_0"): 1, base.dart("(vw)_r"): 2,
            base.dart("(vw)_s"): 0}
    for d in list(zeta):
        zeta[base.inv[d]] = -zeta[d]
    va = VoltageAssignment(base, 4, zeta)
    assert not va.is_normalised()
    assert not cover_connected(va)
    assert not derived_cover(va).is_connected()


# -- the trusted builders against the checking constructor ---------------------

def _reference_cover(va):
    """The derived cover as it was built from an edge set through the
    checking `SimpleGraph(...)`, with the lift written out per base edge."""
    from tricirc.voltage import _simplicity_fault
    base, n = va.base, va.n
    fault = _simplicity_fault(va)
    if fault is not None:
        contains, d = fault
        raise NonSimpleCover(
            f"cover would contain {contains} (base edge {base.dart_label(d)},"
            f" voltage {va.zeta[d]} mod {n})",
            d, base.dart_label(d), va.zeta[d],
        )
    edges, tags = set(), {}
    for d in base.edges():
        x, y, z = base.beg[d] * n, base.end(d) * n, va.zeta[d]
        for i in range(n):
            a, b = x + i, y + (i + z) % n
            key = (a, b) if a < b else (b, a)
            edges.add(key)
            if base.edge_tag(d) is not None:
                tags[key] = base.edge_tag(d)
    return SimpleGraph(base.n_vertices * n, edges, edge_tags=tags)


def _same_graph(g, h):
    return (g.n, g.adjacency(), g.edge_tags) \
        == (h.n, h.adjacency(), h.edge_tags)


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_derived_cover_matches_the_edge_set_reference_on_the_grid(t):
    """Every (r, s) at k <= 8: the same adjacency and tags on each
    simple point, and the same NonSimpleCover on each other one (type 3,
    with s = 0, has none)."""
    simple = faults = 0
    for k in range(1, 9):
        for r in range(2 * k):
            for s in range(2 * k) if t != 3 else (0,):
                va = zeta_for(t, k, r, s)
                try:
                    want = _reference_cover(va)
                except NonSimpleCover as ref:
                    with pytest.raises(NonSimpleCover) as excinfo:
                        derived_cover(va)
                    err = excinfo.value
                    assert (str(err), err.dart, err.label, err.voltage) == (
                        str(ref), ref.dart, ref.label, ref.voltage), (t, k, r, s)
                    faults += 1
                    continue
                got = derived_cover(va)
                assert _same_graph(got, want), (t, k, r, s)
                assert got.edge_tags, (t, k, r, s)
                simple += 1
    assert simple and (faults or t == 3)


@pytest.mark.parametrize("name", ["x9", "y9", "prism27", "gp24_5"])
def test_derived_cover_matches_the_reference_on_quotient_assignments(name):
    """The assignments `quotient_with_voltages` returns for every orbit
    count with a semiregular automorphism: bases with semi-edges, loops
    and up to 12 vertices."""
    from tricirc.families import gp, prism, x_graph, y_graph
    from tricirc.symmetry import find_k_circulant
    g = {"x9": lambda: x_graph(9), "y9": lambda: y_graph(9),
         "prism27": lambda: prism(27), "gp24_5": lambda: gp(24, 5)}[name]()
    kinds = set()
    for m in range(1, 13):
        rho = None if g.n % m else find_k_circulant(g, m)
        if rho is None:
            continue
        base, va = quotient_with_voltages(g, rho)
        kinds |= {(base.edge_kind(d), base.n_vertices > 3) for d in base.edges()}
        assert _same_graph(derived_cover(va), _reference_cover(va)), (name, m)
    assert any(kind != "link" for kind, _ in kinds)
    assert any(more for _, more in kinds)


def _reference_relabel(g, perm):
    return SimpleGraph(
        g.n, [(perm[a], perm[b]) for a, b in g.edges()],
        edge_tags={(perm[a], perm[b]): t for (a, b), t in g.edge_tags.items()})


def test_relabel_matches_the_checking_constructor():
    import random
    from tricirc.families import gp
    from tricirc.graph6 import decode_graph6, encode_graph6
    cover = derived_cover(zeta_for(1, 9, r=2, s=5))
    decoded = decode_graph6(encode_graph6(gp(24, 5)))
    assert cover.edge_tags and gp(24, 5).edge_tags and not decoded.edge_tags
    rng = random.Random(25)
    for g in (cover, gp(24, 5), decoded):
        for _ in range(20):
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert _same_graph(g.relabel(perm), _reference_relabel(g, perm))
        assert _same_graph(g.relabel(range(g.n)), g)
        for bad in ([0] * g.n, list(range(g.n - 1)), list(range(1, g.n + 1))):
            with pytest.raises(ValueError, match="not a bijection"):
                g.relabel(bad)
