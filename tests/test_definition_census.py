"""The census from the definition: every voltage assignment on every cubic
pregraph on three vertices, with no reduction to the four Delta_i and their
(r, s) grids, gives the vertex-transitive classes of `small_census`.

Gross & Tucker (Topological Graph Theory, 1987, section 2.5) normalise
voltages on a spanning tree and the sweep drops pregraphs with two
semi-edges at a vertex. These tests assume neither: they build the cover
of every assignment, and check `cover_connected` against the connectivity
of the lifted cover itself."""

from itertools import product

from tricirc.pregraph import Pregraph, delta, pregraphs_isomorphic
from tricirc.symmetry import canonical_form, is_vertex_transitive
from tricirc.verify import small_census
from tricirc.voltage import (
    VoltageAssignment, cover_connected, cover_is_simple, derived_cover,
    lifted_adjacency)

K_MAX = 3  # 18 112 assignments; k <= 4 has 57 024


def involutions(points):
    if not points:
        yield {}
        return
    first, rest = points[0], points[1:]
    for sub in involutions(rest):
        yield {first: first, **sub}
    for j, other in enumerate(rest):
        for sub in involutions(rest[:j] + rest[j + 1:]):
            yield {first: other, other: first, **sub}


def cubic_pregraphs_3v():
    """Every connected cubic pregraph on 3 vertices up to isomorphism,
    semi-edges unrestricted."""
    found = []
    for invmap in involutions(list(range(9))):
        pg = Pregraph(3, [0, 0, 0, 1, 1, 1, 2, 2, 2],
                      [invmap[d] for d in range(9)])
        if pg.is_connected() and not any(
                pregraphs_isomorphic(pg, h) for h in found):
            found.append(pg)
    return found


def assignments(base, k):
    """Every voltage assignment over Z_2k: semi-edges carry 0 or k, every
    other edge any element, its inverse dart the negative."""
    n = 2 * k
    edges = base.edges()
    choices = [(0, k) if base.inv[d] == d else range(n) for d in edges]
    for values in product(*choices):
        zeta = {}
        for d, z in zip(edges, values):
            zeta[d], zeta[base.inv[d]] = z, -z % n
        yield VoltageAssignment(base, n, zeta)


def test_there_are_seven_cubic_pregraphs_on_three_vertices():
    assert len(cubic_pregraphs_3v()) == 7


def test_edges_and_darts_at_are_computed_once_and_copied():
    for p in cubic_pregraphs_3v() + [delta(i) for i in range(1, 5)]:
        edges = sorted({min(d, p.inv[d]) for d in range(p.n_darts)})
        darts_at = [[d for d in range(p.n_darts) if p.beg[d] == v]
                    for v in range(p.n_vertices)]
        assert p.edges() == edges
        assert [p.darts_at(v) for v in range(p.n_vertices)] == darts_at
        p.edges().append(-1)
        p.darts_at(0).clear()
        assert p.edges() == edges and p.darts_at(0) == darts_at[0]


def lift_is_connected(va):
    """Whether the lifted cover is connected, by a BFS over its rows, which
    may hold loops and repeated neighbours."""
    adj = lifted_adjacency(va)
    seen = {0}
    queue = [0]
    for v in queue:
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) == len(adj)


def test_connectivity_rule_matches_the_lifted_cover_on_every_assignment():
    count = 0
    for base in cubic_pregraphs_3v():
        for k in (1, 2):
            for va in assignments(base, k):
                assert cover_connected(va) == lift_is_connected(va), (
                    base.inv, va.zeta)
                count += 1
    assert count == 4000


def test_every_assignment_gives_the_census_classes(time_limit):
    with time_limit(60):
        found = {}
        count = 0
        for base in cubic_pregraphs_3v():
            for k in range(1, K_MAX + 1):
                for va in assignments(base, k):
                    count += 1
                    if not cover_is_simple(va):
                        continue
                    g = derived_cover(va)
                    if g.is_connected() and is_vertex_transitive(g):
                        found.setdefault(g.n, set()).add(canonical_form(g))
        census = {}
        for e in small_census(K_MAX).entries:
            census.setdefault(e.order, set()).add(e.canonical.encode("ascii"))
    assert count == 18112
    assert found == census
