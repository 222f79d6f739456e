"""The walk tables and cycle counts are counted, not listed. Each counter is
checked here against the tally of the listing it replaced: every reduced
closed walk from `reduced_closed_walks`, every cycle from
`cycles_of_length`. The walk tables are also checked, to lengths the
listing cannot reach, against the `Counter` loop over (dart, eps, a, b)
states that the packed count replaced; and `analyze`'s orbit counts and
cycle statistics, read once per orbit, against the per-edge and per-vertex
passes they replaced."""

import random
from collections import Counter
from itertools import combinations
from math import comb, inf, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_group_reference import necklace

from tricirc import symmetry
from tricirc.cli import _analyze_one
from tricirc.families import t1, t2, t3, t4
from tricirc.graphs import SimpleGraph
from tricirc.pregraph import delta, reduced_closed_walks
from tricirc.symmetry import (
    EnumerationCapExceeded,
    c_signature,
    cycle_counts,
    cycles_of_length,
    edge_orbits,
    girth,
    group_order,
    is_c_cycle_regular,
    is_c_vertex_regular,
)
from tricirc.verify import walk_table
from tricirc.voltage import (
    _DART_SYMBOLS,
    NonSimpleCover,
    SymbolicVoltage,
    symbolic_net_voltage,
)


def listed_walk_tally(delta_index, length, start):
    base = delta(delta_index)
    root = base.vertex_names.index(start)
    return dict(Counter(
        symbolic_net_voltage(base, walk).canonical()
        for walk in reduced_closed_walks(base, root, length)
    ))


def reference_walk_tally(delta_index, length, start):
    """The layer loop that `walk_table` replaced: per first dart, one
    `Counter` per step maps (last dart, eps, a, b) to the number of walks
    that reach it."""
    base = delta(delta_index)
    root = base.vertex_names.index(start)
    inv = base.inv
    step = {}  # dart -> (voltage as (eps, a, b), darts that may follow it)
    for d, symbol in enumerate(_DART_SYMBOLS[delta_index]):
        step[d] = (symbol,
                   [e for e in base.darts_at(base.end(d)) if e != inv[d]])
    tally: Counter = Counter()
    for first in base.darts_at(root):
        layer = Counter({(first, *step[first][0]): 1})
        for _ in range(length - 1):
            nxt: Counter = Counter()
            for (d, eps, a, b), count in layer.items():
                for e in step[d][1]:
                    de, da, db = step[e][0]
                    nxt[e, (eps + de) % 2, a + da, b + db] += count
            layer = nxt
        for (d, eps, a, b), count in layer.items():
            if base.end(d) == root and inv[d] != first:
                tally[SymbolicVoltage(eps, a, b).canonical()] += count
    return dict(tally)


def listed_cycle_tally(g, c):
    per_vertex = [0] * g.n
    per_edge = {e: 0 for e in g.edges()}
    cycles = cycles_of_length(g, c)
    for cyc in cycles:
        for v in cyc:
            per_vertex[v] += 1
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            per_edge[(a, b) if a < b else (b, a)] += 1
    return per_vertex, per_edge, len(cycles)


@pytest.mark.parametrize("delta_index", [1, 2, 3, 4])
@pytest.mark.parametrize("start", ["u", "v", "w"])
def test_walk_table_counts_the_listed_walks(delta_index, start):
    for length in range(1, 11):
        assert (walk_table(delta_index, length, start).counts
                == listed_walk_tally(delta_index, length, start))


@pytest.mark.parametrize("delta_index", [1, 2, 3, 4])
@pytest.mark.parametrize("start", ["u", "v", "w"])
def test_walk_table_matches_the_counter_loop(delta_index, start):
    for length in range(1, 19):
        assert (walk_table(delta_index, length, start).counts
                == reference_walk_tally(delta_index, length, start))


@pytest.mark.parametrize("start", ["u", "v", "w"])
def test_walk_table_rows_wider_than_32_bits(start):
    # At L = 40 the largest row of delta 3 is 90 713 594 320 (37 bits), so
    # a fixed 32-bit slot would overflow into its neighbour.
    counts = walk_table(3, 40, start).counts
    assert counts == reference_walk_tally(3, 40, start)
    assert max(counts.values()) >= 2 ** 32


def parameter_grid(build, k):
    return ([(r,) for r in range(2 * k)] if build is t3 else
            [(r, s) for r in range(2 * k) for s in range(2 * k)])


def covers():
    """Up to three simple instances of each type for k = 1..6, drawn from
    the parameter grid with a fixed seed."""
    rng = random.Random(9)
    out = []
    for build in (t1, t2, t3, t4):
        for k in range(1, 7):
            grid = parameter_grid(build, k)
            rng.shuffle(grid)
            found = []
            for params in grid:
                try:
                    found.append(build(k, *params))
                except NonSimpleCover:
                    continue
                if len(found) == 3:
                    break
            out += found
    return out


def complete(n):
    return SimpleGraph(n, list(combinations(range(n), 2)))


def complete_graphs():
    # K_11 and K_12 are left to the closed form below: listing their
    # 8-cycles takes seconds.
    return [complete(n) for n in range(1, 11)]


def rigid_graphs():
    """Seeded random graphs on 8..14 vertices whose group is trivial."""
    rng = random.Random(5)
    out = []
    while len(out) < 10:
        n = rng.randint(8, 14)
        g = SimpleGraph(n, [e for e in combinations(range(n), 2)
                            if rng.random() < 0.35])
        if group_order(g) == 1:
            out.append(g)
    return out


@pytest.mark.parametrize("graphs", [covers, complete_graphs, rigid_graphs])
def test_cycle_counts_tally_the_listed_cycles(graphs):
    for g in graphs():
        for c in range(3, 9):
            counted = cycle_counts(g, c)
            assert counted == listed_cycle_tally(g, c)
            assert list(counted[1]) == g.edges()


@pytest.mark.parametrize("n", range(3, 13))
def test_cycle_counts_of_complete_graphs(n):
    # K_n has n!/((n-c)! 2c) cycles of length c; each has c of the C(n, 2)
    # edges and meets c of the n vertices.
    for c in range(3, 9):
        total = perm(n, c) // (2 * c) if c <= n else 0
        per_vertex, per_edge, counted = cycle_counts(complete(n), c)
        assert counted == total
        assert set(per_edge.values()) == {total * c // comb(n, 2)}
        assert per_vertex == [total * c // n] * n


# -- analyze, read once per orbit ----------------------------------------------

def reference_orbits(g, points, image):
    """The orbits of the points under the search's generators, by a map of
    each generator onto them: the per-edge and per-arc passes that the one
    arc-orbit pass replaced."""
    index = {x: i for i, x in enumerate(points)}
    maps = ([index[image(p, x)] for x in points] for p in symmetry._searched(g).gens)
    return [[points[i] for i in orbit] for orbit in symmetry._orbits(len(points), maps)]


def reference_edge_orbits(g):
    return reference_orbits(g, g.edges(), lambda p, e: tuple(sorted((p[e[0]], p[e[1]]))))


def reference_arc_orbit_count(g):
    arcs = [(a, b) for a in range(g.n) for b in g.neighbors(a)]
    return len(reference_orbits(g, arcs, lambda p, e: (p[e[0]], p[e[1]])))


def reference_cycle_tables(g, c, budget):
    """The per-edge table, filled orbit by orbit from the first edge's
    count, and the per-vertex counts and signatures read off it at every
    vertex; the count steps through the same `_paths_back` calls in the
    same order. Also returns the budget left."""
    adj = g.adjacency()
    count_of = {}
    for orbit in reference_edge_orbits(g):
        count, budget = symmetry._paths_back(adj, *orbit[0], c, budget)
        count_of.update(dict.fromkeys(orbit, count))
    at = [[count_of[min(v, w), max(v, w)] for w in adj[v]] for v in range(g.n)]
    return ([sum(row) // 2 for row in at], [tuple(sorted(row)) for row in at],
            sum(count_of.values()) // c, budget)


def reference_cycles(g, extra_cycles, cap):
    """`analyze`'s "cycles" entry from the per-vertex tables."""
    gi, cycles = girth(g), {}
    try:
        for c in range(gi, gi + extra_cycles + 1) if gi is not None else ():
            per_vertex, signatures, total, _ = reference_cycle_tables(g, c, cap)
            distinct = set(signatures)
            cycles[str(c)] = {
                "total": total,
                "vertex_regular": len(set(per_vertex)) <= 1,
                "cycle_regular": len(distinct) <= 1,
                "signature": sorted(distinct.pop()) if len(distinct) == 1 else None,
            }
    except EnumerationCapExceeded:
        return "cap_exceeded"
    return cycles


def least_passing_cap(g, extra_cycles):
    """The least cap under which the reference counts every length: the
    most steps one length takes."""
    gi, most, ample = girth(g), 0, 10 ** 18
    for c in range(gi, gi + extra_cycles + 1) if gi is not None else ():
        most = max(most, ample - reference_cycle_tables(g, c, ample)[3])
    return most


def check_analyze_against_the_reference(g):
    symmetry._search_cached.cache_clear()
    report = _analyze_one(g, 2, 10 ** 9)
    assert edge_orbits(g) == reference_edge_orbits(g)
    assert report["edge_orbit_count"] == len(reference_edge_orbits(g))
    assert report["arc_orbit_count"] == reference_arc_orbit_count(g)
    assert report["cycles"] == reference_cycles(g, 2, 10 ** 9)
    for c in map(int, report["cycles"]):
        per_vertex, signatures, _, _ = reference_cycle_tables(g, c, inf)
        assert [c_signature(g, v, c) for v in range(g.n)] == signatures
        assert is_c_cycle_regular(g, c) == (len(set(signatures)) <= 1)
        assert is_c_vertex_regular(g, c) == (len(set(per_vertex)) <= 1)
    cap = least_passing_cap(g, 2)
    if cap:
        # The cap trips where the reference's does: the same steps in the
        # same order.
        assert reference_cycles(g, 2, cap - 1) == "cap_exceeded" != reference_cycles(g, 2, cap)
        for budget in (cap - 1, cap):
            assert _analyze_one(g, 2, budget)["cycles"] == reference_cycles(g, 2, budget)


@st.composite
def graphs_on_at_most_ten_vertices(draw):
    n = draw(st.integers(0, 10))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, [e for e, k in zip(pairs, keep) if k])


@given(graphs_on_at_most_ten_vertices())
@settings(max_examples=150, deadline=None)
def test_analyze_matches_the_per_vertex_reference_on_small_graphs(g):
    check_analyze_against_the_reference(g)


def simple_covers():
    """Every simple cover of the four types at k <= 4."""
    out = []
    for build in (t1, t2, t3, t4):
        for k in range(1, 5):
            for params in parameter_grid(build, k):
                try:
                    out.append(build(k, *params))
                except NonSimpleCover:
                    pass
    return out


def test_analyze_matches_the_per_vertex_reference_on_covers_and_the_necklace():
    graphs = simple_covers() + [necklace(10)]
    assert len(graphs) > 100
    for g in graphs:
        check_analyze_against_the_reference(g)
