"""The symmetry engine against independent oracles.

|Aut| values from the literature, and brute force over all n! vertex
permutations for small n. Strongly regular graphs are the hard case for
refinement: every vertex looks alike, so only individualization splits
cells.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricirc.families import gp
from tricirc.graphs import SimpleGraph
from tricirc.symmetry import (
    are_isomorphic,
    canonical_form,
    group_order,
    is_automorphism,
)


def paley(q):
    squares = {x * x % q for x in range(1, q)}
    return SimpleGraph(q, [
        (a, b) for a in range(q) for b in range(a + 1, q)
        if (b - a) % q in squares
    ])


def cayley_z4_z4(connection):
    """Cayley graph on Z4 x Z4; vertex 4a + b is (a, b)."""
    edges = []
    for u in range(16):
        for v in range(u + 1, 16):
            diff = ((v // 4 - u // 4) % 4, (v % 4 - u % 4) % 4)
            if diff in connection:
                edges.append((u, v))
    return SimpleGraph(16, edges)


# K4 x K4: same row or same column.
ROOK_4X4 = cayley_z4_z4({(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)})
SHRIKHANDE = cayley_z4_z4({(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)})

LITERATURE_ORDERS = [
    ("dodecahedron GP(10,2)", gp(10, 2), 120),
    ("Desargues GP(10,3)", gp(10, 3), 240),
    ("Nauru GP(12,5)", gp(12, 5), 144),
    ("GP(24,5)", gp(24, 5), 288),
    ("Paley(13)", paley(13), 78),
    ("Paley(17)", paley(17), 136),
    ("4x4 rook's graph", ROOK_4X4, 1152),
    ("Shrikhande", SHRIKHANDE, 192),
]


@pytest.mark.parametrize(
    "g,order", [(g, order) for _, g, order in LITERATURE_ORDERS],
    ids=[name for name, _, _ in LITERATURE_ORDERS],
)
def test_automorphism_group_order_from_the_literature(g, order):
    assert group_order(g) == order


def test_rook_and_shrikhande_are_not_isomorphic():
    # Both are strongly regular with parameters (16, 6, 2, 2).
    for g in (ROOK_4X4, SHRIKHANDE):
        assert set(map(len, g.adjacency())) == {6}
    assert not are_isomorphic(ROOK_4X4, SHRIKHANDE)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 6))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return SimpleGraph(n, [e for e, k in zip(pairs, keep) if k])


@given(small_graphs(), st.data())
@settings(max_examples=150, deadline=None)
def test_small_graphs_against_brute_force(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    assert canonical_form(g.relabel(perm)) == canonical_form(g)
    adj = g.adjacency()
    brute = sum(is_automorphism(adj, p) for p in permutations(range(g.n)))
    assert group_order(g) == brute
