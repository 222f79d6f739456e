"""Structural invariants checked over parameter ranges."""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from tricirc.families import t1, t2, t4
from tricirc.pregraph import delta, reduced_closed_walks
from tricirc.symmetry import are_isomorphic, canonical_form
from tricirc.voltage import NonSimpleCover, derived_cover, zeta_for


def covers_for(k):
    """A few connected covers across the four shapes."""
    out = []
    for idx, r, s in [(1, 2, 1), (2, 2, 1), (3, 2, 0), (4, 1, 2)]:
        try:
            out.append(derived_cover(zeta_for(idx, k, r=r, s=s)))
        except NonSimpleCover:
            pass
    return out


@given(st.integers(3, 12))
@settings(max_examples=10, deadline=None)
def test_cover_size_and_valence(k):
    for g in covers_for(k):
        assert g.n == 6 * k
        assert g.edge_count() == 9 * k
        assert set(map(len, g.adjacency())) == {3}


@given(st.integers(1, 4), st.integers(2, 7), st.integers(0, 3))
@settings(max_examples=40, deadline=None)
def test_walk_inversion_closure(delta_index, length, start_idx):
    p = delta(delta_index)
    start = start_idx % 3
    walks = {w.darts for w in reduced_closed_walks(p, start, length)}
    for darts in walks:
        inv = tuple(p.inv[d] for d in reversed(darts))
        assert inv in walks


def test_canonical_form_under_random_relabeling():
    rng = random.Random(99)
    g = t2(7, 2, 1)
    ref = canonical_form(g)
    for _ in range(30):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert canonical_form(g.relabel(perm)) == ref


def units(n):
    return [a for a in range(1, n) if math.gcd(a, n) == 1]


def test_t1_swap_identity():
    for k in range(3, 10):
        n = 2 * k
        for r in range(n):
            for s in range(r):
                try:
                    a = t1(k, r, s)
                    b = t1(k, s, r)
                except NonSimpleCover:
                    continue
                assert are_isomorphic(a, b), (k, r, s)


def test_t1_unit_rescaling_identity():
    rng = random.Random(5)
    for k in (5, 7, 9):
        n = 2 * k
        pairs = [(r, s) for r in range(n) for s in range(n) if r != s]
        rng.shuffle(pairs)
        checked = 0
        for r, s in pairs:
            if checked >= 8:
                break
            for a in units(n)[1:3]:
                try:
                    g = t1(k, r, s)
                    h = t1(k, (a * r) % n, (a * s) % n)
                except NonSimpleCover:
                    continue
                assert are_isomorphic(g, h), (k, r, s, a)
                checked += 1


def test_t2_negated_s_is_the_same_graph():
    for k in (5, 7, 9):
        n = 2 * k
        for r, s in [(2, 1), (4, 3), (2, 5)]:
            try:
                a = t2(k, r, s)
            except NonSimpleCover:
                continue
            b = t2(k, r, (n - s) % n)
            assert set(a.edges()) == set(b.edges()), (k, r, s)


def test_t4_symmetry_identities():
    for k in (5, 7, 9):
        n = 2 * k
        for r, s in [(1, 2), (3, 2), (1, 4)]:
            try:
                g = t4(k, r, s)
            except NonSimpleCover:
                continue
            for r2, s2 in [((n - r) % n, s), (r, (n - s) % n), (s, r)]:
                try:
                    h = t4(k, r2, s2)
                except NonSimpleCover:
                    continue
                assert are_isomorphic(g, h), (k, r, s, r2, s2)
