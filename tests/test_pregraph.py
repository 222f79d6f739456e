"""Dart-level pregraph machinery: the Delta catalogue and reduced walks."""

import pytest

from tricirc.pregraph import (
    Pregraph,
    Walk,
    delta,
    enumerate_cubic_pregraphs_3v,
    pregraphs_isomorphic,
    reduced_closed_walks,
)


def test_delta_catalogue_has_exactly_four_classes():
    cat = enumerate_cubic_pregraphs_3v()
    assert len(cat) == 4
    for p in cat:
        assert p.n_vertices == 3
        assert p.n_darts == 9


def test_catalogue_matches_named_deltas():
    cat = enumerate_cubic_pregraphs_3v()
    for i in range(1, 5):
        d = delta(i)
        assert any(pregraphs_isomorphic(d, p) for p in cat)
    # and the four named ones are pairwise non-isomorphic
    for i in range(1, 5):
        for j in range(i + 1, 5):
            assert not pregraphs_isomorphic(delta(i), delta(j))


def test_delta_semi_edge_counts():
    # semi-edges are self-inverse darts
    expected = {1: 1, 2: 1, 3: 3, 4: 1}
    for i, want in expected.items():
        p = delta(i)
        semis = [d for d in range(p.n_darts) if p.inv[d] == d]
        assert len(semis) == want


def test_delta_is_cubic():
    for i in range(1, 5):
        p = delta(i)
        for v in range(3):
            assert sum(1 for d in range(p.n_darts) if p.beg[d] == v) == 3


# beg, inv, dart names and edge tags of each delta(i), recorded before the
# catalogue was written as data.
DELTA_PINS = {
    1: ((0, 0, 1, 0, 2, 1, 2, 1, 2), (0, 2, 1, 4, 3, 6, 5, 8, 7),
        ("(uu)_k", "(uv)_0", "(vu)_0", "(uw)_0", "(wu)_0", "(vw)_r",
         "(wv)_-r", "(vw)_s", "(wv)_-s"),
        {0: "K", 1: "0", 3: "0", 5: "R", 7: "S"}),
    2: ((2, 1, 1, 0, 1, 0, 2, 0, 2), (0, 2, 1, 4, 3, 6, 5, 8, 7),
        ("(ww)_k", "(vv)_s", "(vv)_-s", "(uv)_0", "(vu)_0", "(uw)_0",
         "(wu)_0", "(uw)_r", "(wu)_-r"),
        {0: "K", 1: "S", 3: "0", 5: "0", 7: "R"}),
    3: ((0, 1, 2, 0, 1, 0, 2, 1, 2), (0, 1, 2, 4, 3, 6, 5, 8, 7),
        ("(uu)_k", "(vv)_k", "(ww)_k", "(uv)_0", "(vu)_0", "(uw)_0",
         "(wu)_0", "(vw)_r", "(wv)_-r"),
        {0: "K", 1: "K", 2: "K", 3: "0", 5: "0", 7: "R"}),
    4: ((0, 0, 1, 0, 2, 1, 1, 2, 2), (0, 2, 1, 4, 3, 6, 5, 8, 7),
        ("(uu)_k", "(uv)_0", "(vu)_0", "(uw)_0", "(wu)_0", "(vv)_s",
         "(vv)_-s", "(ww)_r", "(ww)_-r"),
        {0: "K", 1: "0", 3: "0", 5: "S", 7: "R"}),
}


@pytest.mark.parametrize("i", [1, 2, 3, 4])
def test_delta_catalogue_is_pinned_and_built_once(i):
    p = delta(i)
    assert (p.beg, p.inv, p.dart_names, p.edge_tags) == DELTA_PINS[i]
    assert p.vertex_names == ("u", "v", "w")
    assert delta(i) is p


def test_delta_rejects_unknown_index():
    for i in (0, 5, -1):
        with pytest.raises(ValueError):
            delta(i)


def test_pregraph_connectivity_reads_the_links():
    # a semi-edge and a loop join nothing; two links make a path
    assert Pregraph(2, [0, 1, 1], [0, 2, 1]).is_connected() is False
    assert Pregraph(1, [0], [0]).is_connected() is True
    assert Pregraph(0, [], []).is_connected() is True
    assert Pregraph(3, [0, 1, 1, 2], [1, 0, 3, 2]).is_connected() is True
    assert Pregraph(3, [0, 1, 0, 1], [1, 0, 3, 2]).is_connected() is False


def test_dart_name_round_trip():
    p = delta(1)
    for d in range(p.n_darts):
        assert p.dart(p.dart_label(d)) == d


def test_walk_validation_rejects_disconnected_steps():
    p = delta(1)
    u_semi = p.dart("(uu)_k")
    vw = p.dart("(vw)_r")
    with pytest.raises(ValueError):
        Walk(p, [u_semi, vw])


def test_length_one_walks():
    # a lone semi-edge traversal is its own wrap-inverse, hence not reduced
    assert reduced_closed_walks(delta(1), 0, 1) == []
    assert reduced_closed_walks(delta(3), 0, 1) == []
    # a loop dart is reduced: its inverse is the other loop dart
    p = delta(2)
    v = next(
        i for i in range(3)
        if any(p.beg[d] == i and p.edge_kind(d) == "loop" for d in range(9))
    )
    assert len(reduced_closed_walks(p, v, 1)) == 2


def test_reduced_walks_close_up_and_avoid_backtracking():
    p = delta(1)
    for length in (2, 5, 8):
        for w in reduced_closed_walks(p, 0, length):
            darts = w.darts
            assert len(darts) == length
            assert p.beg[darts[0]] == 0
            for a, b in zip(darts, darts[1:]):
                assert p.beg[b] == p.beg[p.inv[a]]
                assert b != p.inv[a]
            # wrap pair counts as consecutive
            assert darts[0] != p.inv[darts[-1]]
            assert p.beg[darts[0]] == p.beg[p.inv[darts[-1]]]


def test_walk_inversion_pairs_up():
    """Closed reduced walks at a vertex come in inverse pairs."""
    p = delta(1)
    for length in (6, 7, 8):
        walks = {w.darts for w in reduced_closed_walks(p, 0, length)}
        for darts in walks:
            inv = tuple(p.inv[d] for d in reversed(darts))
            # rotate so the inverse starts at the same root
            assert p.beg[inv[0]] == 0
            assert inv in walks
            assert inv != darts


def test_walk_counts_independent_of_root_symmetry():
    # v and w play symmetric roles in delta 1
    p = delta(1)
    for length in (4, 6, 8):
        assert len(reduced_closed_walks(p, 1, length)) == len(
            reduced_closed_walks(p, 2, length)
        )


def test_pregraph_rejects_bad_involution():
    with pytest.raises(ValueError):
        Pregraph(1, beg=[0, 0], inv=[1, 1])


@pytest.mark.parametrize("kwargs, message", [
    (dict(beg=[0, 0], inv=[1]), "equal length"),
    (dict(beg=[0, 1], inv=[1, 0]), "dart 1 has invalid initial vertex"),
    (dict(beg=[0, 0], inv=[1, 0], vertex_names=["u", "v"]),
     "vertex_names length mismatch"),
    (dict(beg=[0, 0], inv=[1, 0], dart_names=["a"]), "dart_names length mismatch"),
    (dict(beg=[0, 0], inv=[1, 0], edge_tags={-1: "x"}), "tag on unknown dart -1"),
    (dict(beg=[0, 0], inv=[1, 0], edge_tags={99: "x"}), "tag on unknown dart 99"),
    (dict(beg=[0, 0], inv=[1, 0], edge_tags={0: "a", 1: "b"}),
     "conflicting tags on the edge of dart 1"),
])
def test_pregraph_rejects_bad_input(kwargs, message):
    with pytest.raises(ValueError, match=message):
        Pregraph(1, **kwargs)


def test_pregraph_takes_the_same_tag_on_both_darts():
    p = Pregraph(1, beg=[0, 0], inv=[1, 0], edge_tags={0: "a", 1: "a"})
    assert (p.edge_tag(0), p.edge_tag(1)) == ("a", "a")
