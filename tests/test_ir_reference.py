"""The IR search's hot spots against their plain reference versions.

`_wl_refine` re-keys only the vertices next to a part that split off, and
`_leaf_certificate` packs the graph6 of the relabelled graph from the edge
list. Both must return exactly what the plain versions below return, so
that the search tree, every canonical form and every generator stay the
same. The frozen
canonical-form and canonical-labeling digests pin the search output on
family graphs as a whole.
"""

import hashlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_group_reference import necklace

from tricirc.families import gp, moebius, prism, x_graph, y_graph
from tricirc.symmetry import (
    _individualize,
    _initial_colors,
    _leaf_certificate,
    _searched,
    _wl_refine,
    canonical_form,
)


def reference_refine(adj, colors):
    """Re-key every vertex by (color, sorted neighbor colors) each round."""
    n = len(adj)
    while True:
        keys = [
            (colors[v], tuple(sorted(colors[w] for w in adj[v])))
            for v in range(n)
        ]
        code = {key: i for i, key in enumerate(sorted(set(keys)))}
        new = [code[keys[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def reference_leaf_certificate(adj, colors):
    """Test every labelled pair i < j, column by column, six bits a byte
    offset by 63, after the graph6 size header (n <= 258047)."""
    n = len(adj)
    vert_at = [0] * n
    for v in range(n):
        vert_at[colors[v]] = v
    if n <= 62:
        out = bytearray([n + 63])
    else:
        out = bytearray([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    acc = nacc = 0
    for j in range(1, n):
        nbrs = set(adj[vert_at[j]])
        for i in range(j):
            acc = (acc << 1) | (1 if vert_at[i] in nbrs else 0)
            nacc += 1
            if nacc == 6:
                out.append(acc + 63)
                acc = nacc = 0
    if nacc:
        out.append((acc << (6 - nacc)) + 63)
    return bytes(out)


@st.composite
def graphs(draw, max_n=20):
    n = draw(st.integers(1, max_n))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    adj = [[] for _ in range(n)]
    for (a, b), k in zip(pairs, keep):
        if k:
            adj[a].append(b)
            adj[b].append(a)
    return tuple(tuple(nb) for nb in adj)


def dense(colors):
    code = {c: i for i, c in enumerate(sorted(set(colors)))}
    return [code[c] for c in colors]


@given(graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_refine_matches_reference_on_dense_colorings(adj, data):
    n = len(adj)
    raw = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    colors = dense(raw)
    assert _wl_refine(adj, list(colors)) == reference_refine(adj, list(colors))


@given(graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_refine_matches_reference_on_discrete_colorings(adj, data):
    colors = data.draw(st.permutations(range(len(adj))))
    assert _wl_refine(adj, list(colors)) == reference_refine(adj, list(colors))


@given(graphs(), st.data())
@settings(max_examples=300, deadline=None)
def test_refine_after_individualizing_matches_reference(adj, data):
    n = len(adj)
    raw = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    equitable = reference_refine(adj, dense(raw))
    shared = [v for v in range(n) if equitable.count(equitable[v]) > 1]
    if not shared:
        return
    v = data.draw(st.sampled_from(shared))
    colors = _individualize(equitable, v)
    assert _wl_refine(adj, list(colors), [v]) == reference_refine(adj, list(colors))


# One vertex per fibre of the covers (fibre-major, 2k = 98 a fibre), per
# cycle of the prism and per vertex class of the necklace's beads. There the
# cell that splits holds most of the graph and the marked vertices are few,
# which graphs of 20 vertices seldom reach.
LARGE = {
    "x_graph(49)": (x_graph(49), [0, 98, 196]),
    "y_graph(49)": (y_graph(49), [0, 98, 196]),
    "prism(147)": (prism(147), [0, 147]),
    "necklace(10)": (necklace(10), [0, 2]),
}


@pytest.mark.parametrize("name", list(LARGE))
def test_refine_matches_reference_on_large_graphs(name):
    """The root refinement, each vertex individualized in it, and below
    that the first vertex of the smallest cell, as the search picks it."""
    g, roots = LARGE[name]
    adj = g.adjacency()
    initial = _initial_colors(adj)
    equitable = reference_refine(adj, initial)
    assert _wl_refine(adj, list(initial)) == equitable
    for v in roots:
        colors = _individualize(equitable, v)
        refined = reference_refine(adj, colors)
        assert _wl_refine(adj, list(colors), [v]) == refined
        target = min(c for c, size in Counter(refined).items() if size > 1)
        w = refined.index(target)
        colors = _individualize(refined, w)
        assert _wl_refine(adj, list(colors), [w]) == reference_refine(adj, colors)


@given(graphs(), st.data())
@settings(max_examples=200, deadline=None)
def test_leaf_certificate_matches_reference(adj, data):
    colors = list(data.draw(st.permutations(range(len(adj)))))
    assert _leaf_certificate(adj, colors) == reference_leaf_certificate(adj, colors)


def test_leaf_certificate_on_a_large_cover():
    g = x_graph(49)
    adj = g.adjacency()
    colors = [(5 * v + 3) % g.n for v in range(g.n)]  # 5 is prime to n = 294
    assert _leaf_certificate(adj, colors) == reference_leaf_certificate(adj, colors)


# sha256 of canonical_form, recorded before the refinement, the orbit pruning
# and the leaf certificates were rewritten.
FROZEN_CANONICAL_FORMS = [
    ("x_graph(9)", "5238dcd5177ece1438c7e0585111025308282da39ccd76b8cc4679306641f614"),
    ("x_graph(15)", "44a67d2c60070a27c8a135ef994b747eda437e905e17a72880a773546aa11f5c"),
    ("x_graph(25)", "67bf3987c4af8acee53e075acb2918e55b56cd9f6ebc67e1b530bbc55b16682b"),
    ("y_graph(9)", "20ac7fa9c6a098ed5abb397b0b510190c4172f265aa1a65b94a417c3cae74083"),
    ("y_graph(15)", "33f1108dda477ad598953d94c6fa65eb26a572282a7064f5f25c7307734d805b"),
    ("y_graph(25)", "4544f1187ee820b029617a959b94b01fa76c0ec16a39ca09d34644ea7d8d3dfd"),
    ("prism(27)", "b671ccb2e87b8fd8f6547e19324e5c843389648f024d993f5b9e8a92189e5b0c"),
    ("moebius(27)", "0317895947c21ea33d32afb1e2bbccbf5e6c94ffaf20f83101a05cf2b1741a85"),
    ("gp(24, 5)", "228a483bbff75c081dbf08ed6e0479de41ce8d211610ad282514b112981735d1"),
]

GRAPHS = {
    "x_graph": x_graph, "y_graph": y_graph, "prism": prism,
    "moebius": moebius, "gp": gp,
}


@pytest.mark.parametrize("name,digest", FROZEN_CANONICAL_FORMS)
def test_canonical_form_is_frozen(name, digest):
    family, args = name.rstrip(")").split("(")
    g = GRAPHS[family](*(int(a) for a in args.split(",")))
    assert hashlib.sha256(canonical_form(g)).hexdigest() == digest


# sha256 of the bytes of _searched(g).labeling, recorded before the search
# jumped back from leaves that match the first leaf.
FROZEN_CANONICAL_LABELINGS = [
    ("x_graph(9)", "7723eff7085f773282a9290663a66aec25afd8efe1ca9ecc1aeb668baf8338fe"),
    ("x_graph(15)", "0a705ebba29aea11aa731a5f4cc0e1ee62f1c274147cda850cdd2a08489f8d5e"),
    ("x_graph(25)", "5c0d8f504584daa2e580eda838f7afb17f788799d172d5ba07794846264273f1"),
    ("y_graph(9)", "d9ea2ce36fce4116b6c5d899e983ec4c0ad98031ec6bb7e1a80f81dda8d1afad"),
    ("y_graph(15)", "000efa99cff76d710b377a71847ce2ad45cca4b44ead58f6b94e41698fb31f0e"),
    ("y_graph(25)", "3b1dc950f159e1f52b8f2503ea6d9e125b5dc621e86ecae8988508ca6fdc91d6"),
    ("prism(27)", "9749b89b34f1615d63eadc1af1589cfc6b2e09b9ef4e21d9809ff63b85d10427"),
    ("moebius(27)", "f555523f4fe41876fc771abfd206b24f94df6e35835aab69b8430c82b931a6c6"),
    ("gp(24, 5)", "e42cb1812418aa184cd5a9570b407d38ef929433c4ea3de8fea84814fc5770cc"),
]


@pytest.mark.parametrize("name,digest", FROZEN_CANONICAL_LABELINGS)
def test_canonical_labeling_is_frozen(name, digest):
    family, args = name.rstrip(")").split("(")
    g = GRAPHS[family](*(int(a) for a in args.split(",")))
    assert hashlib.sha256(bytes(_searched(g).labeling)).hexdigest() == digest
