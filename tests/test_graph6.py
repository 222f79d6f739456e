"""graph6 encoding round-trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricirc.graph6 import Graph6Error, decode_graph6, encode_graph6
from tricirc.graphs import SimpleGraph


def test_known_encodings():
    # single edge on two vertices
    assert encode_graph6(SimpleGraph(2, [(0, 1)])) == b"A_"
    assert encode_graph6(SimpleGraph(1, [])) == b"@"
    # complete graph on 4 vertices
    assert encode_graph6(SimpleGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])) == b"C~"
    assert encode_graph6(SimpleGraph(5, [])) == b"D??"


def test_decode_known():
    g = decode_graph6(b"A_")
    assert g.n == 2 and g.has_edge(0, 1)
    g = decode_graph6(b"C~")
    assert g.n == 4 and g.edge_count() == 6


def test_decode_accepts_str_and_strips_newline():
    assert decode_graph6("A_\n").n == 2


def test_long_form_size_header():
    g = SimpleGraph(63, [(0, 1)])
    blob = encode_graph6(g)
    assert blob.startswith(b"~")
    h = decode_graph6(blob)
    assert h.n == 63 and h.has_edge(0, 1) and h.edge_count() == 1


def test_decode_rejects_garbage():
    with pytest.raises(Graph6Error):
        decode_graph6(b"")
    with pytest.raises(Graph6Error):
        decode_graph6(b"A")  # truncated payload
    with pytest.raises(Graph6Error):
        decode_graph6(b"A_ trailing")
    with pytest.raises(Graph6Error):
        decode_graph6("A\u00e9")  # non-ASCII text, not a '?' byte


@pytest.mark.parametrize("blob, message", [
    (">>graph6<<A_\n", None),  # the optional prefix is accepted
    (b"\x7f", "malformed size header"),  # a one-byte header for n = 64
])
def test_decode_checks_its_input(blob, message):
    if message is None:
        assert decode_graph6(blob).edges() == [(0, 1)]
    else:
        with pytest.raises(Graph6Error, match=message):
            decode_graph6(blob)


@given(st.integers(0, 20), st.data())
@settings(max_examples=60, deadline=None)
def test_round_trip_random(n, data):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = SimpleGraph(n, edges)
    h = decode_graph6(encode_graph6(g))
    assert h.n == g.n
    assert set(h.edges()) == set(g.edges())


def test_round_trip_covers():
    from tricirc.families import t1, t2
    for g in (t1(9, 6, 1), t2(9, 2, 1)):
        h = decode_graph6(encode_graph6(g))
        assert set(h.edges()) == set(g.edges())


def reference_body(g):
    """graph6 body by testing every pair, column by column, six bits a byte."""
    out = bytearray()
    bits = nbits = 0
    for j in range(1, g.n):
        for i in range(j):
            bits = (bits << 1) | (1 if g.has_edge(i, j) else 0)
            nbits += 1
            if nbits == 6:
                out.append(bits + 63)
                bits = nbits = 0
    if nbits:
        out.append((bits << (6 - nbits)) + 63)
    return bytes(out)


def reference_edges(n, body):
    """Edges read back from every bit of the body, pair by pair."""
    pairs = ((i, j) for j in range(1, n) for i in range(j))
    return [
        (i, j) for t, (i, j) in enumerate(pairs)
        if (body[t // 6] - 63) >> (5 - t % 6) & 1
    ]


@given(st.sampled_from([0, 1, 2, 7, 13, 62, 63, 64, 90, 150, 600]), st.data())
@settings(max_examples=60, deadline=None)
def test_coding_matches_pairwise_reference(n, data):
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    density = data.draw(st.sampled_from([0.0, 0.05, 0.5, 1.0]))
    # One drawn seed, not a Hypothesis random: that one takes a draw per
    # pair from Hypothesis's buffer, 179 700 at n = 600, and can trip its
    # entropy health check.
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    g = SimpleGraph(n, [e for e in pairs if rng.random() < density])
    blob = encode_graph6(g)
    header = 1 if n <= 62 else 4
    assert blob[header:] == reference_body(g)
    h = decode_graph6(blob)
    assert h == g
    assert h.edge_tags == {}
    assert sorted(h.edges()) == sorted(reference_edges(n, blob[header:]))


def test_decode_rejects_bad_body_bytes_and_padding():
    with pytest.raises(Graph6Error, match="body length"):
        decode_graph6(b"C~\x7f")  # the length is checked before the bytes
    with pytest.raises(Graph6Error, match="invalid byte"):
        decode_graph6(b"B>")  # 62 < 63
    with pytest.raises(Graph6Error, match="padding"):
        decode_graph6(b"B@")  # n=3 uses 3 of 6 bits; the last one is set


@pytest.mark.parametrize("blob, message", [
    (b"~??", "truncated size header"),
    (b"~~?????", "truncated size header"),
    (b"~~?? ???", "invalid byte in size header"),  # a space is below 63
    (b"~???", "non-canonical size header"),  # n = 0 fits the one-byte form
    (b"~~??????", "non-canonical size header"),  # n < 258048 fits ~ form
])
def test_long_size_header_errors(blob, message):
    with pytest.raises(Graph6Error, match=message):
        decode_graph6(blob)


def test_long_size_header_with_short_body_allocates_no_body():
    import tracemalloc

    # ~~ with 6-bit bytes 0, 0, 2, 1, 0, 0: n = 2*2^18 + 2^12 = 528384, a
    # body of about 23 GB, against the one byte given.
    tracemalloc.start()
    try:
        with pytest.raises(Graph6Error, match="body length 1 does not match"
                                              " n=528384"):
            decode_graph6(b"~~??A@???")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
