"""Frozen oracles for the closed-walk voltage tallies.

Each table row is keyed by the canonical (eps, a, b) triple of the net
voltage eps*k + a*r + b*s, with the count of reduced closed walks of the
given length starting at each base vertex.
"""

import pytest

from tricirc.verify import WalkTable, walk_table
from tricirc.voltage import SymbolicVoltage


def rows_of(delta_index, length, start):
    wt = walk_table(delta_index, length, start)
    return {(sv.eps, sv.a, sv.b): cnt for sv, cnt in wt.counts.items()}


# net voltage -> (count at u, count at v) for length-8 walks in delta 1
TABLE_LEN8 = {
    (0, 0, 0): (12, 10),       # I: 0
    (0, 2, 0): (8, 8),         # II: 2r
    (0, 0, 2): (8, 8),         # III: 2s
    (0, 1, 1): (8, 4),         # IV: r+s
    (0, 1, -1): (8, 4),        # V: r-s
    (1, 2, -1): (12, 10),      # VI: k+2r-s
    (1, 1, -2): (12, 10),      # VII: k+r-2s
    (1, 3, -2): (4, 6),        # VIII: k+3r-2s
    (1, 2, -3): (4, 6),        # IX: k+2r-3s
    (0, 3, -1): (4, 6),        # X: 3r-s
    (0, 1, -3): (4, 6),        # XI: r-3s
    (0, 2, -2): (4, 6),        # XII: 2r-2s
    (0, 4, -4): (0, 2),        # XIII: 4r-4s
}

# two further classes carried by the full tally; both are genuine reduced
# closed walks (crossing between the two parallel v-w edges defeats the
# backtracking ban), e.g. (uu)_k (uv)_0 (vw)_r (wu)_0 (uv)_0 (vw)_s (wv)_-r
# (vu)_0 has net voltage k+s
TABLE_LEN8_EXTRA = {
    (1, 1, 0): (12, 10),       # k+r
    (1, 0, 1): (12, 10),       # k+s
}

# length-7 walks in delta 1
TABLE_LEN7 = {
    (1, 2, -2): (8, 10),       # I: k+2r-2s
    (1, 1, 1): (12, 8),        # II: k+r+s
    (1, 2, 0): (6, 4),         # III: k+2r
    (1, 0, 2): (6, 4),         # IV: k+2s
    (0, 3, -2): (2, 6),        # V: 3r-2s
    (0, 2, -3): (2, 6),        # VI: 2r-3s
}

# length-6 walks in delta 2, counts at (u, v, w)
TABLE_LEN6 = {
    (0, 0, 0): (2, 0, 4),      # I
    (1, 0, 1): (8, 8, 8),      # II: k+s
    (1, 1, 1): (4, 4, 4),      # III: k+r+s
    (1, 1, -1): (4, 4, 4),     # IV: k+r-s
    (0, 3, 0): (2, 0, 2),      # V: 3r
    (0, 2, 0): (2, 0, 4),      # VI: 2r
    (0, 0, 6): (0, 2, 0),      # VII: 6s
    (0, 1, -2): (4, 6, 2),     # VIII: r-2s
    (0, 1, 2): (4, 6, 2),      # IX: r+2s
}


def test_len8_table_rows_exact():
    at_u = rows_of(1, 8, "u")
    at_v = rows_of(1, 8, "v")
    for triple, (cu, cv) in TABLE_LEN8.items():
        assert at_u.get(triple, 0) == cu, triple
        assert at_v.get(triple, 0) == cv, triple


def test_len8_extra_classes():
    at_u = rows_of(1, 8, "u")
    at_v = rows_of(1, 8, "v")
    for triple, (cu, cv) in TABLE_LEN8_EXTRA.items():
        assert at_u.get(triple, 0) == cu
        assert at_v.get(triple, 0) == cv
    # and nothing else shows up
    known = set(TABLE_LEN8) | set(TABLE_LEN8_EXTRA)
    assert set(at_u) <= known
    assert set(at_v) <= known


def test_len8_totals():
    assert walk_table(1, 8, "u").total == 112
    assert walk_table(1, 8, "v").total == 106
    assert walk_table(1, 8, "w").total == 106


def test_len7_table_rows_exact():
    at_u = rows_of(1, 7, "u")
    at_v = rows_of(1, 7, "v")
    assert set(at_u) == set(TABLE_LEN7)
    assert set(at_v) == set(TABLE_LEN7)
    for triple, (cu, cv) in TABLE_LEN7.items():
        assert at_u[triple] == cu
        assert at_v[triple] == cv


def test_len6_table_rows_exact():
    at = {v: rows_of(2, 6, v) for v in ("u", "v", "w")}
    seen = set(at["u"]) | set(at["v"]) | set(at["w"])
    assert seen == set(TABLE_LEN6)
    for triple, counts in TABLE_LEN6.items():
        for col, want in zip(("u", "v", "w"), counts):
            assert at[col].get(triple, 0) == want, (triple, col)


def test_v_and_w_columns_agree_in_delta_1():
    # v and w are interchangeable in delta 1 up to swapping r and s
    assert walk_table(1, 8, "v").total == walk_table(1, 8, "w").total


def test_counts_are_even():
    """No reduced closed walk is its own inverse, so counts pair up."""
    for delta_index, length in [(1, 7), (1, 8), (2, 6)]:
        for start in ("u", "v", "w"):
            wt = walk_table(delta_index, length, start)
            for cnt in wt.counts.values():
                assert cnt % 2 == 0


@pytest.mark.parametrize("args, message", [
    ((1, 8, "z"), "unknown vertex name 'z'"),
    ((1, 8, 3), "unknown vertex name 3"),
    ((1, 8, 0), "unknown vertex name 0"),  # a name, not an index
    ((1, 0, "u"), "length must be positive"),
])
def test_walk_table_rejects_unknown_start(args, message):
    with pytest.raises(ValueError, match=message):
        walk_table(*args)


def test_rows_are_sorted_canonically():
    wt = walk_table(1, 8, "u")
    keys = [(sv.eps, sv.a, sv.b) for sv, _ in sorted(wt.counts.items())]
    assert keys == sorted(keys)
    for sv in wt.counts:
        assert sv.canonical() == sv


def test_count_lookup_canonicalizes():
    wt = walk_table(1, 8, "u")
    # r-s and s-r name the same +/- class
    assert wt.count(SymbolicVoltage(0, 1, -1)) == wt.count(SymbolicVoltage(0, -1, 1))
    assert wt.count(SymbolicVoltage(0, 1, -1)) == 8
