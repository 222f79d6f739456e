"""An answer key for the vertex-transitivity decider from cubic bicirculants.

The covers of the two connected cubic pregraphs on two vertices without
semi-edges run through the sweep's own path (`cover_is_simple`,
`lifted_adjacency`, `_passes_vt_screen`, `_is_vt_cover`), but whether each
is vertex-transitive is known from the literature, not from this engine:

- the dumbbell (a loop of voltage 1 at u, a link u-v of voltage 0, a loop
  of voltage m at v) lifts to the generalized Petersen graph GP(n, m),
  which is vertex-transitive exactly when m^2 = +-1 (mod n) or
  (n, m) = (10, 2) (Frucht, Graver & Watkins, Proc. Cambridge Philos.
  Soc. 70, 1971);
- the theta (three links u-v of voltages 0, a, b) lifts to the cyclic
  Haar graph H(n; 0, a, b), a Cayley graph of the dihedral group of order
  2n, so every connected one is vertex-transitive (Pisanski, "A
  classification of cubic bicirculants", Discrete Math. 307, 2007).

A disagreement is a defect of the decider, not of the key."""

import math

import pytest

from tricirc.families import gp
from tricirc.pregraph import Pregraph
from tricirc.verify import _is_vt_cover, _passes_vt_screen
from tricirc.voltage import (
    VoltageAssignment,
    cover_connected,
    cover_is_simple,
    lifted_adjacency,
)

# Both have the edges {0, 1}, {2, 3}, {4, 5} on u = 0 and v = 1. The
# dumbbell's are a loop at u, the link u-v and a loop at v; the theta's are
# three links, each from its even dart at u.
DUMBBELL = Pregraph(2, [0, 0, 0, 1, 1, 1], [1, 0, 3, 2, 5, 4])
THETA = Pregraph(2, [0, 1, 0, 1, 0, 1], [1, 0, 3, 2, 5, 4])


def dumbbell(n, m):
    return VoltageAssignment(DUMBBELL, n, {0: 1, 1: -1, 2: 0, 3: 0, 4: m, 5: -m})


def theta(n, a, b):
    return VoltageAssignment(THETA, n, {0: 0, 1: 0, 2: a, 3: -a, 4: b, 5: -b})


def decided_vt(va):
    adj = lifted_adjacency(va)
    return _passes_vt_screen(adj, va.n) and _is_vt_cover(adj, va.n)


def gp_is_vt(n, m):
    return m * m % n in (1, n - 1) or (n, min(m, n - m)) == (10, 2)


def test_dumbbell_covers_are_vt_exactly_by_frucht_graver_watkins():
    """Every m at n <= 60. The loop voltages m and n - m give the same
    cover, GP(n, m), so the decider runs once per pair."""
    decided = vt = 0
    for n in range(1, 61):
        for m in range(n):
            va = dumbbell(n, m)
            simple = n >= 3 and m != 0 and 2 * m != n
            assert cover_is_simple(va) == simple, (n, m)
            if not simple:
                continue
            # the lift is GP(n, m) vertex for vertex: u_i = i, v_i = n + i
            assert tuple(map(tuple, map(sorted, lifted_adjacency(va)))) \
                == gp(n, m).adjacency(), (n, m)
            assert cover_connected(va)
            if m < n - m:
                assert decided_vt(va) == gp_is_vt(n, m), (n, m)
                decided += 1
                vt += gp_is_vt(n, m)
    assert (decided, vt) == (870, 107)


def test_connected_theta_covers_are_all_vt():
    """Every (a, b) at n <= 30; the cover is connected exactly when
    gcd(a, b, n) = 1, and each connected one must be VT."""
    decided = 0
    for n in range(1, 31):
        for a in range(n):
            for b in range(n):
                va = theta(n, a, b)
                assert cover_is_simple(va) == (len({0, a, b}) == 3), (n, a, b)
                if len({0, a, b}) < 3:
                    continue
                connected = math.gcd(a, b, n) == 1
                assert cover_connected(va) == connected, (n, a, b)
                if connected:
                    assert decided_vt(va), (n, a, b)
                    decided += 1
    assert decided == 6944


@pytest.mark.parametrize("va,vt", [
    (dumbbell(300, 49), True),    # 49^2 = 8 * 300 + 1
    (dumbbell(300, 7), False),    # 7^2 = 49
    (theta(300, 7, 100), True),
], ids=["GP(300,49)", "GP(300,7)", "H(300;0,7,100)"])
def test_order_600_covers(time_limit, va, vt):
    """One cover per base at the size guard, order 600."""
    with time_limit(10):
        assert cover_is_simple(va) and cover_connected(va)
        assert decided_vt(va) == vt
