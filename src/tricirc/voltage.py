"""Voltage assignments over Z_n, symbolic voltages, derived covers, quotients.

A voltage assignment puts an element of Z_n on every dart of a base pregraph
with zeta(inv x) = -zeta(x). The derived cover has vertex set (base vertex,
index) and dart inversion shifting the index by the dart's voltage. Covers of
cubic quotients on the vertices u, v, w are the tricirculant graphs studied
throughout this package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import SimpleGraph
from .pregraph import Pregraph, Walk, delta
from .symmetry import _orbits, is_automorphism


class NonSimpleCover(ValueError):
    """The derived cover would contain semi-edges, loops or parallel edges.

    Carries the offending base edge (a representative dart id and its label)
    and the voltage that caused the violation.
    """

    def __init__(self, message: str, dart: int, label: str, voltage: int):
        super().__init__(message)
        self.dart = dart
        self.label = label
        self.voltage = voltage


class NotAutomorphism(ValueError):
    """The supplied permutation is not an automorphism of the graph."""


class NotSemiregular(ValueError):
    """The supplied automorphism has a nontrivial vertex stabiliser."""


class VoltageAssignment:
    """A base pregraph together with dart voltages in Z_n."""

    __slots__ = ("base", "n", "zeta")

    def __init__(self, base: Pregraph, n: int, zeta: dict[int, int]):
        if n < 1:
            raise ValueError("modulus must be positive")
        vals = {}
        for d in range(base.n_darts):
            if d not in zeta:
                raise ValueError(f"dart {d} has no voltage")
            vals[d] = zeta[d] % n
        for d in range(base.n_darts):
            if base.inv[d] == d and (2 * vals[d]) % n != 0:
                raise ValueError(
                    f"semi-edge {base.dart_label(d)} needs a voltage of"
                    " order at most 2"
                )
            if vals[base.inv[d]] != (-vals[d]) % n:
                raise ValueError(
                    f"voltage of {base.dart_label(d)} does not negate on its"
                    " inverse dart"
                )
        self.base = base
        self.n = n
        self.zeta = vals

    def voltage(self, dart: int) -> int:
        return self.zeta[dart]

    def is_normalised(self) -> bool:
        """True if some spanning tree of the base carries voltage 0, that is
        if the zero-voltage links connect the base."""
        return self.base._connected_by(d for d, z in self.zeta.items() if z == 0)


def _check_ints(**values) -> None:
    """TypeError naming the first of the named values that is not an int,
    before a float or str fails later as a slice, range or order error."""
    for name, value in values.items():
        if not isinstance(value, int):
            raise TypeError(f"{name} must be an int, not {type(value).__name__}")


def zeta_for(delta_index: int, k: int, r: int = 0, s: int = 0) -> VoltageAssignment:
    """The standard voltage assignment on delta(delta_index) over Z_{2k}.

    Semi-edges carry k, tree links carry 0, and the remaining edges carry
    r and s as named in the dart labels: each dart's (eps, a, b) of
    `symbolic_dart_voltage` is read from a table made once per delta(i).
    TypeError unless k, r and s are ints.
    """
    _check_ints(k=k, r=r, s=s)
    if k < 1:
        raise ValueError("k must be positive")
    base = delta(delta_index)
    zeta = {d: (eps * k + a * r + b * s) % (2 * k)
            for d, (eps, a, b) in enumerate(_DART_SYMBOLS[delta_index])}
    return VoltageAssignment(base, 2 * k, zeta)


def net_voltage(va: VoltageAssignment, walk: Walk) -> int:
    """Sum of voltages along a walk, mod n."""
    if walk.pregraph is not va.base:
        raise ValueError("walk does not live in the assignment's base")
    return sum(va.zeta[d] for d in walk.darts) % va.n


# -- symbolic voltages -------------------------------------------------------

@dataclass(frozen=True, order=True)
class SymbolicVoltage:
    """A formal combination eps*k + a*r + b*s over Z_{2k}.

    eps is reduced mod 2 because 2k = 0; negation maps (eps, a, b) to
    (eps, -a, -b) because -k = k. Voltages sort as (eps, a, b), the row
    order of walk tables.
    """

    eps: int
    a: int
    b: int

    def __post_init__(self):
        object.__setattr__(self, "eps", self.eps % 2)

    def __add__(self, other: "SymbolicVoltage") -> "SymbolicVoltage":
        return SymbolicVoltage(self.eps + other.eps, self.a + other.a,
                               self.b + other.b)

    def __neg__(self) -> "SymbolicVoltage":
        return SymbolicVoltage(self.eps, -self.a, -self.b)

    def canonical(self) -> "SymbolicVoltage":
        """Representative of {v, -v}: the one with (a, b, eps) lex-largest."""
        neg = -self
        if (self.a, self.b, self.eps) >= (neg.a, neg.b, neg.eps):
            return self
        return neg

    def evaluate(self, k: int, r: int, s: int) -> int:
        return (self.eps * k + self.a * r + self.b * s) % (2 * k)

    def __str__(self) -> str:
        terms = []
        if self.eps:
            terms.append("k")
        for coeff, sym in ((self.a, "r"), (self.b, "s")):
            if coeff == 0:
                continue
            mag = abs(coeff)
            body = sym if mag == 1 else f"{mag}{sym}"
            if not terms:
                terms.append(body if coeff > 0 else f"-{body}")
            else:
                terms.append(f"+{body}" if coeff > 0 else f"-{body}")
        return "".join(terms) if terms else "0"


_SYMBOLIC = {
    "k": SymbolicVoltage(1, 0, 0),
    "0": SymbolicVoltage(0, 0, 0),
    "r": SymbolicVoltage(0, 1, 0),
    "s": SymbolicVoltage(0, 0, 1),
}


def symbolic_dart_voltage(base: Pregraph, dart: int) -> SymbolicVoltage:
    """Voltage symbol of a catalogue dart, read off its name: x or -x."""
    name = base.dart_names[dart]
    if name is None or ")_" not in name:
        raise ValueError("dart carries no voltage symbol")
    sym = name[name.index(")_") + 2:]
    return -_SYMBOLIC[sym[1:]] if sym.startswith("-") else _SYMBOLIC[sym]


# Each dart's (eps, a, b) per delta(i), read off its name once for `zeta_for`
# and `verify.walk_table`.
_DART_SYMBOLS = {
    i: tuple((v.eps, v.a, v.b) for v in
             [symbolic_dart_voltage(delta(i), d) for d in range(delta(i).n_darts)])
    for i in (1, 2, 3, 4)
}


def symbolic_net_voltage(base: Pregraph, walk: Walk) -> SymbolicVoltage:
    """Formal net voltage of a walk in a catalogue pregraph, reduced so the
    k-coefficient is mod 2. Not sign-normalized; use .canonical() to fold
    the pair {v, -v}."""
    if walk.pregraph is not base:
        raise ValueError("walk does not live in the given base")
    total = SymbolicVoltage(0, 0, 0)
    for d in walk.darts:
        total = total + symbolic_dart_voltage(base, d)
    return total


# -- derived covers ----------------------------------------------------------

def _simplicity_fault(va: VoltageAssignment) -> Optional[tuple[str, int]]:
    """What the derived cover would contain that a simple graph may not, and
    the base edge (its representative dart) that lifts to it; None when the
    cover is simple.

    The neighbours of x_0 are the pairs (end(d), zeta(d)) over the darts d
    at x, and the deck shift i -> i+1 carries x_0 to every x_i. So the cover
    is simple iff at every base vertex x these pairs are pairwise distinct
    and none is (x, 0). A pair (x, 0) is a semi-edge or loop of voltage 0,
    which lifts to semi-edges or loops; a repeated pair is a parallel edge,
    within one loop (voltage n/2) or between two base edges. The faults of
    single edges are reported before the parallels between edges."""
    base, zeta = va.base, va.zeta
    lift = [(base.beg[d], base.end(d), zeta[d]) for d in range(base.n_darts)]
    for d in base.edges():
        x, y, z = lift[d]
        if x == y and z == 0:
            return ("semi-edges" if base.inv[d] == d else "loops"), d
        if base.inv[d] != d and lift[base.inv[d]] == lift[d]:
            return "parallel edges", d
    seen: set = set()
    for d in base.edges():
        pairs = {lift[d], lift[base.inv[d]]}
        if not seen.isdisjoint(pairs):
            return "parallel edges", d
        seen |= pairs
    return None


def cover_is_simple(va: VoltageAssignment) -> bool:
    """True iff the derived cover has no semi-edges, loops or parallel edges
    (the rule of `_simplicity_fault`), decided without building it."""
    return _simplicity_fault(va) is None


def lifted_adjacency(va: VoltageAssignment) -> tuple[tuple[int, ...], ...]:
    """The adjacency lists of the derived cover, read off the voltages; the
    one place the lift is written. Vertex x_i is x*n + i (fibre-major), and
    entry j of its row is end(d)_(i + zeta(d)), where d is dart j of
    `base.darts_at(x)`: the fibre of end(d) rotated by zeta(d). On a simple
    cover these are the neighbour sets of `derived_cover(va)`."""
    base, n, zeta = va.base, va.n, va.zeta
    adj: list[tuple[int, ...]] = []
    for x in range(base.n_vertices):
        columns = []
        for d in base.darts_at(x):
            fibre = list(range(base.end(d) * n, base.end(d) * n + n))
            columns.append(fibre[zeta[d]:] + fibre[:zeta[d]])
        adj.extend(zip(*columns) if columns else [()] * n)
    return tuple(adj)


def derived_cover(va: VoltageAssignment) -> SimpleGraph:
    """The derived covering graph of a voltage assignment.

    Vertex (x, i), for base vertex x and i in Z_n, is numbered x*n + i
    (fibre-major), so its name follows from its number. Raises
    NonSimpleCover if any lifted edge would be a semi-edge (semi-edge
    voltage of order < 2), a loop (loop voltage 0) or a parallel edge (loop
    voltage n/2, or two base edges lifting to the same vertex pair), as
    `cover_is_simple` decides.

    Past that check the rows of `lifted_adjacency` are simple, so the graph
    is built from them sorted, with no per-edge check. Each edge {v, u},
    v < u, takes the tag of the dart that row v's entry u came from; the
    other end's dart is its inverse, which carries the same tag.
    """
    base, n = va.base, va.n
    fault = _simplicity_fault(va)
    if fault is not None:
        contains, d = fault
        raise NonSimpleCover(
            f"cover would contain {contains} (base edge {base.dart_label(d)},"
            f" voltage {va.zeta[d]} mod {n})",
            d, base.dart_label(d), va.zeta[d],
        )
    adj = lifted_adjacency(va)
    tags: dict[tuple[int, int], str] = {}
    for x in range(base.n_vertices):
        for j, d in enumerate(base.darts_at(x)):
            tag = base.edge_tag(d)
            if tag is not None:
                for v in range(x * n, x * n + n):
                    if v < adj[v][j]:
                        tags[v, adj[v][j]] = tag
    return SimpleGraph._from_rows(list(map(sorted, adj)), tags)


def cover_connected(va: VoltageAssignment) -> bool:
    """True iff the derived cover is connected: iff the base is connected
    and the net voltages of its closed walks at vertex 0 generate Z_n.
    With p(x) the net voltage of the BFS-tree path from 0 to x, a closed
    walk's net voltage is the sum of p(beg d) + zeta(d) - p(end d) over its
    darts d, so these generate the same subgroup (Gross & Tucker 1987,
    section 2.5). On a normalised assignment that is the subgroup the
    voltages generate."""
    base, zeta = va.base, va.zeta
    p, queue = {0: 0}, [0]
    for x in queue:
        for d in base.darts_at(x):
            y = base.end(d)
            if y not in p:
                p[y] = p[x] + zeta[d]
                queue.append(y)
    if len(p) < base.n_vertices:
        return False
    g = va.n
    for d in range(base.n_darts):
        g = math.gcd(g, p[base.beg[d]] + zeta[d] - p[base.end(d)])
    return g == 1


# -- quotients by a semiregular cyclic automorphism --------------------------

def quotient_with_voltages(
    g: SimpleGraph, rho: Sequence[int]
) -> tuple[Pregraph, VoltageAssignment]:
    """Quotient pregraph plus a normalised voltage assignment reconstructing g.

    Orbit indexing: each vertex orbit gets a representative; vertex
    rho^i(rep) has index i. Representatives are chosen by lifting a spanning
    tree of the quotient so that tree darts carry voltage 0. The derived
    cover of the returned assignment is isomorphic to g.
    """
    if not is_automorphism(g.adjacency(), rho):
        raise NotAutomorphism("rho is not an automorphism of the graph")
    if g.n == 0:
        raise ValueError("empty graph")
    orbits = _orbits(g.n, [rho])
    n = len(orbits[0])
    if any(len(orbit) != n for orbit in orbits):
        raise NotSemiregular("vertex orbits are not all of equal size")

    orbit_of = [0] * g.n
    for oid, orb in enumerate(orbits):
        for v in orb:
            orbit_of[v] = oid

    # Pick representatives so the quotient spanning tree carries voltage 0
    # (Gross & Tucker 1987, section 2.5): a BFS over orbits, with the list of
    # representatives as its queue, enters each new orbit at the cover vertex
    # adjacent to the representative of the orbit it is reached from.
    reps = [orbits[0][0]]
    entered = [oid == 0 for oid in range(len(orbits))]
    for a in reps:
        for b in g.neighbors(a):
            if not entered[orbit_of[b]]:
                entered[orbit_of[b]] = True
                reps.append(b)
    if len(reps) != len(orbits):
        raise ValueError("graph is disconnected; quotient tree incomplete")
    index_in_orbit = [0] * g.n
    for v in reps:
        for i in range(n):
            index_in_orbit[v] = i
            v = rho[v]

    # Darts are the orbits of the arcs (a, b) under rho acting on both ends.
    # As in `lifted_adjacency`, an arc is keyed by its fibres and shift:
    # (orbit of a, orbit of b, index of b - index of a), constant on one
    # orbit and distinct between two. Walked in sorted order, each key first
    # comes at its dart's least arc, so the darts are numbered by least arc.
    darts: dict[tuple[int, int, int], int] = {}
    for a in range(g.n):
        for b in g.neighbors(a):
            key = (orbit_of[a], orbit_of[b], (index_in_orbit[b] - index_in_orbit[a]) % n)
            darts.setdefault(key, len(darts))
    names = [chr(ord("a") + i) if len(orbits) <= 26 else str(i)
             for i in range(len(orbits))]
    pg = Pregraph(
        len(orbits), [x for x, _, _ in darts],
        [darts[y, x, -z % n] for x, y, z in darts],
        dart_names=[f"({names[x]}{names[y]})#{did}"
                    for did, (x, y, _) in enumerate(darts)],
        vertex_names=names,
    )
    va = VoltageAssignment(pg, n, {did: z for did, (_, _, z) in enumerate(darts)})
    return pg, va
