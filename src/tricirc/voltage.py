"""Voltage assignments over Z_n, symbolic voltages, derived covers, quotients.

A voltage assignment puts an element of Z_n on every dart of a base pregraph
with zeta(inv x) = -zeta(x). The derived cover has vertex set (base vertex,
index) and dart inversion shifting the index by the dart's voltage. Covers of
cubic quotients on the vertices u, v, w are the tricirculant graphs studied
throughout this package.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Sequence

from .graphs import CoverVertex, SimpleGraph
from .pregraph import LINK, LOOP, SEMI_EDGE, Pregraph, Walk, delta
from .symmetry import Permutation


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
            if vals[base.inv[d]] != (-vals[d]) % n:
                raise ValueError(
                    f"voltage of {base.dart_label(d)} does not negate on its"
                    " inverse dart"
                )
            if base.inv[d] == d and (2 * vals[d]) % n != 0:
                raise ValueError(
                    f"semi-edge {base.dart_label(d)} needs a voltage of"
                    " order at most 2"
                )
        self.base = base
        self.n = n
        self.zeta = vals

    def voltage(self, dart: int) -> int:
        return self.zeta[dart]

    def is_normalised(self) -> bool:
        """True if some spanning tree of the base carries voltage 0."""
        zero_links = [
            d for d in self.base.edges()
            if self.base.edge_kind(d) == LINK and self.zeta[d] == 0
        ]
        # Kruskal-style reachability over zero-voltage links only.
        parent = list(range(self.base.n_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for d in zero_links:
            a, b = find(self.base.beg[d]), find(self.base.end(d))
            if a != b:
                parent[a] = b
        roots = {find(v) for v in range(self.base.n_vertices)}
        return len(roots) == 1


def zeta_for(delta_index: int, k: int, r: int = 0, s: int = 0) -> VoltageAssignment:
    """The standard voltage assignment on delta(delta_index) over Z_{2k}.

    Semi-edges carry k, tree links carry 0, and the remaining edges carry
    r and s as named in the dart labels.
    """
    if k < 1:
        raise ValueError("k must be positive")
    base = delta(delta_index)
    zeta = {
        d: symbolic_dart_voltage(base, d).evaluate(k, r, s)
        for d in range(base.n_darts)
    }
    return VoltageAssignment(base, 2 * k, zeta)


def net_voltage(va: VoltageAssignment, walk: Walk) -> int:
    """Sum of voltages along a walk, mod n."""
    if walk.pregraph is not va.base:
        raise ValueError("walk does not live in the assignment's base")
    return sum(va.zeta[d] for d in walk.darts) % va.n


# -- symbolic voltages -------------------------------------------------------

@dataclass(frozen=True)
class SymbolicVoltage:
    """A formal combination eps*k + a*r + b*s over Z_{2k}.

    eps is reduced mod 2 because 2k = 0; negation maps (eps, a, b) to
    (eps, -a, -b) because -k = k.
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
    "-r": SymbolicVoltage(0, -1, 0),
    "s": SymbolicVoltage(0, 0, 1),
    "-s": SymbolicVoltage(0, 0, -1),
}


def symbolic_dart_voltage(base: Pregraph, dart: int) -> SymbolicVoltage:
    """Voltage symbol of a catalogue dart, read off its name."""
    name = base.dart_names[dart]
    if name is None or ")_" not in name:
        raise ValueError("dart carries no voltage symbol")
    return _SYMBOLIC[name[name.index(")_") + 2:]]


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

def derived_cover(va: VoltageAssignment) -> SimpleGraph:
    """The derived covering graph of a voltage assignment.

    Vertices are (base vertex, i) for i in Z_n, ordered fibre-major in base
    vertex order. Raises NonSimpleCover if any lifted edge would be a
    semi-edge (semi-edge voltage of order < 2), a loop (loop voltage 0) or a
    parallel edge (loop voltage n/2, or two base edges lifting to the same
    vertex pair).
    """
    base, n = va.base, va.n

    def fail(reason: str, d: int):
        raise NonSimpleCover(
            f"{reason} (base edge {base.dart_label(d)},"
            f" voltage {va.zeta[d]} mod {n})",
            d, base.dart_label(d), va.zeta[d],
        )

    for d in base.edges():
        kind = base.edge_kind(d)
        z = va.zeta[d]
        if kind == SEMI_EDGE and z == 0:
            fail("cover would contain semi-edges", d)
        if kind == LOOP and z == 0:
            fail("cover would contain loops", d)
        if kind == LOOP and (2 * z) % n == 0:
            fail("cover would contain parallel edges", d)

    labels = [
        CoverVertex(base.vertex_names[x], i)
        for x in range(base.n_vertices) for i in range(n)
    ]
    vid = {(x, i): x * n + i for x in range(base.n_vertices) for i in range(n)}

    edges: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    tags: dict[tuple[int, int], str] = {}
    for d in base.edges():
        z = va.zeta[d]
        x, y = base.beg[d], base.end(d)
        tag = base.edge_tag(d)
        lifted = set()
        for i in range(n):
            a, b = vid[(x, i)], vid[(y, (i + z) % n)]
            key = (a, b) if a < b else (b, a)
            lifted.add(key)
        # Within one base edge the lifted keys are distinct (a semi-edge
        # yields n/2 matching edges, loops and links yield n), so any
        # collision in `seen` is a genuine parallel between base edges.
        for key in lifted:
            if key in seen:
                fail("cover would contain parallel edges", d)
            seen[key] = d
            if tag is not None:
                tags[key] = tag
        edges.extend(lifted)

    return SimpleGraph(base.n_vertices * n, edges, labels=labels,
                       edge_tags=tags)


def cover_connected(va: VoltageAssignment) -> bool:
    """True iff the voltages generate Z_n (connected cover for a connected
    normalised base)."""
    g = va.n
    for z in va.zeta.values():
        g = math.gcd(g, z)
    return g == 1


# -- quotients by a semiregular cyclic automorphism --------------------------

def quotient(g: SimpleGraph, rho: Sequence[int]) -> Pregraph:
    """Quotient pregraph of g by the cyclic group generated by rho.

    rho must be an automorphism acting semiregularly on the vertices.
    Vertex orbits become vertices and dart (arc) orbits become darts.
    """
    return quotient_with_voltages(g, rho)[0]


def quotient_with_voltages(
    g: SimpleGraph, rho: Sequence[int]
) -> tuple[Pregraph, VoltageAssignment]:
    """Quotient pregraph plus a normalised voltage assignment reconstructing g.

    Orbit indexing: each vertex orbit gets a representative; vertex
    rho^i(rep) has index i. Representatives are chosen by lifting a spanning
    tree of the quotient so that tree darts carry voltage 0. The derived
    cover of the returned assignment is isomorphic to g.
    """
    try:
        perm = Permutation(rho)
    except ValueError:
        raise NotAutomorphism("not a permutation of the vertex set") from None
    if not perm.is_automorphism(g):
        raise NotAutomorphism("rho does not preserve adjacency")
    if g.n == 0:
        raise ValueError("empty graph")
    rho = perm.img
    orbits = perm.orbits()
    # Semiregular: no nonidentity power fixes a point. With one cycle length
    # that length is the order of rho, so equal orbit sizes suffice.
    sizes = {len(o) for o in orbits}
    if len(sizes) != 1:
        raise NotSemiregular("vertex orbits are not all of equal size")
    n = sizes.pop()

    orbit_of = [0] * g.n
    for oid, orb in enumerate(orbits):
        for v in orb:
            orbit_of[v] = oid

    # Pick representatives so the quotient spanning tree carries voltage 0:
    # BFS over orbits, entering each new orbit at the cover vertex adjacent
    # to the current representative of the parent orbit.
    rep = {0: orbits[0][0]}
    index_in_orbit: dict[int, int] = {}

    def assign_indices(oid: int):
        v, i = rep[oid], 0
        while True:
            index_in_orbit[v] = i
            v = rho[v]
            i += 1
            if v == rep[oid]:
                break

    assign_indices(0)
    queue = deque([0])
    visited = {0}
    while queue:
        oid = queue.popleft()
        r0 = rep[oid]
        for b in g.neighbors(r0):
            boid = orbit_of[b]
            if boid not in visited:
                visited.add(boid)
                rep[boid] = b
                assign_indices(boid)
                queue.append(boid)
    if len(visited) != len(orbits):
        raise ValueError("graph is disconnected; quotient tree incomplete")

    # Dart orbits: arcs (a, b) with rho acting componentwise.
    arc_orbit: dict[tuple[int, int], int] = {}
    dart_beg: list[int] = []
    dart_voltage: list[int] = []
    arc_reps: list[tuple[int, int]] = []
    for a in range(g.n):
        for b in g.neighbors(a):
            if (a, b) in arc_orbit:
                continue
            did = len(arc_reps)
            x, y = a, b
            while True:
                arc_orbit[(x, y)] = did
                x, y = rho[x], rho[y]
                if (x, y) == (a, b):
                    break
            arc_reps.append((a, b))
            dart_beg.append(orbit_of[a])
            dart_voltage.append(
                (index_in_orbit[b] - index_in_orbit[a]) % n
            )
    dart_inv = [arc_orbit[(b, a)] for (a, b) in arc_reps]

    names = []
    for did, (a, b) in enumerate(arc_reps):
        va_name = chr(ord("a") + orbit_of[a]) if len(orbits) <= 26 else str(orbit_of[a])
        vb_name = chr(ord("a") + orbit_of[b]) if len(orbits) <= 26 else str(orbit_of[b])
        names.append(f"({va_name}{vb_name})#{did}")
    pg = Pregraph(
        len(orbits), dart_beg, dart_inv, dart_names=names,
        vertex_names=tuple(
            chr(ord("a") + i) if len(orbits) <= 26 else str(i)
            for i in range(len(orbits))
        ),
    )
    va = VoltageAssignment(pg, n, dict(enumerate(dart_voltage)))
    return pg, va
