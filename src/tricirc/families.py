"""Parametrized cubic tricirculant families and related named graphs.

The four families t1..t4 are derived covers of the three-vertex pregraphs
delta(1)..delta(4) over Z_{2k}, with the standard voltages (k on semi-edges,
0 on tree links, r and s elsewhere). Vertices are numbered fibre-major:
u_i = i, v_i = 2k + i, w_i = 4k + i (`fibre_indexers`, `fibre_map`). Each
family's parameter symmetries are declared here once, with the vertex maps
that prove them, and the sweep's orbit representatives and unit orbits
come from them.
Also here: the generalized Petersen graphs, prisms and Moebius ladders they
get compared against, the explicit shift/mixing automorphisms, and the
three-cycle torus decomposition of the y-family. X(k), Y(k), prism(m) and
moebius(m) carry their declared automorphisms, set here only, on their own
numbering, which `relabel` and graph6 do not keep; the IR search checks
them. They generate Aut at every k <= 49 but on moebius(3), X(3), Y(3), Y(9).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple, Optional

from .graphs import SimpleGraph
from .symmetry import is_automorphism
from .voltage import (
    NotAutomorphism,
    VoltageAssignment,
    derived_cover,
    zeta_for,
)


@dataclass(frozen=True)
class FamilyParams:
    """Parameter tuple for one family instance; s is unused for type 3."""

    family_type: int
    k: int
    r: int
    s: Optional[int] = None

    def __post_init__(self):
        for name, value in (("k", self.k), ("r", self.r), ("s", self.s)):
            if not isinstance(value, int) and (name != "s" or value is not None):
                raise TypeError(f"{name} must be an int, not {type(value).__name__}")
        if self.family_type not in (1, 2, 3, 4):
            raise ValueError("family type must be 1..4")
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.family_type == 3 and self.s is not None:
            raise ValueError("type 3 takes no s parameter")
        if self.family_type != 3 and self.s is None:
            raise ValueError(f"type {self.family_type} needs an s parameter")

    def voltages(self) -> VoltageAssignment:
        """The standard voltage assignment whose derived cover is `build()`."""
        return zeta_for(self.family_type, self.k, self.r, self.s or 0)

    def build(self) -> SimpleGraph:
        return derived_cover(self.voltages())


def t1(k: int, r: int, s: int) -> SimpleGraph:
    """Semi-edge fibre on U (voltage k), spokes to V and W, and a double
    V-W bridge with voltages r and s. Raises NonSimpleCover on r = s etc."""
    return derived_cover(zeta_for(1, k, r, s))


def t2(k: int, r: int, s: int) -> SimpleGraph:
    """Semi-edge fibre on W, loop fibre on V (voltage s), spoke U-V, and a
    double U-W bridge with voltages 0 and r."""
    return derived_cover(zeta_for(2, k, r, s))


def t3(k: int, r: int) -> SimpleGraph:
    """Semi-edge on every fibre plus a triangle of links (0, 0, r)."""
    return derived_cover(zeta_for(3, k, r))


def t4(k: int, r: int, s: int) -> SimpleGraph:
    """Semi-edge fibre on U, loop fibres on W (voltage r) and V (voltage s)."""
    return derived_cover(zeta_for(4, k, r, s))


# -- fibre indexing and parameter symmetries ----------------------------------

def fibre_indexers(k: int):
    """(2k, u, v, w), where u(i), v(i) and w(i) are the fibre-major indices
    of u_i, v_i and w_i, with i read mod 2k. ValueError unless k >= 1."""
    if k < 1:
        raise ValueError("k must be positive")
    n = 2 * k
    return (n,) + tuple(lambda i, f=f: f * n + i % n for f in range(3))


def fibre_map(
    k: int, scale: int = 1, shift: int = 0, fibres: tuple = (0, 1, 2)
) -> tuple[int, ...]:
    """The vertex map sending vertex i of fibre f to vertex scale*i + shift
    of fibre fibres[f], as an image tuple. The deck transformation rho is
    fibre_map(k, shift=1) and index negation is fibre_map(k, -1). It is a
    bijection iff scale is a unit mod 2k and fibres permutes (0, 1, 2);
    otherwise ValueError."""
    n, *at = fibre_indexers(k)
    if gcd(scale, n) != 1 or sorted(fibres) != [0, 1, 2]:
        raise ValueError("not a permutation")
    return tuple(at[fibres[f]](scale * i + shift) for f in range(3) for i in range(n))


class ParamSymmetry(NamedTuple):
    """A map on (r, s) over Z_n, n = 2k, declared as the matrix (a, b, c, d),
    row by row, with the vertex map that proves it: the cover at (r, s)
    relabelled by fibre_map(k, scale, fibres=fibres) is exactly the cover at
    image(r, s). The fine maps define the reported orbits; the others only
    join fine orbits into unit orbits."""

    matrix: tuple
    n: int
    scale: int = 1
    fibres: tuple = (0, 1, 2)
    fine: bool = True

    def image(self, r: int, s: Optional[int]) -> tuple:
        """(a*r + b*s, c*r + d*s) mod n; s is None for type 3, read as 0."""
        (a, b, c, d), n = self.matrix, self.n
        return (a * r + b * (s or 0)) % n, None if s is None else (c * r + d * s) % n


def unit_generators(n: int) -> list[int]:
    """Generators of the unit group of Z_n: each unit, ascending, that is
    not in the subgroup the ones before it generate."""
    gens, group = [], {1 % n}
    for a in range(2, n):
        if gcd(a, n) == 1 and a not in group:
            gens.append(a)
            cosets, x = [group], a
            while x not in group:  # the cosets group * a^i, i < order of a
                cosets.append({g * x % n for g in group})
                x = x * a % n
            group = set().union(*cosets)
    return gens


def parameter_symmetries(family_type: int, k: int) -> list[ParamSymmetry]:
    """The parameter symmetries of one family over Z_{2k}, declared once.

    They are voltage-assignment isomorphisms (Gross & Tucker, Topological
    Graph Theory, 1987, ch. 2). Multiplying every voltage by a unit a is the
    index map i -> a*i, and a fixes the semi-edge voltage k because it is
    odd; that holds for all four types, so each declares the scaling by
    generators of the unit group of Z_{2k}. A loop lifts to the same edges
    under s and -s. Swapping the two edges of a double bridge, or two
    fibres that play the same part, permutes the pregraph. The scalings are
    fine (they define the reported orbits) only for type 1, and commute
    with every sign flip and swap, which `parameter_orbits` relies on.
    Parameters are residues mod 2k; s is None for type 3. ValueError
    unless the type is 1..4 and k >= 1."""
    if family_type not in (1, 2, 3, 4):
        raise ValueError("family type must be 1..4")
    n = fibre_indexers(k)[0]
    neg_r, neg_s, swap = (n - 1, 0, 0, 1), (1, 0, 0, n - 1), (0, 1, 1, 0)
    units = [ParamSymmetry((a, 0, 0, a), n, scale=a, fine=family_type == 1)
             for a in unit_generators(n)]
    return {
        1: [ParamSymmetry(swap, n)],
        2: [ParamSymmetry(neg_r, n, scale=-1), ParamSymmetry(neg_s, n)],
        3: [ParamSymmetry(neg_r, n, scale=-1)],
        4: [ParamSymmetry(neg_r, n), ParamSymmetry(neg_s, n),
            ParamSymmetry(swap, n, fibres=(0, 2, 1))],
    }[family_type] + units


def _closure(gens: list, n: int) -> list[tuple]:
    """The group of matrices over Z_n that gens generate, identity first."""
    group, seen = [(1, 0, 0, 1)], {(1, 0, 0, 1)}
    for a, b, c, d in group:  # the products found are multiplied in turn
        new = {((e * a + f * c) % n, (e * b + f * d) % n, (g * a + h * c) % n,
                (g * b + h * d) % n) for e, f, g, h in gens} - seen
        seen |= new
        group += new
    return group


def parameter_orbits(family_type: int, k: int) -> list[tuple]:
    """Pairs (p, m) over the (r, s) grid of one family, sorted: p is the
    minimum of a fine orbit (an orbit under the fine declared symmetries)
    and m the minimum of its unit orbit (the orbit under all of them, a
    union of fine orbits). Every grid point is isomorphic to some p, and
    the covers of one unit orbit to each other.

    The fine matrices close into a group F, the others into a group C.
    Walked by flat index x = r*2k + s (s = 0 for type 3), in tuple order,
    an unmarked point is a fine minimum and marks its |F| images. C
    commutes with F, so it carries a fine orbit onto the fine orbit of its
    minimum's image: walked in order, an unmarked fine minimum is a unit
    minimum and marks the fine minima of its |C| images. ValueError as
    `parameter_symmetries`."""
    syms = parameter_symmetries(family_type, k)
    n = 2 * k
    fine = _closure([sym.matrix for sym in syms if sym.fine], n)
    coarse = _closure([sym.matrix for sym in syms if not sym.fine], n)
    fine_min, unit_min, minima = [None] * n * n, [None] * n * n, []
    for x in range(0, n * n, n if family_type == 3 else 1):
        if fine_min[x] is None:
            minima.append(x)
            r, s = divmod(x, n)
            for a, b, c, d in fine:
                fine_min[(a * r + b * s) % n * n + (c * r + d * s) % n] = x
    for x in minima:
        if unit_min[x] is None:
            r, s = divmod(x, n)
            for a, b, c, d in coarse:
                unit_min[fine_min[(a * r + b * s) % n * n + (c * r + d * s) % n]] = x
    if family_type == 3:
        return [((x // n, None), (unit_min[x] // n, None)) for x in minima]
    return [(divmod(x, n), divmod(unit_min[x], n)) for x in minima]


def r_star(k: int) -> int:
    """The unique even r in Z_{2k} with 3 - 2r + k = 0 (mod 2k), branch
    picked by k mod 4."""
    if k % 2 == 0:
        raise ValueError("k must be odd")
    if k < 3:
        raise ValueError("k must be at least 3")
    value = (k + 3) // 2 if k % 4 == 1 else (k + 3) // 2 + k
    assert value % 2 == 0 and (3 - 2 * value + k) % (2 * k) == 0
    return value


def x_graph(k: int) -> SimpleGraph:
    """The distinguished vertex-transitive member of the t1 family, carrying
    rho, phi_x and tau_X: u_i -> u_-i, v_i -> w_-i, w_i -> v_-i."""
    g = t1(k, r_star(k), 1)
    g.known_automorphisms = (fibre_map(k, shift=1), _table_map(k, _phi_x(k)),
                             fibre_map(k, -1, fibres=(0, 2, 1)))
    return g


def y_graph(k: int) -> SimpleGraph:
    """The distinguished vertex-transitive member of the t2 family, carrying
    rho, phi_y and tau_Y: u_i -> u_-i, v_i -> v_-i, w_i -> w_(2-i)."""
    if k % 2 == 0:
        raise ValueError("k must be odd")
    if k < 3:
        raise ValueError("k must be at least 3")
    tau = ((0, 0), (1, 0), (2, 2))  # fibre -> (fibre, shift) of tau_Y, i -> -i
    g = t2(k, 2, 1)
    g.known_automorphisms = (fibre_map(k, shift=1), _table_map(k, _phi_y(k)),
                             _table_map(k, (tau, tau), scale=-1))
    return g


# -- comparison graphs --------------------------------------------------------

def gp(n: int, m: int) -> SimpleGraph:
    """Generalized Petersen graph: outer n-cycle u_i, inner star polygon v_i
    with step m, spokes u_i v_i. m is reduced modulo the GP(n,m) = GP(n,n-m)
    identification."""
    if n < 3:
        raise ValueError("outer cycle needs at least 3 vertices")
    m %= n
    m = min(m, n - m)
    if m == 0:
        raise ValueError("step must be nonzero mod n")
    if 2 * m == n:
        raise ValueError("step n/2 would double the inner edges")
    tags = {}
    for i in range(n):
        tags[i, (i + 1) % n] = "outer"
        tags[i, n + i] = "spoke"
        tags[n + i, n + (i + m) % n] = "inner"
    return SimpleGraph(2 * n, tags, edge_tags=tags)


def prism(m: int) -> SimpleGraph:
    """Circular ladder: two m-cycles u_i = i and v_i = m + i (`gp`) joined
    by a perfect matching, carrying the rotation i -> i+1 of both rings, the
    reflection i -> -i and the ring swap u_i <-> v_i."""
    if m < 3:
        raise ValueError("prism needs m >= 3")
    g, ring = gp(m, 1), range(m)
    g.known_automorphisms = (tuple(f * m + (i + 1) % m for f in (0, 1) for i in ring),
                             tuple(f * m + -i % m for f in (0, 1) for i in ring),
                             tuple(range(m, 2 * m)) + tuple(ring))
    return g


def moebius(m: int) -> SimpleGraph:
    """Moebius ladder: a 2m-cycle with antipodal chords, carrying the
    rotation i -> i+1 and the reflection i -> -i of the cycle."""
    if m < 3:
        raise ValueError("Moebius ladder needs m >= 3")
    tags = {(i, (i + 1) % (2 * m)): "rim" for i in range(2 * m)}
    tags.update({(i, i + m): "rung" for i in range(m)})
    g = SimpleGraph(2 * m, tags, edge_tags=tags)
    g.known_automorphisms = (tuple((i + 1) % (2 * m) for i in range(2 * m)),
                             tuple(-i % (2 * m) for i in range(2 * m)))
    return g


# -- explicit automorphisms ---------------------------------------------------

# The phi maps' (fibre, shift) tables, read by `_table_map`: for even and
# then odd i, the (fibre, shift) that u_i, v_i and w_i go to, where fibres
# 0, 1 and 2 are U, V and W.
def _phi_x(k: int) -> tuple:
    t = r_star(k)
    return (((2, 2 - t), (0, 2 - t), (1, 2 - 2 * t)),
            ((1, t - 2), (2, 2 * t - 2), (0, t - 2)))


def _phi_y(k: int) -> tuple:
    return ((1, 1), (0, 1), (1, 0)), ((2, k + 2), (2, 2), (0, k))


def _table_map(k: int, table: tuple, scale: int = 1) -> tuple[int, ...]:
    """The vertex map of a (fibre, shift) table: vertex i of fibre x goes to
    vertex scale*i + shift of fibre f, where (f, shift) = table[i % 2][x]."""
    n, *at = fibre_indexers(k)
    return tuple(at[f](scale * i + shift) for fibre in range(3) for i in range(n)
                 for f, shift in [table[i % 2][fibre]])


def family_automorphism(
    which: str, k: int, r: Optional[int] = None, s: Optional[int] = None
) -> tuple[int, ...]:
    """Explicit automorphisms of the family graphs, as image tuples.

    rho: the fibre shift i -> i+1, the deck transformation every family
      carries; order 2k, three orbits.
    phi_x: mixes the three fibres of x_graph(k), swapping parity classes.
    phi_t1_bic: the fibre-mixing map of t1(k,r,s) vertex-transitive
      instances (defaults r = r_star(k), s = 1).
    phi_y: the fibre-mixing map of y_graph(k).

    Each phi map is declared as a (fibre, shift) table and validated
    against its graph, built first (which checks k), before being returned.
    """
    if which == "rho":
        return fibre_map(k, shift=1)
    if which == "phi_x":
        graph, table = x_graph(k), _phi_x(k)
    elif which == "phi_y":
        graph, table = y_graph(k), _phi_y(k)
    elif which == "phi_t1_bic":
        r = r_star(k) if r is None else r
        s = 1 if s is None else s
        graph, table = t1(k, r, s), (((1, 0), (2, r), (0, 0)),
                                     ((2, k + s), (0, k + s), (1, k + s - r)))
    else:
        raise ValueError(f"unknown automorphism name {which!r}")
    img = _table_map(k, table)
    if sorted(img) != list(range(6 * k)):
        raise ValueError(f"{which} is not a permutation for k={k}")
    if not is_automorphism(graph.adjacency(), img):
        raise NotAutomorphism(f"{which} transcription is wrong for k={k}")
    return img


class TorusDecomposition(NamedTuple):
    cycles: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    matching: tuple[tuple[int, int], ...]


def torus_cycle_decomposition(g: SimpleGraph, k: int) -> TorusDecomposition:
    """Split the y-family graph into three stacked 2k-cycles.

    C1 alternates even-index W and U vertices, C2 the odd-index ones, C3 is
    the V fibre. Every other vertex of each cycle matches into the previous
    cycle and the rest into the next one; the leftover edges form a perfect
    matching. Raises ValueError when the structure is absent, which signals
    a construction bug or a graph that is not y_graph(k).
    """
    n, u, v, w = fibre_indexers(k)
    if g.n != 6 * k:
        raise ValueError(f"expected {6 * k} vertices, got {g.n}")
    c1 = []
    c2 = []
    for i in range(0, n, 2):
        c1 += [w(i), u(i)]
        c2 += [w(i + 1), u(i + 1)]
    c3 = [v(i) for i in range(n)]

    cycle_edges = set()
    for cyc in (c1, c2, c3):
        if len(set(cyc)) != len(cyc):
            raise ValueError("cycle revisits a vertex")
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not g.has_edge(a, b):
                raise ValueError(f"missing cycle edge ({a},{b})")
            cycle_edges.add((min(a, b), max(a, b)))
    if len(set(c1) | set(c2) | set(c3)) != g.n:
        raise ValueError("cycles do not cover the vertex set")

    rest = [e for e in g.edges() if e not in cycle_edges]
    matched = [x for e in rest for x in e]
    if sorted(matched) != list(range(g.n)):
        raise ValueError("leftover edges are not a perfect matching")

    which_cycle = {}
    for idx, cyc in enumerate((c1, c2, c3)):
        for x in cyc:
            which_cycle[x] = idx
    mate = {}
    for a, b in rest:
        mate[a] = b
        mate[b] = a
    for idx, cyc in enumerate((c1, c2, c3)):
        targets = [which_cycle[mate[x]] for x in cyc]
        up, down = (idx + 1) % 3, (idx - 1) % 3
        evens, odds = set(targets[0::2]), set(targets[1::2])
        if not (evens == {up} and odds == {down}
                or evens == {down} and odds == {up}):
            raise ValueError("matching does not alternate between neighbors")

    return TorusDecomposition(
        (tuple(c1), tuple(c2), tuple(c3)), tuple(rest)
    )
