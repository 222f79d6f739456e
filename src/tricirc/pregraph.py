"""Dart-based pregraphs: multigraphs with loops, parallel links and semi-edges.

A pregraph is a 4-tuple (V, D; beg, inv) where beg assigns each dart its
initial vertex and inv is an involution on darts. The orbits of inv are the
edges: a semi-edge is a self-inverse dart, a loop has two darts at one vertex,
and a link has two darts at distinct vertices.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from typing import Iterable, Optional, Sequence

SEMI_EDGE = "semi-edge"
LOOP = "loop"
LINK = "link"


class Pregraph:
    """Immutable pregraph on dense integer vertex and dart ids.

    Darts may carry string names of the form "(ab)_x" used in walk listings;
    names are a documentation layer over the integer ids.
    """

    __slots__ = ("n_vertices", "n_darts", "beg", "inv", "dart_names",
                 "vertex_names", "edge_tags", "_name_to_dart")

    def __init__(
        self,
        n_vertices: int,
        beg: Sequence[int],
        inv: Sequence[int],
        dart_names: Optional[Sequence[Optional[str]]] = None,
        vertex_names: Optional[Sequence[str]] = None,
        edge_tags: Optional[dict[int, str]] = None,
    ):
        n_darts = len(beg)
        if len(inv) != n_darts:
            raise ValueError("beg and inv must have equal length")
        for d in range(n_darts):
            if not 0 <= beg[d] < n_vertices:
                raise ValueError(f"dart {d} has invalid initial vertex")
            e = inv[d]
            if not 0 <= e < n_darts or inv[e] != d:
                raise ValueError("inv is not an involution on the darts")
        self.n_vertices = n_vertices
        self.n_darts = n_darts
        self.beg = tuple(beg)
        self.inv = tuple(inv)
        self.vertex_names = (
            tuple(vertex_names) if vertex_names is not None
            else tuple(str(v) for v in range(n_vertices))
        )
        if len(self.vertex_names) != n_vertices:
            raise ValueError("vertex_names length mismatch")
        if dart_names is None:
            dart_names = [None] * n_darts
        if len(dart_names) != n_darts:
            raise ValueError("dart_names length mismatch")
        self.dart_names = tuple(dart_names)
        self._name_to_dart = {
            nm: d for d, nm in enumerate(self.dart_names) if nm is not None
        }
        tags: dict[int, str] = {}
        if edge_tags:
            for d, tag in edge_tags.items():
                rep = min(d, self.inv[d])
                tags[rep] = tag
        self.edge_tags = tags

    # -- basic structure -------------------------------------------------

    def end(self, d: int) -> int:
        """Terminal vertex of a dart: the initial vertex of its inverse."""
        return self.beg[self.inv[d]]

    def darts_at(self, v: int) -> list[int]:
        return [d for d in range(self.n_darts) if self.beg[d] == v]

    def edge_kind(self, d: int) -> str:
        """Kind of the edge containing dart d: semi-edge, loop or link."""
        if not 0 <= d < self.n_darts:
            raise ValueError(f"unknown dart id {d}")
        e = self.inv[d]
        if e == d:
            return SEMI_EDGE
        if self.beg[e] == self.beg[d]:
            return LOOP
        return LINK

    def edges(self) -> list[int]:
        """One representative dart per edge: min(d, inv d), sorted."""
        return sorted({min(d, self.inv[d]) for d in range(self.n_darts)})

    def edge_tag(self, d: int) -> Optional[str]:
        return self.edge_tags.get(min(d, self.inv[d]))

    def dart(self, name: str) -> int:
        """Dart id for a named dart."""
        try:
            return self._name_to_dart[name]
        except KeyError:
            raise KeyError(f"no dart named {name!r}") from None

    def dart_label(self, d: int) -> str:
        nm = self.dart_names[d]
        return nm if nm is not None else f"dart{d}"

    def is_connected(self) -> bool:
        if self.n_vertices <= 1:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for d in range(self.n_darts):
                if self.beg[d] == x:
                    y = self.end(d)
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)
        return len(seen) == self.n_vertices

    def semi_edge_count(self, v: int) -> int:
        return sum(
            1 for d in range(self.n_darts)
            if self.beg[d] == v and self.inv[d] == d
        )

    def __repr__(self) -> str:
        return (
            f"Pregraph(vertices={self.n_vertices}, darts={self.n_darts})"
        )

    # -- structure profile used by isomorphism ---------------------------

    def _profile(self):
        """Per-vertex semi/loop counts and per-pair link counts."""
        semi = [0] * self.n_vertices
        loops = [0] * self.n_vertices
        links: Counter = Counter()
        for d in self.edges():
            kind = self.edge_kind(d)
            v = self.beg[d]
            if kind == SEMI_EDGE:
                semi[v] += 1
            elif kind == LOOP:
                loops[v] += 1
            else:
                a, b = sorted((v, self.end(d)))
                links[(a, b)] += 1
        return semi, loops, links


class Walk:
    """A directed walk: a dart sequence whose consecutive darts compose."""

    __slots__ = ("pregraph", "darts")

    def __init__(self, pregraph: Pregraph, darts: Sequence[int]):
        if not darts:
            raise ValueError("a walk has at least one dart")
        for x, y in zip(darts, darts[1:]):
            if pregraph.beg[y] != pregraph.end(x):
                raise ValueError("darts do not compose into a walk")
        self.pregraph = pregraph
        self.darts = tuple(darts)

    @classmethod
    def from_names(cls, pregraph: Pregraph, names: Iterable[str]) -> "Walk":
        return cls(pregraph, [pregraph.dart(nm) for nm in names])

    @property
    def start(self) -> int:
        return self.pregraph.beg[self.darts[0]]

    @property
    def end(self) -> int:
        return self.pregraph.end(self.darts[-1])

    def __len__(self) -> int:
        return len(self.darts)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Walk):
            return NotImplemented
        return self.pregraph is other.pregraph and self.darts == other.darts

    def __hash__(self) -> int:
        return hash((id(self.pregraph), self.darts))

    def inverse(self) -> "Walk":
        p = self.pregraph
        return Walk(p, [p.inv[d] for d in reversed(self.darts)])

    def __repr__(self) -> str:
        names = ",".join(self.pregraph.dart_label(d) for d in self.darts)
        return f"Walk({names})"


# -- the four cubic quotients on three vertices --------------------------

_U, _V, _W = 0, 1, 2


def _build(edge_specs):
    """Build a named pregraph on vertices u, v, w from edge specs.

    Each spec is ("semi", v, name, tag), ("loop", v, fwd, back, tag) or
    ("link", a, b, fwd, back, tag).
    """
    beg: list[int] = []
    inv: list[int] = []
    names: list[str] = []
    tags: dict[int, str] = {}
    for spec in edge_specs:
        kind = spec[0]
        if kind == "semi":
            _, v, name, tag = spec
            d = len(beg)
            beg.append(v)
            inv.append(d)
            names.append(name)
            tags[d] = tag
        elif kind == "loop":
            _, v, fwd, back, tag = spec
            d = len(beg)
            beg.extend([v, v])
            inv.extend([d + 1, d])
            names.extend([fwd, back])
            tags[d] = tag
        else:
            _, a, b, fwd, back, tag = spec
            d = len(beg)
            beg.extend([a, b])
            inv.extend([d + 1, d])
            names.extend([fwd, back])
            tags[d] = tag
    return Pregraph(
        3, beg, inv, dart_names=names, vertex_names=("u", "v", "w"),
        edge_tags=tags,
    )


def delta(i: int) -> Pregraph:
    """The i-th cubic pregraph on three vertices (i in 1..4).

    Dart names record the voltage symbol each dart carries in the
    corresponding tricirculant family: k on semi-edges, 0 on tree links,
    r and s on the remaining edges.
    """
    if i == 1:
        # semi-edge at u; links u-v, u-w; two parallel links v-w
        return _build([
            ("semi", _U, "(uu)_k", "K"),
            ("link", _U, _V, "(uv)_0", "(vu)_0", "0"),
            ("link", _U, _W, "(uw)_0", "(wu)_0", "0"),
            ("link", _V, _W, "(vw)_r", "(wv)_-r", "R"),
            ("link", _V, _W, "(vw)_s", "(wv)_-s", "S"),
        ])
    if i == 2:
        # semi-edge at w; loop at v; link u-v; two links u-w
        return _build([
            ("semi", _W, "(ww)_k", "K"),
            ("loop", _V, "(vv)_s", "(vv)_-s", "S"),
            ("link", _U, _V, "(uv)_0", "(vu)_0", "0"),
            ("link", _U, _W, "(uw)_0", "(wu)_0", "0"),
            ("link", _U, _W, "(uw)_r", "(wu)_-r", "R"),
        ])
    if i == 3:
        # a semi-edge at each vertex; links u-v, u-w, v-w
        return _build([
            ("semi", _U, "(uu)_k", "K"),
            ("semi", _V, "(vv)_k", "K"),
            ("semi", _W, "(ww)_k", "K"),
            ("link", _U, _V, "(uv)_0", "(vu)_0", "0"),
            ("link", _U, _W, "(uw)_0", "(wu)_0", "0"),
            ("link", _V, _W, "(vw)_r", "(wv)_-r", "R"),
        ])
    if i == 4:
        # semi-edge at u; links u-v, u-w; loops at v and w
        return _build([
            ("semi", _U, "(uu)_k", "K"),
            ("link", _U, _V, "(uv)_0", "(vu)_0", "0"),
            ("link", _U, _W, "(uw)_0", "(wu)_0", "0"),
            ("loop", _V, "(vv)_s", "(vv)_-s", "S"),
            ("loop", _W, "(ww)_r", "(ww)_-r", "R"),
        ])
    raise ValueError(f"delta index must be in 1..4, got {i}")


# -- pregraph isomorphism ---------------------------------------------------

def pregraph_isomorphism(p: Pregraph, q: Pregraph) -> Optional[dict[int, int]]:
    """A vertex bijection p -> q preserving structure, or None.

    Two pregraphs are isomorphic iff some vertex bijection preserves the
    per-vertex semi-edge and loop counts and the per-pair link multiplicities;
    darts within each such class are interchangeable, so any class-preserving
    vertex map extends to a dart bijection.
    """
    if p.n_vertices != q.n_vertices or p.n_darts != q.n_darts:
        return None
    ps, pl, plinks = p._profile()
    qs, ql, qlinks = q._profile()
    for perm in itertools.permutations(range(q.n_vertices)):
        if any(ps[v] != qs[perm[v]] or pl[v] != ql[perm[v]]
               for v in range(p.n_vertices)):
            continue
        ok = True
        for (a, b), cnt in plinks.items():
            fa, fb = sorted((perm[a], perm[b]))
            if qlinks.get((fa, fb), 0) != cnt:
                ok = False
                break
        if ok and sum(plinks.values()) == sum(qlinks.values()):
            return {v: perm[v] for v in range(p.n_vertices)}
    return None


def pregraphs_isomorphic(p: Pregraph, q: Pregraph) -> bool:
    return pregraph_isomorphism(p, q) is not None


def enumerate_cubic_pregraphs_3v() -> list[Pregraph]:
    """All connected cubic pregraphs on 3 vertices with at most one
    semi-edge per vertex, up to isomorphism.

    Exhausts every involution on the 9 dart slots (3 per vertex), filters,
    and deduplicates by pregraph isomorphism.
    """
    beg = [0, 0, 0, 1, 1, 1, 2, 2, 2]

    def involutions(points):
        if not points:
            yield {}
            return
        first, rest = points[0], points[1:]
        for sub in involutions(rest):
            yield {first: first, **sub}
        for j, other in enumerate(rest):
            remaining = rest[:j] + rest[j + 1:]
            for sub in involutions(remaining):
                yield {first: other, other: first, **sub}

    found: list[Pregraph] = []
    for invmap in involutions(list(range(9))):
        inv = [invmap[d] for d in range(9)]
        pg = Pregraph(3, beg, inv)
        if any(pg.semi_edge_count(v) > 1 for v in range(3)):
            continue
        if not pg.is_connected():
            continue
        if not any(pregraphs_isomorphic(pg, h) for h in found):
            found.append(pg)
    return found


# -- reduced closed walk enumeration ----------------------------------------

def reduced_closed_walks(p: Pregraph, start: int, length: int) -> list[Walk]:
    """All rooted, directed, reduced closed walks of `length` darts at `start`.

    Walks are counted per starting vertex and direction: a walk and its
    inverse are distinct members, as are cyclic rotations of one another.
    The reduction rule forbids consecutive inverse darts including the
    wrap-around pair (last, first) of the closed walk.
    """
    if not 0 <= start < p.n_vertices:
        raise ValueError(f"unknown vertex {start}")
    if length < 1:
        raise ValueError("length must be positive")
    darts_at = [p.darts_at(v) for v in range(p.n_vertices)]
    out: list[Walk] = []
    stack: list[int] = []

    def extend(at: int):
        if len(stack) == length:
            if at == start and stack[0] != p.inv[stack[-1]]:
                out.append(Walk(p, list(stack)))
            return
        for d in darts_at[at]:
            if stack and d == p.inv[stack[-1]]:
                continue
            stack.append(d)
            extend(p.end(d))
            stack.pop()

    extend(start)
    return out
