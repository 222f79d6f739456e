"""Automorphism groups, canonical forms, transitivity, cycles and signatures.

The canonical-labeling engine is an individualization-refinement backtracker
over equitable partitions, seeded with one degree/distance key per vertex:
the sizes of its balls of radius 1..4 (`_bfs_key`). It returns both a
canonical labeling (for isomorphism testing) and a generating set of the
automorphism group (for transitivity and orbit work). Deterministic for a
fixed vertex ordering.

The search keeps its work near what changes (McKay & Piperno, Practical
graph isomorphism II, 2014). Refinement re-keys only the vertices next to
what changed: after the root, those next to the individualized vertex, then
those next to a part split off from a cell (not its largest); the others in
a cell share one key. Each search node keeps one union-find of the
orbits of the generators that fix its prefix, fed as generators arrive.
A leaf's certificate is the graph6 of the graph relabelled by the leaf,
packed from the edge list. A leaf that matches the first leaf gives
an automorphism that fixes their common prefix, so the search jumps back to
their deepest common ancestor: the canonical labeling is the one the full
tree gives, and the tree and the generator list are smaller.

A search starts from the automorphisms the graph carries (`families` sets
them on its numbering, so a relabelled copy carries none), each checked
before it runs. They only prune, so the search stays exact: the first
child of every node is still explored, so the first leaf and the base do
not move; the first path's orbit product still counts |Aut|; and
automorphic leaves share a certificate. The same argument holds for the
automorphisms the search finds on its way: at each node, a sibling not
yet joined to an explored one is first tried as the image of the node's
first child by the rooted extension, constrained to the node's equitable
colouring, in which each prefix vertex is alone, so a map found fixes the
prefix and prunes as a seed does, with no descent to a leaf. Results are
cached by (adjacency, `SimpleGraph.known_automorphisms`).

The cached search entry (`_Entry`) answers every question below. Every
permutation, in and out, is an image tuple. |Aut| comes from the search
itself, as the product of the first path's stabiliser orbit sizes, so
the order, the orbits and the cap need no chain. The chain is
built only for a walk over the group (the elements, the semiregular search
on Aut), when the first one reaches the entry; it tests elements on the
base, the first leaf's prefix, which only the identity fixes, and stops
once its orbits multiply to |Aut|. The arc orbits are computed when first
asked, once per entry, and the edge orbits are read off them.

An isomorphism test reaches the search only when the same key and a budgeted
rooted extension leave it open (`are_isomorphic`). The key is read off both
graphs' balls, grown round by round in one routine (`_ball_rounds`, which
the search's initial colours read too); the test stops at the first round
whose ball sizes differ. The rooted extension is a loop over placement
positions, with a plan of the positions cached per (adjacency, root), so the
sweep's VT test and naming, every candidate image of `are_isomorphic` and
the siblings of one search node each place from one plan; the plan's BFS is
also the test's connectivity check. A semiregular element with cycles of
length t maps each vertex orbit onto itself, semiregularly with the same t,
so the semiregular search first asks the orbit sizes and the groups induced
on the orbits, and walks Aut only if none of them refutes t. Cycle counts
are taken at one edge per edge orbit, since an automorphism carries the
cycles through an edge onto those through its image, and read at one root
per vertex orbit; `analyze` takes the girth there for the same reason.
"""

from __future__ import annotations

from collections import Counter, deque
from functools import lru_cache
from itertools import islice
from math import inf, prod
from typing import Iterable, Optional, Sequence

from .graph6 import encode_graph6  # noqa: F401 -- perfbench/tracer.py wraps symmetry.encode_graph6
from .graph6 import pack_graph6
from .graphs import SimpleGraph

DEFAULT_SIZE_GUARD = 600
DEFAULT_CAP = 10**7  # the largest |Aut| the semiregular search takes on


class SizeGuardError(ValueError):
    """Graph exceeds the desk-scale size guard."""


class EnumerationCapExceeded(RuntimeError):
    """|Aut| is above the cap: the largest the semiregular search takes on."""


# -- individualization-refinement search -------------------------------------

def _bfs_key(adj: tuple[tuple[int, ...], ...], v: int) -> tuple[int, ...]:
    """The degree/distance key of v: the sizes of the balls of radius 1..4
    about v, column v of `_ball_rounds`, by one BFS from v. The size of
    radius 1 is 1 + degree. This single-root form serves
    `verify._passes_vt_screen`, which needs the key at three roots only,
    where growing every vertex's ball would cost more than the three BFS."""
    seen = [False] * len(adj)
    seen[v] = True
    frontier, reached, sizes = [v], 1, []
    for _ in range(4):
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    nxt.append(y)
        reached += len(nxt)
        sizes.append(reached)
        frontier = nxt
    return tuple(sizes)


def _ball_rounds(adj: tuple[tuple[int, ...], ...]):
    """Yield, after each of rounds 1..4, the list of every vertex's ball
    size: round d grows the ball of radius d about each vertex, as an int
    bitset, the union of the balls of radius d-1 about it and its
    neighbours. A ball that has reached its component yields the same size
    again."""
    ball = [1 << v for v in range(len(adj))]
    for _ in range(4):
        grown = []
        for b, nbrs in zip(ball, adj):
            for u in nbrs:
                b |= ball[u]
            grown.append(b)
        ball = grown
        yield [b.bit_count() for b in ball]


def _initial_colors(adj: tuple[tuple[int, ...], ...]) -> list[int]:
    """The degree/distance colouring: every vertex's `_bfs_key`, read off
    `_ball_rounds` at once and ranked densely."""
    keys = list(zip(*_ball_rounds(adj)))
    code = {key: i for i, key in enumerate(sorted(set(keys)))}
    return [code[k] for k in keys]


def _wl_refine(
    adj, colors: list[int], individualized: Optional[Sequence[int]] = None
) -> list[int]:
    """Equitable refinement: recolor by (color, sorted neighbor colors) to a
    fixpoint. Color codes are assigned in invariant (lexicographic key)
    order, so equal inputs on isomorphic graphs produce matching codes.

    The input colors must be dense (0..m-1), as `_initial_colors` and
    `_individualize` produce them. Rounds are synchronous. A vertex's key
    names each neighbor's cell by its start in the ordered partition, which
    orders cells as their dense codes do; the fixpoint and its numbering are
    those of re-keying every vertex in every round.

    A round re-keys only the marked vertices: those with a neighbor in a
    part split off last round other than the largest part of its cell. The
    unmarked vertices of a cell had equal keys last round, and every renamed
    part they touch is a largest part, which holds all of their old
    neighbors there; so they still share one key, taken from one of them.
    Cells are sets under an id, with the start kept per id, and the part
    with the unmarked vertices keeps the id: it is never walked vertex by
    vertex unless it is not the largest. If `individualized` is given,
    `colors` is an equitable coloring in which these vertices were just
    split off into singleton cells, and the first round marks their
    neighbors; otherwise it marks every vertex of a cell of two or more."""
    cid = list(colors)  # vertex -> cell id
    members: list[set[int]] = [set() for _ in range(max(colors, default=-1) + 1)]
    for v, c in enumerate(cid):
        members[c].add(v)
    start, pos = [], 0  # cell id -> start
    for cell in members:
        start.append(pos)
        pos += len(cell)

    def key(v: int) -> tuple:
        return tuple(sorted([start[cid[w]] for w in adj[v]]))

    def mark(vertices) -> dict[int, set[int]]:
        """The neighbors of the vertices that lie in cells of two or more,
        by cell id."""
        marked: dict[int, set[int]] = {}
        for v in vertices:
            for w in adj[v]:
                d = cid[w]
                if len(members[d]) > 1:
                    if d in marked:
                        marked[d].add(w)
                    else:
                        marked[d] = {w}
        return marked

    if individualized is None:
        marked = {c: set(cell) for c, cell in enumerate(members) if len(cell) > 1}
    else:
        marked = mark(individualized)
    while marked:
        splits = []
        for c, mk in marked.items():
            cell = members[c]
            parts: dict[tuple, list[int]] = {}
            for v in mk:
                parts.setdefault(key(v), []).append(v)
            kept = None  # the key of the unmarked vertices
            if len(mk) < len(cell):
                kept = key(next(v for v in cell if v not in mk))
                parts.setdefault(kept, [])
            if len(parts) > 1:
                splits.append((c, kept, sorted(parts.items())))
        touched = []
        for c, kept, parts in splits:
            if kept is None:
                kept = max(parts, key=lambda part: len(part[1]))[0]
            ids = []  # the parts' cell ids: the kept part keeps c
            for k, part in parts:
                if k == kept:
                    ids.append(c)
                    continue
                ids.append(len(members))
                members.append(set(part))
                start.append(0)
                members[c].difference_update(part)
                for v in part:
                    cid[v] = ids[-1]
            sizes = [len(members[d]) for d in ids]
            pos = start[c]
            for d, size in zip(ids, sizes):
                start[d] = pos
                pos += size
            del ids[sizes.index(max(sizes))]  # the largest part
            for d in ids:
                touched.extend(members[d])
        marked = mark(touched)
    rank = [0] * len(start)
    for i, c in enumerate(sorted(range(len(start)), key=start.__getitem__)):
        rank[c] = i
    return [rank[c] for c in cid]


def _individualize(colors: list[int], v: int) -> list[int]:
    """colors with v split off first from its cell: v keeps its color, and
    the rest of its cell and every color above it move up by one. colors is
    dense and v's cell has two or more vertices, so the result is dense."""
    c = colors[v]
    return [x + (x > c or (x == c and u != v)) for u, x in enumerate(colors)]


def _leaf_certificate(adj, colors: list[int]) -> bytes:
    """graph6 of the graph relabelled by the discrete coloring, vertex v
    going to colors[v]. Only the edges set bits, so this is linear in the
    edge count."""
    return pack_graph6(len(adj), [
        j * (j - 1) // 2 + colors[w]
        for j, nbrs in zip(colors, adj) for w in nbrs if colors[w] < j
    ])


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union_perm(self, img: Sequence[int]):
        """Merge every point with its image under a permutation."""
        find, parent = self.find, self.parent
        for x, y in enumerate(img):
            if x != y:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry


def _orbits(m: int, maps: Iterable[Sequence[int]]) -> list[list[int]]:
    """The orbits of 0..m-1 under the maps (image sequences), each sorted,
    ordered by least point: the closure of each least unseen point under
    every map."""
    maps = list(maps)
    seen = [False] * m
    out = []
    for x in range(m):
        if seen[x]:
            continue
        seen[x] = True
        orbit = [x]
        for y in orbit:
            for img in maps:
                z = img[y]
                if not seen[z]:
                    seen[z] = True
                    orbit.append(z)
        out.append(sorted(orbit))
    return out


def is_automorphism(adj: tuple[tuple[int, ...], ...], img: Sequence[int]) -> bool:
    """Whether img (an image tuple) is a permutation of the vertices that
    maps each row of adj onto the row of the image vertex, as sets: the rows
    may be in any order."""
    return sorted(img) == list(range(len(adj))) and all(
        sorted([img[b] for b in nbrs]) == sorted(adj[img[a]])
        for a, nbrs in enumerate(adj)
    )


def _search(adj: tuple[tuple[int, ...], ...], seeds: tuple = ()):
    """IR search: returns (generator tuples, canonical labeling tuple,
    canonical graph6, base, |Aut|), the fields of `_Entry`. `seeds`, known
    automorphisms of the graph as image tuples, start the generator list.

    The canonical labeling maps vertex -> position; relabeling any isomorphic
    copy of the graph by its own canonical labeling yields the same graph,
    whose graph6 is the best leaf's certificate. The base is the prefix of
    the first leaf: individualizing it and refining gives a discrete
    coloring, which an automorphism that fixes the prefix preserves, so only
    the identity fixes it. |Aut| is the product, over the first path's
    nodes, of the orbit of the first cell vertex under the generators that
    fix the node's prefix (McKay & Piperno 2014; nauty's grpsize): that is
    the index of the prefix's stabiliser in that of the parent prefix.

    Seeds change none of these (McKay, Practical graph isomorphism, 1981;
    McKay & Piperno 2014). They only prune: a node is skipped when a known
    automorphism that fixes its parent's prefix maps it onto an explored
    sibling. The first child of every node is still explored, so the first
    leaf and the base do not move. A first-path cell vertex in the orbit of
    the first child is then either explored, and its subtree gives an
    automorphism that maps the first child onto it, or joined by a known
    one to an explored vertex, so the first path's orbits, and their
    product |Aut|, are those of the unseeded search. Automorphic leaves
    share a certificate, so the best certificate does not move either; the
    labeling may be that of another leaf with it, and the generators
    differ.

    Automorphisms found during the search prune the same way, without a
    descent to a leaf (Darga, Sakallah & Markov, Faster symmetry discovery
    using sparsity of symmetries, 2008). At each node, a cell vertex v after
    the first that the node's orbits do not join to an explored vertex is
    first tried as the image of cell[0] by the rooted extension (`_extend`)
    under the node's equitable colouring, within EXTENSION_BUDGET·n
    placements. It reads the rows of a `SimpleGraph`, which are sorted, so
    the maps found do not depend on how the graph was built. Each prefix
    vertex is a singleton cell of that colouring, so a map found is an
    automorphism that fixes the prefix: v's subtree is the image of
    cell[0]'s, and v is skipped as a seed would skip it. On the first path,
    v is then joined to cell[0] as exploring it would have joined it, so the
    first leaf, the base, |Aut| and the best certificate do not move. A None
    decides nothing, and v is explored. A disconnected graph has no plan,
    so its search extends nothing.
    """
    n = len(adj)
    gens: list[tuple[int, ...]] = list(seeds)
    order = 1
    connected = True  # until a plan finds the graph is not
    # The first leaf and the best leaf, each as (path, certificate,
    # labeling, prefix).
    first = best = None

    def add_automorphism(lab_a: list[int], lab_b: list[int]):
        # Certificates matched: inv(lab_b) applied after lab_a is an
        # automorphism. Skip identity and known generators.
        inv_b = [0] * n
        for v, p in enumerate(lab_b):
            inv_b[p] = v
        g = tuple(inv_b[lab_a[v]] for v in range(n))
        if g != tuple(range(n)) and g not in gens:
            gens.append(g)

    def extension(colors: list[int], a: int, b: int):
        # An automorphism that preserves colors and sends a to b, found by
        # the rooted extension within its budget, or None.
        nonlocal connected
        if connected:
            try:
                plan = _extension_plan(adj, a)
            except ValueError:
                connected = False
            else:
                img, _ = _extend(plan, adj, b, EXTENSION_BUDGET * n, colors)
                if img is not None:
                    return tuple(img)
        return None

    def explore(colors: list[int], path: tuple, prefix: tuple) -> int:
        # Below the root, colors individualizes prefix[-1] in an
        # equitable coloring. Returns the depth to unwind to.
        nonlocal first, best, order
        colors = _wl_refine(adj, colors, prefix[-1:] or None)
        counts = Counter(colors)
        # The node invariant: (color, cell size) pairs in color order.
        inv = tuple(sorted(counts.items()))
        path = path + (inv,)
        depth = len(path) - 1

        on_first = first is None or path == first[0][: depth + 1]
        # No node lies deeper than the best leaf, so its path[depth]
        # exists. Else the node's ancestor A at the leaf's depth is not
        # discrete. A discrete invariant is ((0, 1), ..., (n-1, 1)), and A's
        # has (c, size > 1) where that has (c, 1), at A's first cell of two
        # or more: A compares greater. So had the leaf been the best when A
        # was entered, entering A would have reset the best; and a leaf found
        # since lies below A, deeper. (A path longer than the first leaf's is
        # never equal to its slice, so on_first needs no depth test either.)
        if best is not None:
            bench = best[0][depth]
            if inv < bench and not on_first:
                return depth
            if inv > bench:
                # Entering territory that beats the current best: the first
                # leaf below installs the new benchmark.
                best = None

        if len(counts) == n:
            lab = list(colors)
            cert = _leaf_certificate(adj, lab)
            leaf = (path, cert, lab, prefix)
            back = depth
            if first is None:
                first = leaf
            elif cert == first[1]:
                add_automorphism(first[2], lab)
                # It maps the first path onto this one and fixes their common
                # prefix, so the rest of this branch repeats the first path's.
                back = next(i for i, (a, b) in enumerate(
                    zip(prefix, first[3])) if a != b)
            if best is None or path == best[0] and cert > best[1]:
                best = leaf
            elif path == best[0] and cert == best[1]:
                add_automorphism(best[2], lab)
            return back

        # Target cell: the smallest color class with more than one vertex.
        target_color = min(c for c, cnt in counts.items() if cnt > 1)
        cell = [v for v in range(n) if colors[v] == target_color]

        # Orbit pruning under the generators that fix the prefix. The node's
        # union-find is made once the first cell vertex is explored, and
        # after each explored vertex it is fed the generators found since.
        # A later vertex that it does not join to an explored one is first
        # tried as the image of cell[0] by extension under colors; a map
        # found fixes the prefix, joins the two, and the vertex is skipped.
        first_path = first is None
        uf = None
        fed = 0
        explored: list[int] = []
        for v in cell:
            if explored:
                root_v = uf.find(v)
                if any(uf.find(u) == root_v for u in explored):
                    continue
                g = extension(colors, cell[0], v)
                if g is not None:
                    gens.append(g)
                    uf.union_perm(g)
                    fed = len(gens)
                    continue
            back = explore(_individualize(colors, v), path, prefix + (v,))
            if back < depth:
                return back
            explored.append(v)
            if uf is None:
                uf = _UnionFind(n)
            for g in gens[fed:]:
                if all(g[x] == x for x in prefix):
                    uf.union_perm(g)
            fed = len(gens)
        if first_path:
            # Every leaf below here shares this node's prefix, so no jump
            # passed it: each cell vertex in the orbit of cell[0] under the
            # prefix's stabiliser has given an automorphism onto the first
            # path, and that orbit is now final. |Aut| is the product of
            # these orbit sizes down the first path.
            root = uf.find(cell[0])
            order *= sum(uf.find(v) == root for v in cell)
        return depth

    # Each level individualizes a vertex of a non-singleton cell, so it has
    # more cells than its parent: the depth is at most n - 1, which is below
    # Python's default recursion limit of 1000 under the size guard.
    explore(_initial_colors(adj), (), ())
    return tuple(gens), tuple(best[2]), best[1], first[3], order


class _Entry:
    """The cached search result that answers every question below: the
    generator tuples `gens`, the canonical `labeling`, the canonical graph6
    `cert`, the `base` and `order` = |Aut| of `_search` seeded with `seeds`,
    each generator checked once to be an automorphism, the seeds before the
    search; and the stabiliser `chain`, and the `edge_orbits`, the
    `arc_orbit_count` and per vertex the edge orbit of each edge in its row
    (`edge_ids`), None until `_chain` and `_arc_pass` first fill them."""

    __slots__ = ("gens", "labeling", "cert", "base", "order", "chain",
                 "edge_orbits", "arc_orbit_count", "edge_ids")

    def __init__(self, adj: tuple[tuple[int, ...], ...], seeds: tuple = ()):
        for i, img in enumerate(seeds):
            if not is_automorphism(adj, img):
                raise ValueError(f"seed {i} is not an automorphism of the graph")
        self.gens, self.labeling, self.cert, self.base, self.order = _search(adj, seeds)
        if not all(is_automorphism(adj, img) for img in self.gens[len(seeds):]):
            raise AssertionError("internal error: invalid generator")
        self.chain = self.edge_orbits = self.arc_orbit_count = self.edge_ids = None


_search_cached = lru_cache(maxsize=2048)(_Entry)


def _check_size(g: SimpleGraph):
    if g.n > DEFAULT_SIZE_GUARD:
        raise SizeGuardError(
            f"graph on {g.n} vertices exceeds the size guard {DEFAULT_SIZE_GUARD}"
        )


def _searched(g: SimpleGraph):
    """The cached search result of g, under the size guard, seeded with the
    maps g carries; a relabelled or decoded copy carries none, as the maps
    name the constructor's vertices. They change none of the answers but
    the labeling and the generators (`_search`). ValueError if a map is
    not an automorphism of g."""
    _check_size(g)
    return _search_cached(g.adjacency(), g.known_automorphisms)


def canonical_form(g: SimpleGraph) -> bytes:
    """graph6 bytes of the canonically relabeled graph; equal iff isomorphic."""
    return _searched(g).cert


# Placements per vertex: relabelled covers take 2.2 in the median, refuting a look-alike ≥ 109.
EXTENSION_BUDGET = 16


def are_isomorphic(g: SimpleGraph, h: SimpleGraph) -> bool:
    """Whether g and h are isomorphic. Raises SizeGuardError above the size
    guard. Equal order and edge count are checked first; then:

    1. `_ball_rounds` grows the balls of both graphs side by side. The
       sorted list of ball sizes after each round is an isomorphism
       invariant, so the answer is False at the first round where the two
       differ. A vertex's sizes after rounds 1..4 are its `_bfs_key`, so
       after round 4 the key multisets are compared, and if they differ the
       answer is False. A pair told apart at an early round pays for no
       later one.
    2. If g is not empty, a is the least vertex of its rarest key class.
       `_extension_plan(adj, a)`, which the extension below reads from its
       cache, raises ValueError when g is disconnected. Otherwise
       `_rooted_isomorphism` tries each b of h with a's key in turn. An image
       found is an isomorphism, so the answer is True. Any isomorphism sends
       a to a vertex with a's key, so if every b fails the answer is False.
    3. If the extension spends EXTENSION_BUDGET·n placements in all without
       deciding, or g is disconnected or empty, the answer is whether the
       canonical forms are equal."""
    if g.n != h.n or g.edge_count() != h.edge_count():
        return False
    _check_size(g)
    adj, adj_h = g.adjacency(), h.adjacency()
    rounds, rounds_h = [], []
    for sizes, sizes_h in zip(_ball_rounds(adj), _ball_rounds(adj_h)):
        if sorted(sizes) != sorted(sizes_h):
            return False
        rounds.append(sizes)
        rounds_h.append(sizes_h)
    keys, keys_h = list(zip(*rounds)), list(zip(*rounds_h))
    count = Counter(keys)
    if count != Counter(keys_h):
        return False
    if g.n:
        a = min(range(g.n), key=lambda v: (count[keys[v]], v))
        try:
            _extension_plan(adj, a)
        except ValueError:  # g is disconnected
            return canonical_form(g) == canonical_form(h)
        budget = EXTENSION_BUDGET * g.n
        for b in range(h.n):
            if keys_h[b] != keys[a]:
                continue
            img, nodes = _rooted_isomorphism(adj, a, adj_h, b, budget)
            if img is not None:
                return True
            budget -= nodes
            if not budget:
                break
        else:
            return False
    return canonical_form(g) == canonical_form(h)


@lru_cache(maxsize=8)
def _extension_plan(adj, a: int) -> tuple:
    """The placements of `_rooted_isomorphism` from a, computed once per
    (adjacency, root) and shared by every target it extends onto: per
    position, (the vertex placed there, the vertex that first reached it,
    its other placed neighbours, its degree), the neighbours read off as
    the vertex is placed. Raises ValueError when adj is not connected."""
    n = len(adj)
    parent, placed, plan = [-1] * n, [False] * n, []  # -1: not reached yet
    parent[a] = a
    queue, forced = deque([a]), []
    while forced or queue:
        v = forced.pop() if forced else queue.popleft()
        if not placed[v]:
            placed[v] = True
            p, back = parent[v], []
            for w in adj[v]:
                if placed[w]:  # before v
                    if w != p:
                        back.append(w)
                elif parent[w] >= 0:
                    forced.append(w)
                else:
                    parent[w] = v
                    queue.append(w)
            plan.append((v, p, tuple(back), len(adj[v])))
    if len(plan) != n:
        raise ValueError("the graph must be connected")
    return tuple(plan)


def _rooted_isomorphism(adj, a: int, adj_h, b: int, limit: Optional[int] = None):
    """(an isomorphism from the connected graph adj onto adj_h that sends a
    to b, as an image list, or None; the vertices placed): `_extend` from
    the plan of (adj, a), which `_extension_plan` caches."""
    return _extend(_extension_plan(adj, a), adj_h, b, limit)


def _extend(plan: tuple, adj_h, b: int, limit: Optional[int] = None,
            colors: Optional[Sequence[int]] = None):
    """(an isomorphism from the connected graph of `plan`, from its root a,
    onto adj_h that sends a to b, as an image list, or None; the vertices
    placed).

    Individualise a and extend, with no refinement and no tree (McKay &
    Piperno 2014). Vertices are placed in BFS order from a, except that one
    reached by a second placed vertex goes next, so a cycle is checked as
    soon as it closes. Each goes on an unused neighbour, of its own degree,
    of the image of the vertex that first reached it, and its edges to placed
    vertices must land on edges (forward checking). The order is the plan,
    `_extension_plan(adj, a)`, and the backtrack is a loop over its
    positions with the next candidate index kept per position, so no depth
    is too deep.

    With `colors`, a colouring of the vertices of both graphs (the search
    passes one graph as both), each vertex's image, b included, must have
    the vertex's colour: an isomorphism found preserves the colouring, and
    one onto the plan's own graph fixes every vertex alone in its colour.

    None means there is no such isomorphism, or that the search stopped at
    `limit` placements without deciding: with a limit, a None whose count
    equals the limit decides nothing."""
    n = len(plan)
    a, _, _, degree = plan[0]
    if len(adj_h) != n or len(adj_h[b]) != degree or colors and colors[a] != colors[b]:
        return None, 0
    img = [-1] * n
    used = [False] * n
    img[a], used[b] = b, True
    nodes = 0
    stop = -1 if limit is None else limit
    tried = [0] * n  # per position, the candidates already tried there
    i = 1
    while 0 < i < n:
        v, p, back, degree = plan[i]
        targets = adj_h[img[p]]
        j = tried[i]
        while j < len(targets):
            y = targets[j]
            j += 1
            if used[y] or len(adj_h[y]) != degree or colors and colors[y] != colors[v]:
                continue
            for w in back:
                if img[w] not in adj_h[y]:
                    break
            else:
                break
        else:  # none left here: back to the previous position's next
            tried[i] = 0
            i -= 1
            used[img[plan[i][0]]] = False
            continue
        if nodes == stop:
            return None, nodes
        nodes += 1
        tried[i] = j
        img[v], used[y] = y, True
        i += 1
    return (img if i == n else None), nodes


# -- group machinery ---------------------------------------------------------
#
# One stabiliser chain with its levels on 0..n-1 answers every group question
# (Seress, Permutation Group Algorithms, 2003): level p is the pointwise
# stabiliser G_p of 0..p-1, with one u_x in G_p mapping p to each x of its
# orbit under G_p. The same walk serves the chain of Aut and that of the group
# Aut induces on one orbit, which the semiregular search builds for its
# refutation and drops.

def _stabiliser_chain(
    n: int, gens: Iterable[Sequence[int]], base: Sequence[int],
    order: Optional[int] = None,
) -> list[dict]:
    """Schreier-Sims with sifting: per level, {x: image tuple of u_x}.

    `base` is a base of the group: only the identity fixes each of its
    points. Two elements that agree on it are equal, so a Schreier
    generator u_{sx}^-1·s·u_x is the identity when s(u_x(b)) = u_{sx}(b) for
    each b of the base, and an element that fixes 0..max(base) is the
    identity, so sifting stops there. The chain is the same for every base.
    Inverses of the u_x are made when sifting first strips with them.

    `order`, if given, is |G|, and the build stops once the orbits multiply
    to it (Seress 2003, §4.5). Each orbit built so far lies in its level's
    full orbit, so their product reaches |G| only when every one is full;
    then every element sifts to the identity, nothing more would be added,
    and the chain is the one the whole build gives."""
    top = max(base, default=-1) + 1
    strong: list[list[tuple]] = [[] for _ in range(n)]  # generators in G_p
    identity = tuple(range(n))
    trans = [{p: identity} for p in range(n)]
    inverse: list[dict] = [{} for _ in range(n)]

    def add(g, lo, hi):
        """Make g a strong generator of levels lo..hi; extend their orbits."""
        for p in range(lo, hi + 1):
            strong[p].append(g)
            u_of = trans[p]
            queue = list(u_of)
            for x in queue:
                for s in strong[p]:
                    if s[x] not in u_of:
                        u_of[s[x]] = tuple([s[v] for v in u_of[x]])
                        queue.append(s[x])

    def sift(g, p):
        """g, or its images of 0..top-1, stripped through levels p.., and
        the level where it leaves."""
        for q in range(p, top):
            x = g[q]
            if x != q:
                w = inverse[q].get(x)
                if w is None:
                    u = trans[q].get(x)
                    if u is None:
                        return g, q
                    w = inverse[q][x] = tuple(sorted(identity, key=u.__getitem__))
                g = tuple([w[v] for v in g])
        return g, n  # the identity

    def residue(p):
        """A Schreier generator of level p that leaves the chain below p."""
        u_of = trans[p]
        for x, u in u_of.items():
            for s in strong[p]:
                w = u_of[s[x]]
                if any(s[u[b]] != w[b] for b in base):  # else the identity
                    # Sifting s·u_x strips level p with u_{sx}^-1. It reads
                    # only the images of 0..top-1, so those go first, and the
                    # whole element only if it leaves the chain.
                    h, j = sift(tuple([s[v] for v in u[:top]]), p)
                    if j < n:
                        return sift(tuple([s[v] for v in u]), p) if top < n else (h, j)
        return None, n

    def complete() -> bool:
        return order is not None and prod(map(len, trans)) >= order

    for g in gens:
        h, p = sift(tuple(g), 0)
        if p < n:
            add(h, 0, p)
            if complete():
                return trans
        while 0 <= p < n:  # levels p+1.. are complete
            h, j = residue(p)
            if j == n:
                p -= 1
            else:
                add(h, p + 1, j)
                if complete():
                    return trans
                p = j
    return trans


def _chain(g: SimpleGraph) -> list[dict]:
    """The stabiliser chain of Aut(g), built once per cached search entry and
    stopped at the search's |Aut|, which its orbits must multiply to."""
    entry = _searched(g)
    if entry.chain is None:
        trans = _stabiliser_chain(g.n, entry.gens, entry.base, entry.order)
        if prod(map(len, trans)) != entry.order:
            raise AssertionError("internal error: chain and search disagree on |Aut|")
        entry.chain = trans
    return entry.chain


def _check_cap(g: SimpleGraph, cap: int):
    """Raises EnumerationCapExceeded if |Aut(g)| > cap, before any chain is
    built."""
    if group_order(g) > cap:
        raise EnumerationCapExceeded(f"group has more than {cap} elements")


def _cycles_fit(img: Sequence[int], known: int, target: int) -> bool:
    """False once a cycle of img through the points below `known` closes at
    a length other than target or runs target steps without closing."""
    seen = [False] * known
    heads = set(range(known)).difference(img[:known])  # open chains
    for v in [*heads, *range(known)]:
        x, steps = v, 0
        while x < known and not seen[x]:
            seen[x] = True
            x, steps = img[x], steps + 1
        if steps and (steps >= target if x >= known else steps != target):
            return False
    return True


def _walk(trans: list[dict], target: Optional[int] = None):
    """The elements of the group with stabiliser chain trans, as image
    tuples, in increasing order; with a target, only those whose cycles all
    have length target. Below a prefix, the images of the points before the
    next moved base point are final, and with a target the prefix is
    dropped once `_cycles_fit` rules it out on them.

    A child pi·u_x is composed only when it is needed. At the first level pi
    is the identity and the child is u_x itself. At the last level, with a
    target, the child's cycle through 0 is followed as pi(u_x(.)) first,
    and only a child whose cycle through 0 has length target is composed."""
    n = len(trans)
    levels = [p for p in range(n) if len(trans[p]) > 1]
    last = len(levels) - 1

    def descend(depth, pi):
        known = levels[depth] if depth <= last else n
        if target is not None and not _cycles_fit(pi, known, target):
            return
        if depth > last:
            yield pi
            return
        u_of = trans[levels[depth]]
        for x in sorted(u_of, key=pi.__getitem__):
            u = u_of[x]
            if depth:
                if depth == last and target is not None:
                    y, steps = pi[u[0]], 1
                    while y and steps < target:
                        y, steps = pi[u[y]], steps + 1
                    if (y == 0) != (steps == target):
                        continue
                u = tuple([pi[v] for v in u])
            yield from descend(depth + 1, u)

    return descend(0, tuple(range(n)))


def group_order(g: SimpleGraph) -> int:
    """|Aut(g)|, as the IR search found it: no chain is built."""
    return _searched(g).order


def group_elements(g: SimpleGraph, cap: int = DEFAULT_CAP) -> list[tuple[int, ...]]:
    """All elements of Aut(g), sorted by image tuple. Raises
    EnumerationCapExceeded, before any is built, if there are more than cap."""
    _check_cap(g, cap)
    return list(_walk(_chain(g)))


def vertex_orbits(g: SimpleGraph) -> list[list[int]]:
    """The vertex orbits, each sorted, ordered by least vertex."""
    return _orbits(g.n, _searched(g).gens)


def _arc_pass(g: SimpleGraph) -> _Entry:
    """The search entry of g, with its one pass over the arcs, numbered row
    by row and mapped through a table of positions keyed a*n + b. Reversal
    pairs the arc orbits, so the edge {a, b} is keyed by the lesser orbit of
    (a, b) and (b, a): orbits go by least arc, so the keys go by least edge."""
    entry = _searched(g)
    if entry.edge_orbits is None:
        n, adj = g.n, g.adjacency()
        arcs = [(a, b) for a, row in enumerate(adj) for b in row]
        at = {a * n + b: i for i, (a, b) in enumerate(arcs)}
        orbits = _orbits(len(arcs), ([at[p[a] * n + p[b]] for a, b in arcs]
                                     for p in entry.gens))
        orbit_of = {x: i for i, orbit in enumerate(orbits) for x in orbit}
        keys = [min(i, orbit_of[at[b * n + a]])
                for i, (a, b) in enumerate(arcs[orbit[0]] for orbit in orbits)]
        number = {key: j for j, key in enumerate(sorted(set(keys)))}
        ids = [number[keys[orbit_of[x]]] for x in range(len(arcs))]
        edges: list = [[] for _ in number]
        for (a, b), i in zip(arcs, ids):
            if a < b:
                edges[i].append((a, b))
        rest = iter(ids)
        entry.edge_ids = tuple(tuple(islice(rest, len(row))) for row in adj)
        entry.edge_orbits = tuple(map(tuple, edges))
        entry.arc_orbit_count = len(orbits)
    return entry


def edge_orbits(g: SimpleGraph) -> list[list[tuple]]:
    """The edge orbits as sorted (a, b) pairs, each orbit sorted, ordered by
    least edge. Computed once per cached search entry (`_arc_pass`); each
    call returns new lists."""
    return [list(orb) for orb in _arc_pass(g).edge_orbits]


def arc_orbit_count(g: SimpleGraph) -> int:
    """The number of orbits of the arcs (a, b) under Aut acting on both ends."""
    return _arc_pass(g).arc_orbit_count


def is_vertex_transitive(g: SimpleGraph) -> bool:
    """At most one vertex orbit."""
    return len(vertex_orbits(g)) <= 1


def find_k_circulant(
    g: SimpleGraph, m: int, cap: int = DEFAULT_CAP
) -> Optional[tuple[int, ...]]:
    """The least (by image tuple) semiregular automorphism with exactly m
    vertex orbits of equal size, i.e. of order |V|/m with all cycles that
    long; None if none. Raises EnumerationCapExceeded if |Aut| > cap.

    Such an element maps each Aut-orbit O onto itself, and its restriction
    to O is an element of the group Aut induces on O with every cycle of the
    same length t = |V|/m. So t must divide every |O|, and when there are
    several orbits, each induced group must hold such an element; it is
    walked first, one orbit at a time, the orbit with the fewest distinct
    restricted generators first. Only then is the chain of Aut(g) built and
    walked for the least element, so a None can come without either. The cap
    is checked against the search's |Aut| first."""
    if g.n == 0:
        raise ValueError("empty graph")
    if m < 1 or g.n % m:
        raise ValueError("orbit count must divide the vertex count")
    target = g.n // m
    if target == 1:
        return tuple(range(g.n))
    _check_cap(g, cap)
    gens = _searched(g).gens
    orbits = _orbits(g.n, gens)
    if any(len(orbit) % target for orbit in orbits):
        return None
    if len(orbits) > 1:
        induced = []
        for orbit in orbits:
            index = {v: i for i, v in enumerate(orbit)}
            own = {tuple([index[s[v]] for v in orbit]) for s in gens}
            own.discard(tuple(range(len(orbit))))
            induced.append((len(own), len(orbit), sorted(own)))
        for _, size, own in sorted(induced):
            if next(_walk(_stabiliser_chain(size, own, range(size)), target), None) is None:
                return None
    return next(_walk(_chain(g), target), None)


# -- girth, cycles and signatures --------------------------------------------

def girth(g: SimpleGraph, roots: Optional[Iterable[int]] = None) -> Optional[int]:
    """Length of a shortest cycle; None for forests. A BFS from each root
    (every vertex by default) finds the shortest cycle through it, and
    bounds the girth from above. An automorphism carries a shortest cycle
    through v onto one through any vertex of v's orbit, so one root per
    vertex orbit gives the same minimum."""
    best: Optional[int] = None
    for root in range(g.n) if roots is None else roots:
        dist = {root: 0}
        parent = {root: -1}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            if best is not None and dist[x] * 2 >= best:
                continue
            for y in g.neighbors(x):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    parent[y] = x
                    queue.append(y)
                elif parent[x] != y:
                    cand = dist[x] + dist[y] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def cycles_of_length(g: SimpleGraph, c: int) -> list[tuple[int, ...]]:
    """All cycles of exactly c vertices, each listed once: anchored at the
    cycle's minimum vertex and traversed toward its smaller neighbor."""
    if c < 3:
        raise ValueError("cycle length must be at least 3")
    out: list[tuple[int, ...]] = []
    path: list[int] = []
    on_path = [False] * g.n

    def extend(anchor: int, v: int):
        for w in g.neighbors(v):
            if w == anchor and len(path) == c:
                # Count each cycle once per direction pair.
                if path[1] < path[-1]:
                    out.append(tuple(path))
                continue
            if w <= anchor or on_path[w]:
                continue
            if len(path) < c:
                path.append(w)
                on_path[w] = True
                extend(anchor, w)
                path.pop()
                on_path[w] = False

    for anchor in range(g.n):
        path = [anchor]
        on_path[anchor] = True
        extend(anchor, anchor)
        on_path[anchor] = False
    return out


def _orbit_cycle_counts(g: SimpleGraph, c: int, budget: float = inf):
    """(the c-cycles through the least edge (a, b) of each edge orbit, in
    `edge_orbits` order, the entry of `_arc_pass`): the simple paths of c
    vertices from b back to a. Raises EnumerationCapExceeded once the paths'
    steps, the neighbours looked at, exceed `budget`, which each count hands
    on to the next."""
    if c < 3:
        raise ValueError("cycle length must be at least 3")
    adj, counts, entry = g.adjacency(), [], _arc_pass(g)
    for orbit in entry.edge_orbits:
        count, budget = _paths_back(adj, *orbit[0], c, budget)
        counts.append(count)
    return counts, entry


def cycle_counts(g: SimpleGraph, c: int, budget: float = inf):
    """(per-vertex counts, per-edge counts, total) for cycles of length c,
    read off `_orbit_cycle_counts` under its `budget`. A cycle uses two
    edges at each of its vertices and c edges in all."""
    counts, entry = _orbit_cycle_counts(g, c, budget)
    per_edge = {(a, b): counts[i] for a, row in enumerate(g.adjacency())
                for b, i in zip(row, entry.edge_ids[a]) if a < b}
    per_vertex = [sum(counts[i] for i in ids) // 2 for ids in entry.edge_ids]
    return per_vertex, per_edge, sum(per_edge.values()) // c


def _paths_back(adj, a: int, b: int, c: int, budget: float = inf):
    """(the number of simple paths of c >= 3 vertices from b to a, the
    budget left). Each neighbour looked at is one step; raises
    EnumerationCapExceeded when the steps exceed `budget`."""
    on_path = [False] * len(adj)
    on_path[a] = on_path[b] = True
    near_a = [False] * len(adj)
    for w in adj[a]:
        near_a[w] = True
    steps = 0

    def extend(v: int, left: int) -> int:  # left: edges still to take
        nonlocal steps
        steps += len(adj[v])
        if steps > budget:
            raise EnumerationCapExceeded("the cycle count is past its step budget")
        total = 0
        if left == 2:  # the last vertex: a neighbour of a off the path
            for w in adj[v]:
                if near_a[w] and not on_path[w]:
                    total += 1
            return total
        for w in adj[v]:
            if not on_path[w]:
                on_path[w] = True
                total += extend(w, left - 1)
                on_path[w] = False
        return total

    count = extend(b, c - 1)
    return count, budget - steps


def cycle_signatures(g: SimpleGraph, c: int, roots: Optional[Iterable[int]] = None,
                     budget: float = inf) -> tuple[list[tuple[int, ...]], int]:
    """(the c-signature at each root, the number of c-cycles), read off
    `_orbit_cycle_counts`. A vertex's signature is the sorted counts of its
    edges, and its count is half their sum; the total is the sum of
    count * |orbit| over the edge orbits, over c. All three are constant on
    an orbit, so the default roots, one per vertex orbit, give every signature."""
    roots = [orbit[0] for orbit in vertex_orbits(g)] if roots is None else roots
    counts, entry = _orbit_cycle_counts(g, c, budget)
    total = sum(count * len(orbit) for count, orbit in zip(counts, entry.edge_orbits)) // c
    return [tuple(sorted([counts[i] for i in entry.edge_ids[v]])) for v in roots], total


def c_signature(g: SimpleGraph, v: int, c: int) -> tuple[int, ...]:
    """Sorted counts of c-cycles through the edges at v."""
    return cycle_signatures(g, c, [v])[0][0]


def is_c_cycle_regular(g: SimpleGraph, c: int) -> bool:
    return len(set(cycle_signatures(g, c)[0])) <= 1


def is_c_vertex_regular(g: SimpleGraph, c: int) -> bool:
    return len(set(map(sum, cycle_signatures(g, c)[0]))) <= 1  # twice the counts


def uniform_local_profile(g: SimpleGraph) -> bool:
    """True when all vertices share the degree/distance key `_bfs_key`:
    the sizes of their balls of radius 1..4.

    Necessary for vertex-transitivity and much cheaper than the orbit
    computation. On a cover the sweep's screen needs the key only at the
    three fibre roots (`verify._passes_vt_screen`)."""
    return len(set(_initial_colors(g.adjacency()))) <= 1
