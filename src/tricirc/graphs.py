"""Simple undirected graphs with optional edge-type tags."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class SimpleGraph:
    """Immutable simple graph on vertices 0..n-1.

    Loops and parallel edges are rejected at construction. Edges may carry
    type tags such as "K", "0", "R", "S".

    `known_automorphisms`, image tuples the IR search starts from, is set
    only by the family constructors, on their own numbering, so `relabel`,
    `decode_graph6` and `derived_cover` give (). == and hash ignore it.
    """

    __slots__ = ("n", "_adj", "edge_tags", "known_automorphisms")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        edge_tags: Optional[dict[tuple[int, int], str]] = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"edge ({a},{b}) out of range for n={n}")
            if a == b:
                raise ValueError(f"loop at vertex {a}")
            if b in adj[a]:
                raise ValueError(f"parallel edge ({a},{b})")
            adj[a].add(b)
            adj[b].add(a)
        self.n = n
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(s)) for s in adj
        )
        tags: dict[tuple[int, int], str] = {}
        if edge_tags:
            for (a, b), tag in edge_tags.items():
                key = (a, b) if a < b else (b, a)
                if not 0 <= key[0] < n or key[1] not in self._adj[key[0]]:
                    raise ValueError(f"tag on non-edge {key}")
                if tags.setdefault(key, tag) != tag:
                    raise ValueError(f"conflicting tags on edge {key}")
        self.edge_tags = tags
        self.known_automorphisms: tuple = ()

    @classmethod
    def _from_rows(cls, rows: Sequence[Sequence[int]],
                   edge_tags: Optional[dict] = None) -> "SimpleGraph":
        """The graph whose neighbourhoods are rows, taken as they are: each
        row sorted, loop-free and without repeats, v in rows[u] exactly when
        u in rows[v], and each tag key (a, b) an edge with a < b.
        `decode_graph6`, `voltage.derived_cover` and `relabel` build through
        it, as their rows are so by construction; edges from outside go
        through the checking constructor."""
        g = cls.__new__(cls)
        g.n, g._adj = len(rows), tuple(map(tuple, rows))
        g.edge_tags = edge_tags if edge_tags is not None else {}
        g.known_automorphisms = ()
        return g

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def has_edge(self, a: int, b: int) -> bool:
        return b in self._adj[a]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (a, b) pairs with a < b, in sorted order."""
        return [(a, b) for a in range(self.n) for b in self._adj[a] if a < b]

    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def edge_tag(self, a: int, b: int) -> Optional[str]:
        return self.edge_tags.get((a, b) if a < b else (b, a))

    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def __eq__(self, other) -> bool:
        if not isinstance(other, SimpleGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, m={self.edge_count()})"

    def _bfs(self) -> tuple[list[list[int]], bool]:
        """One BFS: the connected components, each sorted, ordered by
        smallest vertex, and whether the graph has a proper 2-colouring."""
        color = [-1] * self.n
        out: list[list[int]] = []
        bipartite = True
        for start in range(self.n):
            if color[start] != -1:
                continue
            color[start] = 0
            comp = [start]
            for x in comp:  # the list is the queue: it grows as it is read
                for y in self._adj[x]:
                    if color[y] == -1:
                        color[y] = color[x] ^ 1
                        comp.append(y)
                    elif color[y] == color[x]:
                        bipartite = False
            out.append(sorted(comp))
        return out, bipartite

    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest vertex."""
        return self._bfs()[0]

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def is_bipartite(self) -> bool:
        return self._bfs()[1]

    def relabel(self, perm: Sequence[int]) -> "SimpleGraph":
        """Image graph under vertex map v -> perm[v]. Tags follow.

        Once perm is a bijection, the image's rows and tag keys are
        this graph's mapped through it, and need no other check."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a bijection on vertices")
        inv = sorted(range(self.n), key=perm.__getitem__)  # inv[perm[v]] = v
        rows = [sorted([perm[u] for u in self._adj[v]]) for v in inv]
        tags = {tuple(sorted((perm[a], perm[b]))): t
                for (a, b), t in self.edge_tags.items()}
        return SimpleGraph._from_rows(rows, tags)
