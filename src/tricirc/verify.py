"""Verification harness: voltage walk tables, necessary-condition checks,
the classification sweep, the small-order census, and targeted structure
checks. Everything recomputes from scratch so results are independent
evidence, not restatements.

The sweep and the census share one funnel, `_funnel`, over the covers at
the parameter representatives that `families` derives from the declared
symmetries. At one k it reads off each voltage assignment whether its cover
is simple and connected, whether it passes the degree/BFS-layer screen at
the three fibre roots u_0, v_0 and w_0, and, by rooted extension on the
lifted adjacency, whether it is vertex-transitive. It names each VT cover by
extension onto the family graphs X(k), Y(k), prism(3k) and moebius(3k), and
builds and searches for a canonical form only a VT cover that matches none.
"""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from math import gcd
from typing import Iterable, Optional, Sequence

from .families import (
    FamilyParams,
    fibre_indexers,
    fibre_map,
    moebius,
    parameter_representatives,
    prism,
    t1,
    t4,
    x_graph,
    y_graph,
)
from .graphs import SimpleGraph
from .pregraph import delta
from .pregraph import reduced_closed_walks  # noqa: F401 -- perfbench/tracer.py wraps verify.reduced_closed_walks
from .symmetry import (
    _bfs_key,
    _rooted_isomorphism,
    arc_orbit_count,
    canonical_form,
    cycle_counts,
    girth,
    group_order,
    is_vertex_transitive,  # noqa: F401 -- perfbench/tracer.py wraps verify.is_vertex_transitive
    uniform_local_profile,  # noqa: F401 -- perfbench/tracer.py wraps verify.uniform_local_profile
    vertex_orbits,  # noqa: F401 -- perfbench/tracer.py wraps verify.vertex_orbits
)
from .voltage import (
    SymbolicVoltage,
    VoltageAssignment,
    cover_connected,
    cover_is_simple,
    lifted_adjacency,
    symbolic_dart_voltage,
)


# -- walk tables ---------------------------------------------------------------

@dataclass(frozen=True)
class WalkTable:
    """Tally of symbolic net voltages over reduced closed walks at one root.

    Keys are sign-normalized voltage classes: a voltage and its negation
    share a row."""

    delta_index: int
    length: int
    start: str
    counts: dict

    def count(self, voltage: SymbolicVoltage) -> int:
        return self.counts.get(voltage.canonical(), 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def rows(self) -> list[tuple[SymbolicVoltage, int]]:
        return sorted(self.counts.items())


def walk_table(delta_index: int, length: int, start) -> WalkTable:
    """Voltage tally of all reduced closed walks of `length` at `start`, as
    `pregraph.reduced_closed_walks` lists them.

    `start` is a vertex name ("u", "v", "w") or id of the base pregraph.
    The walks are counted, not listed: per first dart, one layer per step
    maps (last dart, net voltage) to the number of walks that reach it."""
    base = delta(delta_index)
    if isinstance(start, str):
        if start not in base.vertex_names:
            raise ValueError(f"unknown vertex name {start!r}")
        root = base.vertex_names.index(start)
    else:
        root = start
    if not 0 <= root < base.n_vertices:
        raise ValueError(f"unknown vertex {root}")
    if length < 1:
        raise ValueError("length must be positive")
    inv = base.inv
    step = {}  # dart -> (voltage as (eps, a, b), darts that may follow it)
    for d in range(base.n_darts):
        sv = symbolic_dart_voltage(base, d)
        step[d] = ((sv.eps, sv.a, sv.b),
                   [e for e in base.darts_at(base.end(d)) if e != inv[d]])
    tally: Counter = Counter()
    for first in base.darts_at(root):
        layer = Counter({(first, *step[first][0]): 1})
        for _ in range(length - 1):
            nxt: Counter = Counter()
            for (d, eps, a, b), count in layer.items():
                for e in step[d][1]:
                    de, da, db = step[e][0]
                    nxt[e, (eps + de) % 2, a + da, b + db] += count
            layer = nxt
        for (d, eps, a, b), count in layer.items():
            if base.end(d) == root and inv[d] != first:
                tally[SymbolicVoltage(eps, a, b).canonical()] += count
    return WalkTable(
        delta_index, length, base.vertex_names[root], dict(tally)
    )


# -- necessary conditions for the t1 family ------------------------------------

# congruence -> (its left side, the 8-cycles through each edge type when it
# is the one that holds)
_T1_CONGRUENCES = {
    "3s-2r+k": (SymbolicVoltage(1, -2, 3), {"0": 5, "R": 5, "S": 6, "K": 6}),
    "3r-2s+k": (SymbolicVoltage(1, 3, -2), {"0": 5, "R": 6, "S": 5, "K": 6}),
    "3r-s": (SymbolicVoltage(0, 3, -1), {"0": 6, "R": 6, "S": 4, "K": 4}),
    "3s-r": (SymbolicVoltage(0, -1, 3), {"0": 6, "R": 4, "S": 6, "K": 4}),
    "4r-4s": (SymbolicVoltage(0, 4, -4), {"0": 4, "R": 4, "S": 4, "K": 4}),
}


def _signature_of(edge_counts: dict) -> tuple[int, int, int]:
    # Every vertex of a t1 instance sees either (K,0,0) or (0,R,S).
    sig_u = tuple(sorted((edge_counts["K"], edge_counts["0"], edge_counts["0"])))
    sig_v = tuple(sorted((edge_counts["0"], edge_counts["R"], edge_counts["S"])))
    if sig_u != sig_v:
        raise AssertionError("table rows should give one shared signature")
    return sig_u


@dataclass(frozen=True)
class T1Conditions:
    k: int
    r: int
    s: int
    congruences: dict
    holding: tuple
    necessary_as_given: dict
    necessary_swapped: dict
    predicted_signature: Optional[tuple]
    predicted_edge_counts: Optional[dict]


def check_t1_conditions(k: int, r: int, s: int) -> T1Conditions:
    """Evaluate the five 8-cycle congruences mod 2k, the parity/gcd
    conditions necessary for vertex-transitivity (in both r,s orientations),
    and the predicted 8-cycle signature for whichever congruence holds."""
    n = 2 * k
    r %= n
    s %= n
    congruences = {
        name: side.evaluate(k, r, s) == 0
        for name, (side, _) in _T1_CONGRUENCES.items()
    }
    holding = tuple(name for name in _T1_CONGRUENCES if congruences[name])

    def necessary(rr: int, ss: int) -> dict:
        return {
            "congruence": _T1_CONGRUENCES["3s-2r+k"][0].evaluate(k, rr, ss) == 0,
            "k_odd": k % 2 == 1,
            "s_odd": ss % 2 == 1,
            "gcd_ks": gcd(k, ss) == 1,
            "r_even": rr % 2 == 0,
            "gcd_kr": gcd(k, rr) in (1, 3),
        }

    predicted_sig = None
    predicted_counts = None
    if len(holding) == 1:
        predicted_counts = dict(_T1_CONGRUENCES[holding[0]][1])
        predicted_sig = _signature_of(predicted_counts)

    return T1Conditions(
        k, r, s, congruences, holding,
        necessary(r, s), necessary(s, r),
        predicted_sig, predicted_counts,
    )


# -- the funnel ------------------------------------------------------------------

_MAX_ORDER = 300  # the sweep guard: the largest cover order 6k built


def check_max_order(order: int) -> None:
    """ValueError unless order is a multiple of 6 from 6 up to the sweep
    guard."""
    if order < 6:
        raise ValueError("max order must be at least 6")
    if order % 6:
        raise ValueError("max order must be a multiple of 6")
    if order > _MAX_ORDER:
        raise ValueError(f"sweep guard: order {order} is above {_MAX_ORDER}")


def _passes_vt_screen(va: VoltageAssignment) -> bool:
    """Necessary condition for vertex-transitivity of the derived cover of
    va, which must be simple: the fibre roots x_0 share the degree/BFS-layer
    key of `uniform_local_profile`, computed on `lifted_adjacency(va)`, so
    no graph is built.

    The deck transformation i -> i+1 is an automorphism of the cover whose
    orbits are the fibres, so every vertex invariant is constant on a fibre,
    and this equals `uniform_local_profile` of the built cover with the key
    computed at u_0, v_0 and w_0, not at every vertex."""
    adj = lifted_adjacency(va)
    return len({
        _bfs_key(adj, x * va.n) for x in range(va.base.n_vertices)
    }) == 1


_STAGES = ("grid", "constructed", "connected", "vt_instances")


def _family_graphs(k: int) -> dict[str, SimpleGraph]:
    """family name -> graph, for the graphs the classification says must
    appear at order 6k. X(k) and Y(k) need k >= 3."""
    graphs = {}
    if k % 2 == 1:
        if k >= 3:
            graphs[f"X({k})"] = x_graph(k)
            graphs[f"Y({k})"] = y_graph(k)
        graphs[f"prism({3 * k})"] = prism(3 * k)
    graphs[f"moebius({3 * k})"] = moebius(3 * k)
    return graphs


def _is_vt_cover(adj: tuple[tuple[int, ...], ...], n: int) -> bool:
    """Whether the connected cover with adjacency adj (`lifted_adjacency`,
    fibres of n vertices) is vertex-transitive. The fibres are the orbits of
    the deck transformation, so it is exactly when automorphisms send u_0 to
    v_0 and to w_0."""
    return all(
        _rooted_isomorphism(adj, 0, adj, x * n)[0] is not None
        for x in range(1, len(adj) // n)
    )


def _funnel(k: int) -> tuple[dict, dict]:
    """Voltages -> simple -> connected -> screen -> VT -> name -> dedup at
    order 6k, over the parameter representatives of all four types.

    Every stage up to VT reads the voltage assignment (`cover_is_simple`,
    `cover_connected`, `_passes_vt_screen`, `_is_vt_cover`). A VT cover is
    named by extension from its vertex 0 onto vertex 0 of each graph of
    `_family_graphs`: it is VT, so if any isomorphism exists one sends 0 to
    0. Its class is the canonical form of the graph matched; only a cover
    that matches none is built and searched. Returns the per-type count of
    each stage in `_STAGES` ("constructed" counts the simple covers), and
    the VT classes by canonical form (ascii), each with its types, up to
    three example parameter tuples and a graph of the class."""
    counts = {stage: dict.fromkeys((1, 2, 3, 4), 0) for stage in _STAGES}
    classes: dict[str, dict] = {}
    family = list(_family_graphs(k).values())
    for t in (1, 2, 3, 4):
        reps = parameter_representatives(t, k)
        counts["grid"][t] = len(reps)
        for r, s in reps:
            params = FamilyParams(t, k, r, s)
            va = params.voltages()
            if not cover_is_simple(va):
                continue
            counts["constructed"][t] += 1
            if not cover_connected(va):
                continue
            counts["connected"][t] += 1
            if not _passes_vt_screen(va):
                continue
            adj = lifted_adjacency(va)
            if not _is_vt_cover(adj, va.n):
                continue
            counts["vt_instances"][t] += 1
            g = next((f for f in family if _rooted_isomorphism(
                adj, 0, f.adjacency(), 0)[0] is not None), None) or params.build()
            slot = classes.setdefault(
                canonical_form(g).decode("ascii"),
                {"types": set(), "params": [], "graph": g},
            )
            slot["types"].add(t)
            if len(slot["params"]) < 3:
                slot["params"].append((t, k, r, s))
    return counts, classes


# -- small-order census ---------------------------------------------------------

_NAMED_AT = {
    # (order, girth) of the arc-transitive members small enough to meet here
    (6, 4): "K_{3,3}",
    (18, 6): "Pappus graph",
    (30, 8): "Tutte 8-cage",
    (54, 6): "F054A",
}


@dataclass(frozen=True)
class CensusEntry:
    order: int
    canonical: str
    types: tuple
    girth: int
    aut_order: int
    arc_transitive: bool
    name: Optional[str]


@dataclass(frozen=True)
class CensusTable:
    max_order: int
    entries: tuple

    @property
    def total(self) -> int:
        return len(self.entries)

    @property
    def per_order(self) -> dict:
        counts: Counter = Counter(e.order for e in self.entries)
        return dict(sorted(counts.items()))

    @property
    def arc_transitive_orders(self) -> list[int]:
        return sorted(e.order for e in self.entries if e.arc_transitive)

    def entry_named(self, name: str) -> Optional[CensusEntry]:
        for e in self.entries:
            if e.name == name:
                return e
        return None

    def to_json_dict(self) -> dict:
        return {
            "kind": "census",
            "max_order": self.max_order,
            "total": self.total,
            # str keys sort as strings ("12" < "48" < "6"), and the output
            # is pinned in that order.
            "per_order": {str(o): c for o, c in self.per_order.items()},
            "entries": [asdict(e) for e in self.entries],
        }


def small_census(max_order: int = 48) -> CensusTable:
    """All vertex-transitive graphs the four constructors produce at order
    <= max_order: the funnel for k = 1..max_order/6, with the type sets of
    coinciding instances merged, plus |Aut|, arc-transitivity, girth and
    name."""
    check_max_order(max_order)
    entries = []
    for k in range(1, max_order // 6 + 1):
        for canon, slot in _funnel(k)[1].items():
            g = slot["graph"]
            at = arc_orbit_count(g) <= 1
            gi = girth(g)
            entries.append(CensusEntry(
                order=g.n,
                canonical=canon,
                types=tuple(sorted(slot["types"])),
                girth=gi,
                aut_order=group_order(g),
                arc_transitive=at,
                name=_NAMED_AT.get((g.n, gi)) if at else None,
            ))
    entries.sort(key=lambda e: (e.order, e.canonical))
    return CensusTable(max_order, tuple(entries))


# -- classification sweep --------------------------------------------------------

@dataclass(frozen=True)
class VTClass:
    order: int
    canonical: str
    types: tuple
    name: Optional[str]
    example_params: tuple


@dataclass(frozen=True)
class SweepReport:
    k: int
    order: int
    grid: dict
    constructed: dict
    connected: dict
    vt_instances: dict
    classes: tuple
    anomalies: tuple

    def to_json_dict(self) -> dict:
        """The fields as JSON: the count dicts' int keys print as strings
        "1".."4", in the same order under `report_emit`'s sort_keys."""
        return {"kind": "sweep", **asdict(self)}


def sweep_one_k(k: int) -> SweepReport:
    """Exhaust one order 6k: run the funnel over the parameter orbits of
    all four types, and compare the surviving isomorphism classes against
    the expected list."""
    counts, seen = _funnel(k)
    expected = {canonical_form(g).decode("ascii"): name
                for name, g in _family_graphs(k).items()}
    classes = []
    anomalies = []
    for canon, slot in sorted(seen.items(), key=lambda kv: kv[0]):
        name = expected.get(canon)
        classes.append(VTClass(
            order=6 * k,
            canonical=canon,
            types=tuple(sorted(slot["types"])),
            name=name,
            example_params=tuple(slot["params"]),
        ))
        if name is None:
            anomalies.append(
                f"unexpected vertex-transitive class {canon} "
                f"from params {slot['params']}"
            )
        if 4 in slot["types"]:
            anomalies.append(
                f"type-4 instance is vertex-transitive: {slot['params']}"
            )

    observed = {c.canonical for c in classes}
    for canon, name in sorted(expected.items(), key=lambda kv: kv[1]):
        if canon not in observed:
            # prism(3k) can only arise for odd k; its absence otherwise
            # is part of the expected picture.
            if name.startswith("prism") and k % 2 == 0:
                continue
            anomalies.append(f"expected class {name} not found")

    return SweepReport(
        k=k,
        order=6 * k,
        classes=tuple(classes),
        anomalies=tuple(anomalies),
        **counts,
    )


def classification_sweep(
    k_min: int = 9, k_max: int = 15, workers: int = 1
) -> list[SweepReport]:
    """Run sweep_one_k over k_min..k_max, on `workers` processes."""
    if k_min < 1 or k_max < k_min:
        raise ValueError("need 1 <= k_min <= k_max")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    check_max_order(6 * k_max)
    ks = list(range(k_min, k_max + 1))
    if workers == 1 or len(ks) == 1:
        return [sweep_one_k(k) for k in ks]
    with ProcessPoolExecutor(max_workers=min(workers, len(ks))) as pool:
        return list(pool.map(sweep_one_k, ks))


# -- targeted structure checks ----------------------------------------------------

def lemma_spot_checks(ks: Iterable[int] = (9,)) -> dict:
    """Constructive checks of the degenerate-parameter and 7-cycle facts
    feeding the classification, plus the t4 inversion symmetry."""
    from .symmetry import is_c_cycle_regular, is_c_vertex_regular

    ks = sorted(set(ks))
    report: dict = {"kind": "lemma_spot_checks", "checks": {}}

    # r = k collapses 4-cycle regularity (checked through vertex counts).
    results = []
    for k in ks:
        g = t1(k, k, 2)
        per_vertex, _, _ = cycle_counts(g, 4)
        u0, v0 = per_vertex[0], per_vertex[2 * k]
        results.append({
            "k": k, "u0_4cycles": u0, "v0_4cycles": v0,
            "vertex_regular": is_c_vertex_regular(g, 4),
        })
    report["checks"]["r_equals_k"] = {
        "instances": results,
        "passed": all(
            not row["vertex_regular"] and row["u0_4cycles"] != row["v0_4cycles"]
            for row in results
        ),
    }

    # r = 0 breaks 8-cycle regularity.
    results = []
    for k in ks:
        g = t1(k, 0, 1)
        results.append({
            "k": k, "cycle_regular_8": is_c_cycle_regular(g, 8),
        })
    report["checks"]["r_equals_zero"] = {
        "instances": results,
        "passed": all(not row["cycle_regular_8"] for row in results),
    }

    # The y family is triangle-free.
    results = []
    for k in ks:
        if k % 2 == 0:
            continue
        _, _, total = cycle_counts(y_graph(k), 3)
        results.append({"k": k, "triangles": total})
    report["checks"]["y_triangle_free"] = {
        "instances": results,
        "passed": all(row["triangles"] == 0 for row in results),
    }

    # Index negation is an automorphism of every simple t4 instance and
    # fixes both u_0 and u_k, the endpoints of the middle edge it stabilizes.
    results = []
    for k in ks:
        g = t4(k, 1, 2)
        perm = fibre_map(k, -1)
        results.append({
            "k": k,
            "is_automorphism": perm.is_automorphism(g),
            "fixes_u0": perm(0) == 0,
            "fixes_uk": perm(k) == k,
        })
    report["checks"]["t4_inversion"] = {
        "instances": results,
        "passed": all(
            row["is_automorphism"] and row["fixes_u0"] and row["fixes_uk"]
            for row in results
        ),
    }

    # Balanced 7-cycle congruence: 2r-2s+k = 0 (mod 2k) forces a 7-cycle
    # through the standard walk lift and breaks 7-vertex-regularity.
    results = []
    for k, r, s in ((10, 6, 1), (12, 7, 1)):
        g = t1(k, r, s)
        n, u, v, w = fibre_indexers(k)
        cyc = [u(0), v(0), w(r), v(r - s), w(2 * r - s), v(2 * r - 2 * s),
               u(2 * r - 2 * s)]
        distinct = len(set(cyc)) == 7
        closed = all(
            g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])
        )
        results.append({
            "k": k, "r": r, "s": s,
            "congruence": (2 * r - 2 * s + k) % n == 0,
            "seven_cycle_found": distinct and closed,
            "vertex_regular_7": is_c_vertex_regular(g, 7),
        })
    report["checks"]["balanced_seven_cycles"] = {
        "instances": results,
        "passed": all(
            row["congruence"] and row["seven_cycle_found"]
            and not row["vertex_regular_7"]
            for row in results
        ),
    }

    report["all_passed"] = all(
        block["passed"] for block in report["checks"].values()
    )
    return report


# -- reporting ---------------------------------------------------------------------

def report_emit(reports: Sequence) -> str:
    """Schema-versioned JSON for sweep/census/check reports; deterministic
    field and report ordering."""
    docs = []
    for rep in reports:
        if hasattr(rep, "to_json_dict"):
            docs.append(rep.to_json_dict())
        elif isinstance(rep, dict):
            docs.append(rep)
        else:
            raise TypeError(f"cannot serialize report of type {type(rep)!r}")
    docs.sort(key=lambda d: (d.get("kind", ""),
                             d.get("order", d.get("max_order", 0)),
                             json.dumps(d, sort_keys=True)))
    return json.dumps({"schema": 1, "reports": docs},
                      sort_keys=True, indent=2)


def total_anomalies(reports: Sequence[SweepReport]) -> list[str]:
    out = []
    for rep in reports:
        out.extend(rep.anomalies)
    return out
