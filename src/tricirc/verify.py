"""Verification harness: voltage walk tables, necessary-condition checks,
the classification sweep, the small-order census, and targeted structure
checks. Everything recomputes from scratch so results are independent
evidence, not restatements.

The sweep and the census share one funnel, `_funnel`, over the covers at
the parameter representatives that `families` derives from the declared
symmetries. Each stage is an isomorphism invariant, so it is decided once
per unit orbit (the covers joined by scaling the voltages by units of
Z_2k) and counted per fine representative, the reported unit. At one k
it reads off each voltage assignment whether its cover is simple and
connected, whether it passes the degree/distance screen at the three
fibre roots u_0, v_0 and w_0, and, by rooted extension on the lifted
adjacency, whether it is vertex-transitive. It names each VT cover by
extension onto the family graphs X(k), Y(k), prism(3k) and moebius(3k)
and records the name at the match, the only place a class is named; it
builds and searches for a canonical form only a VT cover that matches
none. Its verdict on a unit orbit is one record, `Verdict`.
"""

from __future__ import annotations

import json
from collections import Counter
from math import gcd
from typing import NamedTuple, Optional, Sequence

from .families import (
    FamilyParams,
    fibre_indexers,
    fibre_map,
    moebius,
    parameter_orbits,
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
    is_automorphism,
    is_c_cycle_regular,
    is_c_vertex_regular,
    is_vertex_transitive,  # noqa: F401 -- perfbench/tracer.py wraps verify.is_vertex_transitive
    uniform_local_profile,  # noqa: F401 -- perfbench/tracer.py wraps verify.uniform_local_profile
    vertex_orbits,
)
from .voltage import (
    _DART_SYMBOLS,
    SymbolicVoltage,
    cover_connected,
    cover_is_simple,
    lifted_adjacency,
)


# -- walk tables ---------------------------------------------------------------

class WalkTable(NamedTuple):
    """Tally of symbolic net voltages over reduced closed walks at one root.

    Keys are sign-normalized voltage classes: a voltage and its negation
    share a row. `count` reads one row, in place of `tuple.count`."""

    delta_index: int
    length: int
    start: str
    counts: dict

    def count(self, voltage: SymbolicVoltage) -> int:
        return self.counts.get(voltage.canonical(), 0)

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def walk_table(delta_index: int, length: int, start) -> WalkTable:
    """Voltage tally of all reduced closed walks of `length` at `start`, as
    `pregraph.reduced_closed_walks` lists them.

    `start` is a vertex name ("u", "v", "w") or id of the base pregraph.
    The walks are counted, not listed, as packed generating functions: per
    first dart, each state (last dart d, eps) is one int, a slot of L + 1
    bits per (a, b) that counts the walks reaching d with net voltage
    (eps, a, b). A step to dart e adds the ints of the two darts that may
    precede it, swaps the eps pair if e carries k, and shifts the sum left
    by e's (a + m, b + m) in whole slots, m being the largest |a|, |b| of a
    dart. Every walk of j steps carries the same offset (j*m, j*m), so a
    closed walk lands in slot (a + A)*(2A + 1) + (b + A) with A = L*m, and
    no shift crosses a row. A count is below 3*2^(L-1) < 2^(L+1), so no
    slot overflows. The decode reads the slots by arithmetic, not through
    bytes, so it does not depend on the host's byte order."""
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
    inv, symbols, darts = base.inv, _DART_SYMBOLS[delta_index], range(base.n_darts)
    most = max(abs(c) for _, a, b in symbols for c in (a, b))
    reach, bits = length * most, length + 1
    width = 2 * reach + 1
    steps = []  # state 2e + eps -> (the two states that may precede it, e's shift)
    for e, (eps_e, a_e, b_e) in enumerate(symbols):
        # three darts end at beg(e) in a cubic pregraph; inv(e) may not precede e
        d1, d2 = [d for d in darts if base.end(d) == base.beg[e] and inv[d] != e]
        for eps in (0, 1):
            prev = eps ^ eps_e
            steps.append((2 * d1 + prev, 2 * d2 + prev,
                          ((a_e + most) * width + b_e + most) * bits))
    closed = [0, 0]  # eps -> packed counts of the closed walks
    for first in base.darts_at(root):
        layer = [0] * 2 * base.n_darts
        layer[2 * first + symbols[first][0]] = 1 << steps[2 * first][2]
        for _ in range(length - 1):
            layer = [(layer[i] + layer[j]) << shift for i, j, shift in steps]
        for d in darts:
            if base.end(d) == root and inv[d] != first:
                closed[0] += layer[2 * d]
                closed[1] += layer[2 * d + 1]
    tally: dict = {}
    for eps, packed in enumerate(closed):
        while packed:  # peel off the highest nonzero slot
            slot = (packed.bit_length() - 1) // bits
            count = packed >> slot * bits
            packed -= count << slot * bits
            a, b = divmod(slot, width)
            key = SymbolicVoltage(eps, a - reach, b - reach).canonical()
            tally[key] = tally.get(key, 0) + count
    return WalkTable(delta_index, length, base.vertex_names[root], tally)


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


class T1Conditions(NamedTuple):
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
    if k < 1:
        raise ValueError("k must be positive")
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


def _k_range(k_min: int, k_max: int) -> range:
    """k_min..k_max, the k the funnel runs over, under one guard: ValueError
    unless 1 <= k_min <= k_max + 1 and the order 6*k_max is at most the
    sweep guard. The range is empty only at k_max = k_min - 1; the census
    takes that (none below k = 1), the sweep does not."""
    if not 1 <= k_min <= k_max + 1:
        raise ValueError("need 1 <= k_min <= k_max + 1")
    if 6 * k_max > _MAX_ORDER:
        raise ValueError(f"sweep guard: order {6 * k_max} is above {_MAX_ORDER}")
    return range(k_min, k_max + 1)


def _passes_vt_screen(adj: tuple[tuple[int, ...], ...], n: int) -> bool:
    """Necessary condition for vertex-transitivity of a simple cover with
    adjacency adj (`lifted_adjacency`, fibres of n vertices): the fibre
    roots x_0 share `_bfs_key`, the degree/distance key (ball sizes to
    radius 4) that `uniform_local_profile` compares, so no graph is built.

    The deck transformation i -> i+1 is an automorphism of the cover whose
    orbits are the fibres, so every vertex invariant is constant on a fibre,
    and this equals `uniform_local_profile` of the built cover with the key
    computed at u_0, v_0 and w_0, not at every vertex."""
    return len({_bfs_key(adj, x) for x in range(0, len(adj), n)}) == 1


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


class Verdict(NamedTuple):
    """`_decide`'s verdict on a unit orbit: the last stage in `_STAGES` its
    covers reach and, for a VT cover only, its class's canonical form as
    ascii, the name of the family graph it matches or None, and a graph."""

    stage: str
    canon: Optional[str] = None
    name: Optional[str] = None
    graph: Optional[SimpleGraph] = None


def _decide(params: FamilyParams, family: dict[str, SimpleGraph]) -> Verdict:
    """The `Verdict` on the cover at params. Every stage up to VT reads the
    voltage assignment or the adjacency lifted from it once
    (`cover_is_simple`, `cover_connected`, `_passes_vt_screen`,
    `_is_vt_cover`). A VT cover is named by extension from its vertex 0
    onto vertex 0 of each graph of `family` (name -> graph,
    `_family_graphs(k)`): it is VT, so if any isomorphism exists one sends
    0 to 0. Its class is the canonical form of the graph matched, and the
    name matched is recorded there; only a cover that matches none is built
    and searched, and its name is None."""
    va = params.voltages()
    if not cover_is_simple(va):
        return Verdict("grid")
    if not cover_connected(va):
        return Verdict("constructed")
    adj = lifted_adjacency(va)
    if not (_passes_vt_screen(adj, va.n) and _is_vt_cover(adj, va.n)):
        return Verdict("connected")
    name = next((name for name, f in family.items() if
                 _rooted_isomorphism(adj, 0, f.adjacency(), 0)[0] is not None),
                None)
    g = params.build() if name is None else family[name]
    return Verdict("vt_instances", canonical_form(g).decode("ascii"), name, g)


def _funnel(k: int, family: dict[str, SimpleGraph]) -> tuple[dict, dict]:
    """Voltages -> simple -> connected -> screen -> VT -> name -> dedup at
    order 6k, over the parameter representatives of all four types.

    The stages are decided once per unit orbit (`parameter_orbits`), by
    `_decide` at its minimum, the first of its fine representatives met;
    each is an isomorphism invariant, so every fine representative of the
    orbit shares the `Verdict`. Each fine representative is counted in
    every stage of `_STAGES` up to its verdict's stage ("constructed"
    counts the simple covers). Returns those per-type counts, and the VT
    classes by canonical form (ascii), each as the verdict first met and
    the fine representatives (t, k, r, s) in the order met."""
    counts = {stage: dict.fromkeys((1, 2, 3, 4), 0) for stage in _STAGES}
    classes: dict[str, tuple[Verdict, list]] = {}
    for t in (1, 2, 3, 4):
        verdicts: dict = {}  # unit orbit minimum -> _decide there
        for (r, s), unit in parameter_orbits(t, k):
            if unit not in verdicts:
                verdicts[unit] = _decide(FamilyParams(t, k, r, s), family)
            verdict = verdicts[unit]
            for stage in _STAGES[:_STAGES.index(verdict.stage) + 1]:
                counts[stage][t] += 1
            if verdict.canon is not None:
                classes.setdefault(verdict.canon, (verdict, []))[1].append(
                    (t, k, r, s))
    return counts, classes


# -- small-order census ---------------------------------------------------------

_NAMED_AT = {
    # (order, girth) of the arc-transitive members small enough to meet here
    (6, 4): "K_{3,3}",
    (18, 6): "Pappus graph",
    (30, 8): "Tutte 8-cage",
    (54, 6): "F054A",
}


class CensusEntry(NamedTuple):
    order: int
    canonical: str
    types: tuple
    girth: int
    aut_order: int
    arc_transitive: bool
    name: Optional[str]


class CensusTable(NamedTuple):
    max_order: int
    entries: tuple

    @property
    def per_order(self) -> dict:
        counts: Counter = Counter(e.order for e in self.entries)
        return dict(sorted(counts.items()))

    def to_json_dict(self) -> dict:
        return {
            "kind": "census",
            "max_order": self.max_order,
            "total": len(self.entries),
            # str keys sort as strings ("12" < "48" < "6"), and the output
            # is pinned in that order.
            "per_order": {str(o): c for o, c in self.per_order.items()},
            "entries": [e._asdict() for e in self.entries],
        }


def small_census(k_max: int) -> CensusTable:
    """All vertex-transitive graphs the four constructors produce at order
    <= 6*k_max: the funnel for k = 1..k_max (none at k_max = 0), with the
    type sets of coinciding instances merged, plus |Aut|, arc-transitivity,
    girth and name."""
    entries = []
    for k in _k_range(1, k_max):
        for canon, (verdict, reps) in _funnel(k, _family_graphs(k))[1].items():
            g = verdict.graph
            at = arc_orbit_count(g) <= 1
            gi = girth(g, [orbit[0] for orbit in vertex_orbits(g)])
            entries.append(CensusEntry(
                order=g.n,
                canonical=canon,
                types=tuple(sorted({p[0] for p in reps})),
                girth=gi,
                aut_order=group_order(g),
                arc_transitive=at,
                name=_NAMED_AT.get((g.n, gi)) if at else None,
            ))
    entries.sort(key=lambda e: (e.order, e.canonical))
    return CensusTable(6 * k_max, tuple(entries))


# -- classification sweep --------------------------------------------------------

class VTClass(NamedTuple):
    order: int
    canonical: str
    types: tuple
    name: Optional[str]
    example_params: tuple


class SweepReport(NamedTuple):
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
        return {"kind": "sweep", **self._asdict(),
                "classes": [c._asdict() for c in self.classes]}


def sweep_one_k(k: int) -> SweepReport:
    """Exhaust one order 6k: run the funnel over the parameter orbits of
    all four types, and compare the names of the surviving isomorphism
    classes against the family graphs expected at 6k. ValueError unless
    1 <= k and 6k is within the sweep guard (`_k_range`)."""
    _k_range(k, k)
    family = _family_graphs(k)
    counts, seen = _funnel(k, family)
    classes = []
    anomalies = []
    for canon, (verdict, reps) in sorted(seen.items()):
        types = tuple(sorted({p[0] for p in reps}))
        params = reps[:3]
        classes.append(VTClass(6 * k, canon, types, verdict.name,
                               tuple(params)))
        if verdict.name is None:
            anomalies.append(f"unexpected vertex-transitive class {canon} "
                             f"from params {params}")
        if 4 in types:
            anomalies.append(f"type-4 instance is vertex-transitive: {params}")

    observed = {c.name for c in classes}
    for name in sorted(family):
        if name not in observed:
            anomalies.append(f"expected class {name} not found")

    return SweepReport(
        k=k,
        order=6 * k,
        classes=tuple(classes),
        anomalies=tuple(anomalies),
        **counts,
    )


def classification_sweep(
    k_min: int, k_max: int, workers: int = 1
) -> list[SweepReport]:
    """Run sweep_one_k over k_min..k_max, on `workers` processes."""
    ks = _k_range(k_min, k_max)
    if not ks:
        raise ValueError("need k_min <= k_max")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if workers == 1 or len(ks) == 1:
        return [sweep_one_k(k) for k in ks]
    # Imported here: it adds about 2.5 MB to every process that imports it.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(ks))) as pool:
        return list(pool.map(sweep_one_k, ks))


# -- targeted structure checks ----------------------------------------------------

def lemma_spot_checks() -> dict:
    """Constructive checks of the degenerate-parameter and 7-cycle facts
    feeding the classification, plus the t4 inversion symmetry, at k = 9."""
    k = 9
    _, u, v, _ = fibre_indexers(k)
    per_vertex, _, _ = cycle_counts(t1(k, k, 2), 4)
    negate = fibre_map(k, -1)
    # name -> (instances, what each instance must show)
    checks = {
        # r = k collapses 4-cycle regularity (read off the per-vertex counts).
        "r_equals_k": ([{
            "k": k, "u0_4cycles": per_vertex[u(0)],
            "v0_4cycles": per_vertex[v(0)],
            "vertex_regular": len(set(per_vertex)) <= 1,
        }], lambda row: (not row["vertex_regular"]
                         and row["u0_4cycles"] != row["v0_4cycles"])),
        # r = 0 breaks 8-cycle regularity.
        "r_equals_zero": ([{
            "k": k, "cycle_regular_8": is_c_cycle_regular(t1(k, 0, 1), 8),
        }], lambda row: not row["cycle_regular_8"]),
        # The y family (odd k) is triangle-free.
        "y_triangle_free": ([{
            "k": k, "triangles": cycle_counts(y_graph(k), 3)[2],
        }], lambda row: row["triangles"] == 0),
        # Index negation is an automorphism of every simple t4 instance and
        # fixes both u_0 and u_k, the endpoints of the middle edge it
        # stabilizes.
        "t4_inversion": ([{
            "k": k, "is_automorphism": is_automorphism(t4(k, 1, 2).adjacency(), negate),
            "fixes_u0": negate[u(0)] == u(0), "fixes_uk": negate[u(k)] == u(k),
        }], lambda row: (row["is_automorphism"] and row["fixes_u0"]
                         and row["fixes_uk"])),
        # Balanced 7-cycle congruence: 2r-2s+k = 0 (mod 2k) forces a 7-cycle
        # through the standard walk lift and breaks 7-vertex-regularity.
        "balanced_seven_cycles": (
            [_seven_cycle_row(*krs) for krs in ((10, 6, 1), (12, 7, 1))],
            lambda row: (row["congruence"] and row["seven_cycle_found"]
                         and not row["vertex_regular_7"])),
    }
    report: dict = {"kind": "lemma_spot_checks", "checks": {
        name: {"instances": rows, "passed": all(map(shows, rows))}
        for name, (rows, shows) in checks.items()
    }}
    report["all_passed"] = all(
        block["passed"] for block in report["checks"].values()
    )
    return report


def _seven_cycle_row(k: int, r: int, s: int) -> dict:
    """The balanced 7-cycle instance of t1(k, r, s)."""
    g = t1(k, r, s)
    n, u, v, w = fibre_indexers(k)
    cyc = [u(0), v(0), w(r), v(r - s), w(2 * r - s), v(2 * r - 2 * s),
           u(2 * r - 2 * s)]
    return {
        "k": k, "r": r, "s": s,
        "congruence": (2 * r - 2 * s + k) % n == 0,
        "seven_cycle_found": len(set(cyc)) == 7 and all(
            g.has_edge(a, b) for a, b in zip(cyc, cyc[1:] + cyc[:1])),
        "vertex_regular_7": is_c_vertex_regular(g, 7),
    }


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
