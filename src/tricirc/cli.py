"""Command-line driver.

Subcommands: gen (construct a graph), analyze (symmetry/cycle report),
walks (symbolic voltage tables), verify (classification sweep + census),
iso (isomorphism test), quotient (semiregular quotient pregraph). Each is a
thin layer over the library: iso is `are_isomorphic`, quotient finds its
automorphism with `find_k_circulant`, and analyze reads cycle signatures
through the same routine as `is_c_cycle_regular`, `cycle_signatures`, at
one root per vertex orbit.

Exit codes: 0 success, 1 anomaly (sweep anomalies, non-isomorphic pair,
no suitable automorphism), 2 usage error or |Aut| larger than --cap
(quotient), 3 I/O or format error (including text that is not ASCII).

The quotient output is a line-oriented text format, since semi-edges have
no graph6 counterpart:

    pregraph <n_vertices> <n_darts>
    group Z<n>
    dart <id> beg <vertex> inv <dart-id> voltage <element>

A dart with inv equal to its own id is a semi-edge; a pair of mutually
inverse darts with one beg is a loop, with two distinct begs a link.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .families import gp, moebius, prism, t1, t2, t3, t4, x_graph, y_graph
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .graphs import SimpleGraph
from .pregraph import delta
from .symmetry import (
    DEFAULT_CAP,
    EnumerationCapExceeded,
    arc_orbit_count,
    are_isomorphic,
    canonical_form,
    cycle_counts,  # noqa: F401 -- perfbench/tracer.py wraps cli.cycle_counts
    cycle_signatures,
    edge_orbits,
    find_k_circulant,
    girth,
    group_elements,  # noqa: F401 -- perfbench/tracer.py wraps cli.group_elements
    group_order,
    vertex_orbits,
)
from .verify import (
    classification_sweep,
    lemma_spot_checks,
    report_emit,
    small_census,
    walk_table,
)
from .voltage import quotient_with_voltages

_MAX_WALK_LENGTH = 18  # well past the lengths 6..8 the paper reads; keeps each table short
# analyze counts every cycle length from girth to girth+N, and the paths
# counted at one edge grow about threefold per length on a 4-regular graph.
# On a random 4-regular graph on 600 vertices (1200 edge orbits, the worst
# sparse graph tried within the search's size guard) N = 6 / 7 / 8 take
# 0.6-0.8 / 1.5 / 4.2-4.4 s with no step cap on a 2-core Xeon with Python
# 3.11; cubic graphs on 600 vertices take at most 0.3 s at N = 6.
_MAX_EXTRA_CYCLES = 6


# gen's types: the constructor, the parameters it takes after k, the
# graph's order as a multiple of k, and the names of its fibres. Every type
# numbers its vertices fibre-major, so vertex v is named by its fibre and its
# index in it; the Moebius ladder's one fibre is unnamed, so v is named v.
_GEN_TYPES = {
    "1": (t1, ("r", "s"), 6, delta(1).vertex_names),
    "2": (t2, ("r", "s"), 6, delta(2).vertex_names),
    "3": (t3, ("r",), 6, delta(3).vertex_names),
    "4": (t4, ("r", "s"), 6, delta(4).vertex_names),
    "x": (x_graph, (), 6, delta(1).vertex_names),
    "y": (y_graph, (), 6, delta(2).vertex_names),
    "prism": (prism, (), 2, ("u", "v")),
    "moebius": (moebius, (), 2, ("",)),
    "gp": (gp, ("r",), 2, ("u", "v")),
}
# gen builds the whole graph and packs its graph6 in one buffer of
# n(n-1)/12 bytes. Type 1 at order 12 000 writes 12 MB in 0.3 s with a
# 62 MB peak RSS on a 2-core Xeon with Python 3.11; order 24 000 writes
# 48 MB with a 172 MB peak, and order 60 000 300 MB with a 918 MB peak.
_MAX_GEN_ORDER = 12000


def _build_graph(args) -> SimpleGraph:
    build, params, per_k, _ = _GEN_TYPES[args.type]
    for param in ("r", "s"):
        if param in params and getattr(args, param) is None:
            raise ValueError(f"--{param} is required for --type {args.type}")
        if param not in params and getattr(args, param) is not None:
            raise ValueError(f"--type {args.type} takes no --{param}")
    if per_k * args.k > _MAX_GEN_ORDER:
        raise ValueError(
            f"order {per_k * args.k} is above the gen bound {_MAX_GEN_ORDER}")
    return build(args.k, *[getattr(args, param) for param in params])


def _emit_graph(g: SimpleGraph, names: Sequence[str], fmt: str, out) -> None:
    size = g.n // len(names)

    def name(v: int) -> str:
        return f"{names[v // size]}{v % size}"

    if fmt == "graph6":
        out.write(encode_graph6(g).decode("ascii") + "\n")
    elif fmt == "edges":
        for a, b in g.edges():
            tag = g.edge_tag(a, b)
            line = f"{name(a)} {name(b)}"
            if tag is not None:
                line += f" {tag}"
            out.write(line + "\n")
    elif fmt == "dot":
        out.write("graph tricirc {\n")
        for v in range(g.n):
            out.write(f'  {v} [label="{name(v)}"];\n')
        for a, b in g.edges():
            tag = g.edge_tag(a, b)
            attr = f' [label="{tag}"]' if tag is not None else ""
            out.write(f"  {a} -- {b}{attr};\n")
        out.write("}\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def _read_graphs(path: str) -> list[SimpleGraph]:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    graphs = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            graphs.append(decode_graph6(line))
    if not graphs:
        raise Graph6Error("no graphs in input")
    return graphs


def _read_one_graph(path: str) -> SimpleGraph:
    graphs = _read_graphs(path)
    if len(graphs) > 1:
        raise ValueError(f"{path} holds {len(graphs)} graphs, not one")
    return graphs[0]


def _analyze_one(g: SimpleGraph, extra_cycles: int, cap: int) -> dict:
    report: dict = {
        "n": g.n,
        "edge_count": g.edge_count(),
        "connected": g.is_connected(),
        "bipartite": g.is_bipartite(),
        "canonical": canonical_form(g).decode("ascii"),
    }
    report["aut_order"] = group_order(g)
    orbits = vertex_orbits(g)
    report["vertex_orbit_count"] = len(orbits)
    report["edge_orbit_count"] = len(edge_orbits(g))
    report["arc_orbit_count"] = arc_orbit_count(g)
    # Transitive on vertices, edges or arcs: at most one orbit of them.
    report["vertex_transitive"] = report["vertex_orbit_count"] <= 1
    report["edge_transitive"] = report["edge_orbit_count"] <= 1
    report["arc_transitive"] = report["arc_orbit_count"] <= 1

    roots = [orbit[0] for orbit in orbits]
    gi = girth(g, roots)
    report["girth"] = gi
    cycles = {}
    try:
        for c in range(gi, gi + extra_cycles + 1) if gi is not None else ():
            signatures, total = cycle_signatures(g, c, roots, cap)
            distinct = set(signatures)
            cycles[str(c)] = {
                "total": total,
                # A vertex's count is half the sum of its signature.
                "vertex_regular": len(set(map(sum, signatures))) <= 1,
                "cycle_regular": len(distinct) <= 1,
                "signature": list(distinct.pop()) if len(distinct) == 1 else None,
            }
    except EnumerationCapExceeded:
        cycles = "cap_exceeded"
    report["cycles"] = cycles

    circ = {}
    for m in (1, 2, 3):
        if g.n == 0 or g.n % m:
            continue
        try:
            perm = find_k_circulant(g, m, cap=cap)
        except EnumerationCapExceeded:
            circ[str(m)] = "cap_exceeded"
            continue
        circ[str(m)] = None if perm is None else {"order": g.n // m}
    report["k_circulant"] = circ
    return report


def _cmd_gen(args) -> int:
    g = _build_graph(args)
    _emit_graph(g, _GEN_TYPES[args.type][3], args.format, sys.stdout)
    return 0


def _check_cap(cap: int):
    if cap < 1:
        raise ValueError("--cap must be at least 1")


def _cmd_analyze(args) -> int:
    if not 0 <= args.cycles <= _MAX_EXTRA_CYCLES:
        raise ValueError(f"--cycles must be in 0..{_MAX_EXTRA_CYCLES}")
    _check_cap(args.cap)
    graphs = _read_graphs(args.path)
    reports = [_analyze_one(g, args.cycles, args.cap) for g in graphs]
    payload = reports[0] if len(reports) == 1 else reports
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


def _cmd_walks(args) -> int:
    if args.length > _MAX_WALK_LENGTH:
        raise ValueError(f"--length must be at most {_MAX_WALK_LENGTH}")
    starts = ("u", "v", "w") if args.start == "all" else (args.start,)
    tables = [walk_table(args.delta, args.length, s) for s in starts]
    keys = sorted({key for table in tables for key in table.counts})
    header = ["voltage"] + [t.start for t in tables]
    rows = [[str(key)] + [str(t.count(key)) for t in tables] for key in keys]
    rows.append(["total"] + [str(t.total) for t in tables])
    widths = [max(len(r[i]) for r in rows + [header])
              for i in range(len(header))]
    print(f"# delta {args.delta}, closed walks of length {args.length}")
    for row in [header] + rows:
        cells = [row[0].ljust(widths[0])] + [
            c.rjust(w) for c, w in zip(row[1:], widths[1:])
        ]
        print("  ".join(cells))
    return 0


def _cmd_verify(args) -> int:
    reports = classification_sweep(args.kmin, args.kmax, workers=args.workers)
    docs: list = list(reports)
    if args.census:
        docs.append(small_census(args.kmin - 1))
    if args.spot_checks:
        docs.append(lemma_spot_checks())
    print(report_emit(docs))
    anomalies = [a for rep in reports for a in rep.anomalies]
    if args.spot_checks and not docs[-1]["all_passed"]:
        anomalies.append("lemma spot checks failed")
    return 1 if anomalies else 0


def _cmd_iso(args) -> int:
    a, b = map(_read_one_graph, (args.a, args.b))
    same = are_isomorphic(a, b)
    print("isomorphic" if same else "not isomorphic")
    return 0 if same else 1


def _cmd_quotient(args) -> int:
    _check_cap(args.cap)
    g = _read_one_graph(args.path)
    if args.order < 1 or g.n % args.order:
        raise ValueError("--order must be a positive divisor of |V|")
    rho = find_k_circulant(g, g.n // args.order, cap=args.cap)
    if rho is None:
        print(f"no semiregular automorphism of order {args.order}",
              file=sys.stderr)
        return 1
    base, va = quotient_with_voltages(g, rho)
    print(f"pregraph {base.n_vertices} {base.n_darts}")
    print(f"group Z{va.n}")
    for d in range(base.n_darts):
        print(f"dart {d} beg {base.beg[d]} inv {base.inv[d]} "
              f"voltage {va.voltage(d)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tricirc",
        description="Cubic tricirculant graphs: construction, symmetry "
                    "analysis, and exhaustive classification checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="construct a family graph")
    p.add_argument("--type", required=True, choices=list(_GEN_TYPES))
    p.add_argument("--k", type=int, required=True,
                   help="family parameter k (for gp: the outer cycle length; "
                        "for prism/moebius: the ladder length)")
    p.add_argument("--r", type=int, help="voltage r (for gp: the inner step)")
    p.add_argument("--s", type=int, help="voltage s")
    p.add_argument("--format", default="graph6",
                   choices=["graph6", "dot", "edges"])
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="symmetry and cycle report (JSON)")
    p.add_argument("path", help="graph6 file, or - for stdin")
    p.add_argument("--cycles", type=int, default=2,
                   help="cycle lengths analyzed: girth .. girth+N, "
                        f"N in 0..{_MAX_EXTRA_CYCLES}")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="largest |Aut| the semiregular search takes on, and "
                        "most path steps counted per cycle length "
                        "(default %(default)s)")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("walks", help="symbolic net-voltage walk table")
    p.add_argument("--delta", type=int, required=True, choices=[1, 2, 3, 4])
    p.add_argument("--length", type=int, required=True,
                   help=f"walk length, at most {_MAX_WALK_LENGTH}")
    p.add_argument("--start", default="all", choices=["u", "v", "w", "all"])
    p.set_defaults(func=_cmd_walks)

    p = sub.add_parser("verify", help="classification sweep; exit 1 on anomaly")
    p.add_argument("--kmin", type=int, default=9)
    p.add_argument("--kmax", type=int, default=15)
    p.add_argument("--census", action="store_true",
                   help="include the census of the orders below 6*kmin")
    p.add_argument("--spot-checks", action="store_true",
                   help="include the lemma spot checks")
    p.add_argument("--workers", type=int, default=1,
                   help="process count, one k per process")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("iso", help="exit 0 iff the two graphs are isomorphic")
    p.add_argument("a", help="graph6 file holding one graph, or - for stdin")
    p.add_argument("b", help="the same, for the other graph")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("quotient",
                       help="quotient by a semiregular automorphism")
    p.add_argument("path", help="graph6 file, or - for stdin")
    p.add_argument("--order", type=int, required=True,
                   help="order of the semiregular automorphism to find")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="largest |Aut| the semiregular search takes on "
                        "(default %(default)s)")
    p.set_defaults(func=_cmd_quotient)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Graph6Error, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, EnumerationCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
