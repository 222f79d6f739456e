"""Outside-in tracing of tricirc's layers.

The layers call each other through module-level names (``from .symmetry
import canonical_form`` binds ``tricirc.verify.canonical_form``), and Python
looks those names up at call time. The tracer replaces each such name with a
wrapper that records a span, and puts the original object back afterwards.
No file of the package changes.

A span has a name, a duration and a parent (the span open when it started).
Self time is the duration minus the time covered by child spans. Spans are
folded into per-name totals as they close, so memory stays flat however many
calls a pass makes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


def _under(stack, name: str) -> bool:
    return any(frame[0] == name for frame in stack)


class Tracer:
    """Span stack, per-span totals and counters for one traced pass."""

    def __init__(self):
        self.stack: list[list] = []  # [name, start, child_time]
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.child_time: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.patched: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers -----------------------------------

    def wrap(self, owner, attr: str, name, observe=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name, or a function of (stack, args) giving one.
        ``observe(tracer, stack, args, result, exc)`` runs after each call
        and adds counters; ``stack`` still holds the caller's spans."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self
        stack = self.stack

        def wrapper(*args, **kwargs):
            span = name(stack, args) if callable(name) else name
            frame = [span, perf_counter(), 0.0]
            stack.append(frame)
            result = exc = None
            try:
                result = original(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                duration = perf_counter() - frame[1]
                stack.pop()
                stat = tracer.stats[span]
                stat.calls += 1
                stat.total += duration
                stat.self_time += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                    tracer.child_time[(stack[-1][0], span)] += duration
                if observe is not None:
                    observe(tracer, stack, args, result, exc)

        setattr(owner, attr, wrapper)
        self.patched.append((owner, attr, original))

    def unwrap(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def restored(self) -> list[str]:
        """Names that do not hold their original object after ``unwrap``."""
        bad = []
        for owner, attr, original in self.patched:
            current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad

    # -- reading the totals ---------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

    def total(self, name: str) -> float:
        return self.stats[name].total if name in self.stats else 0.0

    def self_time(self, name: str) -> float:
        return self.stats[name].self_time if name in self.stats else 0.0

    def names(self, prefix: str) -> list[str]:
        return sorted(n for n in self.stats if n.startswith(prefix))


# -- the layer map ------------------------------------------------------------

def _count(key, value=lambda args, result: 1):
    def observe(tracer, stack, args, result, exc):
        if exc is None:
            tracer.counts[key] += value(args, result)
    return observe


def _count_true(key):
    return _count(key, lambda args, result: 1 if result else 0)


def _nonsimple(nonsimple_type):
    def observe(tracer, stack, args, result, exc):
        if isinstance(exc, nonsimple_type):
            tracer.counts["voltage.nonsimple"] += 1
    return observe


def _by_screen(inside: str, outside: str):
    """A span name that depends on whether the VT screen called it."""
    return lambda stack, args: inside if _under(stack, "screen") else outside


def _initial_colors_caller(stack, args):
    if _under(stack, "ir.search"):
        return "ir.initial_colors.search"
    if _under(stack, "screen"):
        return "ir.initial_colors.screen"
    return "ir.initial_colors.other"


def _union_find_caller(stack, args):
    return "ir.union_find" if _under(stack, "ir.search") else "group.union_find"


def install(mods) -> Tracer:
    """Wrap every layer boundary of the imported package ``mods``."""
    cli, verify, symmetry = mods.cli, mods.verify, mods.symmetry
    families, voltage, graph6 = mods.families, mods.voltage, mods.graph6
    tr = Tracer()
    w = tr.wrap

    # voltage: cover construction and quotients
    w(families, "zeta_for", "voltage.zeta_for")
    w(families, "derived_cover", "voltage.derived_cover",
      _nonsimple(voltage.NonSimpleCover))
    w(cli, "quotient_with_voltages", "voltage.quotient")

    # pregraph: the catalogue and walk enumeration
    w(voltage, "delta", "pregraph.delta")
    w(verify, "delta", "pregraph.delta")
    w(verify, "reduced_closed_walks", "pregraph.walks",
      _count("pregraph.walks_enumerated", lambda args, result: len(result)))

    # graphs and graph6
    w(mods.graphs.SimpleGraph, "is_connected", "graphs.connected",
      _count_true("graphs.connected_true"))
    w(symmetry, "encode_graph6", "graph6.encode")
    w(cli, "decode_graph6", "graph6.decode")
    w(graph6, "decode_graph6", "graph6.decode")

    # symmetry: the VT screen as verify calls it
    w(verify, "_passes_vt_screen", "screen", _count_true("screen.pass"))
    w(verify, "uniform_local_profile", "screen.profile")
    w(verify, "girth", _by_screen("screen.girth", "verify.girth"))
    for owner in (verify, cli, symmetry):
        w(owner, "cycle_counts", _by_screen("screen.cycles", "cycles.count"))
    w(verify, "is_vertex_transitive", "verify.vt", _count_true("verify.vt_true"))

    # symmetry: the IR search and canonical form
    w(symmetry, "_search", "ir.search",
      _count("ir.generators", lambda args, result: len(result[0])))
    w(symmetry, "_wl_refine", "ir.refine")
    w(symmetry, "_initial_colors", _initial_colors_caller)
    w(symmetry, "_individualize", "ir.individualize")
    w(symmetry, "_leaf_certificate", "ir.leaf")
    w(symmetry, "_UnionFind", _union_find_caller)
    for owner in (symmetry, verify, cli):
        w(owner, "canonical_form", "canon")

    # symmetry: group order, elements, k-circulants and orbits
    for owner in (cli, verify):
        w(owner, "group_order", "group.order")
    for owner in (cli, symmetry):
        w(owner, "group_elements", "group.elements",
          _count("group.elements_enumerated", lambda args, result: len(result)))
    w(cli, "find_k_circulant", "group.circulant")
    for owner, attr in ((cli, "vertex_orbits"), (cli, "edge_orbits"),
                        (cli, "arc_orbit_count"), (verify, "arc_orbit_count"),
                        (verify, "vertex_orbits"), (symmetry, "vertex_orbits"),
                        (symmetry, "edge_orbits"), (symmetry, "arc_orbit_count")):
        w(owner, attr, "group.orbits")

    # verify: the stages of the default check
    w(verify, "sweep_one_k", lambda stack, args: f"verify.sweep_k{args[0]}")
    w(cli, "small_census", "verify.census")
    w(cli, "lemma_spot_checks", "verify.spot")
    w(cli, "report_emit", "verify.emit")
    return tr


SWEEP_KS = range(9, 16)  # --kmin 9 --kmax 15 of the default check


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, searches: int, cache_hits: int) -> dict:
    """The per-layer metrics of one traced pass, by name.

    ``*_calls`` and other counts are exact; ``*_s`` is inclusive wall time of
    the spans unless the name says ``self``. The group spans report self time,
    because ``vertex_orbits(g)`` without generators runs the IR search inside
    itself."""
    c, t, s = tr.counts, tr.total, tr.self_time
    init = ("screen", "search")
    return {
        "voltage.covers_attempted": tr.calls("voltage.derived_cover"),
        "voltage.nonsimple_ratio": _ratio(c["voltage.nonsimple"],
                                          tr.calls("voltage.derived_cover")),
        "voltage.cover_s": t("voltage.zeta_for") + t("voltage.derived_cover"),
        "voltage.quotient_s": t("voltage.quotient"),
        "pregraph.delta_calls": tr.calls("pregraph.delta"),
        "pregraph.walks_enumerated": c["pregraph.walks_enumerated"],
        "pregraph.walks_s": t("pregraph.walks"),
        "graphs.connected_checks": tr.calls("graphs.connected"),
        "graphs.connected_ratio": _ratio(c["graphs.connected_true"],
                                         tr.calls("graphs.connected")),
        "graphs.connected_s": t("graphs.connected"),
        "graph6.encode_s": t("graph6.encode"),
        "graph6.decode_s": t("graph6.decode"),
        "screen.profile_calls": tr.calls("screen.profile"),
        "screen.profile_s": t("screen.profile"),
        "screen.girth_s": t("screen.girth"),
        "screen.cycles_calls": tr.calls("screen.cycles"),
        "screen.cycles_s": t("screen.cycles"),
        "screen.pass_ratio": _ratio(c["screen.pass"], tr.calls("screen")),
        "screen.vt_ratio": _ratio(c["verify.vt_true"], c["screen.pass"]),
        "ir.searches": searches,
        "ir.cache_hits": cache_hits,
        "ir.search_s": t("ir.search"),
        "ir.self_s": s("ir.search"),
        "ir.refine_calls": tr.calls("ir.refine"),
        "ir.refine_s": t("ir.refine"),
        "ir.initial_colors_calls": sum(tr.calls(n) for n in tr.names("ir.initial_colors.")),
        "ir.initial_colors_s": sum(t(n) for n in tr.names("ir.initial_colors.")),
        **{f"ir.initial_colors_calls.{k}": tr.calls(f"ir.initial_colors.{k}") for k in init},
        **{f"ir.initial_colors_s.{k}": t(f"ir.initial_colors.{k}") for k in init},
        "ir.nodes": tr.calls("ir.individualize"),
        "ir.leaves": tr.calls("ir.leaf"),
        "ir.leaf_s": t("ir.leaf"),
        "ir.orbit_rebuilds": tr.calls("ir.union_find"),
        "ir.generators": c["ir.generators"],
        "canon.calls": tr.calls("canon"),
        "canon.self_s": t("canon") - tr.child_time[("canon", "ir.search")],
        "group.order_calls": tr.calls("group.order"),
        "group.order_s": s("group.order"),
        "group.elements_calls": tr.calls("group.elements"),
        "group.elements_enumerated": c["group.elements_enumerated"],
        "group.elements_s": s("group.elements"),
        "group.circulant_s": s("group.circulant"),
        "group.orbits_s": s("group.orbits"),
        "cycles.count_s": t("cycles.count"),
        **{f"verify.sweep_k{k}_s": t(f"verify.sweep_k{k}") for k in SWEEP_KS},
        "verify.census_s": t("verify.census"),
        "verify.spot_s": t("verify.spot"),
        "verify.emit_s": t("verify.emit"),
    }


def is_count(name: str) -> bool:
    """Counts and ratios repeat exactly between passes; times do not."""
    return not name.endswith("_s") and "_s." not in name
