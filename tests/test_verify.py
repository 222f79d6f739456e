"""Verification harness: congruence conditions, census, sweeps, reports."""

import hashlib
import json
import math

import pytest

from tricirc.families import (
    FamilyParams,
    gp,
    parameter_orbits,
    prism,
    r_star,
    t1,
    t3,
    x_graph,
    y_graph,
)
from tricirc.graph6 import decode_graph6
from tricirc.graphs import SimpleGraph
from tricirc.symmetry import (
    _rooted_isomorphism,
    are_isomorphic,
    canonical_form,
    find_k_circulant,
    girth,
    group_order,
    is_vertex_transitive,
    uniform_local_profile,
)
from tricirc.verify import (
    _STAGES,
    Verdict,
    _decide,
    _family_graphs,
    _funnel,
    _is_vt_cover,
    _passes_vt_screen,
    check_t1_conditions,
    classification_sweep,
    lemma_spot_checks,
    report_emit,
    small_census,
    sweep_one_k,
    walk_table,
)
from tricirc.voltage import (
    NonSimpleCover,
    cover_connected,
    cover_is_simple,
    derived_cover,
    lifted_adjacency,
)


def test_conditions_on_the_x_family():
    for k in (9, 11, 13, 15):
        res = check_t1_conditions(k, (3 + k) // 2 if k % 4 == 1 else (3 + k) // 2 + k, 1)
        assert res.holding == ("3s-2r+k",)
        assert all(res.necessary_as_given.values())
        assert res.predicted_signature == (5, 5, 6)
        assert res.predicted_edge_counts == {"0": 5, "R": 5, "S": 6, "K": 6}


def test_conditions_congruence_bookkeeping():
    res = check_t1_conditions(9, 2, 1)
    assert res.congruences["3s-2r+k"] is False
    # r odd breaks a necessary parity condition even when a congruence holds
    res2 = check_t1_conditions(9, 3, 1)
    assert res2.necessary_as_given["r_even"] is False


def test_t1_conditions_are_pinned_over_the_grid():
    # sha256 of the reprs of every result for k <= 12 and all (r, s) in
    # Z_2k^2, recorded before the congruences became one table.
    import hashlib
    rows = [repr(check_t1_conditions(k, r, s)._asdict())
            for k in range(1, 13) for r in range(2 * k) for s in range(2 * k)]
    assert len(rows) == 2600
    assert hashlib.sha256("\n".join(rows).encode()).hexdigest() == (
        "821fc3427567a81b179ba8abc6d68a9446049b5148d0794142b236cdd061c0db")


def test_predicted_edge_counts_match_reality():
    from collections import Counter
    from tricirc.symmetry import cycle_counts
    k = 9
    g = x_graph(k)
    res = check_t1_conditions(k, 6, 1)
    _, per_edge, _ = cycle_counts(g, 8)
    seen = {}
    for (a, b), cnt in per_edge.items():
        tag = g.edge_tag(a, b)
        seen.setdefault(tag, set()).add(cnt)
    assert {t: s.pop() for t, s in seen.items()} == res.predicted_edge_counts


@pytest.mark.parametrize("k", [0, -3])
def test_t1_conditions_reject_k_below_one(k):
    with pytest.raises(ValueError, match="k must be positive"):
        check_t1_conditions(k, 2, 1)


def test_census_headline_numbers():
    ct = small_census(8)
    assert ct.max_order == 48
    assert len(ct.entries) == 20
    assert ct.per_order == {6: 2, 12: 2, 18: 4, 24: 1, 30: 5, 36: 1, 42: 4, 48: 1}
    assert sorted(e.order for e in ct.entries if e.arc_transitive) == [6, 18, 30]


def test_census_named_entries():
    named = {e.name: e for e in small_census(8).entries}
    k33 = named.get("K_{3,3}")
    assert k33 is not None and k33.order == 6 and k33.arc_transitive
    assert k33.types == (3,)
    pappus = named.get("Pappus graph")
    assert pappus is not None and pappus.order == 18 and pappus.arc_transitive
    tutte = named.get("Tutte 8-cage")
    assert tutte is not None and tutte.order == 30
    assert tutte.types == (4,)


def _lcf(jumps, repeats):
    """The graph of LCF notation [jumps]^repeats: the Hamiltonian cycle
    0..n-1 and a chord from each i to i + jumps[i mod len(jumps)]."""
    n = len(jumps) * repeats
    edges = {tuple(sorted((i, (i + j) % n)))
             for i in range(n) for j in (1, jumps[i % len(jumps)])}
    g = SimpleGraph(n, edges)
    assert set(map(len, g.adjacency())) == {3}
    return g


@pytest.mark.parametrize("name,jumps,repeats", [
    ("K_{3,3}", [3], 6),
    ("Pappus graph", [5, 7, -7, 7, -7, -5], 3),
    ("Tutte 8-cage", [-13, -9, 7, -7, 9, 13], 5),
])
def test_census_names_match_their_lcf_constructions(name, jumps, repeats):
    entry = {e.name: e for e in small_census(8).entries}[name]
    assert entry.canonical == canonical_form(_lcf(jumps, repeats)).decode()


def test_t1_at_k2_is_the_truncated_tetrahedron():
    """The class the k <= 8 sweep reports as unexpected: t1(2, 0, 1) is the
    truncated tetrahedron, LCF [2, 6, -2]^4."""
    g = t1(2, 0, 1)
    assert canonical_form(g) == canonical_form(_lcf([2, 6, -2], 4))
    assert (g.n, girth(g), group_order(g)) == (12, 3, 24)


def test_census_multi_type_entry_is_the_triangular_prism():
    ct = small_census(1)
    multi = [e for e in ct.entries if len(e.types) > 1]
    assert len(multi) == 1
    assert multi[0].types == (1, 3)
    assert multi[0].canonical == canonical_form(prism(3)).decode()


def test_census_respects_max_order():
    ct = small_census(4)
    assert ct.max_order == 24
    assert ct.per_order == {6: 2, 12: 2, 18: 4, 24: 1}
    assert all(e.order <= 24 for e in ct.entries)


def test_sweep_single_k_odd():
    rep = sweep_one_k(9)
    assert rep.anomalies == ()
    names = sorted(c.name for c in rep.classes)
    assert names == ["X(9)", "Y(9)", "moebius(27)", "prism(27)"]
    for c in rep.classes:
        if c.name == "X(9)":
            assert are_isomorphic(
                x_graph(9),
                __import__("tricirc").graph6.decode_graph6(c.canonical),
            )


def test_sweep_single_k_even():
    rep = sweep_one_k(10)
    assert rep.anomalies == ()
    assert [c.name for c in rep.classes] == ["moebius(30)"]


def test_sweep_at_k_one_names_both_classes():
    rep = sweep_one_k(1)
    assert rep.anomalies == ()
    assert [c.name for c in rep.classes] == ["moebius(3)", "prism(3)"]


# sha256 of report_emit([sweep_one_k(k)]): k = 25..50 recorded before the
# funnel decided vertex-transitivity by rooted extension, part of the 9..50
# gate; k = 1..8 recorded before the funnel recorded each class's name, and
# they pin the "unexpected vertex-transitive class" anomaly at k = 2 and 5
# and the "type-4 instance" anomaly at k = 5. Each k took under 0.6 s on a
# 2-core Xeon with Python 3.11.
SWEEP_DIGESTS = {
    1: "6522b6fe014abbae83fa046634d6f991230714620efda25f748ae9e89f17d9c3",
    2: "e83ff3e5f1e987a5a41839c0bc98d5697245a2ccdeab7107b39d0fb51d3676fc",
    3: "7d0aba497d6d9e8b1b1a4f0eea23acaa17751053be4b9cd7c62184539c1ac974",
    4: "72d91ba55f890b50bcb8ca7a19e152f24c406bfb9e4c37b2a1d0385b048f80ba",
    5: "6867aa31784a8ea87fa36e1a908a4241eb965aca8811298bfbdcc375ca26740f",
    6: "e088832d383d88dabbd3b9c3c26a335db191e39460f6db8c51d313ee435c8d79",
    7: "ce910f0be92597c370ca79ab17927b4eaefb3fe6cb008004a831621e4d8db37d",
    8: "b2d7c127abdddde498ecbe7bc5d3cc0b576ba704ff9d4b4061a9308dc89d0f1f",
    25: "e2c787b923bb741ad1d70ad8da55f895991d8bf2ab44c13c825502e86d65231b",
    35: "4b79e0204750b79449376833b8b6e2cb450e4378ffc198ef421c9478ea140089",
    49: "cfe3062fb7a94f1ee48d4a89027c2ee6f035109662c69eb3e60c5eb8aee7aa9d",
    50: "48b983ed1acb36c1c6a452214c7cf09eb3c2acdc94fdecf1e57d69b43b8f45b2",
}


@pytest.mark.parametrize("k", sorted(SWEEP_DIGESTS))
def test_sweep_report_is_pinned(time_limit, k):
    with time_limit(5):
        out = report_emit([sweep_one_k(k)])
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_DIGESTS[k]


def test_sweep_reports_an_expected_class_it_does_not_find(monkeypatch):
    # GP(27, 2) has order 54 = 6 * 9 but is not vertex-transitive, so no
    # cover at k = 9 matches it.
    from tricirc import verify

    def with_gp(k):
        return {**_family_graphs(k), "GP(27,2)": gp(27, 2)}

    monkeypatch.setattr(verify, "_family_graphs", with_gp)
    rep = sweep_one_k(9)
    assert rep.anomalies == ("expected class GP(27,2) not found",)
    assert sorted(c.name for c in rep.classes) == [
        "X(9)", "Y(9)", "moebius(27)", "prism(27)"]


def test_sweep_builds_the_family_graphs_once(monkeypatch):
    # At k = 9 every vertex-transitive cover matches a family graph, so the
    # only covers built are X(9) and Y(9) for the family table.
    from tricirc import families

    built = []

    def recorded(va):
        built.append(va)
        return derived_cover(va)

    monkeypatch.setattr(families, "derived_cover", recorded)
    assert sweep_one_k(9).anomalies == ()
    assert len(built) == 2


def _full_grid_classes(k):
    """Reference: the vertex-transitive classes of every (r, s) on the full
    grid of each type at order 6k, with no parameter symmetry assumed and
    the all-vertex profile in place of the three-root screen, which must
    agree with it on every connected cover."""
    classes = {}
    n = 2 * k
    for t in (1, 2, 3, 4):
        for r in range(n):
            for s in [None] if t == 3 else range(n):
                params = FamilyParams(t, k, r, s)
                try:
                    g = params.build()
                except NonSimpleCover:
                    continue
                if not g.is_connected():
                    continue
                va = params.voltages()
                screened = _passes_vt_screen(lifted_adjacency(va), va.n)
                assert screened == uniform_local_profile(g), (t, k, r, s)
                if not (uniform_local_profile(g) and is_vertex_transitive(g)):
                    continue
                classes.setdefault(canonical_form(g).decode("ascii"), set()).add(t)
    return classes


def test_representatives_give_the_classes_of_the_full_grid():
    for k in range(1, 11):
        _, classes = _funnel(k, _family_graphs(k))
        got = {canon: {p[0] for p in reps}
               for canon, (_, reps) in classes.items()}
        assert got == _full_grid_classes(k), k


def _t1_vt_by_statement(k, r, s):
    res = check_t1_conditions(k, r, s)
    return (all(res.necessary_as_given.values())
            or all(res.necessary_swapped.values())
            or (k, r, s) == (2, 0, 1))  # the truncated tetrahedron


def _t2_vt_by_statement(k, r, s):
    n = 2 * k
    return k % 2 == 1 and any(r in (2 * a % n, -2 * a % n) and s in (a, n - a)
                              for a in range(n) if math.gcd(a, n) == 1)


def _t4_vt_by_statement(k, r, s):
    return (k, r, s) == (5, 1, 3)  # the Tutte 8-cage


@pytest.mark.parametrize("t, by_statement, vt_count", [
    (1, _t1_vt_by_statement, 16),
    (2, _t2_vt_by_statement, 91),
    (4, _t4_vt_by_statement, 1),
])
def test_statement_per_parameter_agrees_with_the_decider(t, by_statement, vt_count):
    """The paper's statement for each type, as a predicate on (k, r, s)
    with its small exceptions named by parameter, against the sweep's
    decider on every fine representative at k <= 30 whose cover is simple
    and connected."""
    mismatches, vt = [], 0
    for k in range(1, 31):
        for r, s in [p for p, _ in parameter_orbits(t, k)]:
            va = FamilyParams(t, k, r, s).voltages()
            if not (cover_is_simple(va) and cover_connected(va)):
                continue
            adj = lifted_adjacency(va)
            decided = _passes_vt_screen(adj, va.n) and _is_vt_cover(adj, va.n)
            vt += decided
            if decided != by_statement(k, r, s):
                mismatches.append((k, r, s, decided))
    assert mismatches == []
    assert vt == vt_count


def _reference_funnel(k, family):
    """Reference: the funnel deciding every fine representative on its own,
    with no unit orbit shared. Its classes map canonical form -> (name,
    types, up to three example parameter tuples)."""
    counts = {stage: dict.fromkeys((1, 2, 3, 4), 0) for stage in _STAGES}
    classes = {}
    for t in (1, 2, 3, 4):
        reps = [p for p, _ in parameter_orbits(t, k)]
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
            adj = lifted_adjacency(va)
            if not (_passes_vt_screen(adj, va.n) and _is_vt_cover(adj, va.n)):
                continue
            counts["vt_instances"][t] += 1
            name = next((name for name, f in family.items() if
                         _rooted_isomorphism(adj, 0, f.adjacency(), 0)[0]
                         is not None), None)
            g = params.build() if name is None else family[name]
            _, types, params = classes.setdefault(
                canonical_form(g).decode("ascii"), (name, set(), []))
            types.add(t)
            if len(params) < 3:
                params.append((t, k, r, s))
    return counts, classes


@pytest.mark.parametrize("k", range(1, 13))
def test_funnel_per_unit_orbit_equals_the_reference(k):
    family = _family_graphs(k)
    counts, classes = _funnel(k, family)
    want_counts, want_classes = _reference_funnel(k, family)
    assert counts == want_counts
    assert {canon: (verdict.name, {p[0] for p in reps}, reps[:3])
            for canon, (verdict, reps) in classes.items()} == want_classes


def test_verdict_carries_the_graph_of_its_class():
    # Over k <= 12: a verdict short of VT carries no class, and each VT
    # class's verdict carries a graph of the canonical form it is filed
    # under: the family graph itself when named, else the cover built at
    # the class's first fine representative (t1(2, 0, 1) and t4(5, 1, 3)).
    unnamed = []
    for k in range(1, 13):
        family = _family_graphs(k)
        for t in (1, 2, 3, 4):
            for unit in {unit for _, unit in parameter_orbits(t, k)}:
                verdict = _decide(FamilyParams(t, k, *unit), family)
                assert verdict.stage in _STAGES
                if verdict.stage != "vt_instances":
                    assert verdict == Verdict(verdict.stage)
        for canon, (verdict, reps) in _funnel(k, family)[1].items():
            assert verdict.stage == "vt_instances"
            assert canonical_form(verdict.graph).decode("ascii") == canon
            if verdict.name is not None:
                assert verdict.graph is family[verdict.name]
                continue
            unnamed.append(reps[0])
            assert verdict.graph.known_automorphisms == ()
            assert verdict.graph.adjacency() == (
                FamilyParams(*reps[0]).build().adjacency())
    assert unnamed == [(1, 2, 0, 1), (4, 5, 1, 3)]


def test_funnel_builds_only_the_screened_covers(monkeypatch):
    # The screen runs once per connected unit orbit, and a cover is built
    # only when it is vertex-transitive and matches no family graph: none
    # at k = 9, so the only covers built are X(9) and Y(9) themselves.
    from tricirc import families, verify

    def recorded(fn, results):
        def wrapper(*args):
            results.append(fn(*args))
            return results[-1]
        return wrapper

    connected_orbits = {
        (t, unit) for t in (1, 2, 3, 4) for _, unit in parameter_orbits(t, 9)
        if cover_is_simple(FamilyParams(t, 9, *unit).voltages())
        and cover_connected(FamilyParams(t, 9, *unit).voltages())
    }
    built, screened = [], []
    monkeypatch.setattr(families, "derived_cover",
                        recorded(families.derived_cover, built))
    monkeypatch.setattr(verify, "_passes_vt_screen",
                        recorded(verify._passes_vt_screen, screened))
    counts, _ = _funnel(9, _family_graphs(9))
    assert len(screened) == len(connected_orbits)
    assert len(screened) < sum(counts["connected"].values())
    assert 0 < sum(screened) < len(screened)
    assert [g.adjacency() for g in built] == [
        x_graph(9).adjacency(), y_graph(9).adjacency()]


def test_funnel_builds_the_vt_covers_no_family_graph_matches(monkeypatch):
    # At k = 5 one vertex-transitive cover matches none of X(5), Y(5),
    # prism(15) and moebius(15): the Tutte 8-cage, from t4(5, 1, 3).
    from tricirc import families

    built = []

    def recorded(va):
        built.append(va)
        return derived_cover(va)

    monkeypatch.setattr(families, "derived_cover", recorded)
    _, classes = _funnel(5, _family_graphs(5))
    assert [va.zeta for va in built] == [
        FamilyParams(t, 5, r, s).voltages().zeta
        for t, r, s in ((1, r_star(5), 1), (2, 2, 1), (4, 1, 3))
    ]
    cage, reps = classes[
        canonical_form(derived_cover(built[2])).decode("ascii")]
    assert reps == [(4, 5, 1, 3)] and girth(cage.graph) == 8


def test_sweep_range_serial_vs_parallel():
    serial = classification_sweep(9, 10, workers=1)
    parallel = classification_sweep(9, 10, workers=2)
    assert [r.to_json_dict() for r in serial] == [r.to_json_dict() for r in parallel]


def test_sweep_guard():
    with pytest.raises(ValueError):
        classification_sweep(9, 51)    # 6*51 > 300
    with pytest.raises(ValueError):
        small_census(51)    # 6*51 > 300


def vt_generalized_petersen(max_order):
    """Every vertex-transitive GP(n, m) with 2n <= max_order, m < n/2: those
    with m^2 = +-1 mod n, and GP(10, 2) (Frucht, Graver & Watkins 1971)."""
    for n in range(3, max_order // 2 + 1):
        for m in range(1, (n + 1) // 2):
            if m * m % n in (1, n - 1) or (n, m) == (10, 2):
                yield f"GP({n},{m})", gp(n, m)


def test_the_graph_side_answer_key(time_limit):
    # From the graph side, independent of the reduction to the four
    # pregraphs and the (r, s) grid: each VT generalized Petersen graph and
    # prism of order at most 120 with a semiregular element of three orbits
    # is isomorphic to a class the sweep lists at its order 6k, and no
    # prism at even k has such an element. `gp` declares no automorphisms,
    # so the IR search finds them all.
    graphs = [(name, g) for name, g in vt_generalized_petersen(120) if g.n % 6 == 0]
    graphs += [(f"prism({3 * k})", prism(3 * k)) for k in range(1, 21)]
    classes = {}
    tricirculants = 0
    with time_limit(10):
        for name, g in graphs:
            if find_k_circulant(g, 3) is None:
                continue
            k = g.n // 6
            assert not name.startswith("prism") or k % 2 == 1, name
            if k not in classes:
                classes[k] = [decode_graph6(c.canonical) for c in sweep_one_k(k).classes]
            assert any(are_isomorphic(g, h) for h in classes[k]), name
            tricirculants += 1
    assert (len(graphs), tricirculants) == (60, 26)


@pytest.mark.parametrize("k, message", [
    (0, "need 1 <= k_min"), (-1, "need 1 <= k_min"), (51, "sweep guard")])
def test_sweep_one_k_is_under_the_sweep_guard(k, message):
    with pytest.raises(ValueError, match=message):
        sweep_one_k(k)


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers"):
        classification_sweep(9, 9, workers=workers)


@pytest.mark.parametrize("k_max", [-1, -6])
def test_census_below_k_zero_is_refused(k_max):
    with pytest.raises(ValueError):
        small_census(k_max)


def test_census_of_no_orders_is_empty():
    ct = small_census(0)
    assert ct.max_order == 0 and ct.entries == ()


def test_sweep_refuses_an_empty_range():
    with pytest.raises(ValueError):
        classification_sweep(10, 9)


def test_spot_checks_pass():
    out = lemma_spot_checks()
    assert out["all_passed"] is True
    assert set(out["checks"]) == {
        "r_equals_k",
        "r_equals_zero",
        "y_triangle_free",
        "t4_inversion",
        "balanced_seven_cycles",
    }
    for chk in out["checks"].values():
        assert chk["passed"] is True


def test_spot_check_reuses_the_sweeps_search_of_y9():
    # The spot checks count the triangles of y_graph(9), which carries the
    # same maps as the Y(9) the sweep at k = 9 searched, so the count reads
    # the sweep's cache entry instead of searching Y(9) again.
    from tricirc import symmetry
    from tricirc.symmetry import cycle_counts

    symmetry._search_cached.cache_clear()
    sweep_one_k(9)
    misses = symmetry._search_cached.cache_info().misses
    assert cycle_counts(y_graph(9), 3)[2] == 0
    assert symmetry._search_cached.cache_info().misses == misses


def test_a_failed_spot_check_fails_the_report_and_the_cli(monkeypatch, capsys):
    from tricirc import verify
    from tricirc.cli import main

    argv = ["verify", "--kmin", "1", "--kmax", "1", "--spot-checks"]
    assert main(argv) == 0
    monkeypatch.setattr(verify, "is_c_cycle_regular", lambda g, c: True)
    out = lemma_spot_checks()
    assert out["checks"]["r_equals_zero"]["passed"] is False
    assert out["all_passed"] is False
    assert main(argv) == 1
    capsys.readouterr()


def test_report_emit_schema():
    reports = [sweep_one_k(9), small_census(2), lemma_spot_checks()]
    blob = report_emit(reports)
    doc = json.loads(blob)
    assert doc["schema"] == 1
    kinds = [r["kind"] for r in doc["reports"]]
    assert sorted(kinds) == kinds == ["census", "lemma_spot_checks", "sweep"]
    # deterministic serialization
    assert blob == report_emit(list(reversed(reports)))


def test_walk_table_header_symbols():
    wt = walk_table(2, 6, "u")
    names = {str(sv) for sv in wt.counts}
    assert "k+s" in names and "0" in names
