"""Verification harness: congruence conditions, census, sweeps, reports."""

import hashlib
import json

import pytest

from tricirc.families import FamilyParams, prism, r_star, t3, x_graph, y_graph
from tricirc.symmetry import (
    are_isomorphic,
    canonical_form,
    girth,
    is_vertex_transitive,
    uniform_local_profile,
)
from tricirc.verify import (
    _funnel,
    _passes_vt_screen,
    check_t1_conditions,
    classification_sweep,
    lemma_spot_checks,
    report_emit,
    small_census,
    sweep_one_k,
    walk_table,
)
from tricirc.voltage import NonSimpleCover, derived_cover


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
    from dataclasses import asdict
    rows = [repr(asdict(check_t1_conditions(k, r, s)))
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


def test_census_headline_numbers():
    ct = small_census(48)
    assert len(ct.entries) == 20
    assert ct.per_order == {6: 2, 12: 2, 18: 4, 24: 1, 30: 5, 36: 1, 42: 4, 48: 1}
    assert ct.arc_transitive_orders == [6, 18, 30]


def test_census_named_entries():
    ct = small_census(48)
    k33 = ct.entry_named("K_{3,3}")
    assert k33 is not None and k33.order == 6 and k33.arc_transitive
    assert k33.types == (3,)
    pappus = ct.entry_named("Pappus graph")
    assert pappus is not None and pappus.order == 18 and pappus.arc_transitive
    tutte = ct.entry_named("Tutte 8-cage")
    assert tutte is not None and tutte.order == 30
    assert tutte.types == (4,)


def test_census_multi_type_entry_is_the_triangular_prism():
    ct = small_census(6)
    multi = [e for e in ct.entries if len(e.types) > 1]
    assert len(multi) == 1
    assert multi[0].types == (1, 3)
    assert multi[0].canonical == canonical_form(prism(3)).decode()


def test_census_respects_max_order():
    ct = small_census(24)
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


# sha256 of report_emit([sweep_one_k(k)]), recorded before the funnel decided
# vertex-transitivity by rooted extension: part of the 9..50 gate, in about
# a second. Each k took under 0.6 s on a 2-core Xeon with Python 3.11.
SWEEP_DIGESTS = {
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
                screened = _passes_vt_screen(params.voltages())
                assert screened == uniform_local_profile(g), (t, k, r, s)
                if not (uniform_local_profile(g) and is_vertex_transitive(g)):
                    continue
                classes.setdefault(canonical_form(g).decode("ascii"), set()).add(t)
    return classes


def test_representatives_give_the_classes_of_the_full_grid():
    for k in range(1, 11):
        _, classes = _funnel(k)
        got = {canon: slot["types"] for canon, slot in classes.items()}
        assert got == _full_grid_classes(k), k


def test_funnel_builds_only_the_screened_covers(monkeypatch):
    # Every connected cover is screened, and a cover is built only when it
    # is vertex-transitive and matches no family graph: none at k = 9, so
    # the only covers built are X(9) and Y(9) themselves.
    from tricirc import families, verify

    def recorded(fn, results):
        def wrapper(va):
            results.append(fn(va))
            return results[-1]
        return wrapper

    built, screened = [], []
    monkeypatch.setattr(families, "derived_cover",
                        recorded(families.derived_cover, built))
    monkeypatch.setattr(verify, "_passes_vt_screen",
                        recorded(verify._passes_vt_screen, screened))
    counts, _ = _funnel(9)
    assert len(screened) == sum(counts["connected"].values())
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
    _, classes = _funnel(5)
    assert [va.zeta for va in built] == [
        FamilyParams(t, 5, r, s).voltages().zeta
        for t, r, s in ((1, r_star(5), 1), (2, 2, 1), (4, 1, 3))
    ]
    cage = classes[canonical_form(derived_cover(built[2])).decode("ascii")]
    assert cage["params"] == [(4, 5, 1, 3)] and girth(cage["graph"]) == 8


def test_sweep_range_serial_vs_parallel():
    serial = classification_sweep(9, 10, workers=1)
    parallel = classification_sweep(9, 10, workers=2)
    assert [r.to_json_dict() for r in serial] == [r.to_json_dict() for r in parallel]


def test_sweep_guard():
    with pytest.raises(ValueError):
        classification_sweep(9, 51)    # 6*51 > 300
    with pytest.raises(ValueError):
        small_census(306)


@pytest.mark.parametrize("workers", [0, -3])
def test_sweep_rejects_workers_below_one(workers):
    with pytest.raises(ValueError, match="workers"):
        classification_sweep(9, 9, workers=workers)


@pytest.mark.parametrize("order", [0, -6])
def test_census_below_order_six_is_refused(order):
    with pytest.raises(ValueError):
        small_census(order)


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


def test_report_emit_schema():
    reports = [sweep_one_k(9), small_census(12), lemma_spot_checks()]
    blob = report_emit(reports)
    doc = json.loads(blob)
    assert doc["schema"] == 1
    kinds = [r["kind"] for r in doc["reports"]]
    assert sorted(kinds) == kinds == ["census", "lemma_spot_checks", "sweep"]
    # deterministic serialization
    assert blob == report_emit(list(reversed(reports)))


def test_walk_table_header_symbols():
    wt = walk_table(2, 6, "u")
    names = {str(sv) for sv, _ in wt.rows()}
    assert "k+s" in names and "0" in names
