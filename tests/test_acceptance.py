"""Acceptance checklist.

One test per criterion; each prints a single PASS/FAIL line with elapsed
time before asserting, so a full run documents every outcome:

    pytest tests/test_acceptance.py -v -s

Criteria 6 and 12 assert corrected identities in place of two published
values that plain reckoning refutes, and their printed lines keep the
published values next to the computed ones:

- criterion 6: x(11) = gp(33,10) and x(13) = gp(39,14), each the only
  match over the whole skip range, replacing the published gp(33,12) and
  gp(39,12). Since 12^2 is not +-1 mod 33 or mod 39, neither of those is
  vertex-transitive (Frucht-Graver-Watkins), while x(11) and x(13) are.
- criterion 12: K_{3,3} has the single cover type (3,), replacing the
  published (1, 3). A fixed-point-free involution of K_{3,3} swaps the
  two sides, so every quotient is the triangle with three semi-edges; the
  only census graph with two types is the 3-prism, at order 6.
"""

import math
import random
import time

from test_families import cycle_lengths

from tricirc.families import (
    family_automorphism,
    gp,
    moebius,
    prism,
    r_star,
    t1,
    t2,
    t3,
    t4,
    torus_cycle_decomposition,
    x_graph,
    y_graph,
)
from tricirc.pregraph import delta, enumerate_cubic_pregraphs_3v, reduced_closed_walks
from tricirc.symmetry import (
    are_isomorphic,
    c_signature,
    canonical_form,
    cycle_counts,
    arc_orbit_count,
    find_k_circulant,
    girth,
    is_vertex_transitive,
)
from tricirc.verify import classification_sweep, small_census, walk_table
from tricirc.voltage import NonSimpleCover, derived_cover, zeta_for


def report(num, label, ok, t0, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f"  [{detail}]" if detail else ""
    print(f"criterion {num:>2} ({label}): {status} ({time.perf_counter() - t0:.1f}s){extra}")


def test_criterion_01_delta_catalogue():
    t0 = time.perf_counter()
    cat = enumerate_cubic_pregraphs_3v()
    ok = len(cat) == 4
    report(1, "delta catalogue", ok, t0)
    assert ok


TABLE_LEN8 = {
    (0, 0, 0): (12, 10), (0, 2, 0): (8, 8), (0, 0, 2): (8, 8),
    (0, 1, 1): (8, 4), (0, 1, -1): (8, 4), (1, 2, -1): (12, 10),
    (1, 1, -2): (12, 10), (1, 3, -2): (4, 6), (1, 2, -3): (4, 6),
    (0, 3, -1): (4, 6), (0, 1, -3): (4, 6), (0, 2, -2): (4, 6),
    (0, 4, -4): (0, 2),
}

TABLE_LEN7 = {
    (1, 2, -2): (8, 10), (1, 1, 1): (12, 8), (1, 2, 0): (6, 4),
    (1, 0, 2): (6, 4), (0, 3, -2): (2, 6), (0, 2, -3): (2, 6),
}

TABLE_LEN6 = {
    (0, 0, 0): (2, 0, 4), (1, 0, 1): (8, 8, 8), (1, 1, 1): (4, 4, 4),
    (1, 1, -1): (4, 4, 4), (0, 3, 0): (2, 0, 2), (0, 2, 0): (2, 0, 4),
    (0, 0, 6): (0, 2, 0), (0, 1, -2): (4, 6, 2), (0, 1, 2): (4, 6, 2),
}


def tally(delta_index, length, start):
    return {
        (sv.eps, sv.a, sv.b): cnt
        for sv, cnt in walk_table(delta_index, length, start).counts.items()
    }


def test_criterion_02_len8_walk_table():
    t0 = time.perf_counter()
    at_u, at_v = tally(1, 8, "u"), tally(1, 8, "v")
    bad = [
        trip for trip, (cu, cv) in TABLE_LEN8.items()
        if at_u.get(trip, 0) != cu or at_v.get(trip, 0) != cv
    ]
    report(2, "length-8 walk table, 13 rows", not bad, t0)
    assert not bad


def test_criterion_03_len7_walk_table():
    t0 = time.perf_counter()
    at_u, at_v = tally(1, 7, "u"), tally(1, 7, "v")
    ok = (
        set(at_u) == set(TABLE_LEN7) == set(at_v)
        and all(at_u[t] == cu and at_v[t] == cv for t, (cu, cv) in TABLE_LEN7.items())
    )
    report(3, "length-7 walk table, 6 rows", ok, t0)
    assert ok


def test_criterion_04_len6_walk_table():
    t0 = time.perf_counter()
    cols = {v: tally(2, 6, v) for v in ("u", "v", "w")}
    seen = set(cols["u"]) | set(cols["v"]) | set(cols["w"])
    ok = seen == set(TABLE_LEN6) and all(
        cols[c].get(t, 0) == want
        for t, counts in TABLE_LEN6.items()
        for c, want in zip(("u", "v", "w"), counts)
    )
    report(4, "length-6 walk table, 9 rows", ok, t0)
    assert ok


def test_criterion_05_x_family():
    t0 = time.perf_counter()
    bad = []
    for k in range(9, 22, 2):
        g = x_graph(k)
        if not (
            is_vertex_transitive(g)
            and girth(g) >= 5
            and c_signature(g, 0, 8) == (5, 5, 6)
        ):
            bad.append(k)
    report(5, "X family: transitive, girth, signature", not bad, t0)
    assert not bad


def test_criterion_06_gp_isomorphism():
    t0 = time.perf_counter()
    # m runs over 1..n/2, which covers every GP(n, m) since GP(n, m) = GP(n, n-m)
    hits = {
        11: [m for m in range(1, 17) if are_isomorphic(x_graph(11), gp(33, m))],
        13: [m for m in range(1, 20) if are_isomorphic(x_graph(13), gp(39, m))],
    }
    want = {k: [k - 1] if k % 3 == 2 else [k + 1] for k in hits}
    ok = hits == want
    found = {k: ",".join(str(m) for m in v) for k, v in hits.items()}
    detail = (
        f"published gp(33,12)/gp(39,12) refuted: 12^2 = {12 ** 2 % 33} mod 33,"
        f" {12 ** 2 % 39} mod 39, not +-1, so neither is vertex-transitive;"
        f" computed x(11)=gp(33,{found[11]}), x(13)=gp(39,{found[13]}):"
        f" skip is k+1 for k=1 mod 3, k-1 for k=2 mod 3"
    )
    report(6, "generalized Petersen parameters", ok, t0, detail)
    assert ok


def test_criterion_07_y_family():
    t0 = time.perf_counter()
    bad = []
    for k in range(9, 22, 2):
        g = y_graph(k)
        if not is_vertex_transitive(g):
            bad.append((k, "vt"))
        if cycle_counts(g, 3)[2] != 0:
            bad.append((k, "triangle"))
        dec = torus_cycle_decomposition(g, k)
        if [len(c) for c in dec.cycles] != [2 * k] * 3:
            bad.append((k, "torus"))
    if arc_orbit_count(y_graph(9)) != 1:
        bad.append((9, "arc"))
    report(7, "Y family: transitive, triangle-free, torus", not bad, t0)
    assert not bad


def test_criterion_08_bicirculant_claims():
    t0 = time.perf_counter()
    ok = True
    for g in (x_graph(11), y_graph(11)):
        p = find_k_circulant(g, 2)
        ok = ok and p is not None and cycle_lengths(p) == [33] * 2
    for k in (7, 11, 13):
        phi = family_automorphism("phi_t1_bic", k, r=r_star(k), s=1)
        ok = ok and cycle_lengths(phi) == [3 * k, 3 * k]
    phi9 = family_automorphism("phi_y", 9)
    ok = ok and cycle_lengths(phi9) == [9] * 6
    report(8, "bicirculant structure", ok, t0)
    assert ok


def test_criterion_09_type3_ladders():
    t0 = time.perf_counter()
    bad = []
    for k in range(9, 21):
        for r in range(2 * k):
            if math.gcd(k, r) != 1:
                continue
            g = t3(k, r)
            want = moebius(3 * k) if r % 2 else prism(3 * k)
            if not are_isomorphic(g, want):
                bad.append((k, r))
    report(9, "shift parity sorts ladders", not bad, t0)
    assert not bad


def test_criterion_10_no_type4_transitive():
    t0 = time.perf_counter()
    reports = classification_sweep(9, 15)
    offenders = [
        (rep.k, c.name)
        for rep in reports
        for c in rep.classes
        if 4 in c.types
    ]
    report(10, "no type-4 vertex-transitive covers", not offenders, t0)
    assert not offenders


def test_criterion_11_classification_sweep():
    t0 = time.perf_counter()
    reports = classification_sweep(9, 15)
    bad = []
    for rep in reports:
        if rep.anomalies:
            bad.append((rep.k, rep.anomalies))
        names = sorted(c.name or "?" for c in rep.classes)
        if rep.k % 2:
            want = sorted(
                [f"X({rep.k})", f"Y({rep.k})", f"moebius({3*rep.k})", f"prism({3*rep.k})"]
            )
        else:
            want = [f"moebius({3*rep.k})"]
        if names != want:
            bad.append((rep.k, names))
    report(11, "sweep finds exactly the known classes", not bad, t0)
    assert not bad


def test_criterion_12_small_census():
    t0 = time.perf_counter()
    ct = small_census(8)
    counts_ok = len(ct.entries) == 20 and ct.per_order == {
        6: 2, 12: 2, 18: 4, 24: 1, 30: 5, 36: 1, 42: 4, 48: 1
    }
    at_ok = sorted(e.order for e in ct.entries if e.arc_transitive) == [6, 18, 30]
    k33 = {e.name: e for e in ct.entries}.get("K_{3,3}")
    k33_ok = k33 is not None and k33.types == (3,)
    multi = [e for e in ct.entries if len(e.types) > 1]
    prism3 = canonical_form(prism(3)).decode()
    multi_ok = [(e.order, e.types, e.canonical) for e in multi] == [(6, (1, 3), prism3)]
    detail = (
        f"published K_{{3,3}} types (1, 3) refuted: its semiregular involutions"
        f" all swap the sides, so each quotient is delta(3);"
        f" computed K_{{3,3}} types {k33.types if k33 else None};"
        f" two-type entries {[e.types for e in multi]}"
        f" at order {[e.order for e in multi]}"
        f" ({'3-prism' if multi and multi[0].canonical == prism3 else 'not the 3-prism'})"
    )
    ok = counts_ok and at_ok and k33_ok and multi_ok
    report(12, "small census", ok, t0, detail)
    assert counts_ok and at_ok
    assert k33_ok and multi_ok


def test_criterion_13_property_suites(time_limit):
    with time_limit(60):  # it takes 3 to 5 s
        _criterion_13_property_suites()


def _criterion_13_property_suites():
    t0 = time.perf_counter()
    ok = True
    # cover size and valence
    for idx, r, s in [(1, 2, 1), (2, 2, 1), (3, 2, 0), (4, 1, 2)]:
        for k in (3, 5, 8, 11):
            try:
                g = derived_cover(zeta_for(idx, k, r=r, s=s))
            except NonSimpleCover:
                continue
            ok = ok and g.n == 6 * k and set(map(len, g.adjacency())) == {3}
    # walk inversion closure
    for idx in (1, 2, 3, 4):
        p = delta(idx)
        for length in (5, 6, 7):
            walks = {w.darts for w in reduced_closed_walks(p, 0, length)}
            ok = ok and all(
                tuple(p.inv[d] for d in reversed(w)) in walks for w in walks
            )
    # canonical invariance: 100 shuffles x 20 graphs
    rng = random.Random(2024)
    pool = [
        t1(5, 2, 1), t1(7, 2, 1), t1(9, 6, 1), t2(5, 2, 1), t2(7, 2, 1),
        t2(9, 2, 1), t3(5, 2), t3(7, 4), t4(5, 1, 2), t4(7, 1, 2),
        x_graph(9), y_graph(9), prism(9), moebius(9), gp(5, 2), gp(8, 3),
        gp(10, 2), gp(12, 5), prism(4), moebius(7),
    ]
    assert len(pool) == 20
    for g in pool:
        ref = canonical_form(g)
        for _ in range(100):
            perm = list(range(g.n))
            rng.shuffle(perm)
            if canonical_form(g.relabel(perm)) != ref:
                ok = False
                break
    # parameter identities for k <= 9
    for k in (5, 7, 9):
        n = 2 * k
        for r, s in [(2, 1), (4, 1), (6, 1), (2, 3)]:
            try:
                a = t1(k, r, s)
            except NonSimpleCover:
                continue
            ok = ok and are_isomorphic(a, t1(k, s, r))
            for u in (3, n - 1):
                if math.gcd(u, n) != 1:
                    continue
                try:
                    b = t1(k, (u * r) % n, (u * s) % n)
                except NonSimpleCover:
                    continue
                ok = ok and are_isomorphic(a, b)
        for r, s in [(2, 1), (2, 3)]:
            try:
                ta = t2(k, r, s)
                tb = t2(k, r, (n - s) % n)
            except NonSimpleCover:
                continue
            ok = ok and set(ta.edges()) == set(tb.edges())
        for r, s in [(1, 2), (3, 2)]:
            try:
                qa = t4(k, r, s)
            except NonSimpleCover:
                continue
            for r2, s2 in [((n - r) % n, s), (r, (n - s) % n), (s, r)]:
                try:
                    qb = t4(k, r2, s2)
                except NonSimpleCover:
                    continue
                ok = ok and are_isomorphic(qa, qb)
    report(13, "property suites", ok, t0)
    assert ok
