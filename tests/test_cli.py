"""Command line interface behaviors and exit codes."""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tricirc import families
from tricirc.cli import main
from tricirc.graph6 import decode_graph6, encode_graph6
from tricirc.families import x_graph


SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_graph6(capsys):
    code, out, _ = run(capsys, "gen", "--type", "1", "--k", "9", "--r", "6", "--s", "1")
    assert code == 0
    g = decode_graph6(out.strip())
    assert g.n == 54


def test_gen_named_families(capsys):
    code, out, _ = run(capsys, "gen", "--type", "x", "--k", "9")
    assert code == 0
    assert decode_graph6(out.strip()).n == 54
    code, out, _ = run(capsys, "gen", "--type", "prism", "--k", "12")
    assert code == 0
    assert decode_graph6(out.strip()).n == 24


def test_gen_edges_format(capsys):
    code, out, _ = run(capsys, "gen", "--type", "3", "--k", "1", "--r", "1",
                       "--format", "edges")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 9
    assert all(len(ln.split()) == 3 for ln in lines)   # u v tag


# sha256 of `gen --format edges` and `--format dot`, recorded while the
# graphs still carried per-vertex labels: the first nine also before covers
# and relabelled graphs were built from rows without the per-edge checks.
GEN_TEXT_DIGESTS = {
    ("1", "9", "2", "5"): (
        "2318ec9d5305a66de1ba11b2a251f42159561e3f00830c70709ea60d5f291a58",
        "01be5ded6df2b59ddf9bd22ab9c92bd1ba820f7b8ae2fc1d2d89f1bd1fdb4d88"),
    ("2", "9", "3", "1"): (
        "44a4027da0676d94a33c1c996a52644bebe0d924d8caae66c37bbdf1f0b571a6",
        "08826ea714f9099b32ed60daaefc79e3eb75884a4ec3059ce117d7a741344b2d"),
    ("3", "9", "2", None): (
        "300c3f07824d38f1c8e44a765c23f2b12244178e46a9383ead67827287135486",
        "9013724a36d1601c116e265aae2628126c495bd2ef6229270435b90bdcaba9c6"),
    ("4", "9", "1", "3"): (
        "4c196843b5aca2a42acb3a83932cde7f875b6b8561e48042a47be027d1972432",
        "ae19f37f1c317eeb05871313e00d281235c9441ed6488f579c9c5012e1874beb"),
    ("x", "9", None, None): (
        "d27b535acd67c9cc6eff1ba89dc75b05303e4ea334622f86cffe80957ece7ca7",
        "bff1032e5052edede80453dcf8ca239fbbdaa2b9f4f368f4ee6cf1fc3aefb174"),
    ("y", "9", None, None): (
        "28d1060fb99311b925535b3fb313da0bb8aa36f70d9874e87359d015e424d17f",
        "df947417ccb5cd71babf5b168e14dddabc98c76027cebbb0f073a52895ebc6b4"),
    ("prism", "9", None, None): (
        "89e09bfa84a0b7a7031f50bc244e311d19ee002f3f4f9b5f63b49b2c303088d9",
        "82483308986415cd051f8d76fb7091983761a9a1c6ba7e4789d15fdca2434d12"),
    ("moebius", "9", None, None): (
        "b7b0121e62da393d9c45c708146b48911548a455015d8e1cf64b4c938edd2552",
        "06cb2e57b4485df877c37dd489ac9d2524c2efa3ba86b4e419b2fadb94db7b2f"),
    ("gp", "12", "5", None): (
        "6dc0722535c2bfffb47623d82041f313dc3edbf3b54bb8f4e3a66c50669b9add",
        "38ed0a96212024c5c9b022ce31b40bc51b65de48da4437221189e6cedb0fb32d"),
    ("gp", "10", "7", None): (  # the step reduces to m = 3
        "790748338c6abf5e82c151c8d32188c81012d11d468c92f304375e4fd179a223",
        "f64ecbb31f97a04b417540206a5ce0bf556d07ddde115248edee26ed7b74d48c"),
    ("2", "10", "2", "3"): (  # even k: a fibre of 20
        "db742c97d3109911e746f45391a5d3234b35f61ac99acb5b99ed25a86e5e78d5",
        "2e188185cf3fed090c562c5524526e45025e82f7e7e42a593cd94f0c3d9e5bfb"),
    ("3", "1", "1", None): (  # a fibre of 2
        "44a4fa2609bcf9516bdc86fe0f14ff93e149e9664abb7ce9c5aa5006c14c2ccc",
        "afc57fd508bdce7b9969691a46748bd6f56c53a6002127b26b70c5cdc1544162"),
}


def _gen_case_id(params):
    """The type for its first case, the whole argument list for the rest."""
    first = next(p for p in GEN_TEXT_DIGESTS if p[0] == params[0])
    return params[0] if params == first else "-".join(filter(None, params))


@pytest.mark.parametrize("params", list(GEN_TEXT_DIGESTS), ids=_gen_case_id)
def test_gen_text_formats_are_pinned(capsys, params):
    kind, k, r, s = params
    argv = ["gen", "--type", kind, "--k", k]
    argv += ["--r", r] if r is not None else []
    argv += ["--s", s] if s is not None else []
    digests = []
    for fmt in ("edges", "dot"):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == GEN_TEXT_DIGESTS[params]


def test_gen_dot_format(capsys):
    code, out, _ = run(capsys, "gen", "--type", "y", "--k", "5", "--format", "dot")
    assert code == 0
    assert out.startswith("graph")
    assert '[label="u0"]' in out
    assert " -- " in out


def test_gen_missing_parameter_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--type", "1", "--k", "9", "--r", "6")
    assert code == 2
    assert "s" in err


@pytest.mark.parametrize("kind, flag", [
    ("3", "--s"), ("x", "--r"), ("prism", "--r"), ("gp", "--s"),
])
def test_gen_parameter_the_type_does_not_take_is_usage_error(capsys, kind, flag):
    argv = ["gen", "--type", kind, "--k", "9", flag, "4"]
    if kind in ("3", "gp"):
        argv += ["--r", "1"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert flag in err


def test_gen_disconnected_parameters_still_generate(capsys):
    code, out, _ = run(capsys, "gen", "--type", "1", "--k", "9", "--r", "6", "--s", "3")
    assert code == 0
    assert decode_graph6(out.strip()).is_connected() is False


def test_gen_non_simple_parameters_fail(capsys):
    code, _, err = run(capsys, "gen", "--type", "1", "--k", "9", "--r", "1", "--s", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv", [
    ("--type", "1", "--k", "100000", "--r", "1", "--s", "3"),
    ("--type", "x", "--k", "2001"),
    ("--type", "prism", "--k", "6001"),
    ("--type", "gp", "--k", "10000000", "--r", "5"),
])
def test_gen_above_the_order_bound_is_usage_error(capsys, time_limit, argv):
    # refused before the graph is built: order 6k, or 2k for prism/moebius/gp
    with time_limit(5):
        code, out, err = run(capsys, "gen", *argv)
    assert code == 2 and out == ""
    assert "gen bound" in err


def test_gen_order_bound_counts_ladder_vertices(capsys, time_limit):
    with time_limit(10):
        code, out, _ = run(capsys, "gen", "--type", "prism", "--k", "2001")
    assert code == 0
    assert decode_graph6(out.strip()).n == 4002


def test_analyze(tmp_path, capsys):
    p = tmp_path / "x.g6"
    p.write_bytes(encode_graph6(x_graph(9)) + b"\n")
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 54
    assert doc["vertex_transitive"] is True
    assert doc["girth"] == 8
    assert doc["cycles"]["8"]["signature"] == [5, 5, 6]
    assert doc["k_circulant"]["3"] is not None


def test_analyze_empty_graph_is_transitive(monkeypatch, capsys):
    # No vertices, edges or arcs: at most one orbit of each, as in
    # `is_vertex_transitive` and its siblings.
    monkeypatch.setattr("sys.stdin", io.StringIO("?\n"))
    code, out, _ = run(capsys, "analyze", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 0 and doc["aut_order"] == 1
    assert doc["vertex_orbit_count"] == doc["edge_orbit_count"] == doc["arc_orbit_count"] == 0
    assert doc["vertex_transitive"] is doc["edge_transitive"] is doc["arc_transitive"] is True


def test_analyze_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "analyze", "/nonexistent/missing.g6")
    assert code == 3


def test_analyze_bad_graph6_payload(tmp_path, capsys):
    p = tmp_path / "bad.g6"
    p.write_text("A\n")
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 3


def test_analyze_non_ascii_input_is_format_error(tmp_path, monkeypatch, capsys):
    p = tmp_path / "bad.g6"
    p.write_bytes(b"A\xc3\xa9\n")
    code, out, err = run(capsys, "analyze", str(p))
    assert code == 3 and out == "" and err.startswith("error:")
    monkeypatch.setattr("sys.stdin", io.StringIO("A\u00e9\n"))
    code, out, err = run(capsys, "analyze", "-")
    assert code == 3 and out == "" and err.startswith("error:")


def test_walks_table_output(capsys):
    code, out, _ = run(capsys, "walks", "--delta", "1", "--length", "8")
    assert code == 0
    lines = out.splitlines()
    assert any(ln.startswith("voltage") for ln in lines)
    assert any(ln.startswith("total") for ln in lines)
    rows = {ln.split()[0]: ln.split()[1:] for ln in lines
            if ln and not ln.startswith(("#", "voltage"))}
    assert rows["0"] == ["12", "10", "10"]
    assert rows["4r-4s"] == ["0", "2", "2"]
    assert rows["total"] == ["112", "106", "106"]


@pytest.mark.parametrize("length", ["19", "0"])
def test_walks_length_past_the_bound_is_usage_error(capsys, time_limit, length):
    # Length 19 would list every walk for about a minute before failing.
    with time_limit(5):
        code, out, err = run(capsys, "walks", "--delta", "1", "--length", length)
    assert code == 2 and out == ""
    assert err.startswith("error:")


WALKS_AT_THE_BOUND = {  # sha256 of `walks --delta d --length 18`
    1: "3160c58731deb4b6e707aa14d9fc07c30c35845c2b7937ada7a108b416b2933d",
    2: "362b2abd80e4c10a105acba187809c80d053e5f5802540be10ceb02872a67aea",
    3: "11ad1a63681ed5c965b899c0a0ccb0e34f2abacacb9032e7928f8f53d3744a66",
    4: "bd3551955789631cdd9dbbf2bef3e82f927ef8cb410299ae9338ea530aee7f98",
}


def test_walks_at_the_length_bound(capsys, time_limit):
    # The tables are counted, not listed: listing the walks of this
    # length took about 13 s.
    for d, digest in WALKS_AT_THE_BOUND.items():
        with time_limit(3):
            code, out, _ = run(capsys, "walks", "--delta", str(d), "--length", "18")
        assert code == 0
        assert out.startswith(f"# delta {d}, closed walks of length 18\n")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, d


def test_walks_single_start(capsys):
    code, out, _ = run(capsys, "walks", "--delta", "2", "--length", "6",
                       "--start", "v")
    assert code == 0
    rows = {ln.split()[0]: ln.split()[1:] for ln in out.splitlines()
            if ln and not ln.startswith(("#", "voltage"))}
    assert rows["6s"] == ["2"]


def test_verify_clean_run(capsys):
    code, out, _ = run(capsys, "verify", "--kmin", "9", "--kmax", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["reports"][0]["kind"] == "sweep"
    assert doc["reports"][0]["anomalies"] == []


def test_verify_with_census_and_checks(capsys):
    code, out, _ = run(capsys, "verify", "--kmin", "9", "--kmax", "9",
                       "--census", "--spot-checks")
    assert code == 0
    reports = json.loads(out)["reports"]
    kinds = [r["kind"] for r in reports]
    assert "census" in kinds and "lemma_spot_checks" in kinds
    # The census covers the orders below 6*kmin, the sweep the rest.
    assert reports[kinds.index("census")]["max_order"] == 48


def test_verify_census_names_f054a_below_kmin_ten(capsys):
    code, out, _ = run(capsys, "verify", "--kmin", "10", "--kmax", "10",
                       "--census")
    assert code == 0
    census = [r for r in json.loads(out)["reports"] if r["kind"] == "census"]
    assert census[0]["max_order"] == 54
    assert "F054A" in [e["name"] for e in census[0]["entries"]]


def test_verify_census_below_kmin_one_is_empty(capsys):
    code, out, _ = run(capsys, "verify", "--kmin", "1", "--kmax", "1",
                       "--census")
    assert code == 0
    census = [r for r in json.loads(out)["reports"] if r["kind"] == "census"]
    assert census == [{"kind": "census", "max_order": 0, "total": 0,
                       "per_order": {}, "entries": []}]


def test_verify_census_past_the_sweep_guard_is_usage_error(capsys, time_limit):
    # The sweep's guard refuses k = 51 (order 306) before any funnel runs,
    # the census's included.
    with time_limit(5):
        code, out, err = run(capsys, "verify", "--kmin", "51", "--kmax", "51",
                             "--census")
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("order", ["-6", "0"])
def test_verify_census_below_order_six_is_usage_error(capsys, order):
    # The census is indexed by --kmin, not by an order of its own: argparse
    # refuses --census-order at any value.
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--kmin", "9", "--kmax", "9", "--census",
              "--census-order", order])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "--census-order" in out.err


def test_verify_sweep_anomaly_sets_the_exit_code(capsys):
    # At k = 5 the Tutte 8-cage, t4(5, 1, 3), is a vertex-transitive class
    # that no family graph names, and a vertex-transitive type-4 instance:
    # two anomalies, and no spot check runs.
    code, out, _ = run(capsys, "verify", "--kmin", "5", "--kmax", "5")
    assert code == 1
    (report,) = json.loads(out)["reports"]
    unexpected, type4 = report["anomalies"]
    assert unexpected.startswith("unexpected vertex-transitive class ")
    assert unexpected.endswith(" from params [(4, 5, 1, 3)]")
    assert type4 == "type-4 instance is vertex-transitive: [(4, 5, 1, 3)]"


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_verify_workers_below_one_is_usage_error(capsys, workers):
    code, out, err = run(capsys, "verify", "--kmin", "9", "--kmax", "9",
                         "--workers", workers)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "workers" in err


def test_verify_default_check_output_is_pinned(capsys):
    code, out, _ = run(capsys, "verify", "--kmin", "9", "--kmax", "15",
                       "--census", "--spot-checks", "--workers", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "03f1811b87a0dacecaf6f47a3f55294ee60db8896cf78541794ca469d03d942a"
    )


def test_verify_guarded_range_output_is_pinned(capsys, time_limit):
    # The whole range the sweep's guard allows, on two processes: every
    # change to the funnel keeps it byte-identical.
    with time_limit(20):
        code, out, _ = run(capsys, "verify", "--kmin", "9", "--kmax", "50",
                           "--workers", "2")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a7a0452c1f8ad2628de58d10895baef68b57f8c5a11ff9f865de98ddfa3d1c98"
    )


# sha256 of stdout, recorded before the group functions read the search
# result themselves.
ANALYZE_DIGESTS = [
    ("x_graph", (9,), "73ac544eaf665d5de698bbfbada13c573e5274c9d4c40940afcbb9785a058bed"),
    ("y_graph", (9,), "2e2646b390472da26a58800fc3093755ed925251289f1d6fb08336809d592d2a"),
    ("prism", (27,), "2a4f3f0b6c91d9594d4fcac37fd75b892cae6dbda404763ef1a01ad48fb03bd9"),
    ("moebius", (27,), "a12c0dfe59a6770bbc3c2305cc0cf6416552f53e7c297e7f9967943b62745884"),
    ("gp", (24, 5), "4ee935975991fb6c5699b6af62fa9e8ee5bc9911408e0fa5a65da0450e89c866"),
]
QUOTIENT_DIGESTS = [
    ("x_graph", (9,), "a5ee2e4ee935a2ed7297f8ef7a4afe66b37a37e558b2aded9ba315049b9195f6"),
    ("y_graph", (9,), "bfba3c36ec43245d1247ef506a0c97fdd6236a7e3155c77b879396b19364d619"),
    ("t3", (9, 2), "3fb0c03b3d083ed83ce786cd6f4afe051b2862ab779a2a66871c26bef56b957c"),
    ("t4", (9, 1, 2), "37e9285681b7b50c3321d0d59b0aaa6d9ca9c4027857e5a65dbe1f07b633e245"),
]


def _family_file(tmp_path, family, params):
    p = tmp_path / "g.g6"
    p.write_bytes(encode_graph6(getattr(families, family)(*params)) + b"\n")
    return str(p)


@pytest.mark.parametrize("family,params,digest", ANALYZE_DIGESTS)
def test_analyze_output_is_pinned(tmp_path, capsys, family, params, digest):
    code, out, _ = run(capsys, "analyze", _family_file(tmp_path, family, params))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("family,params,digest", QUOTIENT_DIGESTS)
def test_quotient_output_is_pinned(tmp_path, capsys, family, params, digest):
    code, out, _ = run(capsys, "quotient", "--order", "18",
                       _family_file(tmp_path, family, params))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_iso_exit_codes(tmp_path, capsys):
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    c = tmp_path / "c.g6"
    from tricirc.families import gp
    a.write_bytes(encode_graph6(gp(7, 2)))
    b.write_bytes(encode_graph6(gp(7, 3)))
    c.write_bytes(encode_graph6(gp(7, 1)))
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0 and out.strip() == "isomorphic"
    code, out, _ = run(capsys, "iso", str(a), str(c))
    assert code == 1 and out.strip() == "not isomorphic"


def test_iso_refuses_an_input_of_several_graphs(tmp_path, capsys):
    from tricirc.families import gp
    one = tmp_path / "one.g6"
    two = tmp_path / "two.g6"
    one.write_bytes(encode_graph6(gp(7, 2)) + b"\n")
    two.write_bytes(b"\n".join([encode_graph6(gp(7, 3)), encode_graph6(gp(7, 1))]))
    for argv in ([str(one), str(two)], [str(two), str(one)]):
        code, out, err = run(capsys, "iso", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and str(two) in err


def test_iso_above_the_size_guard_is_usage_error(tmp_path, capsys, time_limit):
    from tricirc.graphs import SimpleGraph
    c601 = SimpleGraph(601, [(i, (i + 1) % 601) for i in range(601)])
    a = tmp_path / "a.g6"
    b = tmp_path / "b.g6"
    a.write_bytes(encode_graph6(c601))
    b.write_bytes(encode_graph6(c601.relabel(list(reversed(range(601))))))
    with time_limit(5):
        code, out, err = run(capsys, "iso", str(a), str(b))
    assert code == 2 and out == ""
    assert "size guard" in err


def test_quotient_prints_pregraph(tmp_path, capsys):
    p = tmp_path / "y.g6"
    from tricirc.families import t2
    p.write_bytes(encode_graph6(t2(5, 2, 1)))
    code, out, _ = run(capsys, "quotient", str(p), "--order", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "pregraph 3 9"
    assert lines[1] == "group Z10"
    assert len([ln for ln in lines if ln.startswith("dart ")]) == 9


def test_quotient_refuses_an_input_of_several_graphs(tmp_path, capsys):
    from tricirc.families import gp, t2
    p = tmp_path / "two.g6"
    p.write_bytes(b"\n".join([encode_graph6(t2(5, 2, 1)), encode_graph6(gp(7, 1))]))
    code, out, err = run(capsys, "quotient", str(p), "--order", "10")
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"{p} holds 2 graphs, not one" in err


def test_quotient_without_matching_symmetry(tmp_path, capsys):
    from tricirc.graphs import SimpleGraph
    # the paw's only symmetry swaps two vertices and fixes the other two
    p = tmp_path / "p.g6"
    p.write_bytes(encode_graph6(SimpleGraph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])))
    code, out, _ = run(capsys, "quotient", str(p), "--order", "2")
    assert code == 1


def test_quotient_of_the_empty_graph_is_usage_error(tmp_path, capsys):
    # 1 divides 0, so the order is no reason: the graph has no vertex
    p = tmp_path / "empty.g6"
    p.write_bytes(b"?")
    code, out, err = run(capsys, "quotient", "--order", "1", str(p))
    assert code == 2 and out == ""
    assert err == "error: empty graph\n"


def test_quotient_group_past_the_cap_is_usage_error(tmp_path, capsys):
    from tricirc.families import prism
    p = tmp_path / "p9.g6"
    p.write_bytes(encode_graph6(prism(9)))
    code, out, err = run(capsys, "quotient", "--order", "9", "--cap", "3", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_analyze_group_past_the_cap(tmp_path, capsys, time_limit):
    from tricirc.families import t3
    p = tmp_path / "t3.g6"
    p.write_bytes(encode_graph6(t3(12, 6)))
    with time_limit(10):
        code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    report = json.loads(out)
    assert report["aut_order"] == 137_594_142_720
    assert report["k_circulant"] == dict.fromkeys(("1", "2", "3"), "cap_exceeded")


def test_quotient_of_a_complete_graph_against_the_cap(tmp_path, capsys, time_limit):
    from tricirc.graphs import SimpleGraph
    p = tmp_path / "k24.g6"
    p.write_bytes(encode_graph6(
        SimpleGraph(24, [(a, b) for a in range(24) for b in range(a + 1, 24)])
    ))
    with time_limit(10):
        code, out, err = run(capsys, "quotient", "--order", "12", str(p))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    with time_limit(10):
        code, out, _ = run(capsys, "quotient", "--order", "12",
                           "--cap", str(10**30), str(p))
    assert code == 0
    assert out.splitlines()[:2] == ["pregraph 2 46", "group Z12"]


@pytest.mark.parametrize("n", [24, 40])
def test_analyze_complete_graph(tmp_path, capsys, time_limit, n):
    # Cycles are counted at one edge per edge orbit; listing them all took
    # about 4 s on K_24 and grows as n^5.
    from math import factorial
    from tricirc.graphs import SimpleGraph
    p = tmp_path / f"k{n}.g6"
    p.write_bytes(encode_graph6(
        SimpleGraph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])
    ))
    with time_limit(3):
        code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    assert json.loads(out)["aut_order"] == factorial(n)


def _count_chains(monkeypatch) -> list:
    """The order of each stabiliser chain built from here on, from an empty
    search cache."""
    from tricirc import symmetry
    built = []
    original = symmetry._stabiliser_chain

    def counted(n, gens, base, order=None):
        built.append(n)
        return original(n, gens, base, order)

    monkeypatch.setattr(symmetry, "_stabiliser_chain", counted)
    symmetry._search_cached.cache_clear()
    return built


def test_one_stabiliser_chain_per_graph(tmp_path, capsys, monkeypatch):
    from tricirc import symmetry
    from tricirc.families import prism, y_graph
    built = _count_chains(monkeypatch)
    p = tmp_path / "x9.g6"
    p.write_bytes(encode_graph6(x_graph(9)))
    code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    order = json.loads(out)["aut_order"]
    assert run(capsys, "quotient", "--order", "18", str(p))[0] == 0
    assert built == [54]
    # |Aut| comes from the search: group_order builds no chain.
    symmetry._search_cached.cache_clear()
    assert symmetry.group_order(x_graph(9)) == order
    assert built == [54]
    g = y_graph(9)
    h = g.relabel(list(reversed(range(g.n))))
    assert symmetry.are_isomorphic(g, h)
    symmetry.canonical_form(prism(9))
    assert built == [54]


def test_analyze_cap_below_the_order_builds_no_chain(tmp_path, capsys, monkeypatch):
    built = _count_chains(monkeypatch)
    p = tmp_path / "x9.g6"
    p.write_bytes(encode_graph6(x_graph(9)))
    code, out, _ = run(capsys, "analyze", "--cap", "1", str(p))
    assert code == 0
    assert json.loads(out)["k_circulant"] == {
        "1": "cap_exceeded", "2": "cap_exceeded", "3": "cap_exceeded"}
    assert built == []


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_analyze_cap_below_one_is_usage_error(tmp_path, capsys, cap):
    # --cap 0 once reported every cycle length and k-circulant as cap_exceeded
    p = tmp_path / "x9.g6"
    p.write_bytes(encode_graph6(x_graph(9)))
    code, out, err = run(capsys, "analyze", "--cap", cap, str(p))
    assert code == 2 and out == ""
    assert err == "error: --cap must be at least 1\n"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_quotient_cap_below_one_is_usage_error(tmp_path, capsys, cap):
    # every group has an element, so "more than -5 elements" was no reason
    from tricirc.families import prism
    p = tmp_path / "p5.g6"
    p.write_bytes(encode_graph6(prism(5)))
    code, out, err = run(capsys, "quotient", "--order", "5", "--cap", cap, str(p))
    assert code == 2 and out == ""
    assert err == "error: --cap must be at least 1\n"


def test_usage_error_for_unknown_type(capsys):
    # argparse choice validation exits with the usage code
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--type", "7", "--k", "9"])
    assert exc.value.code == 2
    capsys.readouterr()


def _random_regular_graph(n, degree, seed):
    """A simple degree-regular graph from seeded random pairings."""
    import random
    from tricirc.graphs import SimpleGraph
    rng = random.Random(seed)
    while True:
        ends = [v for v in range(n) for _ in range(degree)]
        rng.shuffle(ends)
        edges = {(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2])}
        if len(edges) * 2 == len(ends) and all(a != b for a, b in edges):
            return SimpleGraph(n, edges)


def test_analyze_cycles_at_the_bound(tmp_path, capsys, time_limit):
    # Each extra cycle length costs about three times the one before on
    # this graph; --cycles 8 takes about 10 s.
    p = tmp_path / "r4.g6"
    p.write_bytes(encode_graph6(_random_regular_graph(600, 4, 3)) + b"\n")
    with time_limit(10):
        code, out, _ = run(capsys, "analyze", "--cycles", "6", str(p))
    assert code == 0
    report = json.loads(out)
    assert report["aut_order"] == 1
    assert len(report["cycles"]) == 7


def test_analyze_cycle_count_stops_at_the_cap(tmp_path, capsys, time_limit):
    # G(200, 1/2): every edge is its own orbit, and the simple paths back
    # to one edge number about 10^4 at c = 4 and 10^6 at c = 5. Counting
    # c = 3..5 did not finish in 60 s before the step budget; the default
    # --cap stops it in about 1 s.
    import random
    from tricirc.graphs import SimpleGraph
    rng = random.Random(1)
    n = 200
    g = SimpleGraph(n, [(a, b) for a in range(n) for b in range(a + 1, n)
                        if rng.random() < 0.5])
    p = tmp_path / "dense.g6"
    p.write_bytes(encode_graph6(g) + b"\n")
    with time_limit(10):
        code, out, _ = run(capsys, "analyze", str(p))
    assert code == 0
    report = json.loads(out)
    assert report["girth"] == 3
    assert report["cycles"] == "cap_exceeded"


@pytest.mark.parametrize("extra", ["7", "-1"])
def test_analyze_cycles_outside_the_bound_is_usage_error(tmp_path, capsys,
                                                         time_limit, extra):
    p = tmp_path / "x.g6"
    p.write_bytes(encode_graph6(x_graph(9)) + b"\n")
    with time_limit(5):
        code, out, err = run(capsys, "analyze", "--cycles", extra, str(p))
    assert code == 2 and out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    *(["-c", f"import tricirc.{m}"] for m in (
        "graphs", "pregraph", "voltage", "graph6", "symmetry", "families",
        "verify", "cli")),
    ["-m", "tricirc.cli", "--help"],
], ids=lambda argv: argv[-1])
def test_each_module_imports_on_its_own(argv):
    """The package root imports nothing, so a fresh process that imports one
    module is the test that no import cycle runs through it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
