"""The outputs of the `inspect_family` benchmark workload, pinned in Tier-1.

`perfbench/reference_inspect.json` holds the exit code and the sha256 of
stdout of 38 CLI calls: `analyze` and `quotient --order 2k` on x_graph(k)
and y_graph(k) for k = 9, 15, 25, 35, 49 and on prism(3k) and moebius(3k)
for k = 9, 25, 49, `analyze` on GP(24,5) and on a necklace of 10 beads, and
`walks --delta d --length 12` for d = 1..4. Every group answer of the
symmetry engine reaches these outputs: |Aut|, the orbits, the girth and
cycle counts, `k_circulant` and the quotient's automorphism. The file is
only read here.
"""

import hashlib
import io
import json
from pathlib import Path

from tricirc.cli import main
from tricirc.families import gp, moebius, prism, x_graph, y_graph
from tricirc.graph6 import encode_graph6

from test_group_reference import necklace

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference_inspect.json"


def inspect_calls():
    """(label, argv, stdin text) of each call, labelled as in the file."""
    graphs = []
    for k in (9, 15, 25, 35, 49):
        graphs += [(f"x_graph({k})", k, x_graph(k)), (f"y_graph({k})", k, y_graph(k))]
    for k in (9, 25, 49):
        graphs += [(f"prism({3 * k})", k, prism(3 * k)),
                   (f"moebius({3 * k})", k, moebius(3 * k))]
    text = lambda g: encode_graph6(g).decode("ascii") + "\n"
    calls = []
    for label, k, g in graphs:
        calls.append((f"analyze {label}", ["analyze", "-"], text(g)))
        calls.append((f"quotient --order {2 * k} {label}",
                      ["quotient", "--order", str(2 * k), "-"], text(g)))
    calls.append(("analyze gp(24,5)", ["analyze", "-"], text(gp(24, 5))))
    calls.append(("analyze necklace(10)", ["analyze", "-"], text(necklace(10))))
    for d in range(1, 5):
        calls.append((f"walks --delta {d} --length 12",
                      ["walks", "--delta", str(d), "--length", "12"], ""))
    return calls


def test_inspect_outputs_match_the_benchmark_reference(capsys, monkeypatch, time_limit):
    reference = json.loads(REFERENCE.read_text())
    calls = inspect_calls()
    assert sorted(label for label, _, _ in calls) == sorted(reference)
    got = {}
    with time_limit(30):
        for label, argv, stdin_text in calls:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
            code = main(argv)
            out = capsys.readouterr().out
            got[label] = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
    assert got == reference
