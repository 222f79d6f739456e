"""The three benchmark workloads.

Each workload has five methods:

- ``plan(mods, seed)``: choose the inputs from the seed. Untimed; it may use
  the package (the plan of ``iso_relabel`` builds candidate covers), but it
  returns plain data only.
- ``build(mods, plan)``: turn the plan into the program's inputs (graph6
  text, argument lists). Timed as part of ``setup_s``.
- ``expected(plan, inputs)``: the reference each operation's output must
  match. Untimed.
- ``ops(inputs)``: the operations of one pass, each a ``(label, call)``
  where ``call(mods)`` returns the output to check.
- ``check(label, want, output)``: whether an output matches its reference.

Every call goes through the package's module attributes at call time, so
the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
from itertools import product
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent


# -- running the CLI in-process -------------------------------------------------

def cli_call(argv: list[str], stdin_text: str = ""):
    """An operation that runs ``tricirc.cli.main(argv)`` with stdin fed from
    ``stdin_text``; its output is ``(exit code, stdout)``."""
    def call(mods):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = mods.cli.main(argv)
        finally:
            sys.stdin = saved
        return code, out.getvalue()
    return call


def digest(output) -> dict:
    code, text = output
    return {"exit": code, "sha256": hashlib.sha256(text.encode()).hexdigest()}


# -- verify_default ---------------------------------------------------------------

VERIFY_ARGV = ["verify", "--kmin", "9", "--kmax", "15", "--census",
               "--spot-checks", "--workers", "1"]
# sha256 of the report_emit JSON the default check prints at commit a3e4d25;
# the same under two PYTHONHASHSEED values.
VERIFY_SHA256 = "03f1811b87a0dacecaf6f47a3f55294ee60db8896cf78541794ca469d03d942a"


class VerifyDefault:
    name = "verify_default"

    def plan(self, mods, seed):
        return None

    def build(self, mods, plan):
        return list(VERIFY_ARGV)

    def expected(self, plan, inputs):
        return {"verify": {"exit": 0, "sha256": VERIFY_SHA256}}

    def ops(self, inputs):
        return [("verify", cli_call(inputs))]

    def check(self, label, want, output) -> bool:
        return digest(output) == want


# -- inspect_family ---------------------------------------------------------------

XY_KS = (9, 15, 25, 35, 49)
LADDER_KS = (9, 25, 49)
NECKLACE_BEADS = 10
REFERENCE_FILE = HERE / "reference_inspect.json"


def necklace(mods, beads: int):
    """A ring of K4-e beads: bead i is a, b, c, d = 4i..4i+3 without the edge
    c-d, and d of each bead joins c of the next. |Aut| = 2^beads * 2*beads:
    each bead flips (a <-> b) on its own, and the ring turns and reflects."""
    edges = []
    for i in range(beads):
        a, b, c, d = 4 * i, 4 * i + 1, 4 * i + 2, 4 * i + 3
        edges += [(a, b), (a, c), (a, d), (b, c), (b, d)]
        edges.append((d, (4 * (i + 1) + 2) % (4 * beads)))
    return mods.graphs.SimpleGraph(4 * beads, edges)


class InspectFamily:
    name = "inspect_family"

    def plan(self, mods, seed):
        return None

    def build(self, mods, plan):
        fam = mods.families
        g6 = lambda g: mods.graph6.encode_graph6(g).decode("ascii") + "\n"
        graphs = []
        for k in XY_KS:
            graphs += [(f"x_graph({k})", k, fam.x_graph(k)),
                       (f"y_graph({k})", k, fam.y_graph(k))]
        for k in LADDER_KS:
            graphs += [(f"prism({3 * k})", k, fam.prism(3 * k)),
                       (f"moebius({3 * k})", k, fam.moebius(3 * k))]
        inputs = []
        for label, k, g in graphs:
            text = g6(g)
            inputs.append((f"analyze {label}", ["analyze", "-"], text))
            inputs.append((f"quotient --order {2 * k} {label}",
                           ["quotient", "--order", str(2 * k), "-"], text))
        inputs.append(("analyze gp(24,5)", ["analyze", "-"], g6(fam.gp(24, 5))))
        inputs.append((f"analyze necklace({NECKLACE_BEADS})", ["analyze", "-"],
                       g6(necklace(mods, NECKLACE_BEADS))))
        for d in range(1, 5):
            inputs.append((f"walks --delta {d} --length 12",
                           ["walks", "--delta", str(d), "--length", "12"], ""))
        return inputs

    def expected(self, plan, inputs):
        """The seed's output digests, plus |Aut| where the literature or a
        closed form gives it: 4m for prism(m) and moebius(m), 288 for
        GP(24,5) (Frucht, Graver and Watkins 1971), 2^b * 2b for a necklace
        of b beads."""
        ref = json.loads(REFERENCE_FILE.read_text())
        want = {}
        for label, _, _ in inputs:
            want[label] = {"digest": ref[label], "aut_order": None}
        for k in LADDER_KS:
            for fam in ("prism", "moebius"):
                want[f"analyze {fam}({3 * k})"]["aut_order"] = 4 * 3 * k
        want["analyze gp(24,5)"]["aut_order"] = 288
        want[f"analyze necklace({NECKLACE_BEADS})"]["aut_order"] = (
            2 ** NECKLACE_BEADS * 2 * NECKLACE_BEADS)
        return want

    def ops(self, inputs):
        return [(label, cli_call(argv, text)) for label, argv, text in inputs]

    def check(self, label, want, output) -> bool:
        if digest(output) != want["digest"]:
            return False
        if want["aut_order"] is not None:
            return json.loads(output[1])["aut_order"] == want["aut_order"]
        return True


# -- iso_relabel -----------------------------------------------------------------

ISO_KS = range(8, 26)
ISO_TYPES = (1, 2, 3, 4)
# A few pairs per seed need ten times the search of a typical one; two pairs
# of each kind per (type, k) halve the seed's share of the run-to-run spread.
PAIRS_PER_KIND = 2
WALK_LENGTHS = 12
MAX_DRAWS = 2000


def walk_invariant(g, k: int):
    """Closed-walk counts of lengths 1..WALK_LENGTHS at each vertex, as a
    sorted tuple over the three fibres.

    The multiset of per-vertex count vectors is an isomorphism invariant. On
    a fibre-major cover the shift i -> i+1 in each fibre is an automorphism
    (checked here), so u_0, v_0 and w_0 stand for their fibres."""
    n, fibre = g.n, 2 * k
    adj = g.adjacency()
    shift = [f * fibre + (i + 1) % fibre for f in range(3) for i in range(fibre)]
    for a in range(n):
        if sorted(shift[b] for b in adj[a]) != sorted(adj[shift[a]]):
            raise AssertionError("fibre shift is not an automorphism")
    vectors = []
    for root in (0, fibre, 2 * fibre):
        x = [0] * n
        x[root] = 1
        counts = []
        for _ in range(WALK_LENGTHS):
            x = [sum(x[w] for w in adj[v]) for v in range(n)]
            counts.append(x[root])
        vectors.append(tuple(counts))
    return tuple(sorted(vectors))


class IsoRelabel:
    name = "iso_relabel"

    def _draw(self, mods, rng, t, k, used, reject=None):
        """Seeded (r, s) for a simple connected cover of type t, whose
        adjacency no earlier pick of this plan has, so every query misses
        the search cache."""
        params_type = mods.families.FamilyParams
        for _ in range(MAX_DRAWS):
            r = rng.randrange(2 * k)
            s = None if t == 3 else rng.randrange(2 * k)
            try:
                g = params_type(t, k, r, s).build()
            except mods.voltage.NonSimpleCover:
                continue
            if not g.is_connected() or g.adjacency() in used:
                continue
            if reject is not None and reject(g):
                continue
            used.add(g.adjacency())
            return (t, k, r, s), g
        raise RuntimeError(f"no usable type-{t} cover at k={k}")

    def plan(self, mods, seed):
        """PAIRS_PER_KIND isomorphic and as many non-isomorphic pairs per
        (type, k).

        Isomorphic: a cover and a seeded random relabelling of it.
        Non-isomorphic: a cover of type t and one of the next type at the
        same k, redrawn until walk_invariant tells them apart."""
        rng = random.Random(seed)
        used: set = set()
        pairs = []
        for k, t, _ in product(ISO_KS, ISO_TYPES, range(PAIRS_PER_KIND)):
            params, _ = self._draw(mods, rng, t, k, used)
            perm = list(range(6 * k))
            rng.shuffle(perm)
            pairs.append((params, perm, True))
            params_a, ga = self._draw(mods, rng, t, k, used)
            inv_a = walk_invariant(ga, k)
            params_b, _ = self._draw(
                mods, rng, t % 4 + 1, k, used,
                reject=lambda g: walk_invariant(g, k) == inv_a)
            pairs.append((params_a, params_b, False))
        rng.shuffle(pairs)
        return pairs

    def build(self, mods, plan):
        fam, g6 = mods.families, mods.graph6
        text = lambda g: g6.encode_graph6(g).decode("ascii")
        inputs = []
        for a, b, same in plan:
            ga = fam.FamilyParams(*a).build()
            gb = ga.relabel(b) if same else fam.FamilyParams(*b).build()
            inputs.append((text(ga), text(gb)))
        return inputs

    def expected(self, plan, inputs):
        return {f"pair {i}": same for i, (_, _, same) in enumerate(plan)}

    def ops(self, inputs):
        def pair(a, b):
            def call(mods):
                decode = mods.graph6.decode_graph6
                return mods.symmetry.are_isomorphic(decode(a), decode(b))
            return call
        return [(f"pair {i}", pair(a, b)) for i, (a, b) in enumerate(inputs)]

    def check(self, label, want, output) -> bool:
        return output is want


WORKLOADS = {w.name: w for w in (VerifyDefault(), InspectFamily(), IsoRelabel())}
