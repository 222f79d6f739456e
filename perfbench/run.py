"""tricirc benchmark: one workload per run, in one process, one worker.

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. A summary with
sample counts goes to stderr. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups repeat until there are SETUP_REPEATS and SETUP_SECONDS have passed.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
MIN_PASSES = 2
MODULES = ("cli", "families", "graph6", "graphs", "pregraph", "symmetry",
           "verify", "voltage")


class SetupError(RuntimeError):
    """The checkout has no importable package."""


def load_package() -> SimpleNamespace:
    """Import tricirc afresh from the checkout's src/, as a new CLI process
    would, and return its modules."""
    for name in [n for n in sys.modules if n == "tricirc" or n.startswith("tricirc.")]:
        del sys.modules[name]
    mods = SimpleNamespace(**{
        m: importlib.import_module(f"tricirc.{m}") for m in MODULES})
    if Path(mods.cli.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"tricirc imported from {mods.cli.__file__}, not {SRC}")
    return mods


def run_pass(mods, ops, checks, probe):
    """One pass with an empty search cache: returns (wall seconds, one
    (start, end, busy seconds) per operation, labels of the operations whose
    output mismatched, (cache hits, searches)). Busy time excludes the
    speed probes that ran during the operation."""
    gc.collect()
    mods.symmetry._search_cached.cache_clear()
    times, outputs = [], []
    start = perf_counter()
    for label, call in ops:
        spent = probe.spent
        t0 = perf_counter()
        try:
            out = call(mods)
        except Exception:  # an operation that raises counts as failed
            out = ("raised", traceback.format_exc())
        t1 = perf_counter()
        times.append((t0, t1, t1 - t0 - (probe.spent - spent)))
        outputs.append(out)
    wall = perf_counter() - start
    info = mods.symmetry._search_cached.cache_info()
    bad = [label for (label, _), out in zip(ops, outputs) if not checks(label, out)]
    return wall, times, bad, (info.hits, info.misses)


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated within the samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


class Run:
    def __init__(self, workload, seed, probe, repeat_setup):
        self.wl = WORKLOADS[workload]
        self.probe = probe
        plan_mods = load_package()
        self.plan = self.wl.plan(plan_mods, seed)
        del plan_mods
        self.setup_times = []
        start = perf_counter()
        while not self.setup_times or repeat_setup and (
                len(self.setup_times) < SETUP_REPEATS
                or perf_counter() - start < SETUP_SECONDS):
            # Free the previous set-up's modules, which hold reference
            # cycles, so that the peak RSS does not grow with the number of
            # set-ups, which depends on the host's speed.
            self.mods = self.inputs = None
            gc.collect()
            spent = probe.spent
            t0 = perf_counter()
            self.mods = load_package()
            self.inputs = self.wl.build(self.mods, self.plan)
            t1 = perf_counter()
            self.setup_times.append((t0, t1, t1 - t0 - (probe.spent - spent)))
        want = self.wl.expected(self.plan, self.inputs)
        self.ops = self.wl.ops(self.inputs)
        self.checks = lambda label, out: self.wl.check(label, want[label], out)
        self.attempted = 0
        self.failed = []
        self.problems = []

    def one_pass(self):
        wall, times, bad, cache = run_pass(self.mods, self.ops, self.checks,
                                           self.probe)
        self.attempted += len(times)
        self.failed += bad
        return wall, times, cache

    def traced_pass(self):
        tr = tracer.install(self.mods)
        try:
            wall, _, (hits, searches) = self.one_pass()
        finally:
            tr.unwrap()
        not_restored = tr.restored()
        if not_restored:
            self.problems.append(f"unwrap left wrappers on {not_restored}")
        return wall, tracer.layer_metrics(tr, searches, hits)

    def result(self, metrics):
        for p in self.problems:
            print(f"problem: {p}", file=sys.stderr)
        for label in sorted(set(self.failed)):
            print(f"mismatch: {label}", file=sys.stderr)
        return {"correct": not self.failed and not self.problems,
                "attempted": self.attempted, "failed": len(self.failed),
                "metrics": metrics}


def timed(run: Run, seconds: float) -> dict:
    """Untraced passes for about ``seconds``: the end-to-end metrics.

    Every time is at the reference speed of speed.py: the speed probe has
    run since before the set-ups, and is stopped here. ``wall_s`` is the sum
    over operations of each one's median time across passes."""
    walls, per_pass, caches = [], [], []
    start = perf_counter()
    while True:
        wall, times, cache = run.one_pass()
        walls.append(wall)
        per_pass.append(times)
        caches.append(cache)
        if len(walls) >= MIN_PASSES and perf_counter() - start + wall > seconds:
            break
    run.probe.stop()
    if len(set(caches)) != 1:
        run.problems.append(f"passes disagree on (cache hits, searches): {caches}")
    ref = lambda window: run.probe.reference_time(*window)
    per_pass = [[ref(w) for w in times] for times in per_pass]
    setups = [ref(w) for w in run.setup_times]
    op_times = [t for times in per_pass for t in times]
    speeds = run.probe.speeds
    print(f"{run.wl.name}: {len(walls)} passes, {len(op_times)} operations, "
          f"{len(setups)} set-ups, (cache hits, searches) per pass "
          f"{caches[0]}; pass walls {' '.join(f'{w:.3f}' for w in walls)} s "
          f"measured, {' '.join(f'{sum(p):.3f}' for p in per_pass)} s at "
          f"reference speed; {len(speeds)} speed probes, median speed "
          f"{statistics.median(speeds):.3f}", file=sys.stderr)
    return run.result({
        "setup_s": metric(statistics.median(setups), "s"),
        "wall_s": metric(sum(map(statistics.median, zip(*per_pass))), "s"),
        "op_p50_ms": metric(1000 * statistics.median(op_times), "ms"),
        "op_p90_ms": metric(1000 * quantile(op_times, 90), "ms"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    })


def counts_in_child(args):
    """Per-layer counts of one traced pass in a fresh process under another
    PYTHONHASHSEED; None if that process fails."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "1" if env.get("PYTHONHASHSEED") == "0" else "0"
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1", "--counts-only"]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if tracer.is_count(k)}


def traced(run: Run, args) -> dict:
    """Traced, untraced and traced passes: the per-layer metrics.

    The counts must repeat across the two traced passes and in a fresh
    process under another PYTHONHASHSEED. The overhead is the traced wall
    time minus the untraced one; the untraced pass sits between the traced
    ones so that a steady drift of the machine cancels."""
    first = run.traced_pass()
    plain_wall, _, plain_cache = run.one_pass()
    walls, layers = zip(first, run.traced_pass())
    if counts(layers[0]) != counts(layers[1]):
        run.problems.append("per-layer counts differ between two traced passes")
    if plain_cache != (layers[0]["ir.cache_hits"], layers[0]["ir.searches"]):
        run.problems.append("traced and untraced passes disagree on (cache hits, searches)")
    child = counts_in_child(args)
    if child is None:
        run.problems.append("the traced pass under another PYTHONHASHSEED failed")
    elif child != counts(layers[0]):
        diff = sorted(k for k in child if child[k] != layers[0].get(k))
        run.problems.append(f"per-layer counts differ under another PYTHONHASHSEED: {diff}")
    metrics = {}
    for name in layers[0]:
        unit = "s" if not tracer.is_count(name) else (
            "ratio" if name.endswith("_ratio") else "count")
        metrics[name] = metric(statistics.median(l[name] for l in layers), unit)
    trace_wall = statistics.median(walls)
    metrics["trace.wall_s"] = metric(trace_wall, "s")
    metrics["trace.overhead_s"] = metric(trace_wall - plain_wall, "s")
    print(f"{run.wl.name}: traced pass {trace_wall:.3f} s, untraced "
          f"{plain_wall:.3f} s, overhead {trace_wall - plain_wall:+.3f} s",
          file=sys.stderr)
    return run.result(metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--counts-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "tricirc" / "__init__.py").is_file():
        print(f"error: no tricirc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # verify --workers 1 is passed explicitly; the variable would also set it.
    os.environ.pop("TRICIRC_THREADS", None)
    # Only the untraced run times at reference speed; in a traced run the
    # probe would land inside the spans.
    probe = SpeedProbe()
    if not args.trace:
        probe.start()
    try:
        run = Run(args.workload, args.seed, probe, repeat_setup=not args.trace)
        if args.counts_only:
            _, layer = run.traced_pass()
            print(json.dumps(counts(layer)))
            return 0 if not run.failed and not run.problems else 1
        result = traced(run, args) if args.trace else timed(run, args.seconds)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        probe.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
