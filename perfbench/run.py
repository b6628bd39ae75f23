"""crossbound benchmark: one workload, closed loop, one caller, one process.

    python3 perfbench/run.py --workload sk-search --seed 1 --seconds 35 --trace 0

Run it from the root of a source checkout: the package is imported from the
checkout's ``src/``, and the run fails if that directory is missing.

The host this was built on is a shared VM whose speed swings by up to 2x
within seconds and from one minute to the next, so raw wall times of the same
code spread by more than any bound between runs. Every time the benchmark
reports is therefore host-normalised: the loop times a fixed probe (networkx
planarity work on fixed graphs, the kind of work crossbound's hot paths do)
before the first item and after every item, divides each item's wall time by
the mean of the two probes around it, and scales by ``PROBE_REF_S``, the
probe's usual time on that VM. The result reads as seconds at that host
speed. Raw wall times go to standard error.

Set-up (imports, corpus generation from the seed, warm-up items) is timed
as ``setup_s``, normalised by probes run right after it: the median of this
process's set-up and of two more made the same way in fresh interpreters, run
one at a time before timing starts. Then whole passes over the corpus run
back to back until ``--seconds`` have passed, and at least one pass
completes. Every output is checked, and each item's output must repeat byte
for byte on every pass. An item's time is the median of its normalised times
over the passes; ``corpus_s`` sums these over the corpus, and ``item_s_p50``
and ``item_s_p90`` are taken over them.

The last line of standard output is one JSON object. With ``--trace 0`` it
holds the end-to-end metrics. With ``--trace 1`` untraced and traced passes
alternate, and it holds the per-layer metrics of the traced passes: work
counts from the first traced pass, which every later one must repeat, and
raw wall times as medians over them. The spans of the first traced pass are
written to ``.perfbench/`` and a per-layer self-time table goes to standard
error.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()
# One caller, no extra threads: numpy's BLAS would otherwise start a worker
# per CPU for the SVG layout's solve, and the worker's spin-wait after each
# solve slowed the rest of a route-large drawing by up to 1.6x whenever it
# shared a CPU with the caller.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
PROBE_REF_S = 0.02     # the probe's usual time on the 2-vCPU VM the bounds were set on
SETUP_PROBES = 5


def _import_package():
    src = ROOT / "src"
    if not (src / "crossbound" / "__init__.py").is_file():
        sys.exit(f"no crossbound sources under {src}; run from a source checkout")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import crossbound

    if Path(crossbound.__file__).resolve().parent != src / "crossbound":
        sys.exit(f"imported crossbound from {crossbound.__file__}, not from {src}")
    import tracing
    import workloads

    return tracing, workloads


class Probe:
    """A fixed piece of networkx work, timed to gauge the host's current speed.

    It builds a graph, tests a planar triangulated lattice and finds
    Kuratowski witnesses in the Petersen graph and K7: the networkx calls
    that take most of crossbound's time. It never touches crossbound, so no
    change to the program moves it.
    """

    def __init__(self):
        import networkx as nx

        self.nx = nx
        self.lattice = list(nx.triangular_lattice_graph(8, 8).edges())
        self.petersen = nx.petersen_graph()
        self.k7 = nx.complete_graph(7)

    def __call__(self) -> float:
        nx = self.nx
        t0 = time.perf_counter()
        nx.check_planarity(nx.Graph(self.lattice))
        nx.check_planarity(self.petersen, counterexample=True)
        nx.check_planarity(self.k7, counterexample=True)
        return time.perf_counter() - t0

    def normalise(self, seconds: float, probe_s: float) -> float:
        return seconds / probe_s * PROBE_REF_S


class Loop:
    """Runs, times and checks items, keeping each item's first output digest
    and its host-normalised and raw times, one per pass."""

    def __init__(self, tracer, size, probe):
        self.tracer = tracer
        self.probe = probe
        self.last_probe = None
        self.digests = {}
        self.times = [[] for _ in range(size)]   # per corpus item, normalised
        self.raw = [[] for _ in range(size)]     # the same, as raw wall times
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run_item(self, index, item) -> float:
        """Run, time and check one item; ``index`` None marks a warm-up item.

        A full garbage collection first gives every item the same start, as
        a fresh process would: otherwise an item pays, in some passes and not
        others, for collecting what earlier items left behind.
        """
        self.tracer.item = index
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = item.run()
        except Exception as exc:  # the program raised: the item fails, the run goes on
            elapsed = time.perf_counter() - t0
            error = f"raised {exc!r}"
        else:
            elapsed = time.perf_counter() - t0
            active, self.tracer.active = self.tracer.active, False
            error = item.check(out)
            if error is None and index is not None:
                digest = item.digest(out)
                if self.digests.setdefault(index, digest) != digest:
                    error = "output differs from the first pass"
            self.tracer.active = active
        if index is not None:
            self.raw[index].append(elapsed)
            self.attempted += 1
        if error is not None:
            self.errors.append(f"{item.name}: {error}")
            if index is not None:
                self.failed += 1
        return elapsed

    def run_pass(self, items, deadline) -> float | None:
        """Sum of the pass's raw item times, or None if the deadline cut it.

        The probe runs before the first item and after every item; each
        item's normalised time uses the mean of the probes on either side.
        The probe calls networkx directly, which the tracer does not wrap.
        """
        if self.last_probe is None:
            self.last_probe = self.probe()
        total = 0.0
        for index, item in enumerate(items):
            if deadline is not None and time.perf_counter() >= deadline:
                return None
            elapsed = self.run_item(index, item)
            after = self.probe()
            self.times[index].append(
                self.probe.normalise(elapsed, (self.last_probe + after) / 2))
            self.last_probe = after
            total += elapsed
        return total


def main(argv=None) -> int:
    tracing, workloads = _import_package()
    ap = argparse.ArgumentParser(description="crossbound benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the normalised set-up seconds and exit "
                         "(used to repeat set-up)")
    args = ap.parse_args(argv)

    tracer = tracing.Tracer()
    probe = Probe()
    items = workloads.corpus(args.workload, args.seed)
    loop = Loop(tracer, len(items), probe)
    for warm in workloads.warmup_items(args.workload):
        loop.run_item(None, warm)
    setup_raw = time.perf_counter() - START
    probe()   # its own first call pays lazy set-up inside networkx
    setups = [probe.normalise(setup_raw,
                              statistics.median(probe() for _ in range(SETUP_PROBES)))]
    if args.setup_only:
        print(setups[0])
        return 0
    if not args.trace:
        setups += [_setup_in_fresh_process(args) for _ in range(SETUP_REPEATS - 1)]

    untraced, traced, layer_runs = [], [], []

    def enough():
        return untraced and (traced or not args.trace)

    if args.trace:
        tracer.install()
    deadline = time.perf_counter() + args.seconds
    while True:
        tracing_pass = bool(args.trace) and len(untraced) > len(traced)
        if tracing_pass:
            tracer.begin_pass(record=not traced)
            tracer.active = True
        pass_s = loop.run_pass(items, deadline if enough() else None)
        tracer.active = False
        if pass_s is None:
            break
        if tracing_pass:
            traced.append(pass_s)
            layer_runs.append((tracer.metrics(), tracer.layer_self_times()))
        else:
            untraced.append(pass_s)
        if time.perf_counter() >= deadline and enough():
            break
    tracer.uninstall()

    correct = True
    if args.trace:
        metrics, correct = _layer_metrics(tracing, layer_runs, untraced, traced)
        tracer.write_spans(ROOT / ".perfbench" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        _print_self_times(layer_runs[0][1])
    else:
        best = [statistics.median(times) for times in loop.times]
        values = {
            "setup_s": (statistics.median(setups), "s"),
            "corpus_s": (sum(best), "s"),
            "item_s_p50": (statistics.median(best), "s"),
            "item_s_p90": (statistics.quantiles(best, n=10)[8], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
                            "MB"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    for line in loop.errors[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{loop.attempted} items run; {len(untraced)} untraced and "
          f"{len(traced)} traced passes of {len(items)} items; raw wall time of a pass: "
          f"sum of item medians {sum(statistics.median(r) for r in loop.raw):.4f} s, "
          f"of item minima {sum(min(r) for r in loop.raw):.4f} s", file=sys.stderr)
    print(json.dumps({"correct": correct and not loop.errors, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": metrics}))
    return 0


def _setup_in_fresh_process(args) -> float:
    """Set-up time of the same workload and seed in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def _layer_metrics(tracing, layer_runs, untraced, traced):
    """Per-layer metrics, and whether every traced pass repeated the work counts."""
    first = layer_runs[0][0]
    repeated = True
    for later, _ in layer_runs[1:]:
        for name in tracing.WORK_COUNTS:
            if later[name] != first[name]:
                print(f"FAILED work count {name} changed between passes: "
                      f"{first[name]} then {later[name]}", file=sys.stderr)
                repeated = False
    metrics = {}
    for name, unit in tracing.METRICS.items():
        value = (statistics.median(m[name] for m, _ in layer_runs) if unit == "s"
                 else first[name])
        metrics[name] = {"value": value, "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
    return metrics, repeated


def _print_self_times(times):
    total = sum(times.values()) or 1.0
    for layer, t in sorted(times.items(), key=lambda kv: -kv[1]):
        print(f"{layer:>11} self {t:9.4f} s {100 * t / total:5.1f} %", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
