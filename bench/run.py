"""Benchmark of the folkman toolkit: four workloads against the public API and
the command line, every output checked.

    python3 bench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: it imports the package from the
checkout's `src/` and writes only under `.bench_run/` at the checkout root.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it
reports the per-layer metrics and writes its spans to
`.bench_run/trace-<workload>-seed<seed>.json`.  Each metric is printed on
its own line with its unit, and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md
in this directory for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
from tracing import Recorder, profile, reap_children

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("search", "parallel", "certify", "cli")
SETUP_PROBES = 15
CLI_PROBES = 15
MIN_PASSES = 3

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("cmd_ms_p50", "ms"), ("cmd_ms_p90", "ms"),
              ("peak_rss_mb", "MB")]

# Per-layer metrics fed by the summed duration of the benchmark's own spans
# around these public calls.
SPAN_METRICS = {
    "arrowing.busy_s": ("find_free_coloring",),
    "bounds.best_bounds_s": ("best_bounds",),
    "bounds.recurrences_s": ("check_recurrences",),
    "formats.parse_s": ("parse_graph6", "parse_edge_list"),
    "formats.serialize_s": ("serialize_graph6", "serialize_edge_list"),
    "witnesses.compose_s": ("compose_witness",),
    "witnesses.cert_roundtrip_s": ("format_certificate", "parse_certificate"),
    "witnesses.screen_s": ("load_external_witness",),
}


def per_layer_specs(case_names: list[str]) -> list[tuple[str, str]]:
    specs = [("arrowing.nodes", "count"), ("arrowing.busy_s", "s"),
             ("arrowing.nodes_per_s", "1/s"), ("arrowing.extend_ratio", "ratio")]
    specs += [(f"arrowing.nodes.{c}", "count") for c in case_names]
    specs += [(f"arrowing.s.{c}", "s") for c in case_names]
    specs += [("arrowing.parallel.worker_cpu_s", "s"), ("arrowing.parallel.main_wait_s", "s"),
              ("arrowing.parallel.speedup", "ratio"), ("arrowing.parallel.extra_nodes", "count"),
              ("arrowing.parallel.children_after", "count"),
              ("graphs.clique_calls", "count"), ("graphs.clique_self_s", "s"),
              ("graphs.max_clique_calls", "count"), ("graphs.max_clique_s", "s"),
              ("bounds.best_bounds_s", "s"), ("bounds.recurrences_s", "s"),
              ("bounds.composition_calls", "count"),
              ("formats.parse_s", "s"), ("formats.serialize_s", "s"), ("formats.bytes", "bytes"),
              ("witnesses.compose_s", "s"), ("witnesses.cert_roundtrip_s", "s"),
              ("witnesses.screen_s", "s"),
              ("cli.interp_ms", "ms"), ("cli.import_ms", "ms"), ("cli.handler_ms", "ms"),
              ("cli.exit_ms", "ms"), ("trace.overhead_s", "s")]
    return specs


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


@dataclass
class Pass:
    wall: float  # the whole pass, host-speed loop runs included
    cpu: float
    counts: dict
    latencies: list[float]  # every call, scaled
    raw_s: float  # the pass without the loop runs
    scaled_s: float  # the same, scaled to reference host speed


class Run:
    """One workload in one process: passes, their checks and their timings."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, rec) -> Pass:
        first, raw0, scaled0 = len(rec.latencies), rec.raw_s, rec.scaled_s
        cpu0, t0 = time.process_time(), time.perf_counter()
        rec.begin()
        with rec.group("pass"):
            outputs = self.wl.run_pass(rec)
            reap_children()
        rec.end()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        attempted, fails = self.wl.check(outputs)
        self.attempted += attempted
        self.failures += fails
        return Pass(wall, cpu, self.wl.counts(outputs), rec.latencies[first:],
                    rec.raw_s - raw0, rec.scaled_s - scaled0)

    def passes(self, rec, seconds: float) -> list[Pass]:
        """Whole passes until `seconds` have gone by, and at least MIN_PASSES."""
        out = []
        deadline = time.perf_counter() + seconds
        while len(out) < MIN_PASSES or time.perf_counter() < deadline:
            out.append(self.one_pass(rec))
        return out


def setup_probe(args) -> int:
    """Set the workload up once in this fresh interpreter and print the time."""
    start = time.perf_counter()
    import folkman  # noqa: F401  (its import is part of set-up)
    import workloads

    workloads.build(args.workload, args.seed, Path(args.setup_probe), SRC)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def measure_setup(args, scratch: Path, env) -> float:
    samples = []
    for i in range(SETUP_PROBES):
        ref = hostspeed.loop_s()
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                              "--workload", args.workload, "--seed", str(args.seed),
                              "--seconds", "0", "--setup-probe", str(scratch / f"probe{i}")],
                             env=env, capture_output=True, text=True, timeout=120, check=True)
        scale = hostspeed.scale(ref, hostspeed.loop_s())
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"] * scale)
    return statistics.median(samples)


def spawn_ms(cmd: list[str], env) -> float:
    """Spawn-to-exit milliseconds of one command, at reference host speed."""
    ref = hostspeed.loop_s()
    start = time.perf_counter()
    subprocess.run(cmd, env=env, capture_output=True, check=True, timeout=60)
    elapsed = time.perf_counter() - start
    return elapsed * 1000 * hostspeed.scale(ref, hostspeed.loop_s())


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb(wl) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if wl.spawns_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def end_to_end(args, run: Run, setup_s: float) -> dict[str, float]:
    """The end-to-end metrics; every time is scaled to the reference host speed."""
    run.one_pass(Recorder(False))  # warm-up
    timed = run.passes(Recorder(False), args.seconds)
    reap_children()
    print(f"# {len(timed)} passes of {len(timed[0].latencies)} calls; raw pass seconds "
          + " ".join(f"{p.raw_s:.4f}" for p in timed)
          + "; scaled " + " ".join(f"{p.scaled_s:.4f}" for p in timed), file=sys.stderr)
    # Every pass makes the same calls, so a percentile within a pass is taken
    # over one fixed mix of instances; its median over passes is the metric.
    return {"setup_s": setup_s, "pass_s": statistics.median(p.scaled_s for p in timed),
            "cmd_ms_p50": statistics.median(statistics.median(p.latencies) * 1000 for p in timed),
            "cmd_ms_p90": statistics.median(p90(p.latencies) * 1000 for p in timed),
            "peak_rss_mb": peak_rss_mb(run.wl)}


def per_layer(args, run: Run, case_names: list[str]) -> dict[str, float]:
    """The per-layer metrics; times are scaled to the reference host speed
    like the end-to-end ones, counts are as returned or profiled."""
    import workloads

    wl = run.wl
    metrics = {name: 0.0 for name, _u in per_layer_specs(case_names)}
    run.one_pass(Recorder(False))  # warm-up
    plain = run.passes(Recorder(False), args.seconds / 2)
    reap_children()
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    rec = Recorder(True)
    traced = run.passes(rec, args.seconds / 2)
    reap_children()
    children1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    rec.write(RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json")

    plain_s = statistics.median(p.scaled_s for p in plain)
    traced_s = statistics.median(p.scaled_s for p in traced)
    metrics["trace.overhead_s"] = traced_s - plain_s
    print(f"# pass_s untraced {plain_s:.6f} s, traced {traced_s:.6f} s", file=sys.stderr)

    for key in plain[0].counts:
        metrics[key] = statistics.median_low(p.counts[key] for p in plain)
    totals = [rec.totals(n) for n in range(1, rec.pass_no + 1)]
    for metric, names in SPAN_METRICS.items():
        metrics[metric] = statistics.median(sum(t.get((n, ""), 0.0) for n in names) for t in totals)
    for case in case_names:
        metrics[f"arrowing.s.{case}"] = statistics.median(
            t.get(("find_free_coloring", case), 0.0) for t in totals)
    if metrics["arrowing.busy_s"]:
        metrics["arrowing.nodes_per_s"] = metrics["arrowing.nodes"] / metrics["arrowing.busy_s"]

    if isinstance(wl, workloads.Cli):
        interp = statistics.median(spawn_ms([sys.executable, "-c", "pass"], wl.env)
                                   for _ in range(CLI_PROBES))
        imported = statistics.median(spawn_ms([sys.executable, "-c", "import folkman.cli"], wl.env)
                                     for _ in range(CLI_PROBES))
        cmd_ms = statistics.median(statistics.median(p.latencies) * 1000 for p in plain)
        metrics["cli.interp_ms"] = interp
        metrics["cli.import_ms"] = imported - interp
        metrics["cli.handler_ms"] = statistics.median(
            p.counts.get("cli.handler_ms", 0.0) * p.scaled_s / p.raw_s for p in plain)
        metrics["cli.exit_ms"] = cmd_ms - imported - metrics["cli.handler_ms"]
    else:
        metrics.update(profiled_pass(run))

    if isinstance(wl, workloads.Parallel):
        reference = Run(workloads.Search(args.seed, Path()))
        j1 = reference.passes(Recorder(False), 0)
        run.attempted += reference.attempted
        run.failures += reference.failures
        metrics["arrowing.parallel.speedup"] = (
            statistics.median(p.scaled_s for p in j1) / plain_s)
        metrics["arrowing.parallel.extra_nodes"] = (
            metrics["arrowing.nodes"] - statistics.median_low(p.counts["arrowing.nodes"] for p in j1))
        cpu = ((children1.ru_utime + children1.ru_stime)
               - (children0.ru_utime + children0.ru_stime))
        metrics["arrowing.parallel.worker_cpu_s"] = (
            cpu / len(traced) * statistics.median(p.scaled_s / p.raw_s for p in traced))
        metrics["arrowing.parallel.main_wait_s"] = statistics.median(
            (p.wall - p.cpu) * p.scaled_s / p.raw_s for p in traced)
        metrics["arrowing.parallel.children_after"] = (
            sum(wl.live_children) / len(wl.live_children))
    return metrics


def profiled_pass(run: Run) -> dict[str, float]:
    """One pass under cProfile, for call counts and self time of private
    functions.  Only the benchmark process is profiled, not pool workers."""
    holder = {}
    ref = hostspeed.loop_s()
    start = time.perf_counter()
    prof = profile(lambda: holder.setdefault("out", run.wl.run_pass(Recorder(False))))
    print(f"# profiled pass {time.perf_counter() - start:.6f} s", file=sys.stderr)
    scale = hostspeed.scale(ref, hostspeed.loop_s())
    reap_children()
    attempted, fails = run.wl.check(holder["out"])
    run.attempted += attempted
    run.failures += fails

    def stat(module: str, fn: str) -> tuple[int, float, float]:
        return prof.get((module, fn), (0, 0.0, 0.0))

    out = {"graphs.clique_calls": stat("graphs", "_mask_has_clique")[0],
           "graphs.clique_self_s": stat("graphs", "_mask_has_clique")[1] * scale,
           "graphs.max_clique_calls": stat("graphs", "max_clique")[0],
           "graphs.max_clique_s": stat("graphs", "max_clique")[2] * scale,
           "bounds.composition_calls": stat("bounds", "composition_bound")[0]}
    nodes = run.wl.counts(holder["out"]).get("arrowing.nodes", 0)
    if nodes:
        out["arrowing.extend_ratio"] = stat("arrowing", "_extend")[0] / nodes
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "folkman" / "__init__.py").is_file():
        print(f"error: no folkman sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("FOLKMAN_TABLE", None)
    if args.setup_probe:
        return setup_probe(args)

    import folkman
    if Path(folkman.__file__).resolve().parent != SRC / "folkman":
        print(f"error: imported folkman from {folkman.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    scratch = RUN_DIR / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.build(args.workload, args.seed, scratch / "inputs", SRC)
        run = Run(wl)
        case_names = [spec.name for spec in workloads.search_case_specs()]
        if args.trace:
            metrics = per_layer(args, run, case_names)
            specs = per_layer_specs(case_names)
        else:
            metrics = end_to_end(args, run, measure_setup(args, scratch, workloads.child_env(SRC)))
            specs = END_TO_END
    finally:
        reap_children()
        shutil.rmtree(scratch, ignore_errors=True)

    for msg in run.failures[:20]:
        print(f"# FAILED {msg}", file=sys.stderr)
    failed = len(run.failures)
    for name, unit in specs:
        print(f"{args.workload} {name} {metrics[name]!r} {unit}")
    print(f"{args.workload} fail_ratio {failed / run.attempted!r} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": unit}
                                  for name, unit in specs}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
