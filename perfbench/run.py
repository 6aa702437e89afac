"""eggp benchmark harness.

    python3 perfbench/run.py --workload so-recover --seed 0 --seconds 40 --trace 0

Runs one workload as a closed loop with a single client: one fresh Python
process per run, one run at a time, until ``--seconds`` are used.  Every run's
front is checked by ``check.py`` before its numbers count.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, the per-layer metrics of one traced run with ``--trace 1``.
A fuller record (every run, history hashes, environment) is written to
``perfbench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import check
import workloads
from tracer import read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / "perfbench_out"

# every run of an invocation ends within this many seconds of its start
HARD_LIMIT_S = 140.0
# fewest untraced runs per invocation, even when they overrun --seconds
MIN_SAMPLES = 3
# relative gap allowed between (layer self times + untraced remainder) and the
# traced wall time
TRACE_SUM_TOL = 0.03


class BenchError(RuntimeError):
    """A defect of the benchmark or its environment: no result is printed."""


@dataclass
class Sample:
    k: int
    seed: int
    traced: bool
    dir: Path
    t_spawn: float = 0.0
    wall_s: float = 0.0
    rc: Optional[int] = None
    peak_rss_mb: float = 0.0
    host_ms: float = 0.0
    report: dict = field(default_factory=dict)
    setup_s: float = 0.0
    error: Optional[str] = None
    checked: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None


def spawn(spec: dict, sample_dir: Path, timeout: float) -> tuple[float, float, int, float]:
    """Run the worker on ``spec``; return (spawn time, wall s, exit code, peak RSS MB)."""
    spec_path = sample_dir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(sample_dir / "log.txt", "wb") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(spec_path)],
            stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, proc.returncode, usage.ru_maxrss / 1024.0


def host_probe_ms() -> float:
    """Milliseconds for a fixed pure-Python loop, timed in the harness just
    before a run: the machine's own speed at that moment, which moves the
    run's timings without any change to the program."""
    t = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return (time.perf_counter() - t) * 1e3


def _log_tail(sample_dir: Path, lines: int = 6) -> str:
    text = (sample_dir / "log.txt").read_text(encoding="utf-8", errors="replace")
    return " | ".join(text.strip().splitlines()[-lines:])


def _setup_end(spans_path: Path) -> float:
    """When the first generation can start: entry into ``run``, or the end of
    the one ``EGraph.deserialize`` call when a history is loaded."""
    header, name_id, _, start, end = read_spans(spans_path)
    names = header["names"]
    ends = [start[i] for i in range(len(start)) if names[name_id[i]] == "search.run"][:1]
    ends += [end[i] for i in range(len(start)) if names[name_id[i]] == "egraph.deserialize"]
    if not ends:
        raise check.CheckError("run never entered eggp.search.run")
    return max(ends)


def run_sample(s: Sample, w: workloads.Workload, inputs: dict, src: Path, timeout: float) -> None:
    s.dir.mkdir(parents=True)
    spec = {
        "task": "run",
        "src": str(src),
        "workload": w.name,
        "seed": s.seed,
        "trace": s.traced,
        "out_dir": str(s.dir),
        "report": str(s.dir / "report.json"),
        "inputs": {k: str(v) for k, v in inputs.items()},
    }
    if w.entry == "cli":
        spec["argv"] = workloads.cli_argv(w, s.seed, inputs, s.dir)
    s.t_spawn, s.wall_s, s.rc, s.peak_rss_mb = spawn(spec, s.dir, timeout)
    if s.rc != 0:
        s.error = f"exit code {s.rc}: {_log_tail(s.dir)}"
        return
    s.report = json.loads((s.dir / "report.json").read_text(encoding="utf-8"))
    if s.report["generations_run"] != w.gens:
        s.error = f"ran {s.report['generations_run']} generations, expected {w.gens}"
        return
    try:
        s.setup_s = _setup_end(s.dir / "spans") - s.t_spawn
    except check.CheckError as exc:
        s.error = str(exc)


def check_sample(s: Sample, w: workloads.Workload, tables: dict) -> None:
    try:
        s.checked = check.check_front(
            s.dir / "front.csv", w.max_size, tables["train"], tables.get("test")
        )
    except (check.CheckError, OSError, KeyError, ValueError) as exc:
        s.error = f"output check: {exc}"


def build_seed_history(bench_seed: int, inputs: dict, work: Path, src: Path) -> dict:
    d = work / "seed-build"
    d.mkdir()
    spec = {
        "task": "build_seed",
        "src": str(src),
        "seed": bench_seed,
        "path": str(inputs["seed_egraph"]),
        "report": str(d / "report.json"),
    }
    _, wall, rc, _ = spawn(spec, d, HARD_LIMIT_S / 2)
    if rc != 0:
        raise BenchError(f"seed history build failed (exit {rc}): {_log_tail(d)}")
    info = json.loads((d / "report.json").read_text(encoding="utf-8"))
    info["process_s"] = wall
    return info


def warm_up(work: Path, src: Path) -> float:
    """One untimed import of eggp, so that byte-code compilation and a cold
    file cache are not charged to the first measured run."""
    d = work / "warmup"
    d.mkdir()
    spec = {"task": "warmup", "src": str(src), "report": str(d / "report.json")}
    _, wall, rc, _ = spawn(spec, d, HARD_LIMIT_S / 4)
    if rc != 0:
        raise BenchError(f"cannot import eggp from {src}: {_log_tail(d)}")
    return wall


# -- statistics ----------------------------------------------------------------


def tail_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples above it."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return None


def summarize(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "mean": statistics.fmean(values),
           "n": len(values), "min": min(values), "max": max(values)}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]}"] = tail[1]
    return out


# Search outcomes, as opposed to timings: reported as the mean over runs, not
# the median.  Per run they are lumpy (a run recovers a term or it does not),
# so a median jumps between the lumps.  Every run has the same number of
# generations and children, so the mean of unique_ratio pools every child.
QUALITY = ("best_r2_val", "unique_ratio")


def end_to_end(w: workloads.Workload, runs: list[Sample]) -> dict[str, list[float]]:
    """Per-run values of each end-to-end metric."""
    return {
        "wall_s": [s.wall_s for s in runs],
        "setup_s": [s.setup_s for s in runs],
        "evals_per_s": [w.budget / (s.wall_s - s.setup_s) for s in runs],
        "peak_rss_mb": [s.peak_rss_mb for s in runs],
        "best_r2_val": [s.checked["best_r2_val"] for s in runs],
        "unique_ratio": [statistics.fmean(s.report["unique_ratio_per_gen"]) for s in runs],
    }


def history_hashes(runs: list[Sample]) -> dict:
    by_seed: dict[int, set[str]] = {}
    for s in runs:
        by_seed.setdefault(s.seed, set()).add(s.report["history_hash"])
    repeated = {seed: len(h) for seed, h in by_seed.items()
                if sum(1 for s in runs if s.seed == seed) > 1}
    return {
        "distinct": len({s.report["history_hash"] for s in runs}),
        "runs": len(runs),
        "seeds": len(by_seed),
        "distinct_per_repeated_seed": repeated,
    }


# -- the traced run ------------------------------------------------------------

LAYERS = ("fitting", "expr", "egraph", "rules", "variation", "search", "data", "cli")


def analyze_trace(s: Sample, w: workloads.Workload, untraced: list[Sample]) -> dict:
    header, name_id, parent, start, end = read_spans(s.dir / "spans")
    names, counters = header["names"], header["counters"]
    n = len(start)
    child = [0.0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += end[i] - start[i]
    calls = dict.fromkeys(names, 0)
    incl = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    for i in range(n):
        name = names[name_id[i]]
        d = end[i] - start[i]
        calls[name] += 1
        incl[name] += d
        self_s[name] += d - child[i]

    missed = [name for name in w.must_hit if calls.get(name, 0) == 0]
    if missed:
        raise BenchError(f"traced run recorded no call to {missed}: a wrapper missed its call site")

    roots = sorted((start[i], end[i]) for i in range(n) if parent[i] < 0)
    covered, reach = 0.0, -float("inf")
    for a, b in roots:
        if b > reach:
            covered += b - max(a, reach)
            reach = b
    wall = s.report["t_end"] - s.t_spawn
    remainder = wall - covered
    total_self = sum(self_s.values())
    if abs(total_self + remainder - wall) > TRACE_SUM_TOL * wall or remainder < 0:
        raise BenchError(
            f"layer self times {total_self:.3f} s + untraced remainder {remainder:.3f} s "
            f"do not add up to the traced wall {wall:.3f} s"
        )

    m: dict[str, float] = {}
    for name in names:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = self_s[name]
        m[f"{name}.us_per_call"] = incl[name] / calls[name] * 1e6 if calls[name] else 0.0
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    evaluations = counters.get("search.evaluations", 0)
    m["fitting.optimizer.s"] = self_s["fitting.fit_params"]
    m["fitting.cache_hit_frac"] = 1.0 - frac(calls["fitting.fit_params"], evaluations)
    m["fitting.nonfinite_frac"] = frac(counters.get("search.nonfinite", 0), evaluations)
    m["fitting.runtime_warnings"] = counters.get("fitting.runtime_warnings", 0)
    m["expr.full.terminal_frac"] = frac(counters.get("expr.full.terminal", 0), calls["expr.full"])
    for op in ("egraph_crossover", "egraph_mutation"):
        m[f"variation.{op}.changed_frac"] = frac(
            counters.get(f"variation.{op}.changed", 0), calls[f"variation.{op}"]
        )
    m["rules.matches"] = counters.get("rules.matches", 0)
    m["rules.truncated_steps"] = counters.get("rules.truncated_steps", 0)
    graph = s.report["graph"]
    m["egraph.classes"] = graph["classes"]
    m["egraph.nodes"] = graph["nodes"]
    m["egraph.file_bytes"] = graph["file_bytes"]
    # against the untraced run of the same eggp seed, so that the overhead is
    # not mixed up with the spread between search trajectories
    same_seed = [u for u in untraced if u.seed == s.seed] or untraced
    untraced_wall = statistics.median(u.report["t_end"] - u.t_spawn for u in same_seed)
    m["trace.wall_s"] = wall
    m["trace.untraced_wall_s"] = untraced_wall
    m["trace.overhead_frac"] = (wall - untraced_wall) / untraced_wall
    m["trace.remainder_s"] = remainder
    return m


# -- reporting -----------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def print_report(w, args, samples, summaries, hashes, env, extra, layer_metrics) -> None:
    failed = [s for s in samples if not s.ok]
    print(f"eggp benchmark: workload {w.name}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}; budget {w.pop} x ({w.gens} + 1) = {w.budget} evaluations per run")
    print(f"runs: {len(samples)} attempted, {len(failed)} failed")
    for s in failed:
        print(f"  run {s.k} (seed {s.seed}{', traced' if s.traced else ''}) failed: {s.error}")
    for name, summary in summaries.items():
        tail = next((f"{k} {_fmt(v)}" for k, v in summary.items() if k.startswith("p")),
                    "no tail percentile (fewer than 20 runs)")
        lead = (f"mean {_fmt(summary['mean'])}, median {_fmt(summary['median'])}"
                if name in QUALITY else f"median {_fmt(summary['median'])}, {tail}")
        print(f"  {name:<13} {extra['units'][name]:>4}: {lead}, "
              f"range {_fmt(summary['min'])}..{_fmt(summary['max'])}, n {summary['n']}")
    if hashes:
        print(f"history hashes: {hashes['distinct']} distinct over {hashes['runs']} runs of "
              f"{hashes['seeds']} seeds; distinct per repeated seed {hashes['distinct_per_repeated_seed']}")
    if "seed_history" in extra:
        h = extra["seed_history"]
        print(f"seed history: {h['classes']} classes, {h['file_bytes']} bytes, "
              f"{h['expressions']} expressions, built in {_fmt(h['build_s'])} s")
    host = [s.host_ms for s in samples]
    print(f"host probe (fixed loop before each run): median {_fmt(statistics.median(host))} ms, "
          f"range {_fmt(min(host))}..{_fmt(max(host))}")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    if layer_metrics:
        print("traced run (self time s / calls / us per call):")
        selfs = sorted(((k[: -len(".s")], v) for k, v in layer_metrics.items()
                        if k.endswith(".s") and not k.startswith(("layer.", "fitting.optimizer"))),
                       key=lambda kv: -kv[1])
        for name, v in selfs:
            if layer_metrics.get(f"{name}.calls"):
                print(f"  {name:<36} {v:9.4f} {layer_metrics[f'{name}.calls']:>8} "
                      f"{layer_metrics[f'{name}.us_per_call']:12.1f}")
        for layer in LAYERS:
            print(f"  layer {layer:<30} {layer_metrics[f'layer.{layer}.self_s']:9.4f}")
        print(f"  traced wall {_fmt(layer_metrics['trace.wall_s'])} s against untraced "
              f"{_fmt(layer_metrics['trace.untraced_wall_s'])} s: overhead "
              f"{100 * layer_metrics['trace.overhead_frac']:.1f}%; untraced remainder "
              f"{_fmt(layer_metrics['trace.remainder_s'])} s")


def read_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def main(argv: Optional[list[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "eggp" / "__init__.py").is_file():
        raise BenchError(f"no eggp sources under {src}")
    bench = read_benchmark()
    w = workloads.WORKLOADS[args.workload]

    work = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, w, src, work, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, w: workloads.Workload, src: Path, work: Path, bench: dict) -> int:
    t_invoked = time.monotonic()
    declared = bench["per_layer" if args.trace else "end_to_end"]
    extra: dict = {"units": {m["name"]: m["unit"] for m in bench["end_to_end"]}}
    inputs = workloads.make_inputs(w, args.seed, work)
    extra["warmup_s"] = warm_up(work, src)
    if "seed_egraph" in inputs:
        extra["seed_history"] = build_seed_history(args.seed, inputs, work, src)

    samples: list[Sample] = []
    t0 = time.monotonic()
    deadline = t0 + args.seconds
    hard_stop = t_invoked + HARD_LIMIT_S
    while True:
        untraced = [s for s in samples if not s.traced]
        now = time.monotonic()
        if untraced:
            est = statistics.median(s.wall_s for s in untraced)
            enough = len(untraced) >= (1 if args.trace else MIN_SAMPLES)
            if now + est > (deadline if enough else hard_stop):
                break
        traced = bool(args.trace) and not samples
        k = len(untraced)
        s = Sample(k=k, seed=workloads.run_seed(args.seed, k), traced=traced,
                   dir=work / f"run{len(samples)}")
        s.host_ms = host_probe_ms()
        run_sample(s, w, inputs, src, max(1.0, hard_stop - now))
        samples.append(s)

    tables = {name: check.read_table(inputs[name]) for name in ("train", "test") if name in inputs}
    for s in samples:
        if s.ok:
            check_sample(s, w, tables)

    good = [s for s in samples if s.ok and not s.traced]
    if not good:
        raise BenchError("no run succeeded: " + "; ".join(str(s.error) for s in samples))
    summaries = {name: summarize(v) for name, v in end_to_end(w, good).items()}
    hashes = history_hashes([s for s in samples if s.ok])
    env = good[0].report["env"]

    layer_metrics: dict[str, float] = {}
    if args.trace:
        traced = samples[0]
        if not traced.ok:
            raise BenchError(f"the traced run failed: {traced.error}")
        layer_metrics = analyze_trace(traced, w, good)
        source = layer_metrics
    else:
        source = {name: summary["mean" if name in QUALITY else "median"]
                  for name, summary in summaries.items()}
    missing = [m["name"] for m in declared if m["name"] not in source]
    if missing:
        raise BenchError(f"BENCHMARK.json declares metrics this run does not produce: {missing}")

    print_report(w, args, samples, summaries, hashes, env, extra, layer_metrics)
    failed = sum(1 for s in samples if not s.ok)
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": time.monotonic() - t0,
        "environment": env,
        "summaries": summaries,
        "history_hashes": hashes,
        "per_layer": layer_metrics,
        "extra": extra,
        "runs": [
            {"k": s.k, "seed": s.seed, "traced": s.traced, "error": s.error,
             "wall_s": s.wall_s, "setup_s": s.setup_s, "peak_rss_mb": s.peak_rss_mb,
             "host_ms": s.host_ms,
             "unique_ratio_per_gen": s.report.get("unique_ratio_per_gen"),
             "history_hash": s.report.get("history_hash"), "front": s.checked}
            for s in samples
        ],
    }
    detail_path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    detail_path.write_text(json.dumps(detail, indent=1), encoding="utf-8")
    print(f"details: {detail_path.relative_to(ROOT)}")
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(2)
