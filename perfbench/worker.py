"""One benchmark process: run one workload once, or build a seed history.

    python3 perfbench/worker.py <spec.json>

The harness spawns this in a fresh interpreter per run, so interpreter start,
``import eggp`` and input parsing are part of what it measures.  The spec
names the checkout's ``src`` directory; eggp is imported from there only.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import platform
import sys
import time
from pathlib import Path

import workloads

BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        # without cached byte-code every run compiles eggp inside setup_s
        "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        "machine": platform.machine(),
    }


def _import_eggp(src: str) -> None:
    sys.path.insert(0, src)
    import eggp

    if Path(eggp.__file__).resolve().parent != (Path(src) / "eggp").resolve():
        raise ImportError(f"eggp was imported from {eggp.__file__}, not from {src}")


def build_seed_history(spec: dict) -> dict:
    """Seeded random trees go through the public e-graph API exactly as the
    search inserts a child: add, one saturation step, mark evaluated."""
    t0 = time.monotonic()
    import numpy as np
    from eggp import EGraph, GenConfig, default_rules, full, grow, saturate_one_step

    rng = np.random.default_rng(spec["seed"])
    cfg = GenConfig(
        max_depth=workloads.SEED_MAX_DEPTH,
        max_size=workloads.SEED_MAX_SIZE,
        feature_count=workloads.RESUME_FEATURES,
    )
    g = EGraph()
    rules = default_rules()
    inserted = 0
    while g.class_count < workloads.SEED_TARGET_CLASSES and inserted < workloads.SEED_MAX_EXPRS:
        e = (grow if inserted % 2 == 0 else full)(cfg, rng)
        g.discard_pending()
        root = g.add_expr(e)
        saturate_one_step(g, rules, max_matches=workloads.SEED_MATCH_BUDGET)
        g.mark_evaluated(root)
        inserted += 1
    blob = g.serialize()
    Path(spec["path"]).write_bytes(blob)
    return {
        "build_s": time.monotonic() - t0,
        "expressions": inserted,
        "classes": g.class_count,
        "nodes": g.node_count,
        "evaluated": len(g.evaluated_classes()),
        "file_bytes": len(blob),
    }


def _write_front(path: Path, front) -> None:
    """The CLI's front.csv layout, for the library workload."""
    import csv

    from eggp.expr import substitute_params, to_string

    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["expression", "expression_theta", "size", "n_params",
                    "fitness_val_mse", "r2_train", "r2_val", "r2_test"])
        for ind in front:
            w.writerow([
                to_string(substitute_params(ind.expr, ind.params)),
                to_string(ind.expr),
                ind.size,
                len(ind.params),
                repr(ind.fitness),
                repr(ind.r2_train),
                repr(ind.r2_val),
                "",
            ])


def _history_hash(history) -> str:
    from eggp.expr import to_string

    h = hashlib.sha256()
    for ind in history:
        h.update(to_string(ind.expr).encode("utf-8"))
        h.update(b"\0")
        h.update(ind.params.tobytes())
        h.update(b"\1")
    return h.hexdigest()


def run_workload(spec: dict) -> dict:
    from tracer import Tracer, install_full_trace, install_setup_probe

    w = workloads.WORKLOADS[spec["workload"]]
    out = Path(spec["out_dir"])
    tracer = Tracer()
    if spec["trace"]:
        install_full_trace(tracer)
    else:
        install_setup_probe(tracer)

    import eggp.cli
    import eggp.data
    import eggp.search

    if w.entry == "library":
        data = eggp.data.load_csv(eggp.data.DataSpec(path=spec["inputs"]["train"]))
        cfg = eggp.search.RunConfig(
            pop_size=w.pop,
            generations=w.gens,
            max_size=w.max_size,
            max_depth=10,  # the CLI default, as on the CLI workloads
            mode="eggp_so",
            seed=spec["seed"],
        )
        result = eggp.search.run(cfg, data)
        t_end = time.monotonic()
        spans_at_end = tracer.span_count
        _write_front(out / "front.csv", result.front)
        history_hash = _history_hash(result.db.history)
        unique = [s.unique_ratio for s in result.stats[1:]]
    else:
        rc = eggp.cli.main(spec["argv"])
        t_end = time.monotonic()
        spans_at_end = tracer.span_count
        if rc != 0:
            raise RuntimeError(f"eggp.cli.main returned {rc}")
        result = tracer.kept["search.run"]
        history_hash = hashlib.sha256((out / "front.csv").read_bytes()).hexdigest()
        unique = _stats_unique_ratio(out / "stats.csv")

    report = {
        "t_end": t_end,
        "history_hash": history_hash,
        "unique_ratio_per_gen": unique,
        "generations_run": len(result.stats) - 1,
        "env": environment(),
    }
    if spec["trace"]:
        g = result.egraph
        saved = out / "saved.egg"
        report["graph"] = {
            "classes": g.class_count,
            "nodes": g.node_count,
            "file_bytes": saved.stat().st_size if saved.exists() else len(g.serialize()),
        }
    # the graph summary above calls traced methods; keep only the run's spans
    tracer.write(out / "spans", spans_at_end)
    return report


def _stats_unique_ratio(path: Path) -> list[float]:
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return [float(r["unique_ratio"]) for r in rows[1:]]


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    _import_eggp(spec["src"])
    if spec["task"] == "warmup":
        report = environment()
    elif spec["task"] == "build_seed":
        report = build_seed_history(spec)
    else:
        report = run_workload(spec)
    Path(spec["report"]).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
