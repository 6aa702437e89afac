"""The benchmark's workloads: their fixed budgets, their generated inputs and
the eggp entry points each one must reach.

Shared by the harness (``run.py``) and the per-process worker (``worker.py``).
Only the standard library is imported here, so the harness stays small and
never loads eggp itself.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "library" calls eggp.search.run; "cli" calls eggp.cli.main
    pop: int
    gens: int
    max_size: int
    # span names the traced run must see at least once
    must_hit: tuple[str, ...]

    @property
    def budget(self) -> int:
        """Individuals evaluated by one run: the initial batch plus one
        offspring batch per generation, whatever the fitness cache serves."""
        return self.pop * (self.gens + 1)


_COMMON_HITS = (
    "search.run",
    "fitting.fit_params",
    "fitting.valgrad",
    "expr.eval_rows",
    "expr.grow",
    "egraph.add_expr",
    "egraph.lookup_expr",
    "egraph.contains_with_context",
    "egraph.extract_smallest",
    "egraph.node_count",
    "rules.saturate_one_step",
    "variation.egraph_crossover",
    "variation.egraph_mutation",
    "search.tournament_select",
    "search.ParetoDB.pareto_front",
    "data.load_csv",
)

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # the criterion-6 shape (library run, eggp-so): dispatch-bound fits on
        # 80 fit rows, and size 20 / depth 10 send expr.full into rejection.
        # Five generations: with fewer, the initial population's rejection
        # sampling outweighs fitting, unlike in a full-length run
        Workload(
            name="so-recover",
            entry="library",
            pop=200,
            gens=5,
            max_size=20,
            must_hit=_COMMON_HITS + ("expr.full", "expr.ramped_half_and_half"),
        ),
        # the CLI default mode on thousands of rows: each fit is bound by row
        # count, not dispatch; also covers replace_mo, CSV parse, front scoring
        Workload(
            name="mo-rows",
            entry="cli",
            pop=100,
            gens=2,
            max_size=30,
            must_hit=_COMMON_HITS
            + (
                "expr.full",
                "expr.ramped_half_and_half",
                "search.replace_mo",
                "cli.main",
                "cli._write_front",
                "cli._write_stats",
            ),
        ),
        # the e-graph read path: load a large seed history, run a few light
        # generations, extract over the whole history on save, serialize
        Workload(
            name="resume",
            entry="cli",
            pop=100,
            gens=2,
            max_size=50,
            must_hit=_COMMON_HITS
            + (
                "egraph.deserialize",
                "egraph.serialize",
                "cli.main",
                "cli._write_front",
                "cli._write_stats",
            ),
        ),
    )
}

# so-recover: 120 rows of 2.5*x0 + x1^2 on [-3, 3]^2
SO_ROWS = 120
# mo-rows: a noisy target outside the grammar (sin is not an operator).  The
# bare x0 term carries ~90% of the variance, so best_r2_val sits on a plateau
# that an early search reliably reaches, and drops only if the search breaks.
# The resume target has the same shape.
MO_TRAIN_ROWS = 3000
MO_TEST_ROWS = 1000
MO_NOISE = 0.1
# resume: light fitting on a few rows against a large loaded history.  With
# 16 features a random terminal is a parameter 1 time in 17, so most seed
# trees fit in one cheap pass and the e-graph work stays the largest layer.
RESUME_ROWS = 30
RESUME_FEATURES = 16
RESUME_OPT_ITERS = 5
RESUME_OPT_RESTARTS = 1
# seed history: seeded random trees inserted until the graph holds this many
# classes (or the expression cap is reached); the match budget per saturation
# step bounds the build time, which the default budget of 10000 lets explode
SEED_TARGET_CLASSES = 16000
SEED_MAX_EXPRS = 20000
SEED_MAX_DEPTH = 8
SEED_MAX_SIZE = 40
SEED_MATCH_BUDGET = 1000


def run_seed(bench_seed: int, k: int) -> int:
    """eggp's ``--seed`` for the k-th untraced run of a benchmark invocation.

    Every untraced run has a seed of its own, so that the medians average
    over as many search trajectories as the window holds, each counted once.
    The traced run takes the seed of untraced run 0: the pair shows a
    process-dependent result as two history hashes for one seed, and gives
    the tracing overhead on the same trajectory.
    """
    return bench_seed * 100 + k


def _write_csv(path: Path, names: list[str], rows: list[list[float]]) -> None:
    lines = [",".join(names)]
    lines += [",".join(repr(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _table(rng: random.Random, n: int, d: int, lo: float, hi: float, target) -> list[list[float]]:
    rows = []
    for _ in range(n):
        x = [rng.uniform(lo, hi) for _ in range(d)]
        rows.append(x + [target(x)])
    return rows


def make_inputs(w: Workload, bench_seed: int, out: Path) -> dict[str, Path]:
    """Write the workload's CSV inputs, generated from ``bench_seed`` alone.

    Values are written with ``repr`` so that the program and the output check
    read bit-identical numbers.
    """
    rng = random.Random(f"{w.name}:{bench_seed}")
    paths = {"train": out / "train.csv"}
    if w.name == "so-recover":
        rows = _table(rng, SO_ROWS, 2, -3.0, 3.0, lambda x: 2.5 * x[0] + x[1] * x[1])
        _write_csv(paths["train"], ["x0", "x1", "y"], rows)
    elif w.name == "mo-rows":

        def target(x: list[float]) -> float:
            clean = x[0] + 0.25 * x[1] * x[2] + 0.15 * math.sin(2.0 * x[3])
            return clean + rng.gauss(0.0, MO_NOISE)

        names = ["x0", "x1", "x2", "x3", "y"]
        _write_csv(paths["train"], names, _table(rng, MO_TRAIN_ROWS, 4, -2.0, 2.0, target))
        paths["test"] = out / "test.csv"
        _write_csv(paths["test"], names, _table(rng, MO_TEST_ROWS, 4, -2.0, 2.0, target))
    elif w.name == "resume":
        rows = _table(
            rng, RESUME_ROWS, RESUME_FEATURES, -2.0, 2.0,
            lambda x: x[0] + 0.25 * x[1] * x[2],
        )
        names = [f"x{i}" for i in range(RESUME_FEATURES)] + ["y"]
        _write_csv(paths["train"], names, rows)
        paths["seed_egraph"] = out / "seed.egg"
    else:
        raise KeyError(w.name)
    return paths


def cli_argv(w: Workload, seed: int, inputs: dict[str, Path], sample_dir: Path) -> list[str]:
    """Arguments for ``eggp.cli.main`` on a CLI workload."""
    argv = [
        "--data", str(inputs["train"]),
        "--pop", str(w.pop),
        "--gens", str(w.gens),
        "--max-size", str(w.max_size),
        "--seed", str(seed),
        "--out", str(sample_dir / "front.csv"),
        "--stats", str(sample_dir / "stats.csv"),
    ]
    if w.name == "mo-rows":
        argv += ["--mode", "eggp-mo", "--test-data", str(inputs["test"])]
    elif w.name == "resume":
        argv += [
            "--mode", "eggp-so",
            "--opt-iters", str(RESUME_OPT_ITERS),
            "--opt-restarts", str(RESUME_OPT_RESTARTS),
            "--load-egraph", str(inputs["seed_egraph"]),
            "--save-egraph", str(sample_dir / "saved.egg"),
        ]
    else:
        raise KeyError(w.name)
    return argv
