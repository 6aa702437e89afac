"""Spans and counters around eggp's public entry points, recorded from outside
the program.

eggp's modules import names directly (``from .fitting import fit_params``), so
a wrapper is installed at every *site* where a caller looks the name up,
written ``"module:attr"`` or ``"module:Class.attr"``.  Spans are kept in
flat arrays and written once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import time
import warnings
from array import array
from pathlib import Path
from typing import Any, Callable, Optional

Hook = Callable[["Tracer", tuple, Any], None]


def _resolve(site: str) -> tuple[Any, str]:
    module, _, path = site.partition(":")
    owner: Any = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.kept: dict[str, Any] = {}

    @property
    def span_count(self) -> int:
        return len(self.start)

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def span(self, name: str, fn: Callable, after: Optional[Hook] = None) -> Callable:
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        stack, clock = self._stack, time.monotonic

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(math.nan)
            stack.append(idx)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if after is not None:
                after(self, args, out)
            return out

        return traced

    def counted(self, fn: Callable, after: Hook) -> Callable:
        """``fn`` wrapped with a counter hook only, no span."""

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            after(self, args, out)
            return out

        return wrapper

    def patch(self, sites: tuple[str, ...], make: Callable[[Callable], Callable]) -> None:
        """Replace each site's function ``f`` with ``make(f)``, keeping
        classmethods and properties what they were."""
        for site in sites:
            owner, attr = _resolve(site)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, classmethod):
                new: Any = classmethod(make(raw.__func__))
            elif isinstance(raw, property):
                new = property(make(raw.fget))
            else:
                new = make(raw)
            setattr(owner, attr, new)

    def trace(self, name: str, sites: tuple[str, ...], after: Optional[Hook] = None) -> None:
        self.patch(sites, lambda f: self.span(name, f, after))

    def count_runtime_warnings(self) -> None:
        """Count every RuntimeWarning that leaves the program, instead of
        printing the first one per call site."""
        warnings.simplefilter("always", RuntimeWarning)
        show = warnings.showwarning

        def counting(message, category, *args, **kwargs):
            if issubclass(category, RuntimeWarning):
                self.count("fitting.runtime_warnings")
                return
            show(message, category, *args, **kwargs)

        warnings.showwarning = counting

    def write(self, path: Path, n: int) -> None:
        """The first ``n`` spans as four raw arrays plus a JSON header."""
        header = {"names": self.names, "n": n, "counters": self.counters}
        path.with_suffix(".json").write_text(json.dumps(header), encoding="utf-8")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr[:n].tofile(fh)


def read_spans(path: Path) -> tuple[dict, array, array, array, array]:
    header = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
    n = header["n"]
    arrays = (array("i"), array("q"), array("d"), array("d"))
    with open(path.with_suffix(".bin"), "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return (header, *arrays)


# -- what a run traces -------------------------------------------------------


def _mark_terminal(t: Tracer, args: tuple, out: Any) -> None:
    t.count("expr.full.terminal", not out.args)


def _mark_changed(key: str) -> Hook:
    def hook(t: Tracer, args: tuple, out: Any) -> None:
        t.count(key, out != args[0])

    return hook


def _saturation(budget: int) -> Hook:
    def hook(t: Tracer, args: tuple, out: Any) -> None:
        t.count("rules.matches", out)
        t.count("rules.truncated_steps", out == budget)

    return hook


def _evaluated(t: Tracer, args: tuple, out: Any) -> None:
    t.count("search.evaluations")
    t.count("search.nonfinite", not math.isfinite(args[1].fitness))


def _keep(name: str) -> Hook:
    def hook(t: Tracer, args: tuple, out: Any) -> None:
        t.kept[name] = out

    return hook


# the sites where eggp's own callers look up the run entry point
RUN_SITES = ("eggp.search:run", "eggp.cli:run")


def install_setup_probe(t: Tracer) -> None:
    """The untraced run's only instruments: when the search starts, and when
    a loaded history has been deserialized (two calls per run)."""
    # every eggp module binds its imported names before anything is patched,
    # so that no site ends up holding another site's wrapper
    import eggp.cli  # noqa: F401

    t.trace("search.run", RUN_SITES, _keep("search.run"))
    t.trace("egraph.deserialize", ("eggp.egraph:EGraph.deserialize",))


def install_full_trace(t: Tracer) -> None:
    import eggp.fitting
    from eggp.rules import MATCH_BUDGET

    install_setup_probe(t)
    t.trace("cli.main", ("eggp.cli:main",))
    t.trace("data.load_csv", ("eggp.cli:load_csv", "eggp.data:load_csv"))
    t.trace("cli._write_front", ("eggp.cli:_write_front",))
    t.trace("cli._write_stats", ("eggp.cli:_write_stats",))

    t.trace("fitting.fit_params", ("eggp.search:fit_params",))
    compile_valgrad = eggp.fitting.compile_valgrad
    eggp.fitting.compile_valgrad = lambda e: t.span("fitting.valgrad", compile_valgrad(e))

    t.trace("expr.full", ("eggp.expr:full", "eggp.variation:full"), _mark_terminal)
    t.trace("expr.grow", ("eggp.expr:grow", "eggp.variation:grow"))
    t.trace("expr.ramped_half_and_half", ("eggp.search:ramped_half_and_half",))
    t.trace("expr.eval_rows", ("eggp.fitting:eval_rows", "eggp.search:eval_rows", "eggp.cli:eval_rows"))

    for method in ("add_expr", "lookup_expr", "contains_with_context", "extract_smallest",
                   "node_count", "serialize"):
        t.trace(f"egraph.{method}", (f"eggp.egraph:EGraph.{method}",))

    t.trace("rules.saturate_one_step", ("eggp.search:saturate_one_step",), _saturation(MATCH_BUDGET))
    t.trace("variation.egraph_crossover", ("eggp.search:egraph_crossover",),
            _mark_changed("variation.egraph_crossover.changed"))
    t.trace("variation.egraph_mutation", ("eggp.search:egraph_mutation",),
            _mark_changed("variation.egraph_mutation.changed"))

    t.trace("search.tournament_select", ("eggp.search:tournament_select",))
    t.trace("search.replace_mo", ("eggp.search:replace_mo",))
    t.trace("search.ParetoDB.pareto_front", ("eggp.search:ParetoDB.pareto_front",))
    t.patch(("eggp.search:ParetoDB.insert",), lambda f: t.counted(f, _evaluated))

    t.count_runtime_warnings()
