"""Span tracing around the public functions of the jss modules.

``Tracer.install`` replaces each traced function with a timing wrapper in
every ``jss`` module namespace (and module-level dict) that binds it, so
``jss.solver.evaluate``, ``jss.verify.brute_force_optimal`` and
``jss.cli.brute_force_optimal`` all record spans.  Nothing in the program
changes; ``uninstall`` puts the original objects back.

A span records its name, start, end, parent span and the operation it
belongs to, plus counters read from the call's public result.  Spans stay
in memory until ``write``.  Self time is a span's duration minus the part
of it that its child spans cover.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction


@dataclass
class Span:
    id: int
    parent: int          # -1 for a root span
    name: str
    op: object           # operation id the span belongs to
    start: int = 0       # perf_counter_ns
    end: int = 0
    counters: dict | None = None


class Traced:
    """Callable stand-in for a traced function.

    ``__code__`` is forwarded because the CLI reads a suite's parameter
    names from it to decide which overrides the suite accepts.
    """

    def __init__(self, tracer: "Tracer", name: str, fn, counters=None):
        self.__wrapped__ = fn
        self.__code__ = fn.__code__
        self.__name__ = fn.__name__
        self.__doc__ = fn.__doc__
        self._tracer = tracer
        self._name = name
        self._counters = counters

    def __call__(self, *args, **kwargs):
        tr = self._tracer
        span = Span(len(tr.spans), tr.stack[-1] if tr.stack else -1, self._name, tr.op)
        tr.spans.append(span)
        tr.stack.append(span.id)
        span.start = time.perf_counter_ns()
        try:
            result = self.__wrapped__(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            tr.stack.pop()
        if self._counters is not None:
            span.counters = self._counters(args, kwargs, result)
        return result


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _solve_counters(args, kwargs, res):
    mode = _arg(args, kwargs, 1, "mode", "exact")
    out = {"nodes": res.details["orders_considered"], "argmax": len(res.argmax_set),
           "mode": mode}
    if mode == "exact":
        out["bits"] = Fraction(res.best_value).denominator.bit_length()
    return out


def _dp_counters(args, kwargs, res):
    return {"states": res.details["states"]}


def _episode_counters(args, kwargs, res):
    return {"episodes": int(_arg(args, kwargs, 2, "n_episodes"))}


def _trial_counters(args, kwargs, res):
    return {"trials": res.trials}


MODULES = ("cli", "model", "_engine", "solver", "sim", "conditions", "generators", "verify")


def targets(jss_modules: dict) -> list:
    """(original function, span name, counter reader) for every traced call."""
    m = jss_modules
    out = [
        (m["cli"].main, "cli.main", None),
        (m["model"].load_instance, "model.load_instance", None),
        (m["model"].evaluate, "model.evaluate", None),
        (m["_engine"].best_orders, "engine.best_orders", None),
        (m["_engine"].best_orders_float, "engine.best_orders_float", None),
        (m["_engine"].order_value, "engine.order_value", None),
        (m["solver"].brute_force_optimal, "solver.brute_force_optimal", _solve_counters),
        (m["solver"].payoff_sweep, "solver.payoff_sweep", None),
        (m["solver"].subset_dp_optimal, "solver.subset_dp_optimal", _dp_counters),
        (m["sim"].estimate_value, "sim.estimate_value", _episode_counters),
        (m["sim"].empirical_survival, "sim.empirical_survival", _episode_counters),
    ]
    for name in ("check_globally_bounded_weak_feedback", "check_regularity",
                 "check_order_independence"):
        out.append((getattr(m["conditions"], name), f"conditions.{name}", None))
    for fn in m["generators"].SAMPLERS.values():
        out.append((fn, "generators.sample", None))
    for suite, fn in m["verify"].SUITES.items():
        out.append((fn, f"verify.{suite}", _trial_counters))
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = None
        self._patches: list = []

    def install(self, package: str = "jss") -> None:
        mods = {name: importlib.import_module(f"{package}.{name}") for name in MODULES}
        wrappers = {id(fn): Traced(self, name, fn, counters)
                    for fn, name, counters in targets(mods)}
        for name, mod in sys.modules.items():
            if name != package and not name.startswith(package + "."):
                continue
            space = vars(mod)
            for attr, value in list(space.items()):
                if id(value) in wrappers:
                    self._patches.append((space, attr, value))
                    space[attr] = wrappers[id(value)]
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers:
                            self._patches.append((value, key, item))
                            value[key] = wrappers[id(item)]

    def uninstall(self) -> None:
        for space, key, value in reversed(self._patches):
            space[key] = value
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def write(self, path) -> None:
        rows = [[s.id, s.parent, s.name, s.op, s.start, s.end, s.counters]
                for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["id", "parent", "name", "op", "start_ns",
                                               "end_ns", "counters"], "spans": rows}))


def self_times(spans) -> dict:
    """Span id -> self time in ns: duration minus the union of the child
    intervals, each clipped to the parent's interval."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0, None, None
        for lo, hi in sorted(children[s.id]):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = (s.end - s.start) - covered
    return out
