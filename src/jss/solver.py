"""Optimal-order solvers: exhaustive search, index rules for the
feedback-free case, subset dynamic programming for order-independent
instances, pairwise-swap hill climbing, exact two-box prior thresholds,
and prior sweeps.
"""
from __future__ import annotations

import csv
import itertools
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from . import _engine
from ._engine import FLOAT_TIE_TOL
from .conditions import _index_key, check_order_independence
from .model import (
    Belief,
    Instance,
    Journal,
    ModelError,
    SearchOrder,
    evaluate,  # unused: perfbench's tracer wraps this binding and its tests assert it
    format_number,
    monotone_order,
    parse_number,
)

BRUTE_FORCE_CAP = 10
ARGMAX_LIMIT = math.factorial(9)    # most orders a solver lists as its argmax set


class SolverError(ModelError):
    """Solver preconditions not met (size cap, wrong family, bad mode)."""


@dataclass(frozen=True)
class SolveResult:
    """A solver's answer.  argmax_set holds the distinct optimal orders
    as perms (tuples of positions into inst.journals) in lexicographic
    order, so argmax_set[0] == best_order.perm; local search, which
    certifies no optimum, lists only the order it stopped at."""

    best_order: SearchOrder
    best_value: object
    argmax_set: tuple
    method: str
    details: dict = field(default_factory=dict, compare=False)

    def describe(self, inst: Instance) -> str:
        names = inst.journal_names()
        lines = [
            f"method: {self.method}",
            f"best order: {self.best_order.label(inst)}",
            f"best value: {_show(self.best_value)}",
            "argmax set: " + ", ".join(" > ".join(map(names.__getitem__, p))
                                       for p in self.argmax_set),
        ]
        return "\n".join(lines)


def _show(x) -> str:
    if isinstance(x, Fraction):
        return f"{format_number(x)} ({float(x):.6g})"
    return f"{x:.12g}"


def brute_force_optimal(inst: Instance, mode: str = "exact",
                        threads: int = 1) -> SolveResult:
    """Optimum over all I! orders by branch and bound (cap I <= 10).

    Walks the permutation tree so shared prefixes are evaluated once, and
    cuts a subtree only when a payoff bound puts it strictly below the
    best so far, so every tied order is kept (see _engine._walk);
    details["pruned"] counts the cut subtrees.  Journals with equal
    kernel boxes are interchangeable: the walk visits one canonical order
    per relabelling of them and the argmax set is expanded afterwards, so
    a set over ARGMAX_LIMIT orders raises SolverError before it is built.
    threads > 1 splits the tree by the first member of each class across
    processes; results are merged exactly, so the answer does not depend
    on the thread count.  The pool loses to the serial walk, so the CLI
    does not expose it: threads serves perfbench/probe.py only, until the
    benchmark stops calling it and the pool is removed.
    """
    n = inst.size
    if n > BRUTE_FORCE_CAP:
        raise SolverError(
            f"brute force over {n}! orders exceeds the cap (I <= {BRUTE_FORCE_CAP}); "
            "use subset_dp_optimal for order-independent instances or "
            "pairwise_swap_local_search for a heuristic"
        )
    tol = _tie_tol(mode)

    # the first member of each class of interchangeable journals heads one
    # slice of the tree for the parallel driver
    firsts = sorted(set(_engine.classes(_prepare(inst, mode)[0]))) if threads > 1 else ()
    if len(firsts) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(firsts))) as pool:
            results = list(pool.map(_search, [inst] * len(firsts), [mode] * len(firsts),
                                    firsts))
        best, tied = _engine.ties([r[0] for r in results], tol)
        canonical = sorted(p for k in tied for p in results[k][1])
        cls = results[0][2]
        pruned = sum(r[3] for r in results)
    else:
        best, canonical, cls, pruned = _search(inst, mode)

    argmax = _listed(canonical, cls)
    return SolveResult(
        best_order=SearchOrder(argmax[0]),
        best_value=best,
        argmax_set=argmax,
        method="brute_force",
        details={"orders_considered": sum(math.perm(n, k) for k in range(1, n + 1)),
                 "threads": threads, "pruned": pruned},
    )


def _search(inst: Instance, mode: str, first: Optional[int] = None):
    """(best value, canonical argmax perms, classes, pruned subtrees) over
    all orders, or over those that start with `first`."""
    if mode == "exact":
        return _engine.best_orders(inst, first=first)
    return _engine.best_orders_float(inst, first=first, tol=FLOAT_TIE_TOL)


def _tie_tol(mode: str):
    """Tie tolerance of a mode: exact values tie only when equal."""
    if mode not in ("exact", "float"):
        raise SolverError(f"mode must be 'exact' or 'float', got {mode!r}")
    return 0 if mode == "exact" else FLOAT_TIE_TOL


def _prepare(inst: Instance, mode: str):
    """Kernel inputs of a mode (see _engine.prepare); _tie_tol checks the mode."""
    return (_engine.prepare_float if _tie_tol(mode) else _engine.prepare)(inst)


def _check_listing(size: int) -> None:
    """SolverError, before anything is listed, for an argmax set too big to list."""
    if size > ARGMAX_LIMIT:
        raise SolverError(
            f"the argmax set has {size} orders, over the limit of {ARGMAX_LIMIT} "
            "(9!) that a solver lists"
        )


def _listed(canonical, classes) -> tuple:
    """Every order that relabels a canonical perm within its classes (see
    _engine.expand), in lexicographic order."""
    # each canonical order stands for the product of its class sizes' factorials
    _check_listing(len(canonical) * math.prod(map(math.factorial,
                                                  Counter(classes).values())))
    return tuple(_engine.expand(canonical, classes))


def index_order_no_feedback(inst: Instance, mode: str = "exact") -> SolveResult:
    """Sort by the cost-adjusted index u - c/a (feedback-free case only).

    Valid when no journal gives feedback (q = 0 everywhere): then the
    static index order is optimal for any prior and any costs.  Journals
    with a = 0 never pay and sort last.  Journals with equal keys (the
    a = 0 ones among them) are interchangeable, so the argmax set holds
    every order that permutes them, in lexicographic order; a set over
    ARGMAX_LIMIT orders raises SolverError.
    """
    offenders = [j.name for j in inst.journals if j.q != 0]
    if offenders:
        raise SolverError(
            "index order requires q = 0 for every journal; feedback at "
            + ", ".join(offenders)
        )
    js = inst.journals
    keys = [_index_key(j) for j in js]

    def sort_key(i):
        k = keys[i]
        return (1, Fraction(0), i) if k is None else (0, -k, i)

    order = SearchOrder(tuple(sorted(range(len(js)), key=sort_key)))
    boxes, prior, outside = _prepare(inst, mode)
    argmax = _listed([order.perm], keys)
    return SolveResult(
        best_order=order,
        best_value=_engine.order_value(boxes, order.perm, prior, outside),
        argmax_set=argmax,
        method="index_no_feedback",
        details={
            "index": {j.name: keys[i] for i, j in enumerate(js)},
            "tie_orders": len(argmax),
        },
    )


def subset_dp_optimal(inst: Instance, mode: str = "exact") -> SolveResult:
    """Optimum by dynamic programming over rejection sets (2^I states).

    Sound only when belief updates commute (a_i q_j = a_j q_i for all
    pairs): then the mass reaching any set of rejections is order-free and
    the set is a sufficient state.  Raises SolverError otherwise.
    """
    report = check_order_independence(inst)
    if not report.passed:
        w = report.witnesses[0]
        raise SolverError(
            "subset DP needs order-independent belief updates; pair "
            f"{w['pair']} has a_i*q_j = {w['a_i*q_j']} != a_j*q_i = {w['a_j*q_i']}"
        )
    tol = _tie_tol(mode)
    n = inst.size
    full = (1 << n) - 1
    boxes, prior, (o, finish, _) = _prepare(inst, mode)

    # (H, L) mass reaching each rejection set; the commuting updates make
    # it order-free
    mass = [None] * (full + 1)
    mass[0] = prior
    for s in range(1, full + 1):
        low = (s & -s).bit_length() - 1
        mass[s] = _engine.step(boxes[low], *mass[s ^ 1 << low], 0)[:2]

    # value[s] is the payoff still to come from s, weighted by the mass
    # reaching s, over the denominator all complete orders share: a gain
    # made on the way to t lacks the d of every journal outside t, which
    # rest[t] supplies.  A state reached with probability zero is worth
    # zero whatever follows, so all its moves tie.
    rest = [1] * (full + 1)
    for t in range(full - 1, -1, -1):
        j = (~t & (t + 1)).bit_length() - 1
        rest[t] = rest[t | 1 << j] * boxes[j][0]
    h, l = mass[full]
    value = [None] * (full + 1)
    value[full] = o * (h + l)
    # best_moves[s]: the tied moves from s; count[s]: the tied orders on from s
    best_moves: list = [()] * (full + 1)
    count = [1] * (full + 1)
    for s in range(full - 1, -1, -1):
        h, l = mass[s]
        moves = [i for i in range(n) if not s >> i & 1]
        value[s], tied = _engine.ties(
            [_engine.step(boxes[i], h, l, 0)[2] * rest[s | 1 << i] + value[s | 1 << i]
             for i in moves], tol)
        best_moves[s] = tuple(moves[k] for k in tied)
        count[s] = sum(count[s | 1 << i] for i in best_moves[s])
    _check_listing(count[0])

    argmax: list = []

    def expand(s, acc):
        if s == full:
            argmax.append(tuple(acc))
            return
        for i in best_moves[s]:
            acc.append(i)
            expand(s | 1 << i, acc)
            acc.pop()

    expand(0, [])
    return SolveResult(
        best_order=SearchOrder(argmax[0]),
        best_value=finish(value[0]),
        argmax_set=tuple(argmax),
        method="subset_dp",
        details={"states": 1 << n},
    )


def pairwise_swap_local_search(inst: Instance, mode: str = "exact") -> SolveResult:
    """Hill-climb by adjacent swaps until no swap improves the value.

    Starts from the payoff-sorted order, and a swap improves only beyond
    the mode's tie slack, so float mode leaves exact ties alone.  The
    result is a local optimum of the swap neighbourhood, not certified
    global; details.swaps counts accepted swaps."""
    tol = _tie_tol(mode)
    boxes, prior, outside = _prepare(inst, mode)
    order = list(monotone_order(inst).perm)
    current = _engine.order_value(boxes, order, prior, outside)
    swaps = sweeps = 0
    improved = True
    while improved:
        improved = False
        sweeps += 1
        for t in range(inst.size - 1):
            cand = order.copy()
            cand[t], cand[t + 1] = cand[t + 1], cand[t]
            v = _engine.order_value(boxes, cand, prior, outside)
            if v > current + _engine.tie_slack(current, tol):
                order, current = cand, v
                swaps += 1
                improved = True
    final = SearchOrder(tuple(order))
    return SolveResult(
        best_order=final,
        best_value=current,
        argmax_set=(final.perm,),
        method="local_search",
        details={"sweeps": sweeps, "swaps": swaps, "certified_global": False},
    )


@dataclass(frozen=True)
class ThresholdResult:
    """Two-box prior threshold certificate.

    kind is "threshold" (value difference changes sign at mu_star),
    "always" (payoff-sorted order weakly optimal for every prior) or
    "never" (weakly dominated for every interior prior).  direction says
    which side of mu_star the sorted order wins ("above"/"below").
    diff_at_0/1 are the exact endpoint value differences
    (sorted order minus swapped order); the difference is linear in the
    prior, so the two endpoints determine everything.
    """

    kind: str
    mu_star: Optional[Fraction]
    direction: Optional[str]
    degenerate: bool
    diff_at_0: Fraction
    diff_at_1: Fraction

    def describe(self) -> str:
        if self.kind == "threshold":
            return (f"threshold: {format_number(self.mu_star)}\n"
                    f"threshold_float: {float(self.mu_star):.12g}\n"
                    f"payoff-sorted order optimal {self.direction} the threshold")
        note = " (both orders tie everywhere)" if self.degenerate else ""
        side = "every" if self.kind == "always" else "no interior"
        return (f"threshold: none ({self.kind})\n"
                f"payoff-sorted order optimal at {side} prior{note}")


def prior_threshold_2box(j1: Journal, j2: Journal, outside_option=0) -> ThresholdResult:
    """Exact prior threshold between the two orders of a two-journal set,
    from the ends of each order's line in the prior (see _engine.order_line)."""
    kernel = _engine.prepare(Instance((j1, j2), Belief(1), outside_option))
    (a1, a0), (b1, b0) = (_engine.order_line(kernel, p) for p in ((0, 1), (1, 0)))
    d0, d1 = a0 - b0, a1 - b1

    if d0 == 0 and d1 == 0:
        return ThresholdResult("always", None, None, True, d0, d1)
    if d0 >= 0 and d1 >= 0:
        return ThresholdResult("always", None, None, False, d0, d1)
    if d0 <= 0 and d1 <= 0:
        return ThresholdResult("never", None, None, False, d0, d1)
    mu_star = d0 / (d0 - d1)
    direction = "above" if d1 > 0 else "below"
    return ThresholdResult("threshold", mu_star, direction, False, d0, d1)


def belief_grid(start, stop, count: int) -> tuple[Fraction, ...]:
    """count evenly spaced exact beliefs from start to stop inclusive."""
    start, stop = parse_number(start), parse_number(stop)
    if count < 2:
        raise SolverError("grid needs at least 2 points")
    step = (stop - start) / (count - 1)
    return tuple(start + k * step for k in range(count))


@dataclass(frozen=True)
class SweepResult:
    """Per-prior values for each order (or just the best order)."""

    labels: tuple[str, ...]
    rows: tuple[dict, ...]
    mode: str

    def write_csv(self, fileobj) -> None:
        writer = csv.writer(fileobj)
        writer.writerow(["mu"] + [f"value_{lbl}" for lbl in self.labels] + ["best_order"])
        for row in self.rows:
            writer.writerow(
                [_csv_num(row["mu"], self.mode)]
                + [_csv_num(v, self.mode) for v in row["values"]]
                + [row["best"]]
            )


def _csv_num(x, mode: str) -> str:
    if mode == "exact":
        return format_number(x)
    return repr(float(x))


def payoff_sweep(inst: Instance, grid: Sequence, mode: str = "exact",
                 per_order: Optional[bool] = None) -> SweepResult:
    """Expected payoff of each order across a grid of priors.

    per_order defaults to True up to 4 journals (24 columns); beyond
    that only the best order and value are reported per grid point.
    """
    tol = _tie_tol(mode)
    n = inst.size
    if per_order is None:
        per_order = n <= 4
    names = inst.journal_names()
    perms = list(itertools.permutations(range(n))) if per_order else ()
    labels = tuple(">".join(names[i] for i in p) for p in perms) if per_order else ("best",)
    kernel = _prepare(inst, mode) if per_order else None
    lines = [_engine.order_line(kernel, p) for p in perms]

    rows = []
    for mu in grid:
        mu = Belief(mu).mu_h    # parsed, and checked to lie in [0, 1]
        at = mu if mode == "exact" else float(mu)
        if per_order:
            values = tuple(at * vh + (1 - at) * vl for vh, vl in lines)
            # the perms run in lexicographic order, so the first tie is the least
            ties = _engine.ties(values, tol)[1]
            best, tie = labels[ties[0]], len(ties) > 1
        else:
            res = brute_force_optimal(inst.with_prior(mu), mode=mode)
            values = (res.best_value,)
            best = ">".join(names[i] for i in res.argmax_set[0])
            tie = len(res.argmax_set) > 1
        rows.append({"mu": at, "values": values, "best": best, "tie": tie})
    return SweepResult(labels=labels, rows=tuple(rows), mode=mode)
