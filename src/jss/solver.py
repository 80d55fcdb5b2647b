"""Optimal-order solvers: exhaustive search, index rules for the
feedback-free case, subset dynamic programming for order-independent
instances, pairwise-swap hill climbing, exact two-box prior thresholds,
and prior sweeps.
"""
from __future__ import annotations

import csv
import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import _engine
from .conditions import check_order_independence
from .model import (
    Belief,
    Instance,
    Journal,
    ModelError,
    SearchOrder,
    check_order,
    evaluate,
    format_number,
    monotone_order,
    parse_number,
)

BRUTE_FORCE_CAP = 10
ARGMAX_ENUM_CAP = 20000
FLOAT_TIE_TOL = 1e-12


class SolverError(ModelError):
    """Solver preconditions not met (size cap, wrong family, bad mode)."""


@dataclass(frozen=True)
class SolveResult:
    best_order: SearchOrder
    best_value: object
    argmax_set: tuple[SearchOrder, ...]
    method: str
    details: dict = field(default_factory=dict, compare=False)

    def describe(self, inst: Instance) -> str:
        lines = [
            f"method: {self.method}",
            f"best order: {self.best_order.label(inst)}",
            f"best value: {_show(self.best_value)}",
            "argmax set: " + ", ".join(o.label(inst) for o in self.argmax_set),
        ]
        return "\n".join(lines)


def _show(x) -> str:
    if isinstance(x, Fraction):
        return f"{format_number(x)} ({float(x):.6g})"
    return f"{x:.12g}"


def brute_force_optimal(inst: Instance, mode: str = "exact",
                        threads: int = 1) -> SolveResult:
    """Exhaustive optimum over all I! orders (cap I <= 10).

    Walks the permutation tree once so shared prefixes are evaluated
    once.  threads > 1 splits the tree by first submission across
    processes; results are merged exactly, so the answer does not depend
    on the thread count.
    """
    n = inst.size
    if n > BRUTE_FORCE_CAP:
        raise SolverError(
            f"brute force over {n}! orders exceeds the cap (I <= {BRUTE_FORCE_CAP}); "
            "use subset_dp_optimal for order-independent instances or "
            "pairwise_swap_local_search for a heuristic"
        )
    if mode not in ("exact", "float"):
        raise SolverError(f"mode must be 'exact' or 'float', got {mode!r}")

    if threads > 1 and n >= 2:
        with ProcessPoolExecutor(max_workers=min(threads, n)) as pool:
            results = list(pool.map(_search, [inst] * n, [mode] * n, range(n)))
        best = max(v for v, _ in results)
        slack = _engine.tie_slack(best, _tie_tol(mode))
        argmax = sorted(p for v, perms in results if v >= best - slack for p in perms)
    else:
        best, argmax = _search(inst, mode)

    orders = tuple(SearchOrder(p) for p in argmax)
    return SolveResult(
        best_order=orders[0],
        best_value=best,
        argmax_set=orders,
        method="brute_force",
        details={"orders_considered": _falling_factorial_total(n), "threads": threads},
    )


def _search(inst: Instance, mode: str, first: Optional[int] = None):
    """(best value, argmax perms) over all orders, or over those that
    start with `first`."""
    if mode == "exact":
        return _engine.best_orders(inst, first=first)
    return _engine.best_orders_float(inst, first=first, tol=FLOAT_TIE_TOL)


def _tie_tol(mode: str):
    """Tie tolerance of a mode: exact values tie only when equal."""
    return 0 if mode == "exact" else FLOAT_TIE_TOL


def _falling_factorial_total(n: int) -> int:
    total, term = 0, 1
    for k in range(1, n + 1):
        term *= n - k + 1
        total += term
    return total


def index_order_no_feedback(inst: Instance) -> SolveResult:
    """Sort by the cost-adjusted index u - c/a (feedback-free case only).

    Valid when no journal gives feedback (q = 0 everywhere): then the
    static index order is optimal for any prior and any costs.  Journals
    with a = 0 never pay and sort last.  Ties expand the argmax set (all
    interleavings of tied groups), truncated at 1000 orders.
    """
    offenders = [j.name for j in inst.journals if j.q != 0]
    if offenders:
        raise SolverError(
            "index order requires q = 0 for every journal; feedback at "
            + ", ".join(offenders)
        )
    js = inst.journals
    keys = []
    for j in js:
        keys.append(None if j.a == 0 else j.u - j.c / j.a)

    def sort_key(i):
        k = keys[i]
        return (1, Fraction(0), i) if k is None else (0, -k, i)

    ranked = sorted(range(len(js)), key=sort_key)
    order = SearchOrder(tuple(ranked))
    value = evaluate(inst, order).total

    groups = []
    for _, grp in itertools.groupby(ranked, key=lambda i: keys[i]):
        groups.append(list(grp))
    count = 1
    for g in groups:
        for m in range(2, len(g) + 1):
            count *= m
    truncated = count > 1000
    if truncated:
        argmax = (order,)
    else:
        argmax = tuple(
            SearchOrder(tuple(itertools.chain.from_iterable(combo)))
            for combo in itertools.product(*(itertools.permutations(g) for g in groups))
        )
    return SolveResult(
        best_order=order,
        best_value=value,
        argmax_set=argmax,
        method="index_no_feedback",
        details={
            "index": {j.name: keys[i] for i, j in enumerate(js)},
            "tie_orders": count,
            "argmax_truncated": truncated,
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
    if mode not in ("exact", "float"):
        raise SolverError(f"mode must be 'exact' or 'float', got {mode!r}")
    n = inst.size
    full = (1 << n) - 1
    prepare = _engine.prepare if mode == "exact" else _engine.prepare_float
    boxes, prior, (o, finish) = prepare(inst)
    tol = _tie_tol(mode)

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
    best_moves: list = [()] * (full + 1)
    for s in range(full - 1, -1, -1):
        h, l = mass[s]
        options = [(i, _engine.step(boxes[i], h, l, 0)[2] * rest[s | 1 << i]
                    + value[s | 1 << i]) for i in range(n) if not s >> i & 1]
        best_v = max(v for _, v in options)
        slack = _engine.tie_slack(best_v, tol)
        value[s] = best_v
        best_moves[s] = tuple(i for i, v in options if v >= best_v - slack)

    perm = []
    s = 0
    while s != full:
        i = best_moves[s][0]
        perm.append(i)
        s |= 1 << i
    order = SearchOrder(tuple(perm))

    argmax: list = []
    truncated = False

    def expand(s, acc):
        nonlocal truncated
        if len(argmax) >= ARGMAX_ENUM_CAP:
            truncated = True
            return
        if s == full:
            argmax.append(SearchOrder(tuple(acc)))
            return
        for i in best_moves[s]:
            acc.append(i)
            expand(s | 1 << i, acc)
            acc.pop()

    expand(0, [])
    return SolveResult(
        best_order=order,
        best_value=finish(value[0]),
        argmax_set=tuple(argmax),
        method="subset_dp",
        details={"states": 1 << n, "argmax_truncated": truncated},
    )


def pairwise_swap_local_search(inst: Instance, start: Optional[SearchOrder] = None,
                               mode: str = "exact") -> SolveResult:
    """Hill-climb by adjacent swaps until no swap improves the value.

    Starts from the payoff-sorted order unless told otherwise.  The
    result is a local optimum of the swap neighbourhood, not certified
    global; details.swaps counts accepted swaps.
    """
    order = list((start or monotone_order(inst)).perm)
    check_order(inst, SearchOrder(tuple(order)))
    current = evaluate(inst, SearchOrder(tuple(order)), mode).total
    swaps = 0
    sweeps = 0
    improved = True
    while improved:
        improved = False
        sweeps += 1
        for t in range(inst.size - 1):
            cand = order.copy()
            cand[t], cand[t + 1] = cand[t + 1], cand[t]
            v = evaluate(inst, SearchOrder(tuple(cand)), mode).total
            if v > current:
                order, current = cand, v
                swaps += 1
                improved = True
    final = SearchOrder(tuple(order))
    return SolveResult(
        best_order=final,
        best_value=current,
        argmax_set=(final,),
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
            return (f"threshold at mu = {format_number(self.mu_star)} "
                    f"({float(self.mu_star):.6g}); payoff-sorted order optimal "
                    f"{self.direction} it")
        note = " (both orders tie everywhere)" if self.degenerate else ""
        side = "every" if self.kind == "always" else "no interior"
        return f"payoff-sorted order optimal at {side} prior{note}"


def value_difference(inst: Instance, mu) -> Fraction:
    """Sorted-first minus swapped-first expected payoff at prior mu."""
    pair = inst.with_prior(mu)
    a = evaluate(pair, SearchOrder((0, 1))).total
    b = evaluate(pair, SearchOrder((1, 0))).total
    return a - b


def prior_threshold_2box(j1: Journal, j2: Journal, outside_option=0) -> ThresholdResult:
    """Exact prior threshold between the two orders of a two-journal set.

    The payoff difference between the two orders is linear in the prior
    (the belief denominators cancel against survival), so evaluating the
    endpoints solves it exactly; a midpoint assertion guards the
    linearity.
    """
    inst = Instance((j1, j2), Belief(Fraction(1, 2)), parse_number(outside_option))
    d0 = value_difference(inst, Fraction(0))
    d1 = value_difference(inst, Fraction(1))
    dh = value_difference(inst, Fraction(1, 2))
    if 2 * dh != d0 + d1:
        raise AssertionError("two-box value difference is not linear in the prior")

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
    orders: tuple[SearchOrder, ...]
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

    def flip_count(self, label_a: str, label_b: str) -> int:
        """Sign changes of value(label_a) - value(label_b) down the grid."""
        ia, ib = self.labels.index(label_a), self.labels.index(label_b)
        signs = []
        for row in self.rows:
            d = row["values"][ia] - row["values"][ib]
            signs.append(0 if d == 0 else (1 if d > 0 else -1))
        flips = 0
        prev = None
        for s in signs:
            if s == 0:
                continue
            if prev is not None and s != prev:
                flips += 1
            prev = s
        return flips


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
    if mode not in ("exact", "float"):
        raise SolverError(f"mode must be 'exact' or 'float', got {mode!r}")
    n = inst.size
    if per_order is None:
        per_order = n <= 4
    perms = list(itertools.permutations(range(n))) if per_order else None
    prepare = _engine.prepare if mode == "exact" else _engine.prepare_float
    names = inst.journal_names()

    def label(perm):
        return ">".join(names[i] for i in perm)

    rows = []
    if per_order:
        labels = tuple(label(p) for p in perms)
        orders = tuple(SearchOrder(p) for p in perms)
        for mu in grid:
            point = inst.with_prior(parse_number(mu))
            boxes, prior, outside = prepare(point)
            values = [_engine.order_value(boxes, p, prior, outside) for p in perms]
            best_val = max(values)
            slack = _engine.tie_slack(best_val, _tie_tol(mode))
            ties = [k for k in range(len(perms)) if values[k] >= best_val - slack]
            best_idx = min(ties, key=lambda k: perms[k])
            rows.append({
                "mu": parse_number(mu) if mode == "exact" else float(parse_number(mu)),
                "values": tuple(values),
                "best": labels[best_idx],
                "tie": len(ties) > 1,
            })
    else:
        labels = ("best",)
        orders = ()
        for mu in grid:
            point = inst.with_prior(parse_number(mu))
            res = brute_force_optimal(point, mode=mode)
            rows.append({
                "mu": parse_number(mu) if mode == "exact" else float(parse_number(mu)),
                "values": (res.best_value,),
                "best": res.best_order.label(point).replace(" > ", ">"),
                "tie": len(res.argmax_set) > 1,
            })
    return SweepResult(labels=labels, orders=orders, rows=tuple(rows), mode=mode)
