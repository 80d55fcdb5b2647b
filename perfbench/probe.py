"""Pool and baseline probe, run only in traced runs.

Times ``brute_force_optimal`` with one and with two worker processes on
solve-random-style instances at I=8 and I=9, and re-measures the
per-layer baseline figures of the roadmap (I=9 solves, per-order cost at
I=8, 10^6 simulated episodes at I=8).  Every call is timed from outside;
the one- and two-process answers must agree.
"""
from __future__ import annotations

import random
import statistics
import time

from jss import _engine
from jss.model import SearchOrder, evaluate
from jss.sim import estimate_value
from jss.solver import brute_force_optimal

from workloads import unconstrained

ORDERS_PER_SAMPLE = 200
SAMPLES = 5
MC_EPISODES = 10 ** 6


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _per_call_us(fn, orders) -> float:
    """Median over SAMPLES passes of the mean cost of fn(order)."""
    passes = []
    for _ in range(SAMPLES):
        t0 = time.perf_counter()
        for order in orders:
            fn(order)
        passes.append((time.perf_counter() - t0) / len(orders) * 1e6)
    return statistics.median(passes)


def run(seed: int) -> tuple[dict, int]:
    """(metrics, number of disagreeing 1- vs 2-process answers)."""
    rng = random.Random(f"probe:{seed}")
    i8 = unconstrained(rng, 8)
    i9 = unconstrained(rng, 9)
    mismatches = 0
    m = {}
    for label, inst in (("i8", i8), ("i9", i9)):
        t1, r1 = _timed(lambda: brute_force_optimal(inst, threads=1))
        t2, r2 = _timed(lambda: brute_force_optimal(inst, threads=2))
        if (r1.best_value, r1.argmax_set) != (r2.best_value, r2.argmax_set):
            mismatches += 1
        m[f"probe.{label}_exact_s"] = t1
        m[f"probe.{label}_exact_2proc_s"] = t2
    m["probe.i9_float_s"] = _timed(lambda: brute_force_optimal(i9, mode="float"))[0]
    m["solver.pool_speedup"] = m["probe.i9_exact_s"] / m["probe.i9_exact_2proc_s"]
    m["solver.pool_speedup_i8"] = m["probe.i8_exact_s"] / m["probe.i8_exact_2proc_s"]

    orders = []
    for _ in range(ORDERS_PER_SAMPLE):
        perm = list(range(8))
        rng.shuffle(perm)
        orders.append(SearchOrder(tuple(perm)))
    boxes, prior, outside = _engine.prepare(i8)
    m["probe.i8_evaluate_exact_us"] = _per_call_us(lambda o: evaluate(i8, o), orders)
    m["probe.i8_evaluate_float_us"] = _per_call_us(lambda o: evaluate(i8, o, "float"),
                                                   orders)
    m["probe.i8_order_value_us"] = _per_call_us(
        lambda o: _engine.order_value(boxes, o.perm, prior, outside), orders)
    m["probe.i8_mc_1e6_s"] = _timed(
        lambda: estimate_value(i8, SearchOrder.identity(8), MC_EPISODES, seed))[0]
    return m, mismatches
