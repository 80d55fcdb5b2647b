"""Acceptance gate: eleven end-to-end checks, one printed line each.

Run with `pytest tests/test_acceptance.py -v` (the PASS/FAIL lines bypass
pytest's capture so they always appear).  Each check pins the claim it
exercises to an explicit tolerance and wall-clock budget; the randomized
ones delegate to the seeded verification suites at their full trial
counts, so a red line here comes with replayable failure records.
"""
import time
from fractions import Fraction as F

from jss import (
    Belief,
    Instance,
    Journal,
    brute_force_optimal,
    evaluate,
    example_pair,
    prior_threshold_2box,
    run_suite,
)


def _announce(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {num:2d}: {detail}",
              flush=True)


def _run(capsys, num: int, name: str, budget: float, label: str, **overrides):
    t0 = time.perf_counter()
    report = run_suite(name, **overrides)
    elapsed = time.perf_counter() - t0
    ok = report.status == "verified" and elapsed < budget
    _announce(capsys, num, ok, f"{label} ({report.trials} trials, "
                               f"{elapsed:.1f}s < {budget:.0f}s)")
    assert report.status == "verified", report.text()
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    return report


def test_criterion_01_exact_two_box_threshold(capsys):
    budget = 1.0
    t0 = time.perf_counter()
    pair = example_pair("1/2")
    res = prior_threshold_2box(pair.journals[0], pair.journals[1])
    eps = F(1, 10 ** 6)
    below = brute_force_optimal(pair.with_prior(res.mu_star - eps))
    above = brute_force_optimal(pair.with_prior(res.mu_star + eps))
    at = brute_force_optimal(pair.with_prior(res.mu_star))
    elapsed = time.perf_counter() - t0
    ok = (
        res.mu_star == F(17, 29)
        and res.direction == "above"
        and below.best_order.perm == (1, 0)
        and above.best_order.perm == (0, 1)
        and len(at.argmax_set) == 2
        and elapsed < budget
    )
    _announce(capsys, 1, ok, f"two-box threshold certified at 17/29, brute force "
                     f"flips within 1e-6 ({elapsed:.2f}s < {budget:.0f}s)")
    assert res.mu_star == F(17, 29)
    assert res.direction == "above"
    assert below.best_order.perm == (1, 0)
    assert above.best_order.perm == (0, 1)
    assert len(at.argmax_set) == 2
    assert elapsed < budget


def test_criterion_02_no_feedback_index_rule(capsys):
    _run(capsys, 2, "no_feedback_index", 120.0,
         "cost-adjusted index order matches exhaustive search without feedback")


def test_criterion_03_order_independent_indexing(capsys):
    _run(capsys, 3, "order_independent_indexing", 60.0,
         "commuting updates: payoff order optimal, subset DP matches brute force")


def test_criterion_04_two_box_base_case(capsys):
    _run(capsys, 4, "two_box_base_case", 30.0,
         "strictly regular pairs above the low box's floor: unique monotone optimum")


def test_criterion_05_exp_regular_weak_feedback(capsys):
    _run(capsys, 5, "weak_feedback_monotonicity", 300.0,
         "doubling payoff gaps plus a global belief floor keep the "
         "payoff-sorted order optimal")


def test_criterion_06_commutation_sign_law(capsys):
    _run(capsys, 6, "commutation_sign", 30.0,
         "two-box composition order of belief updates follows the a*q "
         "cross-product sign on a 21-point grid")


def test_criterion_07_single_crossing_mass_differences(capsys):
    _run(capsys, 7, "single_crossing", 120.0,
         "first-two-swap mass differences match the linear closed form, "
         "single-signed, never exceeding the first gap")


def test_criterion_08_counterexample_catalog(capsys):
    report = _run(capsys, 8, "counterexamples", 30.0,
                  "catalog flip boundaries replayed exactly, quoted-point "
                  "discrepancies flagged")
    notes = "\n".join(report.notes)
    assert "boundary is 1/2" in notes
    assert "boundary is 3/5" in notes
    assert notes.count("DISCREPANCY") == 2
    assert "nonmonotone as quoted" in notes
    assert "19/23" in notes


def test_criterion_09_normalization_invariance(capsys):
    _run(capsys, 9, "normalization_shift", 60.0,
         "shifting payoffs and outside option moves every value by the "
         "shift and preserves argmax sets")


def test_criterion_10_monte_carlo_consistency(capsys):
    _run(capsys, 10, "mc_consistency", 120.0,
         "million-episode simulations of value and survival stay within "
         "the Bonferroni z bound of exact evaluation")


def test_criterion_11_near_ties_solve_exactly_in_time(capsys):
    """Ten journals whose payoffs lie 1/256 apart and whose rates lie
    1/1000 apart, without costs: every order is worth nearly the same, so
    a loose bound visits most of the 10! orders."""
    budget = 2.0
    inst = Instance(tuple(Journal(f"J{k}", 4 - F(k, 256), F(1, 2) - F(k, 1000),
                                  F(1, 4) + F(k, 1000)) for k in range(10)),
                    Belief(F(1, 2)))
    t0 = time.perf_counter()
    res = brute_force_optimal(inst)
    elapsed = time.perf_counter() - t0
    want = ((0, 1, 2, 4, 6, 8, 9, 7, 5, 3),)
    ok = (res.argmax_set == want
          and res.best_value == evaluate(inst, res.best_order).total
          and elapsed < budget)
    _announce(capsys, 11, ok, f"ten near-tied journals solved exactly "
                      f"({elapsed:.2f}s < {budget:.0f}s)")
    assert res.argmax_set == want
    assert res.best_value == evaluate(inst, res.best_order).total
    assert elapsed < budget
