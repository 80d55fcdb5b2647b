"""Verification suites at reduced trial counts: every suite must come
back clean, produce replayable failure records, and the catalog replay
must flag the quoted-evaluation discrepancies it was built to expose."""
import dataclasses
import inspect
import json

import pytest

import jss.sim as sim_mod
import jss.verify as verify_mod
from jss import SUITES, run_all, run_suite
from jss.model import Belief, SearchOrder
from jss.verify import reproduce_counterexamples, verify_two_box_base_case


SMALL = {
    "no_feedback_index": {"trials": 25},
    "order_independent_indexing": {"trials": 20},
    "two_box_base_case": {"trials": 40},
    "weak_feedback_monotonicity": {"trials": 12},
    "commutation_sign": {"trials": 150},
    "ratio_bound": {"trials": 30},
    "single_crossing": {"trials": 30},
    "normalization_shift": {"trials": 8},
    "counterexamples": {},
    "mc_consistency": {"trials": 3, "episodes": 20000},
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_verifies_at_reduced_load(name):
    report = run_suite(name, **SMALL[name])
    assert report.status == "verified", report.text()
    assert report.failures == []
    assert report.elapsed_seconds >= 0
    assert report.trials >= 1


def test_unknown_suite_name():
    with pytest.raises(KeyError):
        run_suite("everything")


def test_report_round_trips_through_json():
    report = verify_two_box_base_case(trials=10)
    blob = json.dumps(report.to_dict())
    back = json.loads(blob)
    assert back["status"] == "verified"
    assert back["trials"] == 10
    assert isinstance(back["failures"], list)
    assert "claim" in back and back["claim"]


def test_failure_records_are_replayable():
    # force a failure by shrinking the claim's tolerance: run the MC suite
    # with far too few episodes for its z bound to be meaningful is
    # still likely to pass, so instead check the record format directly
    from jss.verify import _Trials
    from jss import example_pair

    t = _Trials(claim="format probe", trials=4, seed=107)

    def trial(k, _rng):
        if k == 3:
            t.fail(example_pair("1/2"), "probe", extra=7)
    t.each(trial)
    rep = t.done()
    assert rep.status == "falsified"
    entry = rep.failures[0]
    assert entry["trial"] == 3 and entry["seed"] == 110
    assert entry["extra"] == 7
    assert entry["instance"]["prior_h"] == "1/2"
    json.dumps(rep.to_dict())  # serializable as-is
    assert "failure at trial 3" in rep.text()


def test_counterexample_replay_flags_quoted_discrepancies():
    report = reproduce_counterexamples()
    assert report.status == "verified"
    notes = "\n".join(report.notes)
    assert notes.count("DISCREPANCY") == 2
    assert "acceptance_rate_inverted" in notes
    assert "worthless_feedback_box" in notes
    assert "as quoted" in notes  # the low-prior floor case really is nonmonotone
    assert "19/23" in notes


def test_run_all_honours_per_suite_overrides():
    results = run_all(**SMALL)
    assert sorted(results) == sorted(SUITES)
    assert all(rep.status == "verified" for rep in results.values())


def test_suites_take_only_trials_seed_episodes():
    for name, fn in SUITES.items():
        assert set(inspect.signature(fn).parameters) <= {"trials", "seed", "episodes"}, name
    assert not inspect.signature(reproduce_counterexamples).parameters


def test_failure_seeds_replay_their_trial(monkeypatch):
    # an oracle that is always wrong: every trial and both fixed probes fail
    real = verify_mod.brute_force_optimal

    def wrong(inst, *args, **kwargs):
        res = real(inst, *args, **kwargs)
        flipped = SearchOrder(tuple(reversed(res.best_order.perm)))
        return dataclasses.replace(res, best_value=res.best_value + 1,
                                   argmax_set=(flipped.perm,))

    monkeypatch.setattr(verify_mod, "brute_force_optimal", wrong)
    report = run_suite("no_feedback_index", trials=3, seed=500)
    assert [(f["trial"], f["seed"]) for f in report.failures] == [
        (0, 500), (1, 501), (2, 502), (-1, 500), (-2, 500)]
    # the replay rule: --seed <seed - trial> --trials <trial + 1>
    last = report.failures[1]
    replay = run_suite("no_feedback_index", trials=last["trial"] + 1,
                       seed=last["seed"] - last["trial"])
    assert replay.failures[last["trial"]] == last


def _altered(change):
    """A fault: call the real callee, then change its result."""
    return lambda real: lambda *args: change(real(*args))


_reversed = _altered(lambda res: dataclasses.replace(
    res, argmax_set=tuple(perm[::-1] for perm in res.argmax_set)))

# suite -> (the name it calls in jss.verify, the fault that wraps that callee)
FAULTS = {
    "order_independent_indexing": ("subset_dp_optimal", _altered(
        lambda res: dataclasses.replace(res, best_value=res.best_value + 1))),
    "two_box_base_case": ("brute_force_optimal", _reversed),
    "weak_feedback_monotonicity": ("brute_force_optimal", _reversed),
    "commutation_sign": ("_composition_sign", lambda real: lambda *args: 2),
    # B1 is the high box: a posterior of 0 falls below the survival ratio
    "ratio_bound": ("update_belief", lambda real: lambda j, b: (
        Belief(0) if j.name == "B1" else real(j, b))),
    "single_crossing": ("evaluate", _altered(lambda trace: dataclasses.replace(
        trace, beliefs=tuple(b / 2 for b in trace.beliefs)))),
    "normalization_shift": ("normalize", lambda real: lambda inst, shift: real(inst, shift + 1)),
    "counterexamples": ("prior_threshold_2box", _altered(
        lambda thr: dataclasses.replace(thr, direction="below"))),
}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_a_faulty_callee_fails_each_trial_once_at_its_seed(name, monkeypatch):
    target, wrap = FAULTS[name]
    monkeypatch.setattr(verify_mod, target, wrap(getattr(verify_mod, target)))
    kwargs = dict(SMALL[name])
    if "seed" in inspect.signature(SUITES[name]).parameters:
        kwargs["seed"] = 300
    base = kwargs.get("seed", 0)
    report = run_suite(name, **kwargs)
    assert report.status == "falsified"
    trials = [f["trial"] for f in report.failures]
    assert any(k >= 0 for k in trials)
    for f in report.failures:
        assert f["seed"] == base + max(f["trial"], 0), f
    assert len(trials) == len(set(trials)), trials


@pytest.mark.parametrize("seed", [614689, 750074])
def test_mc_consistency_bound_clears_chance_misses(seed):
    # a fixed 3-sigma bound falsified both seeds by chance (|z| 3.03 and
    # 4.28 on the retry); the bound over all of a call's comparisons does not
    report = run_suite("mc_consistency", trials=40, seed=seed, episodes=100000)
    assert report.status == "verified", report.text()


def test_mc_consistency_catches_double_charged_cost(monkeypatch):
    real = sim_mod._payoff_table

    def double_first_cost(inst, order):
        # the first journal's cost is charged twice on every path
        return real(inst, order) - float(inst.journals[order.perm[0]].c)

    monkeypatch.setattr(sim_mod, "_payoff_table", double_first_cost)
    report = run_suite("mc_consistency")
    assert report.status == "falsified"
    assert all("simulation off twice: mean" in f["message"] for f in report.failures)
