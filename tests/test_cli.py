"""Command line surface: output shapes and exit codes."""
import json
import subprocess
import sys
import time

import pytest

import jss.cli as cli
from jss import Belief, Instance, Journal, SearchOrder, example_pair, save_instance
from jss.cli import TRIAL_LIMIT, build_parser, main
from jss.sim import EPISODE_LIMIT
from jss.solver import GRID_LIMIT, SweepResult
from jss.verify import VerificationReport


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    save_instance(example_pair("1/2"), path)
    return str(path)


def test_threshold_prints_exact_boundary(pair_file, capsys):
    assert main(["threshold", "-i", pair_file]) == 0
    out = capsys.readouterr().out
    assert "threshold: 17/29" in out
    assert "optimal above" in out


THRESHOLD_PAIRS = {
    "always": (Journal("J1", 3, "1/10", 0), Journal("J2", 6, "9/10", 0, "3/10")),
    "never": (Journal("J1", 2, "3/10", "4/5", "2/5"), Journal("J2", 2, "1/5", "4/5", "1/5")),
    "identical": (Journal("J1", 4, "3/10", "1/10"), Journal("J2", 4, "3/10", "1/10")),
}


@pytest.mark.parametrize("kind, expected", [
    ("threshold", "threshold: 17/29\n"
                  "threshold_float: 0.586206896552\n"
                  "payoff-sorted order optimal above the threshold\n"),
    ("always", "threshold: none (always)\n"
               "payoff-sorted order optimal at every prior\n"),
    ("never", "threshold: none (never)\n"
              "payoff-sorted order optimal at no interior prior\n"),
    ("identical", "threshold: none (always)\n"
                  "payoff-sorted order optimal at every prior (both orders tie everywhere)\n"),
])
def test_threshold_text_of_each_outcome(kind, expected, pair_file, tmp_path, capsys):
    if kind != "threshold":
        pair_file = tmp_path / f"{kind}.json"
        save_instance(Instance(THRESHOLD_PAIRS[kind], Belief("1/2")), pair_file)
    assert main(["threshold", "-i", str(pair_file)]) == 0
    assert capsys.readouterr().out == expected


def test_threshold_needs_two_journals(tmp_path, capsys):
    path = tmp_path / "three.json"
    save_instance(
        Instance(
            tuple(Journal(f"J{i}", 3 - i, "1/2", 0) for i in range(3)),
            Belief("1/2"),
        ),
        path,
    )
    assert main(["threshold", "-i", str(path)]) == 2
    assert "exactly 2 journals" in capsys.readouterr().err


def test_solve_text_and_json(pair_file, capsys):
    assert main(["solve", "-i", pair_file, "--prior", "0.7"]) == 0
    out = capsys.readouterr().out
    assert "best order: J1 > J2" in out
    assert "443/500" in out

    assert main(["solve", "-i", pair_file, "--prior", "0.7", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["best_order"] == ["J1", "J2"]
    assert doc["best_value"] == "443/500"
    assert doc["best_value_float"] == pytest.approx(0.886)
    assert doc["method"] == "brute_force"


def test_solve_algorithms(pair_file, capsys):
    assert main(["solve", "-i", pair_file, "--algorithm", "local"]) == 0
    assert "local_search" in capsys.readouterr().out
    # the showcase pair updates do not commute, so the DP must refuse
    assert main(["solve", "-i", pair_file, "--algorithm", "dp"]) == 2
    assert "order-independent" in capsys.readouterr().err
    assert main(["solve", "-i", pair_file, "--algorithm", "index"]) == 2
    assert "requires q = 0" in capsys.readouterr().err


def test_solve_has_no_thread_knobs(pair_file, capsys, monkeypatch):
    assert main(["solve", "-i", pair_file, "--threads", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: unrecognized arguments")
    assert "Traceback" not in captured.err and not captured.out

    assert main(["solve", "-i", pair_file, "--json"]) == 0
    serial = capsys.readouterr().out
    assert json.loads(serial)["details"]["threads"] == 1
    for value in ("2", "many", "-4"):
        monkeypatch.setenv("JSS_THREADS", value)
        assert main(["solve", "-i", pair_file, "--json"]) == 0
        assert capsys.readouterr().out == serial


# Names the JSON encoder must escape: a quote, a backslash, a newline
# and non-ASCII text (ensure_ascii writes \\u escapes).
AWKWARD = ('Q"uote', "back\\slash", "new\nline", "Revue d\u00e9j\u00e0", "\u65e5\u672c")


def _awkward(rates, prior="1/2"):
    from jss import Belief, Instance, Journal

    return Instance(tuple(Journal(f"{AWKWARD[k % len(AWKWARD)]}{k}", u, a, q, c)
                          for k, (u, a, q, c) in enumerate(rates)), Belief(prior))


def _generic_solve_json(inst, res) -> str:
    """The solve payload through the plain encoder, names listed order by order."""
    from fractions import Fraction

    from jss import dump_instance, format_number

    names = inst.journal_names()
    value = res.best_value
    return json.dumps({
        "instance": dump_instance(inst),
        "method": res.method,
        "best_order": [names[i] for i in res.best_order.perm],
        "best_order_positions": list(res.best_order.perm),
        "best_value": format_number(value) if isinstance(value, Fraction) else value,
        "best_value_float": float(value),
        "argmax": [[names[i] for i in p] for p in res.argmax_set],
        "details": res.details,
    }, indent=2)


@pytest.mark.parametrize("rates", [
    [(2, "1/3", "1/5", "1/10")] * 6,                                  # one class
    [(3 - k // 2, "1/4", "1/8", 0) for k in range(6)],                # identical pairs
    [(5 - k, "1/2", "1/6", "1/10") for k in range(4)],                # distinct
], ids=["identical", "pairs", "distinct"])
@pytest.mark.parametrize("mode", ["exact", "float"])
def test_solve_json_matches_the_plain_encoder(rates, mode, tmp_path, capsys):
    from jss import brute_force_optimal, save_instance

    inst = _awkward(rates)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    assert main(["solve", "-i", str(path), "--json", "--mode", mode]) == 0
    out = capsys.readouterr().out
    res = brute_force_optimal(inst, mode=mode)
    assert out == _generic_solve_json(inst, res) + "\n"

    assert main(["solve", "-i", str(path), "--mode", mode]) == 0
    labels = ", ".join(SearchOrder(p).label(inst) for p in res.argmax_set)
    assert capsys.readouterr().out.endswith("\nargmax set: " + labels + "\n")


def test_name_lists_match_the_plain_encoder():
    from jss.cli import _dumps, _name_lists

    for perms in ([(0,)], [(1, 0), (0, 1)], [(2, 0, 4, 1, 3)]):
        payload = {"argmax": [[AWKWARD[i] for i in p] for p in perms], "n": 1}
        spliced = dict(payload, argmax=_name_lists(AWKWARD, perms))
        assert _dumps(spliced) == json.dumps(payload, indent=2)


def test_argmax_limit_exits_2_fast(tmp_path, capsys):
    import time

    path = tmp_path / "ten.json"
    path.write_text(json.dumps({"journals": [{"u": "2", "a": "1/3", "q": "1/5"}] * 10,
                                "prior_h": "1/2"}))
    t0 = time.perf_counter()
    assert main(["solve", "-i", str(path), "--json"]) == 2
    assert time.perf_counter() - t0 < 1
    assert "over the limit of 362880 (9!)" in capsys.readouterr().err


def test_argmax_limit_of_distinct_journals_exits_2_fast(tmp_path, capsys):
    """All 10! orders tie (no journal ever accepts, and nothing costs), yet
    no two journals are interchangeable: the walk stops once the ties it
    holds pass the limit, and never lists all of them."""
    path = tmp_path / "ten.json"
    path.write_text(json.dumps({"journals": [{"u": "1", "a": "0", "q": f"{k}/20"}
                                             for k in range(1, 11)], "prior_h": "1/2"}))
    t0 = time.perf_counter()
    assert main(["solve", "-i", str(path), "--json"]) == 2
    assert time.perf_counter() - t0 < 8
    assert capsys.readouterr().err == (
        "error: the argmax set has at least 362881 orders, over the limit of 362880 "
        "(9!) that a solver lists\n")


@pytest.mark.parametrize("argv, sep", [
    (["sweep", "--best-only", "--grid", "0:1:3"], ">"),
    (["simulate", "--order", "best", "--episodes", "1000"], " > "),
])
def test_one_best_order_of_ten_identical_journals(argv, sep, tmp_path, capsys):
    """Both commands read one order, so the 10! orders that tie are never listed."""
    path = tmp_path / "ten.json"
    path.write_text(json.dumps({"journals": [{"u": "2", "a": "1/3", "q": "1/5"}] * 10,
                                "prior_h": "1/2"}))
    assert main([argv[0], "-i", str(path), *argv[1:]]) == 0
    order = sep.join(f"J{k}" for k in range(1, 11))
    lines = capsys.readouterr().out.splitlines()
    if argv[0] == "sweep":
        assert [row.split(",")[::2] for row in lines[1:]] == [
            ["0", order], ["1/2", order], ["1", order]]
    else:
        assert lines[0] == f"order: {order}"


@pytest.mark.parametrize("algorithm", ["dp", "index"])
def test_argmax_limit_exits_2_fast_for_dp_and_index(algorithm, tmp_path, capsys):
    import time

    path = tmp_path / "ten.json"
    path.write_text(json.dumps({"journals": [{"u": "2", "a": "1/3", "q": "0"}] * 10,
                                "prior_h": "1/2"}))
    t0 = time.perf_counter()
    assert main(["solve", "-i", str(path), "--algorithm", algorithm]) == 2
    assert time.perf_counter() - t0 < 1
    assert "over the limit of 362880 (9!)" in capsys.readouterr().err


def test_dp_over_its_cap_exits_2_fast(tmp_path, capsys):
    import time

    # feedback-free journals commute, so only the size cap refuses them
    path = tmp_path / "twenty_one.json"
    path.write_text(json.dumps({"journals": [{"u": str(k + 1), "a": "1/2", "q": "0"}
                                             for k in range(21)], "prior_h": "1/2"}))
    t0 = time.perf_counter()
    assert main(["solve", "-i", str(path), "--algorithm", "dp"]) == 2
    assert time.perf_counter() - t0 < 1
    captured = capsys.readouterr()
    assert captured.err == "error: subset DP needs I <= 20 journals (2^I states), got 21\n"
    assert not captured.out


def test_index_rule_answers_in_the_mode_asked(tmp_path, capsys):
    from fractions import Fraction

    from jss import Belief, Instance, Journal
    from jss._engine import FLOAT_TIE_TOL

    path = tmp_path / "nofb.json"
    save_instance(Instance((Journal("HI", 10, "1/2", 0, c=1),
                            Journal("LO", 9, "9/10", 0, c="9/100")), Belief("1/3"),
                           "1/7"), path)
    argv = ["solve", "-i", str(path), "--algorithm", "index", "--json"]
    assert main(argv) == 0
    exact = Fraction(json.loads(capsys.readouterr().out)["best_value"])
    assert main([*argv, "--mode", "float"]) == 0
    got = json.loads(capsys.readouterr().out)["best_value"]
    assert isinstance(got, float)
    assert abs(got - exact) <= FLOAT_TIE_TOL * max(1, abs(exact))


@pytest.mark.parametrize("field, value", [
    ("u", "1e400"), ("u", "-1e400"), ("c", "1e400"), ("outside_option", "1e400"),
    ("c", "1e308"),     # each field fits, but two costs of 1e308 do not
])
@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_values_beyond_the_float_range_exit_2(field, value, mode, fmt, tmp_path, capsys):
    doc = {"journals": [{"u": "3", "a": "1/2", "q": "1/5", "c": "1e308"},
                        {"u": "1", "a": "1/3", "q": "1/4"}],
           "prior_h": "1/2", "outside_option": "0"}
    if field == "outside_option":
        doc[field] = value
    else:
        doc["journals"][1][field] = value
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "-i", str(path), "--mode", mode, *fmt]) == 2
    err = capsys.readouterr().err
    assert "exceeds the float range" in err and "1.7976931348623157e+308" in err
    assert "Traceback" not in err


def test_json_number_beyond_the_float_range_exits_2(tmp_path, capsys):
    path = tmp_path / "huge.json"       # a JSON number, read as an exact Fraction
    path.write_text('{"journals": [{"u": 1e400, "a": "1/2"}], "prior_h": "1/2"}')
    assert main(["solve", "-i", str(path), "--mode", "float"]) == 2
    assert "exceeds the float range" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("fmt", [[], ["--json"]], ids=["text", "json"])
def test_values_inside_the_float_range_solve(mode, fmt, tmp_path, capsys):
    doc = {"journals": [{"u": "1.6e308", "a": "1/2", "q": "1/5"},
                        {"u": "-1e307", "a": "1/3", "q": "1/4", "c": "1e307"},
                        *({"u": str(k), "a": "1/3", "q": "1/4"} for k in range(3))],
           "prior_h": "1/2", "outside_option": "-1e307"}
    path = tmp_path / "large.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", "-i", str(path), "--mode", mode, *fmt]) == 0
    out = capsys.readouterr().out
    if fmt:
        assert json.loads(out)["best_order"][0] == "J1"
    else:
        assert "best order: J1 > " in out


def test_check_summaries(pair_file, capsys):
    assert main(["check", "-i", pair_file, "--prior", "9/10"]) == 0
    out = capsys.readouterr().out
    assert "regularity: fails" in out
    assert "order_independence: fails" in out
    assert "globally_bounded_weak_feedback: holds" in out

    assert main(["check", "-i", pair_file, "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["condition"] for c in doc["checks"]] == [
        "regularity",
        "order_independence",
        "globally_bounded_weak_feedback",
    ]


def test_check_skips_the_floor_walk_past_eight_journals(tmp_path, capsys):
    path = tmp_path / "nine.json"
    path.write_text(json.dumps({"journals": [{"u": 9 - k, "a": "1/2", "q": "1/3"}
                                             for k in range(9)], "prior_h": "1/2"}))
    skipped = "9 journals means sum(n!/(n-k)!) prefixes; cap is 8"
    assert main(["check", "-i", str(path)]) == 0
    assert capsys.readouterr().out == (
        "regularity: holds (margin 0)\n"
        "order_independence: holds (margin 0)\n"
        f"globally_bounded_weak_feedback: skipped ({skipped})\n")

    assert main(["check", "-i", str(path), "--json"]) == 0
    printed = capsys.readouterr().out
    assert printed.endswith(
        '    {\n'
        '      "condition": "globally_bounded_weak_feedback",\n'
        f'      "skipped": "{skipped}"\n'
        '    }\n'
        '  ]\n'
        '}\n')
    assert printed == json.dumps(json.loads(printed), indent=2) + "\n"
    out = tmp_path / "check.json"
    assert main(["check", "-i", str(path), "--json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_sweep_csv(pair_file, capsys, tmp_path):
    assert main(["sweep", "-i", pair_file, "--grid", "0.5:0.7:5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "mu,value_J1>J2,value_J2>J1,best_order"
    assert len(lines) == 6
    assert lines[1].startswith("1/2,13/20,7/10,")

    out = tmp_path / "sweep.csv"
    assert main(["sweep", "-i", pair_file, "--grid", "0:1:3", "--out", str(out)]) == 0
    assert out.read_text().startswith("mu,")

    assert main(["sweep", "-i", pair_file, "--grid", "0:1:4", "--mode", "float"]) == 0
    assert capsys.readouterr().out == (
        "mu,value_J1>J2,value_J2>J1,best_order\r\n"
        "0.0,0.06,0.4,J2>J1\r\n"
        "0.3333333333333333,0.4533333333333333,0.6000000000000001,J2>J1\r\n"
        "0.6666666666666666,0.8466666666666667,0.8,J1>J2\r\n"
        "1.0,1.24,1.0,J1>J2\r\n")

    assert main(["sweep", "-i", pair_file, "--grid", "nonsense"]) == 1


def test_simulate_output(pair_file, capsys):
    assert main(["simulate", "-i", pair_file, "--episodes", "2000", "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "exact value: 13/20" in out
    assert "period 1: 1.000000" in out

    assert main(["simulate", "-i", pair_file, "--order", "J2,J1", "--json",
                 "--episodes", "500"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["order"] == ["J2", "J1"]
    assert doc["exact_value"] == "7/10"

    assert main(["simulate", "-i", pair_file, "--order", "best", "--episodes", "2000",
                 "--seed", "4"]) == 0
    assert capsys.readouterr().out == (
        "order: J2 > J1\n"
        "episodes: 2000   seed: 4\n"
        "exact value: 7/10 (0.7)\n"
        "mc mean: 0.672   stderr: 0.0337\n"
        "z-score: -0.83\n"
        "survival (analytic vs empirical):\n"
        "  period 1: 1.000000  1.000000\n"
        "  period 2: 0.850000  0.840500\n"
        "  period 3: 0.740000  0.738000\n")

    for order in ("J9,J1", "J1", "J1,J1"):
        assert main(["simulate", "-i", pair_file, "--order", order]) == 1
        assert capsys.readouterr().err.startswith("usage error: --order names")
    assert main(["simulate", "-i", pair_file, "--episodes", "0"]) == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "mc_consistency", "--episodes", "0"],
    ["verify", "--trials", "-3"],
    ["verify", "--suite", "mc_consistency", "--seed", "-200"],
    ["verify", "--seed", str(2 ** 64)],
    ["simulate", "--seed", "-1"],
    ["simulate", "--episodes", "0"],
], ids=" ".join)
def test_out_of_range_counts_and_seeds_are_usage_errors(argv, pair_file, capsys):
    flag = argv[-2]
    if argv[0] != "verify":
        argv = [*argv, "-i", pair_file]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"usage error: argument {flag}: ")
    assert "Traceback" not in captured.err and not captured.out


@pytest.mark.parametrize("argv, limit", [
    (["verify", "--suite", "mc_consistency", "--episodes", str(EPISODE_LIMIT + 1)],
     EPISODE_LIMIT),
    (["verify", "--suite", "mc_consistency", "--trials", str(TRIAL_LIMIT + 1)], TRIAL_LIMIT),
    (["simulate", "--episodes", str(EPISODE_LIMIT + 1)], EPISODE_LIMIT),
    (["sweep", "--grid", f"0:1:{GRID_LIMIT + 1}"], GRID_LIMIT),
], ids=["verify --episodes", "verify --trials", "simulate --episodes", "sweep --grid"])
def test_counts_past_their_caps_exit_1_fast(argv, limit, pair_file, capsys):
    if argv[0] != "verify":
        argv = [*argv, "-i", pair_file]
    start = time.perf_counter()
    assert main(argv) == 1
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err.startswith("usage error: ") and str(limit) in captured.err
    assert "Traceback" not in captured.err and not captured.out


def test_each_cap_itself_is_accepted(pair_file, monkeypatch):
    parser = build_parser()
    args = parser.parse_args(["verify", "--trials", str(TRIAL_LIMIT),
                              "--episodes", str(EPISODE_LIMIT)])
    assert (args.trials, args.episodes) == (TRIAL_LIMIT, EPISODE_LIMIT)
    args = parser.parse_args(["simulate", "-i", pair_file, "--episodes", str(EPISODE_LIMIT)])
    assert args.episodes == EPISODE_LIMIT
    # the grid is read by cmd_sweep: build it, but do not sweep it
    sizes = []

    def count_only(inst, grid, **kwargs):
        sizes.append(len(grid))
        return SweepResult(labels=(), rows=(), mode="exact")
    monkeypatch.setattr(cli, "payoff_sweep", count_only)
    assert main(["sweep", "-i", pair_file, "--grid", f"0:1:{GRID_LIMIT}"]) == 0
    assert sizes == [GRID_LIMIT]


@pytest.mark.parametrize("argv, code, start", [
    (["solve", "-i", '{"journals": [{"u": 1, "a": 0.5}], "prior_h": '], 2,
     "error: invalid JSON:"),
    (["solve", "-i", '{"journals": [3], "prior_h": 0.5}'], 2,
     "error: journal #1 must be an object\n"),
    (["verify", "--suite", "ratio_bound", "--trials", "abc"], 1,
     "usage error: argument --trials: needs an integer >= 1, got 'abc'\n"),
], ids=["truncated JSON", "journal not an object", "non-integer count"])
def test_malformed_input_exits_with_its_code_and_no_traceback(argv, code, start, capsys):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.startswith(start)
    assert "Traceback" not in captured.err and not captured.out


def test_verify_subcommand(capsys):
    assert main(["verify", "--suite", "two_box_base_case", "--trials", "8"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("[two_box_base_case] VERIFIED")

    assert main(["verify", "--suite", "nope"]) == 1


def test_a_repeated_suite_name_runs_once(capsys, monkeypatch):
    import jss.verify as verify_mod
    real, calls = verify_mod.run_suite, []

    def counted(name, **kwargs):
        calls.append(name)
        return real(name, **kwargs)
    monkeypatch.setattr(verify_mod, "run_suite", counted)
    assert main(["verify", "--suite", "ratio_bound", "--suite", "counterexamples",
                 "--suite", "ratio_bound", "--trials", "2", "--json"]) == 0
    assert calls == ["ratio_bound", "counterexamples"]
    assert list(json.loads(capsys.readouterr().out)) == calls


def test_verify_flags_reach_only_suites_that_take_them(capsys):
    assert main(["verify", "--suite", "mc_consistency", "--trials", "2",
                 "--episodes", "2000", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["mc_consistency"]["trials"] == 2
    assert main(["verify", "--suite", "counterexamples", "--trials", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["counterexamples"]["trials"] == 4


def test_verify_json_and_failure_exit(capsys, monkeypatch):
    import jss.verify as verify_mod

    def rigged(trials=1, seed=0):
        rep = VerificationReport(claim="rigged", trials=trials)
        rep.failures.append({"trial": 0, "seed": seed, "message": "boom"})
        return rep

    monkeypatch.setitem(verify_mod.SUITES, "two_box_base_case", rigged)
    assert main(["verify", "--suite", "two_box_base_case", "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["two_box_base_case"]["status"] == "falsified"


def test_missing_instance_file(capsys):
    assert main(["solve", "-i", "/no/such/file.json"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-i", "--out"])
def test_unreadable_or_unwritable_path_exits_2(flag, pair_file, tmp_path, capsys):
    argv = ["solve", "-i", pair_file, flag, str(tmp_path)]    # a directory
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "directory" in captured.err
    assert not captured.out


def test_malformed_instance(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"journals": [{"u": 1, "a": "3/2"}], "prior_h": "1/2"}')
    assert main(["solve", "-i", str(bad)]) == 2
    assert "acceptance rate" in capsys.readouterr().err


@pytest.mark.parametrize("journals, message", [
    ([{"name": "A", "u": 1, "a": "1/2"}, {"name": "A", "u": 2, "a": "1/2"}],
     "error: journal #2 repeats the name 'A'\n"),
    ([{"u": 1, "a": "1/2"}, {"name": "J1", "u": 2, "a": "1/2"}],   # J1 by default
     "error: journal #2 repeats the name 'J1'\n"),
], ids=["named", "defaulted"])
@pytest.mark.parametrize("argv", [["solve"], ["simulate", "--order", "J1,J1"]], ids=" ".join)
def test_duplicate_journal_names_exit_2(journals, message, argv, tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps({"journals": journals, "prior_h": "1/2"}))
    assert main([*argv, "-i", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == message and not captured.out


def test_usage_error_on_unknown_command():
    assert main(["optimize"]) == 1


def test_console_script_entry_point(pair_file):
    proc = subprocess.run(
        [sys.executable, "-m", "jss.cli", "threshold", "-i", pair_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "threshold: 17/29" in proc.stdout


def test_the_cached_parser_keeps_no_state_between_calls(pair_file, capsys):
    assert build_parser() is build_parser()
    priors = []
    for extra in (["--prior", "1/3"], []):
        assert main(["solve", "--json", "-i", pair_file, *extra]) == 0
        priors.append(json.loads(capsys.readouterr().out)["instance"]["prior_h"])
    assert priors == ["1/3", "1/2"]
    parser = build_parser()
    assert parser.parse_args(["verify", "--suite", "ratio_bound", "--suite", "all"]).suite == [
        "ratio_bound", "all"]
    assert parser.parse_args(["verify"]).suite is None


COLD_CALLS = """
import contextlib, io, json, sys
import jss
from jss.cli import main

def loaded():
    return [m for m in ("numpy", "concurrent.futures.process") if m in sys.modules]

def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()

report = {"import": loaded()}
report["solve_out"] = run("solve", "--json", "-i", sys.argv[1])
report["solve"] = loaded()
report["simulate_out"] = run("simulate", "--json", "-i", sys.argv[1], "--order", "best",
                             "--episodes", "2000", "--seed", "4")
report["simulate"] = loaded()
print(json.dumps(report))
"""


def test_import_and_solve_leave_numpy_and_the_pool_unloaded(pair_file, capsys):
    proc = subprocess.run([sys.executable, "-c", COLD_CALLS, pair_file],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["import"] == report["solve"] == []
    assert report["simulate"] == ["numpy"]
    assert main(["solve", "--json", "-i", pair_file]) == 0
    assert report["solve_out"] == capsys.readouterr().out
    doc = json.loads(report["simulate_out"])
    assert (doc["mc_mean"], doc["mc_stderr"]) == (0.672, 0.0337012742777476)
    assert doc["survival_empirical"] == [1.0, 0.8405, 0.738]
