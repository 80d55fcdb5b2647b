"""Command line interface.

Subcommands: solve, check, threshold, sweep, simulate, verify.
Exit codes: 0 success, 1 usage error, 2 invalid instance or a request the
instance cannot satisfy, 3 verification failure.
"""
from __future__ import annotations

import argparse
import inspect
import itertools
import json
import math
import sys

from . import verify as verify_mod
from .conditions import (
    GBWF_POLICIES,
    ConditionError,
    check_globally_bounded_weak_feedback,
    check_order_independence,
    check_regularity,
)
from .model import (
    Instance,
    ModelError,
    SearchOrder,
    dump_instance,
    evaluate,
    format_number,
    load_instance,
    monotone_order,
    parse_number,
    plain,
)
from .sim import simulate_batch
from .solver import (
    SolverError,
    belief_grid,
    brute_force_optimal,
    index_order_no_feedback,
    pairwise_swap_local_search,
    payoff_sweep,
    prior_threshold_2box,
    subset_dp_optimal,
)


class UsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load(args) -> Instance:
    inst = load_instance(args.instance)
    if getattr(args, "prior", None) is not None:
        inst = inst.with_prior(parse_number(args.prior))
    return inst


class _Encoded(str):
    """A payload value already encoded as JSON, indented for a top-level key."""


def _dumps(payload: dict) -> str:
    """json.dumps(plain(payload), indent=2), byte for byte, for a
    non-empty payload, with each _Encoded value spliced in as it is.  The
    encoder escapes newlines inside strings, so indenting every line of a
    value's own encoding nests it one level down."""
    items = []
    for key, value in payload.items():
        if not isinstance(value, _Encoded):
            value = json.dumps(plain(value), indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {value}")
    return "{\n" + ",\n".join(items) + "\n}"


def _name_lists(names, perms) -> _Encoded:
    """The JSON list of each perm's journal names, at a top-level key.
    There is at least one perm, and all share one length, at least 1.
    The text is joined from one flat list: each name is followed by the
    separator the encoder puts after it, which closes the row after a
    row's last name."""
    quoted = [json.dumps(name) for name in names]
    n = len(perms[0])
    parts = [",\n      "] * (2 * n * len(perms))
    parts[::2] = map(quoted.__getitem__, itertools.chain.from_iterable(perms))
    parts[2 * n - 1::2 * n] = ["\n    ],\n    [\n      "] * len(perms)
    parts[-1] = "\n    ]\n  ]"
    return _Encoded("[\n    [\n      " + "".join(parts))


def _emit(args, text_lines, payload):
    if getattr(args, "json", False):
        out = _dumps(payload)
    else:
        out = "\n".join(text_lines)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _int_flag(low, high, bounds: str):
    """argparse type: an integer n with low <= n < high."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or not low <= value < high:
            raise argparse.ArgumentTypeError(f"needs an integer {bounds}, got {text!r}")
        return value
    return parse


_count = _int_flag(1, math.inf, ">= 1")
_seed = _int_flag(0, 2 ** 64, "in [0, 2**64)")


def build_parser() -> Parser:
    p = Parser(prog="jss", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, prior=True):
        sp.add_argument("--instance", "-i", required=True,
                        help="instance JSON file (or inline JSON)")
        if prior:
            sp.add_argument("--prior", help="override the prior, e.g. 0.6 or 17/29")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.add_argument("--out", help="write output to a file instead of stdout")

    sp = sub.add_parser("solve", help="find the optimal submission order")
    common(sp)
    sp.add_argument("--algorithm", choices=("brute", "index", "dp", "local"),
                    default="brute")
    sp.add_argument("--mode", choices=("exact", "float"), default="exact")

    sp = sub.add_parser("check", help="run hypothesis checks on an instance")
    common(sp)
    sp.add_argument("--strict", action="store_true", help="strict regularity")
    sp.add_argument("--exponential", action="store_true",
                    help="require doubling payoff gaps")
    sp.add_argument("--policy", choices=GBWF_POLICIES, default="max_over_journals",
                    help="belief floor policy for the weak-feedback check")

    sp = sub.add_parser("threshold", help="exact two-box prior threshold")
    common(sp, prior=False)
    sp.add_argument("--mode", choices=("exact",), default="exact",
                    help="threshold certification is exact-only")

    sp = sub.add_parser("sweep", help="value of each order across a prior grid")
    common(sp, prior=False)
    sp.add_argument("--grid", default="0:1:101",
                    help="START:STOP:COUNT, inclusive endpoints (default 0:1:101)")
    sp.add_argument("--mode", choices=("exact", "float"), default="exact")
    sp.add_argument("--best-only", action="store_true",
                    help="emit only the best order per prior")

    sp = sub.add_parser("simulate", help="Monte Carlo check of one order")
    common(sp)
    sp.add_argument("--order", default="monotone",
                    help="comma-separated journal names, 'monotone', or 'best'")
    sp.add_argument("--episodes", type=_count, default=100000)
    sp.add_argument("--seed", type=_seed, default=0)

    sp = sub.add_parser("verify", help="run randomized verification suites")
    sp.add_argument("--suite", action="append", default=None,
                    help=f"suite name or 'all' (repeatable); choices: "
                         f"{', '.join(sorted(verify_mod.SUITES))}")
    sp.add_argument("--trials", type=_count, default=None,
                    help="override trial count where a suite takes one")
    sp.add_argument("--seed", type=_seed, default=None)
    sp.add_argument("--episodes", type=_count, default=None,
                    help="episodes per run for the mc_consistency suite")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--out", help="write output to a file instead of stdout")
    return p


def cmd_solve(args) -> int:
    inst = _load(args)
    if args.algorithm == "brute":
        res = brute_force_optimal(inst, mode=args.mode)
    elif args.algorithm == "index":
        res = index_order_no_feedback(inst, mode=args.mode)
    elif args.algorithm == "dp":
        res = subset_dp_optimal(inst, mode=args.mode)
    else:
        res = pairwise_swap_local_search(inst, mode=args.mode)
    names = inst.journal_names()
    if not args.json:
        _emit(args, [f"instance: {len(names)} journals, "
                     f"prior {format_number(inst.prior.mu_h)}",
                     res.describe(inst)], None)
        return 0
    payload = {
        "instance": dump_instance(inst),
        "method": res.method,
        "best_order": [names[i] for i in res.best_order.perm],
        "best_order_positions": list(res.best_order.perm),
        "best_value": res.best_value,
        "best_value_float": float(res.best_value),
        "argmax": _name_lists(names, res.argmax_set),
        "details": res.details,
    }
    _emit(args, None, payload)
    return 0


def cmd_check(args) -> int:
    inst = _load(args)
    reports = [
        check_regularity(inst, strict=args.strict, exponential=args.exponential),
        check_order_independence(inst),
    ]
    try:
        reports.append(check_globally_bounded_weak_feedback(inst, policy=args.policy))
    except ConditionError as exc:
        reports.append(None)
        skipped = str(exc)
    lines = []
    payload = {"instance": dump_instance(inst), "checks": []}
    for rep in reports:
        if rep is None:
            lines.append(f"globally_bounded_weak_feedback: skipped ({skipped})")
            payload["checks"].append({"condition": "globally_bounded_weak_feedback",
                                      "skipped": skipped})
        else:
            lines.append(rep.summary())
            payload["checks"].append(rep.to_dict())
    _emit(args, lines, payload)
    return 0


def cmd_threshold(args) -> int:
    inst = load_instance(args.instance)
    if inst.size != 2:
        raise SolverError(f"threshold certification needs exactly 2 journals, "
                          f"got {inst.size}")
    res = prior_threshold_2box(inst.journals[0], inst.journals[1],
                               inst.outside_option)
    payload = {
        "kind": res.kind,
        "mu_star": res.mu_star,
        "mu_star_float": None if res.mu_star is None else float(res.mu_star),
        "direction": res.direction,
        "degenerate": res.degenerate,
        "diff_at_0": res.diff_at_0,
        "diff_at_1": res.diff_at_1,
    }
    _emit(args, [res.describe()], payload)
    return 0


def cmd_sweep(args) -> int:
    inst = load_instance(args.instance)
    try:
        start, stop, count = args.grid.split(":")
        grid = belief_grid(start, stop, int(count))
    except (ValueError, ModelError) as exc:
        raise UsageError(f"bad --grid {args.grid!r}: {exc}")
    table = payoff_sweep(inst, grid, mode=args.mode,
                         per_order=(False if args.best_only else None))
    if args.out:
        with open(args.out, "w", newline="") as fh:
            table.write_csv(fh)
    else:
        table.write_csv(sys.stdout)
    return 0


def cmd_simulate(args) -> int:
    inst = _load(args)
    names = list(inst.journal_names())
    if args.order == "monotone":
        order = monotone_order(inst)
    elif args.order == "best":
        order = brute_force_optimal(inst).best_order
    else:
        wanted = [w.strip() for w in args.order.split(",")]
        if sorted(wanted) != sorted(names):
            raise UsageError(f"--order names must be a permutation of {names}")
        order = SearchOrder(tuple(names.index(w) for w in wanted))
    trace = evaluate(inst, order)
    mean, se, freqs = simulate_batch(inst, order, args.episodes, args.seed)
    exact = float(trace.total)
    lines = [
        f"order: {order.label(inst)}",
        f"episodes: {args.episodes}   seed: {args.seed}",
        f"exact value: {format_number(trace.total)} ({exact:.6g})",
        f"mc mean: {mean:.6g}" + (f"   stderr: {se:.3g}" if se is not None else ""),
    ]
    if se:
        lines.append(f"z-score: {(mean - exact) / se:+.2f}")
    lines.append("survival (analytic vs empirical):")
    for t, (r, f) in enumerate(zip(trace.reach, freqs)):
        lines.append(f"  period {t + 1}: {float(r):.6f}  {f:.6f}")
    payload = {
        "order": [names[i] for i in order.perm],
        "episodes": args.episodes,
        "seed": args.seed,
        "exact_value": trace.total,
        "exact_value_float": exact,
        "mc_mean": mean,
        "mc_stderr": se,
        "survival_analytic": [float(r) for r in trace.reach],
        "survival_empirical": list(freqs),
    }
    _emit(args, lines, payload)
    return 0


def cmd_verify(args) -> int:
    chosen = args.suite or ["all"]
    if "all" in chosen:
        names = list(verify_mod.SUITES)
    else:
        names = []
        for s in chosen:
            if s not in verify_mod.SUITES:
                raise UsageError(f"unknown suite {s!r}; choices: "
                                 f"{', '.join(sorted(verify_mod.SUITES))}, all")
            names.append(s)
    given = {"trials": args.trials, "seed": args.seed, "episodes": args.episodes}
    reports = {}
    for name in names:
        params = inspect.signature(verify_mod.SUITES[name]).parameters
        reports[name] = verify_mod.run_suite(
            name, **{k: v for k, v in given.items() if v is not None and k in params})
    lines = []
    for name, rep in reports.items():
        lines.append(f"[{name}] {rep.text()}")
    payload = {name: rep.to_dict() for name, rep in reports.items()}
    _emit(args, lines, payload)
    return 3 if any(r.failures for r in reports.values()) else 0


COMMANDS = {
    "solve": cmd_solve,
    "check": cmd_check,
    "threshold": cmd_threshold,
    "sweep": cmd_sweep,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ModelError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
