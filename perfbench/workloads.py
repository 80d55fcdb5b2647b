"""Seeded workloads for the jss benchmark.

A workload is a fixed sequence of cycles; each cycle is a short list of
CLI operations. The benchmark repeats cycles (wrapping around the list)
until its measuring window is full, so every run makes the same kinds
of operation in the same proportions whatever the seed. The seed only
changes the generated instance files and the seeds passed to
``simulate`` and ``verify``.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from jss.catalog import CASES
from jss.generators import GeneratorSpec, gen_random_instance
from jss.model import Belief, Instance, Journal, dump_instance, parse_instance
from jss.verify import SUITES

WORKLOADS = ("solve-random", "solve-adversarial", "analysis")
DEFAULT_SEED = 0

# Sizes: enough distinct instances that a run of the default window never
# repeats one on solve-random, and a whole number of cycles on the others.
RANDOM_POOL = 48
ADVERSARIAL_VARIANTS = 4
ANALYSIS_VARIANTS = 8

# Rates of the high-precision instances carry this many decimal digits:
# a 60-bit denominator per field, below any 64-bit per-field budget.
HP_DIGITS = 18


@dataclass(frozen=True)
class Op:
    """One CLI call: ``jss <args[0]> -i <instance file> <args[1:]>``.

    kind      what the call is measured and checked as
    key       stable name of the call inside its workload (golden lookup)
    instance  instance file stem, or None for ``verify``
    twin      key of the exact-mode call on the same input that a
              float-mode call is checked against
    expect    facts known from how the input was built
    """

    kind: str
    key: str
    args: tuple
    instance: str | None = None
    twin: str | None = None
    expect: dict = field(default_factory=dict, compare=False)

    def argv(self, workdir: Path) -> list[str]:
        if self.instance is None:
            return list(self.args)
        path = str(workdir / f"{self.instance}.json")
        return [self.args[0], "-i", path, *self.args[1:]]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    docs: dict          # instance stem -> JSON document written for the CLI
    cycles: tuple       # tuple of tuples of Op
    warmup: Op

    def instance(self, stem: str) -> Instance:
        """The instance exactly as the CLI reads it from its file."""
        return parse_instance(self.docs[stem])

    def write(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for stem, doc in self.docs.items():
            (workdir / f"{stem}.json").write_text(json.dumps(doc))

    def cycle(self, c: int) -> tuple:
        return self.cycles[c % len(self.cycles)]


def _solve_pair(stem: str, expect=None) -> tuple[Op, Op]:
    expect = expect or {}
    exact = Op("solve_exact", f"{stem}/solve/exact",
               ("solve", "--json", "--mode", "exact"), stem, expect=expect)
    flt = Op("solve_float", f"{stem}/solve/float",
             ("solve", "--json", "--mode", "float"), stem, twin=exact.key, expect=expect)
    return exact, flt


def unconstrained(rng: random.Random, size: int) -> Instance:
    spec = GeneratorSpec("unconstrained", (size, size), seed=rng.randrange(2 ** 31))
    return gen_random_instance(spec)


def _solve_random(seed: int) -> Workload:
    """Unconstrained I=8 instances, each solved exactly and then in float."""
    rng = random.Random(f"solve-random:{seed}")
    docs, cycles = {}, []
    for k in range(RANDOM_POOL):
        stem = f"r{k:02d}"
        docs[stem] = dump_instance(unconstrained(rng, 8))
        cycles.append(_solve_pair(stem))
    return Workload("solve-random", seed, docs, tuple(cycles), cycles[0][1])


def _identical(rng: random.Random) -> Instance:
    """Eight copies of one sampled journal: all 8! orders tie."""
    template = unconstrained(rng, 1)
    j = template.journals[0]
    journals = tuple(Journal(f"J{k + 1}", j.u, j.a, j.q, j.c) for k in range(8))
    return Instance(journals, template.prior, template.outside_option)


def _two_tuple(rng: random.Random) -> Instance:
    """Order-independent I=8 instance built from two (a, q) tuples.

    q = kappa*a and c = gamma*a make belief updates commute.  Journals come
    in identical pairs (exact ties) and neighbouring pairs differ in
    payoff by 1/256 (near ties).
    """
    kappa = Fraction(rng.randint(1, 23), 24)
    gamma = Fraction(rng.randint(0, 8), 8)
    a_pair = [Fraction(x, 20) for x in rng.sample(range(1, 21), 2)]
    u0 = Fraction(rng.randint(16, 40), 4)
    journals = []
    for k in range(8):
        a = a_pair[(k // 2) % 2]
        journals.append(Journal(f"J{k + 1}", u0 - Fraction(k // 2, 256), a,
                                kappa * a, gamma * a))
    floor = kappa / (1 + kappa)
    prior = floor + (1 - floor) * Fraction(rng.randint(0, 64), 64)
    return Instance(tuple(journals), Belief(prior), 0)


def _high_precision_doc(rng: random.Random) -> dict:
    """I=7 document whose rates and prior are HP_DIGITS-digit decimals."""
    scale = 10 ** HP_DIGITS

    def decimal(lo: float, hi: float) -> str:
        k = rng.randrange(int(lo * scale), int(hi * scale))
        return f"0.{k:0{HP_DIGITS}d}"

    journals = [
        {"name": f"J{k + 1}", "u": str(Fraction(rng.randint(0, 40), 4)),
         "a": decimal(0.05, 1), "q": decimal(0, 0.95),
         "c": str(Fraction(rng.randint(0, 16), 8))}
        for k in range(7)
    ]
    return {"journals": journals, "prior_h": decimal(0, 1), "outside_option": "0"}


def _solve_adversarial(seed: int) -> Workload:
    """Inputs where search shortcuts cannot help: full ties, near ties and
    long exact numbers."""
    rng = random.Random(f"solve-adversarial:{seed}")
    docs, cycles = {}, []
    for v in range(ADVERSARIAL_VARIANTS):
        # One identical-journal input (the costliest), six near-tie ones and
        # one high-precision one per cycle: the exact and float medians then
        # fall in the middle of the near-tie calls, and at the default window
        # the tail has more than ten samples beyond it without reaching the
        # identical-journal calls.
        ops = _solve_pair(f"ident{v}", {"argmax_size": 40320})
        docs[f"ident{v}"] = dump_instance(_identical(rng))
        for k in range(6 * v, 6 * v + 6):
            docs[f"tt{k}"] = dump_instance(_two_tuple(rng))
            ops += _solve_pair(f"tt{k}")
        docs[f"hp{v}"] = _high_precision_doc(rng)
        ops += _solve_pair(f"hp{v}")
        cycles.append(ops)
    return Workload("solve-adversarial", seed, docs, tuple(cycles), cycles[0][-1])


def _analysis(seed: int) -> Workload:
    """Every command but the I=8 solve, on small instances.

    ``verify`` runs one suite per call, and a small I=6 solve pair follows
    every other call.  The solves then sample the whole window, not a
    short burst per cycle, so their medians follow the machine's speed
    over the run as the solve workloads' do.
    """
    rng = random.Random(f"analysis:{seed}")
    docs, cycles = {}, []
    for case in CASES:
        docs[f"cat_{case.name}"] = dump_instance(case.instance(Fraction(1, 2)))
    for v in range(ANALYSIS_VARIANTS):
        docs[f"b{v}"] = dump_instance(unconstrained(rng, 6))
        docs[f"p{v}"] = dump_instance(unconstrained(rng, 4))
        docs[f"m{v}"] = dump_instance(unconstrained(rng, 8))
        sim_seed = rng.randrange(10 ** 6)
        verify_seed = rng.randrange(10 ** 6)
        sweep_exact = Op("sweep_exact", f"p{v}/sweep/exact",
                         ("sweep", "--grid", "0:1:101", "--mode", "exact"), f"p{v}")
        calls = [
            Op("sweep_best", f"b{v}/sweep/best",
               ("sweep", "--grid", "0:1:101", "--best-only"), f"b{v}"),
            sweep_exact,
            Op("sweep_float", f"p{v}/sweep/float",
               ("sweep", "--grid", "0:1:101", "--mode", "float"), f"p{v}",
               twin=sweep_exact.key),
            Op("simulate", f"m{v}/simulate",
               ("simulate", "--json", "--episodes", "1000000", "--seed", str(sim_seed)),
               f"m{v}"),
            Op("check", f"b{v}/check", ("check", "--json"), f"b{v}"),
        ]
        for case in CASES:
            calls.append(Op("threshold", f"cat_{case.name}/threshold",
                            ("threshold", "--json"), f"cat_{case.name}",
                            expect={"mu_star": str(case.flip_boundary)}))
        for suite in SUITES:
            calls.append(Op("verify", f"verify/{v}/{suite}",
                            ("verify", "--suite", suite, "--trials", "40", "--seed",
                             str(verify_seed), "--episodes", "100000", "--json")))
        ops: list[Op] = []
        for j, op in enumerate(calls):
            stem = f"s{v}_{j}"
            docs[stem] = dump_instance(unconstrained(rng, 6))
            ops.append(op)
            ops.extend(_solve_pair(stem))
        cycles.append(tuple(ops))
    warmup = Op("check", "b0/check", ("check", "--json"), "b0")
    return Workload("analysis", seed, docs, tuple(cycles), warmup)


_MAKERS = {
    "solve-random": _solve_random,
    "solve-adversarial": _solve_adversarial,
    "analysis": _analysis,
}


def build(name: str, seed: int) -> Workload:
    return _MAKERS[name](seed)
