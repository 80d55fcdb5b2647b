"""Benchmark of the jss command line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop caller drives ``jss.cli.main`` in this process, one call
after another, on the instance files of one workload (see workloads.py).
The program is imported from the repository's ``src/``; ``JSS_THREADS``
is cleared, so every solve uses the default single solver thread.  CLI
output goes to memory.  Each call is timed alone; its answer is checked
between calls with the clock stopped (checks.py), and a call with a
wrong answer counts as failed.  The measuring window closes at the first
cycle boundary after S seconds of measured calls.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` is a
separate run of the same workload with every public jss function wrapped
in a timing span (tracing.py); it reports the per-layer metrics, the
tracing overhead and the pool/baseline probe (probe.py), and writes its
spans to ``.bench_out/``.  Human-readable lines, each ratio with its
base, come first; the last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5        # fresh interpreters timed for setup_s
OVERHEAD_SHARE = 0.25   # share of the window a traced run first runs untraced
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("solve_exact_p50_ms", "ms"),
    ("solve_exact_tail_ms", "ms"),
    ("solve_float_p50_ms", "ms"),
    ("solve_float_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

SUITE_NAMES = (
    "no_feedback_index", "order_independent_indexing", "two_box_base_case",
    "weak_feedback_monotonicity", "commutation_sign", "ratio_bound",
    "single_crossing", "normalization_shift", "counterexamples", "mc_consistency",
)

PER_LAYER = (
    ("cli.main.calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("cli.output_bytes", "B"),
    ("model.load_instance.self_ms", "ms"),
    ("model.evaluate.calls", "count"),
    ("model.evaluate.us_per_call", "us"),
    ("engine.best_orders.self_ms", "ms"),
    ("engine.best_orders.ns_per_node", "ns"),
    ("engine.best_orders_float.self_ms", "ms"),
    ("engine.best_orders_float.ns_per_node", "ns"),
    ("engine.order_value.us_per_call", "us"),
    ("solver.nodes_per_solve", "count"),
    ("solver.argmax_size", "count"),
    ("solver.exact_value_bits", "count"),
    ("solver.brute_force_optimal.self_ms", "ms"),
    ("solver.payoff_sweep.self_ms", "ms"),
    ("solver.subset_dp_optimal.self_ms", "ms"),
    ("solver.subset_dp.states", "count"),
    ("conditions.check_globally_bounded_weak_feedback.calls", "count"),
    ("conditions.check_globally_bounded_weak_feedback.self_ms", "ms"),
    ("conditions.check_regularity.self_ms", "ms"),
    ("conditions.check_order_independence.self_ms", "ms"),
    ("generators.sample.calls", "count"),
    ("generators.sample.self_ms", "ms"),
    ("sim.episodes_per_s", "1/s"),
    *((f"verify.{s}.{m}", u) for s in SUITE_NAMES for m, u in (("ms", "ms"),
                                                               ("trials", "count"))),
    ("trace.overhead_ratio", "ratio"),
    ("solver.pool_speedup", "ratio"),
    ("solver.pool_speedup_i8", "ratio"),
    ("probe.i8_exact_s", "s"),
    ("probe.i8_exact_2proc_s", "s"),
    ("probe.i9_exact_s", "s"),
    ("probe.i9_exact_2proc_s", "s"),
    ("probe.i9_float_s", "s"),
    ("probe.i8_evaluate_exact_us", "us"),
    ("probe.i8_evaluate_float_us", "us"),
    ("probe.i8_order_value_us", "us"),
    ("probe.i8_mc_1e6_s", "s"),
)


class BenchError(Exception):
    pass


def load_jss():
    """Import jss from this checkout's src/ and nowhere else."""
    os.environ.pop("JSS_THREADS", None)
    sys.path.insert(0, str(SRC))
    try:
        import jss
    except ImportError as exc:
        raise BenchError(f"cannot import jss from {SRC}: {exc}") from None
    if Path(jss.__file__).resolve().parent != SRC / "jss":
        raise BenchError(f"imported jss from {jss.__file__}, not from {SRC}")
    return jss


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """(value, percentile, n): the highest sample with TAIL_BEYOND samples
    above it, or the maximum when there are too few samples."""
    xs = sorted(xs)
    n = len(xs)
    if n == 0:
        return 0.0, 0.0, 0
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n, n


class Runner:
    """Runs, times and checks the calls of one workload."""

    def __init__(self, wl, workdir: Path, golden: dict | None, tracer=None):
        import checks
        from jss import cli
        self.checks = checks
        self.cli = cli
        self.wl = wl
        self.workdir = workdir
        self.golden = golden
        self.instances = {}
        self.twins = {}
        self.records = []      # (op, seconds, output bytes) of measured calls
        self.failures = []     # (op key, errors)
        self.attempted = 0
        self.tracer = tracer   # labels its spans with the call they belong to

    def call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(argv)
        return rc, time.perf_counter() - t0, out.getvalue()

    def warm_up(self) -> None:
        """One unmeasured call; only its exit code and output format are
        checked, since a float call's exact twin has not run yet."""
        op = self.wl.warmup
        rc, _, text = self.call(op.argv(self.workdir))
        ans = self.checks.summarize(op.kind, rc, text)
        if ans["rc"] != self.checks.EXIT_OK or "parse_error" in ans:
            raise BenchError(f"warm-up call {op.key} failed: {ans}")

    def run_op(self, op) -> float:
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        rc, seconds, text = self.call(op.argv(self.workdir))
        self.records.append((op, seconds, len(text.encode())))
        self.attempted += 1
        self._check(op, rc, text)
        return seconds

    def _check(self, op, rc, text):
        ans = self.checks.summarize(op.kind, rc, text)
        del text
        inst = None
        if op.instance is not None:
            if op.instance not in self.instances:
                self.instances[op.instance] = self.wl.instance(op.instance)
            inst = self.instances[op.instance]
        golden = self.golden.get(op.key) if self.golden else None

        def rerun():
            argv = op.argv(self.workdir)
            i = argv.index("--seed") + 1
            argv[i] = str(int(argv[i]) + 7777)
            rc2, _, text2 = self.call(argv)
            return self.checks.summarize(op.kind, rc2, text2)

        errs = self.checks.check(op, ans, inst, twin=self.twins.get(op.twin),
                                 golden=golden, rerun=rerun)
        if op.kind in ("solve_exact", "sweep_exact"):
            self.twins[op.key] = ans
        if errs:
            self.failures.append((op.key, errs))

    def run_cycles(self, first: int, seconds: float) -> tuple[int, float]:
        """Whole cycles from `first` until `seconds` of calls are measured."""
        busy, c = 0.0, first
        while busy < seconds:
            for op in self.wl.cycle(c):
                busy += self.run_op(op)
            c += 1
        return c - first, busy


def setup_probe(workload: str, seed: int) -> int:
    """Child mode: set up like a run, report when ready, exit."""
    import workloads
    wl = workloads.build(workload, seed)
    workdir = WORK / f"setup-{os.getpid()}"
    try:
        wl.write(workdir)
        Runner(wl, workdir, None).warm_up()
        print(f"ready {time.time():.6f}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first timed call."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=170, cwd=ROOT)
        words = proc.stdout.split()
        if proc.returncode != 0 or len(words) != 2:
            raise BenchError(f"setup probe failed: {proc.stdout}{proc.stderr}")
        samples.append(float(words[1]) - t0)
    return samples


def load_golden(workload: str, seed: int):
    import workloads
    if seed != workloads.DEFAULT_SEED:
        return None
    return json.loads((HERE / "golden.json").read_text())[workload]


def end_to_end(runner, cycles, busy, setup) -> tuple[dict, list]:
    lat = defaultdict(list)
    for op, seconds, _ in runner.records:
        lat[op.kind].append(seconds * 1e3)
    m = {
        "setup_s": median(setup),
        "ops_per_s": len(runner.records) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = [f"setup_s: median of {len(setup)} fresh interpreters: "
             + ", ".join(f"{s:.3f}" for s in setup),
             f"ops_per_s: {len(runner.records)} calls in {busy:.3f} s of calls, "
             f"{cycles} cycles"]
    for kind in ("solve_exact", "solve_float"):
        m[f"{kind}_p50_ms"] = median(lat[kind])
        value, pct, n = tail(lat[kind])
        m[f"{kind}_tail_ms"] = value
        notes.append(f"{kind}: n={n}, p50 {m[f'{kind}_p50_ms']:.3f} ms, tail is "
                     f"p{pct:.1f} = {value:.3f} ms with {n - round(pct * n / 100)} "
                     f"samples beyond")
    for label, kinds in (("sweep", ("sweep_best", "sweep_exact", "sweep_float")),
                         ("simulate", ("simulate",))):
        xs = [x for k in kinds for x in lat[k]]
        if xs:
            notes.append(f"{label}_p50_ms = {median(xs):.3f} ms (n={len(xs)})")
    if lat["verify"]:
        # analysis runs one verify call per suite; a cycle holds the full set
        per_cycle = [sum(lat["verify"][i:i + len(SUITE_NAMES)])
                     for i in range(0, len(lat["verify"]), len(SUITE_NAMES))]
        notes.append(f"verify_p50_ms = {median(per_cycle):.3f} ms for all "
                     f"{len(SUITE_NAMES)} suites (n={len(per_cycle)} cycles)")
    return m, notes


def per_layer(tracer, cycles: int, records, overhead: float, probe: dict) -> tuple[dict, list]:
    import tracing
    spans = tracer.spans
    own = tracing.self_times(spans)
    calls = defaultdict(int)          # calls inside measured cycles
    n_all = defaultdict(int)          # all calls, set-up included
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    counters = defaultdict(list)
    for s in spans:
        n_all[s.name] += 1
        self_ns[s.name] += own[s.id]
        total_ns[s.name] += s.end - s.start
        if s.op != "setup":
            calls[s.name] += 1
        if s.counters:
            counters[s.name].append(s.counters)

    def ratio(a, b):
        return a / b if b else 0.0

    def self_ms(name):
        return ratio(self_ns[name], n_all[name]) / 1e6

    solves = counters["solver.brute_force_optimal"]
    nodes = {mode: sum(c["nodes"] for c in solves if c["mode"] == mode)
             for mode in ("exact", "float")}
    episodes = sum(c["episodes"] for name in ("sim.estimate_value", "sim.empirical_survival")
                   for c in counters[name])
    sim_ns = self_ns["sim.estimate_value"] + self_ns["sim.empirical_survival"]
    states = [c["states"] for c in counters["solver.subset_dp_optimal"]]
    out_bytes = sum(b for _, _, b in records)
    m = {
        "cli.main.calls": ratio(calls["cli.main"], cycles),
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.output_bytes": ratio(out_bytes, len(records)),
        "model.load_instance.self_ms": self_ms("model.load_instance"),
        "model.evaluate.calls": ratio(calls["model.evaluate"], cycles),
        "model.evaluate.us_per_call": self_ms("model.evaluate") * 1e3,
        "engine.best_orders.self_ms": self_ms("engine.best_orders"),
        "engine.best_orders.ns_per_node": ratio(self_ns["engine.best_orders"],
                                                nodes["exact"]),
        "engine.best_orders_float.self_ms": self_ms("engine.best_orders_float"),
        "engine.best_orders_float.ns_per_node": ratio(self_ns["engine.best_orders_float"],
                                                      nodes["float"]),
        "engine.order_value.us_per_call": self_ms("engine.order_value") * 1e3,
        "solver.nodes_per_solve": ratio(nodes["exact"] + nodes["float"], len(solves)),
        "solver.argmax_size": max((c["argmax"] for c in solves), default=0),
        "solver.exact_value_bits": max((c.get("bits", 0) for c in solves), default=0),
        "solver.brute_force_optimal.self_ms": self_ms("solver.brute_force_optimal"),
        "solver.payoff_sweep.self_ms": self_ms("solver.payoff_sweep"),
        "solver.subset_dp_optimal.self_ms": self_ms("solver.subset_dp_optimal"),
        "solver.subset_dp.states": ratio(sum(states), len(states)),
        "generators.sample.calls": ratio(calls["generators.sample"], cycles),
        "generators.sample.self_ms": self_ms("generators.sample"),
        "sim.episodes_per_s": ratio(episodes * 1e9, sim_ns),
        "trace.overhead_ratio": overhead,
    }
    gbwf = "conditions.check_globally_bounded_weak_feedback"
    m[f"{gbwf}.calls"] = ratio(calls[gbwf], cycles)
    for name in (gbwf, "conditions.check_regularity", "conditions.check_order_independence"):
        m[f"{name}.self_ms"] = self_ms(name)
    for suite in SUITE_NAMES:
        name = f"verify.{suite}"
        m[f"{name}.ms"] = ratio(total_ns[name], n_all[name]) / 1e6
        m[f"{name}.trials"] = ratio(sum(c["trials"] for c in counters[name]), n_all[name])
    m.update(probe)
    notes = [
        f"calls are per measured cycle ({cycles} traced cycles); self_ms is the mean "
        f"self time per call, set-up included",
        f"engine.best_orders.ns_per_node: {self_ns['engine.best_orders'] / 1e6:.1f} ms "
        f"self over {nodes['exact']} nodes of {len(solves)} solves",
        f"engine.best_orders_float.ns_per_node: "
        f"{self_ns['engine.best_orders_float'] / 1e6:.1f} ms self over "
        f"{nodes['float']} nodes",
        f"model.evaluate.us_per_call: {self_ns['model.evaluate'] / 1e6:.1f} ms self over "
        f"{n_all['model.evaluate']} calls",
        f"engine.order_value.us_per_call: {self_ns['engine.order_value'] / 1e6:.1f} ms "
        f"self over {n_all['engine.order_value']} calls",
        f"sim.episodes_per_s: {episodes} episodes in {sim_ns / 1e9:.3f} s self",
        f"cli.output_bytes: {out_bytes} bytes over {len(records)} calls",
        f"solver.subset_dp.states: {sum(states)} states over {len(states)} solves",
    ]
    return m, notes


def emit(notes, metrics, units, correct, attempted, failed):
    for line in notes:
        print(line)
    for name, unit in units:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))


def traced_window(runner, tracer, seconds: float) -> tuple[int, float, float]:
    """(cycles traced, untraced and traced seconds of the paired calls).

    Each call of the first cycles runs both untraced and traced, in
    alternating order, so that drift in machine speed and warm caches hit
    both sides of the overhead alike.  Traced cycles then fill the window.
    """
    paired = calls = 0
    plain = traced = 0.0
    while plain < OVERHEAD_SHARE * seconds:
        for op in runner.wl.cycle(paired):
            calls += 1
            for with_spans in (calls % 2 == 1, calls % 2 == 0):
                if with_spans:
                    with tracer.installed():
                        traced += runner.run_op(op)
                else:
                    plain += runner.run_op(op)
                    runner.records.pop()
        paired += 1
    with tracer.installed():
        more, _ = runner.run_cycles(paired, max(0.0, seconds - traced))
    return paired + more, plain, traced


def bench(args) -> int:
    import probe
    import tracing
    import workloads

    if args.trace:
        tracer = tracing.Tracer()
        tracer.op = "setup"
        with tracer.installed():
            wl = workloads.build(args.workload, args.seed)
    else:
        tracer = None
        setup = measure_setup(args.workload, args.seed)
        wl = workloads.build(args.workload, args.seed)
    workdir = WORK / f"{wl.name}-{wl.seed}-{os.getpid()}"
    try:
        wl.write(workdir)
        runner = Runner(wl, workdir, load_golden(args.workload, args.seed), tracer)
        runner.warm_up()
        head = (f"workload {wl.name}, seed {wl.seed}, trace {int(args.trace)}; "
                f"python {platform.python_version()}, {os.cpu_count()} cpus")
        if not args.trace:
            cycles, busy = runner.run_cycles(0, args.seconds)
            metrics, notes = end_to_end(runner, cycles, busy, setup)
            units, extra_attempts, extra_failed = END_TO_END, 0, 0
        else:
            cycles, plain, traced = traced_window(runner, tracer, args.seconds)
            probe_metrics, mismatches = probe.run(args.seed)
            metrics, notes = per_layer(tracer, cycles, runner.records, traced / plain,
                                       probe_metrics)
            notes.insert(0, f"trace.overhead_ratio: {traced:.3f} s traced vs {plain:.3f} s "
                            f"untraced for the same calls; {len(tracer.spans)} spans")
            path = OUT / f"spans-{wl.name}-seed{wl.seed}.json"
            tracer.write(path)
            notes.append(f"spans written to {path.relative_to(ROOT)}")
            units, extra_attempts, extra_failed = PER_LAYER, 2, mismatches
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = runner.attempted + extra_attempts
    failed = len(runner.failures) + extra_failed
    notes.insert(0, head)
    notes.append(f"fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for key, errs in runner.failures[:20]:
        notes.append(f"FAILED {key}: {'; '.join(errs)}")
    emit(notes, metrics, units, failed == 0, attempted, failed)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(
        "solve-random", "solve-adversarial", "analysis"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        load_jss()
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        return bench(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
