"""Answer checking for benchmark operations.

Each CLI call's output is reduced to a compact answer (``summarize``) and
then checked (``check``) outside the measured time:

* on every seed, by cross-route checks: the documented exit code, the
  best order re-evaluated with ``model.evaluate``, float results against
  the exact call on the same input, the Monte Carlo mean against the
  exact value, verify suites all ``verified``, thresholds against the
  catalog;
* on the default seed, also against ``golden.json``, recorded from the
  program at the commit that introduced the benchmark.

A non-empty list of errors marks the operation as failed.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction

from jss.model import SearchOrder, evaluate

FLOAT_RTOL = 1e-9   # float results vs exact ones, relative to max(1, |exact|)
MC_SIGMAS = 3
EXIT_OK = 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def argmax_digest(orders) -> str:
    return digest("\n".join(sorted(">".join(o) for o in orders)))


def _close(x: float, ref: Fraction) -> bool:
    return abs(Fraction(x) - ref) <= FLOAT_RTOL * max(1, abs(ref))


def summarize(kind: str, rc: int, text: str) -> dict:
    """Compact answer of one call; raw output is not kept."""
    ans = {"rc": rc}
    if rc != EXIT_OK:
        return ans
    try:
        if kind.startswith("solve"):
            doc = json.loads(text)
            ans.update(best_value=doc["best_value"], best_order=doc["best_order"],
                       argmax_first=doc["argmax"][0] if doc["argmax"] else None,
                       argmax_len=len(doc["argmax"]),
                       argmax_distinct=len({tuple(o) for o in doc["argmax"]}),
                       argmax_digest=argmax_digest(doc["argmax"]))
            if kind == "solve_float":
                ans["best_value"] = float(doc["best_value"])
        elif kind.startswith("sweep"):
            rows = list(csv.reader(io.StringIO(text)))
            ans.update(header=rows[0], rows=rows[1:], digest=digest(text))
        elif kind == "simulate":
            doc = json.loads(text)
            ans.update(order=doc["order"], exact_value=doc["exact_value"],
                       mc_mean=doc["mc_mean"], mc_stderr=doc["mc_stderr"])
        elif kind == "check":
            doc = json.loads(text)
            ans.update(conditions=[c["condition"] for c in doc["checks"]],
                       digest=digest(json.dumps(doc, sort_keys=True)))
        elif kind == "threshold":
            doc = json.loads(text)
            ans.update(kind=doc["kind"], mu_star=doc["mu_star"])
        elif kind == "verify":
            doc = json.loads(text)
            ans.update(status={k: v["status"] for k, v in doc.items()},
                       trials={k: v["trials"] for k, v in doc.items()})
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        ans["parse_error"] = f"{type(exc).__name__}: {exc}"
    return ans


def golden_view(kind: str, ans: dict) -> dict:
    """The part of an answer that must repeat exactly on the default seed."""
    if kind == "solve_exact":
        return {k: ans.get(k) for k in ("best_value", "best_order", "argmax_len",
                                        "argmax_digest")}
    if kind in ("sweep_best", "sweep_exact", "check"):
        return {"digest": ans.get("digest")}
    if kind == "simulate":
        return {"exact_value": ans.get("exact_value")}
    if kind == "threshold":
        return {"kind": ans.get("kind"), "mu_star": ans.get("mu_star")}
    if kind == "verify":
        return {"status": ans.get("status"), "trials": ans.get("trials")}
    return {}


def _positions(inst, names):
    order = inst.journal_names()
    return SearchOrder(tuple(order.index(n) for n in names))


def _check_solve_exact(op, ans, inst) -> list[str]:
    errs = []
    value = Fraction(ans["best_value"])
    names = ans["best_order"]
    if sorted(names) != sorted(inst.journal_names()):
        return [f"best order {names} is not a permutation of the journals"]
    if evaluate(inst, _positions(inst, names)).total != value:
        errs.append("best order re-evaluated does not give the best value")
    if ans["argmax_first"] != names:
        errs.append("best order is not the first order of the argmax set")
    if ans["argmax_distinct"] != ans["argmax_len"]:
        errs.append("argmax set repeats an order")
    want = op.expect.get("argmax_size")
    if want is not None and ans["argmax_len"] != want:
        errs.append(f"argmax set has {ans['argmax_len']} orders, expected {want}")
    return errs


def _check_solve_float(ans, twin) -> list[str]:
    errs = []
    ref = Fraction(twin["best_value"])
    if not _close(ans["best_value"], ref):
        errs.append(f"float best value {ans['best_value']!r} not within "
                    f"{FLOAT_RTOL} of exact {twin['best_value']}")
    if ans["argmax_digest"] != twin["argmax_digest"]:
        errs.append(f"float argmax set ({ans['argmax_len']} orders) differs from "
                    f"the exact one ({twin['argmax_len']} orders)")
    return errs


def _check_sweep_exact(ans, inst, every: int) -> list[str]:
    header, rows = ans["header"], ans["rows"]
    labels = [h[len("value_"):] for h in header[1:-1]]
    per_order = labels != ["best"]
    names = list(inst.journal_names())
    for r, row in enumerate(rows):
        if r % every:
            continue
        mu = Fraction(row[0])
        values = [Fraction(x) for x in row[1:-1]]
        point = inst.with_prior(mu)
        if per_order:
            cols = [(lbl.split(">"), v) for lbl, v in zip(labels, values)]
            if Fraction(values[labels.index(row[-1])]) != max(values):
                return [f"sweep row mu={row[0]}: best column is not the maximum"]
        else:
            cols = [(row[-1].split(">"), values[0])]
        for order, v in cols:
            if evaluate(point, SearchOrder(tuple(names.index(n) for n in order))).total != v:
                return [f"sweep row mu={row[0]}: {'>'.join(order)} re-evaluates to "
                        f"another value"]
    return []


def _check_sweep_float(ans, twin) -> list[str]:
    if ans["header"] != twin["header"] or len(ans["rows"]) != len(twin["rows"]):
        return ["float sweep has another shape than the exact sweep"]
    for row, ref in zip(ans["rows"], twin["rows"]):
        for x, r in zip(row[:-1], ref[:-1]):
            if not _close(float(x), Fraction(r)):
                return [f"float sweep value {x} at mu={row[0]} differs from exact {r}"]
    return []


def _mc_error(ans, inst) -> str | None:
    order = _positions(inst, ans["order"])
    exact = evaluate(inst, order).total
    if Fraction(ans["exact_value"]) != exact:
        return "simulate exact value differs from model.evaluate"
    se = ans["mc_stderr"]
    # the slack covers a zero standard error (every episode pays the same)
    if abs(ans["mc_mean"] - float(exact)) > MC_SIGMAS * se + 1e-12 * max(1, abs(exact)):
        return (f"Monte Carlo mean {ans['mc_mean']} more than {MC_SIGMAS} standard "
                f"errors ({se}) from exact {float(exact)}")
    return None


def check(op, ans: dict, inst, twin: dict | None = None, golden: dict | None = None,
          rerun=None) -> list[str]:
    """Errors in one answer.

    inst    the instance the call read (None for verify)
    twin    the exact-mode answer on the same input, for float-mode calls
    golden  the recorded answer on the default seed, or None
    rerun   for ``simulate``: callable giving the answer under a fresh
            seed; a 3-sigma miss passes if the replay lands inside
            (the bound alone misses about once in 370 honest runs)
    """
    if ans["rc"] != EXIT_OK:
        return [f"exit code {ans['rc']}, expected {EXIT_OK}"]
    if "parse_error" in ans:
        return [f"output did not parse: {ans['parse_error']}"]
    kind = op.kind
    errs: list[str] = []
    if kind == "solve_exact":
        errs += _check_solve_exact(op, ans, inst)
    elif kind == "solve_float":
        errs += _check_solve_float(ans, twin) if twin else ["no exact twin answer"]
    elif kind in ("sweep_best", "sweep_exact"):
        errs += _check_sweep_exact(ans, inst, every=1 if kind == "sweep_best" else 10)
    elif kind == "sweep_float":
        errs += _check_sweep_float(ans, twin) if twin else ["no exact twin answer"]
    elif kind == "simulate":
        msg = _mc_error(ans, inst)
        if msg and rerun is not None:
            again = rerun()
            if again["rc"] == EXIT_OK and "parse_error" not in again \
                    and _mc_error(again, inst) is None:
                msg = None
        if msg:
            errs.append(msg)
    elif kind == "check":
        if ans["conditions"] != ["regularity", "order_independence",
                                 "globally_bounded_weak_feedback"]:
            errs.append(f"check reported {ans['conditions']}")
    elif kind == "threshold":
        if ans["kind"] != "threshold" or ans["mu_star"] != op.expect["mu_star"]:
            errs.append(f"threshold {ans['mu_star']} differs from the catalog's "
                        f"{op.expect['mu_star']}")
    elif kind == "verify":
        bad = sorted(k for k, s in ans["status"].items() if s != "verified")
        if bad or not ans["status"]:
            errs.append(f"verify suites not verified: {bad}")
    if golden is not None and golden_view(kind, ans) != golden:
        errs.append("answer differs from the golden record")
    return errs
