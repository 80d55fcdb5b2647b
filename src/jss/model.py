"""Core model: journals, beliefs, search orders, and exact payoff evaluation.

An author holds one paper of unknown quality, high (H) or low (L), and
submits it to journals one at a time.  Journal j accepts an H paper with
probability a_j and always rejects L papers.  A rejected L paper becomes
H with probability q_j (referee feedback fixes it).  Each submission to j
costs c_j, acceptance at j pays u_j and ends the search, and giving up
pays the outside option.  Beliefs about quality are updated by Bayes rule
after every rejection, so the submission order matters.

All numbers are stored as `fractions.Fraction`; evaluation runs either
exactly or in float arithmetic depending on `mode`.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Union

Numeric = Union[Fraction, float]

ZERO = Fraction(0)
ONE = Fraction(1)

# Largest magnitude of a payoff, cost, outside option or order value:
# float mode and the float fields of the output convert each to a double.
MAX_MAGNITUDE = sys.float_info.max


class ModelError(ValueError):
    """Invalid model primitive (belief, journal, instance)."""


class InvalidOrderError(ModelError):
    """Search order is not a permutation of the instance's journals."""


class InstanceFormatError(ModelError):
    """Malformed instance document."""


def parse_number(value) -> Fraction:
    """Parse a number into an exact Fraction.

    Accepts Fraction, int, decimal strings like "0.2", fraction strings
    like "17/29", and floats.  Floats go through their shortest decimal
    repr, so 0.2 means exactly 1/5 rather than the binary double.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ModelError(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (float, str)):
        try:
            return Fraction(str(value).strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ModelError(f"cannot parse number {value!r}") from exc
    raise ModelError(f"cannot parse number {value!r}")


def _beyond_floats(what: str) -> ModelError:
    return ModelError(f"{what} exceeds the float range: its magnitude must be "
                      f"at most {MAX_MAGNITUDE:.17g}")


def _as_float(what: str, x: Fraction) -> float:
    """x as a double, or ModelError naming the limit when it overflows."""
    try:
        return float(x)
    except OverflowError:
        raise _beyond_floats(what) from None


def format_number(x: Fraction) -> str:
    """Render a Fraction as "5" or "17/29" (lossless, round-trips)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def plain(x):
    """x with every Fraction in it, at any depth of dicts, lists and
    tuples, written by format_number; dict keys become strings."""
    if isinstance(x, Fraction):
        return format_number(x)
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return type(x)(map(plain, x))
    return x


@dataclass(frozen=True)
class Belief:
    """Probability the paper is currently high quality, read by
    parse_number, so Belief(0.3) holds exactly 3/10."""

    mu_h: Fraction

    def __post_init__(self):
        mu = parse_number(self.mu_h)
        object.__setattr__(self, "mu_h", mu)
        if not (0 <= mu <= 1):
            raise ModelError(f"belief must lie in [0,1], got {mu}")


@dataclass(frozen=True)
class Journal:
    """One journal: payoff u, acceptance rate a, feedback rate q, cost c."""

    name: str
    u: Fraction
    a: Fraction
    q: Fraction
    c: Fraction = ZERO

    def __post_init__(self):
        for fld in ("u", "a", "q", "c"):
            object.__setattr__(self, fld, parse_number(getattr(self, fld)))
        if not (0 <= self.a <= 1):
            raise ModelError(f"{self.name}: acceptance rate must lie in [0,1], got {self.a}")
        if not (0 <= self.q < 1):
            raise ModelError(f"{self.name}: feedback rate must lie in [0,1), got {self.q}")
        if self.c < 0:
            raise ModelError(f"{self.name}: submission cost must be >= 0, got {self.c}")
        _as_float(f"{self.name}: payoff u", self.u)
        _as_float(f"{self.name}: submission cost c", self.c)
        # u may be negative: normalizing the outside option shifts payoffs.


@dataclass(frozen=True)
class Instance:
    """A set of journals, a prior, and an outside option.

    Journals are stored sorted by decreasing payoff (stable on ties), so
    order index 0 is always the best-paying journal and the monotone
    order is the identity permutation.
    """

    journals: tuple[Journal, ...]
    prior: Belief
    outside_option: Fraction = ZERO

    def __post_init__(self):
        js = tuple(self.journals)
        if not js:
            raise ModelError("instance needs at least one journal")
        if not isinstance(self.prior, Belief):
            object.__setattr__(self, "prior", Belief(self.prior))
        outside = parse_number(self.outside_option)
        object.__setattr__(self, "outside_option", outside)
        # every order's value lies within max(|u|, |outside|) + sum(c);
        # the float sum decides unless it lands next to the limit
        reach = (max(abs(_as_float("outside option", outside)),
                     *[abs(float(j.u)) for j in js]) + sum([float(j.c) for j in js]))
        if reach > MAX_MAGNITUDE * (1 - 2 ** -40) and MAX_MAGNITUDE < (
                max(abs(outside), *[abs(j.u) for j in js]) + sum(j.c for j in js)):
            raise _beyond_floats("max(|u|, |outside option|) + sum(c), the largest "
                                 "value an order can reach,")
        object.__setattr__(self, "journals", tuple(sorted(js, key=lambda j: -j.u)))

    @property
    def size(self) -> int:
        return len(self.journals)

    def journal_names(self) -> tuple[str, ...]:
        return tuple(j.name for j in self.journals)

    def with_prior(self, mu) -> "Instance":
        return Instance(self.journals, Belief(mu), self.outside_option)


@dataclass(frozen=True)
class SearchOrder:
    """A submission order: positions into Instance.journals (0-based)."""

    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(int(i) for i in self.perm))

    @classmethod
    def identity(cls, n: int) -> "SearchOrder":
        return cls(tuple(range(n)))

    def label(self, inst: Instance) -> str:
        names = inst.journal_names()
        return " > ".join(names[i] for i in self.perm)


def check_order(inst: Instance, order: SearchOrder) -> None:
    if sorted(order.perm) != list(range(inst.size)):
        raise InvalidOrderError(
            f"order {order.perm} is not a permutation of 0..{inst.size - 1}"
        )


def monotone_order(inst: Instance) -> SearchOrder:
    """Highest payoff first.  With journals pre-sorted this is the identity."""
    return SearchOrder.identity(inst.size)


def update_belief(journal: Journal, belief: Belief) -> Belief:
    """Posterior quality belief after a rejection at `journal`.

    Bayes rule over the three rejection channels (H rejected, L rejected
    and repaired, L rejected as-is) gives

        f(mu) = ((1 - a - q) mu + q) / (1 - a mu).

    When a = 1 and mu = 1 rejection has probability zero; the posterior is
    taken to be 1 (the continuation is unreachable, so any convention
    works, and this one keeps f into [0,1]).
    """
    return Belief(_posterior(journal.a, journal.q, belief.mu_h, ONE))


def _posterior(a, q, mu, one):
    """update_belief's f(mu), in the arithmetic whose 1 is `one`."""
    denom = 1 - a * mu
    return one if denom == 0 else ((1 - a - q) * mu + q) / denom


@dataclass(frozen=True)
class EvaluationTrace:
    """Everything evaluate() computes for one order.

    beliefs[t]  quality belief entering period t (len I+1; last entry is
                the belief after the final rejection)
    reach[t]    probability the search reaches period t (reach[0] = 1;
                reach[I] is the never-accepted probability)
    period_values[t]   reach * (u a mu - c) for period t
    accept_mass[t]     reach * a * mu, the unconditional acceptance
                       probability at period t
    outside_value      reach[I] * outside option
    total              expected payoff of the order
    """

    beliefs: tuple
    reach: tuple
    period_values: tuple
    accept_mass: tuple
    outside_value: Numeric
    total: Numeric

    def probability_residual(self):
        """sum of acceptance masses plus never-accepted mass, minus one.

        Exactly zero in exact mode; tiny float noise otherwise.
        """
        return sum(self.accept_mass) + self.reach[-1] - 1


def evaluate(inst: Instance, order: SearchOrder, mode: str = "exact") -> EvaluationTrace:
    """Expected payoff and full diagnostic trace of one submission order."""
    check_order(inst, order)
    if mode not in ("exact", "float"):
        raise ModelError(f"mode must be 'exact' or 'float', got {mode!r}")
    exact = mode == "exact"
    mu = inst.prior.mu_h if exact else float(inst.prior.mu_h)
    outside = inst.outside_option if exact else float(inst.outside_option)
    one = ONE if exact else 1.0

    beliefs = [mu]
    reach = [one]
    period_values = []
    accept_mass = []
    r = one
    for idx in order.perm:
        j = inst.journals[idx]
        u, a, q, c = j.u, j.a, j.q, j.c
        if not exact:
            u, a, q, c = float(u), float(a), float(q), float(c)
        hit = a * mu
        period_values.append(r * (u * hit - c))
        accept_mass.append(r * hit)
        r = r * (1 - hit)
        mu = _posterior(a, q, mu, one)
        beliefs.append(mu)
        reach.append(r)

    outside_value = r * outside
    total = sum(period_values) + outside_value
    return EvaluationTrace(
        beliefs=tuple(beliefs),
        reach=tuple(reach),
        period_values=tuple(period_values),
        accept_mass=tuple(accept_mass),
        outside_value=outside_value,
        total=total,
    )


def normalize(inst: Instance, shift) -> Instance:
    """Shift all payoffs and the outside option down by `shift`.

    Every order's expected payoff drops by exactly `shift` (acceptance
    masses and the never-accepted mass sum to one), so argmax sets are
    unchanged.  Used to reduce a nonzero outside option to zero.
    """
    k = parse_number(shift)
    journals = tuple(replace(j, u=j.u - k) for j in inst.journals)
    return Instance(journals, inst.prior, inst.outside_option - k)


# ---------------------------------------------------------------------------
# Instance documents (JSON)

def parse_instance(doc: dict) -> Instance:
    """Build an Instance from a parsed document.

    Expected shape::

        {"journals": [{"name": "J1", "u": "5", "a": "0.2", "q": "0.2", "c": "0"}, ...],
         "prior_h": "17/29",
         "outside_option": "0"}

    Numbers may be strings ("0.2", "17/29") or JSON numbers; q, c and
    outside_option default to 0, names default to J1..Jn and must be unique.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("instance document must be an object")
    try:
        raw_journals = doc["journals"]
        prior = doc["prior_h"]
    except KeyError as exc:
        raise InstanceFormatError(f"instance document missing key {exc}") from None
    if not isinstance(raw_journals, (list, tuple)) or not raw_journals:
        raise InstanceFormatError("'journals' must be a non-empty array")
    journals, names = [], set()
    for k, row in enumerate(raw_journals):
        if not isinstance(row, dict):
            raise InstanceFormatError(f"journal #{k + 1} must be an object")
        unknown = set(row) - {"name", "u", "a", "q", "c"}
        if unknown:
            raise InstanceFormatError(f"journal #{k + 1} has unknown keys {sorted(unknown)}")
        name = str(row.get("name", f"J{k + 1}"))
        if name in names:
            raise InstanceFormatError(f"journal #{k + 1} repeats the name {name!r}")
        names.add(name)
        try:
            journals.append(
                Journal(
                    name=name,
                    u=row["u"],
                    a=row["a"],
                    q=row.get("q", 0),
                    c=row.get("c", 0),
                )
            )
        except KeyError as exc:
            raise InstanceFormatError(f"journal #{k + 1} missing key {exc}") from None
        except ModelError as exc:
            raise InstanceFormatError(f"journal #{k + 1}: {exc}") from None
    try:
        return Instance(tuple(journals), Belief(prior),
                        parse_number(doc.get("outside_option", 0)))
    except ModelError as exc:
        raise InstanceFormatError(str(exc)) from None


def load_instance(source) -> Instance:
    """Load an instance from a JSON file path or JSON text."""
    if isinstance(source, Path):
        text = source.read_text()
    elif isinstance(source, str):
        stripped = source.lstrip()
        if stripped.startswith("{"):
            text = source
        else:
            text = Path(source).read_text()
    else:
        raise InstanceFormatError(f"cannot load instance from {type(source).__name__}")
    try:
        # parse_float keeps decimal literals exact instead of rounding to binary
        doc = json.loads(text, parse_float=lambda s: Fraction(s))
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from None
    return parse_instance(doc)


def dump_instance(inst: Instance) -> dict:
    """Serialize to the document shape load_instance accepts (lossless)."""
    return {
        "journals": [
            {
                "name": j.name,
                "u": format_number(j.u),
                "a": format_number(j.a),
                "q": format_number(j.q),
                "c": format_number(j.c),
            }
            for j in inst.journals
        ],
        "prior_h": format_number(inst.prior.mu_h),
        "outside_option": format_number(inst.outside_option),
    }


def save_instance(inst: Instance, path) -> None:
    Path(path).write_text(json.dumps(dump_instance(inst), indent=2) + "\n")
