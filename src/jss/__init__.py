"""Optimal submission order for a paper facing a fixed set of journals.

Exact expected-payoff evaluation of submission orders under acceptance
uncertainty and rejection feedback, plus solvers, structural-condition
checks, random instance generators, Monte Carlo simulation, and
randomized self-verification suites.
"""

from .model import (
    Belief,
    EvaluationTrace,
    Instance,
    InstanceFormatError,
    InvalidOrderError,
    Journal,
    ModelError,
    SearchOrder,
    check_order,
    dump_instance,
    evaluate,
    format_number,
    load_instance,
    monotone_order,
    normalize,
    parse_instance,
    parse_number,
    save_instance,
    update_belief,
)
from .conditions import (
    GBWF_POLICIES,
    ConditionError,
    ConditionReport,
    check_globally_bounded_weak_feedback,
    check_order_independence,
    check_regularity,
    check_strong_feedback,
    feedback_threshold,
)
from .solver import (
    SolverError,
    SolveResult,
    SweepResult,
    ThresholdResult,
    belief_grid,
    brute_force_optimal,
    index_order_no_feedback,
    pairwise_swap_local_search,
    payoff_sweep,
    prior_threshold_2box,
    subset_dp_optimal,
)
from .generators import (
    FAMILIES,
    GenerationError,
    GeneratorSpec,
    gen_random_instance,
)
from .catalog import CASES, BY_NAME, example_pair
from .sim import (
    empirical_survival,
    estimate_value,
    simulate_batch,
)
from .verify import SUITES, VerificationReport, run_all, run_suite

__version__ = "0.1.0"

__all__ = [
    "Belief",
    "BY_NAME",
    "CASES",
    "ConditionError",
    "ConditionReport",
    "EvaluationTrace",
    "FAMILIES",
    "GBWF_POLICIES",
    "GenerationError",
    "GeneratorSpec",
    "Instance",
    "InstanceFormatError",
    "InvalidOrderError",
    "Journal",
    "ModelError",
    "SearchOrder",
    "SolveResult",
    "SolverError",
    "SUITES",
    "SweepResult",
    "ThresholdResult",
    "VerificationReport",
    "belief_grid",
    "brute_force_optimal",
    "check_globally_bounded_weak_feedback",
    "check_order",
    "check_order_independence",
    "check_regularity",
    "check_strong_feedback",
    "dump_instance",
    "empirical_survival",
    "estimate_value",
    "evaluate",
    "example_pair",
    "feedback_threshold",
    "format_number",
    "gen_random_instance",
    "index_order_no_feedback",
    "load_instance",
    "monotone_order",
    "normalize",
    "pairwise_swap_local_search",
    "parse_instance",
    "parse_number",
    "payoff_sweep",
    "prior_threshold_2box",
    "run_all",
    "run_suite",
    "save_instance",
    "simulate_batch",
    "subset_dp_optimal",
    "update_belief",
    "__version__",
]
