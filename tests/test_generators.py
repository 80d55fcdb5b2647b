"""Instance families: each sampler must construct its own defining
property, deterministically in the seed."""
import pytest

from jss import (
    FAMILIES,
    GenerationError,
    GeneratorSpec,
    check_globally_bounded_weak_feedback,
    check_order_independence,
    check_regularity,
    gen_random_instance,
)


def test_unknown_family_rejected():
    with pytest.raises(GenerationError):
        GeneratorSpec("zipf")
    with pytest.raises(GenerationError):
        GeneratorSpec("no_feedback", size_range=(0, 3))
    with pytest.raises(GenerationError):
        GeneratorSpec("no_feedback", size_range=(5, 2))


def test_seed_determinism():
    for family in FAMILIES:
        spec = GeneratorSpec(family, seed=42)
        assert gen_random_instance(spec) == gen_random_instance(spec)
    a = gen_random_instance(GeneratorSpec("unconstrained", seed=1))
    b = gen_random_instance(GeneratorSpec("unconstrained", seed=2))
    assert a != b  # different seeds explore different instances


def test_size_range_respected():
    for family in FAMILIES:
        rng_sizes = set()
        for seed in range(30):
            lohi = (2, 2) if family == "regular_2box" else (3, 5)
            inst = gen_random_instance(GeneratorSpec(family, size_range=lohi, seed=seed))
            rng_sizes.add(inst.size)
            assert lohi[0] <= inst.size <= lohi[1]
    assert rng_sizes  # at least something sampled


def test_no_feedback_family_contract():
    for seed in range(40):
        inst = gen_random_instance(GeneratorSpec("no_feedback", seed=seed))
        assert all(j.q == 0 for j in inst.journals)
        assert len({j.u for j in inst.journals}) == inst.size


def test_order_independent_family_contract():
    saw_costs = saw_zero_kappa = False
    for seed in range(60):
        inst = gen_random_instance(GeneratorSpec("order_independent", seed=seed))
        assert check_order_independence(inst).passed
        saw_costs = saw_costs or any(j.c > 0 for j in inst.journals)
        saw_zero_kappa = saw_zero_kappa or all(j.q == 0 for j in inst.journals)
    assert saw_costs  # the family must exercise nonzero costs
    assert saw_zero_kappa  # and the degenerate zero-feedback corner


def test_regular_2box_family_contract():
    from jss.conditions import feedback_threshold

    for seed in range(40):
        inst = gen_random_instance(GeneratorSpec("regular_2box", seed=seed))
        assert inst.size == 2
        assert check_regularity(inst, strict=True).passed
        assert inst.prior.mu_h >= feedback_threshold(inst.journals[1])


def test_exp_regular_gbwf_family_contract():
    for seed in range(25):
        inst = gen_random_instance(
            GeneratorSpec("exp_regular_gbwf", size_range=(2, 5), seed=seed)
        )
        assert check_regularity(inst, strict=True, exponential=True).passed
        assert check_globally_bounded_weak_feedback(inst).passed


def test_unconstrained_family_varies_outside_option():
    outs = {
        gen_random_instance(GeneratorSpec("unconstrained", seed=s)).outside_option
        for s in range(30)
    }
    assert any(o != 0 for o in outs)
    assert any(o == 0 for o in outs)
