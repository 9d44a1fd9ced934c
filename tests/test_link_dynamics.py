import math
import random
import re

import mpmath
import numpy as np
import pytest

from oracles import sample_k_steps, sample_next
from satroute import link_dynamics as ld


def test_from_p_mu_memoryless_symmetric():
    params = ld.from_p_mu(0.5, 0.0)
    assert params.epsilon2 == 0.5
    assert params.p == 0.5 and params.mu == 0.0


def test_from_p_mu_high_memory():
    params = ld.from_p_mu(0.9, 0.99)
    assert math.isclose(params.epsilon2, 0.009, rel_tol=1e-12)


def test_from_p_mu_mu_zero_forces_rates_to_sum_to_one():
    """At mu = 0 the ON->OFF and OFF->ON probabilities sum to one."""
    params = ld.from_p_mu(0.9, 0.0)
    assert params.epsilon2 == 0.9
    assert math.isclose(1.0 - ld.transition_prob(params, True, 1) + params.epsilon2, 1.0, rel_tol=1e-12)


@pytest.mark.parametrize("p", [0.05, 0.37, 0.5, 0.9, 0.999])
@pytest.mark.parametrize("mu", [0.0, 0.2, 0.77, 0.99])
def test_from_p_mu_round_trip(p, mu):
    params = ld.from_p_mu(p, mu)
    assert params.p == p and params.mu == mu
    assert math.isclose(params.epsilon2 / (1.0 - params.mu), p, rel_tol=1e-12)


@pytest.mark.parametrize("p", [1e-12, 0.3, 0.9, 1.0 - 1e-12])
@pytest.mark.parametrize("mu", [0.0, 0.5, 0.99, ld.MU_MAX])
def test_record_is_the_chain_from_p_mu_with_its_recovery_rate(p, mu):
    """The record stores (p, mu) alone; epsilon2 is the expression that
    from_p_mu stored when the record held both forms, so the closed forms
    read the same bits."""
    params = ld.LinkParams(p, mu)
    assert params == ld.from_p_mu(p, mu)
    assert params.epsilon2 == (1.0 - mu) * p


@pytest.mark.parametrize("p,mu", [(0.0, 0.5), (1.0, 0.5), (0.5, 1.0), (0.5, -0.1), (-0.2, 0.0),
                                  (0.5, 1.0 - 2e-12)])
def test_from_p_mu_rejects_degenerate(p, mu):
    """The record's constructor refuses the same chains, with the same
    message: mu = 1 - 2e-12 is past MU_MAX (the four-field record built it)."""
    with pytest.raises(ValueError) as refused:
        ld.from_p_mu(p, mu)
    with pytest.raises(ValueError, match=re.escape(str(refused.value))):
        ld.LinkParams(p, mu)


def test_negative_memory_rejected():
    with pytest.raises(ValueError, match=re.escape(f"mu=-0.2: need 0 <= mu <= {ld.MU_MAX}")):
        ld.LinkParams(0.5, -0.2)


def test_params_are_immutable_and_print_p_and_mu():
    params = ld.from_p_mu(0.9, 0.5)
    with pytest.raises(AttributeError):
        params.p = 0.5
    with pytest.raises(AttributeError):
        params.epsilon2 = 0.5
    assert repr(params) == "LinkParams(p=0.9, mu=0.5)" and ld.LinkParams._fields == ("p", "mu")


@pytest.mark.parametrize("p, mu", [(0.3, ld.MU_MAX), (0.9, 0.5), (0.05, 0.99)])
@pytest.mark.parametrize("k", [1, 10, 1000])
def test_recovery_prob_matches_mpmath(p, mu, k):
    """p01(k) = p (1 - mu^k) keeps its relative accuracy near static links,
    where 1 - mu^k cancels in floating point."""
    params = ld.from_p_mu(p, mu)
    with mpmath.workdps(40):
        exact = mpmath.mpf(params.p) * (1 - mpmath.mpf(params.mu) ** k)
        rel = abs((ld.transition_prob(params, False, k) - exact) / exact)
    assert rel <= 1e-15


def test_one_step_transition_matches_rates():
    params = ld.LinkParams(0.4 / 0.65, 0.35)  # OFF->ON 0.4, ON->OFF 0.25
    assert ld.transition_prob(params, True, 1) == pytest.approx(0.75, abs=1e-15)
    assert 1.0 - ld.transition_prob(params, True, 1) == pytest.approx(0.25, abs=1e-15)
    assert ld.transition_prob(params, False, 1) == pytest.approx(0.4, abs=1e-15)


def test_transition_k0_is_identity():
    params = ld.from_p_mu(0.7, 0.3)
    assert ld.transition_prob(params, True, 0) == 1.0
    assert ld.transition_prob(params, False, 0) == 0.0


def test_memoryless_forgets_after_one_step():
    params = ld.from_p_mu(0.73, 0.0)
    for k in (1, 2, 5, 100):
        assert ld.transition_prob(params, False, k) == pytest.approx(0.73, abs=1e-15)
        assert ld.transition_prob(params, True, k) == pytest.approx(0.73, abs=1e-15)


def test_ergodic_limit():
    params = ld.from_p_mu(0.6, 0.99)
    assert abs(ld.transition_prob(params, False, 10**4) - 0.6) < 1e-12
    assert abs(ld.transition_prob(params, True, 10**4) - 0.6) < 1e-12


@pytest.mark.parametrize("p,mu", [(0.4, 0.3), (0.9, 0.95)])
def test_chapman_kolmogorov(p, mu):
    params = ld.from_p_mu(p, mu)
    for k in (1, 3, 17, 100):
        for m in (1, 5, 42, 100):
            for i in (True, False):
                on_k = ld.transition_prob(params, i, k)  # P(OFF at k | i) is 1 - on_k
                split = (on_k * ld.transition_prob(params, True, m)
                         + (1.0 - on_k) * ld.transition_prob(params, False, m))
                assert abs(ld.transition_prob(params, i, k + m) - split) < 1e-12


def test_positive_memory_ordering():
    params = ld.from_p_mu(0.65, 0.4)
    for k in range(1, 50):
        p11 = ld.transition_prob(params, True, k)
        p01 = ld.transition_prob(params, False, k)
        assert p11 >= params.p >= p01


def test_sample_next_near_degenerate_rates():
    # ON->OFF 0 / OFF->ON 1 are excluded by p < 1 and the positive-memory
    # invariant; probe the admissible limit instead.
    params = ld.LinkParams(1.0 - 1e-15, 0.0)
    rng = random.Random(7)
    assert all(sample_next(params, True, rng) for _ in range(1000))
    assert all(sample_next(params, False, rng) for _ in range(1000))


def test_sample_next_long_run_frequency():
    # mu = 0, so after the first step the chain is i.i.d.
    # and the binomial confidence interval applies directly.
    params = ld.LinkParams(0.9, 0.0)
    rng = random.Random(12345)
    n = 10**6
    state = True
    on = 0
    for _ in range(n):
        state = sample_next(params, state, rng)
        on += state
    sigma = math.sqrt(0.9 * 0.1 / n)
    assert abs(on / n - 0.9) < 3 * sigma


def test_sample_k_steps_matches_kernel_frequency():
    params = ld.from_p_mu(0.6, 0.5)
    k = 3
    rng = random.Random(99)
    n = 10**6
    hits = sum(sample_k_steps(params, True, k, rng) for _ in range(n))
    target = ld.transition_prob(params, True, k)
    sigma = math.sqrt(target * (1 - target) / n)
    assert abs(hits / n - target) < 3 * sigma


def test_sample_k_steps_vs_iterated_sample_next():
    """Two-sample check: one k-step draw vs k chained one-step draws."""
    params = ld.from_p_mu(0.4, 0.7)
    k, n = 3, 10**6
    rng = random.Random(2024)
    jump_hits = sum(sample_k_steps(params, False, k, rng) for _ in range(n))

    gen = np.random.default_rng(2025)
    state = np.zeros(n, dtype=bool)
    for _ in range(k):
        u = gen.random(n)
        state = np.where(state, u >= (1.0 - params.mu) * (1.0 - params.p), u < params.epsilon2)
    step_hits = int(state.sum())

    f1, f2 = jump_hits / n, step_hits / n
    pooled = (jump_hits + step_hits) / (2 * n)
    sigma = math.sqrt(2 * pooled * (1 - pooled) / n)
    assert abs(f1 - f2) < 3 * sigma


def test_sample_k_steps_zero_is_identity():
    params = ld.from_p_mu(0.5, 0.5)
    rng = random.Random(0)
    assert sample_k_steps(params, True, 0, rng) is True
    assert sample_k_steps(params, False, 0, rng) is False
