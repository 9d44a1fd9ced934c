import gc
import math
import sys

import pytest

from satroute import special_functions, verify
from satroute.special_functions import beta_fn, binom, neg_binomial_sum, reg_inc_beta

from oracles import pointwise_beta_identities


def test_identity_shapes():
    for i in range(0, 101):
        v = i / 100
        assert reg_inc_beta(v, 1, 1) == pytest.approx(v, abs=1e-15)


def test_endpoints():
    assert reg_inc_beta(0.0, 4, 7) == 0.0
    assert reg_inc_beta(1.0, 4, 7) == 1.0


def test_symmetric_midpoint():
    assert reg_inc_beta(0.5, 2, 2) == pytest.approx(0.5, abs=1e-15)


def test_complement_and_pascal_small_grid():
    for a in range(1, 13):
        for b in range(1, 13):
            for i in range(0, 21):
                v = i / 20
                assert reg_inc_beta(v, a, b) + reg_inc_beta(1 - v, b, a) == pytest.approx(1.0, abs=1e-12)
                if a >= 2 and b >= 2:
                    rec = v * reg_inc_beta(v, a - 1, b) + (1 - v) * reg_inc_beta(v, a, b - 1)
                    assert reg_inc_beta(v, a, b) == pytest.approx(rec, abs=1e-12)


def test_monotone_in_v_and_a():
    for a, b in ((1, 1), (3, 5), (10, 2)):
        prev = -1.0
        for i in range(0, 101):
            cur = reg_inc_beta(i / 100, a, b)
            assert cur >= prev - 1e-15
            prev = cur
    for v in (0.2, 0.5, 0.8):
        for b in (1, 4, 9):
            prev = 2.0
            for a in range(1, 20):
                cur = reg_inc_beta(v, a, b)
                assert cur <= prev + 1e-15
                prev = cur


def test_matches_quadrature():
    assert verify.quadrature_error() <= 1e-9


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        reg_inc_beta(0.5, 0, 3)
    with pytest.raises(ValueError):
        reg_inc_beta(1.5, 2, 3)
    with pytest.raises(ValueError):
        beta_fn(2, 0)


def test_beta_values():
    assert beta_fn(1, 1) == 1.0
    assert beta_fn(2, 3) == 1.0 / 12.0
    for a in range(1, 12):
        for b in range(1, 12):
            assert beta_fn(a, b) == beta_fn(b, a)
            exact = math.factorial(a - 1) * math.factorial(b - 1) / math.factorial(a + b - 1)
            assert beta_fn(a, b) == pytest.approx(exact, rel=1e-14)


def test_binom_exact_and_edges():
    assert binom(0, 0) == 1.0
    assert binom(10, 3) == 120.0
    assert binom(5, 7) == 0.0
    assert binom(5, -1) == 0.0
    assert binom(60, 30) == float(math.comb(60, 30))


def comb_per_term_partial_sums(r, a, b_max):
    """neg_binomial_sum's loop before its coefficients were cached, one
    math.comb per term; the running total after b terms is its value for b."""
    total = 0.0
    weight = 1.0  # r^k
    yield total
    for k in range(b_max):
        total += math.comb(k + a - 1, k) * weight
        weight *= r
        yield total


def test_neg_binomial_sum_equals_comb_per_term_loop_exactly():
    wrong = [(r, a, b)
             for a in range(1, 61)
             for r in (i / 100 for i in range(101))
             for b, expected in enumerate(comb_per_term_partial_sums(r, a, 60))
             if neg_binomial_sum(r, a, b) != expected]
    assert wrong == []


def test_coefficient_cache_stays_within_its_bound():
    cache = special_functions._neg_binomial_coefficients
    cache.cache_clear()
    results = verify.SUITES["analytic"]()
    assert all(r.passed for r in results)
    info = cache.cache_info()
    assert info.maxsize == 256 and info.currsize <= info.maxsize
    assert info.hits > 100 * info.misses  # a check scans v for each (a, b)


def test_row_beta_check_equals_pointwise_reference():
    assert verify.beta_identity_errors() == pointwise_beta_identities()


def test_coefficients_are_floats_of_the_exact_binomials():
    for a in range(1, 61):
        for b in range(1, 61):
            coefficients = special_functions._neg_binomial_coefficients(a, b)
            assert type(coefficients) is tuple
            assert all(type(c) is float for c in coefficients)
            assert coefficients == tuple(float(math.comb(k + a - 1, k)) for k in range(b))


def test_beta_check_does_not_grow_the_allocated_blocks():
    """Coefficient tuples built at their final size go back to their own size's
    free list, so repeated checks leave the block count flat.  Built from a
    generator (a guessed size, then a resize), three calls left about 2,900
    more blocks.  Garbage left by earlier tests is collected before the warm
    call, so that no collection inside the window hides a growth."""
    gc.collect()
    verify.beta_identity_errors()
    before = sys.getallocatedblocks()
    for _ in range(3):
        verify.beta_identity_errors()
    assert sys.getallocatedblocks() - before < 1000


def test_analytic_suite_evaluates_each_beta_row_once(monkeypatch):
    """Two evaluations per (a, b, v), the row and the complement term, and five
    quadrature spot checks: the row also serves as the next b's I_v(a, b-1) and
    the next a's I_v(a-1, b).  Evaluating every term at its own point makes
    436,628 calls, and reusing only the I_v(a, b-1) row 266,746."""
    calls = 0

    def counted(v, a, b):
        nonlocal calls
        calls += 1
        return reg_inc_beta(v, a, b)

    monkeypatch.setattr(verify, "reg_inc_beta", counted)
    assert all(r.passed for r in verify.suite_analytic())
    assert calls <= 2 * 30 * 30 * 101 + 5
