import functools
import gc
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from satroute import special_functions, verify
from satroute.special_functions import beta_fn, log_neg_binomial_sum, neg_binomial_sum, reg_inc_beta

from oracles import exact_log_neg_binomial_terms, exact_reg_inc_beta, log_sum_exp, pointwise_beta_identities


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


def test_coefficient_cache_stays_within_its_bound(monkeypatch):
    """A check reads each shape at many points, and the cache builds the
    shape's coefficients once while the check reads it.  The Beta check's
    complement terms read all 900 shapes, a column (1..30, a) at a time; its
    rows build their own coefficients."""
    cache = special_functions._neg_binomial_coefficients
    assert cache.cache_info().maxsize == 256
    builds = []

    def build(a, b):
        builds.append((a, b))
        return cache.__wrapped__(a, b)

    recorded = functools.lru_cache(maxsize=256)(build)
    monkeypatch.setattr(special_functions, "_neg_binomial_coefficients", recorded)
    for check in (verify.throughput_dp_error, verify.hitting_time_error, verify.quadrature_error,
                  verify.beta_identity_errors):
        builds.clear()
        recorded.cache_clear()
        check()
        assert builds and len(builds) == len(set(builds))
    assert set(builds) == {(a, b) for a in range(1, 31) for b in range(1, 31)}


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
    """One row per (a, v) gives I_v(a, 1..30) for both identities, and is the
    next a's I_v(a-1, b); one pointwise evaluation per (a, b, v) gives the
    complement term; five more are the quadrature spot checks.  Evaluating
    every term at its own point made 436,628 calls, and reusing the rows
    pointwise 181,805."""
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(verify, "reg_inc_beta", counted("point", reg_inc_beta))
    monkeypatch.setattr(verify, "_reg_inc_beta_row", counted("row", verify._reg_inc_beta_row))
    assert all(r.passed for r in verify.suite_analytic())
    assert calls == {"point": 30 * 30 * 101 + 5, "row": 30 * 101}


def test_row_equals_pointwise_values_at_every_grid_point():
    for a in range(1, 31):
        coefficients = [float(math.comb(k + a - 1, k)) for k in range(30)]
        for i in range(0, 101):
            v = i / 100
            assert verify._reg_inc_beta_row(v, a, coefficients) == [reg_inc_beta(v, a, b) for b in range(1, 31)]


EDGE_POINTS = (1e-9, 1e-6, 0.1, 0.37, 1 - 1e-6, 1 - 1e-9)


@pytest.mark.parametrize("v", EDGE_POINTS)
def test_relative_accuracy_against_exact_rationals(v):
    """The sum has positive terms only, so it keeps its relative accuracy
    where I_v is tiny.  Through the complement 1 - I_{1-v}(b, a) the worst
    relative error over this grid was 4.9e148 at v = 1e-6 and 3.3e8 at
    v = 0.1."""
    worst = max(abs(Fraction(reg_inc_beta(v, a, b)) / exact_reg_inc_beta(v, a, b) - 1)
                for a in range(1, 31, 3) for b in range(1, 31, 3))
    assert worst <= 1e-14


# (v, a, b) where v^a is subnormal or underflows to 0.0
TINY_SCALE = [(0.2, 460, 400), (0.01, 200, 200), (0.3, 600, 10)]


@pytest.mark.parametrize("v, a, b", TINY_SCALE)
def test_relative_accuracy_where_v_to_the_a_is_not_a_normal_float(v, a, b):
    """The product is taken in logs there.  As a plain product
    I_0.2(460, 400) = 9.81e-105 read 4.3e-3 off, I_0.01(200, 200) = 7.04e-283
    read 0.0 and I_0.3(600, 10) read 3.4e-12 off."""
    assert v**a < sys.float_info.min
    assert abs(Fraction(reg_inc_beta(v, a, b)) / exact_reg_inc_beta(v, a, b) - 1) <= 1e-12


@pytest.mark.parametrize("v, a, b", [(0.5, 600, 600), (0.45, 520, 530), (0.58, 600, 500), (0.4, 1000, 1500),
                                     (1e-9, 515, 516), (0.0, 600, 600), (1.0, 600, 600)])
def test_reg_inc_beta_past_the_float_range_of_its_coefficients(v, a, b):
    """Where C(k+a-1, k) or the sum passes the float range (at (515, 516)
    only the sum does), neg_binomial_sum reads inf and reg_inc_beta adds the
    terms' logs: relative accuracy still holds."""
    import mpmath

    assert neg_binomial_sum(1.0 - v, a, b) == math.inf
    with mpmath.workdps(40):
        exact = mpmath.betainc(a, b, 0, v, regularized=True)
    assert reg_inc_beta(v, a, b) == pytest.approx(float(exact), rel=1e-12, abs=0)


@pytest.mark.parametrize("r", [1e-3, 0.55, 0.999])
@pytest.mark.parametrize("a, b", [(600, 600), (3000, 3000), (20000, 3), (3, 20000), (30000, 30000)])
def test_log_neg_binomial_sum_equals_the_exact_integer_terms(r, a, b):
    """The O(b) float series against the logs of every term, each from its
    exact integer coefficient.  The thin shapes stay in the float range,
    where the log is of neg_binomial_sum."""
    assert log_neg_binomial_sum(r, a, b) == pytest.approx(log_sum_exp(exact_log_neg_binomial_terms(r, a, b)),
                                                          rel=0, abs=1e-11)


@pytest.mark.parametrize("a, b", [(600, 600), (3000, 3000), (3, 20000)])
def test_log_neg_binomial_sum_at_the_ends_of_r(a, b):
    """r = 1, where every term rises to the last (u = 1 in GR's bracket), and
    r = 0, where the k = 0 term, 1, is left (v = 1 in reg_inc_beta)."""
    assert log_neg_binomial_sum(1.0, a, b) == pytest.approx(log_sum_exp(exact_log_neg_binomial_terms(1.0, a, b)),
                                                            rel=0, abs=1e-11)
    assert log_neg_binomial_sum(0.0, a, b) == 0.0


def test_log_neg_binomial_sum_is_the_log_of_the_float_sum_in_range():
    for r in (0.0, 0.3, 0.55, 0.999, 1.0):
        for a, b in ((1, 1), (5, 5), (30, 12), (20000, 3), (3, 20000), (515, 515)):
            assert log_neg_binomial_sum(r, a, b) == math.log(neg_binomial_sum(r, a, b))
