import functools
import gc
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from satroute import special_functions, verify
from satroute.special_functions import beta_fn, binom, neg_binomial_sum, reg_inc_beta, reg_inc_beta_row

from oracles import exact_reg_inc_beta, pointwise_beta_identities


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
        reg_inc_beta_row(0.5, 3, 0)
    with pytest.raises(ValueError):
        reg_inc_beta_row(-0.1, 2, 3)
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


def test_coefficient_cache_stays_within_its_bound(monkeypatch):
    """A check reads each shape at many points, and the cache builds the
    shape's coefficients once while the check reads it.  The one exception
    is the Beta check's row shape (a, 30): for a < 30 it comes back as the
    complement shape of (a, b) = (30, a), after hundreds of other shapes
    have evicted it."""
    cache = special_functions._neg_binomial_coefficients
    assert cache.cache_info().maxsize == 256
    builds = []

    def build(a, b):
        builds.append((a, b))
        return cache.__wrapped__(a, b)

    recorded = functools.lru_cache(maxsize=256)(build)
    monkeypatch.setattr(special_functions, "_neg_binomial_coefficients", recorded)
    for check in (verify.throughput_dp_error, verify.hitting_time_error, verify.quadrature_error):
        builds.clear()
        recorded.cache_clear()
        check()
        assert builds and len(builds) == len(set(builds))
    builds.clear()
    recorded.cache_clear()
    verify.beta_identity_errors()
    assert set(builds) == {(a, b) for a in range(1, 31) for b in range(1, 31)}
    assert set((Counter(builds) - Counter(set(builds))).elements()) <= {(a, 30) for a in range(1, 30)}


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
    monkeypatch.setattr(verify, "reg_inc_beta_row", counted("row", reg_inc_beta_row))
    assert all(r.passed for r in verify.suite_analytic())
    assert calls == {"point": 30 * 30 * 101 + 5, "row": 30 * 101}


def test_row_equals_pointwise_values_at_every_grid_point():
    for a in range(1, 31):
        for i in range(0, 101):
            v = i / 100
            assert reg_inc_beta_row(v, a, 30) == [reg_inc_beta(v, a, b) for b in range(1, 31)]


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
    read 0.0 and I_0.3(600, 10) read 3.4e-12 off.  The row takes each of its
    partial sums the same way."""
    assert v**a < sys.float_info.min
    assert abs(Fraction(reg_inc_beta(v, a, b)) / exact_reg_inc_beta(v, a, b) - 1) <= 1e-12
    assert reg_inc_beta_row(v, a, b) == [reg_inc_beta(v, a, k) for k in range(1, b + 1)]
