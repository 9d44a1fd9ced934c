"""Exact integer-parameter Beta machinery.

Only integer shape parameters are supported, which lets the regularized
incomplete beta function be evaluated exactly as the finite negative-binomial
tail sum

    I_v(a, b) = sum_{k=0}^{b-1} C(k+a-1, k) (1-v)^k v^a

(the probability that a negative binomial with ``a`` required successes of
probability ``v`` sees at most ``b-1`` failures).  No continued fractions,
no convergence tuning; the only error is float rounding.  Every term is
positive, so the sum keeps its relative accuracy where I_v is tiny (where
v^a is subnormal or underflows, the product is taken in logs), and
I_v(a, 1), ..., I_v(a, n) are its partial sums:
``reg_inc_beta_row`` returns them in one pass.  The coefficients
C(k+a-1, k) are exact integers rounded once to floats, which is the
rounding an ``int * float`` product applies to them anyway.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import comb, exp, log

MIN_NORMAL = sys.float_info.min  # below it v^a has lost relative precision


def binom(n: int, k: int) -> float:
    """Binomial coefficient as a float (exact integer arithmetic underneath)."""
    if k < 0 or k > n:
        return 0.0
    return float(comb(n, k))


def beta_fn(a: int, b: int) -> float:
    """B(a, b) = (a-1)!(b-1)!/(a+b-1)! for positive integers.

    Computed from the exact integer identity 1/B(a,b) = (a+b-1) C(a+b-2, a-1),
    so e.g. B(2, 3) == 1/12 exactly.
    """
    _check_shape(a, b)
    return 1.0 / ((a + b - 1) * comb(a + b - 2, a - 1))


def reg_inc_beta(v: float, a: int, b: int) -> float:
    """Regularized incomplete beta I_v(a, b) for integer a, b >= 1.

    The sum v^a sum_{k<b} C(k+a-1, k) (1-v)^k has positive terms only, so the
    result keeps its relative accuracy, and it is exact at v = 0 and v = 1.
    (The complement 1 - I_{1-v}(b, a) keeps only absolute accuracy: for
    I_{1e-6}(30, 4) = 5.5e-177 it gives 2.2e-16, a rounding residue.)  Where
    v^a is subnormal or 0.0 but v > 0, the product is exp(a log v + log sum):
    I_{0.2}(460, 400) = 9.81e-105, with v^a subnormal, would read 9.77e-105
    as a product.
    """
    _check_shape(a, b)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"v={v}: need 0 <= v <= 1")
    scale = v**a
    if scale < MIN_NORMAL and v > 0.0:
        return min(exp(a * log(v) + log(neg_binomial_sum(1.0 - v, a, b))), 1.0)
    return min(scale * neg_binomial_sum(1.0 - v, a, b), 1.0)


def reg_inc_beta_row(v: float, a: int, n: int) -> list[float]:
    """[I_v(a, b) for b = 1..n], each equal to ``reg_inc_beta(v, a, b)``.

    The values are the partial sums of one series, so the row costs one
    evaluation of I_v(a, n).  The loop is neg_binomial_sum's, with the same
    coefficients and the same order of operations.  Where v^a is subnormal
    or 0.0 each partial sum is scaled as reg_inc_beta scales it, in logs.
    """
    _check_shape(a, n)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"v={v}: need 0 <= v <= 1")
    scale = v**a
    r = 1.0 - v
    row = []
    total = 0.0
    weight = 1.0  # r^k
    if scale < MIN_NORMAL and v > 0.0:
        log_scale = a * log(v)
        for coefficient in _neg_binomial_coefficients(a, n):
            total += coefficient * weight
            weight *= r
            row.append(min(exp(log_scale + log(total)), 1.0))
        return row
    for coefficient in _neg_binomial_coefficients(a, n):
        total += coefficient * weight
        weight *= r
        row.append(min(scale * total, 1.0))
    return row


def neg_binomial_sum(r: float, a: int, b: int) -> float:
    """sum_{k=0}^{b-1} C(k+a-1, k) r^k, the negative-binomial partial sum."""
    total = 0.0
    weight = 1.0  # r^k
    for coefficient in _neg_binomial_coefficients(a, b):
        total += coefficient * weight
        weight *= r
    return total


@lru_cache(maxsize=256)
def _neg_binomial_coefficients(a: int, b: int) -> tuple[float, ...]:
    """C(k+a-1, k) for k < b as floats, the terms of neg_binomial_sum.

    Each exact integer is rounded once by ``float()``, the same correctly
    rounded conversion that ``int * float`` applies, so the sum is unchanged
    (and a coefficient past the float range raises the same OverflowError).
    A Beta check calls the sum for a few (a, b) pairs at many points, so the
    coefficients are built once per pair; the bound keeps a scan over many
    shapes from holding them all.  The tuple is built from a list, so it is
    allocated at its final size: ``tuple(<generator>)`` guesses a size and
    resizes, and each cache miss then leaves a block in another size's free
    list.
    """
    return tuple([float(comb(k + a - 1, k)) for k in range(b)])


def _check_shape(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError(f"a={a}, b={b}: integer shape parameters must be >= 1")
