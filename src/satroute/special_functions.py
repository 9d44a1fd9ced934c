"""Exact integer-parameter Beta machinery.

Only integer shape parameters are supported, which lets the regularized
incomplete beta function be evaluated exactly as the finite negative-binomial
tail sum

    I_v(a, b) = sum_{k=0}^{b-1} C(k+a-1, k) (1-v)^k v^a

(the probability that a negative binomial with ``a`` required successes of
probability ``v`` sees at most ``b-1`` failures).  No continued fractions,
no convergence tuning; the only error is float rounding.  Every term is
positive, so the sum keeps its relative accuracy where I_v is tiny (where
v^a is subnormal or underflows, the product is taken in logs).  The
coefficients C(k+a-1, k) are exact integers rounded once to floats, which
is the rounding an ``int * float`` product applies to them anyway.  Where a
coefficient or the sum passes the float range (a + b past about 1030),
``reg_inc_beta`` adds the terms' logs instead, each taken from its exact
integer coefficient.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import comb, exp, fsum, inf, log

MIN_NORMAL = sys.float_info.min  # below it v^a has lost relative precision


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
    try:
        total = neg_binomial_sum(1.0 - v, a, b)
    except OverflowError:
        return 0.0 if v == 0.0 else min(exp(a * log(v) + log_sum_exp(log_neg_binomial_terms(1.0 - v, a, b))), 1.0)
    if scale < MIN_NORMAL and v > 0.0:
        return min(exp(a * log(v) + log(total)), 1.0)
    return min(scale * total, 1.0)


def neg_binomial_sum(r: float, a: int, b: int) -> float:
    """sum_{k=0}^{b-1} C(k+a-1, k) r^k, the negative-binomial partial sum.

    Raises OverflowError where a coefficient or the sum passes the float
    range; ``log_neg_binomial_terms`` serves those shapes.
    """
    total = 0.0
    weight = 1.0  # r^k
    for coefficient in _neg_binomial_coefficients(a, b):
        total += coefficient * weight
        weight *= r
    if total == inf:
        raise OverflowError(f"a={a}, b={b}, r={r}: the sum passes the float range")
    return total


def log_neg_binomial_terms(r: float, a: int, b: int) -> list[float]:
    """[log(C(k+a-1, k) r^k) for k < b], the logs of neg_binomial_sum's terms.

    Finite at any shape: each coefficient is an exact integer, C(k+a, k+1) =
    C(k+a-1, k) (k+a) / (k+1), whose log Python takes without converting it
    to a float.  At r = 0 only the k = 0 term, 1, is left.
    """
    if r == 0.0:
        return [0.0]
    log_r = log(r)
    logs = []
    coefficient = 1
    for k in range(b):
        logs.append(log(coefficient) + k * log_r)
        coefficient = coefficient * (k + a) // (k + 1)
    return logs


def log_sum_exp(logs: list[float]) -> float:
    """log(sum(exp(t) for t in logs)), summed relative to the largest term."""
    top = max(logs)
    return top + log(fsum([exp(t - top) for t in logs]))


@lru_cache(maxsize=256)
def _neg_binomial_coefficients(a: int, b: int) -> tuple[float, ...]:
    """C(k+a-1, k) for k < b as floats, the terms of neg_binomial_sum, its one
    caller (and through it of reg_inc_beta's float path).

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
