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
``log_neg_binomial_sum`` gives the sum's log from an O(b) float series,
anchored on one exact integer coefficient.
"""

from __future__ import annotations

import sys
from functools import lru_cache
from math import comb, exp, floor, inf, log

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
    v^a is subnormal or 0.0 but v > 0, or the sum passes the float range, the
    product is exp(a log v + log sum): I_{0.2}(460, 400) = 9.81e-105, with v^a
    subnormal, would read 9.77e-105 as a product.
    """
    _check_shape(a, b)
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"v={v}: need 0 <= v <= 1")
    if v == 0.0:
        return 0.0
    scale = v**a
    total = neg_binomial_sum(1.0 - v, a, b)
    if scale < MIN_NORMAL or total == inf:
        return min(exp(a * log(v) + log_neg_binomial_sum(1.0 - v, a, b)), 1.0)
    return min(scale * total, 1.0)


def neg_binomial_sum(r: float, a: int, b: int) -> float:
    """sum_{k=0}^{b-1} C(k+a-1, k) r^k, the negative-binomial partial sum.

    inf where a coefficient or the sum passes the float range;
    ``log_neg_binomial_sum`` serves those shapes.
    """
    total = 0.0
    weight = 1.0  # r^k
    for coefficient in _neg_binomial_coefficients(a, b):
        total += coefficient * weight
        weight *= r
    return total


def log_neg_binomial_sum(r: float, a: int, b: int) -> float:
    """log(neg_binomial_sum(r, a, b)), finite at any shape.

    Past the float range the terms t_k = C(k+a-1, k) r^k are summed relative
    to the largest, t_m, by their ratio t_{k+1} / t_k = r (k+a) / (k+1), which
    falls as k rises: up and down from m, each walk stopping once a term falls
    below 1e-18 of the sum, so O(b) float work.  The log is anchored on
    t_m's, from the exact integer C(m+a-1, m).  At r = 0 only the k = 0
    term, 1, is left.
    """
    total = neg_binomial_sum(r, a, b)
    if total < inf:
        return log(total)
    m = b - 1 if r == 1.0 else min(b - 1, max(0, floor((r * a - 1.0) / (1.0 - r)) + 1))  # t_{k+1} < t_k from k = m on
    total = term = 1.0
    for k in range(m, b - 1):
        term *= r * (k + a) / (k + 1)
        total += term
        if term < 1e-18 * total:
            break
    term = 1.0
    for k in range(m, 0, -1):
        term *= k / (r * (k - 1 + a))
        total += term
        if term < 1e-18 * total:
            break
    return log(comb(m + a - 1, m)) + (m * log(r) if m else 0.0) + log(total)  # m = 0 at r = 0


@lru_cache(maxsize=256)
def _neg_binomial_coefficients(a: int, b: int) -> tuple[float, ...]:
    """C(k+a-1, k) for k < b as floats, the terms of neg_binomial_sum, its one
    caller (and through it of reg_inc_beta's float path).

    Each exact integer is rounded once by ``float()``, the same correctly
    rounded conversion that ``int * float`` applies, so the sum is unchanged.
    A shape with a coefficient past the float range is kept as ``(inf,)``,
    whose sum is inf, so that its builds are not repeated on every call.
    A Beta check calls the sum for a few (a, b) pairs at many points, so the
    coefficients are built once per pair; the bound keeps a scan over many
    shapes from holding them all.  The tuple is built from a list, so it is
    allocated at its final size: ``tuple(<generator>)`` guesses a size and
    resizes, and each cache miss then leaves a block in another size's free
    list.
    """
    try:
        return tuple([float(comb(k + a - 1, k)) for k in range(b)])
    except OverflowError:
        return (inf,)


def _check_shape(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise ValueError(f"a={a}, b={b}: integer shape parameters must be >= 1")
