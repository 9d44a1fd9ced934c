"""Analytic policy comparison: who wins at a given snapshot staleness, and the
smallest staleness at which greedy routing takes over.

Both crossover searches compare greedy routing's exact analytic value against
the centralized side conservatively, i.e. greedy is declared the winner only
when it beats a figure that favors the centralized policy:

* throughput: greedy's exact delivery probability must reach the centralized
  *upper* bound;
* delay: greedy's exact mean delay must drop below the centralized recursion
  evaluated one hop short (depth x+y-1), a deliberately weakened lower bound
  that gives the centralized side an extra one-hop margin.
"""

from __future__ import annotations

import math

from .analytic_greedy import _throughput_bracket, gr_delay_exact_component
from .analytic_scpr import scpr_delay_recursion
from .link_dynamics import LinkParams


def gr_beats_scpr_throughput(params: LinkParams, x: int, y: int, t_c: int, u: float) -> bool:
    """Whether GR's delivery probability g reaches SCPR's bound prod_{i<x+y} p11(t_c+i).

    With p11(k) = p (1 + (1-p)/p mu^k) and g = p^(x+y) times a bracket that is
    exactly 1 from an axis source, the comparison is decided on the sign of
    log(bracket) - sum_i log1p((1-p)/p mu^(t_c+i)), not on two rounded
    products: from an axis source the bound exceeds g at every finite t_c.
    """
    if x + y < 1 or t_c < 0:
        raise ValueError(f"x={x}, y={y}, t_c={t_c}: need x + y >= 1 and t_c >= 0")
    p, mu = params.p, params.mu
    bound_excess = sum(math.log1p((1.0 - p) / p * mu ** (t_c + i)) for i in range(x + y))
    return math.log(_throughput_bracket(p, x, y, u)) >= bound_excess


def gr_beats_scpr_delay(params: LinkParams, x: int, y: int, t_c: int, w: float) -> bool:
    """Whether GR's mean delay under walk w is at most SCPR's recursion at depth x+y-1."""
    gr = gr_delay_exact_component(params, x, y, w)
    return gr <= scpr_delay_recursion(params, x + y - 1, t_c)


def throughput_crossover_tc(params: LinkParams, x: int, y: int, t_c_min: int, t_c_max: int,
                            u: float) -> int | None:
    """Smallest t_c in range where greedy delivery under tie-break u reaches the SCPR bound."""
    return _first_true(lambda tc: gr_beats_scpr_throughput(params, x, y, tc, u), t_c_min, t_c_max)


def delay_crossover_tc(params: LinkParams, x: int, y: int, t_c_min: int, t_c_max: int,
                       w: float) -> int | None:
    """Smallest t_c in range where greedy mean delay under walk w beats the SCPR recursion."""
    return _first_true(lambda tc: gr_beats_scpr_delay(params, x, y, tc, w), t_c_min, t_c_max)


def _first_true(pred, lo: int, hi: int) -> int | None:
    """First t in [lo, hi] with pred(t) when pred(lo) or pred(hi) holds, else None.

    Evaluates pred(lo) (a hit returns lo), then pred(hi) (a miss returns
    None), then lo+1, lo+2, ... up to the first hit.  The answer is exact for
    any pred, monotone in t or not.  A search whose first hit is ``first``
    costs at most first-lo+2 evaluations, against first-lo+1+ceil(log2(hi-lo))
    for a bisection followed by the rescan that keeps it exact.
    """
    if lo > hi:
        raise ValueError("empty search range")
    if pred(lo):
        return lo
    if not pred(hi):
        return None
    for t in range(lo + 1, hi):
        if pred(t):
            return t
    return hi
