"""Analytic policy comparison: who wins at a given snapshot staleness, and the smallest
staleness at which greedy routing takes over, searched over every t_c >= 0.

Greedy routing's side does not depend on the staleness, so the caller computes it once: the
log margin log(T / p^(x+y)) of its delivery probability T, or its mean delay.  Both searches
compare it against the centralized side conservatively, i.e. greedy is declared the winner
only when it beats a figure that favors the centralized policy:

* throughput: greedy's exact delivery probability must reach the centralized *upper* bound;
* delay: greedy's exact mean delay must drop below the centralized recursion evaluated one
  hop short (depth x+y-1), a deliberately weakened lower bound that gives the centralized
  side an extra one-hop margin.
"""

from __future__ import annotations

import math

from .analytic_scpr import scpr_delay_recursion
from .link_dynamics import LinkParams


def gr_beats_scpr_throughput(params: LinkParams, x: int, y: int, t_c: int, gain: float) -> bool:
    """Whether GR's delivery probability p^(x+y) e^gain reaches SCPR's bound prod_{i<x+y} p11(t_c+i).

    With p11(k) = p (1 + (1-p)/p mu^k), the log margin ``gain`` is compared with the excess
    sum_i log1p((1-p)/p mu^(t_c+i)), > 0 for mu > 0 even once it underflows.  The excess never
    rises with t_c: each term shrinks by mu <= 1 - 1e-9 a slot, far more than a rounding step,
    and pow, log1p and + all round monotonically.
    """
    if x + y < 1 or t_c < 0:
        raise ValueError(f"x={x}, y={y}, t_c={t_c}: need x + y >= 1 and t_c >= 0")
    p, mu = params.p, params.mu
    bound_excess = sum(math.log1p((1.0 - p) / p * mu ** (t_c + i)) for i in range(x + y))
    return gain > bound_excess if mu > 0.0 else gain >= bound_excess


def gr_beats_scpr_delay(params: LinkParams, x: int, y: int, t_c: int, delay: float) -> bool:
    """Whether GR's mean delay ``delay`` is at most SCPR's recursion at depth x+y-1.

    Claim 2's E[S_L] never falls as t_c grows: couple two ages with one uniform and one wait
    per hop.  p11 falls with age when mu >= 0 and an OFF hop's wait is Geometric(e2) whenever
    it starts, so at the larger age each hop is reached no earlier and found OFF no less often.
    """
    return delay <= scpr_delay_recursion(params, x + y - 1, t_c)


def throughput_crossover_tc(params: LinkParams, x: int, y: int, gain: float) -> int | None:
    """Smallest t_c >= 0 where greedy delivery, of log margin ``gain``, reaches the SCPR bound."""
    return _first_true(lambda tc: gr_beats_scpr_throughput(params, x, y, tc, gain))


def delay_crossover_tc(params: LinkParams, x: int, y: int, delay: float) -> int | None:
    """Smallest t_c >= 0 where greedy mean delay ``delay`` beats the SCPR recursion."""
    return _first_true(lambda tc: gr_beats_scpr_delay(params, x, y, tc, delay))


# The first power of two at which MU_MAX ** t is 0.0: from there on, for every accepted mu,
# both predicates equal their t_c -> inf limits (p^(x+y), and d (1 + (1-p)/e2) at depth d).
HORIZON = 2**40


def _first_true(pred) -> int | None:
    """First t >= 0 with pred(t), or None, for a pred that is False then True in t: probes 0,
    HORIZON, 1, 2, 4, ... to the first hit t* and bisects the last doubling, <= 3 + 2 ceil(log2 t*)."""
    if pred(0):
        return 0
    if not pred(HORIZON):
        return None
    lo, hi = 0, 1
    while hi < HORIZON and not pred(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # pred(lo) fails, pred(hi) holds
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if pred(mid) else (mid, hi)
    return hi
