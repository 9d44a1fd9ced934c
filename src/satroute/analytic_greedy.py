"""Closed-form performance of greedy routing (GR).

Bufferless throughput from any source (x, y >= 0), the boundary-hit time
machinery for the buffered walk, the exact buffered mean-delay component,
and its closed-form upper bound; ``gr_walk``, their recursion for any tie rule.

Conventions used throughout: u is the probability of moving vertically when
both toward-destination links are usable; w is the unconditional per-move
vertical probability of the buffered walk; tau_x / tau_y are the move counts
at which the walk first exhausts its horizontal / vertical distance, and
min(tau_x, tau_y) is the number of moves spent in the interior (two usable
directions) before joining the boundary (one usable direction).
"""

from __future__ import annotations

import math
import sys

from .link_dynamics import LinkParams
from .simulator import DETERMINISTIC
from .special_functions import beta_fn, log_neg_binomial_terms, log_sum_exp, neg_binomial_sum, reg_inc_beta


def gr_throughput(p: float, x: int, y: int, u: float) -> float:
    """Bufferless GR delivery probability from source (x, y), x, y >= 0.

    An axis source (x == 0 or y == 0) has one usable link per hop: p^(x+y),
    whatever u.  From an interior source it evaluates

        p^y ((1-up)/ubar)^x I_{ubar p}(x, y) + p^x ((1-ubar p)/u)^y I_{up}(y, x)

    in the equivalent negative-binomial-sum form

        p^(x+y) [ (1-up)^x sum_{k<y} C(k+x-1,k)(1-ubar p)^k
                + (1-ubar p)^y sum_{k<x} C(k+y-1,k)(1-up)^k ],

    which is finite, exact, and regular at u in {0, 1} where the beta form
    has a 0 * inf factor.  Independent of the memory parameter: every move
    lands on a never-observed node whose links are in steady state.
    """
    bracket = _throughput_bracket(p, x, y, u)  # checks the inputs before p ** (x + y)
    scale = p ** (x + y)
    if scale < sys.float_info.min and p > 0.0 or bracket == math.inf:
        # p^(x+y) is subnormal or 0.0, or the bracket passes the float range,
        # but the product may be a normal float
        return math.exp((x + y) * math.log(p) + log_throughput_bracket(p, x, y, u))
    return scale * bracket


def log_throughput_bracket(p: float, x: int, y: int, u: float) -> float:
    """log(gr_throughput / p^(x+y)), the log of the bracket above.

    Where a coefficient or a sum of the bracket passes the float range (x + y
    past about 1030), its terms are added in logs, each from its exact
    integer coefficient.
    """
    bracket = _throughput_bracket(p, x, y, u)
    if bracket < math.inf:
        return math.log(bracket)
    f1, f2 = 1.0 - u * p, 1.0 - (1.0 - u) * p
    return log_sum_exp([a * math.log(f) + t for a, b, f, r in ((x, y, f1, f2), (y, x, f2, f1)) if f > 0.0
                        for t in log_neg_binomial_terms(r, a, b)])


def _throughput_bracket(p: float, x: int, y: int, u: float) -> float:
    """gr_throughput / p^(x+y): the bracket above, exactly 1.0 from an axis
    source, and inf where it passes the float range."""
    if x < 0 or y < 0:
        raise ValueError(f"x={x}, y={y}: need x, y >= 0")
    _check_prob("p", p)
    if x == 0 or y == 0:
        return 1.0
    _check_prob("u", u)
    ub = 1.0 - u
    try:
        s1 = neg_binomial_sum(1.0 - ub * p, x, y)
        s2 = neg_binomial_sum(1.0 - u * p, y, x)
    except OverflowError:
        return math.inf
    return (1.0 - u * p) ** x * s1 + (1.0 - ub * p) ** y * s2


def w_from_u(params: LinkParams, u: float) -> float:
    """Vertical-move probability of the buffered walk induced by tie-break u.

    Both ON: vertical w.p. u.  One ON: forced.  Both OFF: wait; the first
    link to recover wins the race, with the u-coin again on a simultaneous
    recovery, giving (u e2 + 1 - e2) / (2 - e2) conditional on that case.
    Affine and strictly increasing in u, so u = 0 and u = 1 give the ends of
    the attainable w interval.
    """
    _check_prob("u", u)
    p, e2 = params.p, params.epsilon2
    q = 1.0 - p
    return u * p * p + p * q + q * q * ((u * e2 + 1.0 - e2) / (2.0 - e2))


def shape_condition_holds(params: LinkParams, x: int, y: int) -> bool:
    """Whether the diagonal bias w = y/(x+y) is attainable from some u in [0, 1].

    The attainable walks span [w_from_u(0), 1 - w_from_u(0)], so the bias is
    attainable when min(x, y)/(x+y) reaches the lower end.
    """
    return min(x, y) / (x + y) >= w_from_u(params, 0.0) - 1e-12


def expected_min_tau(x: int, y: int, w: float) -> float:
    """E[min(tau_x, tau_y)] in closed form.

    For x, y >= 1 and 0 < w < 1:

        x/wbar - w^(y-1) wbar^(x-1) / B(y, x) + (y/w - x/wbar) I_w(y, x).

    Note the final factor is I_w(y, x): writing it with arguments (x, y)
    disagrees with the direct sum over the pmf for every x != y.

    I_w(y, x) is P(tau_y < tau_x), and the last term cancels x/wbar when it
    is near 1.  So where the walk is expected to exhaust its vertical
    distance first (y/w < x/wbar; on the diagonal, where w > 1/2) the form
    is evaluated in the mirrored walk (x, y, w) -> (y, x, wbar), which has
    the same mean.  wbar = 1 - w is formed once, and it is exact where
    w > 1/2, so the smaller of w and wbar is always exact: never
    1 - (1 - w).
    """
    if x < 1 or y < 1:
        raise ValueError("need x, y >= 1")
    if not 0.0 < w < 1.0:
        raise ValueError(f"w={w}: need 0 < w < 1")
    wb = 1.0 - w
    if y * wb < x * w:
        x, y, w, wb = y, x, wb, w
    try:
        density = (w ** (y - 1)) * (wb ** (x - 1)) / beta_fn(y, x)
    except OverflowError:  # 1/B(y, x) = (x+y-1) C(x+y-2, y-1) passes the float range: one exponent
        density = math.exp((y - 1) * math.log(w) + (x - 1) * math.log(wb)
                           + math.log((x + y - 1) * math.comb(x + y - 2, y - 1)))
    return x / wb - density + (y / w - x / wb) * reg_inc_beta(w, y, x)


def gr_delay_exact_component(params: LinkParams, x: int, y: int, w: float) -> float:
    """Mean buffered GR delay from (x, y) via the interior/boundary split.

    Interior moves cost 1 + (1-p)^2 / (2 e2 - e2^2) in expectation (wait for
    the first of two links to recover), boundary moves 1 + (1-p)/e2; the walk
    spends E[min(tau_x, tau_y)] moves in the interior out of x + y total.
    A source with x == 0 or y == 0 is all-boundary, whatever w.
    """
    if x < 0 or y < 0:
        raise ValueError("need x, y >= 0")
    if x == 0 or y == 0:
        return (x + y) * (1.0 + (1.0 - params.p) / params.epsilon2)
    return gr_delay_of_interior_moves(params, x, y, expected_min_tau(x, y, w))


def gr_delay_of_interior_moves(params: LinkParams, x: int, y: int, interior: float) -> float:
    """The split above for a walk that makes ``interior`` of its x + y moves in the interior."""
    p, e2 = params.p, params.epsilon2
    interior_extra = (1.0 - p) ** 2 / (2.0 * e2 - e2 * e2)
    boundary_extra = (1.0 - p) / e2
    return (x + y) + interior_extra * interior + boundary_extra * (x + y - interior)


def gr_walk(params: LinkParams, x: int, y: int, tie: float | str) -> tuple[float, float]:
    """(expected interior moves, delivery probability) of GR's walk from (x, y)
    under the Monte Carlo's tie rule: a float u, or DETERMINISTIC, the farther
    axis with a fair coin at a = b.  Fresh links at each node give, with d the
    rule's vertical probability at remaining (a, b), 0 and p^(a+b) on the axes:

        I(a,b) = 1 + v I(a,b-1) + (1-v) I(a-1,b),  v = w_from_u(params, d)
        T(a,b) = p^2 [d T(a,b-1) + (1-d) T(a-1,b)] + p(1-p) [T(a,b-1) + T(a-1,b)]

    For a coin I is eqEK and T claim3, here with positive terms only and T not
    as a bracket times p^(x+y).  O(x y) pure Python, rows along the shorter axis.
    """
    if x < 0 or y < 0:
        raise ValueError(f"x={x}, y={y}: need x, y >= 0")
    p = params.p
    rule = (0.0, 0.5, 1.0) if tie == DETERMINISTIC else (tie,) * 3  # d at b < a, b == a, b > a
    if y > x:  # mirrored, a vertical move is a horizontal one
        x, y, rule = y, x, [1.0 - d for d in reversed(rule)]
    steps = [(v, 1.0 - v, p * (p * d + 1.0 - p), p * (1.0 - p * d)) for d in rule for v in [w_from_u(params, d)]]
    moves = [0.0] * (y + 1)  # I(a - 1, b), overwritten with I(a, b) as b rises
    delivered = [p**b for b in range(y + 1)]  # T likewise
    for a in range(1, x + 1):
        i_left = 0.0
        t_left = delivered[0] = p**a
        for b in range(1, y + 1):
            v, vb, tv, th = steps[(b >= a) + (b > a)]
            i_left = moves[b] = 1.0 + v * i_left + vb * moves[b]
            t_left = delivered[b] = tv * t_left + th * delivered[b]
    return moves[y], delivered[y]


def gr_delay_upper_bound(params: LinkParams, x: int, y: int) -> float:
    """Closed-form upper bound on mean buffered GR delay from (x, y >= 1).

    It bounds the diagonal-bias walk w = y/(x+y), where a Stirling bound on
    E[min(tau_x, tau_y)] gives

        (x+y)(1 + (1-p)^2/(2 e2 - e2^2))
        + (1-p)(1 - e2 + p)/(2 e2 - e2^2) * sqrt((x+y) / (2 pi w wbar)).

    Raises ValueError where no u in [0, 1] attains that walk.
    """
    if x < 1 or y < 1:
        raise ValueError("interior source requires x >= 1 and y >= 1")
    if not shape_condition_holds(params, x, y):
        raise ValueError(f"x={x}, y={y}: no tie-break u in [0, 1] attains the diagonal bias y/(x+y)")
    p, e2 = params.p, params.epsilon2
    w = y / (x + y)
    denom = 2.0 * e2 - e2 * e2
    return (x + y) * (1.0 + (1.0 - p) ** 2 / denom) + (
        (1.0 - p) * (1.0 - e2 + p) / denom
    ) * math.sqrt((x + y) / (2.0 * math.pi * w * (1.0 - w)))


def _check_prob(name: str, v: float) -> None:
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"{name}={v}: need a probability in [0, 1]")
