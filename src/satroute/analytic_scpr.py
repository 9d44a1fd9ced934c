"""Closed-form performance of shortest-connected-path routing (SCPR).

Two quantities, both for a packet that departs the source t_c slots after the
routing snapshot was taken, over a path whose links were all ON at snapshot
time:

* throughput upper bound: the product of per-hop survival probabilities
  p11(t_c + i) over the first x+y hops;
* mean-delay lower bound: the exact expected buffered delay of that stylized
  path process, from a values-only recursion.

Let S_i be the delay accumulated over the first i hops.  Hop i is reached
t_c + S_{i-1} slots after the snapshot, is OFF then with probability
(1-p)(1 - mu^(t_c + S_{i-1})), and an OFF hop waits 1/e2 slots on average, so

    E[S_i] = E[S_{i-1}] + 1 + (1-p)/e2 (omc + (1-omc) H_{i-1}(1)),

where H_i(t) = 1 - E[mu^(t S_i)] obeys

    H_i(t) = C(t) + A(t) H_{i-1}(t) + B(t) H_{i-1}(t+1),   H_0(t) = 0,

    A(t) = (p om + e2 m) m / den
    B(t) = (1-p) (1-omc) m om / den
    C(t) = 1 - A - B = om (om + (1-p) m omc + e2 m) / den

with om = 1 - mu^t, omc = 1 - mu^(t_c), m = 1 - om and den = om + e2 m.  om and
omc come from expm1(t log mu), and every term of A, B and C is >= 0, so nothing
cancels as mu -> 1 or p -> 0.  Every row has t >= 1, so mu = 0 is simply
log mu = -inf.

Row H_i(1 .. depth - i) is one numpy expression, and scpr_delay_recursion()
keeps only the row being extended.  numpy is imported inside that kernel, not
at module top: loading it is about half of a CLI process's start-up, and the GR
and throughput paths never need it.
"""

from __future__ import annotations

import math

from .link_dynamics import LinkParams, transition_prob


def scpr_path_success_prob(params: LinkParams, path_len: int, t_c: int) -> float:
    """Exact bufferless success probability of one snapshot-connected path.

    Hop i (ON at snapshot time 0) is traversed at slot t_c + i, so the
    probability that every hop is still ON when reached is
    prod_{i=0}^{path_len-1} p11(t_c + i).  Claim 1: at path_len = x + y it
    bounds SCPR's delivery probability from (x, y) from above, since no routed
    path is shorter.  Nonincreasing in t_c and path_len.
    """
    if path_len < 0 or t_c < 0:
        raise ValueError("path_len and t_c must be >= 0")
    prob = 1.0
    for i in range(path_len):
        prob *= transition_prob(params, True, t_c + i)
    return prob


def scpr_delay_recursion(params: LinkParams, depth: int, t_c: int) -> float:
    """E[S_depth]: mean stylized-path delay accumulated over ``depth`` hops.

    Each hop found OFF costs a Geometric(epsilon2) wait.  Claim 2: at depth =
    x + y it bounds SCPR's mean buffered delay from (x, y) from below, since
    no routed path is shorter.
    """
    if depth < 0 or t_c < 0:
        raise ValueError("depth and t_c must be >= 0")
    import numpy as np

    p, e2 = params.p, params.epsilon2
    with np.errstate(divide="ignore"):  # log 0 = -inf
        log_mu = np.log(params.mu)
    omc = -math.expm1(t_c * log_mu) if t_c else 0.0  # mu^0 = 1, also at mu = 0
    om = -np.expm1(np.arange(1, depth) * log_mu)  # t = 1 .. depth - 1
    m = 1.0 - om
    den = om + e2 * m
    a = (p * om + e2 * m) * m / den
    b = (1.0 - p) * (1.0 - omc) * m * om / den
    c = om * (om + (1.0 - p) * m * omc + e2 * m) / den
    wait = (1.0 - p) / e2
    h = np.zeros(depth)  # H_0(1 .. depth)
    mean = 0.0
    for n in range(depth - 1, -1, -1):  # H_i has n = depth - i cells
        mean += 1.0 + wait * (omc + (1.0 - omc) * h[0])
        h = c[:n] + a[:n] * h[:n] + b[:n] * h[1 : n + 1]
    return float(mean)
