"""Two-state Markov link model: parameters, steady state, k-stage ON probabilities.

A link is ON (available) or OFF.  Per slot it flips ON->OFF with probability
``epsilon1`` and OFF->ON with probability ``epsilon2``.  The long-run ON
probability is ``p = epsilon2 / (epsilon1 + epsilon2)`` and the memory
parameter is ``mu = 1 - epsilon1 - epsilon2``.  Only positive-memory chains
(``mu >= 0``) are supported: an ON link is then always at least as likely to
be ON after k slots as an OFF link is to have turned ON.

Link states are plain bools (True == ON).  The Monte Carlo samples them
lazily: an SCPR trial draws its t = 0 snapshot inside the BFS, keeps only the
states its route may read (see ``grid_topology.shortest_connected_hops``) and
advances route links with ``transition_prob``; ``simulator.NetworkState``
serves GR trials only.
"""

from __future__ import annotations

import math
from collections import namedtuple

# Chains closer to static than this wait about 1e9 slots or more for an OFF
# link to recover; reject them up front.
MU_MAX = 1.0 - 1e-9


class LinkParams(namedtuple("LinkParams", "epsilon1 epsilon2 p mu")):
    """Immutable link-chain parameters, stored in both representations.

    epsilon1: P(OFF at t | ON at t-1), per-slot failure probability.
    epsilon2: P(ON at t | OFF at t-1), per-slot recovery probability.
    p:        steady-state ON probability, epsilon2 / (epsilon1 + epsilon2).
    mu:       memory parameter, 1 - epsilon1 - epsilon2.
    """

    __slots__ = ()

    def __new__(cls, epsilon1: float, epsilon2: float, p: float, mu: float) -> LinkParams:
        if not (0.0 < epsilon1 <= 1.0 and 0.0 < epsilon2 <= 1.0):
            raise ValueError(f"epsilon1={epsilon1}, epsilon2={epsilon2}: both must be in (0, 1]")
        if mu < 0.0:
            raise ValueError(f"negative memory mu={mu} not supported")
        if abs(mu - (1.0 - epsilon1 - epsilon2)) > 1e-12:
            raise ValueError("mu inconsistent with epsilon1, epsilon2")
        if abs(p - epsilon2 / (epsilon1 + epsilon2)) > 1e-12:
            raise ValueError("p inconsistent with epsilon1, epsilon2")
        return super().__new__(cls, epsilon1, epsilon2, p, mu)


def from_p_mu(p: float, mu: float) -> LinkParams:
    """Build LinkParams from steady-state ON probability and memory.

    Inverts p = e2/(e1+e2), mu = 1-e1-e2:  e1 = (1-mu)(1-p), e2 = (1-mu)p.
    p in {0, 1} and mu >= ~1 are rejected (degenerate or static chains).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p={p}: need 0 < p < 1")
    if not 0.0 <= mu <= MU_MAX:
        raise ValueError(f"mu={mu}: need 0 <= mu <= {MU_MAX}")
    return LinkParams((1.0 - mu) * (1.0 - p), (1.0 - mu) * p, p, mu)


def transition_prob(params: LinkParams, from_on: bool, k: int) -> float:
    """k-stage ON probability P(ON at t+k | state at t = from_on).

    k = 0 gives 1.0 from ON and 0.0 from OFF.  For k >= 1:

        p11(k) = p + (1-p) mu^k        p01(k) = p (1 - mu^k)

    p01 comes from ``expm1(k log mu)``, so it keeps its relative accuracy
    near static links, where 1 - mu^k cancels.
    """
    if k < 0:
        raise ValueError(f"k={k}: slot count must be >= 0")
    if k == 0:
        return 1.0 if from_on else 0.0
    if from_on:
        return _clamp01(params.p + (1.0 - params.p) * params.mu ** k)
    if params.mu == 0.0:
        return params.p  # log(0) raises; mu^k = 0
    return -params.p * math.expm1(k * math.log(params.mu))


def _clamp01(v: float) -> float:
    if 0.0 <= v <= 1.0:
        return v
    clamped = min(1.0, max(0.0, v))
    assert abs(clamped - v) <= 1e-12, f"probability {v} out of range beyond rounding"
    return clamped
