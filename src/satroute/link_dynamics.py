"""Two-state Markov link model: parameters, steady state, k-stage ON probabilities.

A link is ON (available) or OFF.  ``LinkParams`` stores its chain as the
long-run ON probability ``p`` and the memory ``mu``: per slot it turns OFF->ON
with probability ``epsilon2 = (1 - mu) p`` and ON->OFF with ``(1 - mu)(1 - p)``.
With ``mu >= 0``, the only chains supported, an ON link is always at least as
likely to be ON after k slots as an OFF link is to have turned ON.

Link states are plain bools (True == ON).  The Monte Carlo samples them
lazily: an SCPR trial draws its t = 0 snapshot inside the BFS, keeps only the
states its route may read (see ``grid_topology.shortest_connected_hops``) and
advances route links with ``transition_prob``; a GR trial's
``simulator.NetworkState`` makes only GR's two looks, a first look and a
wait's look one slot after an OFF one.  The general lazy chain is the tests'
reference (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from collections import namedtuple

# Chains closer to static than this wait about 1e9 slots or more for an OFF
# link to recover; reject them up front.
MU_MAX = 1.0 - 1e-9


class LinkParams(namedtuple("LinkParams", "p mu")):
    """Immutable link-chain parameters, checked against the CLI's domain.

    p:  steady-state ON probability, 0 < p < 1 (p in {0, 1} is degenerate).
    mu: memory parameter, 0 <= mu <= MU_MAX (a static chain never recovers).
    epsilon2, derived: (1 - mu) p, the per-slot recovery probability.
    """

    __slots__ = ()

    def __new__(cls, p: float, mu: float) -> LinkParams:
        if not 0.0 < p < 1.0:
            raise ValueError(f"p={p}: need 0 < p < 1")
        if not 0.0 <= mu <= MU_MAX:
            raise ValueError(f"mu={mu}: need 0 <= mu <= {MU_MAX}")
        return super().__new__(cls, p, mu)

    @property
    def epsilon2(self) -> float:
        return (1.0 - self.mu) * self.p


def from_p_mu(p: float, mu: float) -> LinkParams:
    """LinkParams(p, mu): the chain with steady-state ON probability p and memory mu."""
    return LinkParams(p, mu)


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
