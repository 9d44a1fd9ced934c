"""Closed-form performance of shortest-connected-path routing (SCPR).

Two quantities, both for a packet that departs the source t_c slots after the
routing snapshot was taken, over a path whose links were all ON at snapshot
time:

* throughput upper bound: the product of per-hop survival probabilities
  p11(t_c + i) over the first x+y hops;
* mean-delay lower bound: the exact expected buffered delay of that stylized
  path process, extracted from a moment-generating-function recursion.

The MGF recursion works on G_i(t) = E[mu^(t * S_i)], where S_i is the delay
accumulated over the first i hops:

    G_i(t) = A(t) G_{i-1}(t) + B(t) G_{i-1}(t+1),   G_0(t) = 1,

    A(t) = (p(1-m)m + e2 m^2) / (1 - (1-e2) m),     m = mu^t
    B(t) = (1-p) mu^(t_c) m (1-m) / (1 - (1-e2) m)

and E[S_i] = G_i'(0) / log(mu).  Derivatives are propagated through the
recursion with forward-mode dual numbers, so no finite-difference step size
is involved.  Working on G (values in (0, 1]) rather than G/log(mu) avoids
dividing by log(mu) until the very end.

Each row G_i(t .. t + depth - i) is one dual number of numpy arrays, so a row
costs a few array operations; mgf_rows() yields the rows one at a time and
scpr_delay_recursion() keeps only the last.  numpy is imported inside that
kernel, not at module top: loading it is about half of a CLI process's
start-up, and the GR and throughput paths never need it.
"""

from __future__ import annotations

import math
from typing import Iterator

from .link_dynamics import MU_MAX, LinkParams, transition_prob


class Dual:
    """Minimal forward-mode dual number: value + first derivative (floats or arrays)."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0.0):
        self.v = v
        self.d = d

    def __getitem__(self, index):
        return Dual(self.v[index], self.d[index])

    def __add__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.v + other.v, self.d + other.d)

    __radd__ = __add__

    def __rsub__(self, other):
        return Dual(other - self.v, -self.d)

    def __mul__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.v * other.v, self.d * other.v + self.v * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.v / other.v, (self.d * other.v - self.v * other.d) / (other.v * other.v))


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
    if depth == 0:
        return 0.0
    if params.mu == 0.0:
        return _delay_mu0(params, depth, t_c)
    if params.mu > MU_MAX:
        raise ValueError(f"mu={params.mu} too close to 1 for a stable 1/log(mu)")
    for row in mgf_rows(params, t_c, depth):
        pass
    return float(row.d[0]) / math.log(params.mu)  # E[S_depth] = G_depth'(0) / log(mu)


def _delay_mu0(params: LinkParams, depth: int, t_c: int) -> float:
    # Memoryless links: every hop reached at slot >= 1 is fresh Bernoulli(p),
    # so each costs 1 + (1-p)/e2 in expectation.  The sole exception is the
    # first hop when t_c == 0: it is traversed at the snapshot instant itself,
    # where it is ON by construction and costs exactly 1.
    per_hop_extra = (1.0 - params.p) / params.epsilon2
    value = depth * (1.0 + per_hop_extra)
    if t_c == 0:
        value -= per_hop_extra
    return value


def mgf_coefficients(params: LinkParams, t_c: int, t) -> tuple[Dual, Dual]:
    """A(t), B(t) as dual numbers (value .v, derivative in t .d); t a float or array."""
    p, e2, mu = params.p, params.epsilon2, params.mu
    m = Dual(mu**t, mu**t * math.log(mu))
    den = 1.0 - (1.0 - e2) * m
    a = (p * (1.0 - m) * m + e2 * m * m) / den
    b = (1.0 - p) * (mu**t_c) * (m * (1.0 - m)) / den
    return a, b


def mgf_rows(params: LinkParams, t_c: int, depth: int, t: float = 0.0) -> Iterator[Dual]:
    """Yield the rows G_0 .. G_depth, row i over the offsets t + (0 .. depth - i).

    Needs 0 < mu < 1.  The derivative of G_depth at t = 0 consumes exactly
    this triangle, and only the row being extended is kept.
    """
    import numpy as np

    a, b = mgf_coefficients(params, t_c, t + np.arange(depth, dtype=float))
    row = Dual(np.ones(depth + 1), np.zeros(depth + 1))
    yield row
    for n in range(depth, 0, -1):
        # per cell the same operations, in the same order, as a * g(t) + b * g(t + 1)
        row = a[:n] * row[:n] + b[:n] * row[1 : n + 1]
        yield row
