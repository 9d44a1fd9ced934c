"""Reference implementations that tests compare the production code against.

* ``step`` / ``neighbors``: torus neighbours by coordinate arithmetic, which
  the node-id table ``grid_topology.neighbor_id_table`` must match.
* ``sample_next`` / ``sample_k_steps``: one-slot and one-draw k-slot link
  sampling, straight from the Markov chain's definition and its kernel.
* ``SlotwiseNetworkState``: a NetworkState that evolves every re-observed
  link slot by slot, which the one-draw k-step jump must match in law.
* ``KernelNetworkState``: a NetworkState that calls ``transition_prob`` at
  every re-observation, which the production one's cached one-step kernel
  must match draw for draw.
* ``trial_rng``: trial i's random stream, rebuilt from (master_seed, i) as
  ``simulator.estimate`` derives it, so a test can replay any one trial.
* ``validate_hops``: a validity check for hop lists
  ``[(tail node index, direction), ...]``.
* ``oracle_scpr_trial``: the SCPR trial observing every link, the t = 0
  snapshot included, through a NetworkState, with the BFS asking a predicate
  once per link (``oracle_connected_hops``).  The production trial must make
  the same draws in the same order.
* ``scalar_mgf_rows``: the SCPR delay-MGF triangle built cell by cell from
  scalar dual numbers, which the array rows of ``analytic_scpr.mgf_rows`` must match.
* ``pointwise_beta_identities``: the Beta complement and Pascal errors with
  every term evaluated at its own point, which ``verify``'s row-at-a-time
  check must match exactly.
"""

from __future__ import annotations

import math
import random
from collections import deque

from satroute import grid_topology as grid
from satroute.analytic_scpr import Dual
from satroute.grid_topology import ORIGIN, GridSpec, NodeCoord, neighbor_id_table
from satroute.link_dynamics import LinkParams, transition_prob
from satroute.simulator import NetworkState, TrialOutcome, _mix64, _trial_stream
from satroute.special_functions import reg_inc_beta

DIR_STEPS = ((-1, 0), (0, -1), (1, 0), (0, 1))  # (L, D, R, U)


def step(spec: GridSpec, node: NodeCoord, direction: int) -> NodeCoord:
    dx, dy = DIR_STEPS[direction]
    return grid.normalize(spec, NodeCoord(node[0] + dx, node[1] + dy))


def neighbors(spec: GridSpec, node: NodeCoord) -> tuple[NodeCoord, NodeCoord, NodeCoord, NodeCoord]:
    """The four torus neighbors in (left, down, right, up) order."""
    return tuple(step(spec, node, d) for d in range(4))  # type: ignore[return-value]


def sample_next(params: LinkParams, on: bool, rng) -> bool:
    """Advance the link one slot.  ``rng`` needs only a ``random()`` method."""
    if on:
        return rng.random() >= params.epsilon1
    return rng.random() < params.epsilon2


def sample_k_steps(params: LinkParams, on: bool, k: int, rng) -> bool:
    """Advance the link k slots with a single draw from the k-step kernel.

    Distributionally identical to k applications of sample_next, but consumes
    one uniform regardless of k.
    """
    if k == 0:
        return on
    return rng.random() < transition_prob(params, on, k)


class SlotwiseNetworkState(NetworkState):
    """NetworkState whose re-observed links take one sample_next per slot."""

    __slots__ = ()

    def link_on_id(self, lid: int, t: int) -> bool:
        cached = self._cache.get(lid)
        if cached is None:
            on = self.rng.random() < self.params.p
        else:
            on, last_t = cached
            if t < last_t:
                raise ValueError(f"link {lid} queried backwards in time ({last_t} -> {t})")
            for _ in range(t - last_t):
                on = sample_next(self.params, on, self.rng)
        self._cache[lid] = (on, t)
        return on


class KernelNetworkState(NetworkState):
    """NetworkState that computes the k-step kernel at every re-observation."""

    __slots__ = ()

    def link_on_id(self, lid: int, t: int) -> bool:
        cached = self._cache.get(lid)
        if cached is None:
            on = self.rng.random() < self.params.p
        else:
            on, last_t = cached
            k = t - last_t
            if k < 0:
                raise ValueError(f"link {lid} queried backwards in time ({last_t} -> {t})")
            if k > 0:
                on = self.rng.random() < transition_prob(self.params, on, k)
        self._cache[lid] = (on, t)
        return on


def validate_hops(spec: GridSpec, hops, src_id: int, dst_id: int) -> None:
    """Raise ValueError unless ``hops`` is a simple chain from src_id to dst_id."""
    nbr = neighbor_id_table(spec)
    node = src_id
    seen = {src_id}
    for i, (tail, direction) in enumerate(hops):
        if tail != node:
            raise ValueError(f"hop {i} does not chain")
        if direction not in range(4):
            raise ValueError(f"hop {i} has no direction {direction!r}")
        node = nbr[tail][direction]
        if node in seen:
            raise ValueError(f"node {node} repeated")
        seen.add(node)
    if node != dst_id:
        raise ValueError(f"path ends at node {node}, not {dst_id}")


def oracle_connected_hops(spec: GridSpec, link_on_id, src_id: int, dst_id: int):
    """BFS over links for which ``link_on_id(node index, direction)`` holds.

    Neighbors are expanded in (L, D, R, U) order and the first-found parent
    is kept; the predicate is asked once per link, when the search first
    examines it.  Returns a hop list, or None if dst_id is unreachable.
    """
    if src_id == dst_id:
        return []
    nbr = neighbor_id_table(spec)
    visited = bytearray(spec.n_nodes)
    visited[src_id] = 1
    parent = [-1] * spec.n_nodes  # packed as tail_id * 4 + direction
    queue = deque([src_id])
    while queue:
        nid = queue.popleft()
        for d in range(4):
            nxt = nbr[nid][d]
            if visited[nxt] or not link_on_id(nid, d):
                continue
            visited[nxt] = 1
            parent[nxt] = nid * 4 + d
            if nxt == dst_id:
                hops = []
                while nxt != src_id:
                    tail, direction = parent[nxt] >> 2, parent[nxt] & 3
                    hops.append((tail, direction))
                    nxt = tail
                hops.reverse()
                return hops
            queue.append(nxt)
    return None


def trial_rng(master_seed: int, index: int) -> random.Random:
    """Trial ``index``'s stream in ``simulator.estimate(master_seed=...)``."""
    return _trial_stream(_mix64(master_seed), index)


def oracle_scpr_trial(state: NetworkState, src: NodeCoord, t_c: int, buffered: bool, rng) -> TrialOutcome:
    """One SCPR trial toward the origin with every observation a ``state.link_on_id`` call.

    The snapshot is the state at t = 0; the packet departs at t_c, waits slot
    by slot on an OFF link when buffered, and is dropped on one otherwise.
    """
    spec = state.spec
    hops = oracle_connected_hops(
        spec,
        lambda nid, d: state.link_on_id(nid * 4 + d, 0),
        grid.node_index(spec, grid.normalize(spec, src)),
        grid.node_index(spec, ORIGIN),
    )
    if hops is None:
        hops = grid.random_shortest_path(spec, src, rng)
    t = t_c
    for nid, d in hops:
        lid = nid * 4 + d
        if state.link_on_id(lid, t):
            t += 1
            continue
        if not buffered:
            return TrialOutcome(False, None, len(hops), None)
        t += 1
        while not state.link_on_id(lid, t):
            t += 1
        t += 1
    return TrialOutcome(True, t - t_c, len(hops), None)


def scalar_mgf_rows(params: LinkParams, t_c: int, depth: int) -> list[list[Dual]]:
    """Row i holds the dual G_i(t) for t = 0 .. depth - i, one cell at a time."""
    p, e2, mu = params.p, params.epsilon2, params.mu

    def ab(t: float) -> tuple[Dual, Dual]:
        m = Dual(mu**t, mu**t * math.log(mu))
        den = 1.0 - (1.0 - e2) * m
        a = (p * (1.0 - m) * m + e2 * m * m) / den
        b = (1.0 - p) * (mu**t_c) * (m * (1.0 - m)) / den
        return a, b

    rows = [[Dual(1.0, 0.0) for _ in range(depth + 1)]]
    for i in range(1, depth + 1):
        prev = rows[i - 1]
        row = []
        for t in range(depth - i + 1):
            a, b = ab(t)
            row.append(a * prev[t] + b * prev[t + 1])
        rows.append(row)
    return rows


def pointwise_beta_identities() -> tuple[float, float]:
    """(worst complement error, worst Pascal error) over a, b in 1..30, v = i/100."""
    worst_sym = worst_pascal = 0.0
    for a in range(1, 31):
        for b in range(1, 31):
            for i in range(0, 101):
                v = i / 100
                worst_sym = max(worst_sym, abs(reg_inc_beta(v, a, b) + reg_inc_beta(1 - v, b, a) - 1.0))
                if a >= 2 and b >= 2:
                    rec = v * reg_inc_beta(v, a - 1, b) + (1 - v) * reg_inc_beta(v, a, b - 1)
                    worst_pascal = max(worst_pascal, abs(reg_inc_beta(v, a, b) - rec))
    return worst_sym, worst_pascal
