"""Reference implementations that tests compare the production code against.

* ``step`` / ``neighbors``: torus neighbours by coordinate arithmetic, which
  the node-id table ``grid_topology.neighbor_id_table`` must match.
* ``reference_neighbor_table``: every row of that table, built at once from
  the node ids of each plane; each row a search builds must equal its own.
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
* ``oracle_gr_trial``: the GR trial on a NetworkState of its own, built
  with a one-step kernel computed per trial, which finds its link ids and
  moves from the signed coordinates at every step.  The production trial, which
  reads them from a per-run ``GrRun``, must make the same draws in the same
  order.
* ``mgf_rows`` / ``scalar_mgf_rows``: the SCPR delay-MGF triangle in dual
  numbers, one array expression per row and one scalar cell at a time.  The
  derivative form is exact in law and accurate at moderate mu, where the
  values recursion ``analytic_scpr.scpr_delay_recursion`` must match it.
* ``delay_mp``: the same delay at 40 digits, from the G-form values
  recursion, the reference for claim2 over the whole accepted domain.
* ``pointwise_beta_identities``: the Beta complement and Pascal errors with
  every term evaluated at its own point, which ``verify``'s row-at-a-time
  check must match exactly.
* ``exact_reg_inc_beta`` / ``exact_expected_min_tau``: I_v(a, b) and
  E[min(tau_x, tau_y)] as exact rationals at the given float inputs, the
  reference for relative accuracy where v or w nears 0 or 1.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import mpmath
import numpy as np

from satroute import grid_topology as grid
from satroute import simulator as sim
from satroute.analytic_scpr import Dual, mgf_coefficients
from satroute.grid_topology import DOWN, LEFT, ORIGIN, RIGHT, UP, GridSpec, NodeCoord
from satroute.link_dynamics import LinkParams, transition_prob
from satroute.simulator import DETERMINISTIC, NetworkState, TrialOutcome, _mix64, _trial_seed
from satroute.special_functions import reg_inc_beta

DIR_STEPS = ((-1, 0), (0, -1), (1, 0), (0, 1))  # (L, D, R, U)


def step(spec: GridSpec, node: NodeCoord, direction: int) -> NodeCoord:
    dx, dy = DIR_STEPS[direction]
    return grid.normalize(spec, NodeCoord(node[0] + dx, node[1] + dy))


def neighbors(spec: GridSpec, node: NodeCoord) -> tuple[NodeCoord, NodeCoord, NodeCoord, NodeCoord]:
    """The four torus neighbors in (left, down, right, up) order."""
    return tuple(step(spec, node, d) for d in range(4))  # type: ignore[return-value]


@lru_cache(maxsize=None)
def reference_neighbor_table(spec: GridSpec) -> tuple[tuple[int, int, int, int], ...]:
    """For each node index, its four neighbor indexes in (L, D, R, U) order."""
    n, m = spec.n_per_plane, spec.m_planes
    ids = list(range(spec.n_nodes))
    planes = [ids[xi * n:(xi + 1) * n] for xi in range(m)]  # node ids of plane xi, by yi
    table = []
    for xi, here in enumerate(planes):
        left, right = planes[(xi - 1) % m], planes[(xi + 1) % m]
        down, up = here[-1:] + here[:-1], here[1:] + here[:1]  # the plane rotated by one
        table.extend(zip(left, down, right, up))
    return tuple(table)


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
    nbr = reference_neighbor_table(spec)
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
    nbr = reference_neighbor_table(spec)
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
    return random.Random(_trial_seed(_mix64(master_seed), index))


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


def oracle_gr_trial(
    state: NetworkState,
    src: NodeCoord,
    buffered: bool,
    tie: float | str,
    rng,
) -> TrialOutcome:
    """One greedy-routing trial toward the origin.

    At each node only the one or two links that reduce the remaining distance
    are observed, horizontal first.  Both ON: tie-break (vertical with
    probability ``tie``, or the deterministic farther-dimension rule).  One
    ON: forced.  None ON: bufferless drops, buffered waits one slot and
    re-observes (after WAIT_SLOTWISE slots, the rest of the wait is one
    jump).  The move count at first boundary contact is recorded.

    The tie mode is decided once per trial.  Every wait slot re-observes its
    links one slot after the last look, so ``state`` draws them from its
    one-step kernel.  ``sim.WAIT_SLOTWISE`` and ``sim._jump_wait`` are read
    at call time, so a test that patches them patches both trials.

    The walk never crosses the wrap seam, so a vertical move changes the node
    index by one and a horizontal move by N (``spec.n_per_plane``).
    """
    spec = state.spec
    link_on_id = state.link_on_id
    random = rng.random
    deterministic = tie == DETERMINISTIC
    n = spec.n_per_plane
    node = grid.normalize(spec, src)
    x, y = node
    nid = grid.node_index(spec, node)
    t = 0
    moves = 0
    hit_boundary: int | None = 0 if (x == 0 or y == 0) and (x, y) != (0, 0) else None
    while x or y:
        x_lid = nid * 4 + (LEFT if x > 0 else RIGHT) if x else None
        y_lid = nid * 4 + (DOWN if y > 0 else UP) if y else None
        x_on = x_lid is not None and link_on_id(x_lid, t)
        y_on = y_lid is not None and link_on_id(y_lid, t)
        if not (x_on or y_on):
            if not buffered:
                return TrialOutcome(False, None, moves, hit_boundary)
            for _ in range(sim.WAIT_SLOTWISE):
                t += 1
                x_on = x_lid is not None and link_on_id(x_lid, t)
                y_on = y_lid is not None and link_on_id(y_lid, t)
                if x_on or y_on:
                    break
            else:
                t, x_on, y_on = sim._jump_wait(state, x_lid, y_lid, t, random)
        if x_on and y_on:
            if deterministic:
                vertical = abs(y) > abs(x) or (abs(y) == abs(x) and random() < 0.5)
            else:
                vertical = random() < tie
        else:
            vertical = y_on
        if vertical:
            s = 1 if y > 0 else -1
            y -= s
            nid -= s
        else:
            s = 1 if x > 0 else -1
            x -= s
            nid -= s * n
        t += 1
        moves += 1
        if hit_boundary is None and (x == 0 or y == 0) and (x, y) != (0, 0):
            hit_boundary = moves
    return TrialOutcome(True, t, moves, hit_boundary)


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


def mgf_rows(params: LinkParams, t_c: int, depth: int, t: float = 0.0) -> Iterator[Dual]:
    """Yield the rows G_0 .. G_depth, row i over the offsets t + (0 .. depth - i).

    Needs 0 < mu < 1.  E[S_depth] = G_depth'(0) / log(mu), and only the row
    being extended is kept.
    """
    a, b = mgf_coefficients(params, t_c, t + np.arange(depth, dtype=float))
    row = Dual(np.ones(depth + 1), np.zeros(depth + 1))
    yield row
    for n in range(depth, 0, -1):
        # per cell the same operations, in the same order, as a * g(t) + b * g(t + 1)
        row = a[:n] * row[:n] + b[:n] * row[1 : n + 1]
        yield row


def delay_mp(p: float, mu: float, depth: int, t_c: int) -> mpmath.mpf:
    """E[S_depth] of the SCPR stylized path at 40 digits, in G form.

    G_i(t) = E[mu^(t S_i)] follows G_i(t) = A(t) G_{i-1}(t) + B(t) G_{i-1}(t+1)
    with G_0 = 1, and hop i adds 1 + (1-p)/e2 (1 - mu^t_c G_{i-1}(1)) to the
    mean.  The cancellation in 1 - mu^t and 1 - G, magnified by (1-p)/e2 (up
    to 1e21 for p >= 1e-12 and mu <= 1 - 1e-9), still leaves the result well
    beyond float64 precision.  Pass the float p and mu of a ``LinkParams``.
    """
    with mpmath.workdps(40):
        p, mu = mpmath.mpf(p), mpmath.mpf(mu)
        e2 = (1 - mu) * p
        muc = mu**t_c
        a, b = [], []
        for t in range(depth):
            m = mu**t
            den = 1 - (1 - e2) * m
            a.append((p * (1 - m) * m + e2 * m * m) / den)
            b.append((1 - p) * muc * m * (1 - m) / den)
        g = [mpmath.mpf(1)] * (depth + 1)
        mean = mpmath.mpf(0)
        for n in range(depth, 0, -1):
            mean += 1 + (1 - p) / e2 * (1 - muc * g[1])
            g = [a[t] * g[t] + b[t] * g[t + 1] for t in range(n)]
        return mean


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


def exact_reg_inc_beta(v: float, a: int, b: int) -> Fraction:
    """I_v(a, b) = v^a sum_{k<b} C(k+a-1, k) (1-v)^k in exact rationals."""
    v = Fraction(v)
    return v**a * sum(math.comb(k + a - 1, k) * (1 - v) ** k for k in range(b))


def exact_expected_min_tau(x: int, y: int, w: float) -> Fraction:
    """E[min(tau_x, tau_y)] as the exact rational sum of k P(min = k).

    P(tau_x = k) = C(k-1, x-1) w^(k-x) wbar^x, and symmetrically for tau_y;
    the two events are disjoint.
    """
    w = Fraction(w)
    wb = 1 - w
    total = Fraction(0)
    for k in range(min(x, y), x + y):
        if k >= x:
            total += k * math.comb(k - 1, x - 1) * w ** (k - x) * wb**x
        if k >= y:
            total += k * math.comb(k - 1, y - 1) * w**y * wb ** (k - y)
    return total
