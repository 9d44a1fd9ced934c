"""Optimality machinery for memoryless links: value iteration, node ordering,
connected-path ordering, and intermediate-node route improvement.

The value iteration solves, on the torus, the buffered minimum-mean-delay
fixed point for mu = 0 (link quads i.i.d. Bernoulli(p) per slot):

    Dstar(v, quad) = 1 + min over allowed actions of Dbar(next)
    Dbar(v)        = E_quad[ Dstar(v, quad) ],   Dbar(origin) = 0,

where "stay" is always allowed and a directional action is allowed iff that
outgoing link is ON.  The sweep iterates on Dbar alone and takes the 16-quad
expectation in closed form by order statistics: with the four neighbour values
each capped by staying and sorted, c_(0) <= ... <= c_(3), the best allowed
action is worth c_(j) when the j-th smallest link is ON and the j below it are
OFF, so

    E_quad[ min ] = sum_{j=0..3} p (1-p)^j c_(j) + (1-p)^4 Dbar(v).

Dstar is reconstructed on demand.
numpy is imported inside value_iterate_delay, where the sweep runs: loading it
is about half of a CLI process's start-up, and no other command needs it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import grid_topology as grid
from .analytic_greedy import gr_throughput
from .analytic_scpr import scpr_path_success_prob
from .grid_topology import DOWN, LEFT, GridSpec, NodeCoord
from .link_dynamics import LinkParams

QUADS = tuple(itertools.product((False, True), repeat=4))  # (l, d, r, u)

# Value iteration stops at the first sweep that changes no Dbar by this much,
# and gives up after MAX_SWEEPS sweeps.
RESIDUAL_TOL = 1e-12
MAX_SWEEPS = 100_000

# Two delays closer than this count as a tie in the ordering and argmin checks.
TIE_TOL = 1e-9


class ConvergenceError(RuntimeError):
    def __init__(self, residual: float):
        super().__init__(f"no fixed point after {MAX_SWEEPS} sweeps; last residual {residual:.3e}")
        self.residual = residual


class ValueTable(namedtuple("ValueTable", "spec d_bar iterations residual residual_history")):
    """Converged unconditional mean delays ``d_bar``, indexed [x - x_lo, y - y_lo],
    with the sweep count, the last sweep's residual and every sweep's."""

    __slots__ = ()

    def d_bar_at(self, node: NodeCoord) -> float:
        node = grid.normalize(self.spec, node)
        return float(self.d_bar[node.x - self.spec.x_lo(), node.y - self.spec.y_lo()])


def value_iterate_delay(spec: GridSpec, p: float) -> ValueTable:
    """Fixed point of the memoryless buffered-delay Bellman equation.

    Initialized at the hop distance (an admissible underestimate), so the
    sweep converges monotonically from below.  Raises ConvergenceError with
    the last residual if the sup-norm change never drops below RESIDUAL_TOL.
    """
    import numpy as np

    if not 0.0 < p <= 1.0:
        raise ValueError(f"p={p}: need 0 < p <= 1")
    m, n = spec.m_planes, spec.n_per_plane
    oi = (0 - spec.x_lo(), 0 - spec.y_lo())  # origin index
    d = np.empty((m, n))
    for node in spec.nodes():
        d[node.x - spec.x_lo(), node.y - spec.y_lo()] = grid.hop_distance(spec, node, grid.ORIGIN)
    weights = [p * (1.0 - p) ** j for j in range(4)]  # of c_(0) .. c_(3)
    history: list[float] = []
    for iteration in range(1, MAX_SWEEPS + 1):
        nbrs = np.stack((
            np.roll(d, 1, axis=0),  # left  neighbor value Dbar(x-1, y)
            np.roll(d, 1, axis=1),  # down
            np.roll(d, -1, axis=0),  # right
            np.roll(d, -1, axis=1),  # up
        ))
        capped = np.sort(np.minimum(nbrs, d), axis=0)  # c_(0) .. c_(3)
        new = 1.0 + np.tensordot(weights, capped, 1) + (1.0 - p) ** 4 * d  # last term: no link ON, stay
        new[oi] = 0.0
        history.append(float(np.max(np.abs(new - d))))
        d = new
        if history[-1] < RESIDUAL_TOL:
            return ValueTable(spec, d, iteration, history[-1], history)
    raise ConvergenceError(history[-1])


def check_mean_delay_ordering(table: ValueTable) -> list[tuple]:
    """Violations of the lexicographic delay ordering of nodes.

    Requires Dbar(a) < Dbar(b) - TIE_TOL whenever |xa|+|ya| < |xb|+|yb|, or the
    sums tie and ||xa|-|ya|| < ||xb|-|yb||.  Nodes with identical signatures
    (symmetric images) are exact ties and are not compared.
    """
    entries = []
    for node in table.spec.nodes():
        sig = (abs(node.x) + abs(node.y), abs(abs(node.x) - abs(node.y)))
        entries.append((sig, node, table.d_bar_at(node)))
    violations = []
    for (sig_a, node_a, da), (sig_b, node_b, db) in itertools.combinations(sorted(entries), 2):
        if sig_a == sig_b:
            continue
        if not db - da > TIE_TOL:
            violations.append((node_a, node_b, da, db))
    return violations


def greedy_action_violations(table: ValueTable) -> list[tuple]:
    """Quads where the deterministic greedy action misses the Bellman minimum.

    Checked over the canonical region y >= x >= 0 (all other nodes are
    symmetric images).  Greedy: with both toward-links ON move along the
    dimension with more remaining distance (either one at x == y); with one
    ON take it; with none stay.  A violation is recorded when the greedy
    action's one-step value exceeds the minimum by more than TIE_TOL.
    """
    spec = table.spec
    m, n = spec.m_planes, spec.n_per_plane
    d_bar = table.d_bar.tolist()  # d_bar[xi][yi], indexed as the sweep's array
    violations = []
    for node in spec.nodes():
        x, y = node
        if not (y >= x >= 0) or node == grid.ORIGIN:
            continue
        xi, yi = x - spec.x_lo(), y - spec.y_lo()
        stay = d_bar[xi][yi]
        # (L, D, R, U) neighbour values, wrapping as the sweep's np.roll does
        nbrs = (d_bar[(xi - 1) % m][yi], d_bar[xi][(yi - 1) % n],
                d_bar[(xi + 1) % m][yi], d_bar[xi][(yi + 1) % n])
        for quad in QUADS:
            candidates = [stay] + [nbrs[d] for d in range(4) if quad[d]]
            best = min(candidates)
            greedy = _greedy_values(x, y, quad, stay, nbrs)
            worst_greedy = max(greedy)
            if worst_greedy - best > TIE_TOL:
                violations.append((node, quad, worst_greedy, best))
    return violations


def _greedy_values(x, y, quad, stay, nbrs) -> list[float]:
    """One-step values of the action(s) the deterministic greedy rule may take."""
    toward_x = LEFT if x > 0 else None
    toward_y = DOWN if y > 0 else None
    x_on = toward_x is not None and quad[toward_x]
    y_on = toward_y is not None and quad[toward_y]
    if x_on and y_on:
        if y > x:
            return [nbrs[toward_y]]
        if x > y:
            return [nbrs[toward_x]]
        return [nbrs[toward_x], nbrs[toward_y]]  # fair coin: both must attain
    if y_on:
        return [nbrs[toward_y]]
    if x_on:
        return [nbrs[toward_x]]
    return [stay]


def verify_connected_path_ordering(params: LinkParams, t_c: int, max_len: int) -> list[tuple]:
    """Violations of: a longer snapshot-connected path never survives better.

    The survival of a length-L connected path is scpr_path_success_prob,
    prod_{i<L} p11(t_c + i), so each extra hop multiplies by p11(t_c + L),
    which is < 1 except for the hop traversed at the snapshot instant itself
    (t_c = 0, first hop): survival must strictly decrease across every
    fallible hop and can at most tie across that one certain hop.
    """
    violations = []
    prob = 1.0
    for length in range(1, max_len + 1):
        nxt = scpr_path_success_prob(params, length, t_c)
        strict_required = t_c + length > 1  # the hop is traversed after the snapshot instant
        if nxt > prob or (strict_required and not nxt < prob):
            violations.append((length, prob, nxt))
        prob = nxt
    return violations


def find_best_intermediate(p: float, x: int, y: int) -> NodeCoord | None:
    """Best relay node (u, v) that strictly improves two-leg greedy throughput.

    Baseline: direct greedy routing with the fair-coin tie-break.
    Candidates: every 0 <= u <= x, 0 <= v <= y except the endpoints, with
    each leg steered along its own diagonal (that steering is where the
    improvement comes from).  Maximizes T(x-u, y-v) * T(u, v) against direct
    T(x, y).  None when nothing strictly improves.
    """
    if x < 0 or y < 0:
        raise ValueError("need x, y >= 0")
    best_node = None
    best_value = gr_throughput(p, x, y, 0.5)  # the fair coin; an axis source has no tie-break to make
    for u in range(x + 1):
        for v in range(y + 1):
            if (u, v) in ((0, 0), (x, y)):
                continue
            combined = (gr_throughput(p, x - u, y - v, (y - v) / (x + y - u - v))
                        * gr_throughput(p, u, v, v / (u + v)))
            if combined > best_value:
                best_value = combined
                best_node = NodeCoord(u, v)
    return best_node
