"""Monte Carlo engine: full-network trials and their estimation.

Links are only sampled when a policy actually observes them, and both
policies address links by id (``node index * 4 + direction``).  An SCPR
trial draws its t = 0 snapshot inside the BFS, which keeps only what the
route may still read: the OFF draws, plus the search tree's ON links when no
path exists.  Every hop of a found route was drawn ON.  The trial advances
each link it traverses through the k-step transition kernel in one draw.
An SCPR estimate computes once, in one ScprRun, what its trials share: the
source's and the origin's node ids, a wait's recovery probability, a memo
of the kernel from ON by slot, and the BFS's parent buffer, which every
search leaves all -1, so that a trial allocates no search state.
A GR estimate likewise computes once, in one GrRun, the source's node id,
the link direction and node-id step of each axis, and the one-step kernel: a
GR wait re-observes its links one slot apart, so nearly every re-observation
uses it.  Each GR trial owns a lazily evaluated NetworkState built on the
run's kernel, which serves GR only.  A wait on OFF links is drawn slot by
slot for its first ``WAIT_SLOTWISE`` slots and then jumps in one draw, so
waits near static links finish.
An estimate keeps one generator and reseeds it for each trial with that
trial's seed, in C: the state is that of a new ``random.Random(seed)``.
Delays are integer slot counts, so estimates aggregate as exact integer
sums.  Estimate and TrialOutcome are named tuples: a dataclass would load
inspect, ast, dis and tokenize into every command.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from . import grid_topology as grid
from .grid_topology import DOWN, LEFT, ORIGIN, RIGHT, UP, GridSpec, NodeCoord
from .link_dynamics import LinkParams, transition_prob

DETERMINISTIC = "deterministic"

# Slots of a wait that are drawn one by one before the rest is drawn at once.
WAIT_SLOTWISE = 10_000


# Monte Carlo estimate: sample mean, its standard error, provenance.
Estimate = namedtuple("Estimate", "mean stderr trials seed")

# delay: slots from departure, an int iff success, else None.
# path_len: hops of the chosen/realized path.
# hit_boundary_at: move count at first boundary contact (GR), or None.
TrialOutcome = namedtuple("TrialOutcome", "success delay path_len hit_boundary_at")


class NetworkState:
    """Per-directed-link ON/OFF cache with lazy Markov evolution (GR trials).

    A link observed for the first time at slot t is drawn from the steady
    state (the chain is stationary, so this matches an implicit time-0 draw).
    Re-observation at a later slot advances it through the k-step kernel in
    one draw.  Time must never move backwards for any single link.

    ``step_on[s]`` is the one-step kernel P(ON at t+1 | state s at t), with s
    False (OFF) or True (ON), and a re-observation one slot later reads it
    instead of calling ``transition_prob``.  A GR trial passes its run's
    ``GrRun.step_on``, computed once per run.
    """

    __slots__ = ("spec", "params", "rng", "_cache", "step_on")

    def __init__(self, spec: GridSpec, params: LinkParams, rng, step_on: tuple[float, float]):
        self.spec = spec
        self.params = params
        self.rng = rng
        self._cache: dict[int, tuple[bool, int]] = {}
        self.step_on = step_on

    def link_on_id(self, lid: int, t: int) -> bool:
        cached = self._cache.get(lid)
        if cached is None:
            on = self.rng.random() < self.params.p
        else:
            on, last_t = cached
            k = t - last_t
            if k == 1:
                on = self.rng.random() < self.step_on[on]
            elif k > 1:
                on = self.rng.random() < transition_prob(self.params, on, k)
            elif k < 0:
                raise ValueError(f"link {lid} queried backwards in time ({last_t} -> {t})")
        self._cache[lid] = (on, t)
        return on


def _one_step_kernel(params: LinkParams) -> tuple[float, float]:
    """(P(ON at t+1 | OFF at t), P(ON at t+1 | ON at t))."""
    return transition_prob(params, False, 1), transition_prob(params, True, 1)


class ScprRun:
    """What the SCPR trials of one ``(spec, params, src)`` share, computed once.

    The normalized ``src``, its node index ``src_id`` and the origin's
    ``dst_id``; ``q`` = P(ON at t+1 | OFF at t), which a buffered wait draws
    against; ``on_prob``, a memo of ``transition_prob(params, True, t)`` by
    slot t; and ``parent``, the search buffer of
    ``grid_topology.shortest_connected_hops``, all -1 between trials.  Trials
    of any t_c and regime may share one run, one trial at a time.
    """

    __slots__ = ("src", "src_id", "dst_id", "q", "on_prob", "parent")

    def __init__(self, spec: GridSpec, params: LinkParams, src: NodeCoord):
        self.src = grid.normalize(spec, src)
        self.src_id = grid.node_index(spec, self.src)
        self.dst_id = grid.node_index(spec, ORIGIN)
        self.q = transition_prob(params, False, 1)
        self.on_prob: dict[int, float] = {}
        self.parent = [-1] * spec.n_nodes


def run_scpr_trial(
    spec: GridSpec,
    params: LinkParams,
    run: ScprRun,
    t_c: int,
    buffered: bool,
    rng,
) -> TrialOutcome:
    """One shortest-connected-path trial from ``run.src`` toward the origin.

    The route is fixed from the t = 0 snapshot: BFS over links ON at t = 0,
    falling back to a uniformly random shortest path when no connected path
    exists.  The packet departs at t = t_c and follows the route blindly;
    bufferless it is dropped at the first OFF link, buffered it waits.
    Delay is counted from t_c (the snapshot staleness itself is excluded).

    Every hop of a found route was drawn ON at t = 0.  A fallback route link
    is looked up in the snapshot, which then holds every link the search
    drew.  A link with a t = 0 state is advanced by the t-step kernel; one
    the search never examined is a steady-state draw.  The draws are the ones
    a NetworkState would make for the same observations.  ``run.on_prob``
    keeps the kernel from ON only at slots t < t_c + route length, the ones
    a route reaches without waiting, so that it stays as short as the
    longest route however long the waits.
    """
    random = rng.random
    p = params.p
    snapshot: dict[int, bool] = {}
    hops = grid.shortest_connected_hops(spec, run.src_id, run.dst_id, p, random, snapshot, run.parent)
    found = hops is not None
    if not found:
        hops = grid.random_shortest_path(spec, run.src, rng)
    on_prob = run.on_prob
    t = t_c
    for nid, d in hops:
        on0 = True if found else snapshot.get(nid * 4 + d)
        if on0 is None:
            on = random() < p
        elif t == 0:
            on = on0
        elif on0:
            prob = on_prob.get(t)
            if prob is None:
                prob = transition_prob(params, True, t)
                if t - t_c < len(hops):
                    on_prob[t] = prob
            on = random() < prob
        else:
            on = random() < transition_prob(params, False, t)
        if not on:
            if not buffered:
                return TrialOutcome(False, None, len(hops), None)
            t += _wait_slots(random, run.q)
        t += 1
    return TrialOutcome(True, t - t_c, len(hops), None)


def _wait_slots(random, q: float) -> int:
    """Slots until an OFF link is first seen ON, re-observing it once a slot.

    Geometric(q) on {1, 2, ...}: one ``random() < q`` per slot for the first
    WAIT_SLOTWISE slots, then the memoryless rest by inversion of one draw.
    """
    for k in range(1, WAIT_SLOTWISE + 1):
        if random() < q:
            return k
    return WAIT_SLOTWISE + _geometric(random, math.log1p(-q))


def _geometric(random, log_fail: float) -> int:
    """Trials until the first success, where log_fail = log P(a trial fails)."""
    return 1 + int(math.log(1.0 - random()) / log_fail)


class GrRun:
    """What the GR trials of one ``(spec, params, src)`` share, computed once.

    The node index ``src_id`` of the normalized ``src``; ``hops``, the
    moves left along x and along y, (|x|, |y|); for each axis the direction
    of the link toward the origin (``x_dir``, ``y_dir``) and the change of
    node index per move (``x_step``, ``y_step``); and ``step_on``, the
    one-step kernel of ``_one_step_kernel``.  The walk never crosses the wrap
    seam and never changes the sign of x or y, so a move along y changes the
    node index by one and a move along x by N (``spec.n_per_plane``), each
    in the same direction for the whole trial.  Immutable: trials of any
    regime and tie mode may share one run.
    """

    __slots__ = ("src_id", "hops", "x_dir", "y_dir", "x_step", "y_step", "step_on")

    def __init__(self, spec: GridSpec, params: LinkParams, src: NodeCoord):
        src = grid.normalize(spec, src)
        self.src_id = grid.node_index(spec, src)
        x, y = src
        self.hops = (abs(x), abs(y))
        self.x_dir, self.x_step = (LEFT, -spec.n_per_plane) if x > 0 else (RIGHT, spec.n_per_plane)
        self.y_dir, self.y_step = (DOWN, -1) if y > 0 else (UP, 1)
        self.step_on = _one_step_kernel(params)


def run_gr_trial(
    spec: GridSpec,
    params: LinkParams,
    run: GrRun,
    buffered: bool,
    tie: float | str,
    rng,
) -> TrialOutcome:
    """One greedy-routing trial from the run's source toward the origin.

    At each node only the one or two links that reduce the remaining distance
    are observed, horizontal first.  Both ON: tie-break (vertical with
    probability ``tie``, or the deterministic farther-dimension rule).  One
    ON: forced.  None ON: bufferless drops, buffered waits one slot and
    re-observes (after WAIT_SLOTWISE slots, the rest of the wait is one
    jump).  The move count at first boundary contact is recorded.

    The tie mode is decided once per trial.  The trial's NetworkState shares
    the run's one-step kernel, and every wait slot re-observes its links one
    slot after the last look, so it draws them from that kernel.  The looks
    and draws are those of the same trial on a NetworkState of its own
    (``oracle_gr_trial`` in the tests).
    """
    state = NetworkState(spec, params, rng, run.step_on)
    link_on_id = state.link_on_id
    random = rng.random
    deterministic = tie == DETERMINISTIC
    x_dir, y_dir, x_step, y_step = run.x_dir, run.y_dir, run.x_step, run.y_step
    nx, ny = run.hops
    nid = run.src_id
    t = 0
    moves = 0
    hit_boundary: int | None = 0 if (nx == 0) != (ny == 0) else None
    while nx or ny:
        x_lid = nid * 4 + x_dir if nx else None
        y_lid = nid * 4 + y_dir if ny else None
        x_on = x_lid is not None and link_on_id(x_lid, t)
        y_on = y_lid is not None and link_on_id(y_lid, t)
        if not (x_on or y_on):
            if not buffered:
                return TrialOutcome(False, None, moves, hit_boundary)
            for _ in range(WAIT_SLOTWISE):
                t += 1
                x_on = x_lid is not None and link_on_id(x_lid, t)
                y_on = y_lid is not None and link_on_id(y_lid, t)
                if x_on or y_on:
                    break
            else:
                t, x_on, y_on = _jump_wait(state, x_lid, y_lid, t, random)
        if x_on and y_on:
            if deterministic:
                vertical = ny > nx or (ny == nx and random() < 0.5)
            else:
                vertical = random() < tie
        else:
            vertical = y_on
        if vertical:
            ny -= 1
            nid += y_step
        else:
            nx -= 1
            nid += x_step
        t += 1
        moves += 1
        if hit_boundary is None and (nx == 0) != (ny == 0):
            hit_boundary = moves
    return TrialOutcome(True, t, moves, hit_boundary)


def _jump_wait(state: NetworkState, x_lid, y_lid, t: int, random) -> tuple[int, bool, bool]:
    """Draw the rest of a GR wait at once; the links were last seen OFF at t.

    One link waits Geometric(q) slots, two wait Geometric(1 - (1-q)^2); at
    arrival the pair is (ON, ON) with probability q / (2 - q), else exactly
    one link is ON, each with probability 1/2.  The arrival states are
    cached at the arrival slot.  Returns (arrival slot, x ON, y ON).
    """
    q = state.step_on[False]
    if x_lid is None or y_lid is None:
        t += _geometric(random, math.log1p(-q))
        x_on, y_on = x_lid is not None, y_lid is not None
    else:
        t += _geometric(random, 2.0 * math.log1p(-q))
        v = random()
        both = q / (2.0 - q)
        x_on = v < (1.0 + both) / 2.0  # both ON below ``both``, x alone up to the midpoint of the rest
        y_on = v < both or not x_on
    for lid, on in ((x_lid, x_on), (y_lid, y_on)):
        if lid is not None:
            state._cache[lid] = (on, t)
    return t, x_on, y_on


def _trial_seed(key: int, index: int) -> int:
    """The seed of trial ``index``'s independent, replayable stream under ``key`` = ``mix64(master_seed)``."""
    return mix64(key ^ mix64(index + 0x9E3779B97F4A7C15))


def mix64(v: int) -> int:
    """splitmix64's finalizer: the 64-bit hash behind every trial's and sweep row's seed."""
    v = (v + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return v ^ (v >> 31)


def estimate(
    spec: GridSpec,
    params: LinkParams,
    policy: str,
    *,
    src: NodeCoord,
    buffered: bool,
    t_c: int = 0,
    tie: float | str = 0.5,
    trials: int,
    master_seed: int,
    threads: int = 1,
) -> Estimate:
    """Run independent trials and estimate throughput or mean delay.

    Bufferless runs estimate the delivery probability; buffered runs estimate
    the mean delay (every buffered trial succeeds).  Per-trial RNG streams
    are derived from (master_seed, trial index) and aggregation is exact
    integer summation.  ``tie`` is GR's tie-break: a probability in [0, 1] of
    moving vertically, or ``"deterministic"``; SCPR runs ignore it.  ``threads``
    is accepted for compatibility and has no effect: trials run in one thread,
    and the result never depended on it.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if t_c < 0:
        raise ValueError(f"t_c={t_c}: snapshot age must be >= 0")
    if policy not in ("scpr", "gr"):
        raise ValueError(f"unknown policy {policy!r}")
    if policy == "gr" and tie != DETERMINISTIC and not (isinstance(tie, (int, float)) and 0 <= tie <= 1):
        raise ValueError(f"tie={tie!r}: need a probability in [0, 1] or {DETERMINISTIC!r}")
    key = mix64(master_seed)
    rng = random.Random(0)
    # random.Random(seed) runs the Python-level Random.seed, which for an int
    # only calls this C seed: reseeding in place gives the same state.
    reseed = super(random.Random, rng).seed
    if policy == "scpr":
        trial, run, args = run_scpr_trial, ScprRun(spec, params, src), (t_c, buffered, rng)
    else:
        trial, run, args = run_gr_trial, GrRun(spec, params, src), (buffered, tie, rng)
    total = 0
    total_sq = 0
    for i in range(trials):
        reseed(_trial_seed(key, i))
        out = trial(spec, params, run, *args)
        v = out.delay if buffered else int(out.success)
        total += v
        total_sq += v * v
    return estimate_from_sums(total, total_sq, trials, master_seed)


def estimate_from_sums(total: int, total_sq: int, trials: int, seed: int) -> Estimate:
    """The Estimate of ``trials`` outcomes from their exact integer sum and sum of squares."""
    mean = total / trials
    if trials > 1:
        var = (total_sq - total * total / trials) / (trials - 1)
        stderr = math.sqrt(max(var, 0.0) / trials)
    else:
        stderr = float("inf")
    return Estimate(mean, stderr, trials, seed)
