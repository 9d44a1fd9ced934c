import math
import random
import tracemalloc

import pytest

from oracles import KernelNetworkState, SlotwiseNetworkState, oracle_gr_trial, oracle_scpr_trial, trial_rng
from satroute import analytic_greedy as greedy
from satroute import analytic_scpr as scpr
from satroute import grid_topology as grid
from satroute import link_dynamics as ld
from satroute import simulator as sim
from satroute.grid_topology import GridSpec, NodeCoord

# chi-square 0.999 quantiles by degrees of freedom
CHI2_999 = {1: 10.83, 2: 13.82, 3: 16.27, 4: 18.47, 5: 20.52, 6: 22.46, 7: 24.32}

NEAR_ONE = ld.from_p_mu(1 - 1e-9, 0.5)


def link_id(spec, node, direction):
    return grid.node_index(spec, node) * 4 + direction


def record_fallbacks(monkeypatch):
    """A list that gains one entry per random_shortest_path fallback."""
    fallback = grid.random_shortest_path
    calls = []
    monkeypatch.setattr(grid, "random_shortest_path", lambda *a: calls.append(a) or fallback(*a))
    return calls


def test_network_state_rejects_backward_queries():
    spec = GridSpec(5, 5)
    params = ld.from_p_mu(0.5, 0.5)
    for state_cls in (sim.NetworkState, SlotwiseNetworkState, KernelNetworkState):
        state = state_cls(spec, params, random.Random(0), sim._one_step_kernel(params))
        state.link_on_id(link_id(spec, NodeCoord(1, 1), 0), 5)
        with pytest.raises(ValueError):
            state.link_on_id(link_id(spec, NodeCoord(1, 1), 0), 3)


def test_network_state_same_slot_is_stable():
    spec = GridSpec(5, 5)
    params = ld.from_p_mu(0.5, 0.9)
    state = sim.NetworkState(spec, params, random.Random(1), sim._one_step_kernel(params))
    first = state.link_on_id(link_id(spec, NodeCoord(0, 0), 2), 4)
    for _ in range(5):
        assert state.link_on_id(link_id(spec, NodeCoord(0, 0), 2), 4) == first


def test_network_state_near_static_links_persist():
    params = ld.from_p_mu(0.5, 0.99999)
    spec = GridSpec(5, 5)
    state = sim.NetworkState(spec, params, random.Random(2), sim._one_step_kernel(params))
    first = state.link_on_id(link_id(spec, NodeCoord(2, 2), 1), 0)
    assert state.link_on_id(link_id(spec, NodeCoord(2, 2), 1), 3) == first  # flip odds ~1.5e-5


def test_scpr_trial_certain_links():
    spec = GridSpec(30, 30)
    run = sim.ScprRun(spec, NEAR_ONE, NodeCoord(4, 3))
    for i in range(25):
        rng = trial_rng(5, i)
        out = sim.run_scpr_trial(spec, NEAR_ONE, run, 2, False, rng)
        assert out.success and out.delay == 7 and out.path_len == 7
        rng2 = trial_rng(6, i)
        out2 = sim.run_scpr_trial(spec, NEAR_ONE, run, 2, True, rng2)
        assert out2.success and out2.delay == 7


def test_scpr_buffered_always_succeeds():
    spec = GridSpec(12, 12)
    params = ld.from_p_mu(0.5, 0.6)
    run = sim.ScprRun(spec, params, NodeCoord(3, 2))
    for i in range(300):
        rng = trial_rng(7, i)
        out = sim.run_scpr_trial(spec, params, run, 4, True, rng)
        assert out.success and out.delay >= out.path_len >= 5


def test_scpr_bufferless_success_rate_conditioned_on_connected_geodesic():
    """Given a snapshot-connected geodesic, survival is the per-hop product."""
    spec = GridSpec(15, 15)
    params = ld.from_p_mu(0.8, 0.5)
    t_c, x, y = 2, 2, 2
    target = scpr.scpr_path_success_prob(params, x + y, t_c)
    hits = total = 0
    run = sim.ScprRun(spec, params, NodeCoord(x, y))
    for i in range(20000):
        rng = trial_rng(8, i)
        out = sim.run_scpr_trial(spec, params, run, t_c, False, rng)
        if out.path_len == x + y:
            # geodesic-length paths found by the BFS are connected at t=0
            total += 1
            hits += out.success
    sigma = math.sqrt(target * (1 - target) / total)
    assert abs(hits / total - target) < 3.5 * sigma


def test_gr_trial_certain_links():
    spec = GridSpec(30, 30)
    run = sim.GrRun(spec, NEAR_ONE, NodeCoord(5, 2))
    for i in range(25):
        rng = trial_rng(9, i)
        out = sim.run_gr_trial(spec, NEAR_ONE, run, False, 0.5, rng)
        assert out.success and out.delay == 7 and out.path_len == 7
        assert out.hit_boundary_at is not None and 2 <= out.hit_boundary_at <= 6


def test_gr_bufferless_success_takes_exactly_distance_moves():
    spec = GridSpec(20, 20)
    params = ld.from_p_mu(0.7, 0.3)
    run = sim.GrRun(spec, params, NodeCoord(3, 4))
    succ = 0
    for i in range(2000):
        rng = trial_rng(10, i)
        out = sim.run_gr_trial(spec, params, run, False, 0.4, rng)
        if out.success:
            succ += 1
            assert out.path_len == 7 and out.delay == 7
        else:
            assert out.delay is None and out.path_len < 7
    assert succ > 0


def test_gr_buffered_always_succeeds_and_is_slower():
    spec = GridSpec(20, 20)
    params = ld.from_p_mu(0.5, 0.4)
    run = sim.GrRun(spec, params, NodeCoord(2, 3))
    for i in range(300):
        rng = trial_rng(11, i)
        out = sim.run_gr_trial(spec, params, run, True, 0.5, rng)
        assert out.success and out.path_len == 5 and out.delay >= 5


def test_gr_deterministic_tie_break_runs():
    spec = GridSpec(20, 20)
    params = ld.from_p_mu(0.6, 0.0)
    run = sim.GrRun(spec, params, NodeCoord(4, 4))
    for i in range(200):
        rng = trial_rng(12, i)
        out = sim.run_gr_trial(spec, params, run, True, sim.DETERMINISTIC, rng)
        assert out.success and out.path_len == 8


def test_gr_negative_quadrant_sources():
    spec = GridSpec(20, 20)
    for src in (NodeCoord(-5, 2), NodeCoord(5, -2), NodeCoord(-3, -3), NodeCoord(0, -4)):
        rng = trial_rng(13, hash(src) & 0xFFFF)
        out = sim.run_gr_trial(spec, NEAR_ONE, sim.GrRun(spec, NEAR_ONE, src), False, 0.5, rng)
        assert out.success and out.delay == abs(src.x) + abs(src.y)


def test_gr_boundary_hit_distribution_bufferless_tilted():
    """Conditioned on surviving the interior, the boundary-hit pmf is the
    walk pmf tilted by the per-move interior survival probability."""
    p, u, x, y = 0.7, 0.5, 3, 3
    params = ld.from_p_mu(p, 0.0)
    spec = GridSpec(30, 30)
    w_cond = (u * p * p + p * (1 - p)) / (2 * p - p * p)
    base = greedy.min_tau_pmf(x, y, w_cond)
    survive = 2 * p - p * p
    tilted = {k: v * survive**k for k, v in base.items()}
    norm = sum(tilted.values())
    tilted = {k: v / norm for k, v in tilted.items()}
    counts = dict.fromkeys(base, 0)
    reached = 0
    run = sim.GrRun(spec, params, NodeCoord(x, y))
    for i in range(30000):
        rng = trial_rng(14, i)
        out = sim.run_gr_trial(spec, params, run, False, u, rng)
        if out.hit_boundary_at is not None:
            reached += 1
            counts[out.hit_boundary_at] += 1
    chi2 = sum((counts[k] - reached * tilted[k]) ** 2 / (reached * tilted[k]) for k in base)
    assert chi2 < CHI2_999[len(base) - 1]


def test_gr_boundary_hit_distribution_buffered():
    """Buffered walks always move, so the hit pmf is the untilted walk pmf
    at the tie-break-induced vertical bias."""
    p, mu, u, x, y = 0.7, 0.5, 0.3, 2, 4
    params = ld.from_p_mu(p, mu)
    spec = GridSpec(30, 30)
    pmf = greedy.min_tau_pmf(x, y, greedy.w_from_u(params, u))
    counts = dict.fromkeys(pmf, 0)
    n = 30000
    run = sim.GrRun(spec, params, NodeCoord(x, y))
    for i in range(n):
        rng = trial_rng(15, i)
        out = sim.run_gr_trial(spec, params, run, True, u, rng)
        counts[out.hit_boundary_at] += 1
    chi2 = sum((counts[k] - n * pmf[k]) ** 2 / (n * pmf[k]) for k in pmf)
    assert chi2 < CHI2_999[len(pmf) - 1]


def test_gr_buffered_direction_frequency_matches_induced_bias():
    """One buffered interior move, simulated from raw link draws, goes
    vertical with exactly the tie-break-induced probability."""
    for p, mu, u in ((0.6, 0.0, 1.0), (0.7, 0.5, 0.3)):
        params = ld.from_p_mu(p, mu)
        w = greedy.w_from_u(params, u)
        rng = random.Random(1234)
        n = 10**5
        vertical = 0
        for _ in range(n):
            lv, lh = rng.random() < p, rng.random() < p
            while not (lv or lh):
                lv, lh = rng.random() < params.epsilon2, rng.random() < params.epsilon2
            if lv and lh:
                vertical += rng.random() < u
            else:
                vertical += lv
        sigma = math.sqrt(w * (1 - w) / n)
        assert abs(vertical / n - w) < 3 * sigma


def test_gr_axis_source_finishes_at_mu_max():
    """A boundary wait at MU_MAX lasts about 1e9 slots, so only the jump after
    WAIT_SLOTWISE slots lets the run finish; its mean is the exact
    (x+y)(1 + (1-p)/e2)."""
    params = ld.from_p_mu(0.9, ld.MU_MAX)
    est = sim.estimate(GridSpec(20, 20), params, "gr", src=NodeCoord(0, 3), buffered=True,
                       tie=0.5, trials=300, master_seed=61)
    target = greedy.gr_delay_exact_component(params, 0, 3, greedy.w_from_u(params, 0.5))
    assert est.mean > 10 * sim.WAIT_SLOTWISE
    assert abs(est.mean - target) < 3 * est.stderr


def test_gr_interior_source_near_static_matches_eq23():
    params = ld.from_p_mu(0.8, 1 - 1e-6)
    tie = 0.5
    est = sim.estimate(GridSpec(20, 20), params, "gr", src=NodeCoord(2, 2), buffered=True,
                       tie=tie, trials=300, master_seed=62)
    target = greedy.gr_delay_exact_component(params, 2, 2, greedy.w_from_u(params, tie))
    assert abs(est.mean - target) < 3 * est.stderr


def test_scpr_buffered_low_p_finishes_at_mu_max(monkeypatch):
    """Fallback routes cross links that are OFF at t = 0 and stay OFF for
    about 1e9 slots at MU_MAX."""
    fallbacks = record_fallbacks(monkeypatch)
    params = ld.from_p_mu(0.3, ld.MU_MAX)
    est = sim.estimate(GridSpec(8, 8), params, "scpr", src=NodeCoord(2, 2), buffered=True, t_c=3,
                       trials=50, master_seed=63)
    assert fallbacks and est.mean > sim.WAIT_SLOTWISE


def test_wait_jump_keeps_the_law(monkeypatch):
    """With no slot-by-slot prefix, every wait is one jump.  GR's
    boundary-hit pmf still follows the tie-break-induced bias (the arrival
    states of a pair) and its mean delay eq23 (the Geometric waits), and
    SCPR's mean delay matches the slot-by-slot oracle."""
    monkeypatch.setattr(sim, "WAIT_SLOTWISE", 0)
    p, mu, u, x, y = 0.3, 0.5, 1.0, 2, 3
    params = ld.from_p_mu(p, mu)
    spec = GridSpec(20, 20)
    w = greedy.w_from_u(params, u)
    pmf = greedy.min_tau_pmf(x, y, w)
    counts = dict.fromkeys(pmf, 0)
    n = 20000
    total = total_sq = 0
    run = sim.GrRun(spec, params, NodeCoord(x, y))
    for i in range(n):
        rng = trial_rng(64, i)
        out = sim.run_gr_trial(spec, params, run, True, u, rng)
        counts[out.hit_boundary_at] += 1
        total += out.delay
        total_sq += out.delay**2
    chi2 = sum((counts[k] - n * pmf[k]) ** 2 / (n * pmf[k]) for k in pmf)
    assert chi2 < CHI2_999[len(pmf) - 1]
    mean = total / n
    stderr = math.sqrt((total_sq - total * mean) / (n - 1) / n)
    assert abs(mean - greedy.gr_delay_exact_component(params, x, y, w)) < 3 * stderr

    spec = GridSpec(12, 12)
    params = ld.from_p_mu(0.6, 0.5)
    step_on = sim._one_step_kernel(params)
    run = sim.ScprRun(spec, params, NodeCoord(2, 2))
    means = []
    for seed, trial in ((65, sim.run_scpr_trial), (66, None)):
        delays = []
        for i in range(10000):
            rng = trial_rng(seed, i)
            if trial is None:
                out = oracle_scpr_trial(sim.NetworkState(spec, params, rng, step_on), NodeCoord(2, 2), 3, True, rng)
            else:
                out = trial(spec, params, run, 3, True, rng)
            delays.append(out.delay)
        m = sum(delays) / len(delays)
        means.append((m, sum((d - m) ** 2 for d in delays) / (len(delays) - 1) / len(delays)))
    (m1, v1), (m2, v2) = means
    assert abs(m1 - m2) < 3 * math.sqrt(v1 + v2)


def test_stylized_single_link_at_snapshot_is_certain():
    params = ld.from_p_mu(0.6, 0.9)
    est = sim.run_stylized_scpr_path(params, 1, 0, False, 2000, seed=17)
    assert est.mean == 1.0


def test_stylized_bufferless_matches_product():
    params = ld.from_p_mu(0.9, 0.9)
    est = sim.run_stylized_scpr_path(params, 8, 3, False, 10**5, seed=18)
    target = scpr.scpr_path_success_prob(params, 8, 3)
    assert abs(est.mean - target) <= 3 * est.stderr


def test_stylized_buffered_matches_recursion():
    params = ld.from_p_mu(0.9, 0.9)
    est = sim.run_stylized_scpr_path(params, 10, 5, True, 10**5, seed=19)
    target = scpr.scpr_delay_recursion(params, 10, 5)
    assert abs(est.mean - target) <= 3 * est.stderr


def test_stylized_buffered_memoryless_closed_form():
    params = ld.from_p_mu(0.9, 0.0)
    for tc in (0, 5):
        est = sim.run_stylized_scpr_path(params, 10, tc, True, 10**5, seed=20 + tc)
        target = scpr.scpr_delay_recursion(params, 10, tc)
        assert abs(est.mean - target) <= 3 * est.stderr


def test_stylized_rejects_zero_trials():
    with pytest.raises(ValueError):
        sim.run_stylized_scpr_path(ld.from_p_mu(0.5, 0.5), 3, 0, True, 0, seed=1)


def test_lazy_jump_equivalent_to_slotwise_stepping():
    """Outcome frequencies agree between the production trial's one-draw
    k-step jumps and slot-by-slot evolution of every observed link."""
    spec = GridSpec(5, 5)
    params = ld.from_p_mu(0.6, 0.5)
    step_on = sim._one_step_kernel(params)
    n = 10**5
    run = sim.ScprRun(spec, params, NodeCoord(1, 2))
    rates = []
    for seed in (21, 22):
        hits = 0
        for i in range(n):
            rng = trial_rng(seed, i)
            if seed == 21:
                out = sim.run_scpr_trial(spec, params, run, 3, False, rng)
            else:
                state = SlotwiseNetworkState(spec, params, rng, step_on)
                out = oracle_scpr_trial(state, NodeCoord(1, 2), 3, False, rng)
            hits += out.success
        rates.append(hits / n)
    pooled = sum(rates) / 2
    sigma = math.sqrt(2 * pooled * (1 - pooled) / n)
    assert abs(rates[0] - rates[1]) < 3 * sigma


@pytest.mark.parametrize("shape", [(5, 4), (7, 6), (20, 20)])
def test_scpr_trial_matches_network_state_oracle_stream(shape, monkeypatch):
    """Trial by trial, the production SCPR trial gives the oracle's outcome
    and leaves its random stream in the same state: the same draws in the
    same order, fallbacks and waits included.  Sources are drawn over the
    whole torus, so even sides give wrap ties."""
    spec = GridSpec(*shape)
    nodes = list(spec.nodes())
    pick = random.Random(shape[0] * 100 + shape[1])
    fallbacks = record_fallbacks(monkeypatch)
    waits = 0
    for p in (0.3, 0.6, 0.9):
        params = ld.from_p_mu(p, 0.7)
        step_on = sim._one_step_kernel(params)
        for t_c in (0, 3):
            for buffered in (False, True):
                for i in range(40):
                    src = pick.choice(nodes)
                    rng = trial_rng(31, i)
                    ref_rng = trial_rng(31, i)
                    out = sim.run_scpr_trial(spec, params, sim.ScprRun(spec, params, src), t_c, buffered, rng)
                    state = sim.NetworkState(spec, params, ref_rng, step_on)
                    ref = oracle_scpr_trial(state, src, t_c, buffered, ref_rng)
                    assert out == ref, (p, t_c, buffered, i)
                    assert rng.getstate() == ref_rng.getstate(), (p, t_c, buffered, i)
                    waits += buffered and out.delay > out.path_len
    assert fallbacks and waits


@pytest.mark.parametrize("shape", [(5, 4), (7, 6), (20, 20), (100, 100)])
def test_scpr_run_serves_consecutive_trials(shape, monkeypatch):
    """One ScprRun serves trial after trial, as in estimate(): each gives the
    oracle's outcome and leaves the random stream in the oracle's state, and
    the search buffer is all -1 again after every found route, fallback and
    zero-hop trial from the origin.  The memo holds transition_prob's floats,
    and only at slots a route reaches without waiting."""
    spec = GridSpec(*shape)
    nodes = [n for n in spec.nodes() if n != grid.ORIGIN and max(abs(n.x), abs(n.y)) <= 6]
    pick = random.Random(shape[0] * 100 + shape[1] + 1)
    fallbacks = record_fallbacks(monkeypatch)
    unvisited = [-1] * spec.n_nodes
    found = 0
    for p in (0.3, 0.6, 0.9):
        params = ld.from_p_mu(p, 0.7)
        step_on = sim._one_step_kernel(params)
        for src in (grid.ORIGIN, *pick.sample(nodes, 3)):
            run = sim.ScprRun(spec, params, src)
            i = longest = 0
            for t_c in (0, 3):
                for buffered in (False, True):
                    for _ in range(45):
                        rng = trial_rng(33, i)
                        ref_rng = trial_rng(33, i)
                        before = len(fallbacks)
                        out = sim.run_scpr_trial(spec, params, run, t_c, buffered, rng)
                        ref = oracle_scpr_trial(sim.NetworkState(spec, params, ref_rng, step_on), src, t_c, buffered,
                                                ref_rng)
                        assert out == ref, (p, src, t_c, buffered, i)
                        assert rng.getstate() == ref_rng.getstate(), (p, src, t_c, buffered, i)
                        assert run.parent == unvisited, (p, src, t_c, buffered, i)
                        found += out.path_len > 0 and len(fallbacks) == before
                        longest = max(longest, out.path_len)
                        i += 1
            assert run.on_prob == {t: ld.transition_prob(params, True, t) for t in run.on_prob}
            assert all(t < 3 + longest for t in run.on_prob)
    assert fallbacks and found


@pytest.mark.parametrize("k", [0, 1, 2, 50])
def test_link_on_id_matches_kernel_oracle(k):
    """From ON and from OFF, a re-observation k slots later makes the draw
    the kernel oracle makes, and none at k = 0.  A GR trial re-observes only
    OFF links and only one slot later, so this is the check on the ON entry
    of the one-step kernel and on k >= 2."""
    spec = GridSpec(5, 5)
    params = ld.from_p_mu(0.6, 0.7)
    step_on = sim._one_step_kernel(params)
    lid = link_id(spec, NodeCoord(1, 1), grid.LEFT)
    seen = set()
    for seed in range(200):
        state, ref = (cls(spec, params, random.Random(seed), step_on) for cls in (sim.NetworkState, KernelNetworkState))
        first = state.link_on_id(lid, 3)
        assert ref.link_on_id(lid, 3) == first
        before = state.rng.getstate()
        on = state.link_on_id(lid, 3 + k)
        assert ref.link_on_id(lid, 3 + k) == on, (seed, first)
        assert state.rng.getstate() == ref.rng.getstate()
        if k == 0:
            assert on == first and state.rng.getstate() == before
        seen.add((first, on))
    assert len(seen) == (2 if k == 0 else 4)


@pytest.mark.parametrize("shape", [(5, 4), (7, 6), (100, 100)])
def test_gr_trial_matches_kernel_oracle_stream(shape, monkeypatch):
    """Trial by trial, the production GR trial gives the outcome of
    ``oracle_gr_trial`` on a NetworkState and on one whose links call
    ``transition_prob`` at every re-observation, and leaves its random stream
    in the same state, after looking at the same link ids at the same slots.
    One GrRun per source serves both regimes and every tie mode.  Sources lie
    in every quadrant and on the axes (within 6 hops on the large grid); the
    near-static chain makes waits outlast WAIT_SLOTWISE and jump, on one link
    and on a pair, in the production trial and in the oracle on either
    state."""
    spec = GridSpec(*shape)
    nodes = [n for n in spec.nodes() if n != grid.ORIGIN and max(abs(n.x), abs(n.y)) <= 6]
    pick = random.Random(shape[0] * 100 + shape[1])
    jumps = set()
    side = None
    jump_wait = sim._jump_wait

    def record_jump(state, x_lid, y_lid, t, random):
        jumps.add((side, x_lid is not None and y_lid is not None))
        return jump_wait(state, x_lid, y_lid, t, random)

    monkeypatch.setattr(sim, "_jump_wait", record_jump)
    looks = []

    def record_looks(link_on_id):
        def recorded(state, lid, t):
            looks.append((lid, t))
            return link_on_id(state, lid, t)
        return recorded

    for state_cls in (sim.NetworkState, KernelNetworkState):
        monkeypatch.setattr(state_cls, "link_on_id", record_looks(state_cls.link_on_id))
    chains = [(p, mu, 12) for p in (0.3, 0.6, 0.9) for mu in (0.0, 0.7, 0.99)] + [(0.3, 1 - 1e-7, 2)]
    waits = 0
    for p, mu, trials in chains:
        params = ld.from_p_mu(p, mu)
        for buffered in (False, True):
            for i in range(trials):
                src = pick.choice(nodes)
                run = sim.GrRun(spec, params, src)
                shape_u = abs(src.y) / (abs(src.x) + abs(src.y))
                for tie in (0.5, shape_u, sim.DETERMINISTIC):
                    rng = trial_rng(32, i)
                    side = "production"
                    looks.clear()
                    out = sim.run_gr_trial(spec, params, run, buffered, tie, rng)
                    out_looks = looks[:]
                    for side in (sim.NetworkState, KernelNetworkState):
                        ref_rng = trial_rng(32, i)
                        looks.clear()
                        state = side(spec, params, ref_rng, sim._one_step_kernel(params))
                        ref = oracle_gr_trial(state, src, buffered, tie, ref_rng)
                        assert out == ref, (side, p, mu, buffered, src, tie)
                        assert rng.getstate() == ref_rng.getstate(), (side, p, mu, buffered, src, tie)
                        assert looks == out_looks, (side, p, mu, buffered, src, tie)
                    waits += buffered and out.delay > out.path_len
    assert waits
    assert jumps == {(side, pair) for side in ("production", sim.NetworkState, KernelNetworkState)
                     for pair in (False, True)}


@pytest.mark.parametrize("policy", ["scpr", "gr"])
def test_estimate_equals_a_loop_over_trial_rng(policy):
    """estimate() runs trial i of the public trial functions on trial_rng(master_seed, i),
    all of a run's trials sharing one ScprRun or GrRun."""
    spec = GridSpec(12, 12)
    params = ld.from_p_mu(0.7, 0.9)
    src, t_c, tie, trials, seed = NodeCoord(3, -2), 2, 0.3, 300, 77
    for buffered in (False, True):
        run = (sim.ScprRun if policy == "scpr" else sim.GrRun)(spec, params, src)
        total = total_sq = 0
        for i in range(trials):
            rng = trial_rng(seed, i)
            if policy == "scpr":
                out = sim.run_scpr_trial(spec, params, run, t_c, buffered, rng)
            else:
                out = sim.run_gr_trial(spec, params, run, buffered, tie, rng)
            v = out.delay if buffered else int(out.success)
            total += v
            total_sq += v * v
        est = sim.estimate(spec, params, policy, src=src, buffered=buffered, t_c=t_c,
                           tie=tie if policy == "gr" else None, trials=trials, master_seed=seed)
        assert est == sim._estimate_from_sums(total, total_sq, trials, seed)


def test_gr_estimate_computes_the_kernel_once_per_run(monkeypatch):
    """A GR estimate's transition_prob calls do not grow with its trials: its
    GrRun computes the one-step kernel, and every trial's NetworkState reads it."""
    calls = []
    kernel = sim.transition_prob
    monkeypatch.setattr(sim, "transition_prob", lambda *a: calls.append(a) or kernel(*a))
    counts = []
    for trials in (10, 300):
        calls.clear()
        sim.estimate(GridSpec(20, 20), ld.from_p_mu(0.5, 0.7), "gr", src=NodeCoord(3, -4), buffered=True,
                     tie=0.5, trials=trials, master_seed=5)
        counts.append(len(calls))
    assert counts == [2, 2]


def test_estimate_deterministic_across_thread_counts():
    spec = GridSpec(20, 20)
    params = ld.from_p_mu(0.8, 0.7)
    kwargs = dict(src=NodeCoord(3, 3), buffered=False, t_c=2, trials=2000, master_seed=99)
    single = sim.estimate(spec, params, "scpr", threads=1, **kwargs)
    multi = sim.estimate(spec, params, "scpr", threads=8, **kwargs)
    assert single == multi
    g1 = sim.estimate(spec, params, "gr", tie=0.5, threads=1,
                      src=NodeCoord(3, 3), buffered=True, trials=1000, master_seed=7)
    g2 = sim.estimate(spec, params, "gr", tie=0.5, threads=5,
                      src=NodeCoord(3, 3), buffered=True, trials=1000, master_seed=7)
    assert g1 == g2


@pytest.mark.parametrize("tie", [-0.1, 1.5, math.nan, "auto"])
def test_gr_estimate_rejects_a_tie_outside_its_domain(tie):
    with pytest.raises(ValueError, match="tie="):
        sim.estimate(GridSpec(12, 12), ld.from_p_mu(0.7, 0.9), "gr", src=NodeCoord(2, 3),
                     buffered=False, tie=tie, trials=1, master_seed=0)


@pytest.mark.parametrize("tie", [0.0, 1.0, sim.DETERMINISTIC])
def test_gr_estimate_accepts_a_tie_in_its_domain(tie):
    est = sim.estimate(GridSpec(12, 12), ld.from_p_mu(0.7, 0.9), "gr", src=NodeCoord(2, 3),
                       buffered=False, tie=tie, trials=20, master_seed=5)
    assert est.trials == 20 and 0.0 <= est.mean <= 1.0


def test_scpr_estimate_ignores_tie():
    ests = {sim.estimate(GridSpec(12, 12), ld.from_p_mu(0.7, 0.9), "scpr", src=NodeCoord(2, 3),
                         buffered=True, tie=tie, trials=20, master_seed=5)
            for tie in (None, 0.3, -0.1, 1.5, math.nan, "auto", sim.DETERMINISTIC)}
    assert len(ests) == 1


HIGH_P = ld.from_p_mu(0.9, 0.99)

# (policy, grid, params, estimate kwargs, mean, stderr): exact values of the
# per-trial random streams, so any change to the order of draws shows here.
# The low-p SCPR case takes the random_shortest_path fallback in 27 of its
# 300 trials.  The two scpr_*_default_grid cases are the benchmark's point on
# the default 100x100 grid.  The GR wait jumps: from the axis source at MU_MAX
# 21 single-link waits jump; from the interior source near static links 9 pair
# waits and 29 single-link waits do.  gr_far_heaviest_row is the benchmark
# gr_far workload's x = y = 20 row.
GOLDEN = {
    "scpr_bufferless": ("scpr", GridSpec(30, 30), HIGH_P,
                        dict(src=NodeCoord(4, 3), buffered=False, t_c=5, trials=400, master_seed=101),
                        0.9625, 0.009511073878158527),
    "scpr_buffered": ("scpr", GridSpec(30, 30), HIGH_P,
                      dict(src=NodeCoord(4, 3), buffered=True, t_c=5, trials=400, master_seed=102),
                      13.9275, 1.94064961073712),
    "scpr_buffered_low_p_fallback": ("scpr", GridSpec(20, 20), ld.from_p_mu(0.6, 0.9),
                                     dict(src=NodeCoord(5, 4), buffered=True, t_c=3, trials=300,
                                          master_seed=103),
                                     79.62, 3.389745635560515),
    "scpr_bufferless_default_grid": ("scpr", GridSpec(100, 100), HIGH_P,
                                     dict(src=NodeCoord(5, 5), buffered=False, t_c=5, trials=250,
                                          master_seed=107),
                                     0.904, 0.018668961419477187),
    "scpr_buffered_default_grid": ("scpr", GridSpec(100, 100), HIGH_P,
                                   dict(src=NodeCoord(5, 5), buffered=True, t_c=5, trials=250,
                                        master_seed=108),
                                   25.348, 4.193429023113131),
    "gr_bufferless_u0.5": ("gr", GridSpec(30, 30), HIGH_P,
                           dict(src=NodeCoord(6, 4), buffered=False, tie=0.5,
                                trials=400, master_seed=104),
                           0.67, 0.02354007940398385),
    "gr_buffered_u_auto": ("gr", GridSpec(30, 30), HIGH_P,
                           dict(src=NodeCoord(6, 4), buffered=True, tie=4 / 10,
                                trials=400, master_seed=105),
                           44.6925, 4.304375853488545),
    "gr_buffered_deterministic": ("gr", GridSpec(30, 30), HIGH_P,
                                  dict(src=NodeCoord(-5, 7), buffered=True, tie=sim.DETERMINISTIC,
                                       trials=400, master_seed=106),
                                  31.1, 3.003548444447894),
    "gr_buffered_axis_single_jumps": ("gr", GridSpec(20, 20), ld.from_p_mu(0.9, ld.MU_MAX),
                                      dict(src=NodeCoord(0, 3), buffered=True, tie=0.5,
                                           trials=60, master_seed=109),
                                      407226932.51666665, 106515235.76222718),
    "gr_buffered_interior_pair_jumps": ("gr", GridSpec(20, 20), ld.from_p_mu(0.3, 1 - 1e-7),
                                        dict(src=NodeCoord(1, 1), buffered=True, tie=0.5,
                                             trials=40, master_seed=110),
                                        26135730.65, 3785569.7402412277),
    "gr_far_heaviest_row": ("gr", GridSpec(100, 100), HIGH_P,
                            dict(src=NodeCoord(20, 20), buffered=True, tie=0.5,
                                 trials=400, master_seed=111),
                            111.2625, 5.582101632087361),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_estimate_golden_random_stream(case):
    policy, spec, params, kwargs, mean, stderr = GOLDEN[case]
    est = sim.estimate(spec, params, policy, **kwargs)
    assert est == sim.Estimate(mean, stderr, kwargs["trials"], kwargs["master_seed"])


def test_scpr_estimate_on_a_large_grid_allocates_for_the_planes_it_reaches():
    """The neighbor rows of a 1000x1000 grid start unbuilt: the run allocates
    two pointer lists per node (16 MB) and the rows its searches reach, not
    the 138 MB of a whole table."""
    spec = GridSpec(1000, 1000)
    grid.neighbor_id_table.cache_clear()
    tracemalloc.start()
    try:
        sim.estimate(spec, ld.from_p_mu(0.9, 0.99), "scpr", src=NodeCoord(5, 5), buffered=False,
                     t_c=5, trials=20, master_seed=2024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        grid.neighbor_id_table.cache_clear()
    assert peak < 40e6


def test_estimate_rejects_bad_arguments():
    spec = GridSpec(5, 5)
    params = ld.from_p_mu(0.5, 0.5)
    with pytest.raises(ValueError):
        sim.estimate(spec, params, "scpr", src=NodeCoord(1, 1), buffered=False,
                     trials=0, master_seed=1)
    with pytest.raises(ValueError):
        sim.estimate(spec, params, "flooding", src=NodeCoord(1, 1), buffered=False,
                     trials=10, master_seed=1)


@pytest.mark.parametrize("policy", ["scpr", "gr"])
@pytest.mark.parametrize("buffered", [False, True])
def test_estimate_rejects_negative_snapshot_age(policy, buffered):
    with pytest.raises(ValueError, match="t_c"):
        sim.estimate(GridSpec(5, 5), ld.from_p_mu(0.9, 0.9), policy, src=NodeCoord(1, 1),
                     buffered=buffered, t_c=-1, trials=10, master_seed=1)


def test_buffered_delay_bound_is_tight_at_high_availability():
    """At p = 0.99 the path-process delay floor sits within 1% of the
    full-network buffered mean (geodesic routes dominate)."""
    params = ld.from_p_mu(0.99, 0.9)
    est = sim.estimate(GridSpec(100, 100), params, "scpr", src=NodeCoord(5, 5),
                       buffered=True, t_c=5, trials=8000, master_seed=55)
    floor = scpr.scpr_delay_recursion(params, 10, 5)
    assert abs(est.mean - floor) <= 0.01 * floor + 3 * est.stderr


def test_estimate_stderr_matches_bernoulli():
    spec = GridSpec(20, 20)
    params = ld.from_p_mu(0.8, 0.0)
    est = sim.estimate(spec, params, "gr", src=NodeCoord(2, 2), buffered=False,
                       tie=0.5, trials=5000, master_seed=3)
    n, m = est.trials, est.mean
    expected = math.sqrt(n / (n - 1) * m * (1 - m) / n)
    assert est.stderr == pytest.approx(expected, rel=1e-9)
