import itertools

import pytest

from oracles import neighbors, trial_rng
from satroute import analytic_greedy as greedy
from satroute import link_dynamics as ld
from satroute import optimal_policies as op
from satroute import simulator as sim
from satroute.grid_topology import ORIGIN, GridSpec, NodeCoord, hop_distance, normalize


def d_star(table: op.ValueTable, node: NodeCoord, quad: tuple[bool, bool, bool, bool]) -> float:
    """Conditional minimum mean delay given the outgoing-link states."""
    node = normalize(table.spec, node)
    if node == ORIGIN:
        return 0.0
    stay = table.d_bar_at(node)
    nbrs = [table.d_bar_at(nb) for nb in neighbors(table.spec, node)]
    best = stay
    for d in range(4):
        if quad[d] and nbrs[d] < best:
            best = nbrs[d]
    return 1.0 + best


def test_certain_links_give_hop_distance():
    spec = GridSpec(9, 9)
    table = op.value_iterate_delay(spec, 1.0)
    for node in spec.nodes():
        assert table.d_bar_at(node) == pytest.approx(hop_distance(spec, node, ORIGIN), abs=1e-12)


@pytest.mark.parametrize("p", [0.3, 0.9])
def test_axis_nodes_are_forced_geometric_chains(p):
    table = op.value_iterate_delay(GridSpec(9, 9), p)
    for x in range(1, 5):
        assert table.d_bar_at(NodeCoord(x, 0)) == pytest.approx(x / p, abs=1e-9)
        assert table.d_bar_at(NodeCoord(0, x)) == pytest.approx(x / p, abs=1e-9)


def test_symmetry_of_fixed_point():
    spec = GridSpec(11, 11)
    table = op.value_iterate_delay(spec, 0.6)
    for node in spec.nodes():
        mirrored = [NodeCoord(-node.x, node.y), NodeCoord(node.x, -node.y), NodeCoord(node.y, node.x)]
        for other in mirrored:
            assert table.d_bar_at(node) == pytest.approx(table.d_bar_at(other), abs=1e-9)


def test_fixed_point_satisfies_bellman_equation():
    spec = GridSpec(9, 9)
    p = 0.6
    table = op.value_iterate_delay(spec, p)
    quad_weight = {q: p ** sum(q) * (1 - p) ** (4 - sum(q)) for q in op.QUADS}
    for node in spec.nodes():
        if node == ORIGIN:
            assert table.d_bar_at(node) == 0.0
            continue
        expectation = sum(w * d_star(table, node, q) for q, w in quad_weight.items())
        assert expectation == pytest.approx(table.d_bar_at(node), abs=1e-11)


def test_residuals_shrink_monotonically():
    for p in (0.3, 0.9):
        table = op.value_iterate_delay(GridSpec(9, 9), p)
        hist = table.residual_history
        assert len(hist) == table.iterations and hist[-1] == table.residual
        assert all(b <= a * (1 + 1e-12) for a, b in zip(hist, hist[1:]))


def test_nonconvergence_reports_residual(monkeypatch):
    monkeypatch.setattr(op, "MAX_SWEEPS", 3)
    with pytest.raises(op.ConvergenceError) as err:
        op.value_iterate_delay(GridSpec(9, 9), 0.3)
    assert "after 3 sweeps" in str(err.value)
    assert err.value.residual > 0


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
def test_greedy_attains_bellman_argmin(p):
    table = op.value_iterate_delay(GridSpec(9, 9), p)
    assert op.greedy_action_violations(table) == []


def test_ordering_examples_hold_at_high_availability():
    table = op.value_iterate_delay(GridSpec(9, 9), 0.9)
    assert op.check_mean_delay_ordering(table) == []
    assert table.d_bar_at(NodeCoord(1, 0)) < table.d_bar_at(NodeCoord(1, 1))
    assert table.d_bar_at(NodeCoord(1, 1)) < table.d_bar_at(NodeCoord(0, 2))
    assert table.d_bar_at(NodeCoord(3, 4)) == pytest.approx(table.d_bar_at(NodeCoord(4, 3)), abs=1e-9)


def test_ordering_fails_at_low_availability_pinned():
    # The lexicographic ordering is provably violated at low availability:
    # D(3,0) = 3/p exactly (forced single-link chain) exceeds D(2,2), one hop
    # farther but reachable through two-link interior nodes.  Pinned so a
    # solver regression cannot silently flip this.
    table = op.value_iterate_delay(GridSpec(9, 9), 0.3)
    assert table.d_bar_at(NodeCoord(3, 0)) > table.d_bar_at(NodeCoord(2, 2))
    violations = op.check_mean_delay_ordering(table)
    assert violations, "expected genuine ordering violations at p=0.3"
    signatures = {
        ((abs(a.x) + abs(a.y)), (abs(b.x) + abs(b.y))) for a, b, _, _ in violations
    }
    assert signatures <= {(3, 4), (4, 5)}


def test_buffered_deterministic_greedy_matches_fixed_point():
    spec = GridSpec(9, 9)
    p = 0.6
    table = op.value_iterate_delay(spec, p)
    params = ld.from_p_mu(p, 0.0)
    total = total_sq = 0
    n = 20000
    run = sim.GrRun(spec, params, NodeCoord(3, 4))
    for i in range(n):
        rng = trial_rng(31, i)
        out = sim.run_gr_trial(spec, params, run, True, sim.DETERMINISTIC, rng)
        total += out.delay
        total_sq += out.delay * out.delay
    mean = total / n
    stderr = ((total_sq - total * total / n) / (n - 1) / n) ** 0.5
    assert abs(mean - table.d_bar_at(NodeCoord(3, 4))) <= 3 * stderr


def test_connected_path_ordering_clean_cases():
    for p, mu, tc in itertools.product((0.5, 0.9), (0.1, 0.9), (0, 5)):
        params = ld.from_p_mu(p, mu)
        assert op.verify_connected_path_ordering(params, tc, 20) == []


def test_connected_path_ordering_first_step():
    params = ld.from_p_mu(0.9, 0.9)
    tc = 3
    survival_1 = ld.transition_prob(params, True, tc)
    assert survival_1 < 1.0  # length 0 beats length 1


def test_connected_path_ordering_near_certain_links():
    params = ld.from_p_mu(1 - 1e-9, 0.5)
    assert op.verify_connected_path_ordering(params, 0, 20) == []


def test_intermediate_absent_on_diagonal():
    for k in range(2, 9):
        assert op.find_best_intermediate(0.9, k, k) is None


def test_intermediate_improves_skewed_source():
    node = op.find_best_intermediate(0.7, 1, 10)
    assert node is not None
    u, v = node
    direct = greedy.gr_throughput(0.7, 1, 10, 0.5)  # fair-coin baseline
    via = (greedy.gr_throughput(0.7, 1 - u, 10 - v, (10 - v) / (11 - u - v))
           * greedy.gr_throughput(0.7, u, v, v / (u + v)))  # each leg along its own diagonal
    assert via > direct


def test_intermediate_absent_with_certain_links():
    assert op.find_best_intermediate(1.0, 1, 10) is None
