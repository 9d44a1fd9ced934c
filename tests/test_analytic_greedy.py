import math
from fractions import Fraction

import pytest

from satroute import analytic_greedy as greedy
from satroute import link_dynamics as ld
from satroute import verify
from satroute.special_functions import neg_binomial_sum
from satroute.verify import expected_min_tau_direct

from oracles import exact_expected_min_tau


def dp_throughput(p, x, y, u):
    """gr_walk's delivery probability under the coin u: the lattice dynamic
    program, whose bufferless walk has no memory, so any mu serves."""
    return greedy.gr_walk(ld.from_p_mu(p, 0.0), x, y, u)[1]


def test_throughput_hand_value():
    t = greedy.gr_throughput(0.9, 1, 1, 0.5)
    assert t == pytest.approx(0.9**2 * (2 - 0.9), abs=1e-12)
    assert t == pytest.approx(0.891, abs=1e-12)


def test_throughput_certain_links():
    for x, y in ((1, 1), (3, 7), (8, 2)):
        for u in (0.25, 0.5, 0.75):
            assert greedy.gr_throughput(1.0, x, y, u) == pytest.approx(1.0, abs=1e-12)


def test_throughput_matches_dp_on_subgrid():
    # x == 0 and y == 0 are the axis rows, which the DP fills by forced hops
    for p in (0.3, 0.9):
        for u in (0.2, 0.8):
            for x in range(0, 6):
                for y in range(0, 6):
                    assert greedy.gr_throughput(p, x, y, u) == pytest.approx(
                        dp_throughput(p, x, y, u), abs=1e-12
                    )


@pytest.mark.parametrize("x", [300, 400])
def test_throughput_where_p_to_the_distance_is_not_normal(x):
    """At p = 0.3, p^(x+y) is subnormal at x = y = 300 and 0.0 at 400, while
    the throughput is a normal float (about 1.6e-177 and 4.6e-236)."""
    assert greedy.gr_throughput(0.3, x, x, 0.5) == pytest.approx(dp_throughput(0.3, x, x, 0.5), rel=1e-12, abs=0)
    assert greedy.gr_throughput(0.0, x, x, 0.5) == 0.0


def test_throughput_is_the_plain_product_where_p_to_the_distance_is_normal():
    """At throughput_dp_error's 768 points the result is p^(x+y) * bracket, bit for bit."""
    for p in (0.3, 0.6, 0.9):
        for x in range(1, 9):
            for y in range(1, 9):
                for u in (0.2, 0.5, 0.8, y / (x + y)):
                    f1, f2 = 1.0 - u * p, 1.0 - (1.0 - u) * p
                    bracket = f1**x * neg_binomial_sum(f2, x, y) + f2**y * neg_binomial_sum(f1, y, x)
                    assert greedy.gr_throughput(p, x, y, u) == p ** (x + y) * bracket


def test_throughput_boundary_ties_regular():
    # u = 0 and u = 1 are fine in the sum form; the DP is the referee
    for u in (0.0, 1.0):
        for x, y in ((1, 1), (2, 5), (4, 3)):
            assert greedy.gr_throughput(0.7, x, y, u) == pytest.approx(
                dp_throughput(0.7, x, y, u), abs=1e-12
            )


def test_throughput_symmetric_with_recommended_tie_break():
    for x, y in ((3, 7), (1, 9), (5, 5), (2, 11)):
        txy = greedy.gr_throughput(0.9, x, y, y / (x + y))
        tyx = greedy.gr_throughput(0.9, y, x, x / (x + y))
        assert txy == pytest.approx(tyx, abs=1e-12)


def test_throughput_symmetric_square_sources():
    assert greedy.gr_throughput(0.6, 4, 4, 0.5) == pytest.approx(
        greedy.gr_throughput(0.6, 4, 4, 0.5), abs=1e-15
    )
    assert greedy.gr_throughput(0.6, 3, 7, 0.5) == pytest.approx(
        greedy.gr_throughput(0.6, 7, 3, 0.5), abs=1e-12
    )


def test_boundary_throughput():
    assert greedy.gr_throughput(0.9, 0, 0, 0.5) == 1.0
    assert greedy.gr_throughput(0.9, 0, 3, 0.5) == pytest.approx(0.729, abs=1e-12)
    # matches the DP boundary rows exactly: forced single-link hops, on either axis
    for n in range(0, 9):
        assert greedy.gr_throughput(0.5, 0, n, 0.5) == 0.5**n
        assert greedy.gr_throughput(0.5, n, 0, 0.3) == 0.5**n  # no tie-break to make
        assert greedy.gr_throughput(0.5, n, 0, 0.5) == dp_throughput(0.5, n, 0, 0.5)


def test_w_from_u_midpoint_is_exact_half():
    for p, mu in ((0.3, 0.0), (0.9, 0.5), (0.6, 0.95)):
        assert greedy.w_from_u(ld.from_p_mu(p, mu), 0.5) == pytest.approx(0.5, abs=1e-12)


def test_w_from_u_memoryless_closed_form():
    p = 0.7
    params = ld.from_p_mu(p, 0.0)  # epsilon2 == p
    expected = p * p + p * (1 - p) + (1 - p) ** 2 * (p / (2 - p) + (1 - p) / (2 - p))
    assert greedy.w_from_u(params, 1.0) == pytest.approx(expected, abs=1e-12)


def attainable_w_interval(params):
    """The w values reachable by some u in [0, 1]: w_from_u is increasing in u."""
    return greedy.w_from_u(params, 0.0), greedy.w_from_u(params, 1.0)


def test_w_from_u_affine_and_endpoints():
    params = ld.from_p_mu(0.8, 0.6)
    lo, hi = attainable_w_interval(params)
    assert lo < greedy.w_from_u(params, 0.5) < hi
    assert lo == pytest.approx(1.0 - hi, abs=1e-12)  # u -> 1-u swaps the axes
    mid = greedy.w_from_u(params, 0.25)
    assert mid == pytest.approx(lo + 0.25 * (hi - lo), abs=1e-12)


def u_for_target_w(params, w_target):
    """Invert w_from_u; None when w_target is outside the attainable interval.

    Targets within one rounding step (1e-12) of an endpoint count as
    attainable: the endpoint itself is the exact u in {0, 1} solution.
    """
    lo, hi = attainable_w_interval(params)
    if w_target < lo - 1e-12 or w_target > hi + 1e-12:
        return None
    u = (w_target - lo) / (hi - lo)
    return min(1.0, max(0.0, u))


def test_u_for_target_w_round_trip_and_absent():
    params = ld.from_p_mu(0.5, 0.0)
    for u in (0.0, 0.3, 0.5, 0.9, 1.0):
        w = greedy.w_from_u(params, u)
        back = u_for_target_w(params, w)
        assert back is not None and back == pytest.approx(u, abs=1e-9)
    assert u_for_target_w(params, 0.99) is None
    assert u_for_target_w(params, 0.5) == pytest.approx(0.5, abs=1e-12)


def test_shape_condition_matches_interval_endpoint():
    params = ld.from_p_mu(0.7, 0.4)
    lo, hi = attainable_w_interval(params)
    # the threshold in the shape condition is exactly the u = 0 endpoint
    p, e2 = params.p, params.epsilon2
    threshold = (1 - p) * (p + (1 - p) * (1 - e2) / (2 - e2))
    assert lo == pytest.approx(threshold, abs=1e-12)
    # pick (x, y) with min/(x+y) just above / below the threshold
    assert greedy.shape_condition_holds(params, 5, 5)
    assert not greedy.shape_condition_holds(params, 1, 30)
    target = 30 / 31
    assert (u_for_target_w(params, target) is None) == (
        not greedy.shape_condition_holds(params, 1, 30)
    )


def test_min_tau_pmf_sums_to_one():
    for x, y, w in ((1, 1, 0.5), (3, 5, 0.37), (6, 2, 0.81), (4, 4, 0.5)):
        assert sum(verify.min_tau_pmf(x, y, w).values()) == pytest.approx(1.0, abs=1e-12)


def test_expected_min_tau_trivial_cases():
    assert greedy.expected_min_tau(1, 1, 0.5) == 1.0
    assert greedy.expected_min_tau(1, 2, 0.5) == pytest.approx(1.5, abs=1e-12)


def test_expected_min_tau_matches_direct_sum():
    for x in range(1, 9):
        for y in range(x, 9):
            for w in (0.1, 0.3, 0.5, 0.7, 0.9):
                closed = greedy.expected_min_tau(x, y, w)
                direct = expected_min_tau_direct(x, y, w)
                assert closed == pytest.approx(direct, abs=1e-9)
                # symmetry swap covers x > y
                assert greedy.expected_min_tau(y, x, 1 - w) == pytest.approx(direct, abs=1e-9)


@pytest.mark.parametrize("w", (1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9))
def test_expected_min_tau_relative_accuracy_near_a_certain_walk(w):
    """The closed form cancels terms of size y/w or x/wbar down to a result
    below x + y.  Formed as 1 - (1 - w) through a swap, the small probability
    carried a relative error of about 1e-7 into that cancellation: the worst
    relative error over this grid was 1.9e-7 at w = 1e-9 and 1.1e-6 at
    w = 1 - 1e-9."""
    worst = max(abs(Fraction(greedy.expected_min_tau(x, y, w)) / exact_expected_min_tau(x, y, w) - 1)
                for x in range(1, 31, 3) for y in range(1, 31, 2))
    assert worst <= 1e-14


@pytest.mark.parametrize("x, y, w", [(200, 1, 0.3), (1, 200, 0.7), (150, 3, 0.2), (300, 2, 0.3)])
def test_expected_min_tau_takes_the_orientation_without_cancellation(x, y, w):
    """From (200, 1) at w = 0.3 the vertical move nearly always comes first,
    so I_w(y, x) is near 1 and the form's last term cancels x/wbar.  The
    mirrored walk has I near 0.  Mirrored by w > 1/2 alone, these points read
    1.1e-14 to 4.5e-14 off."""
    exact = exact_expected_min_tau(x, y, w)
    assert abs(Fraction(greedy.expected_min_tau(x, y, w)) / exact - 1) <= 1e-15


def test_expected_min_tau_stirling_floor_at_diagonal_bias():
    for x in range(1, 13):
        for y in range(x, 13):
            w = y / (x + y)
            floor = (x + y) - math.sqrt((x + y) / (2 * math.pi * w * (1 - w)))
            assert greedy.expected_min_tau(x, y, w) >= floor - 1e-12


def test_delay_exact_component_limits():
    near_one = ld.from_p_mu(1 - 1e-9, 0.5)
    assert greedy.gr_delay_exact_component(near_one, 4, 3, 3 / 7) == pytest.approx(7.0, abs=1e-6)
    params = ld.from_p_mu(0.8, 0.3)
    all_boundary = (6) * (1 + (1 - 0.8) / params.epsilon2)
    assert greedy.gr_delay_exact_component(params, 0, 6, 0.5) == pytest.approx(all_boundary, rel=1e-12)
    assert greedy.gr_delay_exact_component(params, 6, 0, 0.3) == pytest.approx(all_boundary, rel=1e-12)


def test_delay_upper_bound_dominates_exact():
    # the Stirling step certifies the bound where the diagonal bias is
    # attainable, which is the only place the bound is defined
    assert verify.delay_bound_overshoot() <= 1e-12


def test_delay_bound_limit_and_relative_gap_shrinks():
    near_one = ld.from_p_mu(1 - 1e-9, 0.5)
    assert greedy.gr_delay_upper_bound(near_one, 4, 4) == pytest.approx(8.0, abs=1e-3)
    params = ld.from_p_mu(0.9, 0.9)
    gaps = []
    for n in (5, 20, 80):
        bound = greedy.gr_delay_upper_bound(params, n, n)
        exact = greedy.gr_delay_exact_component(params, n, n, 0.5)
        gaps.append((bound - exact) / exact)
    assert gaps[0] > gaps[1] > gaps[2] > 0


def test_delay_bound_raises_when_diagonal_bias_unreachable():
    params = ld.from_p_mu(0.3, 0.0)
    lo, hi = attainable_w_interval(params)
    assert 30 / 31 > hi and 1 / 31 < lo
    assert not greedy.shape_condition_holds(params, 1, 30)
    for x, y in ((1, 30), (30, 1)):
        with pytest.raises(ValueError, match="diagonal bias"):
            greedy.gr_delay_upper_bound(params, x, y)
    assert greedy.gr_delay_upper_bound(params, 5, 5) > greedy.gr_delay_exact_component(params, 5, 5, 0.5)


def test_dispatchers():
    # one entry point per closed form takes axis and interior sources alike
    params = ld.from_p_mu(0.8, 0.0)
    assert greedy.gr_throughput(0.8, 0, 4, 0.5) == pytest.approx(0.8**4, abs=1e-12)
    assert greedy.gr_delay_exact_component(params, 0, 2, 0.5) == pytest.approx(
        2 * (1 + (1 - 0.8) / params.epsilon2), rel=1e-12
    )
    for x, y in ((-1, 2), (2, -1), (-3, 0), (0, -3)):
        with pytest.raises(ValueError):
            greedy.gr_throughput(0.8, x, y, 0.5)
        with pytest.raises(ValueError):
            greedy.gr_delay_exact_component(params, x, y, 0.5)


# gr_walk: the lattice recursion for any tie rule.  Under a coin it is the
# paper's walk; under DETERMINISTIC it is the farther-axis walk, which the
# closed forms do not describe.
DETERMINISTIC = "deterministic"


def walk_delay(params, x, y, tie):
    """Mean buffered delay of gr_walk's walk: the split of gr_delay_exact_component."""
    return greedy.gr_delay_of_interior_moves(params, x, y, greedy.gr_walk(params, x, y, tie)[0])


def test_walk_under_a_coin_equals_claim3_eq23_and_eqek():
    worst = 0.0
    for p in (0.3, 0.6, 0.9):
        for mu in (0.0, 0.5, 0.99):
            params = ld.from_p_mu(p, mu)
            for x in range(1, 9):
                for y in range(1, 9):
                    for u in (0.2, 0.5, 0.8, y / (x + y)):
                        interior, delivered = greedy.gr_walk(params, x, y, u)
                        w = greedy.w_from_u(params, u)
                        delay = greedy.gr_delay_of_interior_moves(params, x, y, interior)
                        worst = max(worst, abs(delivered / greedy.gr_throughput(p, x, y, u) - 1),
                                    abs(interior / greedy.expected_min_tau(x, y, w) - 1),
                                    abs(delay / greedy.gr_delay_exact_component(params, x, y, w) - 1))
    assert worst <= 1e-12


def test_walk_from_an_axis_source_is_forced():
    params = ld.from_p_mu(0.7, 0.5)
    for tie in (0.0, 0.3, 1.0, DETERMINISTIC):
        assert greedy.gr_walk(params, 0, 0, tie) == (0.0, 1.0)
        for n in range(1, 6):
            assert greedy.gr_walk(params, n, 0, tie) == greedy.gr_walk(params, 0, n, tie) == (0.0, 0.7**n)


def test_farther_axis_walk_is_symmetric():
    params = ld.from_p_mu(0.6, 0.9)
    for x, y in ((1, 4), (3, 7), (2, 9)):
        assert greedy.gr_walk(params, x, y, DETERMINISTIC) == greedy.gr_walk(params, y, x, DETERMINISTIC)


@pytest.mark.parametrize("n", [9, 11])
def test_farther_axis_walk_equals_value_iteration_at_mu_0(n):
    """At mu = 0 the farther-axis walk is the greedy rule that value iteration
    certifies optimal, so its delay is the table's D-bar at every source."""
    from satroute import optimal_policies as optimal
    from satroute.grid_topology import GridSpec, NodeCoord

    worst = 0.0
    for p in (0.3, 0.6, 0.9):
        table = optimal.value_iterate_delay(GridSpec(n, n), p)
        params = ld.from_p_mu(p, 0.0)
        for x in range(n // 2 + 1):
            for y in range(n // 2 + 1):
                delay = walk_delay(params, x, y, DETERMINISTIC) if x + y else 0.0
                worst = max(worst, abs(delay - table.d_bar_at(NodeCoord(x, y))))
    assert worst <= 1e-9


def test_farther_axis_walk_dominates_every_coin():
    """Its delivery probability is at least, and its mean delay at most, those
    of every coin walk's closed forms, claim3 and eq23."""
    excess = 0.0
    for p in (0.3, 0.6, 0.9):
        for mu in (0.0, 0.5, 0.9, 0.99):
            params = ld.from_p_mu(p, mu)
            for x in range(1, 13):
                for y in range(1, 13):
                    interior, delivered = greedy.gr_walk(params, x, y, DETERMINISTIC)
                    delay = greedy.gr_delay_of_interior_moves(params, x, y, interior)
                    for u in (i / 10 for i in range(11)):
                        coin_delay = greedy.gr_delay_exact_component(params, x, y, greedy.w_from_u(params, u))
                        excess = max(excess, greedy.gr_throughput(p, x, y, u) / delivered - 1, delay / coin_delay - 1)
    assert excess <= 1e-12


# (p, mu, x, y, buffered).  The buffered point at mu = 0.99 waits about 100
# slots a hop, and its delays are too skewed for a 3-sigma gate at this size.
MC_POINTS = ((0.9, 0.99, 2, 6, False), (0.6, 0.9, 3, 7, False), (0.9, 0.5, 5, 5, False), (0.3, 0.0, 2, 3, False),
             (0.9, 0.5, 4, 4, True), (0.9, 0.5, 2, 6, True), (0.6, 0.0, 3, 5, True))


@pytest.mark.parametrize("p, mu, x, y, buffered", MC_POINTS)
def test_farther_axis_walk_matches_the_monte_carlo(p, mu, x, y, buffered):
    from satroute import simulator
    from satroute.grid_topology import GridSpec, NodeCoord

    params = ld.from_p_mu(p, mu)
    est = simulator.estimate(GridSpec(20, 20), params, "gr", src=NodeCoord(x, y), buffered=buffered,
                             tie=DETERMINISTIC, trials=5000, master_seed=2024)
    exact = walk_delay(params, x, y, DETERMINISTIC) if buffered else greedy.gr_walk(params, x, y, DETERMINISTIC)[1]
    assert abs(est.mean - exact) <= 3 * est.stderr


@pytest.mark.parametrize("xy", [520, 600])
@pytest.mark.parametrize("u", [0.5, "auto"])
def test_coin_closed_forms_past_the_float_range_of_their_coefficients(xy, u):
    """From x = y = 511 (eqEK's 1/B) and 516 (claim3's and I_v's binomial
    coefficients) an intermediate passes the float range; the scaled forms
    still agree with the recursion."""
    params = ld.from_p_mu(0.9, 0.99)
    u = xy / (2 * xy) if u == "auto" else u
    w = greedy.w_from_u(params, u)
    interior, delivered = greedy.gr_walk(params, xy, xy, u)
    assert greedy.gr_throughput(0.9, xy, xy, u) == pytest.approx(delivered, rel=1e-11, abs=0)
    assert greedy.expected_min_tau(xy, xy, w) == pytest.approx(interior, rel=1e-11, abs=0)
    assert greedy.gr_delay_exact_component(params, xy, xy, w) == pytest.approx(
        greedy.gr_delay_of_interior_moves(params, xy, xy, interior), rel=1e-11, abs=0)


def test_coin_closed_forms_past_the_float_range_off_the_diagonal():
    """Off the diagonal, and at p = 0.5 from (1000, 1000), where the bracket
    T / p^(x+y) passes the float range but T, about 4.7e-252, does not."""
    for p, x, y, u in ((0.6, 700, 400, 0.3), (0.6, 300, 900, 0.9), (0.5, 1000, 1000, 0.5)):
        params = ld.from_p_mu(p, 0.5)
        w = greedy.w_from_u(params, u)
        interior, delivered = greedy.gr_walk(params, x, y, u)
        assert greedy.gr_throughput(p, x, y, u) == pytest.approx(delivered, rel=1e-11, abs=0)
        assert greedy.expected_min_tau(x, y, w) == pytest.approx(interior, rel=1e-11, abs=0)
