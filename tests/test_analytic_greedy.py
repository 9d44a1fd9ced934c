import math
from fractions import Fraction

import pytest

from satroute import analytic_greedy as greedy
from satroute import link_dynamics as ld
from satroute import verify
from satroute.verify import dp_throughput, expected_min_tau_direct

from oracles import exact_expected_min_tau


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
                    assert greedy.gr_throughput(p, x, y, u) == p ** (x + y) * greedy._throughput_bracket(p, x, y, u)


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
        assert sum(greedy.min_tau_pmf(x, y, w).values()) == pytest.approx(1.0, abs=1e-12)


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
