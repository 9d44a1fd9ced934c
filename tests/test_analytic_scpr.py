import math
import tracemalloc

import pytest

from satroute import analytic_scpr as scpr
from satroute import link_dynamics as ld
from satroute import verify

from oracles import delay_mp, mgf_rows, scalar_mgf_rows


def table(params, t_c, depth):
    """M_i(t) = G_i(t)/log(mu) for t = 0 .. depth - i, row per i, from the array rows."""
    log_mu = math.log(params.mu)
    return [(row.v / log_mu).tolist() for row in mgf_rows(params, t_c, depth)]


def raw_value(params, t_c, depth, t):
    """G_depth(t) = E[mu^(t S_depth)] at arbitrary real t, from the array rows."""
    for row in mgf_rows(params, t_c, depth, t):
        pass
    return float(row.v[0])


def test_throughput_bound_memoryless():
    params = ld.from_p_mu(0.8, 0.0)
    # staleness >= 1: every hop is a fresh Bernoulli(p)
    assert scpr.scpr_path_success_prob(params, 5, 1) == pytest.approx(0.8**5, abs=1e-15)
    # staleness 0: the first hop is traversed at the snapshot instant (mu^0 = 1)
    assert scpr.scpr_path_success_prob(params, 5, 0) == pytest.approx(0.8**4, abs=1e-15)


def test_throughput_bound_near_static_links():
    params = ld.from_p_mu(0.7, 0.999999)
    assert 1.0 - scpr.scpr_path_success_prob(params, 2, 1) < 1e-4


def test_throughput_bound_direct_product_value():
    params = ld.from_p_mu(0.9, 0.9)
    expected = (0.9 + 0.1 * 0.9**2) * (0.9 + 0.1 * 0.9**3)
    assert scpr.scpr_path_success_prob(params, 2, 2) == pytest.approx(expected, abs=1e-15)


def test_throughput_bound_monotone():
    params = ld.from_p_mu(0.85, 0.6)
    values_tc = [scpr.scpr_path_success_prob(params, 6, tc) for tc in range(0, 20)]
    assert all(a >= b - 1e-15 for a, b in zip(values_tc, values_tc[1:]))
    values_len = [scpr.scpr_path_success_prob(params, n, 4) for n in range(0, 15)]
    assert values_len[0] == 1.0
    assert all(a > b for a, b in zip(values_len, values_len[1:]))


def test_coefficients_at_zero():
    for p, mu, tc in ((0.9, 0.9, 5), (0.6, 0.3, 0), (0.99, 0.99, 12)):
        a0, b0 = scpr.mgf_coefficients(ld.from_p_mu(p, mu), tc, 0.0)
        assert a0.v == pytest.approx(1.0, abs=1e-12)
        assert b0.v == pytest.approx(0.0, abs=1e-12)


def test_mgf_table_row_zero_and_recursion_identity():
    params = ld.from_p_mu(0.9, 0.9)
    rows = table(params, 5, 8)
    inv_log_mu = 1.0 / math.log(params.mu)
    for i in range(9):
        assert rows[i][0] == pytest.approx(inv_log_mu, rel=1e-12)
    for i in range(1, 9):
        for t in range(8 - i + 1):
            a, b = scpr.mgf_coefficients(params, 5, float(t))
            lhs = rows[i][t]
            rhs = a.v * rows[i - 1][t] + b.v * rows[i - 1][t + 1]
            assert lhs == pytest.approx(rhs, rel=1e-12)


def test_ab_duals_match_central_differences():
    cases = ((0.9, 0.9, 5), (0.7, 0.5, 0), (0.9, 0.99, 20))
    assert verify.dual_derivative_error(cases, (0.0, 1.0, 2.0)) <= 1e-6


def test_mean_delay_matches_finite_difference_of_raw_mgf():
    params = ld.from_p_mu(0.9, 0.9)
    h = 1e-6
    fd = (raw_value(params, 5, 10, h) - raw_value(params, 5, 10, -h)) / (2 * h) / math.log(params.mu)
    assert scpr.scpr_delay_recursion(params, 10, 5) == pytest.approx(fd, abs=1e-5)


ORACLE_POINTS = [
    (p, mu, tc, depth)
    for p in (0.3, 0.6, 0.9)
    for mu in (0.5, 0.9, 0.99)
    for tc in (0, 5, 35)
    for depth in (1, 2, 10, 30)
] + [(0.9, 0.99, 5, 100)]


@pytest.mark.parametrize("p,mu,tc,depth", ORACLE_POINTS)
def test_mgf_rows_match_scalar_oracle(p, mu, tc, depth):
    params = ld.from_p_mu(p, mu)
    oracle = scalar_mgf_rows(params, tc, depth)
    log_mu = math.log(mu)
    rows = table(params, tc, depth)
    assert [len(row) for row in rows] == [len(row) for row in oracle]
    for row, ref in zip(rows, oracle):
        assert row == pytest.approx([cell.v / log_mu for cell in ref], rel=1e-12)
    expected = oracle[depth][0].d / log_mu
    assert scpr.scpr_delay_recursion(params, depth, tc) == pytest.approx(expected, rel=1e-12)
    for k in sorted({0, 1, depth // 2, depth}):
        for t in range(depth - k + 1):
            assert raw_value(params, tc, k, float(t)) == pytest.approx(rows[k][t] * log_mu, rel=1e-12)


def test_deep_recursion_per_hop_increments():
    # S_i >= S_{i-1} pathwise, so E[S_i] - E[S_{i-1}] = 1 + (1-p)/e2 (1 - mu^tc E[mu^S_{i-1}])
    # is non-decreasing in i and lies in [1, 1 + (1-p)/e2].
    params = ld.from_p_mu(0.9, 0.99)
    depth = 1000
    log_mu = math.log(params.mu)
    means = [float(row.d[0]) / log_mu for row in mgf_rows(params, 5, depth)]
    assert scpr.scpr_delay_recursion(params, depth, 5) == pytest.approx(means[depth], rel=1e-12)
    steps = [b - a for a, b in zip(means, means[1:])]
    cap = 1.0 + (1.0 - params.p) / params.epsilon2
    slack = 1e-9  # float64 rounding of means up to ~1e4
    assert all(1.0 - slack <= s <= cap + slack for s in steps)
    assert all(b >= a - slack for a, b in zip(steps, steps[1:]))


def test_deep_recursion_keeps_one_row_at_a_time():
    # the whole triangle at depth 3000 is about 4.5M cells, 36 MB
    params = ld.from_p_mu(0.9, 0.99)
    scpr.scpr_delay_recursion(params, 1, 5)  # load numpy outside the measurement
    tracemalloc.start()
    try:
        scpr.scpr_delay_recursion(params, 3000, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_single_hop_delay_closed_form():
    # one hop: 1 + p10(t_c)/epsilon2, straight from the geometric wait
    for p, mu, tc in ((0.9, 0.5, 0), (0.8, 0.9, 7)):
        params = ld.from_p_mu(p, mu)
        expected = 1.0 + (1.0 - ld.transition_prob(params, True, tc)) / params.epsilon2
        assert scpr.scpr_delay_recursion(params, 1, tc) == pytest.approx(expected, rel=1e-12)


def test_delay_depth_zero_and_floor():
    params = ld.from_p_mu(0.9, 0.9)
    assert scpr.scpr_delay_recursion(params, 0, 5) == 0.0
    for x, y, tc in ((1, 1, 0), (5, 5, 5), (2, 7, 30)):
        assert scpr.scpr_delay_recursion(params, x + y, tc) >= x + y


def test_delay_memoryless_closed_form():
    params = ld.from_p_mu(0.9, 0.0)
    per_hop = 1.0 + (1.0 - 0.9) / params.epsilon2
    assert scpr.scpr_delay_recursion(params, 10, 5) == pytest.approx(10 * per_hop, rel=1e-12)
    # staleness 0: first hop is ON at the snapshot instant and costs exactly 1
    assert scpr.scpr_delay_recursion(params, 10, 0) == pytest.approx(
        10 * per_hop - (per_hop - 1.0), rel=1e-12
    )


def test_delay_monotone_in_staleness_and_depth():
    params = ld.from_p_mu(0.9, 0.9)
    by_tc = [scpr.scpr_delay_recursion(params, 6, tc) for tc in range(0, 25)]
    assert all(b >= a - 1e-12 for a, b in zip(by_tc, by_tc[1:]))
    by_depth = [scpr.scpr_delay_recursion(params, n, 5) for n in range(0, 15)]
    assert all(b > a for a, b in zip(by_depth, by_depth[1:]))


def test_delay_rejects_near_static_links():
    # from_p_mu refuses mu past MU_MAX; at MU_MAX itself the recursion is exact
    with pytest.raises(ValueError):
        ld.from_p_mu(0.9, 1.0 - 1e-12)
    params = ld.from_p_mu(0.9, ld.MU_MAX)
    expected = delay_mp(params.p, params.mu, 10, 5)
    assert scpr.scpr_delay_recursion(params, 10, 5) == pytest.approx(float(expected), rel=1e-12)


# (p, mu, depth, t_c): small p magnifies each rounding error by (1-p)/e2, and
# mu near 1 makes 1 - mu^t cancel in the derivative form.
ACCURACY_POINTS = [
    (p, 1.0 - delta, depth, tc)
    for p in (1e-12, 1e-6, 1e-3, 0.3, 0.6, 0.9, 1.0 - 1e-6, 1.0 - 1e-12)
    for delta in (1.0, 0.5, 1e-2, 1e-4, 1e-6, 1e-8, 1e-9)
    for tc in (0, 5, 1000)
    for depth in (1, 3, 10)
] + [(0.9, 0.99, 100, 5), (1e-6, 0.99, 40, 5), (0.3, 1.0 - 1e-6, 40, 1000)]


def test_delay_matches_mpmath_over_the_accepted_domain():
    worst, where = 0.0, None
    for p, mu, depth, tc in ACCURACY_POINTS:
        params = ld.from_p_mu(p, mu)
        value = scpr.scpr_delay_recursion(params, depth, tc)
        assert depth <= value < math.inf, (p, mu, depth, tc, value)  # no NaN, nothing negative
        expected = delay_mp(params.p, params.mu, depth, tc)
        err = float(abs(value - expected) / expected)
        if err > worst:
            worst, where = err, (p, mu, depth, tc)
    assert worst <= 1e-12, where
