import math

import pytest

from satroute import analytic_greedy as greedy
from satroute import analytic_scpr as scpr
from satroute import comparison
from satroute import link_dynamics as ld


def gain(p, x, y, u):
    """GR's log margin log(T / p^(x+y)) under the coin u, as the CLI computes it."""
    return greedy.log_throughput_bracket(p, x, y, u)


def test_crossovers_at_reference_parameters():
    params = ld.from_p_mu(0.9, 0.99)
    assert comparison.throughput_crossover_tc(params, 5, 5, gain(0.9, 5, 5, 0.5)) == 35
    assert comparison.delay_crossover_tc(params, 5, 5, greedy.gr_delay_exact_component(params, 5, 5, 0.5)) == 30


def test_crossover_is_first_hit():
    params = ld.from_p_mu(0.9, 0.99)
    g = gain(0.9, 5, 5, 0.5)
    tc = comparison.throughput_crossover_tc(params, 5, 5, g)
    assert comparison.gr_beats_scpr_throughput(params, 5, 5, tc, g)
    assert not comparison.gr_beats_scpr_throughput(params, 5, 5, tc - 1, g)
    delay = greedy.gr_delay_exact_component(params, 5, 5, 0.5)
    td = comparison.delay_crossover_tc(params, 5, 5, delay)
    assert comparison.gr_beats_scpr_delay(params, 5, 5, td, delay)
    assert not comparison.gr_beats_scpr_delay(params, 5, 5, td - 1, delay)


def test_memoryless_greedy_wins_throughput_immediately():
    # with no memory the snapshot is worthless: the centralized bound drops
    # to the per-hop product while greedy enjoys its two-link advantage
    params = ld.from_p_mu(0.9, 0.0)
    assert comparison.throughput_crossover_tc(params, 5, 5, gain(0.9, 5, 5, 0.5)) == 0


def test_crossover_none_when_out_of_range():
    """None: GR's win lies nowhere on the t_c axis.  From an axis source GR's
    p^n never reaches SCPR's bound, and at mu = 0 SCPR's delay is the same at
    every t_c >= 1 and below GR's at (5, 5)."""
    params = ld.from_p_mu(0.9, 0.5)
    assert comparison.throughput_crossover_tc(params, 0, 2, gain(0.9, 0, 2, 1.0)) is None
    params = ld.from_p_mu(0.9, 0.0)
    delay = greedy.gr_delay_exact_component(params, 5, 5, 0.5)
    assert comparison.delay_crossover_tc(params, 5, 5, delay) is None
    assert len({scpr.scpr_delay_recursion(params, 9, tc) for tc in (1, 2, 35, comparison.HORIZON)}) == 1


def test_explicit_tie_break_changes_throughput_crossover():
    params = ld.from_p_mu(0.9, 0.99)
    skew = comparison.throughput_crossover_tc(params, 2, 8, gain(0.9, 2, 8, 0.5))
    tuned = comparison.throughput_crossover_tc(params, 2, 8, gain(0.9, 2, 8, 8 / 10))
    assert tuned is not None and skew is not None
    assert tuned <= skew  # diagonal steering can only help greedy


# Thresholds t* of a step predicate t >= t*: the smallest ones, each side of
# every power of two the gallop reaches, HORIZON itself, and past it (never).
THRESHOLDS = sorted({0, 1, 2, 3, *(2**k + d for k in range(40) for d in (-1, 0, 1)),
                     comparison.HORIZON, comparison.HORIZON + 1})


def probe_bound(first):
    """Probes _first_true may spend on a first hit at ``first``: 0, HORIZON,
    the gallop to the first power of two at or past it, and a bisection of the
    last doubling; 0 alone for a hit at 0, and 0 and HORIZON for none."""
    if first == 0:
        return 1
    if first > comparison.HORIZON:
        return 2
    return 3 + 2 * math.ceil(math.log2(first))


def test_first_true_matches_brute_force_on_every_step_pattern():
    # the searches' predicates are False then True in t_c (the proofs are in
    # comparison's docstrings), so every such step with its first hit at each
    # threshold, or nowhere
    for first in THRESHOLDS:
        calls = []

        def pred(t):
            assert 0 <= t <= comparison.HORIZON
            calls.append(t)
            return t >= first

        expected = first if first <= comparison.HORIZON else None
        assert comparison._first_true(pred) == expected, first
        assert len(calls) <= probe_bound(first), first
        assert len(calls) == len(set(calls))  # no slot is probed twice


def test_first_true_evaluation_count_on_threshold():
    for first, count in ((0, 1), (None, 2), (1, 3), (2, 4), (35, 14), (200, 18)):
        calls = []

        def pred(t):
            calls.append(t)
            return first is not None and t >= first

        assert comparison._first_true(pred) == first
        assert len(calls) == count, first
        assert calls[:2] == [0, comparison.HORIZON][:count]  # 0 first, then the limit


def test_horizon_is_the_limit_of_both_sides():
    """HORIZON is the first power of two at which MU_MAX ** t is 0.0, so for
    every accepted mu both sides there equal their t_c -> inf limits: the
    bound's excess over p^(x+y) is 0.0, and the recursion is d (1 + (1-p)/e2)."""
    horizon = comparison.HORIZON
    assert ld.MU_MAX ** horizon == 0.0 and ld.MU_MAX ** (horizon // 2) > 0.0
    assert horizon & (horizon - 1) == 0
    for p, mu in ((0.9, 0.99), (0.3, ld.MU_MAX), (0.6, 0.0)):
        params = ld.from_p_mu(p, mu)
        for depth in (1, 9, 99):
            assert sum(math.log1p((1.0 - p) / p * mu ** (horizon + i)) for i in range(depth)) == 0.0
            limit = depth * (1.0 + (1.0 - p) / params.epsilon2)
            assert scpr.scpr_delay_recursion(params, depth, horizon) == pytest.approx(limit, rel=1e-12, abs=0)


def test_whole_axis_search_matches_a_linear_scan():
    """At the benchmark's closed-form grid, wherever a scan over [0, 200] finds
    GR's first win, the whole-axis search finds the same t_c."""
    found = 0
    for p in (0.3, 0.6, 0.9):
        for mu in (0.0, 0.5, 0.9, 0.99):
            params = ld.from_p_mu(p, mu)
            for d in (5, 15, 25, 50):
                g = gain(p, d, d, 0.5)
                delay = greedy.gr_delay_exact_component(params, d, d, greedy.w_from_u(params, 0.5))
                for search, wins in (
                        (lambda: comparison.throughput_crossover_tc(params, d, d, g),
                         lambda tc: comparison.gr_beats_scpr_throughput(params, d, d, tc, g)),
                        (lambda: comparison.delay_crossover_tc(params, d, d, delay),
                         lambda tc: comparison.gr_beats_scpr_delay(params, d, d, tc, delay))):
                    scan = next((tc for tc in range(201) if wins(tc)), None)
                    if scan is not None:
                        found += 1
                        assert search() == scan, (p, mu, d)
    assert found == 95  # all but delay at p = 0.9, mu = 0, (5, 5): a true never


# Both searches bisect, which is exact because each side is monotone in t_c:
# SCPR's delay recursion never falls and the throughput bound's excess over
# p^(x+y) never rises.  Pinned for the computed floats, including p near 0, mu
# at 0 and at MU_MAX, and ages far past the default range.
MONOTONE_TC = (*range(201), 10**6, 10**6 + 1, 10**9, 10**9 + 1)


@pytest.mark.parametrize("mu", [0.0, 0.5, 0.99, ld.MU_MAX])
@pytest.mark.parametrize("p", [1e-6, 0.3, 0.9])
def test_both_crossover_sides_are_monotone_in_tc(p, mu):
    params = ld.from_p_mu(p, mu)
    for depth in (1, 5, 49):
        delay = [scpr.scpr_delay_recursion(params, depth, tc) for tc in MONOTONE_TC]
        # the excess sum_i log1p((1-p)/p mu^(t_c+i)) exactly as
        # gr_beats_scpr_throughput computes it for x + y = depth
        excess = [sum(math.log1p((1.0 - p) / p * mu ** (tc + i)) for i in range(depth))
                  for tc in MONOTONE_TC]
        assert all(a <= b for a, b in zip(delay, delay[1:])), depth
        assert all(a >= b for a, b in zip(excess, excess[1:])), depth
