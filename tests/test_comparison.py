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
    assert comparison.throughput_crossover_tc(params, 5, 5, 0, 200, gain(0.9, 5, 5, 0.5)) == 35
    assert comparison.delay_crossover_tc(params, 5, 5, 0, 200, greedy.gr_delay_exact_component(params, 5, 5, 0.5)) == 30


def test_crossover_is_first_hit():
    params = ld.from_p_mu(0.9, 0.99)
    g = gain(0.9, 5, 5, 0.5)
    tc = comparison.throughput_crossover_tc(params, 5, 5, 0, 200, g)
    assert comparison.gr_beats_scpr_throughput(params, 5, 5, tc, g)
    assert not comparison.gr_beats_scpr_throughput(params, 5, 5, tc - 1, g)
    delay = greedy.gr_delay_exact_component(params, 5, 5, 0.5)
    td = comparison.delay_crossover_tc(params, 5, 5, 0, 200, delay)
    assert comparison.gr_beats_scpr_delay(params, 5, 5, td, delay)
    assert not comparison.gr_beats_scpr_delay(params, 5, 5, td - 1, delay)


def test_memoryless_greedy_wins_throughput_immediately():
    # with no memory the snapshot is worthless: the centralized bound drops
    # to the per-hop product while greedy enjoys its two-link advantage
    params = ld.from_p_mu(0.9, 0.0)
    assert comparison.throughput_crossover_tc(params, 5, 5, 0, 200, gain(0.9, 5, 5, 0.5)) == 0


def test_crossover_none_when_out_of_range():
    params = ld.from_p_mu(0.9, 0.99)
    assert comparison.throughput_crossover_tc(params, 5, 5, 0, 10, gain(0.9, 5, 5, 0.5)) is None
    delay = greedy.gr_delay_exact_component(params, 5, 5, 0.5)
    assert comparison.delay_crossover_tc(params, 5, 5, 0, 10, delay) is None


def test_explicit_tie_break_changes_throughput_crossover():
    params = ld.from_p_mu(0.9, 0.99)
    skew = comparison.throughput_crossover_tc(params, 2, 8, 0, 200, gain(0.9, 2, 8, 0.5))
    tuned = comparison.throughput_crossover_tc(params, 2, 8, 0, 200, gain(0.9, 2, 8, 8 / 10))
    assert tuned is not None and skew is not None
    assert tuned <= skew  # diagonal steering can only help greedy


def first_true_oracle(pred, lo, hi):
    """Brute force over [lo, hi]: the first hit, or None."""
    return next((t for t in range(lo, hi + 1) if pred(t)), None)


def probe_bound(lo, hi):
    """Probes _first_true may spend on [lo, hi]: lo, hi and a bisection between."""
    return 1 if lo == hi else 2 + math.ceil(math.log2(hi - lo))


def test_first_true_matches_brute_force_on_every_step_pattern():
    # the searches' predicates are False then True in t_c (the proofs are in
    # comparison's docstrings), so every such step on up to 8 points, at
    # several offsets, with its first hit anywhere or nowhere
    for lo in (0, 3, 10**9, 2**64):
        for width in range(1, 9):
            hi = lo + width - 1
            for first in range(lo, hi + 2):
                calls = []

                def pred(t):
                    assert lo <= t <= hi
                    calls.append(t)
                    return t >= first

                expected = first_true_oracle(lambda t: t >= first, lo, hi)
                assert comparison._first_true(pred, lo, hi) == expected
                assert len(calls) <= probe_bound(lo, hi)
                assert len(calls) == len(set(calls))  # no slot is probed twice


def test_first_true_evaluation_count_on_threshold():
    lo, hi = 0, 200
    for first in (0, 1, 35, 199, 200, None):
        calls = []

        def pred(t):
            calls.append(t)
            return first is not None and t >= first

        assert comparison._first_true(pred, lo, hi) == first
        assert len(calls) <= probe_bound(lo, hi) == 10
        if first == lo:
            assert calls == [lo]  # a hit at lo costs one probe
        assert len(calls) == len(set(calls))  # no slot is probed twice
    assert calls == [lo, hi]  # no hit at hi: nothing to bisect


def test_first_true_rejects_empty_range():
    with pytest.raises(ValueError):
        comparison._first_true(lambda t: True, 5, 4)


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
