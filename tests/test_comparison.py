import pytest

from satroute import comparison
from satroute import link_dynamics as ld


def test_crossovers_at_reference_parameters():
    params = ld.from_p_mu(0.9, 0.99)
    assert comparison.throughput_crossover_tc(params, 5, 5, 0, 200, 0.5) == 35
    assert comparison.delay_crossover_tc(params, 5, 5, 0, 200, 0.5) == 30


def test_crossover_is_first_hit():
    params = ld.from_p_mu(0.9, 0.99)
    tc = comparison.throughput_crossover_tc(params, 5, 5, 0, 200, 0.5)
    assert comparison.gr_beats_scpr_throughput(params, 5, 5, tc, 0.5)
    assert not comparison.gr_beats_scpr_throughput(params, 5, 5, tc - 1, 0.5)
    td = comparison.delay_crossover_tc(params, 5, 5, 0, 200, 0.5)
    assert comparison.gr_beats_scpr_delay(params, 5, 5, td, 0.5)
    assert not comparison.gr_beats_scpr_delay(params, 5, 5, td - 1, 0.5)


def test_memoryless_greedy_wins_throughput_immediately():
    # with no memory the snapshot is worthless: the centralized bound drops
    # to the per-hop product while greedy enjoys its two-link advantage
    params = ld.from_p_mu(0.9, 0.0)
    assert comparison.throughput_crossover_tc(params, 5, 5, 0, 200, 0.5) == 0


def test_crossover_none_when_out_of_range():
    params = ld.from_p_mu(0.9, 0.99)
    assert comparison.throughput_crossover_tc(params, 5, 5, 0, 10, 0.5) is None
    assert comparison.delay_crossover_tc(params, 5, 5, 0, 10, 0.5) is None


def test_explicit_tie_break_changes_throughput_crossover():
    params = ld.from_p_mu(0.9, 0.99)
    skew = comparison.throughput_crossover_tc(params, 2, 8, 0, 200, 0.5)
    tuned = comparison.throughput_crossover_tc(params, 2, 8, 0, 200, 8 / 10)
    assert tuned is not None and skew is not None
    assert tuned <= skew  # diagonal steering can only help greedy


def first_true_oracle(pred, lo, hi):
    """Brute force over [lo, hi]: lo if pred(lo), None if pred(hi) fails,
    else the first hit."""
    if pred(lo):
        return lo
    if not pred(hi):
        return None
    return next(t for t in range(lo, hi + 1) if pred(t))


def test_first_true_matches_brute_force_on_every_pattern():
    # every predicate on up to 8 points, monotone or not
    for width in range(1, 9):
        for bits in range(1 << width):
            lo = 3
            hi = lo + width - 1
            calls = []

            def pred(t):
                calls.append(t)
                return bool(bits >> (t - lo) & 1)

            got = comparison._first_true(pred, lo, hi)
            evals = len(calls)
            assert got == first_true_oracle(pred, lo, hi)
            if got is not None:
                assert evals <= got - lo + 2


def test_first_true_evaluation_count_on_threshold():
    lo, hi = 0, 200
    for first in (0, 1, 35, 199, 200):
        calls = []

        def pred(t):
            calls.append(t)
            return t >= first

        assert comparison._first_true(pred, lo, hi) == first
        expected = 1 if first == lo else (hi - lo + 1 if first == hi else first - lo + 2)
        assert len(calls) == expected
        assert len(calls) == len(set(calls))  # no point is evaluated twice


def test_first_true_rejects_empty_range():
    with pytest.raises(ValueError):
        comparison._first_true(lambda t: True, 5, 4)
