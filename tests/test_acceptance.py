"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured figure, then asserting it.

Monte Carlo checks pin trial counts and tolerances (3 standard errors unless
stated otherwise); analytic checks pin absolute tolerances.  Figure-style
grids are desk-scale versions of the throughput/delay sweeps: availability
p = 0.9, a 100x100 torus and 2000 trials per point unless the criterion
says otherwise.
"""

import math
import time

import pytest

from satroute import analytic_greedy as greedy
from satroute import analytic_scpr as scpr
from satroute import cli, comparison
from satroute import link_dynamics as ld
from satroute import optimal_policies as op
from satroute import simulator as sim
from satroute.grid_topology import GridSpec, NodeCoord
from satroute.special_functions import beta_fn, reg_inc_beta
from satroute.verify import dp_throughput, expected_min_tau_direct

TORUS = GridSpec(100, 100)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_throughput_formula_equals_dp_oracle():
    worst = 0.0
    for p in (0.3, 0.6, 0.9):
        for x in range(1, 9):
            for y in range(1, 9):
                for u in (0.2, 0.5, 0.8, y / (x + y)):
                    diff = abs(greedy.gr_throughput(p, x, y, u) - dp_throughput(p, x, y, u))
                    worst = max(worst, diff)
    report(1, worst <= 1e-9, f"max |formula - DP| = {worst:.3e} over 768 lattice points")


def test_criterion_02_hand_value():
    value = greedy.gr_throughput(0.9, 1, 1, 0.5)
    report(2, abs(value - 0.891) <= 1e-12, f"T(1,1; p=0.9, u=0.5) = {value!r}")


def test_criterion_03_expected_hitting_time_identity():
    worst = 0.0
    for x in range(1, 13):
        for y in range(x, 13):
            for w in [i / 10 for i in range(1, 10)]:
                diff = abs(greedy.expected_min_tau(x, y, w) - expected_min_tau_direct(x, y, w))
                worst = max(worst, diff)
    exact_one = greedy.expected_min_tau(1, 1, 0.5) == 1.0
    report(3, worst <= 1e-9 and exact_one,
           f"max |closed form - direct sum| = {worst:.3e}; E[min](1,1,0.5) == 1 is {exact_one}")


def test_criterion_04_bufferless_survival_product_and_network_bound():
    worst_z = 0.0
    for mu in (0.0, 0.9, 0.99):
        params = ld.from_p_mu(0.9, mu)
        for t_c in (0, 5):
            for length in (2, 10):
                est = sim.run_stylized_scpr_path(params, length, t_c, False, 10**6, seed=40_000 + t_c)
                target = scpr.scpr_path_success_prob(params, length, t_c)
                if est.stderr == 0.0:
                    assert est.mean == target == 1.0
                    continue
                worst_z = max(worst_z, abs(est.mean - target) / est.stderr)
    stylized_ok = worst_z <= 3.0

    grid_points = (
        [(mu, 5, 5) for mu in (0.0, 0.3, 0.6, 0.9, 0.99)]
        + [(0.99, t_c, 5) for t_c in (0, 10, 20, 35, 50)]
        + [(0.99, 5, xy) for xy in (1, 3, 10, 15)]
    )
    worst_excess = -math.inf
    for mu, t_c, xy in grid_points:
        params = ld.from_p_mu(0.9, mu)
        est = sim.estimate(TORUS, params, "scpr", src=NodeCoord(xy, xy), buffered=False,
                           t_c=t_c, trials=2000, master_seed=40_100)
        bound = scpr.scpr_throughput_bound(params, xy, xy, t_c)
        worst_excess = max(worst_excess, (est.mean - bound) / est.stderr)
    network_ok = worst_excess <= 3.0
    report(4, stylized_ok and network_ok,
           f"stylized worst |z| = {worst_z:.2f}; network worst (mean-bound)/stderr = {worst_excess:.2f}")


def test_criterion_05_buffered_delay_recursion():
    worst_z = 0.0
    for mu in (0.5, 0.9, 0.99):
        params = ld.from_p_mu(0.9, mu)
        for t_c in (0, 5):
            est = sim.run_stylized_scpr_path(params, 10, t_c, True, 10**6, seed=41_000 + t_c)
            target = scpr.scpr_delay_recursion(params, 10, t_c)
            worst_z = max(worst_z, abs(est.mean - target) / est.stderr)
    params0 = ld.from_p_mu(0.9, 0.0)
    per_hop = 1.0 + (1.0 - 0.9) / params0.epsilon2
    closed_matches = scpr.scpr_delay_recursion(params0, 10, 5) == pytest.approx(10 * per_hop, rel=1e-12)
    for t_c in (0, 5):
        est = sim.run_stylized_scpr_path(params0, 10, t_c, True, 10**6, seed=41_200 + t_c)
        target = scpr.scpr_delay_recursion(params0, 10, t_c)
        worst_z = max(worst_z, abs(est.mean - target) / est.stderr)

    worst_fd = 0.0
    h = 1e-6
    for p, mu, t_c in ((0.9, 0.5, 0), (0.9, 0.9, 5), (0.9, 0.99, 5)):
        params = ld.from_p_mu(p, mu)
        for t in (0.0, 1.0, 2.0):
            a, b = scpr.mgf_coefficients(params, t_c, t)
            a_hi, b_hi = scpr.mgf_coefficients(params, t_c, t + h)
            a_lo, b_lo = scpr.mgf_coefficients(params, t_c, t - h)
            worst_fd = max(worst_fd, abs(a.d - (a_hi.v - a_lo.v) / (2 * h)),
                           abs(b.d - (b_hi.v - b_lo.v) / (2 * h)))
    report(5, worst_z <= 3.0 and closed_matches and worst_fd <= 1e-6,
           f"worst MC |z| = {worst_z:.2f}; memoryless closed form match = {closed_matches}; "
           f"max |dual - central difference| = {worst_fd:.2e}")


def test_criterion_06_delay_bound_dominates():
    points = [(mu, 5) for mu in (0.0, 0.3, 0.6, 0.9, 0.99)] + [(0.99, xy) for xy in range(1, 21)]
    worst_z = -math.inf
    bound_vs_exact_ok = True
    for mu, xy in points:
        params = ld.from_p_mu(0.9, mu)
        bound = greedy.gr_delay_upper_bound(params, xy, xy)
        exact = greedy.gr_delay_exact_component(params, xy, xy, bound.w)
        bound_vs_exact_ok &= bound.value >= exact - 1e-12
        est = sim.estimate(TORUS, params, "gr", src=NodeCoord(xy, xy), buffered=True,
                           tie=greedy.TieBreak(0.5), trials=2000, master_seed=42_000)
        worst_z = max(worst_z, (est.mean - bound.value) / est.stderr)
    report(6, worst_z <= 3.0 and bound_vs_exact_ok,
           f"worst (MC mean - bound)/stderr = {worst_z:.2f}; bound >= exact everywhere = {bound_vs_exact_ok}")


def test_criterion_07_greedy_throughput_memory_independence():
    target = greedy.gr_throughput(0.9, 5, 5, 0.5)
    estimates = []
    for mu in (0.0, 0.99):
        # distinct seeds: bufferless trials observe each link exactly once, so
        # a shared stream would make the two runs trivially identical
        params = ld.from_p_mu(0.9, mu)
        estimates.append(sim.estimate(TORUS, params, "gr", src=NodeCoord(5, 5), buffered=False,
                                      tie=greedy.TieBreak(0.5), trials=10**5,
                                      master_seed=43_000 + int(mu * 100)))
    joint = math.hypot(estimates[0].stderr, estimates[1].stderr)
    gap = abs(estimates[0].mean - estimates[1].mean)
    z0 = abs(estimates[0].mean - target) / estimates[0].stderr
    z1 = abs(estimates[1].mean - target) / estimates[1].stderr
    report(7, gap <= 3 * joint and z0 <= 3 and z1 <= 3,
           f"means {estimates[0].mean:.5f} / {estimates[1].mean:.5f} vs formula {target:.5f}; "
           f"gap/joint sigma = {gap / joint:.2f}, formula |z| = {max(z0, z1):.2f}")


def test_criterion_08_crossover_staleness():
    start = time.perf_counter()
    params = ld.from_p_mu(0.9, 0.99)
    tc_thr = comparison.throughput_crossover_tc(params, 5, 5)
    tc_del = comparison.delay_crossover_tc(params, 5, 5)
    elapsed = time.perf_counter() - start
    ok = tc_thr is not None and 33 <= tc_thr <= 38 and tc_del is not None and 29 <= tc_del <= 35
    report(8, ok and elapsed < 5.0,
           f"throughput crossover t_c = {tc_thr} (window [33, 38]); "
           f"delay crossover t_c = {tc_del} (window [29, 35]); {elapsed:.2f}s")


def test_criterion_09_memoryless_optimality():
    start = time.perf_counter()
    converged = True
    argmin_ok = True
    ordering_failures = []
    for n in (9, 11):
        spec = GridSpec(n, n)
        for p in (0.3, 0.6, 0.9):
            table = op.value_iterate_delay(spec, p, tol=1e-12)
            converged &= table.residual < 1e-12
            argmin_ok &= not op.greedy_action_violations(table)
            violations = op.check_mean_delay_ordering(table)
            if violations:
                ordering_failures.append((n, p, len(violations)))

    spec = GridSpec(9, 9)
    p = 0.6
    table = op.value_iterate_delay(spec, p, tol=1e-12)
    params = ld.from_p_mu(p, 0.0)
    total = total_sq = 0
    trials = 10**5
    for i in range(trials):
        rng = sim.trial_rng(44_000, i)
        state = sim.NetworkState(spec, params, rng)
        out = sim.run_gr_trial(state, NodeCoord(3, 4), True, sim.DETERMINISTIC, rng)
        total += out.delay
        total_sq += out.delay * out.delay
    mean = total / trials
    stderr = math.sqrt((total_sq - total * total / trials) / (trials - 1) / trials)
    mc_z = abs(mean - table.d_bar_at(NodeCoord(3, 4))) / stderr
    elapsed = time.perf_counter() - start

    report(
        9,
        converged and argmin_ok and not ordering_failures and mc_z <= 3.0 and elapsed < 30.0,
        f"converged={converged}, greedy argmin ok={argmin_ok}, "
        f"ordering violations={ordering_failures or 'none'} "
        f"(axis nodes pay 1/p per hop and overtake nearer-diagonal nodes at low p; "
        f"D(3,0)=3/p > D(2,2) is exact), MC |z|={mc_z:.2f}, {elapsed:.1f}s",
    )


def test_criterion_10_connected_path_ordering():
    failures = []
    for p in (0.5, 0.9):
        for mu in (0.1, 0.9):
            params = ld.from_p_mu(p, mu)
            for t_c in (0, 5):
                v = op.verify_connected_path_ordering(params, t_c, 20)
                if v:
                    failures.append((p, mu, t_c, v))
    report(10, not failures, f"violations: {failures or 'none'} over 8 parameter points, lengths <= 20")


def test_criterion_11_special_function_identities():
    worst_sym = worst_pascal = 0.0
    for a in range(1, 31):
        for b in range(1, 31):
            for i in range(0, 101):
                v = i / 100
                worst_sym = max(worst_sym, abs(reg_inc_beta(v, a, b) + reg_inc_beta(1 - v, b, a) - 1.0))
                if a >= 2 and b >= 2:
                    rec = v * reg_inc_beta(v, a - 1, b) + (1 - v) * reg_inc_beta(v, a, b - 1)
                    worst_pascal = max(worst_pascal, abs(reg_inc_beta(v, a, b) - rec))
    exact_beta = beta_fn(2, 3) == 1.0 / 12.0
    report(11, worst_sym <= 1e-12 and worst_pascal <= 1e-12 and exact_beta,
           f"complement max err = {worst_sym:.2e}, Pascal max err = {worst_pascal:.2e}, "
           f"B(2,3) == 1/12 is {exact_beta}")


def test_criterion_12_intermediate_relay():
    diagonal_absent = all(
        op.find_best_intermediate(0.9, k, k, "throughput") is None for k in range(2, 9)
    )
    node = op.find_best_intermediate(0.7, 1, 10, "throughput")
    improver_ok = False
    if node is not None:
        u, v = node
        direct = greedy.gr_throughput(0.7, 1, 10, 0.5)
        via = greedy.gr_throughput(0.7, 1 - u, 10 - v) * greedy.gr_throughput(0.7, u, v)
        improver_ok = via > direct
    report(12, diagonal_absent and improver_ok,
           f"diagonal sources give no relay = {diagonal_absent}; "
           f"relay for (1,10) at p=0.7 = {tuple(node) if node else None}, inequality re-verified = {improver_ok}")


def test_criterion_13_sweep_determinism(tmp_path):
    args = ["sweep", "--sweep", "mu", "--values", "0.0,0.5,0.99", "--buffered", "false",
            "--grid", "50x50", "--trials", "400", "--seed", "1234", "--x", "4", "--y", "4"]
    blobs = []
    for name, threads in (("run1.csv", "1"), ("run2.csv", "1"), ("run8.csv", "8")):
        path = tmp_path / name
        assert cli.main(args + ["--threads", threads, "--out", str(path)]) == 0
        blobs.append(path.read_bytes())
    identical = blobs[0] == blobs[1] == blobs[2]
    report(13, identical,
           f"byte-identical CSV across repeated runs and thread counts 1/8 = {identical} "
           f"({len(blobs[0])} bytes)")
