"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line with the measured figure, then asserting it.

Each criterion whose claim ``satroute verify`` also checks calls that check's
function in ``satroute.verify`` with its own points, seeds and trial counts,
so each check's loop is written once.  Written here are the parts no
``verify`` check has (criterion 5's memoryless closed form, criterion 6's
bound >= exact, criterion 9's Monte Carlo, criterion 12's re-checked relay
inequality, criterion 13) and the single calls of criterion 2 and B(2,3).

Monte Carlo checks pin trial counts and tolerances (3 standard errors unless
stated otherwise); analytic checks pin absolute tolerances.  Figure-style
grids are desk-scale versions of the throughput/delay sweeps: availability
p = 0.9, a 100x100 torus and 2000 trials per point unless the criterion
says otherwise.
"""

import math
import time

import pytest

from oracles import trial_rng
from satroute import analytic_greedy as greedy
from satroute import analytic_scpr as scpr
from satroute import cli, verify
from satroute import link_dynamics as ld
from satroute import simulator as sim
from satroute.grid_topology import NodeCoord
from satroute.special_functions import beta_fn


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_throughput_formula_equals_dp_oracle():
    worst = verify.throughput_dp_error()
    report(1, worst <= 1e-9, f"max |formula - DP| = {worst:.3e} over 768 lattice points")


def test_criterion_02_hand_value():
    value = greedy.gr_throughput(0.9, 1, 1, 0.5)
    report(2, abs(value - 0.891) <= 1e-12, f"T(1,1; p=0.9, u=0.5) = {value!r}")


def test_criterion_03_expected_hitting_time_identity():
    worst, exact_one = verify.hitting_time_error()
    report(3, worst <= 1e-9 and exact_one,
           f"max |closed form - direct sum| = {worst:.3e}; E[min](1,1,0.5) == 1 is {exact_one}")


def test_criterion_04_bufferless_survival_product_and_network_bound():
    worst_z = verify.stylized_path_z(False, (0.0, 0.9, 0.99), {0: 40_000, 5: 40_005}, (2, 10), 10**6)
    grid_points = (
        [(mu, 5, 5) for mu in (0.0, 0.3, 0.6, 0.9, 0.99)]
        + [(0.99, t_c, 5) for t_c in (0, 10, 20, 35, 50)]
        + [(0.99, 5, xy) for xy in (1, 3, 10, 15)]
    )
    worst_excess = verify.scpr_bound_excess(grid_points, 2000, 40_100)
    report(4, worst_z <= 3.0 and worst_excess <= 3.0,
           f"stylized worst |z| = {worst_z:.2f}; network worst (mean-bound)/stderr = {worst_excess:.2f}")


def test_criterion_05_buffered_delay_recursion():
    worst_z = max(verify.stylized_path_z(True, (0.5, 0.9, 0.99), {0: 41_000, 5: 41_005}, (10,), 10**6),
                  verify.stylized_path_z(True, (0.0,), {0: 41_200, 5: 41_205}, (10,), 10**6))
    params0 = ld.from_p_mu(0.9, 0.0)
    per_hop = 1.0 + (1.0 - 0.9) / params0.epsilon2
    closed_matches = scpr.scpr_delay_recursion(params0, 10, 5) == pytest.approx(10 * per_hop, rel=1e-12)
    worst_fd = verify.dual_derivative_error(((0.9, 0.5, 0), (0.9, 0.9, 5), (0.9, 0.99, 5)), (0.0, 1.0, 2.0))
    report(5, worst_z <= 3.0 and closed_matches and worst_fd <= 1e-6,
           f"worst MC |z| = {worst_z:.2f}; memoryless closed form match = {closed_matches}; "
           f"max |dual - central difference| = {worst_fd:.2e}")


def test_criterion_06_delay_bound_dominates():
    points = [(mu, 5) for mu in (0.0, 0.3, 0.6, 0.9, 0.99)] + [(0.99, xy) for xy in range(1, 21)]
    worst_z = verify.gr_delay_bound_excess(points, 2000, 42_000)
    bound_vs_exact_ok = True
    for mu, xy in points:
        params = ld.from_p_mu(0.9, mu)
        bound = greedy.gr_delay_upper_bound(params, xy, xy)
        bound_vs_exact_ok &= bound >= greedy.gr_delay_exact_component(params, xy, xy, 0.5) - 1e-12
    report(6, worst_z <= 3.0 and bound_vs_exact_ok,
           f"worst (MC mean - bound)/stderr = {worst_z:.2f}; bound >= exact everywhere = {bound_vs_exact_ok}")


def test_criterion_07_greedy_throughput_memory_independence():
    gap, worst_z, (mean0, mean99), target = verify.gr_memory_independence(10**5, 43_000)
    report(7, gap <= 3 and worst_z <= 3,
           f"means {mean0:.5f} / {mean99:.5f} vs formula {target:.5f}; "
           f"gap/joint sigma = {gap:.2f}, formula |z| = {worst_z:.2f}")


def test_criterion_08_crossover_staleness():
    start = time.perf_counter()
    tc_thr, tc_del = verify.crossovers()
    elapsed = time.perf_counter() - start
    ok = tc_thr is not None and 33 <= tc_thr <= 38 and tc_del is not None and 29 <= tc_del <= 35
    report(8, ok and elapsed < 5.0,
           f"throughput crossover t_c = {tc_thr} (window [33, 38]); "
           f"delay crossover t_c = {tc_del} (window [29, 35]); {elapsed:.2f}s")


def test_criterion_09_memoryless_optimality():
    start = time.perf_counter()
    checks = verify.value_iteration_checks()
    converged = all(table.residual < 1e-12 for table, _, _ in checks.values())
    argmin_ok = not any(argmin for _, _, argmin in checks.values())
    ordering_failures = [(n, p, len(order)) for (n, p), (_, order, _) in checks.items() if order]

    table = checks[9, 0.6][0]
    spec = table.spec
    params = ld.from_p_mu(0.6, 0.0)
    total = total_sq = 0
    trials = 10**5
    run = sim.GrRun(spec, params, NodeCoord(3, 4))
    for i in range(trials):
        rng = trial_rng(44_000, i)
        out = sim.run_gr_trial(spec, params, run, True, sim.DETERMINISTIC, rng)
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
    failures = [(p, mu, t_c, v) for (p, mu, t_c), v in verify.path_ordering_violations().items() if v]
    report(10, not failures, f"violations: {failures or 'none'} over 8 parameter points, lengths <= 20")


def test_criterion_11_special_function_identities():
    worst_sym, worst_pascal = verify.beta_identity_errors()
    exact_beta = beta_fn(2, 3) == 1.0 / 12.0
    report(11, worst_sym <= 1e-12 and worst_pascal <= 1e-12 and exact_beta,
           f"complement max err = {worst_sym:.2e}, Pascal max err = {worst_pascal:.2e}, "
           f"B(2,3) == 1/12 is {exact_beta}")


def test_criterion_12_intermediate_relay():
    diagonal_absent, node = verify.relay_checks()
    improver_ok = False
    if node is not None:
        u, v = node
        direct = greedy.gr_throughput(0.7, 1, 10, 0.5)
        # each leg steered along its own diagonal
        via = (greedy.gr_throughput(0.7, 1 - u, 10 - v, (10 - v) / (11 - u - v))
               * greedy.gr_throughput(0.7, u, v, v / (u + v)))
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
