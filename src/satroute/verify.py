"""Self-contained verification suites: independent oracles cross-checking the
analytic formulas, Monte Carlo agreement checks, and optimality checks.

Every oracle here is written from the defining process or definition, never
from the closed form it validates:

* ``analytic_greedy.gr_walk``: the lattice recursion over the four per-node
  routing cases (both links ON / one ON / none), here under a coin tie-break.
* ``expected_min_tau_direct``: sum of k * P(min = k) over ``min_tau_pmf``.
* ``quadrature_reg_inc_beta``: adaptive Simpson integration of the beta density.
* ``run_stylized_scpr_path``: Monte Carlo over SCPR's stylized path (bufferless, on claim1's own kernel).
* ``mgf_coefficients``: SCPR's A(t), B(t) and their derivatives, as ``Dual``s.

``_reg_inc_beta_row`` gives ``beta_identity_errors`` the values I_v(a, 1..30)
at one point in one pass, each bit-equal to ``reg_inc_beta``'s; it serves
that check's grid only.

Each claim is checked by one function here that returns its statistic (a
worst error, a worst z or excess in standard errors, or a list of
violations) for the points, seeds and trial counts it is given.  The suites
call them with the ``verify`` arguments and return CheckResult lists, which
the CLI ``verify`` subcommand renders, setting the exit code.  The numbered
criteria of ``tests/test_acceptance.py`` call the same functions with their
own arguments.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Callable

from . import analytic_greedy as greedy
from . import analytic_scpr as scpr
from . import comparison, simulator
from . import link_dynamics as links
from . import optimal_policies as optimal
from .grid_topology import GridSpec, NodeCoord
from .special_functions import beta_fn, reg_inc_beta


class CheckResult(namedtuple("CheckResult", "name passed detail", defaults=("",))):
    __slots__ = ()

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}" + (f"  ({self.detail})" if self.detail else "")


# ---------------------------------------------------------------------------
# independent oracles


def min_tau_pmf(x: int, y: int, w: float) -> dict[int, float]:
    """P(min(tau_x, tau_y) = k) for the i.i.d. Bernoulli(w) direction walk.

    P(tau_x = k) = C(k-1, x-1) w^(k-x) wbar^x and symmetrically for tau_y;
    the min is supported on k = min(x,y) .. x+y-1 and the two events are
    disjoint (the walk cannot exhaust both axes on the same move).
    """
    if x < 1 or y < 1:
        raise ValueError("need x >= 1 and y >= 1")
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"w={w}: need a probability in [0, 1]")
    wb = 1.0 - w
    pmf: dict[int, float] = {}
    for k in range(min(x, y), x + y):
        prob = 0.0
        if k >= x:
            prob += math.comb(k - 1, x - 1) * w ** (k - x) * wb**x
        if k >= y:
            prob += math.comb(k - 1, y - 1) * w**y * wb ** (k - y)
        pmf[k] = prob
    return pmf


def expected_min_tau_direct(x: int, y: int, w: float) -> float:
    return sum(k * prob for k, prob in min_tau_pmf(x, y, w).items())


def quadrature_reg_inc_beta(v: float, a: int, b: int) -> float:
    """I_v(a,b) by adaptive Simpson integration of t^(a-1)(1-t)^(b-1)/B(a,b)."""

    def f(t: float) -> float:
        return t ** (a - 1) * (1.0 - t) ** (b - 1)

    def simpson(lo: float, hi: float, flo: float, fmid: float, fhi: float) -> float:
        return (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)

    def adapt(lo: float, hi: float, flo: float, fmid: float, fhi: float, whole: float, eps: float) -> float:
        mid = 0.5 * (lo + hi)
        fl, fr = f(0.5 * (lo + mid)), f(0.5 * (mid + hi))
        left = simpson(lo, mid, flo, fl, fmid)
        right = simpson(mid, hi, fmid, fr, fhi)
        if abs(left + right - whole) < 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return adapt(lo, mid, flo, fl, fmid, left, eps / 2.0) + adapt(
            mid, hi, fmid, fr, fhi, right, eps / 2.0
        )

    if v <= 0.0:
        return 0.0
    mid = 0.5 * v
    whole = simpson(0.0, v, f(0.0), f(mid), f(v))
    return adapt(0.0, v, f(0.0), f(mid), f(v), whole, 1e-12) / beta_fn(a, b)  # error target 1e-12 over [0, v]


def run_stylized_scpr_path(params: links.LinkParams, path_len: int, t_c: int, buffered: bool, trials: int,
                           seed: int) -> simulator.Estimate:
    """Monte Carlo over an abstract path of ``path_len`` links, all ON at t=0.

    Link i evolves independently and is checked when the packet reaches it
    (slot t_c + i bufferless; t_c + accumulated delay buffered, then a
    Geometric(epsilon2) wait if OFF).  Bufferless estimates the delivery
    probability; buffered estimates the mean delay.  Vectorized over trials.
    """
    import numpy as np

    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    p, e2, mu = params.p, params.epsilon2, params.mu
    if buffered:
        s = np.zeros(trials, dtype=np.int64)
        for _ in range(path_len):
            p_on = p + (1.0 - p) * np.power(mu, t_c + s)
            on = rng.random(trials) < p_on
            waits = rng.geometric(e2, size=trials)
            s += 1 + np.where(on, 0, waits)
        return simulator.estimate_from_sums(int(s.sum()), int(np.dot(s, s)), trials, seed)
    ok = np.ones(trials, dtype=bool)
    for i in range(path_len):
        p_on = links.transition_prob(params, True, t_c + i)
        ok &= rng.random(trials) < p_on
    good = int(ok.sum())
    return simulator.estimate_from_sums(good, good, trials, seed)


class Dual:
    """Minimal forward-mode dual number: value + first derivative (floats or arrays)."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=0.0):
        self.v = v
        self.d = d

    def __add__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.v + other.v, self.d + other.d)

    __radd__ = __add__

    def __rsub__(self, other):
        return Dual(other - self.v, -self.d)

    def __mul__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.v * other.v, self.d * other.v + self.v * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Dual) else Dual(other)
        return Dual(self.v / other.v, (self.d * other.v - self.v * other.d) / (other.v * other.v))


def mgf_coefficients(params: links.LinkParams, t_c: int, t) -> tuple[Dual, Dual]:
    """A(t), B(t) as dual numbers (value .v, derivative in t .d); t a float or array."""
    p, e2, mu = params.p, params.epsilon2, params.mu
    m = Dual(mu**t, mu**t * math.log(mu))
    den = 1.0 - (1.0 - e2) * m
    a = (p * (1.0 - m) * m + e2 * m * m) / den
    b = (1.0 - p) * (mu**t_c) * (m * (1.0 - m)) / den
    return a, b


# ---------------------------------------------------------------------------
# checks, one per claim: each returns its statistic, and its caller decides

TORUS = GridSpec(100, 100)


def throughput_dp_error() -> float:
    """Worst |gr_throughput - gr_walk's delivery probability| over p in
    (0.3, 0.6, 0.9), x, y in 1..8 and u in (0.2, 0.5, 0.8, y/(x+y)): 768
    points.  The bufferless walk has no memory, so any mu serves."""
    worst = 0.0
    for p in (0.3, 0.6, 0.9):
        params = links.from_p_mu(p, 0.0)
        for x in range(1, 9):
            for y in range(1, 9):
                for u in (0.2, 0.5, 0.8, y / (x + y)):
                    worst = max(worst, abs(greedy.gr_throughput(p, x, y, u) - greedy.gr_walk(params, x, y, u)[1]))
    return worst


def hitting_time_error() -> tuple[float, bool]:
    """(worst |expected_min_tau - direct sum| over 1 <= x <= y <= 12 and
    w in 0.1..0.9, 1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9, whether E[min](1, 1, 0.5)
    == 1 exactly).  Near w = 0 or 1 the closed form cancels terms of size
    y/w or x/wbar down to a result below x + y."""
    ws = [i / 10 for i in range(1, 10)] + [1e-9, 1e-6, 1 - 1e-6, 1 - 1e-9]
    worst = 0.0
    for x in range(1, 13):
        for y in range(x, 13):
            for w in ws:
                worst = max(worst, abs(greedy.expected_min_tau(x, y, w) - expected_min_tau_direct(x, y, w)))
    return worst, greedy.expected_min_tau(1, 1, 0.5) == 1.0


def _reg_inc_beta_row(v: float, a: int, coefficients: list[float]) -> list[float]:
    """[I_v(a, b) for b = 1..len(coefficients)], given the floats C(k+a-1, k).

    The partial sums of reg_inc_beta's series, with its coefficients and its
    order of operations, so each value equals ``reg_inc_beta(v, a, b)``
    wherever v^a is 0.0 or a normal float and the sum stays within the float
    range: on beta_identity_errors' grid (v = i/100, a, b <= 30).
    """
    scale = v**a
    r = 1.0 - v
    row = []
    total = 0.0
    weight = 1.0  # r^k
    for coefficient in coefficients:
        total += coefficient * weight
        weight *= r
        row.append(min(scale * total, 1.0))
    return row


def beta_identity_errors() -> tuple[float, float]:
    """(worst complement error, worst Pascal error) of reg_inc_beta.

    Over a, b in 1..30 and v = i/100: |I_v(a,b) + I_{1-v}(b,a) - 1| and, for
    a, b >= 2, |I_v(a,b) - v I_v(a-1,b) - (1-v) I_v(a,b-1)|.  At each point
    the values I_v(a, 1..30) come from one row evaluation, equal to
    reg_inc_beta's value by value; the row serves both identities and is the
    next a's I_v(a-1, b).  The complement term stays pointwise, so each
    identity still compares two independent evaluations.
    """
    points = [i / 100 for i in range(0, 101)]
    shapes = range(1, 31)
    worst_sym = worst_pascal = 0.0
    above: list[list[float]] = []  # at each point, the row I_v(a-1, b) for b = 1..30
    for a in shapes:
        coefficients = [float(math.comb(k + a - 1, k)) for k in range(30)]
        rows = [_reg_inc_beta_row(v, a, coefficients) for v in points]  # rows[i][b-1] = I_v(a, b) at points[i]
        for b in shapes:
            for i, v in enumerate(points):
                value = rows[i][b - 1]
                worst_sym = max(worst_sym, abs(value + reg_inc_beta(1 - v, b, a) - 1.0))
                if a >= 2 and b >= 2:
                    rec = v * above[i][b - 1] + (1 - v) * rows[i][b - 2]
                    worst_pascal = max(worst_pascal, abs(value - rec))
        above = rows
    return worst_sym, worst_pascal


def quadrature_error() -> float:
    """Worst |reg_inc_beta - quadrature_reg_inc_beta| at five spot checks (v, a, b)."""
    return max(abs(reg_inc_beta(v, a, b) - quadrature_reg_inc_beta(v, a, b))
               for v, a, b in ((0.37, 3, 5), (0.5, 2, 2), (0.81, 6, 1), (0.12, 1, 7), (0.66, 10, 4)))


def dual_derivative_error(cases, ts) -> float:
    """Worst |dual derivative - central difference (h = 1e-6)| of the SCPR
    MGF coefficients A(t), B(t) at each (p, mu, t_c) of ``cases`` and t of ``ts``."""
    worst = 0.0
    h = 1e-6
    for p, mu, tc in cases:
        params = links.from_p_mu(p, mu)
        for t in ts:
            a, b = mgf_coefficients(params, tc, t)
            a_hi, b_hi = mgf_coefficients(params, tc, t + h)
            a_lo, b_lo = mgf_coefficients(params, tc, t - h)
            worst = max(worst, abs(a.d - (a_hi.v - a_lo.v) / (2 * h)), abs(b.d - (b_hi.v - b_lo.v) / (2 * h)))
    return worst


def delay_bound_overshoot() -> float:
    """Worst gr_delay_exact_component - gr_delay_upper_bound where the diagonal
    bias w = y/(x+y) is attainable, over p in (0.3, 0.6, 0.9), mu in
    (0.0, 0.5, 0.9) and 1 <= x <= y <= 12.

    The exact component is taken at that bias, the walk the bound describes.
    """
    worst = -math.inf
    for p in (0.3, 0.6, 0.9):
        for mu in (0.0, 0.5, 0.9):
            params = links.from_p_mu(p, mu)
            for x in range(1, 13):
                for y in range(x, 13):
                    if not greedy.shape_condition_holds(params, x, y):
                        continue  # no Stirling certificate off the attainable walks
                    exact = greedy.gr_delay_exact_component(params, x, y, y / (x + y))
                    worst = max(worst, exact - greedy.gr_delay_upper_bound(params, x, y))
    return worst


def stylized_path_z(buffered: bool, mus, seeds: dict[int, int], lengths, trials: int) -> float:
    """Worst |z| of the stylized one-path Monte Carlo at p = 0.9 against the
    survival product (bufferless) or the delay recursion (buffered).

    Over mu in ``mus``, t_c in ``seeds`` (each run seeded with ``seeds[t_c]``)
    and the path lengths in ``lengths``.
    """
    closed_form = scpr.scpr_delay_recursion if buffered else scpr.scpr_path_success_prob
    worst = 0.0
    for mu in mus:
        params = links.from_p_mu(0.9, mu)
        for tc, seed in seeds.items():
            for length in lengths:
                est = run_stylized_scpr_path(params, length, tc, buffered, trials, seed=seed)
                target = closed_form(params, length, tc)
                worst = max(worst, abs(est.mean - target) / max(est.stderr, 1e-12))
    return worst


def scpr_bound_excess(points, trials: int, seed: int) -> float:
    """Worst (network MC - claim 1's bound) / stderr of bufferless SCPR
    on the 100x100 torus at p = 0.9, over the (mu, t_c, x = y) of ``points``."""
    worst = -math.inf
    for mu, tc, xy in points:
        params = links.from_p_mu(0.9, mu)
        est = simulator.estimate(
            TORUS, params, "scpr", src=NodeCoord(xy, xy), buffered=False, t_c=tc,
            trials=trials, master_seed=seed,
        )
        bound = scpr.scpr_path_success_prob(params, 2 * xy, tc)
        worst = max(worst, (est.mean - bound) / max(est.stderr, 1e-12))
    return worst


def gr_memory_independence(trials: int, seed: int) -> tuple[float, float, tuple[float, float], float]:
    """GR bufferless throughput from (5, 5) at p = 0.9 (fair coin), mu = 0 and 0.99.

    Returns (|gap of the two means| / joint sigma, worst |z| against
    gr_throughput, the two means, gr_throughput).  The seeds differ,
    ``seed + int(mu * 100)``: each link is observed once, so a shared stream
    would make the two memory settings trivially identical.
    """
    target = greedy.gr_throughput(0.9, 5, 5, 0.5)
    ests = [
        simulator.estimate(
            TORUS, links.from_p_mu(0.9, mu), "gr", src=NodeCoord(5, 5), buffered=False,
            tie=0.5, trials=trials, master_seed=seed + int(mu * 100),
        )
        for mu in (0.0, 0.99)
    ]
    gap = abs(ests[0].mean - ests[1].mean) / math.hypot(ests[0].stderr, ests[1].stderr)
    worst_z = max(abs(est.mean - target) / est.stderr for est in ests)
    return gap, worst_z, (ests[0].mean, ests[1].mean), target


def gr_delay_bound_excess(points, trials: int, seed: int) -> float:
    """Worst (network MC - gr_delay_upper_bound) / stderr of buffered GR
    (fair coin) on the 100x100 torus at p = 0.9, over the (mu, x = y) of ``points``."""
    worst = -math.inf
    for mu, xy in points:
        params = links.from_p_mu(0.9, mu)
        est = simulator.estimate(
            TORUS, params, "gr", src=NodeCoord(xy, xy), buffered=True,
            tie=0.5, trials=trials, master_seed=seed,
        )
        bound = greedy.gr_delay_upper_bound(params, xy, xy)
        worst = max(worst, (est.mean - bound) / max(est.stderr, 1e-12))
    return worst


def crossovers() -> tuple[int | None, int | None]:
    """(throughput, delay) crossover t_c, over every t_c >= 0, for the source (5, 5)
    at p = 0.9, mu = 0.99, with the fair coin u = 0.5 and the walk w = 0.5."""
    params = links.from_p_mu(0.9, 0.99)
    gain = greedy.log_throughput_bracket(0.9, 5, 5, 0.5)
    delay = greedy.gr_delay_exact_component(params, 5, 5, 0.5)
    return (comparison.throughput_crossover_tc(params, 5, 5, gain),
            comparison.delay_crossover_tc(params, 5, 5, delay))


def path_ordering_violations() -> dict[tuple[float, float, int], list[tuple]]:
    """verify_connected_path_ordering's violations up to length 20, by
    (p, mu, t_c) for p in (0.5, 0.9), mu in (0.1, 0.9) and t_c in (0, 5)."""
    return {
        (p, mu, tc): optimal.verify_connected_path_ordering(links.from_p_mu(p, mu), tc, 20)
        for p in (0.5, 0.9)
        for mu in (0.1, 0.9)
        for tc in (0, 5)
    }


def value_iteration_checks() -> dict[tuple[int, float], tuple[optimal.ValueTable, list, list]]:
    """By (n, p), for the n x n torus, n in (9, 11), and p in (0.3, 0.6, 0.9):
    the converged table, its mean-delay ordering violations and its greedy
    argmin violations."""
    out = {}
    for n in (9, 11):
        for p in (0.3, 0.6, 0.9):
            table = optimal.value_iterate_delay(GridSpec(n, n), p)
            out[n, p] = table, optimal.check_mean_delay_ordering(table), optimal.greedy_action_violations(table)
    return out


def relay_checks() -> tuple[bool, NodeCoord | None]:
    """(no relay improves a diagonal source x = y in 2..8 at p = 0.9,
    the best throughput relay for the source (1, 10) at p = 0.7)."""
    none_ok = all(optimal.find_best_intermediate(0.9, k, k) is None for k in range(2, 9))
    return none_ok, optimal.find_best_intermediate(0.7, 1, 10)


# ---------------------------------------------------------------------------
# suites


def suite_analytic() -> list[CheckResult]:
    """Deterministic oracle identities (fast, no Monte Carlo)."""
    out = []

    worst = throughput_dp_error()
    out.append(CheckResult("greedy throughput == DP oracle (<=1e-9)", worst <= 1e-9, f"max|diff|={worst:.2e}"))

    hand = greedy.gr_throughput(0.9, 1, 1, 0.5)
    out.append(
        CheckResult(
            "hand value T(1,1;p=0.9,u=0.5) == 0.891",
            abs(hand - 0.891) <= 1e-12,
            f"value={hand!r}",
        )
    )

    worst, exact_one = hitting_time_error()
    out.append(CheckResult("E[min hitting time] closed form == direct sum (<=1e-9)", worst <= 1e-9 and exact_one,
                           f"max|diff|={worst:.2e}"))

    worst_sym, worst_pascal = beta_identity_errors()
    out.append(CheckResult("beta complement identity (<=1e-12)", worst_sym <= 1e-12, f"max|diff|={worst_sym:.2e}"))
    out.append(CheckResult("beta Pascal recurrence (<=1e-12)", worst_pascal <= 1e-12, f"max|diff|={worst_pascal:.2e}"))
    out.append(CheckResult("B(2,3) == 1/12 exactly", beta_fn(2, 3) == 1.0 / 12.0))

    worst = quadrature_error()
    out.append(CheckResult("beta tail-sum == quadrature spot checks (<=1e-9)", worst <= 1e-9, f"max|diff|={worst:.2e}"))

    worst = dual_derivative_error(((0.9, 0.9, 5), (0.7, 0.5, 0), (0.9, 0.99, 20)), (0.0, 1.0, 2.0, 5.0))
    out.append(CheckResult("dual derivatives == central differences (<=1e-6)", worst <= 1e-6, f"max|diff|={worst:.2e}"))

    worst = delay_bound_overshoot()
    out.append(CheckResult("delay upper bound dominates exact component (attainable diagonal bias)",
                           worst <= 1e-12, f"max overshoot={worst:.2e}"))

    return out


def suite_crossover() -> list[CheckResult]:
    tc_thr, tc_del = crossovers()
    return [
        CheckResult("throughput crossover in [33, 38]", tc_thr is not None and 33 <= tc_thr <= 38, f"t_c={tc_thr}"),
        CheckResult("delay crossover in [29, 35]", tc_del is not None and 29 <= tc_del <= 35, f"t_c={tc_del}"),
    ]


def suite_ordering() -> list[CheckResult]:
    return [
        CheckResult(
            f"connected-path survival strictly decreasing (p={p}, mu={mu}, t_c={tc})",
            not v,
            f"{len(v)} violations",
        )
        for (p, mu, tc), v in path_ordering_violations().items()
    ]


def suite_optimal() -> list[CheckResult]:
    """Value iteration fixed points, ordering lemma, greedy argmin attainment."""
    out = []
    for (n, p), (table, ord_v, act_v) in value_iteration_checks().items():
        out.append(
            CheckResult(
                f"value iteration converged ({n}x{n}, p={p})",
                table.residual < 1e-12,
                f"{table.iterations} sweeps, residual={table.residual:.1e}",
            )
        )
        out.append(CheckResult(f"mean-delay node ordering ({n}x{n}, p={p})", not ord_v, f"{len(ord_v)} violations"))
        out.append(CheckResult(f"greedy attains Bellman argmin ({n}x{n}, p={p})", not act_v, f"{len(act_v)} violations"))
        bd = abs(table.d_bar_at(NodeCoord(1, 0)) - 1.0 / p)
        out.append(CheckResult(f"boundary chain D(1,0) == 1/p ({n}x{n}, p={p})", bd <= 1e-9, f"|diff|={bd:.1e}"))
    return out


def suite_intermediate() -> list[CheckResult]:
    none_ok, node = relay_checks()
    return [
        CheckResult("no relay improves diagonal sources (p=0.9, x=y in 2..8)", none_ok),
        CheckResult("relay strictly improves (1,10) at p=0.7", node is not None, f"relay={node}"),
    ]


def suite_simulation(scale: float) -> list[CheckResult]:
    """Monte Carlo agreement checks (slower; ``scale`` shrinks trial counts)."""
    n_big = max(1000, int(10**6 * scale))
    n_net = max(200, int(2000 * scale))
    n_gr = max(1000, int(10**5 * scale))

    z_free = stylized_path_z(False, (0.0, 0.9, 0.99), {0: 90_001, 5: 90_001}, (2, 10), n_big)
    z_buf = stylized_path_z(True, (0.0, 0.5, 0.9, 0.99), {0: 90_002, 5: 90_002}, (10,), n_big)
    scpr_points = ((0.0, 5, 5), (0.9, 5, 5), (0.99, 5, 5), (0.99, 35, 5), (0.99, 5, 10))
    scpr_excess = scpr_bound_excess(scpr_points, n_net, 90_003)
    gap, gr_z, means, _ = gr_memory_independence(n_gr, 90_004)
    gr_points = [(mu, 5) for mu in (0.0, 0.5, 0.9, 0.99)]
    gr_excess = gr_delay_bound_excess(gr_points, n_net, 90_005)
    return [
        CheckResult("stylized bufferless MC matches survival product (3 sigma)", z_free <= 3.0, f"worst z={z_free:.2f}"),
        CheckResult("stylized buffered MC matches delay recursion (3 sigma)", z_buf <= 3.0, f"worst z={z_buf:.2f}"),
        CheckResult("network SCPR throughput <= analytic bound + 3 sigma", scpr_excess <= 3.0,
                    f"worst excess={scpr_excess:.2f} of {len(scpr_points)} points"),
        CheckResult("greedy throughput memory-independent and matches formula (3 sigma)", gap <= 3.0 and gr_z <= 3.0,
                    f"gap={gap:.2f}, worst z={gr_z:.2f} of {len(means)} points"),
        CheckResult("greedy delay bound >= network MC - 3 sigma", gr_excess <= 3.0,
                    f"worst excess={gr_excess:.2f} of {len(gr_points)} points"),
    ]


SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "analytic": suite_analytic,
    "crossover": suite_crossover,
    "ordering": suite_ordering,
    "optimal": suite_optimal,
    "intermediate": suite_intermediate,
    "simulation": suite_simulation,
}
