"""The requests each workload sends through ``satroute.cli.main``, and the
checks applied to what comes back.

Monte Carlo workloads are sweeps whose ``mc`` rows are checked against the
closed-form rows printed next to them.  ``closed_forms`` runs no Monte Carlo;
every reply is compared with a reference recorded from the program by
``record_reference.py``.
"""

from __future__ import annotations

import csv
import io
import math
import random
from dataclasses import dataclass, field

# The workloads BENCHMARK.json gates on.  scpr_lowp runs on request only: its
# cost per run follows the seed (whole-component scans of disconnected
# snapshots) and the host's memory behaviour, and its pass time moved by 17%
# between runs even in calibration units.
GATED = ("sweep_mu", "gr_far", "closed_forms")
WORKLOADS = ("sweep_mu", "scpr_lowp", "gr_far", "closed_forms")

# Trials per mc row: one request takes 50-500 ms and a pass 2-4 s on a 2-core
# x86 VM, so a 30 s run holds several passes.  scpr_lowp gives row x = y
# 320 // x trials (at least 20): its small-x rows are the cheap ones and need
# the most trials for a 1% error bar (x <= 5 needs over half of the total).
TRIALS = {"sweep_mu": 250, "scpr_lowp": 320, "gr_far": 400}
MU_VALUES = "0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.95,0.99"
X_VALUES = ",".join(str(v) for v in range(2, 21))
# --quick (self-test): two swept values per workload and fewer trials
QUICK = {"sweep_mu": (100, "0.0,0.99"), "scpr_lowp": (40, "2,3"), "gr_far": (100, "2,3")}
# The north-star defaults, pinned so that a change of CLI defaults does not
# silently change the workload.
DEFAULT_POINT = ["--p", "0.9", "--tc", "5", "--x", "5", "--y", "5", "--grid", "100x100"]

# z bands for mc rows against their closed forms, above and below.  Buffered
# delays are right-skewed: a sample that misses the rare long waits has both a
# small mean and a small stderr, so z has a far heavier lower tail than a
# normal one.  For the stylized 10-hop SCPR path at p=0.9, mu=0.99, 1250
# trials give P(z < -6) = 3e-5 (none below -7 in 32000 samples); upward
# deviations stay under 3.6 sigma.
Z_HIGH = 5.0
Z_LOW = 8.0
# Relative tolerance for floats compared with the recorded reference.  The
# reference comes from this code itself, so only a change of arithmetic order
# may move the last digits.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def mc_requests(workload: str, seed: int, quick: bool = False) -> list[list[str]]:
    """The requests of one pass of a Monte Carlo workload: one per swept value.

    Each request is a one-value ``sweep``, so that every request is timed on
    its own and its median time across passes can be taken.
    """
    trials, values = QUICK[workload] if quick else (TRIALS[workload], None)
    common = ["--trials", str(trials), "--seed", str(seed)]

    def scpr_lowp_trials(x: str) -> str:
        return str(trials if quick else max(20, trials // int(x)))

    if workload == "sweep_mu":
        return [["sweep", "--sweep", "mu", "--values", mu, *DEFAULT_POINT, "--buffered", buffered,
                 "--u", "auto", "--threads", "1", *common]
                for buffered in ("false", "true") for mu in (values or MU_VALUES).split(",")]
    if workload == "scpr_lowp":
        # mu = 0.9, not 0.99: the snapshot BFS does not depend on mu, and
        # 167-slot waits make the delay so heavy-tailed that the variance
        # behind time_to_1pct does not settle in one run.  --threads 1: with
        # 2 threads taking turns on the interpreter lock the run time follows
        # the host's scheduling (twice the run-to-run spread); the traced
        # run's thread_speedup probe measures the pool instead.
        return [["sweep", "--sweep", "x", "--values", x, "--policy", "scpr", "--p", "0.6",
                 "--mu", "0.9", "--tc", "5", "--grid", "100x100", "--buffered", "true",
                 "--threads", "1", "--trials", scpr_lowp_trials(x), "--seed", str(seed)]
                for x in (values or X_VALUES).split(",")]
    if workload == "gr_far":
        return [["sweep", "--sweep", "x", "--values", x, "--policy", "gr", "--p", "0.9",
                 "--mu", "0.99", "--grid", "100x100", "--buffered", "true", "--u", "auto",
                 "--threads", "1", *common]
                for x in (values or X_VALUES).split(",")]
    raise ValueError(f"{workload!r} is not a Monte Carlo workload")


def thread_probe_request(trials: int, threads: int) -> list[str]:
    """One scpr_lowp row (x = y = 10) as a single ``simulate`` request."""
    return ["simulate", "--policy", "scpr", "--p", "0.6", "--mu", "0.9", "--tc", "5",
            "--x", "10", "--y", "10", "--grid", "100x100", "--buffered", "true",
            "--trials", str(trials), "--seed", "7", "--threads", str(threads)]


def closed_form_requests(quick: bool = False) -> list[list[str]]:
    """All closed_forms requests in a fixed order (485, or a cheap subset).

    Distances stop at x = y = 50 (SCPR recursion depth 100, crossover depth
    99) so that a pass takes a few seconds and a run holds several passes;
    the traced run probes the recursion at depth 200 directly.
    """
    ps, mus = ("0.3", "0.6", "0.9"), ("0", "0.5", "0.9", "0.99")
    dists, tcs = ((5,), ("5",)) if quick else ((5, 15, 25, 50), ("0", "5", "35"))
    reqs = []
    for p in ps:
        for mu in mus:
            for d in dists:
                point = ["--p", p, "--mu", mu, "--x", str(d), "--y", str(d)]
                for buffered in ("false", "true"):
                    for tc in tcs:
                        reqs.append(["analytic", "--policy", "scpr", "--buffered", buffered,
                                     *point, "--tc", tc])
                    reqs.append(["analytic", "--policy", "gr", "--buffered", buffered, *point,
                                 "--u", "auto"])
                for metric in ("throughput", "delay"):
                    reqs.append(["crossover", "--metric", metric, *point])
    suites = ("crossover", "intermediate") if quick else (
        "analytic", "crossover", "ordering", "optimal", "intermediate")
    reqs.extend(["verify", suite] for suite in suites)
    return reqs


def shuffled(requests: list[list[str]], seed: int) -> list[list[str]]:
    """The seed decides the order in which the fixed request set is sent."""
    out = list(requests)
    random.Random(seed).shuffle(out)
    return out


def request_key(argv: list[str]) -> str:
    return " ".join(argv)


def timing_key(argv: list[str]) -> str:
    """The same request in every pass: the argv without its seed."""
    if "--seed" not in argv:
        return request_key(argv)
    i = argv.index("--seed")
    return request_key(argv[:i] + argv[i + 2:])


@dataclass
class CheckTally:
    attempted: int = 0
    failed: int = 0
    known_red: int = 0
    messages: list[str] = field(default_factory=list)

    def record(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


# ---------------------------------------------------------------------------
# closed_forms: compare with the recorded reference


def _floats_match(a: str, b: str) -> bool:
    try:
        fa, fb = float(a), float(b)
    except ValueError:
        return a == b
    if math.isnan(fa) or math.isnan(fb):
        return math.isnan(fa) and math.isnan(fb)
    return math.isclose(fa, fb, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _verify_line_parts(line: str) -> tuple[str, str]:
    """(PASS|FAIL, check name); the parenthesised detail is not compared."""
    status, _, rest = line.partition("  ")
    name = rest.split("  (", 1)[0]
    return status, name


def check_closed_form(tally: CheckTally, argv: list[str], rc: int, out: str, reference: dict) -> None:
    """One check per reply line; verify replies count one check per suite check.

    A verify check that prints FAIL both here and in the reference is a known
    red check: the program behaves as recorded, so it is not a failed check,
    but it is counted in ``known_red`` and so in ``fail_frac``.
    """
    key = request_key(argv)
    ref = reference.get(key)
    if ref is None:
        tally.record(False, f"no reference for {key!r}")
        return
    tally.record(rc == ref["rc"], f"{key}: exit code {rc}, reference {ref['rc']}")
    got, want = out.splitlines(), ref["lines"]
    if len(got) != len(want):
        tally.record(False, f"{key}: {len(got)} lines, reference {len(want)}")
        return
    for g, w in zip(got, want):
        if argv[0] == "verify" and w[:4] in ("PASS", "FAIL"):
            g_status, g_name = _verify_line_parts(g)
            w_status, w_name = _verify_line_parts(w)
            tally.record(g_status == w_status and g_name == w_name, f"{key}: {g!r} != {w!r}")
            if g_status == w_status == "FAIL" and g_name == w_name:
                tally.known_red += 1
            continue
        g_tok, w_tok = g.replace("=", " ").split(), w.replace("=", " ").split()
        ok = len(g_tok) == len(w_tok) and all(_floats_match(a, b) for a, b in zip(g_tok, w_tok))
        tally.record(ok, f"{key}: {g!r} != {w!r}")


# ---------------------------------------------------------------------------
# Monte Carlo workloads: mc rows against their closed forms


@dataclass
class PooledRow:
    """An mc row pooled over passes: trial count, sum and sum of squares."""

    n: int = 0
    total: float = 0.0
    total_sq: float = 0.0
    analytic: dict = field(default_factory=dict)  # claim tag -> value

    def add(self, mean: float, stderr: float, trials: int) -> None:
        var = stderr * stderr * trials  # sample variance
        self.n += trials
        self.total += mean * trials
        self.total_sq += var * (trials - 1) + trials * mean * mean

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def var(self) -> float:
        if self.n < 2:
            return 0.0
        return max(self.total_sq - self.n * self.mean ** 2, 0.0) / (self.n - 1)

    @property
    def stderr(self) -> float:
        return math.sqrt(self.var / self.n)


def parse_sweep(out: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(out)))


def pool_rows(rows_by_pass: list[list[dict]]) -> dict[tuple, PooledRow]:
    pooled: dict[tuple, PooledRow] = {}
    for rows in rows_by_pass:
        for r in rows:
            key = (r["param"], r["value"], r["policy"], r["regime"])
            row = pooled.setdefault(key, PooledRow())
            if r["kind"] == "mc":
                row.add(float(r["estimate"]), float(r["stderr"]), int(r["trials"]))
            else:
                row.analytic[r["claim"]] = float(r["estimate"])
    return pooled


# claim tag -> which side of the closed form the mc estimate must fall on
_CLAIM_SIDE = {"claim1": "upper", "claim2": "lower", "claim3": "exact", "claim4": "upper",
               "eq23": "exact"}


def check_mc_rows(tally: CheckTally, pooled: dict[tuple, PooledRow]) -> None:
    for key, row in sorted(pooled.items()):
        if row.n == 0:
            tally.record(False, f"{key}: no mc row")
            continue
        for claim, value in sorted(row.analytic.items()):
            side = _CLAIM_SIDE.get(claim)
            if side is None:
                continue  # eqEK is a hitting time, not a delay or a throughput
            tol = ABS_TOL + REL_TOL * abs(value)
            above_ok = row.mean <= value + Z_HIGH * row.stderr + tol
            below_ok = row.mean >= value - Z_LOW * row.stderr - tol
            ok = {"upper": above_ok, "lower": below_ok, "exact": above_ok and below_ok}[side]
            tally.record(ok, f"{key} {claim}: mc {row.mean:.6g} +- {row.stderr:.3g} "
                             f"vs {side} {value:.6g}")


def trials_to_1pct(pooled: dict[tuple, PooledRow]) -> float:
    """Trials each mc row needs for a 1% relative standard error, summed.

    With the pooled per-trial variance s^2 and mean m, n = s^2 / (0.01 m)^2,
    which equals trials * (stderr / (0.01 |estimate|))^2 for every row.
    """
    total = 0.0
    for row in pooled.values():
        if row.n and row.mean != 0.0:
            total += row.var / (0.01 * row.mean) ** 2
    return total
