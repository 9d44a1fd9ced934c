"""satroute: analytic evaluation, simulation, sweeps, crossovers, verification.

Subcommands
    analytic   evaluate the closed-form quantity selected by --policy/--buffered
    simulate   Monte Carlo estimate for one configuration
    sweep      CSV over a grid of one parameter (mu | tc | x), both policies
    crossover  smallest t_c at which greedy routing beats the centralized policy
    verify     run named verification suites; exit 1 on any failure

Common flags: --p --mu --tc --x --y --grid NxM --policy --buffered --u
--trials --seed --threads --out --config.  A config file holds key=value
lines with the same names; explicit flags override it.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Optional

from . import analytic_greedy as greedy
from . import analytic_scpr as scpr
from . import comparison, simulator, verify
from . import link_dynamics as links
from .grid_topology import GridSpec, NodeCoord
from .simulator import DETERMINISTIC, _mix64

CSV_HEADER = ["param", "value", "policy", "regime", "metric", "kind",
              "estimate", "stderr", "trials", "seed", "claim"]

DEFAULTS = {
    "p": 0.9, "mu": 0.99, "tc": 5, "x": 5, "y": 5,
    "grid": "100x100", "u": "auto", "trials": 2000, "seed": 2024,
    "threads": 1, "buffered": "false",
}

SWEEP_VALUES = {
    "mu": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99],
    "tc": list(range(0, 55, 5)),
    "x": list(range(1, 21)),
}

_CONVERT = {
    "p": float, "mu": float, "tc": int, "x": int, "y": int,
    "grid": str, "u": str, "trials": int, "seed": int, "threads": int,
    "buffered": str, "policy": str, "metric": str, "sweep": str,
    "values": str, "out": str, "tc_min": int, "tc_max": int, "scale": float,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _read_config(args.config) if getattr(args, "config", None) else {}

    def opt(name: str, fallback=None):
        v = getattr(args, name, None)
        if v is not None:
            return v
        if name in cfg:
            return _CONVERT.get(name, str)(cfg[name])
        if fallback is not None:
            return fallback
        return DEFAULTS.get(name)

    try:
        return args.handler(args, opt)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="satroute", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, policy_required=False):
        sp.add_argument("--p", type=float, default=None, help="steady-state ON probability")
        sp.add_argument("--mu", type=float, default=None, help="memory parameter in [0, 1)")
        sp.add_argument("--tc", type=int, default=None, help="snapshot staleness in slots")
        sp.add_argument("--x", type=int, default=None, help="source x distance")
        sp.add_argument("--y", type=int, default=None, help="source y distance")
        sp.add_argument("--grid", type=str, default=None, help="torus size NxM, e.g. 100x100")
        sp.add_argument("--policy", choices=["scpr", "gr"], default=None,
                        required=policy_required)
        sp.add_argument("--buffered", choices=["true", "false"], default=None)
        sp.add_argument("--u", type=str, default=None,
                        help="tie-break: float, 'auto' (= y/(x+y)) or 'deterministic'")
        sp.add_argument("--trials", type=int, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: trials run in one thread, and the "
                             "output is the same for any value")
        sp.add_argument("--out", type=str, default=None, help="CSV output path")
        sp.add_argument("--config", type=str, default=None, help="key=value config file")

    sp = sub.add_parser("analytic", help="evaluate closed-form quantities")
    common(sp, policy_required=True)
    sp.set_defaults(handler=cmd_analytic)

    sp = sub.add_parser("simulate", help="Monte Carlo estimate for one configuration")
    common(sp, policy_required=True)
    sp.set_defaults(handler=cmd_simulate)

    sp = sub.add_parser("sweep", help="CSV sweep over mu, tc or x (analytic + MC rows)")
    common(sp)
    sp.add_argument("--sweep", choices=["mu", "tc", "x"], required=True)
    sp.add_argument("--values", type=str, default=None, help="comma-separated grid override")
    sp.set_defaults(handler=cmd_sweep)

    sp = sub.add_parser("crossover", help="smallest t_c where greedy routing wins")
    common(sp)
    sp.add_argument("--metric", choices=["throughput", "delay"], required=True)
    sp.add_argument("--tc-min", dest="tc_min", type=int, default=None)
    sp.add_argument("--tc-max", dest="tc_max", type=int, default=None)
    sp.set_defaults(handler=cmd_crossover)

    sp = sub.add_parser("verify", help="run verification suites")
    sp.add_argument("suite", nargs="?", default="all",
                    help=f"one of {sorted(verify.SUITES)} or 'all'")
    sp.add_argument("--scale", type=float, default=None,
                    help="trial-count multiplier for the simulation suite")
    sp.add_argument("--config", type=str, default=None)
    sp.set_defaults(handler=cmd_verify)

    return parser


def _read_config(path: str) -> dict[str, str]:
    cfg = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    return cfg


def _parse_grid(text: str) -> GridSpec:
    try:
        n, m = (int(part) for part in text.lower().split("x"))
    except Exception as exc:
        raise ValueError(f"--grid wants NxM, got {text!r}") from exc
    return GridSpec(n, m)


def _tie(u_text: str, x: int, y: int):
    if u_text == "deterministic":
        return DETERMINISTIC
    if u_text == "auto":
        return greedy.recommended_u(x, y)
    return greedy.TieBreak(float(u_text))


def _analytic_rows(policy: str, buffered: bool, params, x: int, y: int, tc: int, u_text: str):
    """(quantity, claim tag, value) triples for one configuration."""
    if policy == "scpr":
        if buffered:
            return [("scpr_delay_lower_bound", "claim2", scpr.scpr_delay_lower_bound(params, x, y, tc))]
        return [("scpr_throughput_bound", "claim1", scpr.scpr_throughput_bound(params, x, y, tc))]
    # the deterministic tie-break has no closed form; its analytic reference
    # curve is the diagonal-steering formula
    u = greedy.recommended_u(x, y).u if u_text in ("auto", "deterministic") else float(u_text)
    if buffered:
        w = y / (x + y)
        return [
            ("gr_delay_upper_bound", "claim4", greedy.gr_delay_upper_bound(params, x, y).value),
            ("gr_delay_exact_component", "eq23", greedy.gr_delay_exact_component(params, x, y, w)),
            ("expected_min_tau", "eqEK", greedy.expected_min_tau(x, y, w)),
        ]
    return [("gr_throughput", "claim3", greedy.gr_throughput(params.p, x, y, u))]


def cmd_analytic(args, opt) -> int:
    params = links.from_p_mu(opt("p"), opt("mu"))
    buffered = opt("buffered") == "true"
    for name, claim, value in _analytic_rows(args.policy, buffered, params,
                                             opt("x"), opt("y"), opt("tc"), opt("u")):
        print(f"{name} {claim} {value!r}")
    return 0


def cmd_simulate(args, opt) -> int:
    params = links.from_p_mu(opt("p"), opt("mu"))
    spec = _parse_grid(opt("grid"))
    buffered = opt("buffered") == "true"
    x, y = opt("x"), opt("y")
    est = simulator.estimate(
        spec, params, args.policy, src=NodeCoord(x, y), buffered=buffered,
        t_c=opt("tc"), tie=_tie(opt("u"), x, y), trials=opt("trials"),
        master_seed=opt("seed"), threads=opt("threads"),
    )
    metric = "delay" if buffered else "throughput"
    print(f"policy={args.policy} regime={'buffered' if buffered else 'bufferless'} "
          f"metric={metric} mean={est.mean!r} stderr={est.stderr!r} "
          f"trials={est.trials} seed={est.seed}")
    out = opt("out")
    if out:
        row = ["", "", args.policy, "buffered" if buffered else "bufferless", metric,
               "mc", repr(est.mean), repr(est.stderr), str(est.trials), str(est.seed), ""]
        _append_csv(out, [row])
        print(f"wrote {out}")
    return 0


def cmd_sweep(args, opt) -> int:
    swept = args.sweep
    if args.values is not None:
        conv = float if swept == "mu" else int
        values = [conv(tok) for tok in args.values.split(",") if tok.strip()]
    else:
        values = SWEEP_VALUES[swept]
    spec = _parse_grid(opt("grid"))
    buffered = opt("buffered") == "true"
    metric = "delay" if buffered else "throughput"
    policies = [args.policy] if args.policy else ["scpr", "gr"]
    base = dict(p=opt("p"), mu=opt("mu"), tc=opt("tc"), x=opt("x"), y=opt("y"))
    trials, seed, threads, u_text = opt("trials"), opt("seed"), opt("threads"), opt("u")

    rows = []
    mc_counter = 0
    for value in values:
        fixed = dict(base)
        if swept == "mu":
            fixed["mu"] = value
        elif swept == "tc":
            fixed["tc"] = value
        else:
            fixed["x"] = fixed["y"] = value  # distance sweeps keep x == y
        params = links.from_p_mu(fixed["p"], fixed["mu"])
        x, y, tc = fixed["x"], fixed["y"], fixed["tc"]
        for policy in policies:
            for _, claim, analytic_value in _analytic_rows(policy, buffered, params, x, y, tc, u_text):
                rows.append([swept, repr(value), policy, "buffered" if buffered else "bufferless",
                             metric, "analytic", repr(analytic_value), "", "", "", claim])
            mc_counter += 1
            row_seed = _mix64(seed ^ _mix64(mc_counter))
            est = simulator.estimate(
                spec, params, policy, src=NodeCoord(x, y), buffered=buffered,
                t_c=tc, tie=_tie(u_text, x, y), trials=trials,
                master_seed=row_seed, threads=threads,
            )
            rows.append([swept, repr(value), policy, "buffered" if buffered else "bufferless",
                         metric, "mc", repr(est.mean), repr(est.stderr),
                         str(est.trials), str(est.seed), ""])
    out = opt("out")
    if out:
        _write_csv(out, rows)
        print(f"wrote {out} ({len(rows)} rows)")
    else:
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    return 0


def cmd_crossover(args, opt) -> int:
    params = links.from_p_mu(opt("p"), opt("mu"))
    x, y = opt("x"), opt("y")
    lo, hi = opt("tc_min", 0), opt("tc_max", 200)
    if args.metric == "throughput":
        u_text = opt("u")
        u = None if u_text in ("auto", "deterministic") else float(u_text)
        tc = comparison.throughput_crossover_tc(params, x, y, lo, hi, u)
    else:
        tc = comparison.delay_crossover_tc(params, x, y, lo, hi)
    print(f"crossover_tc={tc if tc is not None else 'none'}")
    return 0


def cmd_verify(args, opt) -> int:
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    scale = args.scale if args.scale is not None else 1.0
    results = []
    for name in names:
        if name == "simulation":
            results.extend(verify.suite_simulation(scale))
        else:
            results.extend(verify.run_suites([name]))
    for res in results:
        print(res.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def _write_csv(path: str, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)


def _append_csv(path: str, rows: list[list[str]]) -> None:
    import os

    fresh = not os.path.exists(path)
    with open(path, "a", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if fresh:
            writer.writerow(CSV_HEADER)
        writer.writerows(rows)


if __name__ == "__main__":
    sys.exit(main())
