"""satroute benchmark: closed-loop CLI requests, output checks, metrics.

    python3 perfbench/run.py --workload sweep_mu --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client sends the workload's requests one after another, in this process,
through ``satroute.cli.main(argv)``; the requests of one workload form a pass,
and passes repeat (each with its own seed derived from ``--seed``) until
``--seconds`` would be exceeded.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` runs one untraced and one traced pass of the same seed and
reports the per-layer metrics (see ``layers.py``).  The last line of standard
output is one JSON object; a fuller record goes to ``perfbench/out/``.  The
exit code is 1 when any output check fails.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import random
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference" / "closed_forms.json"

sys.path.insert(0, str(SRC))

import workloads as wl  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_cal": "cal", "time_to_1pct_cal": "cal", "peak_rss_mb": "MB"}
CAL_EVERY_S = 0.4  # calibrate before a request once this long has passed
# The calibration job's time on a 2-vCPU Xeon VM while the host is idle:
# setup_s is reported in seconds at that speed (see setup_samples).
CAL_REF_S = 0.017
SETUP_CHILDREN = 14
# The z-band checks pool the mc rows of all passes; three passes give each
# sweep_mu and gr_far row at least 750 trials (see workloads.Z_LOW).
MIN_PASSES = 3
THREAD_PROBE_TRIALS = 150
# The first request of a fresh process builds the lazy 100x100 grid tables.
WARMUP = ["simulate", "--policy", "scpr", "--trials", "1", "--seed", "0"]
SETUP_CODE = """
import contextlib, io, json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from satroute.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(json.loads(sys.argv[2]))
print(time.perf_counter() - t0)
"""


@dataclass
class Reply:
    argv: list[str]
    seconds: float
    rc: int
    out: str
    cal: float = math.nan  # calibration time around this request (timed runs)


def calibration_seconds() -> float:
    """Time a fixed pure-Python job: BFS over a random 100x100 torus.

    On a shared host each vCPU switches, every second or few, between full
    speed and about half speed (this job takes 16-18 ms or 30-38 ms on a
    2-vCPU Xeon VM), and satroute's own code slows down with it.  The job
    (link states in a dict, a visited bytearray and a parent list over 10^4
    nodes, like satroute's snapshot BFS) therefore runs on the same CPU as
    the measured code, just before and after it, and the gated times are
    divided by the mean of those two calibration times.
    """
    rng = random.Random(12345)
    n = 100
    t0 = perf_counter()
    state: dict[int, bool] = {}
    seen = bytearray(n * n)
    seen[0] = 1
    parent = [-1] * (n * n)
    queue = deque([0])
    while queue:
        node = queue.popleft()
        x, y = divmod(node, n)
        for d, (dx, dy) in enumerate(((1, 0), (0, 1), (-1, 0), (0, -1))):
            nxt = ((x + dx) % n) * n + (y + dy) % n
            link = node * 4 + d
            on = state.get(link)
            if on is None:
                on = state[link] = rng.random() < 0.7
            if on and not seen[nxt]:
                seen[nxt] = 1
                parent[nxt] = link
                queue.append(nxt)
    return perf_counter() - t0


def setup_here() -> float:
    """Import satroute and send the warm-up request in this process."""
    t0 = perf_counter()
    import satroute
    from satroute.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        main(WARMUP)
    elapsed = perf_counter() - t0
    if not Path(satroute.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"satroute was imported from {satroute.__file__}, not from {SRC}")
    return elapsed


def setup_in_child() -> float:
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), json.dumps(WARMUP)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def setup_samples() -> list[tuple[float, float]]:
    """(set-up wall time, mean calibration time around it) for every set-up.

    One set-up in this process, then SETUP_CHILDREN in fresh child processes.
    """
    samples = []
    for setup in [setup_here] + [setup_in_child] * SETUP_CHILDREN:
        before = calibration_seconds()
        seconds = setup()
        samples.append((seconds, (before + calibration_seconds()) / 2))
    return samples


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, the last one allowed.

    The requests, the set-ups and the calibration job then share one CPU's
    speed changes, and a set-up's numpy import starts one BLAS thread.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})


def send(argv: list[str]) -> Reply:
    from satroute.cli import main

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return Reply(argv, perf_counter() - t0, rc, out.getvalue())


def pass_requests(workload: str, seed: int, k: int, quick: bool) -> list[list[str]]:
    """Requests of pass k; pass seeds are derived from the workload seed."""
    if workload == "closed_forms":
        return wl.shuffled(wl.closed_form_requests(quick), seed * 1000 + k)
    return wl.mc_requests(workload, seed * 1000 + k, quick)


def run_passes(workload, seed, seconds, quick, send_one, max_passes=None,
               calibrations=None) -> list[list[Reply]]:
    """At least MIN_PASSES passes, more while the next one fits in ``seconds``.

    With a ``calibrations`` list, the calibration job runs before a request
    whenever CAL_EVERY_S has passed since it last ran, and once after the
    last request; its times are appended there, and each reply's ``cal`` is
    the mean of the calibrations just before and just after it.
    """
    passes = []
    between = []  # per reply: index of the calibration before it
    t0 = perf_counter()
    last_cal = -math.inf
    while True:
        replies = []
        for argv in pass_requests(workload, seed, len(passes), quick):
            if calibrations is not None and perf_counter() - last_cal >= CAL_EVERY_S:
                calibrations.append(calibration_seconds())
                last_cal = perf_counter()
            replies.append(send_one(argv))
            if calibrations is not None:
                between.append((replies[-1], len(calibrations) - 1))
        passes.append(replies)
        elapsed = perf_counter() - t0
        if (max_passes is not None and len(passes) >= max_passes) or (
                len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds):
            break
    if calibrations is not None:
        calibrations.append(calibration_seconds())
        for reply, i in between:
            reply.cal = (calibrations[i] + calibrations[i + 1]) / 2
    return passes


def check_passes(workload: str, passes: list[list[Reply]], reference: dict | None,
                 mc_rows: bool = True) -> tuple:
    """Apply the output checks; returns (tally, pooled mc rows or None).

    ``mc_rows=False`` skips the z-band checks: they need the trials of
    several passes with distinct seeds (the delays are so right-skewed that a
    single 250-trial row falls 4 sigma short of its closed form about once
    in 150 rows).
    """
    tally = wl.CheckTally()
    if workload == "closed_forms":
        for replies in passes:
            for r in replies:
                wl.check_closed_form(tally, r.argv, r.rc, r.out, reference)
        return tally, None
    rows_by_pass = []
    for replies in passes:
        rows = []
        for r in replies:
            tally.record(r.rc == 0, f"{' '.join(r.argv)}: exit code {r.rc}")
            rows.extend(wl.parse_sweep(r.out))
        rows_by_pass.append(rows)
    pooled = wl.pool_rows(rows_by_pass)
    if mc_rows:
        wl.check_mc_rows(tally, pooled)
    return tally, pooled


def check_same_bytes(tally: wl.CheckTally, first: Reply, again: Reply) -> None:
    tally.record(first.out == again.out and first.rc == again.rc,
                 f"same-seed rerun differs: {' '.join(first.argv)}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def trials_in(replies: list[Reply]) -> int:
    return sum(int(row["trials"]) for r in replies for row in wl.parse_sweep(r.out)
               if row["kind"] == "mc")


def request_times(passes: list[list[Reply]], in_cal: bool = False) -> dict[str, float]:
    """Each request's median time over the run's passes, in seconds or in cal."""
    samples: dict[str, list[float]] = {}
    for replies in passes:
        for r in replies:
            samples.setdefault(wl.timing_key(r.argv), []).append(
                r.seconds / r.cal if in_cal else r.seconds)
    return {key: statistics.median(times) for key, times in samples.items()}


def end_to_end(passes, pooled, setups, calibrations) -> tuple[dict, dict]:
    """(gated metrics, figures printed but not gated)."""
    per_request = list(request_times(passes).values())
    wall = sum(per_request)
    wall_cal = sum(request_times(passes, in_cal=True).values())
    time_to_1pct = wall  # closed forms are exact: the answer is final
    time_to_1pct_cal = wall_cal
    cal = statistics.median(calibrations)
    extra = {"wall_s": wall, "cal_s": cal, "calibrations": len(calibrations),
             "setup_raw_s": statistics.median(seconds for seconds, _ in setups),
             "request_s_p50": statistics.median(per_request),
             "request_s_p95": percentile(per_request, 0.95),
             "requests_per_pass": len(per_request),
             "pass_walls_s": [sum(r.seconds for r in replies) for replies in passes]}
    if pooled is not None:
        trials_per_s = trials_in(passes[0]) / wall
        time_to_1pct = wl.trials_to_1pct(pooled) / trials_per_s
        time_to_1pct_cal = time_to_1pct * wall_cal / wall
        extra["trials_per_s"] = trials_per_s
    extra["time_to_1pct_s"] = time_to_1pct
    metrics = {
        "setup_s": statistics.median(seconds * CAL_REF_S / cal for seconds, cal in setups),
        "wall_cal": wall_cal,
        "time_to_1pct_cal": time_to_1pct_cal,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, extra


def environment() -> dict:
    import numpy

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "satroute").glob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "machine": platform.machine(), "cpus": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)), "src_lines": src_lines,
            "clocks": "wall clock (perf_counter) and thread CPU time only; "
                      "no hardware counters or system-wide tracing"}


def run_workload(args) -> int:
    setups = []
    if args.trace:
        setup_here()
    else:
        pin_to_one_cpu()  # traced runs keep every CPU for the --threads 2 probe
        setups = setup_samples()
    reference = None
    if args.workload == "closed_forms":
        reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick, "environment": environment()}
    if args.trace:
        import layers

        base = run_passes(args.workload, args.seed, args.seconds, args.quick, send, max_passes=1)
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = run_passes(args.workload, args.seed, args.seconds, args.quick,
                                lambda argv: tracer.request(argv, send), max_passes=1)
        finally:
            tracer.uninstall()
        # Both passes use the same seed: tracing must not change a byte.
        # The z-band checks are left to untraced runs, which pool passes.
        passes = base + traced
        tally, pooled = check_passes(args.workload, passes, reference, mc_rows=False)
        if pooled is not None:
            for first, again in zip(base[0], traced[0]):
                check_same_bytes(tally, first, again)
        metrics = layers.layer_metrics(tracer)
        metrics.update(layers.probe_layers(lambda argv: send(argv).seconds,
                                           4 if args.quick else THREAD_PROBE_TRIALS, args.quick))
        walls = [sum(r.seconds for r in p[0]) for p in (base, traced)]
        metrics["trace.overhead_s"] = walls[1] - walls[0]
        units = layers.LAYER_UNITS
        extra = {"untraced_wall_s": walls[0], "traced_wall_s": walls[1],
                 "spans_recorded": len(tracer.spans)}
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        calibrations: list[float] = []
        passes = run_passes(args.workload, args.seed, args.seconds, args.quick, send,
                            calibrations=calibrations)
        tally, pooled = check_passes(args.workload, passes, reference)
        if pooled is not None:
            check_same_bytes(tally, passes[0][0], send(passes[0][0].argv))
        metrics, extra = end_to_end(passes, pooled, setups, calibrations)
        units = E2E_UNITS

    extra["fail_frac"] = (tally.failed + tally.known_red) / tally.attempted
    extra["known_red_checks"] = tally.known_red
    for name, value in metrics.items():
        print(f"{args.workload} {name} {value!r} {units[name]}")
    for name, value in extra.items():
        print(f"{args.workload} {name} {value!r}")
    for message in tally.messages:
        print(f"CHECK FAILED: {message}")

    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record.update(result=result, extra=extra, failures=tally.messages,
                  setup_samples=setups,
                  request_seconds=[[r.seconds for r in replies] for replies in passes])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    summary, status = {}, 0
    for workload in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--reference", args.reference]
        if args.quick:
            cmd.append("--quick")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout[: done.stdout.rstrip().rfind("\n") + 1])
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        summary[workload] = json.loads(lines[-1]) if done.returncode in (0, 1) and lines else None
        if summary[workload] is None:
            sys.stderr.write(done.stderr)
            status = status or 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    ok = all(r is not None and r["correct"] for r in summary.values())
    print(json.dumps({"correct": ok, "workloads": summary}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*wl.WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--reference", default=str(REFERENCE),
                        help="recorded closed_forms replies (see record_reference.py)")
    parser.add_argument("--quick", action="store_true",
                        help="tiny trial counts and a cheap closed_forms subset (self-test)")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
