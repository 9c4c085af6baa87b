"""Benchmark of the wcs package: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload photon-stats --seed 1 --seconds 15 --trace 0

A run times whole rounds of ops in a closed loop with one client.  It runs
round(seconds / nominal round length) rounds, which take about --seconds on
the machine described in README.md; a fixed count keeps the ops, the sample
count and the work counters the same for a given seed and --seconds.  With
--trace 0 it reports the end-to-end metrics.  With --trace 1 it runs the
same rounds under the per-layer tracer, reports the per-layer metrics, and
prints its own traced end-to-end figures on an earlier line, for the
overhead comparison in overhead.py.  Only the library calls of an op are
timed; its checks run after each round.  Reported times are scaled by the
machine-speed gauge of gauge.py; the raw ones are on the info line.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# set-up is the median of at least MIN_PROBES fresh interpreters, more while
# they have taken less than PROBE_BUDGET_S, and at most MAX_PROBES
MIN_PROBES, MAX_PROBES, PROBE_BUDGET_S = 7, 31, 6.0
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def make_workload(args):
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    return WORKLOADS[args.workload](args.seed, ROOT)


def measure_setup(args, wl) -> tuple[list[float], float]:
    """Fresh-interpreter set-up times, start to inputs built and warmed, and
    the gauge factor over the gauge samples taken around the probes."""
    if wl.probe_code is None:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--probe"]
    else:
        cmd = [sys.executable, "-c", wl.probe_code]
    from gauge import Gauge

    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    gauge = Gauge()
    while len(times) < MIN_PROBES or (sum(times) < PROBE_BUDGET_S and len(times) < MAX_PROBES):
        gauge.take(5)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {err.decode()[-500:]}")
        times.append(t1 - t0)
    gauge.take(5)
    return times, gauge.factor()


def peak_rss_mb(children: bool) -> float:
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest of the usual
    reporting percentiles that still has ten samples above it.

    A run's sample count is fixed by its workload and --seconds, so the
    percentile chosen is too.  A fixed ladder keeps the statistic off the
    edge between clusters of op costs, where the k-th largest sample of a
    few distinct kinds of op jumps from one cluster to the next."""
    lat = sorted(latencies)
    n = len(lat)
    for q in TAIL_PERCENTILES:
        rank = math.ceil(q / 100.0 * n)
        if n - rank >= 10:
            return lat[rank - 1], q, n - rank
    rank = math.ceil(n / 2)
    return lat[rank - 1], 50.0, n - rank


def run_rounds(wl, rounds: int, children_rss: bool):
    """Time each op's library calls, and the gauge between them; check the
    round's outputs afterwards.  Each op's time is scaled by the gauge
    samples nearest to it."""
    import wcs
    from gauge import Gauge
    from workloads import CheckFailed, CliError

    typed_errors = (wcs.ParameterError, wcs.ConvergenceError, wcs.NumericalRangeError, CliError)
    clock = time.perf_counter
    stats = {"lat": [], "raw_lat": [], "gauge": [], "errs": [],
             "attempted": 0, "typed": 0, "untyped": 0, "check": 0, "notes": [], "rounds": rounds}
    for _ in range(rounds):
        done, lat, mid = [], [], []
        gauge = Gauge()
        gauge.take(3)
        for op in wl.next_round():
            t0 = clock()
            try:
                done.append((op, wl.run(op)))
            except CheckFailed as exc:
                stats["check"] += 1
                stats["notes"].append(f"check: {exc}")
            except typed_errors:
                stats["typed"] += 1
            except Exception as exc:  # an untyped error escaping the library
                stats["untyped"] += 1
                stats["notes"].append(f"untyped {type(exc).__name__}: {exc}")
            t1 = clock()
            lat.append(t1 - t0)
            mid.append(0.5 * (t0 + t1))
            gauge.tick()
        gauge.take(3)
        stats["attempted"] += len(lat)
        stats["raw_lat"] += lat
        stats["lat"] += [t * gauge.factor(at) for t, at in zip(lat, mid)]
        stats["gauge"] += gauge.samples
        for op, out in done:
            try:
                stats["errs"].append(wl.check(op, out))
            except CheckFailed as exc:
                stats["check"] += 1
                stats["notes"].append(f"check: {exc}")
    stats["rss"] = peak_rss_mb(children_rss)
    return stats


def end_to_end(stats, setup: tuple[list[float], float] | None) -> tuple[dict, dict]:
    """Metrics from gauge-scaled times, and an info dict with the raw ones."""
    from statistics import median

    lat = stats["lat"]
    value, pct, beyond = tail(lat)
    worst = max(stats["errs"]) if stats["errs"] else 1.0
    metrics = {
        "ops_per_s": (stats["attempted"] / math.fsum(lat), "1/s"),
        "latency_p50_ms": (1e3 * median(lat), "ms"),
        "latency_tail_ms": (1e3 * value, "ms"),
        "accuracy_digits": (-math.log10(max(worst, 1e-17)), "digits"),
        "peak_rss_mb": (stats["rss"], "MB"),
    }
    failed = stats["typed"] + stats["untyped"] + stats["check"]
    info = {
        "fail_ratio": failed / stats["attempted"],
        "failed_typed": stats["typed"],
        "failed_untyped": stats["untyped"],
        "failed_check": stats["check"],
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
        "samples": len(lat),
        "rounds": stats["rounds"],
        "gauge_ms": 1e3 * median(stats["gauge"]),
        "raw_ops_per_s": stats["attempted"] / math.fsum(stats["raw_lat"]),
        "raw_latency_p50_ms": 1e3 * median(stats["raw_lat"]),
        "raw_latency_tail_ms": 1e3 * tail(stats["raw_lat"])[0],
    }
    if setup is not None:
        raw, scale = setup
        metrics = {"setup_s": (median(raw) * scale, "s"), **metrics}
        info["raw_setup_s"] = median(raw)
        info["setup_probes"] = len(raw)
    return metrics, info


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    import json

    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wcs", "__init__.py")):
        print(f"perfbench: no wcs package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = make_workload(args)
    if args.probe:
        wl.setup()
        print("ready", flush=True)
        return 0

    import json
    import statistics

    setup = measure_setup(args, wl) if not args.trace else None
    wl.setup()
    # the CLI runs in child processes; the set-up probes there only import
    # wcs.cli, so the largest child is a CLI command
    children_rss = wl.probe_code is not None
    rounds = max(1, round(args.seconds / wl.round_seconds))

    if not args.trace:
        stats = run_rounds(wl, rounds, children_rss)
        metrics, info = end_to_end(stats, setup)
    else:
        from layertrace import Tracer, layer_metrics, merge

        wl.traced = True
        tracer = Tracer()
        tracer.install()
        try:
            stats = run_rounds(wl, rounds, children_rss)
        finally:
            tracer.uninstall()
        traced_e2e, info = end_to_end(stats, None)
        raw = tracer.snapshot()
        import_s = 0.0
        children = getattr(wl, "child_traces", [])
        for child in children:
            merge(raw, child["raw"])
        if children:
            import_s = statistics.median(c["import_s"] for c in children)
        metrics = layer_metrics(raw, import_s)
        print("traced end-to-end: " + json.dumps({k: v for k, (v, _) in traced_e2e.items()}))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: " + json.dumps(info))
    for note in stats["notes"][:5]:
        print("  " + note, file=sys.stderr)
    failed = info["failed_typed"] + info["failed_untyped"] + info["failed_check"]
    correct = info["failed_untyped"] == 0 and info["failed_check"] == 0
    emit(correct, stats["attempted"], failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
