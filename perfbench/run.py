"""Benchmark of `uavbc`: one workload per run, end-to-end or per-layer numbers.

Usage (from the repository root):

    python3 perfbench/run.py --workload sc_region --seed 1 --seconds 10 --trace 0

Workloads: sc_region, scenario_scan, oracle_certify (see README.md).  A run
measures whole rounds of the workload, at least one, and starts no new round
once --seconds have passed.  --trace 0 prints the end-to-end metrics;
--trace 1 runs the workload untraced, traced, and untraced again, and prints
the per-layer metrics and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The full
report (inputs, every metric, failures) goes to perfbench/out/.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SCENARIO = HERE / "reference.scn"
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60

# Gated end-to-end metrics (BENCHMARK.json): every workload reports each.
E2E = {
    "setup_s": "s",
    "ref_points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "r_mean": "bps/Hz",
}
# Reported next to the gated ones where they apply, but not gated.  Raw wall
# times and single points move with the host's speed drift more than any
# bound allows (README.md); the others apply to one workload only or can be
# zero or negative.
E2E_REPORTED = {
    "points_per_s": "1/s",
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "r_sc_mean": "bps/Hz",
    "r_tdma_mean": "bps/Hz",
    "r_dp_mean": "bps/Hz",
    "sc_tdma_margin_min": "ratio",
    "dp_gap_max": "ratio",
    "fail_ratio": "ratio",
}
PER_LAYER_UNITS = {"_s": "s", "_ratio": "ratio", "_bytes": "B", "_ns_per_slot": "ns/slot"}


def per_layer_unit(name):
    if name.endswith("points_per_s"):
        return "1/s"
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def setup_times(n):
    """Cold set-up times, one fresh interpreter each."""
    probe = HERE / "setup_probe.py"
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(probe), str(SCENARIO)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def measure(workload, seconds, tracer=None):
    rounds = []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 < seconds:
        rounds.append(workload.round(tracer))
    return rounds


def tail(samples):
    """Highest order statistic with at least ten samples beyond it.

    Returns (value, percentile), or None when that statistic does not lie
    above the median (fewer than 21 samples): it would not be a tail.
    """
    xs = sorted(samples)
    n = len(xs)
    k = n - 10
    if 2 * k <= n:
        return None
    return xs[k - 1], 100.0 * k / n


def points_per_s(rounds, scaled=False):
    """Median over rounds of points completed per second of solve time."""
    return statistics.median(
        len(r.quality) / (r.cal.scaled(r.solve_s) if scaled else r.solve_s)
        for r in rounds)


def end_to_end(rounds, setup):
    """All end-to-end metrics that apply, and the tail's percentile and samples."""
    first = rounds[0]
    times = [t for r in rounds for t in r.point_times]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failed) for r in rounds)
    m = {
        "setup_s": statistics.median(setup),
        "ref_points_per_s": points_per_s(rounds, scaled=True),
        "points_per_s": points_per_s(rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # Every rate scale the workload emits, so that a solver which loses
        # rate lowers it: SC points, plus TDMA points and DP values where
        # the workload computes them.
        "r_mean": statistics.fmean(first.r_sc + first.r_tdma + first.r_dp),
        "fail_ratio": failed / attempted,
    }
    for kind in ("sc", "tdma", "dp"):
        if getattr(first, f"r_{kind}"):
            m[f"r_{kind}_mean"] = statistics.fmean(getattr(first, f"r_{kind}"))
    if times:
        m["solve_s_p50"] = statistics.median(times)
    t = tail(times)
    if t is not None:
        m["solve_s_tail"] = t[0]
    if first.margins:
        m["sc_tdma_margin_min"] = min(first.margins)
    if first.dp_gaps:
        m["dp_gap_max"] = max(first.dp_gaps)
    return m, {"percentile": t[1] if t else None, "samples": len(times)}


def round_problems(rounds, reference):
    """Output invariants of every round, plus exact repeatability."""
    problems = []
    for i, r in enumerate(rounds):
        problems += [f"round {i}: {p}" for p in r.problems]
        if r.quality != reference:
            problems.append(f"round {i}: outputs differ from the first untraced round")
    return problems


def write_spans(path, tr):
    names = sorted(set(tr.names))
    index = {name: i for i, name in enumerate(names)}
    origin = tr.start[0] if tr.start else 0.0
    spans = [
        [index[tr.names[i]], round(tr.start[i] - origin, 9), round(tr.end[i] - origin, 9),
         tr.parent[i], tr.point[i]]
        for i in range(len(tr.names))
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"names": names, "columns": ["name", "start_s", "end_s", "parent", "point"],
                   "spans": spans}, fh, separators=(",", ":"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    # One BLAS thread, set before numpy loads (the imports below): the numbers
    # measure uavbc, not the scheduler.  Set-up probes inherit the setting.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "uavbc" / "__init__.py").is_file():
        print(f"uavbc sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer as tracing
    import workloads
    from uavbc import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    setup = setup_times(SETUP_SAMPLES)
    t0 = time.perf_counter()
    params, _ = cli.build_scenario(cli.parse_scenario_file(SCENARIO))
    cli_s = time.perf_counter() - t0
    wl = workloads.WORKLOADS[args.workload](params, args.seed)
    # Peak memory before the first solve, calibration bursts included: the
    # solves, not the bursts, must set peak_rss_mb.
    workloads.Calibration()
    rss_before_solve_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = measure(wl, args.seconds)
    if not any(r.quality for r in rounds):
        print("no point completed; see the tracebacks above", file=sys.stderr)
        return 1
    metrics, tail_info = end_to_end(rounds, setup)
    reference = rounds[0].quality
    problems = round_problems(rounds, reference)
    all_rounds = list(rounds)

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "inputs": wl.inputs(), "rounds": len(rounds),
        "setup_samples_s": setup,
        "round_solve_s": [r.solve_s for r in rounds],
        "reference_burst_s": [r.cal.bursts for r in rounds],
        "rss_before_solve_mb": rss_before_solve_mb,
        "point_times_s": [r.point_times for r in rounds],
        "end_to_end": {k: {"value": v, "unit": {**E2E, **E2E_REPORTED}[k]}
                       for k, v in metrics.items()},
        "solve_s_tail": tail_info,
    }

    if args.trace:
        before = tracing.snapshot_attributes()
        tr = tracing.Tracer()
        with tr.installed():
            traced = measure(wl, args.seconds, tr)
        after = tracing.snapshot_attributes()
        if any(after[k] is not before[k] for k in before):
            problems.append("wrapped uavbc attributes were not restored")
        problems += [p.replace("round", "traced round", 1)
                     for p in round_problems(traced, reference)]
        # Untraced again: the first rounds pay first-call costs that the
        # traced ones do not, so the overhead compares two warm measurements.
        warm = measure(wl, args.seconds)
        problems += [p.replace("round", "warm round", 1)
                     for p in round_problems(warm, reference)]
        all_rounds += traced + warm
        layer = tracing.layer_metrics(tr, len(traced))
        untraced_pps = points_per_s(warm, scaled=True)
        traced_pps = points_per_s(traced, scaled=True)
        layer.update({
            "cli.scenario_s": cli_s,
            "trace.untraced_ref_points_per_s": untraced_pps,
            "trace.traced_ref_points_per_s": traced_pps,
            "trace.overhead_ratio": untraced_pps / traced_pps - 1.0,
        })
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        write_spans(spans_path, tr)
        report.update(traced_rounds=len(traced), absent_targets=tr.absent,
                      spans_file=str(spans_path.relative_to(HERE.parent)),
                      per_layer={k: {"value": v, "unit": per_layer_unit(k)}
                                 for k, v in layer.items()})
        result_metrics = report["per_layer"]
    else:
        result_metrics = {k: report["end_to_end"][k] for k in E2E}

    attempted = sum(r.attempted for r in all_rounds)
    failures = [f"{p}: {why}" for r in all_rounds for p, why in r.failed]
    report.update(attempted=attempted, failed=len(failures), failures=failures,
                  problems=problems, correct=not problems)
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}"
          f"  trace {args.trace}")
    print("inputs " + json.dumps(wl.inputs()))
    for name, entry in report["end_to_end"].items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {len(setup)} cold set-ups)"
        elif name == "peak_rss_mb":
            note = f"  ({rss_before_solve_mb:.1f} MB before the first solve)"
        elif name == "solve_s_tail":
            note = f"  (p{tail_info['percentile']:.0f} of {tail_info['samples']} samples)"
        elif name == "fail_ratio":
            note = (f"  ({sum(len(r.failed) for r in rounds)}/"
                    f"{sum(r.attempted for r in rounds)} untraced points)")
        print(f"{name:<20} {entry['value']:.6g} {entry['unit']}{note}")
    if "solve_s_p50" not in metrics:
        print(f"{'solve_s_p50':<20} n/a (no per-point times)")
    elif "solve_s_tail" not in metrics:
        print(f"{'solve_s_tail':<20} n/a (needs 21 samples, got {tail_info['samples']})")
    if args.trace:
        for name, entry in report["per_layer"].items():
            print(f"{name:<40} {entry['value']:.6g} {entry['unit']}")
    for line in failures:
        print(f"failed: {line}")
    for line in problems:
        print(f"PROBLEM: {line}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
