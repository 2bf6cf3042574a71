#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the a64fx-qcs workspace.

Run from the repository root:

    python3 ledger/run.py --workload dist-20 --seed 1 --seconds 45 --trace 0

It builds `ledger/` (a Cargo package of its own) in release mode, runs
the workload in SEGMENTS fresh processes of `--seconds / SEGMENTS`
each, checks every output, prints each metric with its unit, and ends
with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates
traced and untraced units in the same segments (for
`bench.trace_overhead`) and then runs the per-layer probes. See
ledger/README.md for what each workload and metric means.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("statevec-22", "vqe-12", "serve-mixed", "dist-20", "dist-20-reorder")
# Fresh processes per run: Auto's choice and the calibration vary per
# process, so each run averages over several of them.
SEGMENTS = 4
# A serve-mixed run is invalid when the generator sent its jobs later
# than this (90th percentile) behind their schedule.
LAG_LIMIT_S = 0.05
STATEVEC_FAMILIES = ("qft", "trotter", "random")
SEGMENT_TIMEOUT_S = 150


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def child_env():
    """The environment without QCS_* overrides: the program receives only
    the generated inputs, never a strategy, backend or fault plan."""
    return {k: v for k, v in os.environ.items() if not k.startswith("QCS_")}


def build():
    """Build the measuring binary; exit non-zero (no result) on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, env=child_env(), timeout=880).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"ledger: build failed: {e}")
        sys.exit(1)
    if code != 0:
        log(f"ledger: build failed with exit code {code}")
        sys.exit(1)
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    if not target.is_absolute():
        target = Path.cwd() / target
    return target / "release" / "qcs-ledger"


def run_child(binary, *args):
    """Run one measuring process and parse its last stdout line."""
    cmd = [str(binary), *map(str, args)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                           timeout=SEGMENT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"ledger: {' '.join(cmd)} timed out")
        sys.exit(1)
    if r.returncode != 0 or not r.stdout.strip():
        log(f"ledger: {' '.join(cmd)} exited with {r.returncode}:\n{r.stderr}")
        sys.exit(1)
    return json.loads(r.stdout.strip().splitlines()[-1])


def quantile(xs, q):
    """Linear-interpolated quantile, as the Rust side computes it."""
    v = sorted(xs)
    if not v:
        raise ValueError("no samples")
    pos = q * (len(v) - 1)
    lo, hi = int(pos), min(int(pos) + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def unit(name):
    """Unit of a metric, from its name."""
    if name == "peak_rss_mib":
        return "MiB"
    if name == "jobs_per_s":
        return "1/s"
    if name.endswith("gbs"):
        return "GB/s"
    if ".ns_per_amp." in name:
        return "ns"
    if name == "dist.bytes":
        return "B"
    if re.search(r"_s($|\.)", name):
        return "s"
    if re.search(r"(share|frac|drift|amortization|regret|overhead)", name):
        return "ratio"
    return "count"


def end_to_end(segments, workload):
    """The run's end-to-end metrics from its processes' samples.

    Each timing is taken inside each process, and the run reports the
    median over its processes. Each process is one draw of calibration,
    Auto's choice and host state, so one disturbed process does not
    move the figure. Peak memory is the median of the processes' peaks
    for the same reason. Rates and shares pool every sample."""
    completed = sum(len(s["job_s"]) for s in segments)
    log(f"ledger: {workload}: {len(segments)} processes, {completed} jobs, "
        f"{sum(len(s['pass_s']) for s in segments)} passes")

    def per_process(stat):
        return statistics.median(stat(s) for s in segments)

    return {
        "setup_s": per_process(lambda s: s["setup_s"]),
        "solve_s": per_process(lambda s: statistics.median(s["pass_s"])),
        "job_latency_s.p50": per_process(lambda s: statistics.median(s["job_s"])),
        "job_latency_s.p90": per_process(lambda s: quantile(s["job_s"], 0.9)),
        "slo_share": sum(s["slo_met"] for s in segments) / sum(s["jobs_attempted"] for s in segments),
        "jobs_per_s": completed / sum(s["measured_s"] for s in segments),
        "peak_rss_mib": per_process(lambda s: s["peak_rss_kib"]) / 1024.0,
    }


def trace_layers(segments, probes):
    metrics = dict(probes["metrics"])
    overheads = []
    for s in segments:
        if s["traced_s"] and s["untraced_s"]:
            overheads.append(statistics.median(s["traced_s"]) / statistics.median(s["untraced_s"]) - 1.0)
    metrics["bench.trace_overhead"] = statistics.mean(overheads) if overheads else float("nan")
    for fam in STATEVEC_FAMILIES:
        counts = [s["notes"]["auto_sweeps"][fam] for s in segments]
        metrics[f"calibrate.auto_sweeps.{fam}.min"] = min(counts)
        metrics[f"calibrate.auto_sweeps.{fam}.max"] = max(counts)
    return metrics


def declared(trace):
    """Metric names and units BENCHMARK.json declares for this mode, if
    present (runs start from the repository root)."""
    spec = Path.cwd() / "BENCHMARK.json"
    if not spec.is_file():
        return None
    data = json.loads(spec.read_text())
    return {m["name"]: m["unit"] for m in data["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    per_segment = args.seconds / SEGMENTS
    segments = [
        run_child(binary, "segment", "--workload", args.workload, "--seed", args.seed,
                  "--seconds", per_segment, "--trace", args.trace, "--index", i)
        for i in range(SEGMENTS)
    ]
    attempted = sum(s["attempted"] for s in segments)
    failed = sum(s["failed"] for s in segments)
    for i, s in enumerate(segments):
        log(f"ledger: process {i}: setup {s['setup_s']:.3f} s, notes {json.dumps(s['notes'])}")
    valid = True
    if args.workload == "serve-mixed":
        lag = max(s["notes"]["lag_p90_s"] for s in segments)
        if lag > LAG_LIMIT_S:
            log(f"ledger: INVALID run: generator lag p90 {lag:.4f} s > {LAG_LIMIT_S} s")
            valid = False

    if args.trace:
        probes = run_child(binary, "probes", "--seed", args.seed)
        attempted += probes["attempted"]
        failed += probes["failed"]
        metrics = trace_layers(segments, probes)
    else:
        metrics = end_to_end(segments, args.workload)

    want = declared(bool(args.trace))
    if want is not None and want != {k: unit(k) for k in metrics}:
        log(f"ledger: metrics differ from BENCHMARK.json: "
            f"missing {sorted(set(want) - set(metrics))}, extra {sorted(set(metrics) - set(want))}, "
            f"units {sorted(k for k in set(want) & set(metrics) if want[k] != unit(k))}")
        sys.exit(1)
    if any(not isinstance(v, (int, float)) or v != v for v in metrics.values()):
        log(f"ledger: a metric could not be measured: {metrics}")
        sys.exit(1)
    for name in sorted(metrics):
        print(f"{name:44s} {metrics[name]:>16.6g} {unit(name)}")
    if failed:
        log(f"ledger: {failed} of {attempted} operations failed or were wrong")
    result = {
        "correct": valid and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
