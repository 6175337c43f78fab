#!/usr/bin/env python3
"""Benchmark of the dpsmdi package: three workloads and the CLI self-check,
timed end to end and per layer, with every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N]
    python3 perfbench/run.py --smoke

The first form measures one workload. Its last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The second runs every workload untraced and traced, prints every metric
and the tracing overhead, and writes BENCHMARK.json from SPEC below. The
third runs every workload once on tiny inputs with all checks on.

The timed work runs in worker.py, one fresh interpreter per run, importing
the package from the checkout's src/. Each run also writes its metrics,
environment and check log to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")

SPEC = {
    "command": ["python3", "perfbench/run.py"],
    "paths": ["perfbench"],
    "run_seconds": 36,
    "workloads": [
        {"name": "decoy-sweep",
         "why": "decoy_key_rate at every 5 km over 0-500 km: slice quadrature "
                "does the work; the closed forms lose precision from 115 km on"},
        {"name": "montecarlo",
         "why": "run_trials on four channels whose kept fraction spans 0.44 to 1e-6; "
                "the trial kernel does all the work"},
        {"name": "finite-key",
         "why": "optimize_rate for blocks 1e5-1e12 at e_b on both sides of the "
                "rate's cutoff; the scalar grid search does all the work"},
    ],
    "end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "throughput_ref", "unit": "1/ref", "better": "higher", "bound": 0.25},
        {"name": "item_ref_p50", "unit": "ref", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "import.dpsmdi_ms", "unit": "ms", "better": "lower"},
        {"name": "import.scipy_integrate_ms", "unit": "ms", "better": "lower"},
        {"name": "montecarlo.build_tables_ms", "unit": "ms", "better": "lower"},
    ]
    + [
        {"name": f"montecarlo.mtrials_per_s.{s}", "unit": "Mtrial/s", "better": "higher"}
        for s in ("ideal", "lossy", "long-haul", "dark-heavy")
    ]
    + [
        {"name": f"montecarlo.keep_fraction.{s}", "unit": "ratio", "better": "higher"}
        for s in ("ideal", "lossy", "long-haul", "dark-heavy")
    ]
    + [
        {"name": "montecarlo.mtrials_per_s.threads2", "unit": "Mtrial/s", "better": "higher"},
        {"name": "keyrate_decoy.decoy_key_rate_ms", "unit": "ms", "better": "lower"},
        {"name": "keyrate_decoy.sliced_gain_qber_ms", "unit": "ms", "better": "lower"},
        {"name": "keyrate_decoy.slice_integrals_per_point", "unit": "count", "better": "lower"},
        {"name": "keyrate_decoy.gain_rel_err_max", "unit": "ratio", "better": "lower"},
        {"name": "keyrate_decoy.direct_gain_quadrature_ms", "unit": "ms", "better": "lower"},
        {"name": "finite_key.optimize_rate_ms", "unit": "ms", "better": "lower"},
        {"name": "finite_key.finite_rate_us", "unit": "us", "better": "lower"},
        {"name": "finite_key.finite_rate_calls_per_optimum", "unit": "count", "better": "lower"},
        {"name": "noise_security.error_gap_us", "unit": "us", "better": "lower"},
    ],
}
# verify (the CLI self-check, 7 s an item) runs by name and in --smoke and
# --workload all, but is not a BENCHMARK.json workload: see README.md.
WORKLOADS = [w["name"] for w in SPEC["workloads"]] + ["verify"]
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

# Set-up is what a fresh process pays before its first result: interpreter
# start, the package import (scipy.integrate is most of it) and the lazily
# built Monte Carlo tables. It is sampled several times; the median counts.
SETUP_CODE = "import dpsmdi, dpsmdi.cli; dpsmdi.montecarlo.build_tables()"
SETUP_SAMPLES = 3
IMPORTTIME_SAMPLES = 3
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run or could not read a result."""


def python(args, timeout):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=timeout,
    )


def setup_seconds(samples):
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        proc = python(["-c", SETUP_CODE], 60)
        times.append(time.perf_counter() - start)
        if proc.returncode:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
    return statistics.median(times)


def import_times(samples):
    """Cumulative import time of dpsmdi and scipy.integrate, from -X importtime."""
    wanted = {"dpsmdi": [], "scipy.integrate": []}
    for _ in range(samples):
        proc = python(["-X", "importtime", "-c", "import dpsmdi"], 60)
        if proc.returncode:
            raise BenchError(f"import failed:\n{proc.stderr}")
        for line in proc.stderr.splitlines():
            parts = line.removeprefix("import time:").split("|")
            if len(parts) == 3 and parts[2].strip() in wanted and parts[1].strip().isdigit():
                wanted[parts[2].strip()].append(int(parts[1]) / 1e3)
    if any(len(v) != samples for v in wanted.values()):
        raise BenchError("-X importtime did not list dpsmdi and scipy.integrate")
    return {
        "import.dpsmdi_ms": statistics.median(wanted["dpsmdi"]),
        "import.scipy_integrate_ms": statistics.median(wanted["scipy.integrate"]),
    }


def environment(seed):
    commit = "unknown: the checkout is not a git repository"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
        "commit": commit,
    }


def run_workload(workload, seed, seconds, trace, smoke=False):
    """One run in a fresh worker interpreter; returns the result record."""
    args = [os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = python(args + (["--smoke"] if smoke else []), WORKER_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        detail = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload}: worker gave no result\n{proc.stderr}") from None
    if proc.stderr:
        sys.stderr.write(proc.stderr)

    metrics = {}
    if detail["correct"] and trace:
        metrics.update(import_times(1 if smoke else IMPORTTIME_SAMPLES))
        metrics.update(detail.pop("layers"))
    elif detail["correct"]:
        metrics["setup_s"] = setup_seconds(1 if smoke else SETUP_SAMPLES)
        metrics["throughput_ref"] = detail["units"] / detail["busy_ref"]
        metrics["item_ref_p50"] = detail["item_ref_p50"]
        metrics["peak_rss_mb"] = detail["peak_rss_mb"]
    wanted = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    if detail["correct"] and sorted(metrics) != sorted(wanted):
        raise BenchError(f"{workload}: metrics {sorted(metrics)} != {sorted(wanted)}")

    env = environment(seed)
    env.update(detail.pop("env"))
    record = {
        "workload": workload, "trace": trace, "seconds": seconds, "smoke": smoke,
        "env": env,
        "result": {
            "correct": detail["correct"],
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        },
        "detail": detail,
    }
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}{'-smoke' if smoke else ''}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    return record


def report(record):
    """Human-readable lines: every metric by name and unit, then the counts."""
    detail = record["detail"]
    print(f"== {record['workload']} (trace {record['trace']}, seed {record['env']['seed']}, "
          f"backend {record['env']['backend_ran']})")
    for line in detail["log"]:
        print(f"   {line}")
    for name, metric in record["result"]["metrics"].items():
        print(f"   {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(f"   {detail['attempted']} items ({detail['units']} {detail['unit']}), "
          f"{detail['failed']} failed, busy {detail['busy_s']:.3f} s")
    if detail["attempted"]:
        p90 = detail["item_ms_p90"]
        print(f"   wall clock: {detail['units'] / detail['busy_s']:.6g} {detail['unit']}/s, "
              f"item p50 {detail['item_ms_p50']:.6g} ms, p90 "
              f"{'-' if p90 is None else f'{p90:.6g}'} ms; "
              f"reference kernel p50 {detail['ref_ms_p50']:.4g} ms")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once on tiny inputs, traced and untraced")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dpsmdi", "__init__.py")):
        print(f"no package source at {os.path.join(ROOT, 'src', 'dpsmdi')}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all" and not args.smoke:
            record = run_workload(args.workload, args.seed, args.seconds, args.trace)
            report(record)
            print(json.dumps(record["result"]))
            return 0 if record["result"]["correct"] else 1

        records = []
        for workload in WORKLOADS:
            for trace in (0, 1):
                record = run_workload(workload, args.seed, args.seconds, trace, args.smoke)
                report(record)
                records.append(record)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    print("== tracing overhead: untraced over traced throughput_ref, minus 1")
    for plain, traced in zip(records[::2], records[1::2]):
        a = plain["detail"]["units"] / plain["detail"]["busy_ref"]
        b = traced["detail"]["units"] / traced["detail"]["busy_ref"]
        print(f"   {plain['workload']:12s} {100.0 * (a / b - 1.0):+.1f}%")
    if not args.smoke:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as handle:
            json.dump(SPEC, handle, indent=2)
            handle.write("\n")
    summary = {
        "correct": all(r["result"]["correct"] for r in records),
        "attempted": sum(r["result"]["attempted"] for r in records),
        "failed": sum(r["result"]["failed"] for r in records),
        "metrics": {
            f"{r['workload']}.{k}": v
            for r in records for k, v in r["result"]["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
