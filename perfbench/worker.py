#!/usr/bin/env python3
"""One measured run of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/. Runs the
workload's untimed gates, then whole rounds of timed items until the run
length is reached, checks every output, and prints one JSON line with the
timings, counts and check log. With --trace 1 the calls into each layer
are wrapped in spans (see tracing.py) and a fixed layer probe runs after the
workload, so that every per-layer metric is measured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import random
import resource
import statistics
import sys
import time

import numpy as np
import scipy

import dpsmdi
from dpsmdi import cli, finite_key, keyrate_asymptotic, keyrate_decoy, montecarlo
from dpsmdi.montecarlo import ChannelParams

import oracles
import tracing


class CheckError(AssertionError):
    """An output is wrong in a way the benchmark does not tolerate."""


def check(condition: bool, detail: str) -> None:
    if not condition:
        raise CheckError(detail)


def seed_stream(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


# ---------------------------------------------------------------------------
# Reference kernels. The speed of a shared host drifts, by up to 2x over
# seconds and minutes, and code of different kinds drifts by different
# amounts. A reference kernel is fixed work of the same kind as a workload's
# that uses nothing from the package. It is timed before the first round and
# after each round, and every item's time is also given in units of the mean
# of the two kernel times around its round. Most of the drift cancels in
# that ratio.

class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y


def interpreter_kernel() -> float:
    """About 50 ms of interpreter-bound work: the independent finite-key
    formula over a grid, then small-object churn through a dict."""
    acc = 0.0
    for _ in range(20):
        for n_signals in (10**5, 10**7, 10**9):
            for e_b in (0.01, 0.02, 0.03, 0.04):
                for share in range(1, 60):
                    acc += oracles.finite_rate(
                        n_signals, n_signals * share / 100, n_signals * share / 300,
                        e_b, 1e-5, 1e-10, 2e-6, 1e-6,
                    )
    table = {}
    for i in range(20_000):
        table[i % 97] = _Point(i * 0.5, math.sqrt(i + 1.0))
        acc += table[(i * 7) % 97].y * 1e-3 if (i * 7) % 97 in table else 0.0
    return acc


def array_kernel() -> float:
    """About 40 ms of numpy work shaped like the trial kernel: counters
    hashed in uint64, a 64-wide comparison per row, and a bincount."""
    table = np.linspace(0.0, 1.0, 64)
    counts = np.zeros(65, dtype=np.int64)
    for block in range(4):
        x = np.arange(block << 16, (block + 1) << 16, dtype=np.uint64)
        for _ in range(3):
            x ^= x >> np.uint64(30)
            x *= np.uint64(0xBF58476D1CE4E5B9)
            x ^= x >> np.uint64(27)
            x *= np.uint64(0x94D049BB133111EB)
            x ^= x >> np.uint64(31)
        u = (x >> np.uint64(11)).astype(np.float64) * 2.0**-53
        counts += np.bincount((table <= u[:, None]).sum(axis=1), minlength=65)
    return float(counts @ np.arange(65))


def time_kernel(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Workload:
    """round_items() gives one round of items; run(item) is the timed call;
    check(item, output) raises CheckError on a wrong output and returns
    True for an item that failed in the kept way."""

    kernel = staticmethod(interpreter_kernel)

    def gate(self, log):
        """Untimed checks before the first timed item."""

    def units(self, item):
        return 1

    def finish(self, log):
        """Checks on the whole run, after the last timed item."""


# ---------------------------------------------------------------------------
# decoy-sweep: the paper's decoy-state curve, one item per distance.

class DecoySweep(Workload):
    unit = "distance points"
    # Rows further than this from the 50-digit reference are the kept fault
    # (cancellation in the closed forms); much further means a broken path.
    FAIL_REL = 1e-9
    BROKEN_REL = 1e-4

    def __init__(self, seed: int, smoke: bool):
        self.reference = oracles.load_decoy_reference()
        inputs = self.reference["inputs"]
        self.mu = float(inputs["mu"])
        self.n_slices = int(inputs["n_slices"])
        self.channel = dict(
            eta_det=float(inputs["eta_det"]),
            p_dark=float(inputs["p_dark"]),
            alpha_db_per_km=float(inputs["alpha_db_per_km"]),
        )
        rows = self.reference["rows"]
        if smoke:
            rows = [rows[0], rows[len(rows) // 2], rows[-1]]
        self.rows = rows
        self.rng = seed_stream(seed, "decoy")
        self.rel_err_max = 0.0

    def round_items(self):
        order = list(self.rows)
        self.rng.shuffle(order)
        return order

    def run(self, row):
        params = ChannelParams.from_total_distance(row["L_km"], **self.channel)
        return keyrate_decoy.decoy_key_rate(self.mu, self.mu, params, self.n_slices)

    def row_rel_err(self, row, report):
        got = (report.q_mu, report.e_mu, report.q_slice0, report.e_slice0)
        want = [float(row[k]) for k in ("Q_mu", "E_mu", "Q_m0", "E_m0")]
        return max(abs(g - w) / abs(w) for g, w in zip(got, want))

    def check(self, row, report):
        err = self.row_rel_err(row, report)
        self.rel_err_max = max(self.rel_err_max, err)
        check(
            err <= self.BROKEN_REL,
            f"decoy row at {row['L_km']} km is {err:.2e} from the reference",
        )
        check(report.rate >= 0.0, f"negative clamped rate at {row['L_km']} km")
        return err > self.FAIL_REL

    def finish(self, log):
        log.append(f"decoy: largest relative error {self.rel_err_max:.3e}")


# ---------------------------------------------------------------------------
# montecarlo: the trial kernel over four channels.

SCENARIOS = {
    "ideal": ChannelParams(eta_a=1.0, eta_b=1.0, p_dark=0.0, e_d=0.0),
    "lossy": ChannelParams(eta_a=0.1, eta_b=0.1, p_dark=3e-6, e_d=0.015),
    "long-haul": ChannelParams.from_total_distance(200.0),
    "dark-heavy": ChannelParams(eta_a=0.01, eta_b=0.01, p_dark=1e-3, e_d=0.015),
}


def same_tallies(a, b) -> bool:
    return (
        a.n_trials == b.n_trials
        and np.array_equal(a.mask_counts, b.mask_counts)
        and a.keep_count == b.keep_count
        and a.error_count == b.error_count
    )


class MonteCarlo(Workload):
    unit = "trials"
    kernel = staticmethod(array_kernel)

    def __init__(self, seed: int, smoke: bool):
        self.trials = 20_000 if smoke else 250_000
        self.gate_trials = 20_000 if smoke else 100_000
        self.replay_trials = 200 if smoke else 1_000
        self.rng = seed_stream(seed, "montecarlo")
        self.totals = {name: [0, 0, 0] for name in SCENARIOS}  # trials, keeps, errors

    def gate(self, log):
        gate_seed = self.rng.getrandbits(64)
        backends = montecarlo.available_backends()
        for name, params in SCENARIOS.items():
            if len(backends) > 1:
                runs = [
                    montecarlo.run_trials(params, self.gate_trials, gate_seed, backend=b)
                    for b in backends
                ]
                check(
                    all(same_tallies(runs[0], r) for r in runs[1:]),
                    f"{name}: tallies differ between backends {backends}",
                )
            one = montecarlo.run_trials(params, self.gate_trials, gate_seed, threads=1)
            two = montecarlo.run_trials(params, self.gate_trials, gate_seed, threads=2)
            check(same_tallies(one, two), f"{name}: tallies differ at 1 and 2 threads")
        if len(backends) > 1:
            log.append(f"backend gate: tallies identical across {', '.join(backends)}")
        else:
            log.append(f"backend gate skipped: only the {backends[0]} backend is available")
        log.append("thread gate: tallies identical at 1 and 2 threads")
        for name in ("ideal", "dark-heavy"):
            self.check_replay(name, SCENARIOS[name], gate_seed)
        log.append(f"replay gate: {self.replay_trials}-trial prefixes match replay_trials")

    def check_replay(self, name, params, seed):
        n = self.replay_trials
        tally = montecarlo.run_trials(params, n, seed)
        keeps = errors = 0
        small = np.zeros(64, dtype=np.int64)
        crowded = 0
        for record in montecarlo.replay_trials(params, n, seed):
            if record.outcome is None:
                crowded += 1
            else:
                mask = 0
                for detector, time_bin in record.outcome.clicks:
                    mask |= 1 << (time_bin - 1 + (3 if detector == "d" else 0))
                small[mask] += 1
            if record.error is not None:
                keeps += 1
                errors += int(record.error)
        few = np.array([bin(m).count("1") <= 2 for m in range(64)])
        check(
            np.array_equal(tally.mask_counts[few], small[few])
            and int(tally.mask_counts[~few].sum()) == crowded
            and (tally.keep_count, tally.error_count) == (keeps, errors),
            f"{name}: run_trials differs from replay_trials on a {n}-trial prefix",
        )

    def round_items(self):
        return [(name, self.rng.getrandbits(64)) for name in SCENARIOS]

    def run(self, item):
        name, seed = item
        return montecarlo.run_trials(SCENARIOS[name], self.trials, seed, threads=1)

    def units(self, item):
        return self.trials

    def check(self, item, tally):
        name, _ = item
        check(
            int(tally.mask_counts.sum()) == tally.n_trials == self.trials,
            f"{name}: mask counts do not sum to the trial count",
        )
        if name == "ideal":
            check(tally.error_count == 0, "ideal channel produced errors")
        total = self.totals[name]
        total[0] += tally.n_trials
        total[1] += tally.keep_count
        total[2] += tally.error_count
        return False

    def finish(self, log):
        for name, (n, keeps, errors) in self.totals.items():
            params = SCENARIOS[name]
            y11 = keyrate_asymptotic.yield_Y11(params)
            e_b, background = keyrate_asymptotic.qber_asymptotic(params)
            e_b -= 0.5 * background  # half-weight convention, as in secure_rate
            dist_y = oracles.sigma_distance(keeps, n, y11)
            check(dist_y <= 4.0, f"{name}: y11_hat is {dist_y:.2f} sigma from Y11")
            dist_e = oracles.sigma_distance(errors, keeps, e_b) if keeps else float("nan")
            check(not dist_e > 4.0, f"{name}: e_b_hat is {dist_e:.2f} sigma from e_b")
            log.append(
                f"{name}: {n} trials, {keeps} kept, y11 {dist_y:.2f} sigma, "
                f"e_b {dist_e:.2f} sigma"
            )


# ---------------------------------------------------------------------------
# finite-key: the optimizer over block sizes and bit error rates.

class FiniteKey(Workload):
    unit = "optima"
    EPSILON = 1e-5
    EPSILON_EC = 1e-10
    # Fixed error rates on both sides of the one where the rate vanishes
    # (0.0563 for infinite blocks, lower for short ones). The cost of an
    # optimum depends on e_b, so the seed only orders them, and every run
    # does the same work.
    E_B = (0.005, 0.015, 0.03, 0.045, 0.053, 0.065)

    def __init__(self, seed: int, smoke: bool):
        self.rng = seed_stream(seed, "finite-key")
        self.e_b = [self.E_B[1], self.E_B[-1]] if smoke else list(self.E_B)
        self.blocks = [10**5, 10**9] if smoke else [10**k for k in range(5, 13)]

    def round_items(self):
        self.last_rate = {}  # per e_b, the rate at the previous (smaller) block
        self.rng.shuffle(self.e_b)
        return [(n, e) for e in self.e_b for n in self.blocks]

    def run(self, item):
        n_signals, e_b = item
        return finite_key.optimize_rate(n_signals, self.EPSILON, self.EPSILON_EC, e_b)

    def check(self, item, opt):
        n_signals, e_b = item
        check(
            opt.rate <= oracles.asymptotic_ceiling(e_b),
            f"rate {opt.rate} above the asymptotic ceiling at N={n_signals}, e_b={e_b}",
        )
        if opt.rate > 0.0:
            ref = oracles.finite_rate(
                n_signals, opt.n, opt.m, e_b, self.EPSILON, self.EPSILON_EC,
                opt.eps_bar, opt.eps_bar_prime,
            )
            check(
                abs(opt.rate - ref) <= 1e-12 * ref,
                f"rate {opt.rate!r} != formula {ref!r} at N={n_signals}, e_b={e_b}",
            )
        for point_rate in oracles.fixed_point_rates(
            n_signals, e_b, self.EPSILON, self.EPSILON_EC
        ):
            check(
                opt.rate >= point_rate,
                f"rate {opt.rate} below a fixed feasible point {point_rate} "
                f"at N={n_signals}, e_b={e_b}",
            )
        previous = self.last_rate.get(e_b, 0.0)
        check(
            opt.rate >= previous,
            f"rate falls from {previous} to {opt.rate} at N={n_signals}, e_b={e_b}",
        )
        self.last_rate[e_b] = opt.rate
        return False


# ---------------------------------------------------------------------------
# verify: the CLI self-check at its default config.

class Verify(Workload):
    """Runs at the default config, which fixes verify's own seed: its
    random checks draw fresh points per seed, and the quadrature cost of
    those points would otherwise vary the work from seed to seed."""

    unit = "verify runs"

    def __init__(self, seed: int, smoke: bool):
        self.argv = ["verify", "--mc-trials", "20000"] if smoke else ["verify"]

    def round_items(self):
        return [self.argv]

    def run(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(argv)
        return status, out.getvalue()

    def check(self, argv, result):
        status, text = result
        lines = text.strip().splitlines()
        check(status == 0, f"{' '.join(argv)} exited {status}: {text!r}")
        check(len(lines) >= 2 and lines[-1] == "all checks passed", f"verify output {text!r}")
        for line in lines[:-1]:
            check(line.split()[1:] == ["pass"], f"verify check failed: {line}")
        return False


WORKLOADS = {
    "decoy-sweep": DecoySweep,
    "montecarlo": MonteCarlo,
    "finite-key": FiniteKey,
    "verify": Verify,
}


def measure(workload, seconds: float, smoke: bool, tally):
    """Whole rounds of timed items until `seconds` have passed, with the
    workload's reference kernel timed before the first round and after each
    round."""
    started = time.perf_counter()
    before = time_kernel(workload.kernel)
    while True:
        first = len(tally["times"])
        for item in workload.round_items():
            t0 = time.perf_counter()
            output = workload.run(item)
            tally["times"].append(time.perf_counter() - t0)
            tally["units"] += workload.units(item)
            tally["failed"] += bool(workload.check(item, output))
        after = time_kernel(workload.kernel)
        tally["refs"] += [0.5 * (before + after)] * (len(tally["times"]) - first)
        before = after
        if smoke or time.perf_counter() - started >= seconds:
            return


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1)]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    result = {
        "env": {
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "dpsmdi": dpsmdi.__version__,
            "backends": list(montecarlo.available_backends()),
            "backend_ran": "compiled" if montecarlo.COMPILED_AVAILABLE else "python",
        },
        "unit": WORKLOADS[args.workload].unit,
    }
    log = []
    tally = {"times": [], "refs": [], "units": 0, "failed": 0}
    tracer = tracing.Tracer(SCENARIOS) if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, args.smoke)
        workload.gate(log)
        if tracer:
            tracer.install()
        measure(workload, args.seconds, args.smoke, tally)
        workload.finish(log)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            rel_errs = tracing.probe(tracer, args.seed, args.smoke, DecoySweep(args.seed, True))
            if isinstance(workload, DecoySweep):
                rel_errs.append(workload.rel_err_max)
            result["layers"] = tracer.metrics(max(rel_errs))
            result["trace"] = tracer.summary()
            tracer.uninstall()
        correct = True
    except CheckError as exc:
        log.append(f"CHECK FAILED: {exc}")
        correct = False
    times = tally["times"]
    in_refs = [t / r for t, r in zip(times, tally["refs"])]
    result.update(
        correct=correct,
        attempted=len(times),
        failed=tally["failed"],
        units=tally["units"],
        busy_s=sum(times),
        busy_ref=sum(in_refs),
        item_ms_p50=1e3 * statistics.median(times) if times else None,
        item_ms_p90=1e3 * percentile(times, 0.9) if len(times) >= 40 else None,
        item_ref_p50=statistics.median(in_refs) if times else None,
        ref_ms_p50=1e3 * statistics.median(tally["refs"]) if times else None,
        items_ms=[round(1e3 * t, 3) for t in times],
        refs_ms=[round(1e3 * r, 3) for r in tally["refs"]],
        log=log,
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
