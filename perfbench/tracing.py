"""Spans around the calls into each layer, taken from outside the package.

Tracer.install() replaces each traced public function, in every loaded
dpsmdi module that holds it, by a wrapper that records one span per call:
its duration, its self time (duration minus the time of traced calls made
inside it) and which traced function called it. Spans are aggregated in
memory per function and reported when the run ends. The wrappers assume
the traced calls run on one thread, which is how the workloads call them;
run_trials' own worker threads call nothing traced.
"""

from __future__ import annotations

import random
import statistics
import sys
from array import array
from time import perf_counter_ns

import numpy as np

from dpsmdi import finite_key, keyrate_decoy, montecarlo, noise_security
from dpsmdi.montecarlo import ChannelParams

TRACED = (
    (montecarlo, "run_trials"),
    (keyrate_decoy, "decoy_key_rate"),
    (keyrate_decoy, "sliced_gain_qber"),
    (keyrate_decoy, "overall_gain"),
    (keyrate_decoy, "direct_gain_quadrature"),
    (keyrate_decoy, "direct_qber_quadrature"),
    (finite_key, "optimize_rate"),
    (finite_key, "finite_rate"),
    (noise_security, "error_gap"),
)


class Layer:
    def __init__(self):
        self.durations = array("q")  # ns
        self.self_ns = 0
        self.callers = {}
        self.notes = []


class Tracer:
    def __init__(self, scenarios):
        self.scenarios = scenarios
        self.layers = {}
        self.stack = []
        self.patched = []
        self.build_tables_ms = None

    def _run_trials_note(self, args, kwargs, result, dt):
        params = args[0]
        label = next((k for k, v in self.scenarios.items() if v == params), "other")
        threads = kwargs.get("threads", args[3] if len(args) > 3 else 1)
        return label, threads, result.n_trials, result.keep_count, dt

    def _wrap(self, name, func, note):
        layer = self.layers[name] = Layer()
        stack = self.stack

        def traced(*args, **kwargs):
            caller = stack[-1][0] if stack else "item"
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - start
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                layer.durations.append(dt)
                layer.self_ns += dt - frame[1]
                layer.callers[caller] = layer.callers.get(caller, 0) + 1
            if note is not None:
                layer.notes.append(note(args, kwargs, result, dt))
            return result

        return traced

    def install(self):
        modules = [m for n, m in sys.modules.items() if n == "dpsmdi" or n.startswith("dpsmdi.")]
        for module, attr in TRACED:
            func = getattr(module, attr)
            note = self._run_trials_note if attr == "run_trials" else None
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            wrapper = self._wrap(name, func, note)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is func:
                        setattr(holder, key, wrapper)
                        self.patched.append((holder, key, func))

    def uninstall(self):
        for holder, key, func in reversed(self.patched):
            setattr(holder, key, func)
        self.patched.clear()

    def median_ns(self, name):
        return statistics.median(self.layers[name].durations)

    def calls_per(self, name, caller):
        return self.layers[name].callers.get(caller, 0) / len(self.layers[caller].durations)

    def metrics(self, rel_err_max):
        """Every per-layer metric, by the names BENCHMARK.json gives them."""
        notes = self.layers["montecarlo.run_trials"].notes

        def rate(rows):  # Mtrials/s over the summed span time
            return 1e3 * sum(r[2] for r in rows) / sum(r[4] for r in rows)

        out = {"montecarlo.build_tables_ms": self.build_tables_ms}
        for label in self.scenarios:
            rows = [r for r in notes if r[0] == label]
            out[f"montecarlo.mtrials_per_s.{label}"] = rate([r for r in rows if r[1] == 1])
            out[f"montecarlo.keep_fraction.{label}"] = (
                sum(r[3] for r in rows) / sum(r[2] for r in rows)
            )
        out["montecarlo.mtrials_per_s.threads2"] = rate([r for r in notes if r[1] == 2])
        out["keyrate_decoy.decoy_key_rate_ms"] = self.median_ns("keyrate_decoy.decoy_key_rate") / 1e6
        out["keyrate_decoy.sliced_gain_qber_ms"] = self.median_ns("keyrate_decoy.sliced_gain_qber") / 1e6
        out["keyrate_decoy.slice_integrals_per_point"] = self.calls_per(
            "keyrate_decoy.sliced_gain_qber", "keyrate_decoy.decoy_key_rate"
        )
        out["keyrate_decoy.gain_rel_err_max"] = rel_err_max
        out["keyrate_decoy.direct_gain_quadrature_ms"] = (
            self.median_ns("keyrate_decoy.direct_gain_quadrature") / 1e6
        )
        out["finite_key.optimize_rate_ms"] = self.median_ns("finite_key.optimize_rate") / 1e6
        out["finite_key.finite_rate_us"] = self.median_ns("finite_key.finite_rate") / 1e3
        out["finite_key.finite_rate_calls_per_optimum"] = self.calls_per(
            "finite_key.finite_rate", "finite_key.optimize_rate"
        )
        out["noise_security.error_gap_us"] = self.median_ns("noise_security.error_gap") / 1e3
        return out

    def summary(self):
        """Calls, total and self time, and callers of every traced layer."""
        return {
            name: {
                "calls": len(layer.durations),
                "total_ms": sum(layer.durations) / 1e6,
                "self_ms": layer.self_ns / 1e6,
                "callers": layer.callers,
            }
            for name, layer in self.layers.items()
            if layer.durations
        }


def probe(tracer, seed, smoke, decoy):
    """Fixed calls into every traced layer, so that each per-layer metric
    exists whichever workload ran. Returns the decoy rows' relative errors."""
    rng = random.Random(f"probe:{seed}")
    scale = 20 if smoke else 1

    cold = []
    for _ in range(3):
        montecarlo.build_tables.cache_clear()
        start = perf_counter_ns()
        montecarlo.build_tables()
        cold.append(perf_counter_ns() - start)
    tracer.build_tables_ms = statistics.median(cold) / 1e6

    # long-haul keeps about one trial in a million, so it gets more trials
    for name, params in tracer.scenarios.items():
        n = (4_000_000 if name == "long-haul" else 400_000) // scale
        montecarlo.run_trials(params, n, rng.getrandbits(64), threads=1)
    montecarlo.run_trials(
        tracer.scenarios["lossy"], 400_000 // scale, rng.getrandbits(64), threads=2
    )

    rel_errs = [decoy.row_rel_err(row, decoy.run(row)) for row in decoy.rows]

    keyrate_decoy.direct_gain_quadrature(
        0.5, 0.5, ChannelParams(eta_a=0.3, eta_b=0.2, p_dark=1e-5, e_d=0.0)
    )
    for n_signals, e_b in ((10**6, 0.02), (10**9, 0.04), (10**12, 0.01)):
        finite_key.optimize_rate(n_signals, 1e-5, 1e-10, e_b)
    np_rng = np.random.default_rng(rng.getrandbits(64))
    for _ in range(1000 // scale):
        noise_security.error_gap(
            noise_security.haar_random_physical(np_rng),
            noise_security.haar_random_physical(np_rng),
        )
    return rel_errs
