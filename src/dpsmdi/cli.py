"""Command-line front end.

Subcommands:

    asymptotic    distance sweep of the single-photon rate and a
                  same-hardware one-way reference curve
    decoy         distance sweep of the weak-coherent decoy rate
    qber-slices   first-slice QBER against the slice count
    finite-key    optimized finite-block rates over a signal-count grid
    montecarlo    trial-level channel simulation tallies
    verify        self-check suite; nonzero exit on any failure

Every command reads an optional INI config (see :mod:`dpsmdi.config`),
applies flag overrides on top, and writes CSV to --out or stdout.  Output
is deterministic for a fixed (config, seed) pair.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from . import config as config_mod
from . import svgplot
from .config import ConfigError, RunConfig
from .finite_key import finite_key_sweep, sweep_to_csv
from .fock_optics import discrete_settings, conclusive_output_state
from .keyrate_asymptotic import (
    distance_grid,
    distance_sweep,
    qber_asymptotic,
    yield_Y11,
)
from .keyrate_decoy import (
    decoy_distance_sweep,
    direct_gain_quadrature,
    direct_qber_quadrature,
    overall_gain,
    overall_qber,
    slice_qber_sweep,
)
from .montecarlo import ChannelParams, run_trials
from .noise_security import (
    NoiseMatrix,
    bit_error_rate,
    error_gap,
    haar_random_physical,
    phase_error_rate,
)
from .protocol_sifting import (
    Action,
    BellLabel,
    DetectionOutcome,
    Register,
    conclusive_rows,
    extract_bits,
    sift,
    verify_entanglement_mapping,
)


def _write_output(text: str, out_path: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv(header: str, rows: Sequence[Sequence[Any]]) -> str:
    lines = [header]
    for row in rows:
        rendered = []
        for value in row:
            if isinstance(value, int):
                rendered.append(str(value))
            else:
                rendered.append(f"{value:.12g}")
        lines.append(",".join(rendered))
    return "\n".join(lines) + "\n"


def _maybe_svg(path: Optional[str], series: List[svgplot.Series], **kwargs: Any) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(svgplot.line_plot(series, **kwargs))


def cmd_asymptotic(cfg: RunConfig, svg: Optional[str] = None) -> str:
    grid = distance_grid(cfg.L_min, cfg.L_max, cfg.L_step)
    rows = distance_sweep(grid, **cfg.link())
    _maybe_svg(
        svg,
        [
            svgplot.Series("relay protocol", [r[0] for r in rows], [r[3] for r in rows]),
            svgplot.Series("one-way reference", [r[0] for r in rows], [r[4] for r in rows]),
        ],
        title="Single-photon key rate vs distance",
        x_label="total distance (km)",
        y_label="secret bits per signal",
        y_log=True,
    )
    return _csv("L_km,Y11,e_b,R_mdi,R_dps_reference", rows)


def cmd_decoy(cfg: RunConfig, svg: Optional[str] = None) -> str:
    grid = distance_grid(cfg.L_min, cfg.L_max, cfg.L_step)
    rows = decoy_distance_sweep(
        grid, mu_a=cfg.mu_a, mu_b=cfg.mu_b, n_slices=cfg.N_slices, **cfg.link()
    )
    _maybe_svg(
        svg,
        [svgplot.Series("decoy rate", [r[0] for r in rows], [r[6] for r in rows])],
        title="Weak-coherent decoy key rate vs distance",
        x_label="total distance (km)",
        y_label="secret bits per signal",
        y_log=True,
    )
    return _csv("L_km,Q_mu,E_mu,Q11,Qm0,Em0,R", rows)


def cmd_qber_slices(cfg: RunConfig, svg: Optional[str] = None) -> str:
    params = cfg.channel_params(cfg.slice_L_km)
    rows = slice_qber_sweep(cfg.mu_a, cfg.mu_b, params, cfg.N_slices)
    _maybe_svg(
        svg,
        [
            svgplot.Series("first slice", [r[0] for r in rows], [r[1] for r in rows]),
            svgplot.Series("no slicing", [r[0] for r in rows], [r[2] for r in rows]),
        ],
        title="Announced-phase slicing vs intrinsic QBER",
        x_label="number of phase slices",
        y_label="QBER",
        y_log=True,
    )
    return _csv("N_slices,E_m0,E_full", rows)


def cmd_finite_key(
    cfg: RunConfig, allow_full_budget: bool = False, svg: Optional[str] = None
) -> str:
    rows = finite_key_sweep(
        cfg.N_grid,
        cfg.e_b_list,
        epsilon=cfg.epsilon,
        epsilon_EC=cfg.epsilon_EC,
        allow_full_budget=allow_full_budget,
    )
    if svg:
        series = []
        for e_b in cfg.e_b_list:
            matching = [r for r in rows if r.e_b == e_b]
            series.append(
                svgplot.Series(
                    f"e_b = {e_b:g}",
                    [r.N_signals for r in matching],
                    [r.rate for r in matching],
                )
            )
        _maybe_svg(
            svg,
            series,
            title="Finite-block key rate",
            x_label="exchanged signals",
            y_label="secret bits per signal",
            x_log=True,
        )
    return sweep_to_csv(rows)


def cmd_montecarlo(cfg: RunConfig) -> str:
    params = cfg.channel_params(cfg.mc_L_km)
    return run_trials(params, cfg.n_trials, cfg.seed, threads=cfg.threads).to_csv()


class _CheckFailure(AssertionError):
    pass


def _check(condition: bool, detail: str) -> None:
    if not condition:
        raise _CheckFailure(detail)


def _verify_reconciliation() -> None:
    rows = conclusive_rows()
    for setting in discrete_settings():
        state = conclusive_output_state(setting)
        for outcome, expected in rows.items():
            probability = 0.0
            for pattern, amplitude in state.amplitudes.items():
                if DetectionOutcome.from_pattern(pattern) == outcome:
                    probability += abs(amplitude) ** 2
            decision = sift(outcome)
            _check(
                decision.action == expected.action,
                f"action mismatch at {outcome}",
            )
            if decision.action is Action.KEEP and probability > 1e-12:
                bits = extract_bits(decision, setting)
                _check(bits is not None, f"no bits extracted at {outcome}")
                _check(
                    bits[0] == bits[1],
                    f"noiseless bits disagree at {outcome} under {setting}",
                )


def _verify_bell_mapping() -> None:
    expectations = {
        ("same", "F1"): (BellLabel.CORRELATED, Register.A1B1),
        ("cross", "F1"): (BellLabel.ANTICORRELATED, Register.A1B1),
        ("same", "F2"): (BellLabel.CORRELATED, Register.A2B2),
        ("cross", "F2"): (BellLabel.ANTICORRELATED, Register.A2B2),
    }
    for outcome, expected in conclusive_rows().items():
        if expected.action is not Action.KEEP:
            continue
        detectors = {detector for detector, _bin in outcome.clicks}
        kind = "same" if len(detectors) == 1 else "cross"
        bins = {time_bin for _detector, time_bin in outcome.clicks}
        family = "F1" if bins == {1, 2} else "F2"
        label, register = expectations[(kind, family)]
        mapped = verify_entanglement_mapping(outcome)
        _check(
            mapped.label is label and mapped.register is register,
            f"Bell mapping mismatch at {outcome}: got {mapped}",
        )


def _verify_phase_error_bound(seed: int, draws: int = 2000) -> None:
    rng = np.random.default_rng(seed)
    for index in range(draws):
        damping = None if index % 2 == 0 else rng.uniform(0.2, 1.0, size=3)
        noise_a = haar_random_physical(rng, damping)
        noise_b = haar_random_physical(rng, damping)
        e_b = bit_error_rate(noise_a, noise_b)
        e_p = phase_error_rate(noise_a, noise_b)
        gap = error_gap(noise_a, noise_b)
        _check(e_p <= e_b + 1e-12, f"phase error exceeds bit error at draw {index}")
        _check(
            abs((e_b - e_p) - gap) <= 1e-12,
            f"gap identity violated at draw {index}",
        )
    identity = NoiseMatrix.identity()
    _check(
        abs(error_gap(identity, identity) - 4.0 / 9.0) <= 1e-12,
        "identity-noise gap is not 4/9",
    )


def _verify_gain(seed: int, draws: int = 10) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        mu_a = float(rng.uniform(0.05, 1.0))
        mu_b = float(rng.uniform(0.05, 1.0))
        params = ChannelParams(
            eta_a=float(rng.uniform(0.01, 1.0)),
            eta_b=float(rng.uniform(0.01, 1.0)),
            p_dark=float(rng.uniform(0.0, 1e-4)),
            e_d=0.0,
        )
        gain = overall_gain(mu_a, mu_b, params)
        qber = overall_qber(mu_a, mu_b, params)
        gain_ref = direct_gain_quadrature(mu_a, mu_b, params)
        qber_ref = direct_qber_quadrature(mu_a, mu_b, params)
        _check(abs(gain - gain_ref) <= 1e-8, "gain disagrees with quadrature")
        _check(abs(qber - qber_ref) <= 1e-8, "error sum disagrees with quadrature")


def _verify_montecarlo(seed: int, threads: int, n_trials: int) -> None:
    params = ChannelParams(eta_a=0.1, eta_b=0.1, p_dark=3e-6, e_d=0.015)
    estimates = run_trials(params, n_trials, seed, threads=threads)
    y11 = yield_Y11(params)
    sigma_y = (y11 * (1.0 - y11) / n_trials) ** 0.5
    _check(
        abs(estimates.y11_hat - y11) <= 4.0 * sigma_y,
        f"yield off by {abs(estimates.y11_hat - y11) / sigma_y:.2f} sigma",
    )
    e_b, background = qber_asymptotic(params)
    expected = e_b - 0.5 * background
    keeps = estimates.keep_count
    sigma_e = (expected * (1.0 - expected) / keeps) ** 0.5
    _check(
        abs(estimates.e_b_hat - expected) <= 4.0 * sigma_e,
        f"error rate off by {abs(estimates.e_b_hat - expected) / sigma_e:.2f} sigma",
    )


def cmd_verify(cfg: RunConfig, mc_trials: int = 2_000_000) -> tuple[str, int]:
    checks = [
        ("reconciliation-table", lambda: _verify_reconciliation()),
        ("bell-state-mapping", lambda: _verify_bell_mapping()),
        ("phase-error-bound", lambda: _verify_phase_error_bound(cfg.seed)),
        ("gain-vs-quadrature", lambda: _verify_gain(cfg.seed)),
        ("mc-vs-analytic", lambda: _verify_montecarlo(cfg.seed, cfg.threads, mc_trials)),
    ]
    lines = []
    failures = 0
    for name, check in checks:
        try:
            check()
        except Exception as exc:
            failures += 1
            lines.append(f"{name:22s} FAIL  {exc}")
        else:
            lines.append(f"{name:22s} pass")
    lines.append(f"{failures} of {len(checks)} checks failed" if failures else "all checks passed")
    return "\n".join(lines) + "\n", (1 if failures else 0)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="INI config file")
    parser.add_argument("--out", metavar="PATH", help="write output here instead of stdout")
    parser.add_argument(
        "--echo-config",
        metavar="PATH",
        help="write the fully resolved config as INI ('-' for stdout)",
    )
    parser.add_argument("--seed", type=int, help="64-bit unsigned RNG seed")
    parser.add_argument(
        "--threads", type=int,
        help="Monte Carlo worker threads (montecarlo and verify's MC check)",
    )


def _add_channel(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--eta-det", type=float, dest="eta_det")
    parser.add_argument("--p-dark", type=float, dest="p_dark")
    parser.add_argument("--e-d", type=float, dest="e_d")
    parser.add_argument("--f", type=float, dest="f")
    parser.add_argument("--alpha-db-per-km", type=float, dest="alpha_db_per_km")


def _add_sweep(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--l-min", type=float, dest="L_min")
    parser.add_argument("--l-max", type=float, dest="L_max")
    parser.add_argument("--l-step", type=float, dest="L_step")


def _add_svg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--svg", metavar="PATH", help="also render an SVG plot")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsmdi",
        description="Key-rate analysis for a three-pulse phase-encoded "
        "protocol with an untrusted measurement relay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asymptotic", help="single-photon rate vs distance")
    _add_common(p)
    _add_channel(p)
    _add_sweep(p)
    _add_svg(p)

    p = sub.add_parser("decoy", help="weak-coherent decoy rate vs distance")
    _add_common(p)
    _add_channel(p)
    _add_sweep(p)
    _add_svg(p)
    p.add_argument("--mu-a", type=float, dest="mu_a")
    p.add_argument("--mu-b", type=float, dest="mu_b")
    p.add_argument("--n-slices", type=int, dest="N_slices")

    p = sub.add_parser("qber-slices", help="first-slice QBER vs slice count")
    _add_common(p)
    _add_channel(p)
    _add_svg(p)
    p.add_argument("--mu-a", type=float, dest="mu_a")
    p.add_argument("--mu-b", type=float, dest="mu_b")
    p.add_argument("--n-slices", type=int, dest="N_slices")
    p.add_argument("--l-km", type=float, dest="slice_L_km")

    p = sub.add_parser("finite-key", help="optimized finite-block rates")
    _add_common(p)
    _add_svg(p)
    p.add_argument("--epsilon", type=float, dest="epsilon")
    p.add_argument("--epsilon-ec", type=float, dest="epsilon_EC")
    p.add_argument(
        "--e-b", dest="e_b_list", metavar="LIST",
        help="comma-separated bit error rates",
    )
    p.add_argument(
        "--n-grid", dest="N_grid", metavar="LIST",
        help="comma-separated signal counts (1e9 notation allowed)",
    )
    p.add_argument(
        "--allow-full-budget", action="store_true",
        help="lift the sample budget from (4/9)N to N",
    )

    p = sub.add_parser("montecarlo", help="trial-level simulation tallies")
    _add_common(p)
    _add_channel(p)
    p.add_argument("--n-trials", type=int, dest="n_trials")
    p.add_argument("--l-km", type=float, dest="mc_L_km")

    p = sub.add_parser("verify", help="run the self-check suite")
    _add_common(p)
    p.add_argument(
        "--mc-trials", type=int, default=2_000_000,
        help="trial count for the mc-vs-analytic check",
    )
    return parser


_OVERRIDE_ATTRS = (
    "eta_det", "p_dark", "e_d", "f", "alpha_db_per_km",
    "L_min", "L_max", "L_step",
    "mu_a", "mu_b", "N_slices", "slice_L_km",
    "epsilon", "epsilon_EC",
    "n_trials", "mc_L_km",
    "seed", "threads", "out",
)


def _collect_overrides(args: argparse.Namespace) -> Dict[str, Any]:
    overrides: Dict[str, Any] = {}
    for attr in _OVERRIDE_ATTRS:
        value = getattr(args, attr, None)
        if value is not None:
            overrides[attr] = value
    raw_e_b = getattr(args, "e_b_list", None)
    if raw_e_b is not None:
        overrides["e_b_list"] = config_mod._parse_float_list(raw_e_b)
    raw_grid = getattr(args, "N_grid", None)
    if raw_grid is not None:
        overrides["N_grid"] = config_mod._parse_int_list(raw_grid)
    return overrides


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = config_mod.load(args.config, _collect_overrides(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    echo_path = getattr(args, "echo_config", None)
    if echo_path:
        if echo_path == "-":
            sys.stdout.write(cfg.to_ini())
        else:
            with open(echo_path, "w", encoding="utf-8") as handle:
                handle.write(cfg.to_ini())

    try:
        if args.command == "asymptotic":
            text = cmd_asymptotic(cfg, svg=args.svg)
        elif args.command == "decoy":
            text = cmd_decoy(cfg, svg=args.svg)
        elif args.command == "qber-slices":
            text = cmd_qber_slices(cfg, svg=args.svg)
        elif args.command == "finite-key":
            text = cmd_finite_key(
                cfg, allow_full_budget=args.allow_full_budget, svg=args.svg
            )
        elif args.command == "montecarlo":
            text = cmd_montecarlo(cfg)
        elif args.command == "verify":
            text, status = cmd_verify(cfg, mc_trials=args.mc_trials)
            _write_output(text, cfg.out)
            return status
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    _write_output(text, cfg.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
