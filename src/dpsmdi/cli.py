"""Command-line front end.

Subcommands:

    asymptotic    distance sweep of the single-photon rate and a
                  same-hardware one-way reference curve
    decoy         distance sweep of the weak-coherent decoy rate
    qber-slices   first-slice QBER against the slice count
    finite-key    optimized finite-block rates over a signal-count grid
    montecarlo    trial-level channel simulation tallies
    verify        the self-checks of :mod:`dpsmdi.checks` at this command's
                  draws and sizes (``VERIFY_CHECKS``); one pass/FAIL line
                  each, nonzero exit on any failure

Every command reads an optional INI config (see :mod:`dpsmdi.config`),
applies flag overrides on top, and writes CSV to --out or stdout.  Output
is deterministic for a fixed (config, seed) pair.  Each config setting of
the sections a command reads (``_COMMANDS``) is also one of its flags,
spelled as :mod:`dpsmdi.config` says and parsed by the same parser.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import checks
from . import config as config_mod
from . import svgplot
from .config import MAX_TRIALS, ConfigError, RunConfig
from .finite_key import finite_key_sweep, sweep_to_csv
from .keyrate_asymptotic import distance_grid, distance_sweep
from .keyrate_decoy import decoy_distance_sweep, slice_qber_sweep
from .montecarlo import E_D, P_DARK, ChannelParams, run_trials
from .noise_security import NoiseMatrix, haar_random_physical


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


def _haar_pairs(seed: int, draws: int = 2000) -> Iterator[Tuple[NoiseMatrix, NoiseMatrix]]:
    """Haar-random physical noise pairs, every other pair damped."""
    rng = np.random.default_rng(seed)
    for index in range(draws):
        damping = None if index % 2 == 0 else rng.uniform(0.2, 1.0, size=3)
        yield haar_random_physical(rng, damping), haar_random_physical(rng, damping)


def _gain_points(seed: int, draws: int = 10) -> Iterator[Tuple[float, float, ChannelParams]]:
    """Random (mu_a, mu_b, channel) points without misalignment."""
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
        yield mu_a, mu_b, params


_LOSSY = ChannelParams(eta_a=0.1, eta_b=0.1, p_dark=P_DARK, e_d=E_D)

# verify's checks in report order: name -> check of (config, Monte Carlo trials)
VERIFY_CHECKS: Dict[str, Callable[[RunConfig, int], None]] = {
    "reconciliation-table": lambda cfg, trials: checks.reconciliation_table(),
    "bell-state-mapping": lambda cfg, trials: checks.bell_state_mapping(),
    "phase-error-bound": lambda cfg, trials: checks.phase_error_bound(_haar_pairs(cfg.seed)),
    "gain-vs-quadrature": lambda cfg, trials: checks.gain_vs_quadrature(_gain_points(cfg.seed)),
    "mc-vs-analytic": lambda cfg, trials: checks.mc_vs_analytic(
        _LOSSY, trials, cfg.seed, cfg.threads, sigmas=4.0
    ),
}


def cmd_verify(cfg: RunConfig, mc_trials: int = 2_000_000) -> tuple[str, int]:
    lines = []
    failures = 0
    for name, check in VERIFY_CHECKS.items():
        try:
            check(cfg, mc_trials)
        except Exception as exc:
            failures += 1
            lines.append(f"{name:22s} FAIL  {exc}")
        else:
            lines.append(f"{name:22s} pass")
    lines.append(
        f"{failures} of {len(VERIFY_CHECKS)} checks failed" if failures else "all checks passed"
    )
    return "\n".join(lines) + "\n", (1 if failures else 0)


# command -> (help, config sections taken as flags besides [run])
_COMMANDS = {
    "asymptotic": ("single-photon rate vs distance", ("channel", "sweep")),
    "decoy": ("weak-coherent decoy rate vs distance", ("channel", "sweep", "decoy")),
    "qber-slices": ("first-slice QBER vs slice count", ("channel", "decoy")),
    "finite-key": ("optimized finite-block rates", ("finite_key",)),
    "montecarlo": ("trial-level simulation tallies", ("channel", "montecarlo")),
    "verify": ("run the self-check suite", ()),
}
# decoy sweeps the distance, so qber-slices' one distance is no flag there
_NOT_FLAGS = {"decoy": ("slice_L_km",)}
# flags not spelled "--" + the lower-cased key with "_" as "-"
_FLAG_NAMES = {"e_b_list": "--e-b"}


def _flag_type(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """The INI parser, reporting a bad value the argparse way (exit 2)."""

    def convert(text: str) -> Any:
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc

    return convert


def _trial_count(text: str) -> int:
    value = _flag_type(config_mod._parse_int)(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    if value > MAX_TRIALS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_TRIALS:.0e}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsmdi",
        description="Key-rate analysis for a three-pulse phase-encoded "
        "protocol with an untrusted measurement relay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {}
    for command, (help_text, sections) in _COMMANDS.items():
        p = parsers[command] = sub.add_parser(command, help=help_text)
        p.add_argument("--config", metavar="PATH", help="INI config file")
        p.add_argument(
            "--echo-config",
            metavar="PATH",
            help="write the fully resolved config as INI ('-' for stdout)",
        )
        for setting in config_mod.SETTINGS:
            if setting.section in sections + ("run",) and (
                setting.name not in _NOT_FLAGS.get(command, ())
            ):
                flag = "--" + setting.key.lower().replace("_", "-")
                p.add_argument(
                    _FLAG_NAMES.get(setting.name, flag),
                    dest=setting.name,
                    type=_flag_type(setting.parse),
                    help=f"[{setting.section}] {setting.key} of the INI config",
                )
    for command in ("asymptotic", "decoy", "qber-slices", "finite-key"):
        parsers[command].add_argument("--svg", metavar="PATH", help="also render an SVG plot")
    parsers["finite-key"].add_argument(
        "--allow-full-budget", action="store_true",
        help="lift the sample budget from (4/9)N to N",
    )
    parsers["verify"].add_argument(
        "--mc-trials", type=_trial_count, default=2_000_000,
        help="trial count for the mc-vs-analytic check",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = {s.name: getattr(args, s.name, None) for s in config_mod.SETTINGS}
        cfg = config_mod.load(args.config, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.echo_config:
        if args.echo_config == "-":
            sys.stdout.write(cfg.to_ini())
        else:
            with open(args.echo_config, "w", encoding="utf-8") as handle:
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
