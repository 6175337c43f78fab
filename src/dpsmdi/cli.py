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
the sections a command reads (``_COMMANDS``: ``[run]`` for all, ``[plot]``
for the four plotting commands, ``[verify]`` for verify) is also one of its
flags, spelled as :mod:`dpsmdi.config` says and parsed by the same parser.
Only --config and --echo-config lie outside the config, so an echoed
config re-runs identically, the SVG plot included.  A path that cannot be
written ends the run with one ``error:`` line and exit status 1.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import checks
from . import config as config_mod
from . import svgplot
from .channel import E_D, P_DARK, ChannelParams
from .config import ConfigError, RunConfig
from .finite_key import optimize_rate
from .keyrate_asymptotic import (
    distance_grid,
    dps_reference_params,
    dps_reference_rate,
    secure_rate,
)
from .keyrate_decoy import decoy_key_rate, slice_qber_sweep
from .montecarlo import run_trials
from .noise_security import NoiseMatrix, haar_random_physical

# a command's output text and exit status
Output = Tuple[str, int]


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc.strerror or exc}") from exc


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


def _maybe_svg(path: str, series: List[svgplot.Series], **kwargs: Any) -> None:
    if path:
        _write(path, svgplot.line_plot(series, **kwargs))


def cmd_asymptotic(cfg: RunConfig) -> Output:
    rows = []
    for l_km in distance_grid(cfg.L_min, cfg.L_max, cfg.L_step):
        report = secure_rate(cfg.channel_params(l_km))
        baseline = dps_reference_rate(dps_reference_params(l_km, **cfg.link()))
        rows.append((l_km, report.Y11, report.e_b, report.R, baseline))
    _maybe_svg(
        cfg.svg,
        [
            svgplot.Series("relay protocol", [r[0] for r in rows], [r[3] for r in rows]),
            svgplot.Series("one-way reference", [r[0] for r in rows], [r[4] for r in rows]),
        ],
        title="Single-photon key rate vs distance",
        x_label="total distance (km)",
        y_label="secret bits per signal",
        y_log=True,
    )
    return _csv("L_km,Y11,e_b,R_mdi,R_dps_reference", rows), 0


def cmd_decoy(cfg: RunConfig) -> Output:
    rows = []
    for l_km in distance_grid(cfg.L_min, cfg.L_max, cfg.L_step):
        r = decoy_key_rate(cfg.mu_a, cfg.mu_b, cfg.channel_params(l_km), cfg.N_slices)
        rows.append((l_km, r.q_mu, r.e_mu, r.q11, r.q_slice0, r.e_slice0, r.rate))
    _maybe_svg(
        cfg.svg,
        [svgplot.Series("decoy rate", [r[0] for r in rows], [r[6] for r in rows])],
        title="Weak-coherent decoy key rate vs distance",
        x_label="total distance (km)",
        y_label="secret bits per signal",
        y_log=True,
    )
    return _csv("L_km,Q_mu,E_mu,Q11,Qm0,Em0,R", rows), 0


def cmd_qber_slices(cfg: RunConfig) -> Output:
    params = cfg.channel_params(cfg.slice_L_km)
    rows = slice_qber_sweep(cfg.mu_a, cfg.mu_b, params, cfg.N_slices)
    _maybe_svg(
        cfg.svg,
        [
            svgplot.Series("first slice", [r[0] for r in rows], [r[1] for r in rows]),
            svgplot.Series("no slicing", [r[0] for r in rows], [r[2] for r in rows]),
        ],
        title="Announced-phase slicing vs intrinsic QBER",
        x_label="number of phase slices",
        y_label="QBER",
        y_log=True,
    )
    return _csv("N_slices,E_m0,E_full", rows), 0


def cmd_finite_key(cfg: RunConfig) -> Output:
    # one row per (block, e_b), e_b varying fastest
    rows = [
        optimize_rate(n, cfg.epsilon, cfg.epsilon_EC, e_b)
        for n in cfg.N_grid
        for e_b in cfg.e_b_list
    ]
    _maybe_svg(
        cfg.svg,
        [
            svgplot.Series(
                f"e_b = {e_b:g}",
                list(cfg.N_grid),
                [r.rate for r in rows[k :: len(cfg.e_b_list)]],
            )
            for k, e_b in enumerate(cfg.e_b_list)
        ],
        title="Finite-block key rate",
        x_label="exchanged signals",
        y_label="secret bits per signal",
        x_log=True,
    )
    return _csv(
        "N_signals,e_b,r,n_opt,m_opt,eps_bar,eps_bar_prime",
        [(r.N_signals, r.e_b, r.rate, r.n, r.m, r.eps_bar, r.eps_bar_prime) for r in rows],
    ), 0


def cmd_montecarlo(cfg: RunConfig) -> Output:
    params = cfg.channel_params(cfg.mc_L_km)
    return run_trials(params, cfg.n_trials, cfg.seed).to_csv(), 0


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

# verify's checks in report order: name -> check of the config
VERIFY_CHECKS: Dict[str, Callable[[RunConfig], None]] = {
    "reconciliation-table": lambda cfg: checks.reconciliation_table(),
    "bell-state-mapping": lambda cfg: checks.bell_state_mapping(),
    "phase-error-bound": lambda cfg: checks.phase_error_bound(_haar_pairs(cfg.seed)),
    "gain-vs-quadrature": lambda cfg: checks.gain_vs_quadrature(_gain_points(cfg.seed)),
    "mc-vs-analytic": lambda cfg: checks.mc_vs_analytic(
        _LOSSY, cfg.mc_trials, cfg.seed, sigmas=4.0
    ),
}


def cmd_verify(cfg: RunConfig) -> Output:
    lines = []
    failures = 0
    for name, check in VERIFY_CHECKS.items():
        try:
            check(cfg)
        except Exception as exc:
            failures += 1
            lines.append(f"{name:22s} FAIL  {exc}")
        else:
            lines.append(f"{name:22s} pass")
    lines.append(
        f"{failures} of {len(VERIFY_CHECKS)} checks failed" if failures else "all checks passed"
    )
    return "\n".join(lines) + "\n", (1 if failures else 0)


# command -> (help, config sections taken as flags besides [run], command)
_COMMANDS: Dict[str, Tuple[str, Tuple[str, ...], Callable[[RunConfig], Output]]] = {
    "asymptotic": (
        "single-photon rate vs distance", ("channel", "sweep", "plot"), cmd_asymptotic
    ),
    "decoy": (
        "weak-coherent decoy rate vs distance",
        ("channel", "sweep", "decoy", "plot"),
        cmd_decoy,
    ),
    "qber-slices": (
        "first-slice QBER vs slice count", ("channel", "decoy", "plot"), cmd_qber_slices
    ),
    "finite-key": ("optimized finite-block rates", ("finite_key", "plot"), cmd_finite_key),
    "montecarlo": (
        "trial-level simulation tallies", ("channel", "montecarlo"), cmd_montecarlo
    ),
    "verify": ("run the self-check suite", ("verify",), cmd_verify),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpsmdi",
        description="Key-rate analysis for a three-pulse phase-encoded "
        "protocol with an untrusted measurement relay.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, sections, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
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
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        overrides = {s.name: getattr(args, s.name, None) for s in config_mod.SETTINGS}
        cfg = config_mod.load(args.config, overrides)
        if args.echo_config == "-":
            sys.stdout.write(cfg.to_ini())
        elif args.echo_config:
            _write(args.echo_config, cfg.to_ini())
        text, status = _COMMANDS[args.command][2](cfg)
        if cfg.out:
            _write(cfg.out, text)
        else:
            sys.stdout.write(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
