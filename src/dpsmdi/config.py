"""Run configuration for the command-line front end.

A run is described by a flat INI file with one section per concern:

    [channel]     eta_det, p_dark, e_d, f, alpha_db_per_km
    [sweep]       L_min, L_max, L_step          (total distances, km)
    [decoy]       mu_a, mu_b, N_slices, L_km    (L_km feeds qber-slices)
    [finite_key]  epsilon, epsilon_EC, e_b_list, N_grid
    [montecarlo]  n_trials, L_km
    [verify]      mc_trials                     (verify's Monte Carlo check)
    [plot]        svg                           (SVG plot path; empty: none)
    [run]         seed, out

A ``RunConfig`` field is the one declaration of a setting: it names its
section next to its default (and its key, where that differs from the field
name), and its type picks the parser and renderer.  On the command line a
setting is spelled ``--`` plus its key, lower-cased, with ``_`` turned into
``-`` (``N_grid`` is ``--n-grid``); the one exception is ``e_b_list``,
spelled ``--e-b``.  A flag and an INI line go through the same parser, so
``--n-trials 1e6`` and ``n_trials = 1e6`` mean the same.

Unknown sections or keys are rejected by name.  ``to_ini`` emits the fully
resolved state and ``from_ini_text(to_ini())`` reproduces it exactly, so an
echoed config re-runs identically.

The floors on epsilon - epsilon_EC (``epsilon_gap_floor``) live here, beside
the check that rejects a config below them; ``finite_key.optimize_rate``
reads the same floor.  Like :mod:`dpsmdi.channel`, whose defaults the
``[channel]`` fields take, this module imports only the standard library.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal, InvalidOperation
from itertools import groupby
from typing import Any, Callable, Dict, List, Mapping, Tuple, get_type_hints

from .channel import ALPHA_DB_PER_KM, E_D, ETA_DET, F_EC, P_DARK, ChannelParams

# Most points a distance sweep may have: far above the default 61, and a
# bound on what a mistyped L_step can ask for.
_MAX_SWEEP_POINTS = 100_001
# Most slices: the cap bounds qber-slices, which evaluates one row per N;
# README's cap table gives its run time and memory at the cap.
_MAX_SLICES = 10**4
# Most Monte Carlo trials; README's cap table gives the run time at the cap.
MAX_TRIALS = 10**10
# Largest block size: the sifted budget stays below 2**53, so every split the
# finite-key search ranks is an exact float64 integer; README's cap table
# gives the cost of an optimum.
_MAX_BLOCK = 10**15
# Largest mean photon number per sender: with eta_det = 1 the decoy gain at
# 0 km underflows to 0 from mu = 1367 on, and `decoy` then fails.
_MAX_MU = 1000.0

# Smallest epsilon - epsilon_EC the finite-key search runs at, absolute and as
# a fraction of epsilon.  Within its refinement edges eps_bar_prime stays above
# 1e-12 (epsilon - epsilon_EC), so 1/eps_bar_prime is a finite float64, and
# the penalty's slack epsilon - eps_bar - epsilon_EC stays above
# 1e-6 (epsilon - epsilon_EC), well clear of float64 rounding at epsilon.
MIN_EPSILON_GAP = 1e-290
MIN_RELATIVE_EPSILON_GAP = 1e-9


def epsilon_gap_floor(epsilon: float) -> float:
    """Smallest epsilon - epsilon_EC that optimize_rate searches at."""
    return max(MIN_EPSILON_GAP, MIN_RELATIVE_EPSILON_GAP * epsilon)


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


def _parse_int(text: str) -> int:
    """An integer, read exactly; 1e6 or 2.5e3 notation only where it names one."""
    try:
        exact = Decimal(text)
    except InvalidOperation:
        exact = Decimal("NaN")
    if not (exact.is_finite() and exact == exact.to_integral_value()):
        raise ConfigError(f"expected an integer, got {text!r}")
    if not math.isfinite(float(exact)):
        raise ConfigError(f"integer {text!r} lies beyond the float range")
    return int(exact)


def _list_tokens(text: str) -> List[str]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ConfigError("empty list value")
    return tokens


def _parse_float_list(text: str) -> Tuple[float, ...]:
    return tuple(float(tok) for tok in _list_tokens(text))


def _parse_int_list(text: str) -> Tuple[int, ...]:
    return tuple(_parse_int(tok) for tok in _list_tokens(text))


def _render_list(values: Tuple[Any, ...]) -> str:
    return ", ".join(repr(v) for v in values)


def _ini(section: str, default: Any, key: str | None = None) -> Any:
    """A field read from INI ``[section] key``; the key defaults to the field name."""
    return field(default=default, metadata={"section": section, "key": key})


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters for one CLI invocation."""

    eta_det: float = _ini("channel", ETA_DET)
    p_dark: float = _ini("channel", P_DARK)
    e_d: float = _ini("channel", E_D)
    f: float = _ini("channel", F_EC)
    alpha_db_per_km: float = _ini("channel", ALPHA_DB_PER_KM)
    L_min: float = _ini("sweep", 0.0)
    L_max: float = _ini("sweep", 300.0)
    L_step: float = _ini("sweep", 5.0)
    mu_a: float = _ini("decoy", 0.5)
    mu_b: float = _ini("decoy", 0.5)
    N_slices: int = _ini("decoy", 16)
    slice_L_km: float = _ini("decoy", 0.0, key="L_km")
    epsilon: float = _ini("finite_key", 1e-5)
    epsilon_EC: float = _ini("finite_key", 1e-10)
    e_b_list: Tuple[float, ...] = _ini("finite_key", (0.01, 0.03, 0.05))
    N_grid: Tuple[int, ...] = _ini("finite_key", (
        10**5, 3 * 10**5, 10**6, 3 * 10**6, 10**7, 3 * 10**7,
        10**8, 3 * 10**8, 10**9, 10**10, 10**11, 10**12,
    ))
    n_trials: int = _ini("montecarlo", 1_000_000)
    mc_L_km: float = _ini("montecarlo", 0.0, key="L_km")
    mc_trials: int = _ini("verify", 2_000_000)
    svg: str = _ini("plot", "")
    seed: int = _ini("run", 1)
    out: str = _ini("run", "")

    def __post_init__(self) -> None:
        def bad(message: str) -> None:
            raise ConfigError(message)

        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                bad(f"{field.name} must be finite, got {value}")
        if not 0.0 < self.eta_det <= 1.0:
            bad(f"eta_det must lie in (0, 1], got {self.eta_det}")
        if not 0.0 <= self.p_dark < 1.0:
            bad(f"p_dark must lie in [0, 1), got {self.p_dark}")
        if not 0.0 <= self.e_d <= 0.5:
            bad(f"e_d must lie in [0, 0.5], got {self.e_d}")
        if not self.f >= 1.0:
            bad(f"error-correction efficiency f must be >= 1, got {self.f}")
        if not self.alpha_db_per_km >= 0.0:
            bad(f"alpha_db_per_km must be non-negative, got {self.alpha_db_per_km}")
        if not self.L_min >= 0.0:
            bad(f"L_min must be non-negative, got {self.L_min}")
        if not self.L_max >= self.L_min:
            bad(f"L_max must be >= L_min, got {self.L_max} < {self.L_min}")
        if not self.L_step > 0.0:
            bad(f"L_step must be positive, got {self.L_step}")
        if not (self.L_max - self.L_min) / self.L_step <= _MAX_SWEEP_POINTS - 1:
            bad(
                f"the sweep from {self.L_min} to {self.L_max} in steps of "
                f"{self.L_step} has more than {_MAX_SWEEP_POINTS} points"
            )
        for name in ("mu_a", "mu_b"):
            if not 0.0 < getattr(self, name) <= _MAX_MU:
                bad(f"{name} must lie in (0, {_MAX_MU:g}], got {getattr(self, name)}")
        if not 1 <= self.N_slices <= _MAX_SLICES:
            bad(f"N_slices must lie in [1, {_MAX_SLICES}], got {self.N_slices}")
        if not self.slice_L_km >= 0.0:
            bad(f"[decoy] L_km must be non-negative, got {self.slice_L_km}")
        if not 0.0 < self.epsilon < 1.0:
            bad(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not 0.0 <= self.epsilon_EC < self.epsilon:
            bad(
                "epsilon_EC must lie in [0, epsilon), got "
                f"{self.epsilon_EC} with epsilon = {self.epsilon}"
            )
        gap_floor = epsilon_gap_floor(self.epsilon)
        if not self.epsilon - self.epsilon_EC >= gap_floor:
            bad(
                f"epsilon - epsilon_EC must be at least {gap_floor:.3g} "
                f"(the larger of {MIN_EPSILON_GAP:g} and {MIN_RELATIVE_EPSILON_GAP:g} epsilon), "
                f"got {self.epsilon} - {self.epsilon_EC}"
            )
        for value in self.e_b_list:
            if not 0.0 < value < 0.5:
                bad(f"e_b values must lie in (0, 0.5), got {value}")
        for value in self.N_grid:
            if not 1 <= value <= _MAX_BLOCK:
                bad(f"N_grid values must lie in [1, {_MAX_BLOCK:.0e}], got {value}")
        for name in ("n_trials", "mc_trials"):
            if not 1 <= getattr(self, name) <= MAX_TRIALS:
                bad(f"{name} must lie in [1, {MAX_TRIALS:.0e}], got {getattr(self, name)}")
        if not self.mc_L_km >= 0.0:
            bad(f"[montecarlo] L_km must be non-negative, got {self.mc_L_km}")
        if not 0 <= self.seed < 2**64:
            bad(f"seed must be an unsigned 64-bit integer, got {self.seed}")

    def link(self) -> Dict[str, float]:
        """The [channel] section as keywords of ChannelParams.from_total_distance."""
        return {s.name: getattr(self, s.name) for s in SETTINGS if s.section == "channel"}

    def channel_params(self, total_km: float) -> ChannelParams:
        """Channel model at a given total distance under this config."""
        return ChannelParams.from_total_distance(total_km, **self.link())

    def to_ini(self) -> str:
        """Serialize the resolved state; parsing it back is the identity."""
        lines = []
        for section, settings in groupby(SETTINGS, key=lambda s: s.section):
            lines.append(f"[{section}]")
            lines.extend(f"{s.key} = {s.render(getattr(self, s.name))}" for s in settings)
            lines.append("")
        return "\n".join(lines)


@dataclass(frozen=True)
class Setting:
    """How one RunConfig field reads and writes as INI ``[section] key``."""

    name: str
    section: str
    key: str
    parse: Callable[[str], Any]
    render: Callable[[Any], str]


# field type -> (parser, renderer).  repr() keeps float round-trips exact,
# which the echo-config contract relies on.
_CODECS: Dict[Any, Tuple[Callable[[str], Any], Callable[[Any], str]]] = {
    float: (float, repr),
    int: (_parse_int, repr),
    Tuple[float, ...]: (_parse_float_list, _render_list),
    Tuple[int, ...]: (_parse_int_list, _render_list),
    str: (str, str),
}

_TYPES = get_type_hints(RunConfig)

# Every setting, in RunConfig's declaration order (which groups the sections).
SETTINGS: Tuple[Setting, ...] = tuple(
    Setting(f.name, f.metadata["section"], f.metadata["key"] or f.name, *_CODECS[_TYPES[f.name]])
    for f in fields(RunConfig)
)


def from_ini_text(
    text: str, base: RunConfig | None = None, source: str = "<string>"
) -> RunConfig:
    """Parse INI text on top of ``base`` (defaults when omitted); a syntax
    error names ``source``, the file the text came from."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case: L_min and N_grid are spelled as-is
    try:
        parser.read_string(text, source)
    except configparser.Error as exc:
        # configparser spreads its message over lines; keep one
        message = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"config syntax error: {message}") from exc
    updates: Dict[str, Any] = {}
    for section in parser.sections():
        keys = {s.key: s for s in SETTINGS if s.section == section}
        if not keys:
            raise ConfigError(
                f"unknown config section [{section}]; "
                f"expected one of {sorted({s.section for s in SETTINGS})}"
            )
        for key, raw in parser.items(section):
            setting = keys.get(key)
            if setting is None:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"expected one of {sorted(keys)}"
                )
            try:
                updates[setting.name] = setting.parse(raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc
    return replace(base if base is not None else RunConfig(), **updates)


def load(path: str | None, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Resolve defaults, then an optional file, then explicit overrides.

    ``overrides`` maps RunConfig attribute names to values (CLI flags);
    entries with value None are skipped so absent flags leave file values
    in place.
    """
    config = RunConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
        config = from_ini_text(text, base=config, source=path)
    if overrides:
        cleaned = {}
        names = {s.name for s in SETTINGS}
        for attr, value in overrides.items():
            if attr not in names:
                raise ConfigError(f"unknown config attribute {attr!r}")
            if value is not None:
                cleaned[attr] = value
        if cleaned:
            config = replace(config, **cleaned)
    return config
