"""Run configuration for the command-line front end.

A run is described by a flat INI file with one section per concern:

    [channel]     eta_det, p_dark, e_d, f, alpha_db_per_km
    [sweep]       L_min, L_max, L_step          (total distances, km)
    [decoy]       mu_a, mu_b, N_slices, L_km    (L_km feeds qber-slices)
    [finite_key]  epsilon, epsilon_EC, e_b_list, N_grid
    [montecarlo]  n_trials, L_km
    [run]         seed, threads, out

Unknown sections or keys are rejected by name.  ``to_ini`` emits the fully
resolved state and ``from_ini_text(to_ini())`` reproduces it exactly, so an
echoed config re-runs identically.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, fields, replace
from typing import Any, Callable, Dict, Mapping, Tuple

from .montecarlo import ALPHA_DB_PER_KM, E_D, ETA_DET, F_EC, P_DARK, ChannelParams


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration input."""


def _parse_float_list(text: str) -> Tuple[float, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ConfigError("empty list value")
    return tuple(float(tok) for tok in tokens)


def _parse_int_list(text: str) -> Tuple[int, ...]:
    values = []
    for tok in text.replace(",", " ").split():
        as_float = float(tok)
        as_int = int(as_float)
        if as_int != as_float:
            raise ConfigError(f"expected an integer, got {tok!r}")
        values.append(as_int)
    if not values:
        raise ConfigError("empty list value")
    return tuple(values)


def _parse_int(text: str) -> int:
    as_float = float(text)
    as_int = int(as_float)
    if as_int != as_float:
        raise ConfigError(f"expected an integer, got {text!r}")
    return as_int


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters for one CLI invocation."""

    # [channel]
    eta_det: float = ETA_DET
    p_dark: float = P_DARK
    e_d: float = E_D
    f: float = F_EC
    alpha_db_per_km: float = ALPHA_DB_PER_KM
    # [sweep]
    L_min: float = 0.0
    L_max: float = 300.0
    L_step: float = 5.0
    # [decoy]
    mu_a: float = 0.5
    mu_b: float = 0.5
    N_slices: int = 16
    slice_L_km: float = 0.0
    # [finite_key]
    epsilon: float = 1e-5
    epsilon_EC: float = 1e-10
    e_b_list: Tuple[float, ...] = (0.01, 0.03, 0.05)
    N_grid: Tuple[int, ...] = (
        10**5, 3 * 10**5, 10**6, 3 * 10**6, 10**7, 3 * 10**7,
        10**8, 3 * 10**8, 10**9, 10**10, 10**11, 10**12,
    )
    # [montecarlo]
    n_trials: int = 1_000_000
    mc_L_km: float = 0.0
    # [run]
    seed: int = 1
    threads: int = 1
    out: str = ""

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
        for name in ("mu_a", "mu_b"):
            if not getattr(self, name) > 0.0:
                bad(f"{name} must be positive, got {getattr(self, name)}")
        if self.N_slices < 1:
            bad(f"N_slices must be at least 1, got {self.N_slices}")
        if not self.slice_L_km >= 0.0:
            bad(f"[decoy] L_km must be non-negative, got {self.slice_L_km}")
        if not self.epsilon > 0.0:
            bad(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.epsilon_EC < self.epsilon:
            bad(
                "epsilon_EC must lie in [0, epsilon), got "
                f"{self.epsilon_EC} with epsilon = {self.epsilon}"
            )
        for value in self.e_b_list:
            if not 0.0 < value < 0.5:
                bad(f"e_b values must lie in (0, 0.5), got {value}")
        for value in self.N_grid:
            if value < 1:
                bad(f"N_grid values must be at least 1, got {value}")
        if self.n_trials < 1:
            bad(f"n_trials must be at least 1, got {self.n_trials}")
        if not self.mc_L_km >= 0.0:
            bad(f"[montecarlo] L_km must be non-negative, got {self.mc_L_km}")
        if not 0 <= self.seed < 2**64:
            bad(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        cores = os.cpu_count() or 1
        if not 1 <= self.threads <= cores:
            bad(f"threads must lie in [1, {cores}] (the core count), got {self.threads}")

    def link(self) -> Dict[str, float]:
        """The [channel] section as keywords of ChannelParams.from_total_distance."""
        return {attr: getattr(self, attr) for attr, _, _ in _SCHEMA["channel"].values()}

    def channel_params(self, total_km: float) -> ChannelParams:
        """Channel model at a given total distance under this config."""
        return ChannelParams.from_total_distance(total_km, **self.link())

    def to_ini(self) -> str:
        """Serialize the resolved state; parsing it back is the identity."""
        lines = []
        for section, entries in _SCHEMA.items():
            lines.append(f"[{section}]")
            for key, (attr, _parse, render) in entries.items():
                lines.append(f"{key} = {render(getattr(self, attr))}")
            lines.append("")
        return "\n".join(lines)


def _render_list(values: Tuple[Any, ...]) -> str:
    return ", ".join(repr(v) for v in values)


# section -> key -> (RunConfig attribute, parser, renderer).  repr() keeps
# float round-trips exact, which the echo-config contract relies on.
_SCHEMA: Dict[str, Dict[str, Tuple[str, Callable[[str], Any], Callable[[Any], str]]]] = {
    "channel": {
        "eta_det": ("eta_det", float, repr),
        "p_dark": ("p_dark", float, repr),
        "e_d": ("e_d", float, repr),
        "f": ("f", float, repr),
        "alpha_db_per_km": ("alpha_db_per_km", float, repr),
    },
    "sweep": {
        "L_min": ("L_min", float, repr),
        "L_max": ("L_max", float, repr),
        "L_step": ("L_step", float, repr),
    },
    "decoy": {
        "mu_a": ("mu_a", float, repr),
        "mu_b": ("mu_b", float, repr),
        "N_slices": ("N_slices", _parse_int, repr),
        "L_km": ("slice_L_km", float, repr),
    },
    "finite_key": {
        "epsilon": ("epsilon", float, repr),
        "epsilon_EC": ("epsilon_EC", float, repr),
        "e_b_list": ("e_b_list", _parse_float_list, _render_list),
        "N_grid": ("N_grid", _parse_int_list, _render_list),
    },
    "montecarlo": {
        "n_trials": ("n_trials", _parse_int, repr),
        "L_km": ("mc_L_km", float, repr),
    },
    "run": {
        "seed": ("seed", _parse_int, repr),
        "threads": ("threads", _parse_int, repr),
        "out": ("out", str, str),
    },
}

_VALID_ATTRS = frozenset(f.name for f in fields(RunConfig))


def from_ini_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Parse INI text on top of ``base`` (defaults when omitted)."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep key case: L_min and N_grid are spelled as-is
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    updates: Dict[str, Any] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(
                f"unknown config section [{section}]; "
                f"expected one of {sorted(_SCHEMA)}"
            )
        for key, raw in parser.items(section):
            entry = _SCHEMA[section].get(key)
            if entry is None:
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; "
                    f"expected one of {sorted(_SCHEMA[section])}"
                )
            attr, parse, _render = entry
            try:
                updates[attr] = parse(raw)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(
                    f"bad value for [{section}] {key}: {raw!r} ({exc})"
                ) from exc
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
        config = from_ini_text(text, base=config)
    if overrides:
        cleaned = {}
        for attr, value in overrides.items():
            if attr not in _VALID_ATTRS:
                raise ConfigError(f"unknown config attribute {attr!r}")
            if value is not None:
                cleaned[attr] = value
        if cleaned:
            config = replace(config, **cleaned)
    return config
