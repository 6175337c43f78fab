"""Command-line entry points: CSV contracts, config plumbing, exit codes."""

import argparse
import contextlib
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpsmdi import checks, cli, config, protocol_sifting, svgplot
from dpsmdi.checks import CheckFailure
from dpsmdi.cli import build_parser, main
from dpsmdi.keyrate_asymptotic import yield_Y11
from dpsmdi.montecarlo import EmpiricalEstimates, build_tables, run_trials


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_asymptotic_csv_contract(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run_cli(
        ["asymptotic", "--l-min", "0", "--l-max", "20", "--l-step", "10",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert stdout == ""
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "L_km,Y11,e_b,R_mdi,R_dps_reference"
    assert len(lines) == 4
    assert [row.split(",")[0] for row in lines[1:]] == ["0", "10", "20"]


def test_asymptotic_writes_stdout_without_out(capsys):
    code, stdout, _ = run_cli(
        ["asymptotic", "--l-min", "0", "--l-max", "0", "--l-step", "5"], capsys
    )
    assert code == 0
    assert stdout.startswith("L_km,Y11,e_b,R_mdi,R_dps_reference\n0,")


def test_decoy_csv_contract(capsys):
    code, stdout, _ = run_cli(
        ["decoy", "--l-min", "0", "--l-max", "0", "--l-step", "5",
         "--n-slices", "4"],
        capsys,
    )
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "L_km,Q_mu,E_mu,Q11,Qm0,Em0,R"
    assert len(lines) == 2


def test_qber_slices_single_slice_matches_unsliced(capsys):
    code, stdout, _ = run_cli(["qber-slices", "--n-slices", "4"], capsys)
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "N_slices,E_m0,E_full"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(float(first[2]), abs=1e-8)
    # finer slicing keeps a cleaner first slice
    assert float(lines[4].split(",")[1]) < float(lines[1].split(",")[1])


def test_finite_key_rows_and_longer_block(capsys):
    # 2.25e5 signals sift 1e5 bits: the rate of a 1e5 block that spends all
    # of itself on n + m, times 4/9, at the same split
    code, stdout, _ = run_cli(
        ["finite-key", "--n-grid", "1e5,2.25e5", "--e-b", "0.01"], capsys
    )
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "N_signals,e_b,r,n_opt,m_opt,eps_bar,eps_bar_prime"
    assert len(lines) == 3
    assert float(lines[1].split(",")[2]) == 0.0
    assert lines[2] == "225000,0.01,0.0365069105107,70517,29483,9.94772805978e-06,4.30208402854e-06"


# `dpsmdi finite-key` at the default config, byte for byte: a change of argmax
# anywhere in the optimizer shows here, below criterion 8's 1% tolerance.
DEFAULT_FINITE_KEY_CSV = """\
N_signals,e_b,r,n_opt,m_opt,eps_bar,eps_bar_prime
100000,0.01,0,0,0,0,0
100000,0.03,0,0,0,0,0
100000,0.05,0,0,0,0,0
300000,0.01,0.0582520123799,99227,34106,9.95640278293e-06,4.51751784674e-06
300000,0.03,0,0,0,0,0
300000,0.05,0,0,0,0,0
1000000,0.01,0.13733178573,374339,70105,9.98029729655e-06,5.23825827564e-06
1000000,0.03,0.0277864808314,321353,123091,9.97594857825e-06,4.35733965087e-06
1000000,0.05,0,0,0,0,0
3000000,0.01,0.191796155326,1188449,144884,9.9911773878e-06,5.78180810993e-06
3000000,0.03,0.0676148810623,1107096,226237,9.98900042108e-06,4.95597951301e-06
3000000,0.05,0,0,0,0,0
10000000,0.01,0.23507856568,4116911,327533,9.99553274466e-06,6.29492198277e-06
10000000,0.03,0.0998028637851,3947453,496991,9.99335482896e-06,5.4486002313e-06
10000000,0.05,0,0,0,0,0
30000000,0.01,0.263063249977,12629449,703884,9.997711135e-06,6.70474394259e-06
30000000,0.03,0.120506455882,12308895,1024438,9.99662188049e-06,5.86981407513e-06
30000000,0.05,0.00935091373974,10044952,3288381,9.99553274466e-06,4.26590611586e-06
100000000,0.01,0.284536606713,42811186,1633258,9.9988005082e-06,7.09959911367e-06
100000000,0.03,0.136210069203,42143579,2300865,9.9988005082e-06,6.23225331619e-06
100000000,0.05,0.018344372101,37789961,6654483,9.997711135e-06,4.76715358161e-06
300000000,0.01,0.298110965357,129832518,3500815,9.99934523931e-06,7.42935927782e-06
300000000,0.03,0.146005239991,128490686,4842647,9.9988005082e-06,6.63845397337e-06
300000000,0.05,0.02414316837,120108033,13225300,9.9988005082e-06,5.17894973251e-06
1000000000,0.01,0.30837739493,436384589,8059855,9.99934523931e-06,7.75618354227e-06
1000000000,0.03,0.15331837019,433482593,10961851,9.99934523931e-06,7.00284536931e-06
1000000000,0.05,0.0285064033489,416722896,27721548,9.99934523931e-06,5.64466272628e-06
10000000000,0.01,0.319635054881,4405185327,39259117,9.9998900001e-06,8.28530379117e-06
10000000000,0.03,0.161208737457,4392151574,52292870,9.9998900001e-06,7.63293615313e-06
10000000000,0.05,0.033200029007,4302189463,142254981,9.99934523931e-06,6.23259284714e-06
100000000000,0.01,0.324906134743,44252216075,192228369,9.9998900001e-06,8.70237213761e-06
100000000000,0.03,0.164839455333,44194984353,249460091,9.9998900001e-06,8.17066860307e-06
100000000000,0.05,0.0353323647477,43816861695,627582749,9.9998900001e-06,7.04354172854e-06
1000000000000,0.01,0.327369326074,443539302072,905142372,9.9998900001e-06,9.04541994525e-06
1000000000000,0.03,0.166515908096,443255959316,1188485128,9.9998900001e-06,8.6149109253e-06
1000000000000,0.05,0.0362999115071,441473913482,2970530962,9.9998900001e-06,7.67247064829e-06
"""


def test_finite_key_default_csv_is_pinned(capsys):
    code, stdout, _ = run_cli(["finite-key"], capsys)
    assert code == 0
    assert stdout == DEFAULT_FINITE_KEY_CSV


# sha256 of `dpsmdi montecarlo` stdout at the default config, and at 60 km:
# a change of any tally of the trial kernel shows here. Both were computed
# from replay_trials' tallies, not from the kernel.
MONTECARLO_CSV_SHA256 = {
    (): "28cf6a01f3828da7d7581c7468518ab347e094967df3f0dc9b1ce7f4172e51d2",
    ("--l-km", "60"): "b32e1df681d3e3f5673fb8d8035f91ae7c2a09553e423d4aa6941ba8c0a4ee25",
}


@pytest.mark.parametrize("flags", list(MONTECARLO_CSV_SHA256), ids=["default", "60km"])
def test_montecarlo_default_csv_is_pinned(flags, capsys):
    code, stdout, _ = run_cli(["montecarlo", *flags], capsys)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == MONTECARLO_CSV_SHA256[flags]


# sha256 of the `dpsmdi decoy` and `dpsmdi qber-slices` stdout at the default
# config: a change of any printed digit of the phase averages shows here.
DECOY_CSV_SHA256 = {
    "decoy": "0f8a7e73c2c49037b04c27445c8fd8814a11275cbf4ec3fb87191aed407a52e1",
    "qber-slices": "85ed83f397f1e6b73b1a4d5cadc95a1081fb7712a8da51d363ef3fb4883cadfd",
}


@pytest.mark.parametrize("command", list(DECOY_CSV_SHA256))
def test_decoy_default_csvs_are_pinned(command, capsys):
    code, stdout, _ = run_cli([command], capsys)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == DECOY_CSV_SHA256[command]


# sha256 of `dpsmdi asymptotic` stdout at the default config, and of
# `dpsmdi finite-key` over error rates on both sides of the cutoff
# 1 - 3.2 h(e_b) <= 0 (0.06 and 0.3 lie past it, where the search returns its
# zero optimum at once): a change of any printed digit or argmax shows here.
RATE_CSV_SHA256 = {
    ("asymptotic",): "169e7828d7ce3611d3f3105c0e48b26198df286b6aac90a2e0ee7629bf5f3cb8",
    ("finite-key", "--e-b", "0.05,0.056,0.06,0.3"):
        "7723ee48164bf5dd9c812e312e601ce8824c44ad66aab8be5b26928cfb4d106b",
}


@pytest.mark.parametrize("args", list(RATE_CSV_SHA256), ids=["asymptotic", "finite-key-cutoff"])
def test_rate_csvs_are_pinned(args, capsys):
    code, stdout, _ = run_cli(list(args), capsys)
    assert code == 0
    assert hashlib.sha256(stdout.encode()).hexdigest() == RATE_CSV_SHA256[args]


def test_montecarlo_matches_direct_call(capsys):
    code, stdout, _ = run_cli(
        ["montecarlo", "--n-trials", "20000", "--seed", "7", "--l-km", "0"],
        capsys,
    )
    assert code == 0
    cfg = config.load(None, {})
    direct = run_trials(cfg.channel_params(0.0), 20000, 7)
    assert stdout == direct.to_csv()


def test_montecarlo_seed_changes_tallies(capsys):
    args = ["montecarlo", "--n-trials", "20000"]
    _, first, _ = run_cli(args + ["--seed", "1"], capsys)
    _, second, _ = run_cli(args + ["--seed", "2"], capsys)
    assert first != second


def test_reruns_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(
            ["montecarlo", "--n-trials", "30000", "--seed", "11",
             "--out", str(path)],
            capsys,
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_flag_wins_over_config_file(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[channel]\neta_det = 0.3\n\n[sweep]\nL_max = 100.0\n")
    echo = tmp_path / "effective.ini"
    code, _, _ = run_cli(
        ["asymptotic", "--config", str(ini), "--eta-det", "0.2",
         "--l-min", "0", "--l-max", "0",
         "--echo-config", str(echo), "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 0
    effective = config.load(str(echo), {})
    assert effective.eta_det == 0.2  # flag beats file
    assert effective.L_max == 0.0


def test_echo_config_round_trip(tmp_path, capsys):
    echo = tmp_path / "echo.ini"
    out = tmp_path / "x.csv"
    overrides = {
        "eta_det": 0.2, "p_dark": 1e-7, "N_slices": 8, "seed": 42,
        "out": str(out),
    }
    code, _, _ = run_cli(
        ["qber-slices", "--eta-det", "0.2", "--p-dark", "1e-7",
         "--n-slices", "8", "--seed", "42",
         "--echo-config", str(echo), "--out", str(out)],
        capsys,
    )
    assert code == 0
    assert config.load(str(echo), {}) == config.load(None, overrides)


# Each command with non-default values of its flags; "{svg}" stands for a
# plot path.  The echoed config alone must reproduce stdout and the plot.
ECHO_RUNS = {
    "asymptotic": ["--l-max", "20", "--l-step", "10", "--eta-det", "0.3", "--svg", "{svg}"],
    "decoy": ["--l-max", "20", "--l-step", "10", "--mu-a", "0.4", "--n-slices", "4",
              "--svg", "{svg}"],
    "qber-slices": ["--n-slices", "5", "--l-km", "30", "--p-dark", "1e-5", "--svg", "{svg}"],
    "finite-key": ["--n-grid", "1e6", "--e-b", "0.02", "--epsilon", "1e-6", "--svg", "{svg}"],
    "montecarlo": ["--n-trials", "20000", "--l-km", "20", "--seed", "5"],
    "verify": ["--mc-trials", "200000", "--seed", "3"],
}


@pytest.mark.parametrize("command", list(ECHO_RUNS))
def test_echoed_config_reruns_identically(command, tmp_path, capsys):
    svg, echo = tmp_path / "plot.svg", tmp_path / "echo.ini"
    args = [arg.replace("{svg}", str(svg)) for arg in ECHO_RUNS[command]]
    code, first, _ = run_cli([command, *args, "--echo-config", str(echo)], capsys)
    assert code == 0
    plot = svg.read_bytes() if svg.exists() else None
    assert (plot is None) == ("--svg" not in args)
    svg.unlink(missing_ok=True)
    code, second, _ = run_cli([command, "--config", str(echo)], capsys)
    assert code == 0
    assert second == first
    assert (svg.read_bytes() if svg.exists() else None) == plot


@pytest.mark.parametrize("flag", ["--out", "--svg", "--echo-config"])
def test_unwritable_output_path_exits_1(flag, tmp_path, capsys):
    path = tmp_path / "missing" / "file"
    code, stdout, stderr = run_cli(["asymptotic", "--l-max", "0", flag, str(path)], capsys)
    assert code == 1
    assert stdout == ""
    assert stderr == f"error: cannot write {path}: No such file or directory\n"


def test_echo_config_dash_prints_ini(capsys):
    code, stdout, _ = run_cli(
        ["asymptotic", "--l-min", "0", "--l-max", "0",
         "--echo-config", "-", "--out", "/dev/null"],
        capsys,
    )
    assert code == 0
    assert "[channel]" in stdout
    assert "eta_det = 0.145" in stdout


def test_unknown_config_key_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    # a retired key or flag is rejected like any unknown one
    for command, text, key in (
        ("asymptotic", "[channel]\nbogus = 1\n", "bogus"),
        ("montecarlo", "[montecarlo]\nbackend = auto\n", "backend"),
    ):
        ini.write_text(text)
        code, _, stderr = run_cli([command, "--config", str(ini)], capsys)
        assert code == 2
        assert key in stderr
    with pytest.raises(SystemExit) as exited:
        main(["montecarlo", "--backend", "python"])
    assert exited.value.code == 2
    assert "--backend" in capsys.readouterr().err
    # and an override that names no RunConfig attribute
    with pytest.raises(config.ConfigError, match="unknown config attribute 'backend'"):
        config.load(None, {"backend": "python"})


def exit_status(args, capsys):
    """main's return code, or argparse's exit code when it rejects a flag."""
    try:
        code = main(args)
    except SystemExit as exited:
        code = exited.code
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "args, message",
    [
        (["asymptotic", "--l-step", "-5"], "config error: L_step"),
        (["asymptotic", "--l-max", "inf"], "config error: L_max"),
        (["decoy", "--mu-a", "inf"], "config error: mu_a"),
        (["asymptotic", "--f", "inf"], "config error: f must"),
        (["asymptotic", "--l-max", "1e308", "--l-step", "1e-300"], "config error: the sweep"),
        (["finite-key", "--n-grid", "1e400"], "argument --n-grid: integer '1e400'"),
        (["finite-key", "--n-grid", "nan"], "argument --n-grid: expected an integer"),
        (["decoy", "--mu-a", "1e6", "--mu-b", "1e6"], "config error: mu_a must lie in"),
        (["finite-key", "--n-grid", "1e300"], "config error: N_grid values must lie in"),
        (["montecarlo", "--n-trials", "1e11"], "config error: n_trials must lie in"),
        (["qber-slices", "--n-slices", "1e9"], "config error: N_slices must lie in"),
        (["verify", "--mc-trials", "10000000001"], "config error: mc_trials must lie in"),
        (["finite-key", "--epsilon", "5e-324", "--epsilon-ec", "0"],
         "config error: epsilon - epsilon_EC must be at least 1e-290"),
        (["finite-key", "--epsilon", "1e-320", "--epsilon-ec", "0"],
         "config error: epsilon - epsilon_EC must be at least 1e-290"),
        (["finite-key", "--epsilon", "1e-5", "--epsilon-ec", "9.99999999999e-06"],
         "config error: epsilon - epsilon_EC must be at least 1e-14"),
        (["finite-key", "--epsilon", "3", "--epsilon-ec", "0"], "config error: epsilon must lie in (0, 1)"),
        (["finite-key", "--epsilon", "1.5"], "config error: epsilon must lie in (0, 1)"),
        (["montecarlo", "--n-trials", "many"],
         "error: argument --n-trials: expected an integer, got 'many'"),
        (["finite-key", "--e-b", " , "], "error: argument --e-b: empty list value"),
        (["asymptotic", "--config", ""], "config error: cannot read config file '': "),
        (["asymptotic", "--config", "."], "config error: cannot read config file '.': "),
    ],
    ids=[
        "l-step-negative", "l-max-inf", "mu-a-inf", "f-inf", "point-count-overflow",
        "n-grid-overflow", "n-grid-nan", "mu-beyond-gain-underflow", "n-grid-beyond-cap",
        "n-trials-beyond-cap", "n-slices-beyond-cap", "mc-trials-beyond-cap",
        "epsilon-subnormal", "epsilon-gap-below-floor", "epsilon-ec-within-rounding",
        "epsilon-3", "epsilon-above-1", "non-numeric-integer", "empty-list",
        "config-path-empty", "config-path-a-directory",
    ],
)
def test_invalid_flag_value_exits_2(args, message, capsys):
    code, stderr = exit_status(args, capsys)
    assert code == 2
    assert message in stderr


@pytest.mark.parametrize(
    "text, message",
    [
        ("[decoy]\nN_slices = 1e400\n", "bad value for [decoy] N_slices: integer '1e400'"),
        ("[finite_key]\nN_grid = 1e5, nan\n",
         "bad value for [finite_key] N_grid: expected an integer"),
        ("[montecarlo]\nn_trials = many\n",
         "bad value for [montecarlo] n_trials: expected an integer, got 'many'"),
        ("[bogus]\nx = 1\n", "unknown config section [bogus]; "),
        ("[channel\neta_det = 0.1\n",
         "config syntax error: File contains no section headers. file: {path}, line: 1 "),
        ("[channel]\neta_det 0.1\n",
         "config syntax error: Source contains parsing errors: {path} [line  2]: "),
    ],
    ids=["n-slices-overflow", "n-grid-nan", "non-numeric-integer",
         "unknown-section", "unclosed-header", "line-without-equals"],
)
def test_invalid_ini_value_exits_2(text, message, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    code, stderr = exit_status(["qber-slices", "--config", str(ini)], capsys)
    assert code == 2
    assert "config error: " + message.format(path=repr(str(ini))) in stderr
    assert stderr.count("\n") == 1  # one line, syntax errors included


def test_sweep_point_count_is_capped():
    # configs only: a sweep over 1e305 points must never start
    with pytest.raises(config.ConfigError, match="more than 100001 points"):
        config.RunConfig(L_max=1e300, L_step=1e-5)
    assert config.RunConfig(L_max=100_000.0, L_step=1.0).L_max == 100_000.0
    with pytest.raises(config.ConfigError, match="more than 100001 points"):
        config.RunConfig(L_max=100_001.0, L_step=1.0)


def test_run_sizes_are_capped():
    # configs only: none of these runs may start
    for over, name in (
        ({"N_slices": 10**4 + 1}, "N_slices"),
        ({"n_trials": 10**10 + 1}, "n_trials"),
        ({"n_trials": 10**30}, "n_trials"),
        ({"N_grid": (10**5, 10**15 + 1)}, "N_grid"),
        ({"mu_a": 1000.5}, "mu_a"),
        ({"mu_b": 1e6}, "mu_b"),
    ):
        with pytest.raises(config.ConfigError, match=f"^{name} .*must lie in"):
            config.RunConfig(**over)
    at_caps = config.RunConfig(
        N_slices=10**4, n_trials=10**10, N_grid=(10**15,), mu_a=1000.0, mu_b=1000.0
    )
    assert at_caps.n_trials == 10**10
    # every default is admitted, the top of the default block grid too
    assert max(config.RunConfig().N_grid) == 10**12


@pytest.mark.parametrize("seed", [2**64 - 1, 12345678901234567])
def test_large_seeds_round_trip_exactly(seed, tmp_path, capsys):
    cfg = config.RunConfig(seed=seed)
    assert config.from_ini_text(cfg.to_ini()) == cfg
    ini = tmp_path / "run.ini"
    ini.write_text(f"[run]\nseed = {seed}\n")
    assert config.load(str(ini)).seed == seed
    code, stdout, _ = run_cli(
        ["asymptotic", "--config", str(ini), "--l-max", "0",
         "--echo-config", "-", "--out", os.devnull],
        capsys,
    )
    assert code == 0
    assert f"\nseed = {seed}\n" in stdout


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_rejects_non_positive_mc_trials(trials, capsys):
    code, stderr = exit_status(["verify", "--mc-trials", trials], capsys)
    assert code == 2
    assert f"config error: mc_trials must lie in [1, 1e+10], got {trials}" in stderr


def test_verify_mc_trials_reads_integer_notation(capsys):
    # the same integer syntax as every INI integer: 1e6 names one, 1.5 none
    assert build_parser().parse_args(["verify", "--mc-trials", "1e6"]).mc_trials == 10**6
    code, stderr = exit_status(["verify", "--mc-trials", "1.5"], capsys)
    assert code == 2
    assert "argument --mc-trials: expected an integer" in stderr


_COMMON_FLAGS = {
    "--config": "config", "--echo-config": "echo_config", "--out": "out",
    "--seed": "seed",
}
_CHANNEL_FLAGS = {
    "--eta-det": "eta_det", "--p-dark": "p_dark", "--e-d": "e_d", "--f": "f",
    "--alpha-db-per-km": "alpha_db_per_km",
}
_SWEEP_FLAGS = {"--l-min": "L_min", "--l-max": "L_max", "--l-step": "L_step"}
_DECOY_FLAGS = {"--mu-a": "mu_a", "--mu-b": "mu_b", "--n-slices": "N_slices"}

# Each command's flag -> dest map, as the hand-written parser had it.
PINNED_FLAGS = {
    "asymptotic": {**_COMMON_FLAGS, **_CHANNEL_FLAGS, **_SWEEP_FLAGS, "--svg": "svg"},
    "decoy": {
        **_COMMON_FLAGS, **_CHANNEL_FLAGS, **_SWEEP_FLAGS, **_DECOY_FLAGS,
        "--svg": "svg",
    },
    "qber-slices": {
        **_COMMON_FLAGS, **_CHANNEL_FLAGS, **_DECOY_FLAGS,
        "--l-km": "slice_L_km", "--svg": "svg",
    },
    "finite-key": {
        **_COMMON_FLAGS, "--epsilon": "epsilon", "--epsilon-ec": "epsilon_EC",
        "--e-b": "e_b_list", "--n-grid": "N_grid", "--svg": "svg",
    },
    "montecarlo": {
        **_COMMON_FLAGS, **_CHANNEL_FLAGS, "--n-trials": "n_trials", "--l-km": "mc_L_km",
    },
    "verify": {**_COMMON_FLAGS, "--mc-trials": "mc_trials"},
}


def test_flags_follow_the_config_fields():
    parser = build_parser()
    commands = next(
        action.choices for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = {
        command: {
            option: action.dest
            for action in sub._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        for command, sub in commands.items()
    }
    assert flags == PINNED_FLAGS
    assert [len(flags[command]) for command in PINNED_FLAGS] == [13, 16, 14, 9, 11, 5]
    # every INI key is a flag somewhere
    dests = {dest for by_flag in flags.values() for dest in by_flag.values()}
    assert {s.name for s in config.SETTINGS} <= dests
    # an integer flag reads the text the way its INI key does
    from_flag = parser.parse_args(["montecarlo", "--n-trials", "1e6"]).n_trials
    from_ini = config.from_ini_text("[montecarlo]\nn_trials = 1e6\n").n_trials
    assert from_flag == from_ini == 10**6


def test_threads_is_no_setting_and_exits_2(tmp_path):
    # the Monte Carlo runs on one thread; a threads flag or INI key is
    # rejected like any unknown one
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nthreads = 2\n")
    for args in (["montecarlo", "--threads", "2"], ["montecarlo", "--config", str(ini)]):
        code, stdout, stderr = run_quietly(args)
        assert (code, stdout) == (2, ""), args
        assert "threads" in stderr, args


def test_full_budget_is_no_setting_and_exits_2(tmp_path):
    # the sifted 4/9 of a block is the only budget; a full-budget flag or
    # INI key is rejected like any unknown one
    ini = tmp_path / "run.ini"
    ini.write_text("[finite_key]\nallow_full_budget = true\n")
    for args in (["finite-key", "--allow-full-budget"], ["finite-key", "--config", str(ini)]):
        code, stdout, stderr = run_quietly(args)
        assert (code, stdout) == (2, ""), args
        assert "allow" in stderr, args


def test_svg_sidecar_is_well_formed(tmp_path, capsys):
    svg = tmp_path / "plot.svg"
    code, _, _ = run_cli(
        ["asymptotic", "--l-min", "0", "--l-max", "40", "--l-step", "10",
         "--svg", str(svg), "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    assert len(list(root)) > 5


def test_svg_of_a_rate_that_is_zero_everywhere(tmp_path, capsys):
    # at mu = 20 the decoy rate is 0 at every distance, so its log axis
    # holds no point; the plot says so instead of failing the run
    svg = tmp_path / "plot.svg"
    code, stdout, _ = run_cli(
        ["decoy", "--mu-a", "20", "--mu-b", "20", "--l-max", "20", "--svg", str(svg)], capsys
    )
    assert code == 0
    assert [row.rsplit(",", 1)[1] for row in stdout.splitlines()[1:]] == ["0"] * 5
    root = ET.fromstring(svg.read_text())
    assert "no point to plot" in "".join(root.itertext())
    assert not [child for child in root if child.tag.endswith("polyline")]


def test_log_axes_skip_points_they_cannot_place():
    # a point not finite is left out on any axis, and a point not positive
    # on a log axis; a subnormal one stays, its axis reaching below 1e-308
    xs = [1.0, 10.0, 0.0, -1.0, 100.0, math.nan, 1000.0]
    ys = [5e-324, 1e-300, 1.0, 1.0, -2.0, 1.0, 0.0]
    for x_log, y_log, kept in (
        (True, True, 2), (True, False, 4), (False, True, 4), (False, False, 6),
    ):
        svg = svgplot.line_plot([svgplot.Series("r", xs, ys)], x_log=x_log, y_log=y_log)
        (curve,) = [child for child in ET.fromstring(svg) if child.tag.endswith("polyline")]
        assert len(curve.get("points").split()) == kept, (x_log, y_log)


def test_linear_ticks_stay_inside_the_frame():
    # line_plot widens a one-value range before it asks for ticks
    assert svgplot._nice_ticks(1.0, 1.0) == [1.0]
    # the y axis spans -0.045 to 0.945; its ticks run half a step past the
    # top, and the one at 1.0 is left out
    svg = svgplot.line_plot([svgplot.Series("r", [0.0, 1.0], [0.0, 0.9])])
    labels = [child.text for child in ET.fromstring(svg) if child.tag.endswith("text")]
    x_labels = ["0", "0.2", "0.4", "0.6", "0.8", "1"]
    assert labels == x_labels + x_labels[:-1] + ["r"]


def test_a_one_value_range_is_widened_at_any_magnitude():
    # by 0.5 either way while a float's spacing is at most 0.25
    for x in (0.0, -3.0, 1e15, 2.0**51 - 0.25):
        assert svgplot._widened(x, x) == (x - 0.5, x + 0.5)
    # by 2 spacings either way from 2**51 on, where 0.5 rounds away or a tick
    # step of 0.2 no longer moves a tick, and by 4 below beside the largest
    # float; each x tick then has a place of its own
    top = [sys.float_info.max]
    top += [math.nextafter(top[-1], 0.0) for _ in range(2)]
    for x in [2.0**51, 4e15, 1e16, -1e300] + top:
        lo, hi = svgplot._widened(x, x)
        assert lo < x <= hi and hi - lo == 4.0 * math.ulp(x)
        svg = svgplot.line_plot([svgplot.Series("r", [x], [1.0])])
        frame_bottom = str(svgplot._HEIGHT - svgplot._MARGIN_B)
        x_ticks = [
            child.get("x1") for child in ET.fromstring(svg)
            if child.tag.endswith("line") and child.get("y1") == frame_bottom
        ]
        assert len(x_ticks) == len(set(x_ticks)) >= 3, x


def test_ticks_end_where_a_step_no_longer_moves_them():
    # a range a few float spacings wide, or t reaching the power of two just
    # above it, gives a step that t += step rounds away
    for lo, hi in (
        (1e15, 1e15 + 0.125), (2.0**53 - 4, 2.0**53 - 1), (-(2.0**60), -(2.0**60) + 256.0),
        (1e300, math.nextafter(1e300, math.inf)), (5e-300, math.nextafter(5e-300, 1.0)),
        (2.0**51, 2.0**51 + 1.0), (1e15, 1e15 + 0.5),
    ):
        ticks = svgplot._nice_ticks(lo, hi)
        assert ticks == sorted(set(ticks)), (lo, hi)
        assert lo <= ticks[0] <= hi and len(ticks) <= 7, (lo, hi)
    assert svgplot._nice_ticks(1e15, 1e15 + 0.125) == [1e15]
    assert svgplot._nice_ticks(2.0**53 - 4, 2.0**53 - 1) == [2.0**53 - k for k in range(4, -1, -1)]


def test_svg_of_a_narrow_range_far_from_0_ends(tmp_path):
    # two distances one float spacing apart at 1e15 km
    svg = tmp_path / "plot.svg"
    proc = subprocess.run(
        [sys.executable, "-m", "dpsmdi.cli", "decoy", "--l-min", "1e15",
         "--l-max", "1.000000000000000125e15", "--l-step", "0.125", "--svg", str(svg)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert len(proc.stdout.splitlines()) == 3
    assert ET.parse(svg).getroot().tag.endswith("svg")


def test_finite_key_svg_is_well_formed(tmp_path, capsys):
    # the only plot with a logarithmic x axis (the block size)
    svg = tmp_path / "finite.svg"
    code, _, _ = run_cli(
        ["finite-key", "--n-grid", "1e6, 1e8, 1e10", "--e-b", "0.01, 0.03",
         "--svg", str(svg), "--out", str(tmp_path / "x.csv")],
        capsys,
    )
    assert code == 0
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    text = "".join(root.itertext())
    assert "exchanged signals" in text
    assert "e_b = 0.01" in text and "e_b = 0.03" in text


def run_quietly(args):
    """main's exit status with its stdout and stderr, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exited:
            code = exited.code
    return code, out.getvalue(), err.getvalue()


def _flag_list(values):
    return ", ".join(repr(v) for v in values)


# finite-key inputs inside its domain: epsilon in (0, 1), epsilon - epsilon_EC
# above both floors (epsilon >= 1e-280 and epsilon_EC <= (1 - 2e-9) epsilon),
# e_b in (0, 0.5) and blocks in [1, 1e15], a few of each so a draw stays fast.
_EPSILON = st.floats(-280.0, math.log10(0.999)).map(lambda x: 10.0**x)
_EC_FRACTION = st.one_of(st.just(0.0), st.floats(0.0, 1.0 - 2e-9))
_E_B = st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)
_BLOCKS = st.integers(1, 10**15) | st.floats(0.0, 15.0).map(lambda x: round(10.0**x))


# warnings become errors: an overflow inside the search fails the draw
@pytest.mark.filterwarnings("error")
@settings(max_examples=40, deadline=None)
@given(
    epsilon=_EPSILON, ec_fraction=_EC_FRACTION,
    e_b=st.lists(_E_B, min_size=1, max_size=3),
    blocks=st.lists(_BLOCKS, min_size=1, max_size=3),
    svg=st.booleans(),
)
def test_finite_key_inside_the_domain_exits_0(epsilon, ec_fraction, e_b, blocks, svg):
    args = [
        "finite-key", "--epsilon", repr(epsilon), "--epsilon-ec", repr(epsilon * ec_fraction),
        "--e-b", _flag_list(e_b), "--n-grid", _flag_list(blocks),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        plot = os.path.join(tmp, "plot.svg")
        code, stdout, stderr = run_quietly(args + (["--svg", plot] if svg else []))
        if svg:
            assert ET.parse(plot).getroot().tag.endswith("svg")
    assert (code, stderr) == (0, "")
    rows = stdout.strip().split("\n")[1:]
    assert len(rows) == len(blocks) * len(e_b)
    values = [float(v) for row in rows for v in row.split(",")]
    assert all(math.isfinite(v) and v >= 0.0 for v in values)


# one value just outside the domain per draw; the others stay at defaults.
# `--flag=value` keeps argparse from reading -1e-300 as an option.
_OUTSIDE = st.one_of(
    st.floats(1.0, 1e3).map(lambda eps: [f"--epsilon={eps!r}", "--epsilon-ec=0"]),
    st.floats(-1.0, 0.0).map(lambda eps: [f"--epsilon={eps!r}", "--epsilon-ec=0"]),
    st.floats(-280.0, math.log10(0.999)).flatmap(
        lambda x: st.floats(0.0, 0.99).map(
            lambda share: [f"--epsilon={10.0**x!r}", "--epsilon-ec="
                           + repr(10.0**x - share * max(1e-290, 1e-9 * 10.0**x))]
        )
    ),
    st.floats(-330.0, -290.5).map(lambda x: [f"--epsilon={10.0**x!r}", "--epsilon-ec=0"]),
    st.floats(-1.0, 0.0).map(lambda ec: [f"--epsilon-ec={ec - 1e-300!r}"]),
    st.sampled_from([0.0, 0.5, -0.01, 0.7]).map(lambda e_b: [f"--e-b={e_b!r}"]),
    st.sampled_from([0, 10**15 + 1, 10**16]).map(lambda n: [f"--n-grid={n}"]),
)


@settings(max_examples=40, deadline=None)
@given(outside=_OUTSIDE, svg=st.booleans())
def test_finite_key_just_outside_the_domain_exits_2(outside, svg):
    with tempfile.TemporaryDirectory() as tmp:
        plot = ["--svg", os.path.join(tmp, "plot.svg")] if svg else []
        code, stdout, stderr = run_quietly(["finite-key", *outside, *plot])
        assert not os.listdir(tmp)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("config error: ")


def test_verify_reports_a_failing_check(monkeypatch, capsys):
    def broken(cfg):
        raise CheckFailure("injected mismatch")

    monkeypatch.setitem(cli.VERIFY_CHECKS, "reconciliation-table", broken)
    code, stdout, _ = run_cli(
        ["verify", "--mc-trials", "200000", "--seed", "3"], capsys
    )
    assert code == 1
    lines = stdout.splitlines()
    assert lines[0].split() == ["reconciliation-table", "FAIL", "injected", "mismatch"]
    assert stdout.count(" pass\n") == 4
    assert lines[-1] == "1 of 5 checks failed"


def test_verify_catches_a_dropped_table_row(monkeypatch, capsys):
    build_tables()  # the Monte Carlo tables stay built from the intact table
    table = dict(protocol_sifting._DECISION_TABLE)
    del table[protocol_sifting.DetectionOutcome(frozenset({("c", 3), ("d", 2)}))]
    monkeypatch.setattr(protocol_sifting, "_DECISION_TABLE", table)
    code, stdout, _ = run_cli(["verify", "--mc-trials", "200000"], capsys)
    assert code == 1
    lines = stdout.splitlines()
    assert lines[0] == "reconciliation-table   FAIL  action mismatch at (c,3)+(d,2)"
    assert lines[-1] == "1 of 5 checks failed"


def test_verify_reports_a_run_with_no_kept_trial(monkeypatch, capsys):
    # one trial keeps nothing with probability 0.9955, well inside the
    # level, and 0 errors of 0 kept trials is the one possible outcome
    est = run_trials(cli._LOSSY, 1, 1)
    assert est.keep_count == est.error_count == 0
    code, stdout, _ = run_cli(["verify", "--mc-trials", "1", "--seed", "1"], capsys)
    assert (code, stdout.splitlines()[-1]) == (0, "all checks passed")

    # nothing kept of 10^6 trials, where about 4,450 are, has a tail of
    # exp(-4450), which underflows to 0
    def nothing_kept(params, n_trials, seed):
        mask_counts = np.zeros(64, dtype=np.int64)
        mask_counts[0] = n_trials
        return EmpiricalEstimates(n_trials, seed, mask_counts, 0, 0)

    monkeypatch.setattr(checks, "run_trials", nothing_kept)
    code, stdout, _ = run_cli(["verify", "--mc-trials", "1000000", "--seed", "1"], capsys)
    assert code == 1
    lines = stdout.splitlines()
    assert lines[4].startswith("mc-vs-analytic         FAIL  kept count on ChannelParams(")
    assert lines[4].endswith(
        " 0 of 1000000 (0) lies beyond the 4-sigma level of "
        f"binomial(1000000, {yield_Y11(cli._LOSSY):.6g}): its tail is 0"
    )
    assert lines[-1] == "1 of 5 checks failed"


def test_verify_suite_passes(capsys):
    code, stdout, _ = run_cli(
        ["verify", "--mc-trials", "200000", "--seed", "3"], capsys
    )
    assert code == 0
    assert "FAIL" not in stdout
    assert stdout.strip().endswith("all checks passed")
    assert stdout.count(" pass\n") == 5


def test_verify_tests_a_few_kept_trials_exactly(capsys):
    # 2 errors in 9 kept trials read 0.22 against an error probability of
    # 0.015, 5 normal sigmas off, yet P(>= 2 errors) is about 0.8%
    est = run_trials(cli._LOSSY, 1000, 49)
    assert (est.keep_count, est.error_count) == (9, 2)
    code, stdout, _ = run_cli(["verify", "--mc-trials", "1000", "--seed", "49"], capsys)
    assert (code, stdout.splitlines()[-1]) == (0, "all checks passed")


# verify at sizes where every check is well inside its level; each run takes
# about a second, so a few fixed draws
@settings(max_examples=4, deadline=None, derandomize=True)
@given(mc_trials=st.integers(20_000, 200_000), seed=st.integers(0, 2**64 - 1))
def test_verify_inside_the_domain_exits_0(mc_trials, seed):
    code, stdout, stderr = run_quietly(
        ["verify", f"--mc-trials={mc_trials}", f"--seed={seed}"]
    )
    assert (code, stderr) == (0, "")
    assert stdout.endswith("all checks passed\n")


@settings(max_examples=20, deadline=None)
@given(
    outside=st.one_of(
        st.sampled_from([0, -1, config.MAX_TRIALS + 1, 10**12]).map(
            lambda n: f"--mc-trials={n}"
        ),
        st.sampled_from([-1, 2**64, 2**70]).map(lambda s: f"--seed={s}"),
    )
)
def test_verify_just_outside_the_domain_exits_2(outside):
    code, stdout, stderr = run_quietly(["verify", outside])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("config error: ")


# montecarlo inputs inside its domain, at small sizes; p_dark reaches up to
# the largest float below 1, where every detector-bin clicks dark.
_P_DARK = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-15.9, -1e-3).map(lambda x: 1.0 - 10.0**x),
    st.just(math.nextafter(1.0, 0.0)),
)


@settings(max_examples=40, deadline=None)
@given(
    p_dark=_P_DARK,
    eta_det=st.floats(0.0, 1.0, exclude_min=True),
    e_d=st.floats(0.0, 0.5),
    alpha=st.floats(0.0, 10.0),
    l_km=st.floats(0.0, 1000.0),
    n_trials=st.integers(1, 20_000),
    seed=st.integers(0, 2**64 - 1),
)
def test_montecarlo_inside_the_domain_exits_0(p_dark, eta_det, e_d, alpha, l_km, n_trials, seed):
    code, stdout, stderr = run_quietly([
        "montecarlo", f"--p-dark={p_dark!r}", f"--eta-det={eta_det!r}", f"--e-d={e_d!r}",
        f"--alpha-db-per-km={alpha!r}", f"--l-km={l_km!r}", f"--n-trials={n_trials}",
        f"--seed={seed}",
    ])
    assert (code, stderr) == (0, "")
    rows = {}
    for line in stdout.strip().split("\n")[1:]:
        name, value, stderr_value, trials, row_seed = line.split(",")
        assert (int(trials), int(row_seed)) == (n_trials, seed)
        rows[name] = float(value), float(stderr_value)
    if rows["y11_hat"][0] == 0.0:
        # nothing kept: the error fraction is undefined, and says so
        assert all(math.isnan(v) for v in rows.pop("e_b_hat"))
    values = [v for pair in rows.values() for v in pair]
    assert all(math.isfinite(v) and v >= 0.0 for v in values)


# one value just outside the domain per draw; the others stay at defaults
_MC_OUTSIDE = st.one_of(
    st.one_of(st.floats(1.0, 1e3), st.floats(-1.0, 0.0, exclude_max=True)).map(
        lambda p: f"--p-dark={p!r}"
    ),
    st.sampled_from([0.0, -0.5, math.nextafter(1.0, 2.0), 2.0]).map(lambda e: f"--eta-det={e!r}"),
    st.floats(0.5, 1.0, exclude_min=True).map(lambda e: f"--e-d={e!r}"),
    st.floats(-1e3, 0.0, exclude_max=True).map(lambda km: f"--l-km={km!r}"),
    st.floats(-1.0, 0.0, exclude_max=True).map(lambda a: f"--alpha-db-per-km={a!r}"),
    st.sampled_from(["nan", "inf", "-inf"]).map(lambda v: f"--p-dark={v}"),
    st.sampled_from([0, -1, 10**10 + 1]).map(lambda n: f"--n-trials={n}"),
    st.sampled_from([-1, 2**64]).map(lambda s: f"--seed={s}"),
)


@settings(max_examples=40, deadline=None)
@given(outside=_MC_OUTSIDE)
def test_montecarlo_just_outside_the_domain_exits_2(outside):
    code, stdout, stderr = run_quietly(["montecarlo", outside])
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("config error: ")


# decoy and qber-slices inputs inside their domain, a few sweep points each
_MU = st.floats(0.0, 1000.0, exclude_min=True)
_N_SLICES = st.one_of(st.sampled_from([1, 10**4]), st.integers(1, 10**4))


def _no_clicks_in_float64(p_dark, eta_det, alpha, l_km, mu_a, mu_b):
    # With no dark counts and the light at the relay below about 1e-160, the
    # yield and the gain underflow to 0 and the command stops on "QBER is
    # undefined ..." with exit 1 (ROADMAP item 7). Every such draw seen had
    # both below 1e-170.
    light = math.log10(eta_det) - alpha * l_km / 20.0 + math.log10(max(mu_a, mu_b))
    return p_dark < 1e-100 and light < -100.0


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(["decoy", "qber-slices"]),
    p_dark=_P_DARK,
    eta_det=st.floats(0.0, 1.0, exclude_min=True),
    e_d=st.floats(0.0, 0.5),
    f=st.floats(1.0, 1e300),
    alpha=st.floats(0.0, 10.0),
    l_km=st.floats(0.0, 1000.0),
    l_step=st.floats(0.01, 500.0),
    points=st.integers(1, 3),
    mu_a=_MU,
    mu_b=_MU,
    n_slices=_N_SLICES,
    svg=st.booleans(),
)
# a rate of 5e-324, the smallest subnormal: its padded log axis reaches below
# the smallest positive float
@example(
    command="decoy", p_dark=0.9, eta_det=2.6614912627230934e-179, e_d=0.0, f=1.0, alpha=0.0,
    l_km=0.0, l_step=1.0, points=1, mu_a=737.0, mu_b=1.0, n_slices=1, svg=True,
)
# one distance of 1e16 km at the defaults: a float's spacing there is 2, so a
# one-value x range widened by only 0.5 either way rounds back to one value
@example(
    command="decoy", p_dark=3e-6, eta_det=0.145, e_d=0.015, f=1.16, alpha=0.2,
    l_km=1e16, l_step=5.0, points=1, mu_a=0.5, mu_b=0.5, n_slices=16, svg=True,
)
def test_decoy_and_qber_slices_inside_the_domain_exit_0(
    command, p_dark, eta_det, e_d, f, alpha, l_km, l_step, points, mu_a, mu_b, n_slices, svg
):
    args = [
        command, f"--p-dark={p_dark!r}", f"--eta-det={eta_det!r}", f"--e-d={e_d!r}",
        f"--f={f!r}", f"--alpha-db-per-km={alpha!r}", f"--mu-a={mu_a!r}", f"--mu-b={mu_b!r}",
        f"--n-slices={n_slices}",
    ]
    if command == "decoy":
        l_max = l_km + (points - 1) * l_step
        args += [f"--l-min={l_km!r}", f"--l-max={l_max!r}", f"--l-step={l_step!r}"]
        far_km = l_max
    else:
        args += [f"--l-km={l_km!r}"]
        far_km = l_km
    with tempfile.TemporaryDirectory() as tmp:
        plot = os.path.join(tmp, "plot.svg")
        code, stdout, stderr = run_quietly(args + (["--svg", plot] if svg else []))
        if code == 0 and svg:
            assert ET.parse(plot).getroot().tag.endswith("svg")
    if _no_clicks_in_float64(p_dark, eta_det, alpha, far_km, mu_a, mu_b) and code == 1:
        assert stdout == ""
        assert stderr.startswith("error: QBER is undefined ") and stderr.count("\n") == 1
        return
    assert (code, stderr) == (0, "")
    rows = [[float(v) for v in row.split(",")] for row in stdout.strip().split("\n")[1:]]
    assert len(rows) == (points if command == "decoy" else n_slices)
    assert all(math.isfinite(v) and v >= 0.0 for row in rows for v in row)


# one value just outside the domain per draw; the others stay at defaults
_CHANNEL_OUTSIDE = st.one_of(
    st.one_of(st.floats(1.0, 1e3), st.floats(-1.0, 0.0, exclude_max=True)).map(
        lambda p: f"--p-dark={p!r}"
    ),
    st.sampled_from([0.0, -0.5, math.nextafter(1.0, 2.0)]).map(lambda e: f"--eta-det={e!r}"),
    st.floats(0.5, 1.0, exclude_min=True).map(lambda e: f"--e-d={e!r}"),
    st.floats(-1e3, 1.0, exclude_max=True).map(lambda f: f"--f={f!r}"),
    st.floats(-1.0, 0.0, exclude_max=True).map(lambda a: f"--alpha-db-per-km={a!r}"),
    st.sampled_from(["--p-dark", "--f"]).flatmap(
        lambda flag: st.sampled_from(["nan", "inf", "-inf"]).map(lambda v: f"{flag}={v}")
    ),
)
_DECOY_OUTSIDE = st.one_of(
    st.sampled_from(["--mu-a", "--mu-b"]).flatmap(
        lambda flag: st.sampled_from([0.0, -1e-300, math.nextafter(1000.0, 2000.0), 1e6]).map(
            lambda mu: f"{flag}={mu!r}"
        )
    ),
    st.sampled_from([0, -1, 10**4 + 1]).map(lambda n: f"--n-slices={n}"),
    st.sampled_from(["nan", "inf", "-inf"]).map(lambda v: f"--mu-a={v}"),
    _CHANNEL_OUTSIDE,
)
# the sweep belongs to decoy and asymptotic, the one distance to qber-slices
_SWEEP_OUTSIDE = st.one_of(
    st.floats(-1e3, 0.0, exclude_max=True).map(lambda km: [f"--l-min={km!r}"]),
    st.floats(-1e3, 0.0).map(lambda step: [f"--l-step={step!r}"]),
    st.floats(0.0, 300.0, exclude_max=True).map(
        lambda km: [f"--l-min={math.nextafter(km, 1e3)!r}", f"--l-max={km!r}"]
    ),
)
_SLICE_KM_OUTSIDE = st.floats(-1e3, 0.0, exclude_max=True).map(lambda km: [f"--l-km={km!r}"])


@settings(max_examples=40, deadline=None)
@given(
    outside=st.one_of(
        st.tuples(st.sampled_from(["decoy", "qber-slices"]), _DECOY_OUTSIDE.map(lambda a: [a])),
        st.tuples(st.just("decoy"), _SWEEP_OUTSIDE),
        st.tuples(st.just("qber-slices"), _SLICE_KM_OUTSIDE),
    ),
    svg=st.booleans(),
)
def test_decoy_and_qber_slices_just_outside_the_domain_exit_2(outside, svg):
    command, flags = outside
    with tempfile.TemporaryDirectory() as tmp:
        plot = ["--svg", os.path.join(tmp, "plot.svg")] if svg else []
        code, stdout, stderr = run_quietly([command, *flags, *plot])
        assert not os.listdir(tmp)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("config error: ")


@settings(max_examples=40, deadline=None)
@given(
    p_dark=_P_DARK,
    eta_det=st.floats(0.0, 1.0, exclude_min=True),
    e_d=st.floats(0.0, 0.5),
    f=st.floats(1.0, 1e300),
    alpha=st.floats(0.0, 10.0),
    l_km=st.floats(0.0, 1000.0),
    l_step=st.floats(0.01, 500.0),
    points=st.integers(1, 3),
)
def test_asymptotic_inside_the_domain_exits_0(p_dark, eta_det, e_d, f, alpha, l_km, l_step, points):
    l_max = l_km + (points - 1) * l_step
    args = [
        "asymptotic", f"--p-dark={p_dark!r}", f"--eta-det={eta_det!r}", f"--e-d={e_d!r}",
        f"--f={f!r}", f"--alpha-db-per-km={alpha!r}", f"--l-min={l_km!r}",
        f"--l-max={l_max!r}", f"--l-step={l_step!r}",
    ]
    with tempfile.TemporaryDirectory() as tmp:
        plot = os.path.join(tmp, "plot.svg")
        code, stdout, stderr = run_quietly(args + ["--svg", plot])
        svg = ""
        if code == 0:
            with open(plot, encoding="utf-8") as handle:
                svg = handle.read()
    # single photons: the light at the relay is eta per side, mu = 1
    if _no_clicks_in_float64(p_dark, eta_det, alpha, l_max, 1.0, 1.0) and code == 1:
        assert stdout == ""
        assert stderr.startswith("error: QBER is undefined ") and stderr.count("\n") == 1
        return
    assert (code, stderr) == (0, "")
    assert svg.startswith("<svg")
    rows = [[float(v) for v in row.split(",")] for row in stdout.strip().split("\n")[1:]]
    assert len(rows) == points
    assert all(math.isfinite(v) and v >= 0.0 for row in rows for v in row)


@settings(max_examples=40, deadline=None)
@given(outside=st.one_of(_CHANNEL_OUTSIDE.map(lambda a: [a]), _SWEEP_OUTSIDE))
def test_asymptotic_just_outside_the_domain_exits_2(outside):
    with tempfile.TemporaryDirectory() as tmp:
        plot = os.path.join(tmp, "plot.svg")
        code, stdout, stderr = run_quietly(["asymptotic", *outside, "--svg", plot])
        assert not os.listdir(tmp)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("config error: ")
