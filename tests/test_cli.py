"""Command-line entry points: CSV contracts, config plumbing, exit codes."""

import argparse
import contextlib
import hashlib
import io
import math
import os
import tempfile
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsmdi import cli, config
from dpsmdi.cli import build_parser, main
from dpsmdi.montecarlo import run_trials


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


def test_finite_key_rows_and_full_budget(capsys):
    base = ["finite-key", "--n-grid", "1e5,1e6", "--e-b", "0.01"]
    code, stdout, _ = run_cli(base, capsys)
    assert code == 0
    lines = stdout.strip().split("\n")
    assert lines[0] == "N_signals,e_b,r,n_opt,m_opt,eps_bar,eps_bar_prime"
    assert len(lines) == 3
    capped_small = float(lines[1].split(",")[2])
    assert capped_small == 0.0

    code, stdout, _ = run_cli(base + ["--allow-full-budget"], capsys)
    assert code == 0
    full_small = float(stdout.strip().split("\n")[1].split(",")[2])
    assert full_small > 0.0


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


# sha256 of `dpsmdi montecarlo` stdout at the default config, and at 60 km on
# two threads (fewer where the host has fewer cores: tallies do not depend on
# the thread count): a change of any tally of the trial kernel shows here.
MONTECARLO_CSV_SHA256 = {
    (): "269bcd47f51a32a52280d0c18db123b4138c0f7a143dc7a6150b96b4ebe4d8a0",
    ("--threads", str(min(2, os.cpu_count() or 1)), "--l-km", "60"):
        "017820bc2022dead3159a0cf031a90261d40e428e369e09da2a26c82ef353fd4",
}


@pytest.mark.parametrize("flags", list(MONTECARLO_CSV_SHA256), ids=["default", "60km-2threads"])
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
        (["verify", "--mc-trials", "10000000001"], "argument --mc-trials: must be at most"),
        (["finite-key", "--epsilon", "5e-324", "--epsilon-ec", "0"],
         "config error: epsilon - epsilon_EC must be at least 1e-290"),
        (["finite-key", "--epsilon", "1e-320", "--epsilon-ec", "0"],
         "config error: epsilon - epsilon_EC must be at least 1e-290"),
        (["finite-key", "--epsilon", "1e-5", "--epsilon-ec", "9.99999999999e-06"],
         "config error: epsilon - epsilon_EC must be at least 1e-14"),
        (["finite-key", "--epsilon", "3", "--epsilon-ec", "0"], "config error: epsilon must lie in (0, 1)"),
        (["finite-key", "--epsilon", "1.5"], "config error: epsilon must lie in (0, 1)"),
    ],
    ids=[
        "l-step-negative", "l-max-inf", "mu-a-inf", "f-inf", "point-count-overflow",
        "n-grid-overflow", "n-grid-nan", "mu-beyond-gain-underflow", "n-grid-beyond-cap",
        "n-trials-beyond-cap", "n-slices-beyond-cap", "mc-trials-beyond-cap",
        "epsilon-subnormal", "epsilon-gap-below-floor", "epsilon-ec-within-rounding",
        "epsilon-3", "epsilon-above-1",
    ],
)
def test_invalid_flag_value_exits_2(args, message, capsys):
    code, stderr = exit_status(args, capsys)
    assert code == 2
    assert message in stderr


@pytest.mark.parametrize(
    "text, message",
    [
        ("[decoy]\nN_slices = 1e400\n", "[decoy] N_slices: integer '1e400'"),
        ("[finite_key]\nN_grid = 1e5, nan\n", "[finite_key] N_grid: expected an integer"),
    ],
    ids=["n-slices-overflow", "n-grid-nan"],
)
def test_invalid_ini_value_exits_2(text, message, tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    code, stderr = exit_status(["qber-slices", "--config", str(ini)], capsys)
    assert code == 2
    assert "config error: bad value for " + message in stderr


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
    assert "argument --mc-trials: must be at least 1" in stderr


def test_verify_mc_trials_reads_integer_notation(capsys):
    # the same integer syntax as every INI integer: 1e6 names one, 1.5 none
    assert build_parser().parse_args(["verify", "--mc-trials", "1e6"]).mc_trials == 10**6
    code, stderr = exit_status(["verify", "--mc-trials", "1.5"], capsys)
    assert code == 2
    assert "argument --mc-trials: expected an integer" in stderr


_COMMON_FLAGS = {
    "--config": "config", "--echo-config": "echo_config", "--out": "out",
    "--seed": "seed", "--threads": "threads",
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
        "--e-b": "e_b_list", "--n-grid": "N_grid",
        "--allow-full-budget": "allow_full_budget", "--svg": "svg",
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
    assert [len(flags[command]) for command in PINNED_FLAGS] == [14, 17, 15, 11, 12, 6]
    # every INI key is a flag somewhere
    dests = {dest for by_flag in flags.values() for dest in by_flag.values()}
    assert {s.name for s in config.SETTINGS} <= dests
    # an integer flag reads the text the way its INI key does
    from_flag = parser.parse_args(["montecarlo", "--n-trials", "1e6"]).n_trials
    from_ini = config.from_ini_text("[montecarlo]\nn_trials = 1e6\n").n_trials
    assert from_flag == from_ini == 10**6


def test_threads_beyond_core_count_exit_2(capsys):
    too_many = (os.cpu_count() or 1) + 1
    with pytest.raises(config.ConfigError, match="threads"):
        config.RunConfig(threads=too_many)
    code, stdout, stderr = run_cli(["asymptotic", "--threads", str(too_many)], capsys)
    assert code == 2
    assert stdout == ""
    assert "threads" in stderr


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
    full_budget=st.booleans(), svg=st.booleans(),
)
def test_finite_key_inside_the_domain_exits_0(epsilon, ec_fraction, e_b, blocks, full_budget, svg):
    args = [
        "finite-key", "--epsilon", repr(epsilon), "--epsilon-ec", repr(epsilon * ec_fraction),
        "--e-b", _flag_list(e_b), "--n-grid", _flag_list(blocks),
    ]
    args += ["--allow-full-budget"] if full_budget else []
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
    def broken():
        raise cli._CheckFailure("injected mismatch")

    monkeypatch.setattr(cli, "_verify_reconciliation", broken)
    code, stdout, _ = run_cli(
        ["verify", "--mc-trials", "200000", "--seed", "3"], capsys
    )
    assert code == 1
    lines = stdout.splitlines()
    assert lines[0].split() == ["reconciliation-table", "FAIL", "injected", "mismatch"]
    assert stdout.count(" pass\n") == 4
    assert lines[-1] == "1 of 5 checks failed"


def test_verify_suite_passes(capsys):
    code, stdout, _ = run_cli(
        ["verify", "--mc-trials", "200000", "--seed", "3"], capsys
    )
    assert code == 0
    assert "FAIL" not in stdout
    assert stdout.strip().endswith("all checks passed")
    assert stdout.count(" pass\n") == 5
