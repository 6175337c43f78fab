"""Command-line entry points: CSV contracts, config plumbing, exit codes."""

import os
import xml.etree.ElementTree as ET

import pytest

from dpsmdi import config
from dpsmdi.cli import main
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


@pytest.mark.parametrize(
    "args",
    [
        ["asymptotic", "--l-step", "-5"],
        ["asymptotic", "--l-max", "inf"],
        ["decoy", "--mu-a", "inf"],
        ["asymptotic", "--f", "inf"],
    ],
    ids=["l-step-negative", "l-max-inf", "mu-a-inf", "f-inf"],
)
def test_invalid_flag_value_exits_2(args, capsys):
    code, _, stderr = run_cli(args, capsys)
    assert code == 2
    assert "config error" in stderr


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


def test_verify_suite_passes(capsys):
    code, stdout, _ = run_cli(
        ["verify", "--mc-trials", "200000", "--seed", "3"], capsys
    )
    assert code == 0
    assert "FAIL" not in stdout
    assert stdout.strip().endswith("all checks passed")
    assert stdout.count(" pass\n") == 5
