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


def test_montecarlo_matches_direct_call(capsys):
    code, stdout, _ = run_cli(
        ["montecarlo", "--n-trials", "20000", "--seed", "7", "--l-km", "0",
         "--backend", "python"],
        capsys,
    )
    assert code == 0
    cfg = config.load(None, {})
    direct = run_trials(cfg.channel_params(0.0), 20000, 7, backend="python")
    assert stdout == direct.to_csv()


def test_montecarlo_seed_changes_tallies(capsys):
    args = ["montecarlo", "--n-trials", "20000", "--backend", "python"]
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
    ini.write_text("[channel]\nbogus = 1\n")
    code, _, stderr = run_cli(["asymptotic", "--config", str(ini)], capsys)
    assert code == 2
    assert "bogus" in stderr


def test_invalid_flag_value_exits_2(capsys):
    code, _, stderr = run_cli(["asymptotic", "--l-step", "-5"], capsys)
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
