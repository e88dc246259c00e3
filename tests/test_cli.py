"""Command-line behavior: parsing, formats, files, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ratsys
from ratsys import ArithmeticMode, PeriodicCoefficients, simulate
from ratsys.cli import main
from ratsys.numeric import exact_text

RANK2_ARGS = [
    "--a0", "2", "--b0", "1", "--c0", "4", "--d0", "3",
    "--a1", "1", "--b1", "2", "--c1", "3", "--d1", "1",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_default_horizon(capsys):
    code, out, err = run_cli(
        ["simulate", "--all-ones", "--format", "csv"], capsys
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "n,x,y"
    assert len(lines) == 22  # header plus n = 0..20


def test_simulate_exact_fractions(capsys):
    code, out, _ = run_cli(
        [
            "simulate", "--all-ones", "--x0", "1/3", "--y0", "2",
            "-n", "2", "--mode", "exact", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["n,x,y", "0,1/3,2", "1,7/2,7/2", "2,4/7,4/7"]


def test_classify_json_payload(capsys):
    code, out, _ = run_cli(
        ["classify", *RANK2_ARGS, "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "classify"
    assert payload["rank"] == 2
    assert payload["kind"] == "VanishEvenBlowOdd"
    assert payload["witness"]["delta"] < 0
    assert payload["cycle"] is None


def test_classify_csv_schema(capsys):
    code, out, _ = run_cli(
        [
            "classify", "--all-ones", "--d1", "2",
            "--mode", "exact", "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == [
        "rank,K_or_Q,rho_or_delta,kind",
        "1,3/2,6/5,BlowEvenVanishOdd",
    ]


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_text(
        json.dumps(
            {
                "a0": 1, "b0": 1, "c0": 1, "d0": 1,
                "a1": 0.5, "b1": 1.5, "c1": 0.7, "d1": 1.3,
            }
        )
    )
    code, out, _ = run_cli(
        [
            "classify", "--config", str(config),
            "--mode", "exact", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["kind"] == "ExactTwoPeriodic"
    # explicit flags win over config entries
    code, out, _ = run_cli(
        [
            "classify", "--config", str(config), "--c1", "2", "--d1", "2",
            "--mode", "exact", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "BlowEvenVanishOdd"
    assert payload["witness"]["rho"] == "4/3"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "orbit.csv"
    code, out, _ = run_cli(
        [
            "simulate", "--all-ones", "-n", "2",
            "--format", "csv", "-o", str(target),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == "n,x,y\n0,1,1\n1,2,2\n2,1,1\n"


def test_compare_json(capsys):
    code, out, _ = run_cli(
        ["compare", *RANK2_ARGS, "-n", "40", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_rel_error_x"] < 1e-9
    assert payload["max_rel_error_y"] < 1e-9
    assert payload["first_divergence_index"] is None


def test_sweep_grid_and_order(capsys):
    code, out, _ = run_cli(
        [
            "sweep", "--all-ones",
            "--axis1", "d1:1:2:2", "--axis2", "c1:1:3:2",
            "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d1,c1,rank,K_or_Q,rho_or_delta,kind"
    starts = [line.split(",")[:2] for line in lines[1:]]
    assert starts == [["1", "1"], ["1", "3"], ["2", "1"], ["2", "3"]]


def test_sweep_single_axis_json(capsys):
    code, out, _ = run_cli(
        ["sweep", "--all-ones", "--axis1", "d1:1:2:3", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert [row["d1"] for row in payload["rows"]] == [1.0, 1.5, 2.0]
    assert all("kind" in row for row in payload["rows"])


def test_sweep_rejects_duplicate_axes(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--all-ones", "--axis1", "d1:1:2:2", "--axis2", "d1:1:2:2"])
    assert info.value.code == 2


def test_missing_coefficients_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--a0", "1"])
    assert info.value.code == 2
    assert "missing coefficients" in capsys.readouterr().err


def test_unparseable_number_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--all-ones", "--a0", "abc"])
    assert info.value.code == 2


def test_nonpositive_coefficient_exits_three(capsys):
    code, out, err = run_cli(["classify", "--all-ones", "--d1", "0"], capsys)
    assert code == 3
    assert out == ""
    assert "must be positive" in err


def test_closed_rejects_a_bad_start_at_horizon_zero(capsys):
    code, out, err = run_cli(
        ["closed", "--all-ones", "--x0", "-1", "-n", "0"], capsys
    )
    assert code == 3
    assert out == ""
    assert "x0 must be positive" in err


BALANCED_ARGS = [
    "--a0", "1", "--b0", "1", "--c0", "1", "--d0", "2",
    "--a1", "2", "--b1", "1", "--c1", "1", "--d1", "1",
]


@pytest.mark.parametrize("no_cycle", [[], ["--no-cycle"]], ids=["cycle", "no-cycle"])
@pytest.mark.parametrize(
    "coeffs, start",
    [
        (["--all-ones"], ["--x0", "-1", "--y0", "0"]),  # rank 1
        (RANK2_ARGS, ["--x0", "nan"]),  # rank 2, divergent
        (BALANCED_ARGS, ["--y0", "0"]),  # rank 2, convergent
    ],
    ids=["rank1", "rank2", "convergent"],
)
def test_classify_checks_the_probe_start_on_every_branch(
    coeffs, start, no_cycle, capsys
):
    code, out, err = run_cli(["classify", *coeffs, *start, *no_cycle], capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("error:")


def test_float_overflow_exits_four(capsys):
    code, out, err = run_cli(
        [
            "simulate", "--all-ones", "--a0", "1e308",
            "--x0", "1e-300", "-n", "5",
        ],
        capsys,
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error:")


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "ratsys", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "COMMAND" in proc.stdout


def _parse_decimal(text: str) -> int:
    """int(text) in chunks, each below the interpreter's digit limit."""
    sign, digits = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i : i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return sign * value


def _parse_fraction(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(_parse_decimal(num), _parse_decimal(den or "1"))


def test_exact_text_renders_past_the_digit_limit():
    for value in (0, 7, -12345, 10**4299, 3**20000, -(7**9000) + 1):
        text = exact_text(value)
        assert _parse_decimal(text) == value
        assert not text.lstrip("-").startswith("0") or value == 0
    assert exact_text(Fraction(-3, 4)) == "-3/4"
    wide = Fraction(3**20000 + 1, 2**40000)
    assert _parse_fraction(exact_text(wide)) == wide


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_exact_simulate_prints_states_past_the_digit_limit(fmt):
    # states pass 4300 decimal digits near n = 125
    src = str(Path(ratsys.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "ratsys", "simulate", "--mode", "exact"]
        + RANK2_ARGS + ["-n", "130", "--format", fmt],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    if fmt == "csv":
        n, x, y = list(csv.reader(io.StringIO(proc.stdout)))[-1]
    else:
        last = json.loads(proc.stdout)["points"][-1]
        n, x, y = last["n"], last["x"], last["y"]
    params = PeriodicCoefficients(2, 1, 4, 3, 1, 2, 3, 1)
    want = simulate(params, (1, 1), 130, ArithmeticMode.EXACT_RATIONAL).state(130)
    assert int(n) == 130
    assert (_parse_fraction(x), _parse_fraction(y)) == want
    assert max(len(x), len(y)) > 4300


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["classify", "--all-ones", "--eps-rank", "nan"], "--eps-rank"),
        # a negative band turns balanced sets into blow-up verdicts
        (["classify", "--a0", "1", "--b0", "1", "--c0", "1", "--d0", "2",
          "--a1", "2", "--b1", "1", "--c1", "1", "--d1", "1",
          "--tol-class", "-1"], "--tol-class"),
        # zero never meets the cycle test and runs to the term cap
        (["classify", "--all-ones", "--tol-cycle", "0"], "--tol-cycle"),
        (["compare", "--all-ones", "--threshold", "inf"], "--threshold"),
    ],
)
def test_bad_tolerance_is_usage_error(argv, flag, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ratsys")
    assert f"argument {flag}: must be finite and" in err


def test_zero_tolerances_are_accepted(capsys):
    code, out, _ = run_cli(
        ["classify", "--all-ones", "--eps-rank", "0", "--tol-class", "0"],
        capsys,
    )
    assert code == 0
    assert out.startswith("rank: 1\n")


def test_reused_parser_keeps_no_state_between_calls(capsys):
    # sweep sets _axis_names on its namespace; a later call must not see it
    code, _, _ = run_cli(["sweep", "--all-ones", "--axis1", "d1:1:2:2"], capsys)
    assert code == 0
    with pytest.raises(SystemExit) as info:
        main(["classify", "--a0", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert ("missing coefficients: --b0, --c0, --d0, --a1, --b1, --c1, --d1"
            in err)


def test_reused_parser_matches_a_fresh_one(monkeypatch, capsys):
    def outputs():
        with pytest.raises(SystemExit) as info:
            main(["classify", "--help"])
        assert info.value.code == 0
        help_text = capsys.readouterr()
        return help_text, run_cli(["classify", *RANK2_ARGS], capsys)

    reused = outputs()
    assert ratsys.cli._parser() is ratsys.cli._parser()
    monkeypatch.setattr(ratsys.cli, "_parser", ratsys.cli.build_parser)
    assert outputs() == reused
    assert ratsys.cli.build_parser() is not ratsys.cli.build_parser()
