"""Command-line behavior: parsing, formats, files, exit codes."""

import contextlib
import csv
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ratsys
from ratsys import ArithmeticMode, PeriodicCoefficients, simulate
from ratsys.cli import main
from ratsys.numeric import exact_text

from conftest import reference_jval

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


@pytest.mark.parametrize("content, message", [
    (None, "cannot read config"),  # no such file
    ("{", "cannot read config"),
    ("[1, 2]", "must be a JSON object"),
])
def test_bad_config_is_usage_error(tmp_path, content, message, capsys):
    config = tmp_path / "params.json"
    if content is not None:
        config.write_text(content)
    with pytest.raises(SystemExit) as info:
        main(["classify", "--config", str(config)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ratsys classify ")
    assert message in err


def test_undecodable_config_is_usage_error(tmp_path, capsys):
    config = tmp_path / "params.json"
    config.write_bytes(b"\xff\xfe{")
    with pytest.raises(SystemExit) as info:
        main(["classify", "--config", str(config)])
    assert info.value.code == 2
    assert "cannot read config" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1e99999999999", "1e-99999999999"])
def test_huge_exact_exponent_is_refused_at_once(text, capsys):
    # 10**(10**11) would take hours to build; a child process with a
    # timeout bounds the wait should the refusal ever go
    argv = ["classify", "--all-ones", "--mode", "exact", "--x0", text]
    src = str(Path(ratsys.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "ratsys", *argv],
                          capture_output=True, text=True, env=env, timeout=10)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert f"cannot parse x0={text!r}" in proc.stderr
    start = time.perf_counter()
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert time.perf_counter() - start < 1.0 and info.value.code == 2
    assert ratsys.parse_number("1e300000", ArithmeticMode.EXACT_RATIONAL) \
        == Fraction(10) ** 300000


# Literals the exact parser must read as Fraction(text) does: int-only
# p/q forms, forms with an empty side, a zero denominator, a sign, a space,
# an underscore, non-ASCII digits, decimals, exponents, int-digit-limit
# sizes on either side, and texts that are no number.
PARSE_CORPUS = [
    "3/4", "007/010", "0/5", "3/0", "5/000", "0/0", "3/", "/3", "3//4", "3/4/5",
    "-3/4", "3/-4", " 3/4", "3 /4", "3/4 ", "+3", "1_000/3", "\u0663/\u0664",
    "\u00b2", "0.5", "5e-1", "1E2", "1e300000", "12345678901234567890123/7",
    "7" * 5000, "3/" + "7" * 5000, "7" * 5000 + "/3", "", "/", "inf", "nan",
]


def parsed(parse, text):
    """The value parse gives text, or its exception's type and message."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def test_exact_parse_is_the_fraction_of_the_text():
    rng = random.Random(30)

    def digits():
        return "0" * rng.randint(0, 2) + str(rng.randrange(10 ** rng.randint(1, 40)))
    texts = PARSE_CORPUS + [rng.choice(("{}/{}", "{}", "-{}/{}", "{}/{}/{}")).format(
        digits(), digits(), digits()) for _ in range(2000)]
    for text in texts:
        got = parsed(lambda t: ratsys.parse_number(t, ArithmeticMode.EXACT_RATIONAL), text)
        want = parsed(Fraction, text)
        assert type(got) is type(want) and got == want, text


def test_exact_parse_refuses_a_huge_exponent_at_once():
    # Fraction(text) itself would build 10**(10**11)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="bit cap"):
        ratsys.parse_number("1e99999999999", ArithmeticMode.EXACT_RATIONAL)
    assert time.perf_counter() - start < 1.0


def test_render_json_is_the_recursive_renderer(monkeypatch, capsys):
    payloads = []
    render = ratsys.cli.render_json
    monkeypatch.setattr(ratsys.cli, "render_json",
                        lambda payload: payloads.append(payload) or render(payload))
    sets = {
        "rank1": ["--all-ones", "--a1", "0.5", "--b1", "1.5", "--c1", "2", "--d1", "2"],
        "rank2": RANK2_ARGS,
        "cycle": ["--a0", "1", "--b0", "1", "--c0", "1", "--d0", "2",
                  "--a1", "2", "--b1", "1", "--c1", "1", "--d1", "1"],
    }
    for args, mode in product(sets.values(), ("float", "exact")):
        for command in ("classify", "compare"):
            argv = [command, *args, "--mode", mode, "--format", "json", "--x0", "1.5"]
            assert main(argv) == 0, argv
    capsys.readouterr()
    kinds = {(p["command"], p.get("rank"), p.get("cycle") is None,
              p.get("first_divergence_index", 0) is None) for p in payloads}
    assert {("classify", 1, True, False), ("classify", 2, True, False),
            ("classify", 2, False, False), ("compare", None, True, True)} <= kinds
    payloads.append({
        "floats": [math.inf, -math.inf, math.nan, 5e-324, -0.0, 1e308, 0.1],
        "strings": ['say "hi"', "back\\slash", "\u03bb \u2192 \u221e", ""],
        "exact": [Fraction(-3, 4), Fraction(10) ** 30, 10 ** 30, -7],
        "nested": {"none": None, "tuple": (1, 2.5), "empty": {}, "list": []},
    })
    for payload in payloads:
        assert render(payload) == reference_jval(payload, 0) + "\n"
    # a sweep's head values, axis lists among them, as _serialize renders them
    for head in ([{"name": "d1", "values": [1.0, 1.5, 2.0]},
                  {"name": "c1", "values": [1.0, math.inf]}], "sweep"):
        assert ratsys.cli._jval(head, 1) == reference_jval(head, 1)
    for value in (object(), {1, 2}, b"x"):
        with pytest.raises(TypeError, match="cannot render"):
            render({"v": value})


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


def test_output_into_a_missing_directory_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "orbit.csv"
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--all-ones", "-n", "2", "-o", str(target)])
    assert exc.value.code == 2
    assert f"cannot write {target}" in capsys.readouterr().err
    assert not target.parent.exists()


def test_failed_command_leaves_an_existing_output_file(tmp_path, capsys):
    # the cycle products drift, so classify exits 4 before any output
    target = tmp_path / "verdict.txt"
    target.write_text("kept\n")
    code, out, err = run_cli(
        ["classify", "--a0", "2", "--b0", "1", "--c0", "4", "--d0", "3",
         "--a1", "1", "--b1", "4.1715627063077", "--c1", "3", "--d1", "1",
         "-o", str(target)],
        capsys,
    )
    assert (code, out) == (4, "") and "drift" in err
    assert target.read_text() == "kept\n"


def test_compare_json(capsys):
    code, out, _ = run_cli(
        ["compare", *RANK2_ARGS, "-n", "40", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["max_rel_error_x"] < 1e-9
    assert payload["max_rel_error_y"] < 1e-9
    assert payload["first_divergence_index"] is None


def test_compare_csv(capsys):
    code, out, _ = run_cli(
        ["compare", *RANK2_ARGS, "-n", "40", "--format", "csv"], capsys
    )
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert list(row) == ["n_max", "max_rel_error_x", "max_rel_error_y",
                         "first_divergence_index"]
    assert row["n_max"] == "40"
    assert float(row["max_rel_error_x"]) < 1e-9
    assert float(row["max_rel_error_y"]) < 1e-9
    assert row["first_divergence_index"] == ""  # no divergence


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


@pytest.mark.parametrize("axis, message", [
    ("d1:1:2", "axis 'd1:1:2' must look like name:lo:hi:steps"),
    ("e1:1:2:2", "axis name 'e1' is not one of a0, b0"),
    ("d1:a:2:2", "axis 'd1:a:2:2': could not convert string to float: 'a'"),
    ("d1:1:2:0", "axis 'd1:1:2:0' needs steps >= 1"),
])
def test_sweep_rejects_malformed_axes(axis, message, capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--all-ones", "--axis1", axis])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ratsys sweep ")
    assert message in err


def test_missing_coefficients_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--a0", "1"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ratsys classify ")
    assert "missing coefficients" in err


def test_unparseable_number_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--all-ones", "--a0", "abc"])
    assert info.value.code == 2


def test_unparseable_tolerance_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["classify", "--all-ones", "--tol-class", "abc"])
    assert info.value.code == 2
    assert "argument --tol-class: invalid float value: 'abc'" in capsys.readouterr().err


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


LOPSIDED_ARGS = [["--x0", "1e8", "--y0", "1e-8"],
                 ["--x0", "1e10", "--y0", "1e-10"]]


@pytest.mark.parametrize("start", LOPSIDED_ARGS)
def test_rank2_closed_forms_from_lopsided_starts(start, capsys):
    code, out, err = run_cli(
        ["compare", *RANK2_ARGS, "-n", "40", *start, "--format", "json"],
        capsys,
    )
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["max_rel_error_x"] <= 1e-13
    assert report["max_rel_error_y"] <= 1e-13
    assert report["first_divergence_index"] is None
    code, out, err = run_cli(["closed", *RANK2_ARGS, "-n", "3", *start], capsys)
    assert code == 0 and err == ""
    code, out, err = run_cli(
        ["classify", "--a0", "1", "--b0", "1", "--c0", "1", "--d0", "2",
         "--a1", "2", "--b1", "1", "--c1", "1", "--d1", "1", *start,
         "--format", "json"],
        capsys,
    )
    assert code == 0 and err == ""
    assert json.loads(out)["cycle"]["residual"] < 1e-12


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
        # zero: every nonzero remainder of the cycle rounds by more
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


# ------------------------------------------- main's own reading of argv

COMMANDS = ("simulate", "closed", "classify", "compare", "sweep")
WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def parse_both(argv):
    """(main's own namespace or None, argparse's or None) for a subcommand's
    argv; argparse's output is swallowed."""
    parser = ratsys.cli._parser()
    plain = ratsys.cli._plain_args(*parser.plain[argv[0]], argv[1:])
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            parsed = parser.commands[argv[0]].parse_args(argv[1:])
    except SystemExit:
        parsed = None
    return plain, parsed


def argv_strategy(command):
    options = list(ratsys.cli._parser().plain[command][0])
    odd = ["--form", "--a0=1", "-n5", "--", "-h"]
    values = ["-1", "", "-", "nan", "2.5", "1e-9", "3/2", "7", "d1:1:2:3",
              "float", "exact", "table", "csv", "json"]
    # an option and at most one value, so that plain argvs are common
    pair = st.tuples(st.sampled_from(options + odd),
                     st.lists(st.sampled_from(values), max_size=1))
    # sweep's required --axis1, given or not
    axis = [[], [("--axis1", ["d1:1:2:3"])]] if command == "sweep" else [[]]
    return st.tuples(st.sampled_from(axis), st.lists(pair, max_size=8)).map(
        lambda drawn: [command, *(item for o, v in drawn[0] + drawn[1]
                                  for item in (o, *v))])


@pytest.mark.parametrize("command", COMMANDS)
def test_main_reads_only_what_argparse_reads_the_same(command):
    @settings(max_examples=300)
    @given(argv_strategy(command))
    def check(argv):
        plain, parsed = parse_both(argv)
        if plain is not None:
            assert parsed is not None, argv
            assert vars(plain) == vars(parsed), argv

    check()


def readme_step_argvs():
    """Every ratsys argv of the shell part of CI's console-script step.
    The step is read line by line: NAME="..." sets a variable, a for loop
    gives its variable the items on its line or the quoted items on the
    lines below it, and each call takes every filling of its $NAME and
    ${NAME#*:}. A call that names a variable the step does not set, such
    as a path under $RUNNER_TEMP, is left out."""
    step = WORKFLOW.read_text(encoding="utf-8").split(
        "name: README examples")[1].split("python -c")[0]
    env, loop, calls = {}, None, []
    for line in map(str.strip, step.splitlines()):
        if m := re.fullmatch(r'(\w+)="([^"$]*)"', line):
            env[m[1]] = [m[2]]
        elif m := re.match(r"for (\w+) in ([^\\;]*)", line):
            loop, env[m[1]] = m[1], m[2].split()
        elif loop and (m := re.match(r'"([^"]*)"', line)):
            env[loop].append(m[1])
        if "; do" in line:
            loop = None
        for call in re.findall(r"(?<![\w\"])ratsys ([^|)\n]*)", line):
            call = re.split(r"\s+\d?>", call)[0].rstrip(" \\")
            names = list(dict.fromkeys(
                a or b for a, b in re.findall(r"\$\{(\w+)#\*:\}|\$(\w+)", call)))
            for filling in product(*(env.get(name, ()) for name in names)):
                fill = dict(zip(names, filling))
                filled = re.sub(r"\$\{(\w+)#\*:\}|\$(\w+)", lambda m: (
                    fill[m[1]].split(":", 1)[1] if m[1] else fill[m[2]]), call)
                if not re.search(r'["$]', filled):
                    calls.append(shlex.split(filled))
    return calls


def test_main_reads_every_argv_of_the_readme_step_as_argparse_does():
    argvs = readme_step_argvs()
    assert len(argvs) >= 30
    for argv in argvs:
        plain, parsed = parse_both(argv)
        assert plain is not None, argv  # every one is plain
        assert vars(plain) == vars(parsed), argv


@pytest.mark.parametrize("argv", [
    ["simulate", "--all-ones", "-n", "4", "--format", "csv"],
    ["closed", *RANK2_ARGS, "--n-max", "10", "--mode", "exact"],
    ["classify", *RANK2_ARGS, "--x0", "3/2", "--mode", "exact", "--no-cycle"],
    ["compare", *RANK2_ARGS, "-n", "40", "--threshold", "1e-3"],
    ["sweep", "--all-ones", "--axis1", "d1:1:2:5", "--axis2", "c1:1:3:2"],
])
def test_plain_argv_never_reaches_argparse(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("parse_args called on a plain argv")

    monkeypatch.setattr(ratsys.cli._parser().commands[argv[0]], "parse_args", refuse)
    assert run_cli(argv, capsys)[0] == 0
    with pytest.raises(AssertionError, match="parse_args called"):
        main([*argv, "-h"])  # help is argparse's
