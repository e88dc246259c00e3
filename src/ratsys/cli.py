"""Command-line front end.

Subcommands:

  simulate   iterate the system directly and print the orbit
  closed     evaluate the closed form at the same indices
  classify   rank and asymptotic verdict for a coefficient set
  compare    worst disagreement between closed form and iteration
  sweep      classify across a grid over one or two coefficients

Exit codes: 0 success, 2 usage error, 3 invalid domain or branch
(DomainError, BranchError), 4 numeric blow-up or non-convergence
(TruncationError, BitGrowthError, ConvergenceError).

All floats print with 17 significant digits; exact rationals print as
'p/q'. Output is plain text with no escape sequences, written in one
piece with newline-terminated lines.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from .analysis import classify, closed_form_sequence, compare
from .classification import Classification
from .core import COEFF_NAMES, PeriodicCoefficients, simulate
from .errors import (
    BitGrowthError,
    BranchError,
    ConvergenceError,
    DomainError,
    TruncationError,
)
from .numeric import ArithmeticMode, exact_text, format_number, parse_number


def _mode_of(args) -> ArithmeticMode:
    return ArithmeticMode(getattr(args, "mode", "float"))


def _parse_scalar(text: str, mode: ArithmeticMode, name: str, parser):
    try:
        return parse_number(text, mode)
    except (ValueError, ZeroDivisionError) as exc:
        parser.error(f"cannot parse {name}={text!r}: {exc}")


def _coefficients(args, parser, mode: ArithmeticMode) -> PeriodicCoefficients:
    """Assemble the eight coefficients.

    Precedence per name: explicit flag, then config file entry, then
    --all-ones. Anything still missing is a usage error.
    """
    values: dict = {}
    if getattr(args, "all_ones", False):
        one = Fraction(1) if mode is ArithmeticMode.EXACT_RATIONAL else 1.0
        for name in COEFF_NAMES:
            values[name] = one
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config}: {exc}")
        if not isinstance(raw, dict):
            parser.error(f"config {args.config} must be a JSON object")
        for name in COEFF_NAMES:
            if name in raw:
                values[name] = _parse_scalar(str(raw[name]), mode, name, parser)
    for name in COEFF_NAMES:
        flag = getattr(args, name)
        if flag is not None:
            values[name] = _parse_scalar(flag, mode, name, parser)
    for name in getattr(args, "_axis_names", ()):
        # swept coefficients get a placeholder base value; the grid
        # replaces it before anything is computed
        values.setdefault(name, 1.0)
    missing = [name for name in COEFF_NAMES if name not in values]
    if missing:
        parser.error(
            "missing coefficients: "
            + ", ".join(f"--{name}" for name in missing)
            + " (or use --all-ones / --config)"
        )
    return PeriodicCoefficients(**values)


def _init(args, parser, mode: ArithmeticMode):
    x0 = _parse_scalar(args.x0, mode, "x0", parser)
    y0 = _parse_scalar(args.y0, mode, "y0", parser)
    return (x0, y0)


# ---------------------------------------------------------------- output


def _jstr(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _jval(v, level: int) -> str:
    pad = "  " * (level + 1)
    end = "  " * level
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, str):
        return _jstr(v)
    if isinstance(v, Fraction):
        return _jstr(exact_text(v))
    if isinstance(v, float):
        if not math.isfinite(v):
            return _jstr(repr(v))
        return f"{v:.17g}"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        items = [f"{pad}{_jstr(k)}: {_jval(x, level + 1)}" for k, x in v.items()]
        return "{\n" + ",\n".join(items) + "\n" + end + "}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        items = [f"{pad}{_jval(x, level + 1)}" for x in v]
        return "[\n" + ",\n".join(items) + "\n" + end + "]"
    raise TypeError(f"cannot render {type(v).__name__} as JSON")


def render_json(payload: dict) -> str:
    return _jval(payload, 0) + "\n"


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _kv_text(pairs: list[tuple[str, str]]) -> str:
    return "".join(f"{key}: {value}\n" for key, value in pairs)


def _write_output(text: str, path: Optional[str]) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# ------------------------------------------------------------- commands


def _points_output(command: str, args, points) -> str:
    mode = _mode_of(args)
    if args.format == "json":
        payload = {
            "command": command,
            "mode": mode.value,
            "n_max": len(points) - 1,
            "points": [
                {"n": i, "x": x, "y": y} for i, (x, y) in enumerate(points)
            ],
        }
        return render_json(payload)
    rows = [
        [str(i), format_number(x), format_number(y)]
        for i, (x, y) in enumerate(points)
    ]
    if args.format == "csv":
        return _csv_text(["n", "x", "y"], rows)
    return _table(["n", "x", "y"], rows)


def _cmd_simulate(args, parser) -> str:
    mode = _mode_of(args)
    params = _coefficients(args, parser, mode)
    init = _init(args, parser, mode)
    orbit = simulate(params, init, args.n_max, mode)
    return _points_output("simulate", args, orbit.states)


def _cmd_closed(args, parser) -> str:
    mode = _mode_of(args)
    params = _coefficients(args, parser, mode)
    init = _init(args, parser, mode)
    points = closed_form_sequence(params, init, args.n_max, mode, args.eps_rank)
    return _points_output("closed", args, points)


def _witness_fields(verdict: Classification) -> tuple[list[tuple[str, object]], object, object]:
    """(ordered witness key/value pairs, K-or-Q, rho-or-delta)."""
    w = verdict.witness
    if verdict.rank == 1:
        return ([("K", w.k), ("mu", w.mu), ("rho", w.rho)], w.k, w.rho)
    pairs = [
        ("lambda1", w.lambda1),
        ("lambda2", w.lambda2),
        ("Q", w.q),
        ("delta", w.delta),
        ("scale", w.scale),
    ]
    return (pairs, w.q, w.delta)


def _cmd_classify(args, parser) -> str:
    mode = _mode_of(args)
    params = _coefficients(args, parser, mode)
    init = _init(args, parser, mode)
    verdict = classify(
        params,
        mode,
        eps_rank=args.eps_rank,
        tol_class=args.tol_class,
        cycle_tol=args.tol_cycle,
        probe_init=init,
        attach_cycle=not args.no_cycle,
    )
    pairs, k_or_q, rho_or_delta = _witness_fields(verdict)
    if args.format == "json":
        payload = {
            "command": "classify",
            "mode": mode.value,
            "rank": verdict.rank,
            "kind": verdict.kind.value,
            "witness": dict(pairs),
        }
        if verdict.cycle is not None:
            c = verdict.cycle
            payload["cycle"] = {
                "x_even": c.x_even,
                "x_odd": c.x_odd,
                "y_even": c.y_even,
                "y_odd": c.y_odd,
                "residual": c.residual,
            }
        else:
            payload["cycle"] = None
        return render_json(payload)
    if args.format == "csv":
        row = [
            str(verdict.rank),
            format_number(k_or_q),
            format_number(rho_or_delta),
            verdict.kind.value,
        ]
        return _csv_text(["rank", "K_or_Q", "rho_or_delta", "kind"], [row])
    lines = [("rank", str(verdict.rank)), ("kind", verdict.kind.value)]
    lines += [(key, format_number(value)) for key, value in pairs]
    if verdict.cycle is not None:
        c = verdict.cycle
        lines += [
            ("cycle_x_even", format_number(c.x_even)),
            ("cycle_x_odd", format_number(c.x_odd)),
            ("cycle_y_even", format_number(c.y_even)),
            ("cycle_y_odd", format_number(c.y_odd)),
            ("cycle_residual", format_number(c.residual)),
        ]
    return _kv_text(lines)


def _cmd_compare(args, parser) -> str:
    mode = _mode_of(args)
    params = _coefficients(args, parser, mode)
    init = _init(args, parser, mode)
    report = compare(
        params,
        init,
        args.n_max,
        mode,
        divergence_threshold=args.threshold,
        eps_rank=args.eps_rank,
    )
    if args.format == "json":
        payload = {
            "command": "compare",
            "mode": mode.value,
            "n_max": report.n_max,
            "max_rel_error_x": report.max_rel_error_x,
            "max_rel_error_y": report.max_rel_error_y,
            "first_divergence_index": report.first_divergence_index,
        }
        return render_json(payload)
    first = report.first_divergence_index
    if args.format == "csv":
        row = [
            str(report.n_max),
            format_number(report.max_rel_error_x),
            format_number(report.max_rel_error_y),
            "" if first is None else str(first),
        ]
        return _csv_text(
            ["n_max", "max_rel_error_x", "max_rel_error_y", "first_divergence_index"],
            [row],
        )
    return _kv_text(
        [
            ("n_max", str(report.n_max)),
            ("max_rel_error_x", format_number(report.max_rel_error_x)),
            ("max_rel_error_y", format_number(report.max_rel_error_y)),
            ("first_divergence_index", "none" if first is None else str(first)),
        ]
    )


def _parse_axis(raw: str, parser):
    parts = raw.split(":")
    if len(parts) != 4:
        parser.error(f"axis {raw!r} must look like name:lo:hi:steps")
    name, lo_s, hi_s, steps_s = parts
    if name not in COEFF_NAMES:
        parser.error(f"axis name {name!r} is not one of {', '.join(COEFF_NAMES)}")
    try:
        lo, hi, steps = float(lo_s), float(hi_s), int(steps_s)
    except ValueError as exc:
        parser.error(f"axis {raw!r}: {exc}")
    if steps < 1:
        parser.error(f"axis {raw!r} needs steps >= 1")
    if steps == 1:
        values = [lo]
    else:
        values = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
    return (name, values)


def _cmd_sweep(args, parser) -> str:
    axes = [_parse_axis(args.axis1, parser)]
    if args.axis2:
        axes.append(_parse_axis(args.axis2, parser))
        if axes[0][0] == axes[1][0]:
            parser.error(f"axis1 and axis2 both sweep {axes[0][0]!r}")
    args._axis_names = tuple(name for name, _ in axes)
    base = _coefficients(args, parser, ArithmeticMode.FLOAT64)
    base_values = {name: getattr(base, name) for name in COEFF_NAMES}
    axis_names = [name for name, _ in axes]
    grids = [values for _, values in axes]
    combos = (
        [(v1,) for v1 in grids[0]]
        if len(grids) == 1
        else [(v1, v2) for v1 in grids[0] for v2 in grids[1]]
    )
    rows = []
    for combo in combos:
        params = PeriodicCoefficients(
            **(base_values | dict(zip(axis_names, combo)))
        )
        verdict = classify(
            params,
            ArithmeticMode.FLOAT64,
            eps_rank=args.eps_rank,
            tol_class=args.tol_class,
            attach_cycle=False,
        )
        _, k_or_q, rho_or_delta = _witness_fields(verdict)
        rows.append((combo, verdict, k_or_q, rho_or_delta))
    if args.format == "json":
        payload = {
            "command": "sweep",
            "axes": [
                {"name": name, "values": values}
                for name, values in zip(axis_names, grids)
            ],
            "rows": [
                {
                    **{name: v for name, v in zip(axis_names, combo)},
                    "rank": verdict.rank,
                    "K_or_Q": k_or_q,
                    "rho_or_delta": rho_or_delta,
                    "kind": verdict.kind.value,
                }
                for combo, verdict, k_or_q, rho_or_delta in rows
            ],
        }
        return render_json(payload)
    header = axis_names + ["rank", "K_or_Q", "rho_or_delta", "kind"]
    text_rows = [
        [format_number(v) for v in combo]
        + [
            str(verdict.rank),
            format_number(k_or_q),
            format_number(rho_or_delta),
            verdict.kind.value,
        ]
        for combo, verdict, k_or_q, rho_or_delta in rows
    ]
    if args.format == "csv":
        return _csv_text(header, text_rows)
    return _table(header, text_rows)


# --------------------------------------------------------------- parser


def _add_coefficient_flags(sub: argparse.ArgumentParser) -> None:
    group = sub.add_argument_group("coefficients")
    for name in COEFF_NAMES:
        group.add_argument(f"--{name}", metavar="V", help=f"coefficient {name}")
    group.add_argument(
        "--all-ones",
        action="store_true",
        help="use 1 for every coefficient not given otherwise",
    )
    group.add_argument(
        "--config",
        metavar="PATH",
        help="JSON object with coefficient values; explicit flags win",
    )


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default table)",
    )
    sub.add_argument(
        "-o",
        "--output",
        metavar="PATH",
        help="write output to PATH instead of stdout",
    )


def _add_mode_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--mode",
        choices=("float", "exact"),
        default="float",
        help="float64 arithmetic or exact rationals (default float)",
    )


def _add_init_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--x0", metavar="V", default="1", help="initial x (default 1)")
    sub.add_argument("--y0", metavar="V", default="1", help="initial y (default 1)")


def _add_n_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "-n",
        "--n-max",
        type=int,
        default=20,
        metavar="N",
        help="largest index to produce (default 20)",
    )


def _tolerance(allow_zero: bool):
    """argparse type for a tolerance: a finite float above 0, or at 0 too
    when allow_zero is set."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid float value: {text!r}"
            ) from None
        in_range = value > 0 or (allow_zero and value == 0)
        if not (math.isfinite(value) and in_range):
            bound = ">= 0" if allow_zero else "> 0"
            raise argparse.ArgumentTypeError(
                f"must be finite and {bound}, got {text!r}"
            )
        return value

    return parse


def _add_eps_rank(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--eps-rank",
        type=_tolerance(allow_zero=True),
        default=1e-12,
        metavar="E",
        help="relative determinant tolerance for the rank decision",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratsys",
        description=(
            "Closed forms, classification, and diagnostics for the planar "
            "system x[n+1] = a[n]/x[n] + b[n]/y[n], "
            "y[n+1] = c[n]/x[n] + d[n]/y[n] with period-two positive "
            "coefficients."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p_sim = sub.add_parser("simulate", help="iterate the system directly")
    _add_coefficient_flags(p_sim)
    _add_init_flags(p_sim)
    _add_n_flag(p_sim)
    _add_mode_flag(p_sim)
    _add_io_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cls = sub.add_parser("closed", help="evaluate the closed form")
    _add_coefficient_flags(p_cls)
    _add_init_flags(p_cls)
    _add_n_flag(p_cls)
    _add_mode_flag(p_cls)
    _add_eps_rank(p_cls)
    _add_io_flags(p_cls)
    p_cls.set_defaults(func=_cmd_closed)

    p_cfy = sub.add_parser("classify", help="rank and asymptotic verdict")
    _add_coefficient_flags(p_cfy)
    _add_init_flags(p_cfy)
    _add_mode_flag(p_cfy)
    _add_eps_rank(p_cfy)
    p_cfy.add_argument(
        "--tol-class",
        type=_tolerance(allow_zero=True),
        default=1e-9,
        metavar="T",
        help="relative width of the boundary band in float mode",
    )
    p_cfy.add_argument(
        "--tol-cycle",
        type=_tolerance(allow_zero=False),
        default=1e-11,
        metavar="T",
        help="tolerance for the limit-cycle products",
    )
    p_cfy.add_argument(
        "--no-cycle",
        action="store_true",
        help="skip computing the limit cycle in the convergent case",
    )
    _add_io_flags(p_cfy)
    p_cfy.set_defaults(func=_cmd_classify)

    p_cmp = sub.add_parser("compare", help="closed form vs direct iteration")
    _add_coefficient_flags(p_cmp)
    _add_init_flags(p_cmp)
    _add_n_flag(p_cmp)
    _add_mode_flag(p_cmp)
    _add_eps_rank(p_cmp)
    p_cmp.add_argument(
        "--threshold",
        type=_tolerance(allow_zero=True),
        default=1e-6,
        metavar="T",
        help="relative error that counts as divergence (default 1e-6)",
    )
    _add_io_flags(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_swp = sub.add_parser("sweep", help="classify across a coefficient grid")
    _add_coefficient_flags(p_swp)
    p_swp.add_argument(
        "--axis1",
        required=True,
        metavar="NAME:LO:HI:STEPS",
        help="first sweep axis, evenly spaced including both endpoints",
    )
    p_swp.add_argument(
        "--axis2",
        metavar="NAME:LO:HI:STEPS",
        help="optional second sweep axis",
    )
    _add_eps_rank(p_swp)
    p_swp.add_argument(
        "--tol-class",
        type=_tolerance(allow_zero=True),
        default=1e-9,
        metavar="T",
        help="relative width of the boundary band",
    )
    _add_io_flags(p_swp)
    p_swp.set_defaults(func=_cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use and reused by later calls
    in the process. Parsing leaves no state on it: every call parses into
    a fresh namespace."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "n_max", 0) < 0:
        parser.error(f"n must be >= 0, got {args.n_max}")
    try:
        text = args.func(args, parser)
    except (DomainError, BranchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TruncationError, BitGrowthError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    _write_output(text, args.output)
    return 0


if __name__ == "__main__":
    sys.exit(main())
