"""Command-line front end.

Subcommands:

  simulate   iterate the system directly and print the orbit
  closed     evaluate the closed form at the same indices
  classify   rank and asymptotic verdict for a coefficient set
  compare    worst disagreement between closed form and iteration
  sweep      classify across a grid over one or two coefficients

Exit codes: 0 success, 2 usage error, 3 invalid domain or branch
(DomainError, BranchError), 4 numeric blow-up or non-convergence
(TruncationError, BitGrowthError, ConvergenceError). A reader that
closes stdout early ends the run quietly, with exit 0.

All floats print with 17 significant digits; exact rationals print as
'p/q'. Output is plain text with no escape sequences and
newline-terminated lines. Every value is computed before the first byte
is written, so an error leaves no partial output.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from fractions import Fraction
from itertools import chain, islice, product, repeat
from typing import Iterable, Iterator, NamedTuple, Optional

from .analysis import (classify, closed_form_states, closed_form_text, compare,
                       float_verdict)
from .classification import Classification, Kind
from .core import (COEFF_NAMES, PeriodicCoefficients, exact_orbit_text,
                   horizon, simulate)
from .errors import (
    BitGrowthError,
    BranchError,
    ConvergenceError,
    DomainError,
    TruncationError,
)
from .numeric import (ArithmeticMode, exact_text, format_number, parse_number,
                      require_tolerance)


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
        import json  # only a config file needs it, so a plain call skips it
        try:
            with open(args.config, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:  # a decode error is a ValueError
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
    return PeriodicCoefficients(*map(values.get, COEFF_NAMES))


def _inputs(args, parser) -> tuple[ArithmeticMode, PeriodicCoefficients, tuple]:
    """The mode, the coefficients and the start (x0, y0) of a command."""
    mode = ArithmeticMode(args.mode)
    return (mode, _coefficients(args, parser, mode),
            tuple(_parse_scalar(getattr(args, name), mode, name, parser)
                  for name in ("x0", "y0")))


# ---------------------------------------------------------------- output


def _jstr(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _jfloat(v: float) -> str:
    return f"{v:.17g}" if math.isfinite(v) else _jstr(repr(v))


def _jval(v, level: int) -> str:
    """v as JSON at level, by _JSON_VALUES of its exact type, or TypeError."""
    render = _JSON_VALUES.get(type(v))
    if render is None:
        raise TypeError(f"cannot render {type(v).__name__} as JSON")
    return render(v, level)


def _jitems(v, level: int) -> str:
    """A dict, list or tuple as JSON, its items one level in."""
    pad, end = "  " * (level + 1), "  " * level
    if type(v) is dict:
        items = [f"{pad}{_jstr(k)}: {_jval(x, level + 1)}" for k, x in v.items()]
        return "{\n" + ",\n".join(items) + "\n" + end + "}"
    items = [f"{pad}{_jval(x, level + 1)}" for x in v]
    return "[\n" + ",\n".join(items) + "\n" + end + "]"


_JSON_VALUES = {
    float: lambda v, _: _jfloat(v), int: lambda v, _: str(v),
    str: lambda v, _: _jstr(v), Fraction: lambda v, _: _jstr(exact_text(v)),
    type(None): lambda v, _: "null", dict: _jitems, list: _jitems, tuple: _jitems,
}


def render_json(payload: dict) -> str:
    return _jval(payload, 0) + "\n"


def _kv_text(pairs) -> str:
    """'key: value' lines; None prints as 'none'."""
    def text(v):
        return "none" if v is None else v if isinstance(v, str) else format_number(v)
    return "".join(f"{key}: {text(value)}\n" for key, value in pairs)


class _Number(str):
    """A finite float formatted in advance: its .17g text, which is its
    json text too, so every format prints it as it is."""


# How a column of values of one type becomes cells, for table and csv and
# for json. Every value of a column has the type of its first value, so
# each column picks its formatter once.
_TEXT_CELLS = {
    float: lambda col: map(format, col, repeat(".17g")),
    Fraction: functools.partial(map, exact_text),
    int: functools.partial(map, str),
    str: iter,
    _Number: iter,
}
_JSON_CELLS = {
    float: functools.partial(map, _jfloat),
    Fraction: functools.partial(map, lambda v: _jstr(exact_text(v))),
    int: functools.partial(map, str),
    str: functools.partial(map, _jstr),
    _Number: iter,
}
_BLOCK_ROWS = 1024  # rows taken from a command at a time
_CHUNK_CHARS = 1 << 16  # characters per write, about
# A block's cells of one column are stored joined by newlines while none
# is longer than this: string objects would take most of the memory of
# short cells, and long ones (exact rationals) are not copied.
_JOINED_WIDTH = 64


class _Rows(NamedTuple):
    """A header and rows of values; json puts the rows under key, after
    the fields of head."""

    header: tuple[str, ...]
    rows: Iterable[tuple]
    head: tuple[tuple[str, object], ...] = ()
    key: str = "rows"


def _serialize(out: _Rows | str, fmt: str) -> Iterator[str]:
    """Text chunks of a command's output.

    Every value is computed and every cell formatted here, before the
    first chunk is handed out, so an error leaves no partial output.
    Rows are taken in blocks and only their cells are kept, so no column
    of values is held whole. Lines are written in chunks through one
    format template.
    """
    if isinstance(out, str):
        return iter((out,))
    cells_for = _JSON_CELLS if fmt == "json" else _TEXT_CELLS
    widths = [len(h) for h in out.header]
    rows, blocks = iter(out.rows), []  # the columns of each block
    while block := list(islice(rows, _BLOCK_ROWS)):
        if not blocks:
            formatters = [cells_for[type(v)] for v in block[0]]
        columns = []
        for i, values in enumerate(zip(*block)):
            cells = list(formatters[i](values))
            widest = max(map(len, cells))
            widths[i] = max(widths[i], widest)
            columns.append("\n".join(cells) if widest <= _JOINED_WIDTH else cells)
        blocks.append(columns)
    if fmt != "json":
        if fmt == "csv":
            line = ",".join(["{}"] * len(widths)) + "\n"
        else:
            line = "  ".join(f"{{:>{w}}}" for w in widths) + "\n"
        return _chunks(line.format(*out.header), line, blocks, widths, "")
    opening = "{\n" + "".join(
        f"  {_jstr(k)}: {_jval(v, 1)},\n" for k, v in out.head
    ) + f"  {_jstr(out.key)}: ["
    fields = ",\n".join(f"      {_jstr(h)}: {{}}" for h in out.header)
    line = "    {{\n" + fields + "\n    }},\n"
    return _chunks(opening + "\n", line, blocks, widths, "\n  ]\n}\n")


def _chunks(opening, line, blocks, widths, closing) -> Iterator[str]:
    """opening, the rows through the line template, then closing; a json
    closing replaces the separator after the last row. Cells are freed
    as they are written."""
    yield opening
    per = max(1, _CHUNK_CHARS // (len(line) + sum(widths)))
    blocks.reverse()
    while blocks:
        columns = [c.split("\n") if isinstance(c, str) else c
                   for c in blocks.pop()]
        while columns[0]:
            part = [c[:per] for c in columns]
            for c in columns:
                del c[:per]  # written cells are freed as the output grows
            text = (line * len(part[0])).format(*chain.from_iterable(zip(*part)))
            yield text[:-2] if closing and not blocks and not columns[0] else text
    yield closing


def _write_output(chunks: Iterable[str], path: Optional[str], parser) -> None:
    """Write the chunks to stdout, or to path, opened only now, so that
    an error before this leaves an existing file as it was. A path that
    cannot be opened is a usage error. A reader that closes stdout early
    ends the output quietly."""
    if path is None or path == "-":
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            # the flush at exit would raise again on the closed pipe
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        parser.error(f"cannot write {path}: {exc}")
    with fh:
        fh.writelines(chunks)


# ------------------------------------------------------------- commands


def _points(command: str, args, states: Iterable) -> _Rows:
    head = (("command", command), ("mode", args.mode), ("n_max", args.n_max))
    rows = ((n, x, y) for n, (x, y) in enumerate(states))
    return _Rows(("n", "x", "y"), rows, head, "points")


def _cmd_simulate(args, parser) -> _Rows:
    """The orbit's rows; an exact orbit comes as text, never as Fractions,
    since printing a wide int costs more than computing it."""
    mode, params, init = _inputs(args, parser)
    if mode is ArithmeticMode.EXACT_RATIONAL:
        states = exact_orbit_text(params, init, args.n_max)
    else:
        states = simulate(params, init, args.n_max, mode).states
    return _points("simulate", args, states)


def _cmd_closed(args, parser) -> _Rows:
    """The closed form's rows; exact ones come as text, as in simulate."""
    mode, params, init = _inputs(args, parser)
    if mode is ArithmeticMode.EXACT_RATIONAL:
        states = closed_form_text(params, init, args.n_max, args.eps_rank)
    else:
        states = islice(closed_form_states(params, init, mode, args.eps_rank),
                        args.n_max + 1)
    return _points("closed", args, states)


def _witness_fields(verdict: Classification) -> tuple[list[tuple[str, object]], object, object]:
    """(ordered witness key/value pairs, K-or-Q, rho-or-delta)."""
    w = verdict.witness
    if verdict.rank == 1:
        return (list(zip(("K", "mu", "rho"), w)), w.k, w.rho)
    return (list(zip(("lambda1", "lambda2", "Q", "delta", "scale"), w)), w.q, w.delta)


def _cmd_classify(args, parser) -> _Rows | str:
    mode, params, init = _inputs(args, parser)
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
    cycle = verdict.cycle and verdict.cycle._asdict()
    head = [("rank", verdict.rank), ("kind", verdict.kind.value)]
    if args.format == "json":
        return render_json(
            {"command": "classify", "mode": mode.value, **dict(head),
             "witness": dict(pairs), "cycle": cycle}
        )
    if args.format == "csv":
        row = (verdict.rank, k_or_q, rho_or_delta, verdict.kind.value)
        return _Rows(("rank", "K_or_Q", "rho_or_delta", "kind"), [row])
    cycle_pairs = [(f"cycle_{k}", v) for k, v in (cycle or {}).items()]
    return _kv_text(head + pairs + cycle_pairs)


def _cmd_compare(args, parser) -> _Rows | str:
    mode, params, init = _inputs(args, parser)
    report = compare(
        params,
        init,
        args.n_max,
        mode,
        divergence_threshold=args.threshold,
        eps_rank=args.eps_rank,
    )
    fields = report._asdict()
    if args.format == "json":
        return render_json({"command": "compare", "mode": mode.value, **fields})
    if args.format == "csv":
        return _Rows(report._fields, [tuple("" if v is None else v for v in report)])
    return _kv_text(fields.items())


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
    # cell 0 is lo itself: lo + 0*(hi - lo) is nan where an endpoint is
    # inf. Where i*(hi - lo) overflows, i/(steps - 1) is taken first, so
    # that cells between finite endpoints stay finite.
    span, values = hi - lo, [lo]
    for i in range(1, steps):
        part = i * span
        values.append(lo + (part / (steps - 1) if abs(part) < math.inf
                            else span * (i / (steps - 1))))
    return (name, values)


def _cmd_sweep(args, parser) -> _Rows:
    """Classify every cell of the grid, one row per cell, in product order.

    The base coefficients are checked once, and each axis value is tested
    against (0, inf) and formatted once, as a _Number that every format
    prints as it is. A cell is only classified: its swept values are
    written into one list of the eight coefficients, axis1's once per row,
    and handed to float_verdict, which shares its formulas with classify.
    In a grid that holds a value outside the range, a cell with one builds
    its PeriodicCoefficients, which raises the DomainError naming it.
    """
    axes = [_parse_axis(args.axis1, parser)]
    if args.axis2:
        axes.append(_parse_axis(args.axis2, parser))
        if axes[0][0] == axes[1][0]:
            parser.error(f"axis1 and axis2 both sweep {axes[0][0]!r}")
    args._axis_names = axis_names = tuple(name for name, _ in axes)
    base = _coefficients(args, parser, ArithmeticMode.FLOAT64)
    cell = list(base)
    slots = [COEFF_NAMES.index(name) for name in axis_names]
    *outer_slots, inner = slots
    *outer_axes, inner_axis = [[(v, _Number(format(v, ".17g"))) for v in values]
                               for _, values in axes]
    bad = not all(0 < v < math.inf for _, values in axes for v in values)
    eps_rank, tol_class = args.eps_rank, args.tol_class
    kinds = {kind: kind.value for kind in Kind}

    def rows():
        for outer in product(*outer_axes):  # one empty row for one axis
            for i, (v, _) in zip(outer_slots, outer):
                cell[i] = v
            texts = tuple(text for _, text in outer)
            for v, text in inner_axis:
                cell[inner] = v
                if bad and not all(0 < cell[i] < math.inf for i in slots):
                    PeriodicCoefficients(*cell)
                rank, k_or_q, rho_or_delta, kind = float_verdict(
                    cell, eps_rank, tol_class)
                yield (*texts, text, rank, k_or_q, rho_or_delta, kinds[kind])

    axes_json = [{"name": name, "values": values} for name, values in axes]
    return _Rows(
        axis_names + ("rank", "K_or_Q", "rho_or_delta", "kind"),
        rows(),
        (("command", "sweep"), ("axes", axes_json)),
    )


# --------------------------------------------------------------- parser


def _tolerance(allow_zero: bool):
    """argparse type for a tolerance: a finite float above 0, or at 0 too
    when allow_zero is set."""

    def parse(text: str) -> float:
        try:
            return require_tolerance(float(text), "", not allow_zero, repr(text))
        except DomainError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid float value: {text!r}") from None

    return parse


def _flag(*names, **options):
    return (names, options)


_NONNEGATIVE = _tolerance(allow_zero=True)
# Flag groups, each added in this order by the subcommands that name it.
_FLAGS = {
    "init": [
        _flag("--x0", metavar="V", default="1", help="initial x (default 1)"),
        _flag("--y0", metavar="V", default="1", help="initial y (default 1)"),
    ],
    "n": [_flag("-n", "--n-max", type=int, default=20, metavar="N",
                help="largest index to produce (default 20)")],
    "mode": [_flag("--mode", choices=("float", "exact"), default="float",
                   help="float64 arithmetic or exact rationals (default float)")],
    "eps": [_flag("--eps-rank", type=_NONNEGATIVE, default=1e-12, metavar="E",
                  help="relative determinant tolerance for the rank decision")],
    "band": [_flag("--tol-class", type=_NONNEGATIVE, default=1e-9, metavar="T",
                   help="relative width of the boundary band in float mode")],
    "classify": [
        _flag("--tol-cycle", type=_tolerance(allow_zero=False), default=1e-11,
              metavar="T", help="tolerance for the limit-cycle products"),
        _flag("--no-cycle", action="store_true",
              help="skip computing the limit cycle in the convergent case"),
    ],
    "threshold": [
        _flag("--threshold", type=_NONNEGATIVE, default=1e-6, metavar="T",
              help="relative error that counts as divergence (default 1e-6)"),
    ],
    "axes": [
        _flag("--axis1", required=True, metavar="NAME:LO:HI:STEPS",
              help="first sweep axis, evenly spaced including both endpoints"),
        _flag("--axis2", metavar="NAME:LO:HI:STEPS", help="optional second sweep axis"),
    ],
    "io": [
        _flag("--format", choices=("table", "csv", "json"), default="table",
              help="output format (default table)"),
        _flag("-o", "--output", metavar="PATH",
              help="write output to PATH instead of stdout"),
    ],
}
_COMMANDS = (
    ("simulate", "iterate the system directly", _cmd_simulate,
     ("init", "n", "mode", "io")),
    ("closed", "evaluate the closed form", _cmd_closed,
     ("init", "n", "mode", "eps", "io")),
    ("classify", "rank and asymptotic verdict", _cmd_classify,
     ("init", "mode", "eps", "band", "classify", "io")),
    ("compare", "closed form vs direct iteration", _cmd_compare,
     ("init", "n", "mode", "eps", "threshold", "io")),
    ("sweep", "classify across a coefficient grid", _cmd_sweep,
     ("axes", "eps", "band", "io")),
)


def build_parser() -> argparse.ArgumentParser:
    """The full parser; its commands attribute maps each subcommand's
    name to that subcommand's parser, and its plain attribute to what
    _plain_args reads a plain argv with: each option string's Action, as
    add_argument returned it, and the defaults with func."""
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
    parser.commands, parser.plain = {}, {}
    for name, help_text, func, groups in _COMMANDS:
        command = parser.commands[name] = sub.add_parser(name, help=help_text)
        coefficient = command.add_argument_group("coefficients").add_argument
        actions = [coefficient(f"--{coeff}", metavar="V", help=f"coefficient {coeff}")
                   for coeff in COEFF_NAMES]
        actions.append(coefficient(
            "--all-ones", action="store_true",
            help="use 1 for every coefficient not given otherwise"))
        actions.append(coefficient(
            "--config", metavar="PATH",
            help="JSON object with coefficient values; explicit flags win"))
        actions += [command.add_argument(*names, **options)
                    for group in groups for names, options in _FLAGS[group]]
        command.set_defaults(func=func)
        parser.plain[name] = (
            {option: a for a in actions for option in a.option_strings},
            {a.dest: a.default for a in actions} | {"func": func},
        )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built on first use and reused by later calls
    in the process. Parsing leaves no state on it: every call parses into
    a fresh namespace."""
    return build_parser()


def _plain_args(flags: dict, defaults: dict, argv) -> Optional[argparse.Namespace]:
    """The namespace the subcommand's parser makes of a plain argv, one
    of flags' option strings after another, each followed by one value
    that does not start with '-' and passes the action's type and
    choices, or by none for a store_true flag, and every required option
    given; None for any other argv."""
    args, seen, items = argparse.Namespace(), set(), iter(argv)
    # not Namespace(**defaults): with the setattr calls below, CPython 3.11
    # keeps some 200 bytes alive per call, up to 0.4 MB
    vars(args).update(defaults)
    for item in items:
        action = flags.get(item)
        if action is None:
            return None
        if action.nargs == 0:
            value = action.const
        else:
            value = next(items, "-")
            if value.startswith("-"):
                return None
            try:
                value = action.type(value) if action.type else value
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
        setattr(args, action.dest, value)
        seen.add(action)
    return None if any(a.required and a not in seen for a in flags.values()) else args


def main(argv=None) -> int:
    """Run one command; argv defaults to sys.argv[1:]. It is parsed once.
    When argv[0] names a subcommand and the rest is plain, as _plain_args
    reads it, main reads it itself; any other argv (-h, an abbreviated or
    unknown flag, --flag=value, --, a value such as -1 or -, one that
    fails its type or choices, a missing --axis1) goes to that
    subcommand's parser, so that help, usage and errors are argparse's
    and name the subcommand. The handler gets that parser either way.
    Without a subcommand the full parser reads argv."""
    parser = _parser()
    if argv is None:
        argv = sys.argv[1:]
    args = None
    if argv and argv[0] in parser.commands:
        args = _plain_args(*parser.plain[argv[0]], argv[1:])
        parser, argv = parser.commands[argv[0]], argv[1:]
    if args is None:
        args = parser.parse_args(argv)
    try:
        horizon(getattr(args, "n_max", 0), "n")
    except DomainError as exc:
        parser.error(str(exc))
    try:
        chunks = _serialize(args.func(args, parser), args.format)
    except (DomainError, BranchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TruncationError, BitGrowthError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    _write_output(chunks, args.output, parser)
    return 0


if __name__ == "__main__":
    sys.exit(main())
