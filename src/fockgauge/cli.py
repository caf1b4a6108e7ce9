"""Command-line front end: state construction, moment and gauge reports,
random-ensemble sweeps, calibration, and figure-data CSV emission.

All numeric output is printed with 17 significant digits so that repeated
runs are byte-identical and values round-trip exactly through JSON.

Exit codes: 0 success, 1 physics violation or assertion failure, 2 usage or
input-schema error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import FockgaugeError, NonFiniteOutputError, NonphysicalMomentError, SchemaError
from .fock import FockVector, boundary_mass
from .gauges import full_report
from .moments import ellipse, summarize, summary_from_dict
from .states import state_from_spec
from .verify import (
    FIGURE_NAMES, calibrate, check_resolution, figure_rows, sweep, sweep_config_from_dict
)


NUMBER_FORMAT = "%.17g"  # 17 significant digits, so every float reads back exactly; the one number format


def _walk(obj, pieces: list, pad: str) -> None:
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteOutputError(obj)
        # through float(), so that a float subclass prints the value its __float__ gives
        pieces.append(NUMBER_FORMAT % float(obj))
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        if not obj:
            pieces.append("{}" if is_dict else "[]")
            return
        pieces.append("{\n" if is_dict else "[\n")
        inner = pad + "  "
        try:
            for key, value in obj.items() if is_dict else enumerate(obj):
                pieces.append(f"{inner}{encode_basestring_ascii(str(key))}: " if is_dict else inner)
                _walk(value, pieces, inner)
                pieces.append(",\n")
        except NonFiniteOutputError as exc:
            exc.path.insert(0, key)  # built on the way out: free when nothing fails
            raise
        pieces[-1] = "\n"
        pieces.append(pad + ("}" if is_dict else "]"))
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, str):
        pieces.append(encode_basestring_ascii(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Deterministic strict JSON with 17-significant-digit floats, written in one pass.

    Keys and strings are JSON strings, escaped as `json.dumps` escapes a str.
    Raises NonFiniteOutputError, naming the key path, on a NaN or infinity.
    """
    pieces: list = []
    _walk(obj, pieces, "")
    return "".join(pieces)


# "%.17g" text of any float64 fits in CSV_FIELD_WIDTH bytes ("-1.7976931348623157e+308")
CSV_FIELD_WIDTH = 24
# rows rendered at a time, so that a CSV's working memory does not grow with the table
CSV_BLOCK_ROWS = 1 << 15
_PADDED_FIELD = NUMBER_FORMAT.replace("%", f"%-{CSV_FIELD_WIDTH}")
_PAD = b" "


def _records(values: np.ndarray, separator: str, trim: bool) -> np.ndarray:
    """One fixed-width record per value: its "%.17g" text, left-justified with
    spaces, then `separator`, as a 1-d array of void items.

    The text is padded to CSV_FIELD_WIDTH bytes, or with `trim` only to the
    widest text among `values`.
    """
    text = (_PADDED_FIELD + separator) * len(values) % tuple(values.tolist())
    records = np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, CSV_FIELD_WIDTH + 1)
    if trim:
        # left-justified, so the widest text ends in the last field byte that is ever not padding
        width = np.count_nonzero((records[:, :CSV_FIELD_WIDTH] != ord(_PAD)).any(axis=0))
        records = np.concatenate((records[:, :width], records[:, CSV_FIELD_WIDTH:]), axis=1)
    return records.view(f"V{records.shape[1]}")[:, 0]


def csv_blocks(header: Sequence[str], rows: np.ndarray | Sequence[Sequence[float]]) -> Iterator[str]:
    """The text of `format_csv` in pieces: the header line, then one piece per CSV_BLOCK_ROWS rows.

    The table is read and checked before this returns, so a table that does
    not fit raises here, before any piece is made.
    """
    table = np.asarray(rows, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] != len(header) or not header:
        raise ValueError(f"a table of shape {table.shape} does not fit {len(header)} CSV columns")
    return _csv_pieces(header, table)


def _csv_pieces(header: Sequence[str], table: np.ndarray) -> Iterator[str]:
    yield ",".join(header) + "\n"
    rows = len(table)
    separators = [","] * (len(header) - 1) + ["\n"]
    # A column with at most half as many distinct values (bit patterns, so that
    # 0.0 and -0.0 stay apart) as rows is repeated: each distinct value becomes
    # one record padded to the column's widest text, and each row's index among
    # them is kept in the smallest unsigned type that holds it.  Every other
    # column formats the cells of each block as CSV_FIELD_WIDTH + 1 byte records.
    columns = []  # (records, index) of a repeated column, (None, None) of another
    for column, separator in zip(table.T, separators):
        distinct, inverse = np.unique(column.view(np.int64), return_inverse=True)
        if 2 * len(distinct) > rows:
            columns.append((None, None))
            continue
        records = _records(distinct.view(np.float64), separator, True)
        columns.append((records, inverse.astype(np.min_scalar_type(len(distinct) - 1))))
    # one row buffer, a field of one record per column, serves every block:
    # each field is filled by one take or one formatting pass, then the
    # padding spaces are dropped in one pass over the block's bytes (a record
    # holds no space other than padding)
    widths = [CSV_FIELD_WIDTH + 1 if records is None else records.itemsize for records, _ in columns]
    buffer = np.empty(min(rows, CSV_BLOCK_ROWS), dtype=[(f"f{j}", f"V{w}") for j, w in enumerate(widths)])
    for start in range(0, rows, CSV_BLOCK_ROWS):
        block = buffer[: min(CSV_BLOCK_ROWS, rows - start)]
        stop = start + len(block)
        for name, column, separator, (records, index) in zip(buffer.dtype.names, table.T, separators, columns):
            if records is None:
                block[name] = _records(column[start:stop], separator, False)
            else:
                block[name] = records.take(index[start:stop])
        yield block.tobytes().translate(None, _PAD).decode("ascii")


def format_csv(header: Sequence[str], rows: np.ndarray | Sequence[Sequence[float]]) -> str:
    """CSV with one 17-significant-digit field per header column in every row.

    `rows` is anything `np.asarray` reads as a float64 table of shape
    (rows, len(header)), with at least one column; a table of any other shape
    raises ValueError.
    """
    return "".join(csv_blocks(header, rows))


def _emit(text: str | Iterable[str], out: Optional[str]) -> None:
    """Write `text`, or each piece of an iterable as it is made, to stdout or the --out file.

    The file is opened before the first piece is made, so an unwritable --out
    is a schema error (exit 2) before any output exists.
    """
    pieces = [text if text.endswith("\n") else text + "\n"] if isinstance(text, str) else text
    if out is None or out == "-":
        sys.stdout.writelines(pieces)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.writelines(pieces)
        except OSError as exc:
            raise SchemaError(f"cannot write --out file {out!r}: {exc}") from exc


def _parse_json_argument(raw: str, what: str) -> object:
    text = raw
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read {what} file {raw[1:]!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} is not valid JSON (line {exc.lineno}, column {exc.colno})") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal beyond 4300 digits, or nesting too deep for the decoder
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


def _cmd_state(args: argparse.Namespace) -> int:
    spec = _parse_json_argument(args.spec, "state spec")
    state = state_from_spec(spec)
    meta = {
        "kind": spec["kind"],
        "cutoff": state.cutoff,
        "boundary_mass": boundary_mass(state),
    }
    if args.dump_amplitudes:
        if isinstance(state, FockVector):
            meta["amplitudes"] = [
                {"re": c.real, "im": c.imag} for c in state.amplitudes.tolist()
            ]
        else:
            meta["diagonal"] = [float(p) for p in state.probabilities]
    _emit(dumps(meta), args.out)
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    spec = _parse_json_argument(args.spec, "state spec")
    summary = summarize(state_from_spec(spec))
    _emit(dumps(summary.to_dict()), args.out)
    return 0


def _cmd_gauge(args: argparse.Namespace) -> int:
    if args.spec is not None:
        summary = summarize(state_from_spec(_parse_json_argument(args.spec, "state spec")))
    else:
        summary = summary_from_dict(_parse_json_argument(args.moments, "moment summary"))
    report = full_report(summary, ellipse(summary))
    _emit(dumps(report.to_dict()), args.out)
    violated = report.violated_names()
    if violated:
        print(f"physics violation in: {', '.join(violated)}", file=sys.stderr)
        return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = sweep_config_from_dict(_parse_json_argument(args.config, "sweep config"))
    report = sweep(config)
    _emit(dumps(report.to_dict()), args.out)
    print(f"sweep wall time: {report.wall_time:.3f} s", file=sys.stderr)
    if report.total_violations > 0:
        print(f"violations in: {', '.join(report.violated_names())}", file=sys.stderr)
        return 1
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    _emit(dumps(calibrate().to_dict()), args.out)
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    header, rows = figure_rows(args.which, args.resolution)
    _emit(csv_blocks(header, rows), args.out)
    return 0


def _resolution(text: str) -> int:
    """argparse type of --resolution, so an out-of-range value is a usage error."""
    try:
        value = int(text)
        check_resolution(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    return value


# The argv forms `[command, option, value]` that `run` answers from the
# namespace argparse built for them once, without a per-call parse: the two
# forms of a single gauge request
SINGLE_OPTION_FORMS = (
    ("gauge", "--spec"),
    ("gauge", "--moments"),
)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help and usage text fails like any stdout write.

    argparse drops the OSError of a failed message write, so help sent to an
    unwritable, unbuffered stdout would exit 0 with nothing said; here it
    reaches `main`, which reports it as every other failed stdout write.
    Messages to stderr keep argparse's handling.
    """

    def _print_message(self, message, file=None):
        if file is not None and file is sys.stdout:
            file.write(message)
        else:
            super()._print_message(message, file)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every `run` call.

    Safe to share because parse_args keeps no state between calls; callers
    must not add to it.  `commands` on the parser maps each command name to
    its subparser.  `forms` maps each (command, option) of
    SINGLE_OPTION_FORMS to the option's dest and the fields of the namespace
    the subparser returns for `[option, probe]`, so a form argparse rejects
    fails here, on the first call.
    """
    parser = _Parser(
        prog="fockgauge",
        description="Truncated Fock-space uncertainty bounds and nonclassicality gauges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="construct a state and print its metadata")
    p_state.add_argument("--spec", required=True, help="StateSpec JSON (or @file)")
    p_state.add_argument("--dump-amplitudes", action="store_true")
    p_state.set_defaults(func=_cmd_state)

    p_moments = sub.add_parser("moments", help="print the moment summary of a state")
    p_moments.add_argument("--spec", required=True, help="StateSpec JSON (or @file)")
    p_moments.set_defaults(func=_cmd_moments)

    p_gauge = sub.add_parser("gauge", help="print the gauge report of a state or moment table")
    group = p_gauge.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", default=None, help="StateSpec JSON (or @file)")
    group.add_argument("--moments", default=None, help="MomentSummary JSON (or @file)")
    p_gauge.set_defaults(func=_cmd_gauge)

    p_sweep = sub.add_parser("sweep", help="run a random-ensemble inequality sweep")
    p_sweep.add_argument("--config", required=True, help="SweepConfig JSON (or @file)")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="derive bound constants and audit printed variants")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_fig = sub.add_parser("figure", help="emit figure datasets as CSV")
    p_fig.add_argument("--which", required=True, choices=FIGURE_NAMES)
    p_fig.add_argument("--resolution", type=_resolution, default=64)
    p_fig.set_defaults(func=_cmd_figure)
    for command in sub.choices.values():
        command.add_argument("--out", default=None)  # last, so that it ends each usage line
    parser.commands = dict(sub.choices)
    parser.forms = {}
    probe = "probe value"
    for name, option in SINGLE_OPTION_FORMS:
        fields = vars(parser.commands[name].parse_args([option, probe], argparse.Namespace(command=name)))
        [dest] = [key for key, value in fields.items() if value == probe]
        parser.forms[name, option] = dest, fields
    return parser


def run(argv: Sequence[str]) -> int:
    """Entry point usable as a function; returns the process exit code.

    An argv of exactly `[command, option, value]`, with (command, option) one
    of SINGLE_OPTION_FORMS (`gauge --spec` and `gauge --moments`) and a value
    that does not start with "-", skips the per-call parse: its namespace is
    a copy of the one argparse built for that form in `build_parser`, with
    the value replaced.  Every other argv
    is parsed: one whose first word names a command by that command's
    subparser alone, so an unrecognized argument is reported with that
    command's usage; help, a missing command and an unknown one by the
    top-level parser.  Help and usage errors therefore always come from
    argparse.
    """
    parser = build_parser()
    argv = list(argv)
    form = None
    if len(argv) == 3 and not argv[2].startswith("-"):
        form = parser.forms.get((argv[0], argv[1]))
    if form is not None:
        dest, fields = form
        args = argparse.Namespace(**fields)
        setattr(args, dest, argv[2])
    else:
        command = parser.commands.get(argv[0]) if argv else None
        try:
            if command is None:
                args = parser.parse_args(argv)
            else:
                args = command.parse_args(argv[1:], argparse.Namespace(command=argv[0]))
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NonphysicalMomentError as exc:
        print(f"physics violation: {exc}", file=sys.stderr)
        return 1
    except (FockgaugeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    """The `fockgauge` command: `run`, with stdout flushed before the exit.

    A write to stdout that fails (a closed pipe, a full disk, no stdout at
    all) is reported like an unwritable --out, in one line with exit 2; the
    unwritten rest then goes to devnull, so that the exit flush stays quiet.
    """
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"input error: cannot write stdout: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
