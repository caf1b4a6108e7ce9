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
import sys
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import FockgaugeError, NonFiniteOutputError, NonphysicalMomentError, SchemaError
from .fock import FockVector, boundary_mass
from .gauges import full_report
from .moments import ellipse, summarize, summary_from_dict
from .schema import complex_number
from .states import state_from_spec, strong_field_norm_inverse
from .verify import (
    FIGURE_NAMES, calibrate, check_resolution, figure_rows, sweep, sweep_config_from_dict
)


NUMBER_FORMAT = "%.17g"  # 17 significant digits, so every float reads back exactly; the one number format


def _walk(obj, pieces: list, floats: list, pad: str) -> None:
    # a NUMBER_FORMAT slot in `pieces` for each float in `floats`, and "%" doubled elsewhere
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteOutputError(obj)
        pieces.append(NUMBER_FORMAT)
        floats.append(obj)
    elif isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        if not obj:
            pieces.append("{}" if is_dict else "[]")
            return
        pieces.append("{\n" if is_dict else "[\n")
        inner = pad + "  "
        try:
            for key, value in obj.items() if is_dict else enumerate(obj):
                pieces.append(f'{inner}"{key}": '.replace("%", "%%") if is_dict else inner)
                _walk(value, pieces, floats, inner)
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
        pieces.append(str(obj).replace("%", "%%"))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj).replace("%", "%%"))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Deterministic strict JSON with 17-significant-digit floats, all printed by one format call.

    Raises NonFiniteOutputError, naming the key path, on a NaN or infinity.
    """
    pieces: list = []
    floats: list = []
    _walk(obj, pieces, floats, "")
    # through float(), so that a float subclass prints the value its __float__ gives
    return "".join(pieces) % tuple(map(float, floats))


# "%.17g" text of any float64 fits in CSV_FIELD_WIDTH bytes ("-1.7976931348623157e+308")
CSV_FIELD_WIDTH = 24
# rows rendered at a time, so that a CSV's working memory does not grow with the table
CSV_BLOCK_ROWS = 1 << 15
_PADDED_FIELD = NUMBER_FORMAT.replace("%", f"%-{CSV_FIELD_WIDTH}")


def _field_bytes(values: np.ndarray) -> np.ndarray:
    """The "%.17g" texts of `values`, left-justified, as a uint8 matrix of CSV_FIELD_WIDTH columns."""
    text = _PADDED_FIELD * len(values) % tuple(values.tolist())
    return np.frombuffer(text.encode("ascii"), dtype=np.uint8).reshape(-1, CSV_FIELD_WIDTH)


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
    # A column with at most half as many distinct values (bit patterns, so that
    # 0.0 and -0.0 stay apart) as rows formats each value once and its cells
    # copy the bytes; every other column formats per cell.
    distinct = []
    for column in table.T:
        keys = np.sort(column.view(np.int64))
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        distinct.append((keys, _field_bytes(keys.view(np.float64))) if 2 * len(keys) <= len(table) else None)
    # each row is a matrix row of one padded field and one separator per
    # column; the padding spaces are then dropped in one pass
    separators = np.full(len(header), ord(","), dtype=np.uint8)
    separators[-1] = ord("\n")
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        block = table[start : start + CSV_BLOCK_ROWS]
        matrix = np.empty((len(block), len(header), CSV_FIELD_WIDTH + 1), dtype=np.uint8)
        matrix[:, :, CSV_FIELD_WIDTH] = separators
        for j, column in enumerate(block.T):
            if distinct[j] is None:
                matrix[:, j, :CSV_FIELD_WIDTH] = _field_bytes(column)
            else:
                keys, texts = distinct[j]
                matrix[:, j, :CSV_FIELD_WIDTH] = texts[np.searchsorted(keys, column.view(np.int64))]
        flat = matrix.reshape(-1)
        yield flat[flat != ord(" ")].tobytes().decode("ascii")


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
        except OSError as exc:
            raise SchemaError(f"cannot read {what} file {raw[1:]!r}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{what} is not valid JSON (line {exc.lineno}, column {exc.colno})") from exc


def _cmd_state(args: argparse.Namespace) -> int:
    spec = _parse_json_argument(args.spec, "state spec")
    state = state_from_spec(spec)
    meta = {
        "kind": spec["kind"],
        "cutoff": state.cutoff,
        "boundary_mass": boundary_mass(state),
    }
    if spec["kind"] == "approx_strong_field":
        meta["analytic_norm_inverse"] = strong_field_norm_inverse(
            complex_number(spec, "alpha"), complex_number(spec, "gamma")
        )
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every `run` call.

    Safe to share because parse_args keeps no state between calls; callers
    must not add to it.
    """
    parser = argparse.ArgumentParser(
        prog="fockgauge",
        description="Truncated Fock-space uncertainty bounds and nonclassicality gauges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="construct a state and print its metadata")
    p_state.add_argument("--spec", required=True, help="StateSpec JSON (or @file)")
    p_state.add_argument("--dump-amplitudes", action="store_true")
    p_state.add_argument("--out", default=None)
    p_state.set_defaults(func=_cmd_state)

    p_moments = sub.add_parser("moments", help="print the moment summary of a state")
    p_moments.add_argument("--spec", required=True, help="StateSpec JSON (or @file)")
    p_moments.add_argument("--out", default=None)
    p_moments.set_defaults(func=_cmd_moments)

    p_gauge = sub.add_parser("gauge", help="print the gauge report of a state or moment table")
    group = p_gauge.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", default=None, help="StateSpec JSON (or @file)")
    group.add_argument("--moments", default=None, help="MomentSummary JSON (or @file)")
    p_gauge.add_argument("--out", default=None)
    p_gauge.set_defaults(func=_cmd_gauge)

    p_sweep = sub.add_parser("sweep", help="run a random-ensemble inequality sweep")
    p_sweep.add_argument("--config", required=True, help="SweepConfig JSON (or @file)")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cal = sub.add_parser("calibrate", help="derive bound constants and audit printed variants")
    p_cal.add_argument("--out", default=None)
    p_cal.set_defaults(func=_cmd_calibrate)

    p_fig = sub.add_parser("figure", help="emit figure datasets as CSV")
    p_fig.add_argument("--which", required=True, choices=FIGURE_NAMES)
    p_fig.add_argument("--resolution", type=_resolution, default=64)
    p_fig.add_argument("--out", default=None)
    p_fig.set_defaults(func=_cmd_figure)
    return parser


def run(argv: Sequence[str]) -> int:
    """Entry point usable as a function; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
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
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
