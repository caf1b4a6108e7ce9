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
from typing import Optional, Sequence

from .errors import FockgaugeError, NonFiniteOutputError, NonphysicalMomentError, SchemaError
from .fock import FockVector, boundary_mass
from .gauges import full_report
from .moments import ellipse, summarize, summary_from_dict
from .schema import complex_number
from .states import state_from_spec, strong_field_norm_inverse
from .verify import (
    FIGURE_NAMES, calibrate, check_resolution, figure_rows, sweep, sweep_config_from_dict
)


def format_number(value: float) -> str:
    """Render a float with 17 significant digits (exact double round-trip)."""
    return format(float(value), ".17g")


def _dump(obj, pieces: list, indent: int) -> None:
    pad = "  " * indent
    if isinstance(obj, (dict, list, tuple)):
        is_dict = isinstance(obj, dict)
        if not obj:
            pieces.append("{}" if is_dict else "[]")
            return
        pieces.append("{\n" if is_dict else "[\n")
        last = len(obj) - 1
        for i, (key, value) in enumerate(obj.items() if is_dict else enumerate(obj)):
            pieces.append(f'{pad}  "{key}": ' if is_dict else pad + "  ")
            try:
                _dump(value, pieces, indent + 1)
            except NonFiniteOutputError as exc:
                exc.path.insert(0, key)  # built on the way out: free when nothing fails
                raise
            pieces.append(",\n" if i < last else "\n")
        pieces.append(pad + ("}" if is_dict else "]"))
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif obj is None:
        pieces.append("null")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise NonFiniteOutputError(obj)
        pieces.append(format_number(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    else:
        raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """Deterministic strict JSON with 17-significant-digit floats.

    Raises NonFiniteOutputError, naming the key path, on a NaN or infinity.
    """
    pieces: list = []
    _dump(obj, pieces, 0)
    return "".join(pieces)


def format_csv(header: Sequence[str], rows: Sequence[Sequence[float]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_number(x) for x in row))
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(text)
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
    _emit(format_csv(header, rows), args.out)
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
