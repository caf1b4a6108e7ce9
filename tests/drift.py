"""Run the pinned commands of tests/pins.json: check their digests, or report how
far their outputs drift from those of another git revision.

From the repository root:

    python tests/drift.py --check [--section ci]
        Run each row at the working tree and hold it to its pins; exit 1
        naming every row that fails.  This is CI's check of the CLI.
    python tests/drift.py [--rev REV] [--section tier1]
        Run each row at REV (default HEAD, checked out in a temporary git
        worktree) and at the working tree, and print a JSON drift report.
    python tests/drift.py --record [--rev REV] ...
        The same report, then the manifest's digests rewritten from the
        working tree's outputs.

A row is a name, an argv, the sha256 of its stdout and, optionally, `exit`
(its exit code, default 0), `stderr` (text its stderr must contain) and `env`
(variables added to its environment).  Each runs in a fresh interpreter,
`python -m fockgauge.cli`, from the repository root, with PYTHONPATH at that
tree's `src` and PYTHONWARNINGS=error::RuntimeWarning.  A row fails when its
exit code, stderr text or digest differs, when its stderr holds a traceback,
or when its JSON stdout is not strict JSON (a NaN or Infinity token).

The report gives each row's exit code on both sides.  It parses a JSON
output by key path (list indices read as "*", so a field gathers every item
of its list) and a CSV output by column.  For each field with a moved value
it gives the number of values, how many moved (any change of bits), the
largest relative change |b - a| / max(|a|, |b|), and the largest ULP change,
the number of float64 values between the two.  For `moments --spec` and
`gauge --spec` rows that exit 0 it also gives each field's worst error
against `_oracles.exact_summary` of the state that side builds, in ULP of
max(1, |exact|), on both sides.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
MANIFEST = TESTS / "pins.json"
SECTIONS = ("tier1", "ci")
CLI = ("-m", "fockgauge.cli")

sys.path.insert(0, str(TESTS))
from _oracles import EXACT_ROWS, SUMMARY_KEYS, ulp_error  # noqa: E402

# the output field of each exact value, per command; a field of several
# values lists the exact key of each, in output order
_GAUGE_ROWS = {
    "relaxed_lambda_plus": ("relaxed_lambda_plus",),
    "relaxed_trace": ("relaxed_trace",),
    "canonical_pair.*": ("canonical_pair_x", "canonical_pair_p"),
    **{f"constraints.{name}": (name,) for name in ("covariance_floor", "uncertainty_area", "second_order_floor")},
}
assert {row for rows in _GAUGE_ROWS.values() for row in rows} <= set(EXACT_ROWS)
EXACT_FIELDS = {
    "moments": {key: (key,) for key in SUMMARY_KEYS},
    "gauge": {
        "tight.bound_scan": ("bound",),
        "tight.slack": ("tight_scan.slack",),
        "g1": ("g1",),
        "g2": ("g2",),
        **{
            f"{field}.{side}": tuple(f"{row}.{side}" for row in rows)
            for field, rows in _GAUGE_ROWS.items()
            for side in ("lhs", "rhs", "slack")
        },
    },
}
# run in a tree's interpreter: the exact values of each spec read from stdin,
# built by that tree's package, with this file's oracle
_EXACT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from _oracles import exact_summary
from fockgauge import state_from_spec
specs = json.load(sys.stdin)
json.dump([{k: str(v) for k, v in exact_summary(state_from_spec(json.loads(s))).items()} for s in specs], sys.stdout)
"""


def load_manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def format_manifest(manifest: dict) -> str:
    """The manifest's text: one row per line, in the layout of tests/pins.json."""
    sections = []
    for section, rows in manifest.items():
        lines = ",\n".join(f"    {json.dumps(row)}" for row in rows)
        sections.append(f"  {json.dumps(section)}: [\n{lines}\n  ]")
    return "{\n" + ",\n".join(sections) + "\n}\n"


def _env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONWARNINGS": "error::RuntimeWarning"}


def run_row(row: dict, src: Path) -> subprocess.CompletedProcess:
    """One pinned command, run by the package under `src` from the repository root; output in bytes."""
    return subprocess.run(
        [sys.executable, *CLI, *row["argv"]], cwd=ROOT, env={**_env(src), **row.get("env", {})}, capture_output=True
    )


def _exact_spec(row: dict):
    """The spec of a `moments --spec` or `gauge --spec` row that exits 0 (not an @file or malformed), else None."""
    argv = row["argv"]
    if argv[0] in EXACT_FIELDS and "--spec" in argv and row.get("exit", 0) == 0:
        return argv[argv.index("--spec") + 1]
    return None


def exact_values(specs: list, src: Path) -> list:
    """exact_summary of each spec, as the package under `src` builds its state."""
    if not specs:
        return []
    out = subprocess.run(
        [sys.executable, "-c", _EXACT_SCRIPT, str(TESTS)],
        env=_env(src),
        input=json.dumps(specs).encode(),
        stdout=subprocess.PIPE,
        check=True,
    ).stdout
    return [{key: Decimal(value) for key, value in exact.items()} for exact in json.loads(out)]


def _flatten(value, path: str, fields: dict) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{path}.{key}" if path else key, fields)
    elif isinstance(value, list):
        for item in value:
            _flatten(item, f"{path}.*" if path else "*", fields)
    else:
        fields.setdefault(path, []).append(value)


def field_values(text: str) -> dict:
    """Each field of one output and its values in order.

    JSON (text starting with "{" or "[") by key path, with every number read
    as a float, so that a zero printed as -0 keeps its sign; CSV by column,
    as float64 arrays.
    """
    if text.lstrip()[:1] in ("{", "["):
        fields: dict = {}
        _flatten(json.loads(text, parse_int=float), "", fields)
        return fields
    header, _, body = text.partition("\n")
    names = header.split(",")
    table = np.array(body.replace(",", "\n").split(), dtype=np.float64).reshape(-1, len(names))
    return dict(zip(names, table.T))


def _floats(values) -> np.ndarray | None:
    if isinstance(values, np.ndarray):
        return values
    if all(type(value) is float for value in values):
        return np.array(values, dtype=np.float64)
    return None


def _ordered(values: np.ndarray) -> list:
    # float64 bits as integers that count the floats between: -0.0 and +0.0 both map to 0
    bits = values.view(np.int64).tolist()
    return [bit if bit >= 0 else -(bit & 0x7FFF_FFFF_FFFF_FFFF) for bit in bits]


def compare_field(base, head) -> dict:
    """values, moved, max_rel and max_ulp of one field; a value present on one side only
    counts as moved, and moved values that are not both floats add no change."""
    count = min(len(base), len(head))
    a, b = _floats(base[:count]), _floats(head[:count])
    result = {"values": max(len(base), len(head)), "moved": abs(len(base) - len(head)), "max_rel": 0.0, "max_ulp": 0}
    if a is None or b is None:
        result["moved"] += sum(x != y or type(x) is not type(y) for x, y in zip(base, head))
        return result
    moved = np.flatnonzero(a.view(np.int64) != b.view(np.int64))
    if moved.size:
        a, b = a[moved], b[moved]
        # scaled first, so that a change across the float range stays finite; 0 moved to -0 scales by 1
        scale = np.maximum(np.abs(a), np.abs(b))
        scale[scale == 0.0] = 1.0
        rel = np.abs(a / scale - b / scale)
        result["moved"] += int(moved.size)
        result["max_rel"] = float(rel.max())
        result["max_ulp"] = max(abs(x - y) for x, y in zip(_ordered(a), _ordered(b)))
    return result


def drift(base: dict, head: dict) -> dict:
    """compare_field of every field of two outputs, by name, in the order the fields first appear."""
    return {name: compare_field(base.get(name, []), head.get(name, [])) for name in {**base, **head}}


def exact_errors(fields: dict, exact: dict, paths: dict) -> dict:
    """The worst ULP error of each field that has exact values, against them;
    a value that is not a float (a null G1) or has no exact value is skipped."""
    errors = {}
    for name, keys in paths.items():
        pairs = [
            (value, exact[key])
            for value, key in zip(fields.get(name, []), keys)
            if type(value) is float and key in exact
        ]
        if pairs:
            errors[name] = max(ulp_error(value, truth) for value, truth in pairs)
    return errors


def _digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def _faults(row: dict, run: subprocess.CompletedProcess) -> list:
    """How one run breaks its row's pins: exit code, stderr text, traceback, strict JSON, digest."""
    found = []
    err, out = run.stderr.decode(errors="replace"), run.stdout.decode(errors="replace")
    if run.returncode != row.get("exit", 0):
        found.append(f"exit {run.returncode}, pinned {row.get('exit', 0)}")
    if row.get("stderr", "") not in err:
        found.append(f"stderr lacks {row['stderr']!r}")
    if "Traceback" in err:
        found.append("traceback on stderr")
    if out.lstrip()[:1] in ("{", "["):
        try:
            json.dumps(json.loads(out), allow_nan=False)  # a NaN or Infinity token fails
        except ValueError as error:
            found.append(f"stdout is not strict JSON ({error})")
    # a row without a digest yet pins the empty placeholder, which no output matches
    if _digest(run.stdout) != row.get("sha256", ""):
        found.append(f"sha256 {_digest(run.stdout)}, pinned {row.get('sha256') or 'none'}")
    return found


def check(rows: list) -> int:
    """Run each row at the working tree and hold it to its pins, one line per row; 1 if any fails."""
    failed = []
    for row in rows:
        run = run_row(row, ROOT / "src")
        found = _faults(row, run)
        print(f"{row['name']}: " + ("; ".join(found) or f"exit {run.returncode}, sha256 as pinned"), flush=True)
        if found:
            failed.append(row["name"])
    if failed:
        print(f"rows failed: {failed}", file=sys.stderr)
    return 1 if failed else 0


def report(rows: list, rev: str) -> dict:
    """The drift report of the working tree against `rev`, one entry per row."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True
    ).stdout.strip()
    specs = [spec for spec in map(_exact_spec, rows) if spec is not None]
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "base"
        subprocess.run(["git", "worktree", "add", "--detach", "--quiet", str(tree), sha], cwd=ROOT, check=True)
        try:
            sides = {
                side: ([run_row(row, src) for row in rows], dict(zip(specs, exact_values(specs, src))))
                for side, src in (("base", tree / "src"), ("head", ROOT / "src"))
            }
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(tree)], cwd=ROOT, check=True)
    entries = {}
    for i, row in enumerate(rows):
        runs = {side: sides[side][0][i] for side in ("base", "head")}
        base, head = runs["base"].stdout, runs["head"].stdout
        fields = {side: field_values(run.stdout.decode()) for side, run in runs.items()}
        per_field = {name: field for name, field in drift(fields["base"], fields["head"]).items() if field["moved"]}
        spec = _exact_spec(row)
        if spec is not None:
            paths = EXACT_FIELDS[row["argv"][0]]
            errors = {side: exact_errors(fields[side], sides[side][1][spec], paths) for side in ("base", "head")}
            for name in paths:
                if name in errors["base"] or name in errors["head"]:
                    field = per_field.setdefault(name, compare_field(fields["base"][name], fields["head"][name]))
                    field["exact_ulp"] = {side: errors[side].get(name) for side in ("base", "head")}
        entries[row["name"]] = {
            "identical": base == head and runs["base"].returncode == runs["head"].returncode,
            "exit": {"pinned": row.get("exit", 0), **{side: run.returncode for side, run in runs.items()}},
            "sha256": {"pinned": row.get("sha256", ""), "base": _digest(base), "head": _digest(head)},
            "moved": sum(field["moved"] for field in per_field.values()),
            "fields": per_field,
        }
    return {"base": f"{rev} ({sha})", "head": "working tree", "rows": entries}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="hold each row to its pins")
    mode.add_argument("--record", action="store_true", help="report, then rewrite the digests")
    parser.add_argument("--rev", default="HEAD", help="revision to compare with (default HEAD)")
    parser.add_argument("--section", action="append", choices=SECTIONS, help="manifest section (default all)")
    args = parser.parse_args(argv)
    manifest = load_manifest()
    rows = [row for section in args.section or SECTIONS for row in manifest[section]]
    if args.check:
        return check(rows)
    result = report(rows, args.rev)
    sys.stdout.write(json.dumps(result, indent=1) + "\n")
    for name, entry in result["rows"].items():
        print(f"{name}: " + ("identical" if entry["identical"] else f"{entry['moved']} values moved"), file=sys.stderr)
    if args.record:
        digests = {name: entry["sha256"]["head"] for name, entry in result["rows"].items()}
        for row in (row for section in manifest.values() for row in section):
            if row["name"] in digests:
                row["sha256"] = digests[row["name"]]
        MANIFEST.write_text(format_manifest(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
