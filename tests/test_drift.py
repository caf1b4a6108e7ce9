"""The check and drift report of tests/drift.py on hand-made outputs, and its manifest writer."""

import hashlib
import json
import math
from decimal import Decimal

import numpy as np
import pytest

from fockgauge.cli import run
from drift import (
    EXACT_FIELDS,
    MANIFEST,
    ROOT,
    check,
    compare_field,
    drift,
    exact_errors,
    field_values,
    format_manifest,
    load_manifest,
    main,
)

ONE_UP = math.nextafter(1.0, 2.0)


def test_json_fields_are_key_paths_with_every_number_a_float():
    text = '{"a": 1, "b": {"c": [-0, 2.5e-3], "d": true}, "e": [{"f": null}, {"f": "x"}], "g": []}'
    fields = field_values(text)
    assert fields == {"a": [1.0], "b.c.*": [-0.0, 2.5e-3], "b.d": [True], "e.*.f": [None, "x"]}
    assert math.copysign(1.0, fields["b.c.*"][0]) == -1.0


def test_csv_fields_are_columns():
    fields = field_values("x,y\n1,-0\n2.5,3e-300\n")
    assert list(fields) == ["x", "y"]
    assert fields["x"].tolist() == [1.0, 2.5]
    assert fields["y"].tolist() == [-0.0, 3e-300] and np.signbit(fields["y"][0])


def test_json_drift_counts_moved_values_and_their_largest_changes():
    base = field_values(json.dumps({"a": 1.0, "b": [1.0, 2.0, 4.0], "c": True, "d": "same", "e": 0.0}))
    head = field_values(
        json.dumps({"a": ONE_UP, "b": [1.0, 4.0, 4.0 * (1 + 2**-50)], "c": False, "d": "same", "e": -0.0})
    )
    report = drift(base, head)
    assert report["a"] == {"values": 1, "moved": 1, "max_rel": ONE_UP - 1.0, "max_ulp": 1}
    # 2 -> 4 moves by half of 4 and by the 2^52 floats in [2, 4); 4 -> 4 (1 + 2^-50) by 4 floats
    assert report["b.*"] == {"values": 3, "moved": 2, "max_rel": 0.5, "max_ulp": 2**52}
    assert report["c"] == {"values": 1, "moved": 1, "max_rel": 0.0, "max_ulp": 0}
    assert report["d"]["moved"] == 0
    # a sign of zero counts as moved, by no float between
    assert report["e"] == {"values": 1, "moved": 1, "max_rel": 0.0, "max_ulp": 0}


def test_ulp_change_counts_floats_across_zero_and_relative_change_stays_finite():
    report = compare_field([-5e-324, -1.7976931348623157e308], [5e-324, 1.7976931348623157e308])
    assert report["moved"] == 2
    assert report["max_rel"] == 2.0
    assert report["max_ulp"] == 2 * 0x7FEF_FFFF_FFFF_FFFF


def test_csv_drift_by_column_and_fields_on_one_side_only():
    base = field_values("x,y\n1,2\n3,4\n")
    head = field_values("x,z\n1,2\n3,4.0000000000000009\n")
    report = drift(base, head)
    assert report["x"]["moved"] == 0
    assert report["y"] == {"values": 2, "moved": 2, "max_rel": 0.0, "max_ulp": 0}
    assert report["z"] == {"values": 2, "moved": 2, "max_rel": 0.0, "max_ulp": 0}
    assert compare_field([1.0, 2.0], [1.0, 2.0, 3.0]) == {"values": 3, "moved": 1, "max_rel": 0.0, "max_ulp": 0}


def test_exact_errors_hold_each_value_to_its_exact_key_in_output_order():
    fields = field_values(
        json.dumps(
            {"tight": {"bound_scan": 2.0}, "g1": None, "g2": 2.0**-60, "canonical_pair": [{"lhs": 1.0}, {"lhs": 3.0}]}
        )
    )
    exact = {
        "bound": Decimal(2.0 + 3 * math.ulp(2.0)),
        "g2": Decimal(0),
        "canonical_pair_x.lhs": Decimal(1),
        "canonical_pair_p.lhs": Decimal(math.nextafter(3.0, 0.0)),
    }
    errors = exact_errors(fields, exact, EXACT_FIELDS["gauge"])
    # the ULP is of max(1, |exact|): 2^-51 at 2 and 3, 2^-52 at 0; the null G1 is skipped
    assert errors == {"tight.bound_scan": 3.0, "g2": 2.0**-8, "canonical_pair.*.lhs": 1.0}


@pytest.mark.parametrize("command", EXACT_FIELDS)
def test_every_exact_field_is_printed_once_per_exact_key(capsys, command):
    assert run([command, "--spec", '{"kind":"coherent","alpha":{"re":1.3,"im":-0.4}}']) == 0
    fields = field_values(capsys.readouterr().out)
    assert {name: len(fields[name]) for name in EXACT_FIELDS[command]} == {
        name: len(keys) for name, keys in EXACT_FIELDS[command].items()
    }


def test_manifest_writer_gives_the_committed_text():
    assert format_manifest(load_manifest()) == MANIFEST.read_text()


# a stand-in for the CLI, so that the check's tests run a bare interpreter: it prints the
# value of its first argument, a Python expression, writes its second to stderr and exits
# with its third
STUB = "import os, sys; print(eval(sys.argv[1]), end=''); sys.stderr.write(sys.argv[2]); sys.exit(int(sys.argv[3]))"


def _row(name, expression, err="", code=0, pinned=None, **pins):
    # pinned to the stdout of `expression`, unless another is given
    digest = hashlib.sha256((eval(expression) if pinned is None else pinned).encode()).hexdigest()
    return {"name": name, "argv": [expression, err, str(code)], **pins, "sha256": digest}


@pytest.fixture
def stub(monkeypatch):
    monkeypatch.setattr("drift.CLI", ("-c", STUB))


def test_check_passes_rows_that_keep_their_pins(stub, capsys):
    rows = [
        _row("json", "'{\"a\": [1.5, null]}'"),
        _row("csv", "'x,y\\n1,2\\n'"),
        _row("schema error", "''", "input error: bad config\n", 2, exit=2, stderr="bad config"),
    ]
    assert check(rows) == 0
    assert capsys.readouterr().out.splitlines() == [
        "json: exit 0, sha256 as pinned",
        "csv: exit 0, sha256 as pinned",
        "schema error: exit 2, sha256 as pinned",
    ]


def test_check_runs_each_row_from_the_root_with_its_environment_and_numpy_warnings_as_errors(stub):
    expression = "os.getcwd() + os.environ['PYTHONWARNINGS'] + os.environ['EXTRA']"
    pinned = str(ROOT) + "error::RuntimeWarning" + "added"
    assert check([_row("env", expression, pinned=pinned, env={"EXTRA": "added"})]) == 0


# rows that break one pin each, and the fault the check names
FAILING = [
    (_row("exit", "''", code=1, exit=2), "exit 1, pinned 2"),
    (_row("stderr", "''", "input error: other\n", 2, exit=2, stderr="bad config"), "stderr lacks 'bad config'"),
    (_row("digest", "'{\"a\": 1}'", pinned='{"a": 2}'), "sha256 "),
    (_row("nan", "'{\"a\": NaN}'"), "stdout is not strict JSON"),
    (_row("traceback", "''", "Traceback (most recent call last):\n", 1, exit=1), "traceback on stderr"),
    # a new row, its digest not yet recorded
    ({"name": "no digest", "argv": ["'{}'", "", "0"]}, "sha256 "),
]


@pytest.mark.parametrize("bad,fault", FAILING, ids=[bad["name"] for bad, _ in FAILING])
def test_check_names_a_failing_row_and_checks_the_rest(stub, capsys, bad, fault):
    good = _row("good", "'{}'")
    assert check([good, bad, good]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == lines[2] == "good: exit 0, sha256 as pinned"
    # the one fault of the bad row, and no other
    assert lines[1].startswith(f"{bad['name']}: {fault}") and "; " not in lines[1]
    assert captured.err == f"rows failed: [{bad['name']!r}]\n"


@pytest.mark.skipif(not (ROOT / ".git").exists(), reason="the report checks out a git revision")
def test_record_fills_in_the_digest_of_a_row_that_has_none(stub, monkeypatch, tmp_path, capsys):
    kept = _row("kept", "'{}'")
    new = {"name": "new", "argv": ["'x,y\\n1,2\\n'", "", "0"]}
    manifest = tmp_path / "pins.json"
    manifest.write_text(format_manifest({"tier1": [kept, new], "ci": []}))
    monkeypatch.setattr("drift.MANIFEST", manifest)
    assert main(["--record", "--section", "tier1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["rows"]["new"]["sha256"]["pinned"] == ""
    digest = hashlib.sha256(b"x,y\n1,2\n").hexdigest()
    assert load_manifest() == {"tier1": [kept, {**new, "sha256": digest}], "ci": []}
