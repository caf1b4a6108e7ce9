"""The drift report of tests/drift.py on hand-made outputs, and its manifest writer."""

import json
import math
from decimal import Decimal

import numpy as np
import pytest

from fockgauge.cli import run
from drift import (
    EXACT_FIELDS,
    MANIFEST,
    compare_field,
    drift,
    exact_errors,
    field_values,
    format_manifest,
    load_manifest,
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
