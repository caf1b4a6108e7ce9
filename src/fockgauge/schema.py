"""Field rules for the JSON objects the command line reads.

State specs, moment tables and sweep configs are all read through this module,
so every input obeys the same rules: an object carries exactly its required
fields plus any of its optional ones, numbers are finite, booleans are not
numbers, integers are non-negative, and a complex number is exactly
{"re": x, "im": y}.  Every violation raises a SchemaError naming the field.
"""

from __future__ import annotations

import numbers
import sys
from typing import Collection

from .errors import SchemaError


def check_fields(data, what: str, required: Collection[str], optional: Collection[str] = ()) -> None:
    """Require a JSON object with every `required` field and nothing else but `optional` ones."""
    if not isinstance(data, dict):
        raise SchemaError(f"{what} must be a JSON object")
    missing = set(required) - set(data)
    if missing:
        raise SchemaError(f"{what} is missing fields: {', '.join(sorted(missing))}")
    extra = set(data) - set(required) - set(optional)
    if extra:
        raise SchemaError(f"unknown {what} fields: {', '.join(sorted(extra))}")


def _finite(value, name: str) -> float:
    # the comparison is exact, so it also refuses integers beyond the float range
    finite = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
    if finite and not isinstance(value, bool):
        return float(value)
    raise SchemaError(f'field "{name}" must be a finite number')


def real(data: dict, field: str) -> float:
    """A finite number; booleans, NaN and infinities are rejected."""
    return _finite(data[field], field)


def integer(data: dict, field: str) -> int:
    """A non-negative integer; booleans are rejected."""
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise SchemaError(f'field "{field}" must be a non-negative integer')
    return int(value)


def complex_number(data: dict, field: str) -> complex:
    """An object {"re": x, "im": y} whose parts follow the rule of `real`."""
    value = data[field]
    if not isinstance(value, dict) or set(value) != {"re", "im"}:
        raise SchemaError(f'field "{field}" must be an object {{"re": x, "im": y}}')
    return complex(_finite(value["re"], f"{field}.re"), _finite(value["im"], f"{field}.im"))


def boolean(data: dict, field: str) -> bool:
    """`true` or `false`."""
    value = data[field]
    if not isinstance(value, bool):
        raise SchemaError(f'field "{field}" must be a boolean')
    return value
