"""Field rules for the JSON objects the command line reads.

State specs, moment tables and sweep configs are all read through this module,
so every input obeys the same rules: an object carries exactly its required
fields plus any of its optional ones, numbers are finite (and, where a reader
sets a limit, bounded in magnitude), booleans are not
numbers, integers are non-negative, and a complex number is exactly
{"re": x, "im": y}.  Every violation raises a SchemaError naming the field.
"""

from __future__ import annotations

import numbers
import sys
from typing import Collection

from .errors import SchemaError

# A Python float square that overflows raises instead of giving infinity; neither a
# number below this magnitude nor the modulus of a complex one with such parts gets there.
SQUARE_LIMIT = 2.0**500


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


def _finite(value, name: str, limit: float) -> float:
    # the comparison is exact, so it also refuses integers beyond the float range
    finite = isinstance(value, numbers.Real) and abs(value) <= limit
    if finite and not isinstance(value, bool):
        return float(value)
    bound = "" if limit == sys.float_info.max else f" of magnitude at most {limit:.4g}"
    raise SchemaError(f'field "{name}" must be a finite number{bound}')


def real(data: dict, field: str, limit: float = sys.float_info.max) -> float:
    """A finite number of magnitude at most `limit`; booleans, NaN and infinities are rejected."""
    return _finite(data[field], field, limit)


def integer(data: dict, field: str) -> int:
    """A non-negative integer; booleans are rejected."""
    value = data[field]
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise SchemaError(f'field "{field}" must be a non-negative integer')
    return int(value)


def complex_number(data: dict, field: str, limit: float = sys.float_info.max) -> complex:
    """An object {"re": x, "im": y} whose parts follow the rule of `real`."""
    value = data[field]
    if not isinstance(value, dict) or set(value) != {"re", "im"}:
        raise SchemaError(f'field "{field}" must be an object {{"re": x, "im": y}}')
    return complex(
        _finite(value["re"], f"{field}.re", limit), _finite(value["im"], f"{field}.im", limit)
    )


def boolean(data: dict, field: str) -> bool:
    """`true` or `false`."""
    value = data[field]
    if not isinstance(value, bool):
        raise SchemaError(f'field "{field}" must be a boolean')
    return value
