"""One type rule per dataclass field, and the JSON readers that rely on it.

The configs, the skeleton and the camera call ``check_fields(self,
type_rules(self), error)`` first where they are built, in code or by
:func:`fields_from_json`, so no value rule sees a wrong type.  This
module imports nothing from the package, so every module may use it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, fields

import numpy as np

# numbers.* admits numpy scalars; the built-in types first are the fast path.
_TYPES = {"int": (int, numbers.Integral), "float": (float, int, numbers.Real), "str": str}


def fits(value, annotation: str) -> bool:
    """Whether ``value`` fits the annotation ``int``, ``float`` (an int fits
    too), ``str``, ``tuple[...]`` (a tuple alone) or ``X | None``."""
    if annotation in _TYPES:  # JSON true/false parse as bool, which Python also counts as an int
        return isinstance(value, _TYPES[annotation]) and not isinstance(value, bool)
    if annotation.endswith(" | None"):
        return value is None or fits(value, annotation[: -len(" | None")])
    parts = annotation[len("tuple[") : -1].split(", ")  # the one form left
    if not isinstance(value, tuple):
        return False
    if parts[-1] == "...":
        return all(fits(v, parts[0]) for v in value)
    return len(value) == len(parts) and all(map(fits, value, parts))


def finite(value) -> bool:
    """Whether a number, or each of a tuple, is finite (None is, an int beyond float range is not)."""
    try:
        return all(map(math.isfinite, value)) if isinstance(value, tuple) else value is None or math.isfinite(value)
    except OverflowError:
        return False


def check_fields(obj, rules, error: type[ValueError] = ValueError) -> None:
    """Raise ``error("<field> must be <need>, got <obj.field>")`` for the first
    ``(field, ok, need)`` in ``rules`` whose ``ok`` is false.  Comparisons
    with NaN are false, so a range rule also rejects NaN."""
    for name, ok, need in rules:
        if not ok:
            raise error(f"{name} must be {need}, got {getattr(obj, name)!r}")


def type_rules(obj) -> list[tuple[str, bool, str]]:
    """A :func:`check_fields` rule per field of dataclass ``obj``: :func:`fits`."""
    return [(f.name, fits(getattr(obj, f.name), f.type), f.type) for f in fields(obj)]


def fields_from_json(cls, values, error: type[ValueError] = ValueError, defaults: bool = False):
    """``cls(**values)`` for dataclass ``cls`` from parsed JSON holding every
    field, or with ``defaults`` any over ``cls()``'s; write one back with
    ``dataclasses.asdict``.  Raise ``error`` naming a non-object's type or
    unknown or missing fields; ``cls`` checks each value itself.  A JSON
    list becomes a tuple for a tuple field."""
    if not isinstance(values, dict):
        raise error(f"expected a JSON object of {cls.__name__} fields, got {type(values).__name__}")
    if defaults:
        values = {**asdict(cls()), **values}
    names = {f.name for f in fields(cls)}
    unknown, missing = sorted(set(values) - names), sorted(names - set(values))
    if unknown:
        raise error(f"unknown config fields: {unknown}")
    if missing:
        raise error(f"missing config fields: {missing}")
    tuples = {f.name for f in fields(cls) if f.type.startswith("tuple[")}
    return cls(**{name: tuple(v) if name in tuples and isinstance(v, list) else v for name, v in values.items()})


def numbers_from_json(name: str, value, null_ok: bool = False) -> np.ndarray:
    """A JSON array of numbers (nested lists; exact types, so no bool) as
    float64.  Any other element, or an integer beyond float range, raises
    ValueError naming the field; where ``null_ok``, a null reads as NaN."""
    allowed = (int, float, type(None)) if null_ok else (int, float)
    stack = [value]
    while stack:
        v = stack.pop()
        if type(v) is list:
            stack.extend(v)
        elif type(v) not in allowed:
            raise ValueError(f"field {name!r} must hold numbers{' or null' if null_ok else ''}, got {v!r}")
    try:
        return np.array(value, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"field {name!r} holds an integer beyond float range") from None
