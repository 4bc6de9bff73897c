"""Config fields declared once: each field's unit suffix and bounds, and the check that reads them.

A config dataclass declares a field with ``param``. The field's config key is
its name plus the unit suffix (``_fs``, ``_hz``, ``_m``, ``_rad``), and its
bounds are named by the comparison that must hold (``ge``, ``gt``, ``le``,
``lt``). scenario builds each leaf section of the scenario schema from the
same declarations that ``check_fields`` enforces on every construction. A
float field must also be finite: JSON parsing takes ``NaN`` and
``Infinity``, and NaN passes every schema bound.
"""

from __future__ import annotations

import dataclasses
import math
import operator

__all__ = ["ConfigError"]


class ConfigError(ValueError):
    """Config rejected; the message names the failing key or schema path."""


def param(default=dataclasses.MISSING, *, unit: str = "", **bounds):
    """A config field whose key is its name plus unit; bounds ge, gt, le and lt limit its value."""
    return dataclasses.field(default=default, metadata={"unit": unit, "bounds": bounds})


def config_key(field: dataclasses.Field) -> str:
    return field.name + field.metadata.get("unit", "")


def _text(bound) -> str:
    return f"{bound:.6g}" if isinstance(bound, float) else str(bound)


def _interval(bounds: dict) -> str:
    low, high = bounds.get("ge", bounds.get("gt", -math.inf)), bounds.get("le", bounds.get("lt", math.inf))
    return f"{'[' if 'ge' in bounds else '('}{_text(low)}, {_text(high)}{']' if 'le' in bounds else ')'}"


def finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def bounds_error(key: str, bounds: dict, value) -> ConfigError:
    """The error for value at key outside bounds, or not finite."""
    return ConfigError(f"{key} must be in {_interval(bounds)}, got {value}")


def check_fields(obj) -> None:
    """Raise ConfigError, naming the key and its bounds, on the first field of obj outside them.

    A float field must be finite too, so its unbounded side reads as an open
    (-inf, inf). Each bound is tested as a comparison that must hold, so NaN
    fails every bound.
    """
    for f in dataclasses.fields(obj):
        value, bounds = getattr(obj, f.name), f.metadata.get("bounds", {})
        if value is None and f.type == "int | None":
            continue
        if (f.type == "float" and not finite(value)) or not all(
            getattr(operator, op)(value, bound) for op, bound in bounds.items()
        ):
            raise bounds_error(config_key(f), bounds, value)
