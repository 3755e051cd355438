"""The rule every config class applies to its integer fields."""

import numbers


def check_ints(obj, **lows):
    """Raise ValueError naming the first field of `obj` in `lows` that is not
    an integer (a `numbers.Integral` that is not a bool) at or above its
    minimum."""
    for name, low in lows.items():
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
