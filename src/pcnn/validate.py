"""The rule every config class, and the store manifest, applies to its
integer fields."""

import numbers


def is_int(value):
    """An integer here is a `numbers.Integral` that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_ints(obj, **lows):
    """Raise ValueError naming the first field of `obj` in `lows` that is not
    an integer (`is_int`) at or above its minimum."""
    for name, low in lows.items():
        value = getattr(obj, name)
        if not is_int(value) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
