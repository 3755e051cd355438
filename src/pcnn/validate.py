"""The rules every config class, and the store manifest, applies to its
numeric fields: an integer at or above a minimum, or a real number inside an
interval. A field is checked, never converted, and a bool is neither."""

import math
import numbers


def is_int(value):
    """An integer here is a `numbers.Integral` that is not a bool. A plain
    `int`, what JSON decodes to, is answered before the slower ABC check."""
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def is_int64(value):
    """An integer (`is_int`) that an int64 array can hold."""
    return is_int(value) and -2**63 <= value < 2**63


def is_real(value):
    """A real number here is a `numbers.Real` that is not a bool and whose
    float is finite: NaN, the infinities and 10**400 are not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float's range
        return False


def check_ints(obj, **lows):
    """Raise ValueError naming the first field of `obj` in `lows` that is not
    an integer (`is_int`) at or above its minimum that int64 holds
    (`is_int64`)."""
    for name, low in lows.items():
        value = getattr(obj, name)
        if not is_int(value) or value < low:
            raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if not is_int64(value):
            raise ValueError(f"{name} must be an integer that int64 holds, got {value!r}")


def check_reals(obj, **intervals):
    """Raise ValueError naming the first field of `obj` in `intervals` that is
    not a real number (`is_real`) inside its interval, written as "[0, 1)" or
    "(0, inf)"."""
    for name, interval in intervals.items():
        value = getattr(obj, name)
        low, high = (float(end) for end in interval[1:-1].split(","))
        if not (is_real(value)
                and (low <= value if interval[0] == "[" else low < value)
                and (value <= high if interval[-1] == "]" else value < high)):
            raise ValueError(f"{name} must be a real number in {interval}, got {value!r}")
