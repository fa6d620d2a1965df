"""The storage rule every value type shares: each array field is a private,
read-only copy of the caller's data with only finite entries, and each real
scalar field is a finite float."""

import numpy as np
import pytest

from hamlab.canonical import CanonicalState
from hamlab.kdv import LinePotential, PeriodicField
from hamlab.line import LineField, line_grid


def _bump(x, width):
    return np.exp(-((x / width) ** 2))


# type -> (array arguments, other arguments): a valid instance whose array
# arguments are fresh, writable arrays owned by the test
VALUE_TYPES = {
    CanonicalState: lambda: ({"q": np.array([1.0, 2.0]), "p": np.array([0.5, -0.5])}, {"t": 0.0}),
    PeriodicField: lambda: ({"u": _bump(np.arange(8) - 4.0, 1.0)}, {"L_domain": 8.0}),
    LinePotential: lambda: ({}, {"fn": lambda x: -_bump(x, 2.0), "x_left": -20.0, "x_right": 20.0}),
    LineField: lambda: (
        {"u": _bump(line_grid(2.0, 0.5), 0.3), "v": -_bump(line_grid(2.0, 0.5), 0.3)},
        {"h": 0.5, "t": 0.0},
    ),
}

ARRAY_FIELDS = [(cls, name) for cls, make in VALUE_TYPES.items() for name in make()[0]]

SCALAR_FIELDS = [
    (CanonicalState, "t"),
    (PeriodicField, "L_domain"),
    (PeriodicField, "t"),
    (LinePotential, "x_left"),
    (LinePotential, "x_right"),
    (LineField, "h"),
    (LineField, "t"),
]


def _id(value):
    return value.__name__ if isinstance(value, type) else str(value)


@pytest.mark.parametrize("cls", list(VALUE_TYPES), ids=_id)
def test_caller_arrays_stay_writable_and_unaliased(cls):
    arrays, other = VALUE_TYPES[cls]()
    obj = cls(**arrays, **other)
    for name, given in arrays.items():
        assert given.flags.writeable, name
        stored = np.array(getattr(obj, name))
        given.flat[0] += 1.0
        assert np.array_equal(getattr(obj, name), stored), name


@pytest.mark.parametrize("cls", list(VALUE_TYPES), ids=_id)
def test_stored_arrays_are_read_only(cls):
    arrays, other = VALUE_TYPES[cls]()
    obj = cls(**arrays, **other)
    for name in arrays:
        stored = getattr(obj, name)
        assert isinstance(stored, np.ndarray), name
        with pytest.raises(ValueError):
            stored.flat[0] = 0.0


@pytest.mark.parametrize("cls, name", ARRAY_FIELDS, ids=_id)
def test_nan_entry_rejected(cls, name):
    arrays, other = VALUE_TYPES[cls]()
    bad = arrays[name]
    bad.flat[bad.size // 2] = np.nan
    with pytest.raises(ValueError):
        cls(**arrays, **other)


@pytest.mark.parametrize("cls, name", SCALAR_FIELDS, ids=_id)
def test_nan_scalar_rejected(cls, name):
    arrays, other = VALUE_TYPES[cls]()
    other[name] = np.nan
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        cls(**arrays, **other)


@pytest.mark.parametrize("cls, name", SCALAR_FIELDS, ids=_id)
def test_scalar_stored_as_float(cls, name):
    arrays, other = VALUE_TYPES[cls]()
    other[name] = np.float32(other.get(name, 1.0))
    assert type(getattr(cls(**arrays, **other), name)) is float
