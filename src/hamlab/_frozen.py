"""The one storage rule of hamlab's value types.

Every array field is a private copy of the caller's data, holds only
finite entries and is read-only, so a value type never aliases, freezes or
silently carries a NaN of its caller.  Every real scalar field is a finite
``float``.
"""

import math

import numpy as np


def freeze(obj, name, value, dtype=float):
    """Store a finite, read-only copy of ``value`` as ``obj.<name>``."""
    a = np.array(value, dtype=dtype)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} entries must be finite")
    a.setflags(write=False)
    object.__setattr__(obj, name, a)
    return a


def finite(obj, name, value):
    """Store ``value`` as the finite float ``obj.<name>``."""
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite")
    object.__setattr__(obj, name, x)
    return x
