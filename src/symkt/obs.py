"""The fail-closed rule: a NaN or inf sample never passes a check.

Every check reduces its samples here.  A bare ``max`` drops a NaN that is
not first; ``worst`` and ``least`` return NaN, which fails both ``<= tol``
and ``>= tol``.  Lists reduce in Python, ndarrays in numpy.
"""

import math

import numpy as np

__all__ = ["worst", "least", "finite_or_nan"]


def worst(values, empty=None):
    """Largest value; NaN if any is not finite, ``empty`` if there is none."""
    if isinstance(values, np.ndarray):
        if not values.size:
            return empty
        return float(values.max()) if np.isfinite(values).all() else math.nan
    if not values:
        return empty
    return max(values) if all(map(math.isfinite, values)) else math.nan


def least(values):
    """Smallest value, for floor checks; NaN if any is not finite."""
    if isinstance(values, np.ndarray):
        return float(values.min()) if np.isfinite(values).all() else math.nan
    return min(values) if all(map(math.isfinite, values)) else math.nan


def finite_or_nan(a):
    """``a`` with NaN wherever an entry is not finite."""
    return np.where(np.isfinite(a), a, np.nan)
