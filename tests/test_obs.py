"""The fail-closed reductions of ``symkt.obs``, on lists and on arrays.

A check passes when its worst sample is ``<= tol`` (residuals) or its least
sample is ``>= tol`` (floors).  One NaN or inf sample must fail both, so
``worst`` and ``least`` return NaN for it wherever it sits.
"""

import math

import numpy as np
import pytest

from symkt.obs import finite_or_nan, least, worst

FINITE = [0.5, 2.0, 1.0]


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
def test_finite_samples_reduce_to_their_max_and_min(as_array):
    vals = np.array(FINITE) if as_array else list(FINITE)
    assert worst(vals) == 2.0 and type(worst(vals)) is float
    assert least(vals) == 0.5 and type(least(vals)) is float


@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_one_non_finite_sample_fails_both_reductions(bad, at, as_array):
    vals = list(FINITE)
    vals[at] = bad
    vals = np.array(vals) if as_array else vals
    assert math.isnan(worst(vals))
    assert math.isnan(least(vals))
    assert math.isnan(worst(vals, empty=0.0))


def test_bare_max_and_min_pass_non_finite_samples():
    # max compares against the first element: a later NaN is dropped
    vals = [0.0, math.nan]
    assert max(vals) == 0.0
    assert math.isnan(worst(vals))
    # and an inf floor passes ``>= tol``
    assert min([math.inf]) >= 1e-3
    assert not least([math.inf]) >= 1e-3


def test_empty_samples():
    assert worst([]) is None
    assert worst([], 0.0) == 0.0
    assert worst(np.array([]), 0.0) == 0.0
    with pytest.raises(ValueError):
        least([])
    with pytest.raises(ValueError):
        least(np.array([]))


def test_arrays_reduce_over_every_axis():
    a = np.arange(6.0).reshape(2, 3)
    assert worst(a) == 5.0 and least(a) == 0.0
    a[1, 0] = math.nan
    assert math.isnan(worst(a)) and math.isnan(least(a))


def test_finite_or_nan_entry_by_entry():
    a = np.array([1.5, math.nan, math.inf, -math.inf, -0.0, 1e308, -2.0])
    want = np.array([1.5, math.nan, math.nan, math.nan, -0.0, 1e308, -2.0])
    assert finite_or_nan(a).tobytes() == want.tobytes()
    assert math.isnan(finite_or_nan(math.inf)) and finite_or_nan(3.0) == 3.0
    grid = np.array([[1.0, math.inf], [math.nan, 2.0]])
    assert np.array_equal(finite_or_nan(grid), [[1.0, math.nan], [math.nan, 2.0]],
                          equal_nan=True)
