import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bregmanprox.extreal import Interval


def test_interval_contains():
    iv = Interval(0.0, 1.0, True, False)
    assert iv.contains(0.0)
    assert not iv.contains(1.0)
    assert iv.contains(0.5)
    assert iv.interior_contains(0.5)
    assert not iv.interior_contains(0.0)
    assert iv.interior() == Interval(0.0, 1.0, False, False)


def test_nan_lies_in_no_interval():
    for iv in (Interval(-1.0, 1.0), Interval.reals()):
        assert iv.contains(math.nan) is False
        assert iv.interior_contains(math.nan) is False


ends = st.floats(allow_nan=False, min_value=-1e3, max_value=1e3)


@st.composite
def intervals(draw):
    lo, hi = sorted((draw(ends | st.just(-math.inf)), draw(ends | st.just(math.inf))))
    return Interval(lo, hi, draw(st.booleans()), draw(st.booleans()))


@given(intervals() | st.just(Interval.empty()), st.data(), st.just(0.0) | st.floats(0.0, 10.0))
def test_interval_array_membership_equals_float_membership(iv, data, margin):
    special = st.sampled_from([iv.lo, iv.hi, math.inf, -math.inf, math.nan])
    pts = data.draw(st.lists(special | st.floats(), min_size=1, max_size=20))
    xs = np.array(pts)
    for test, args in ((iv.contains, ()), (iv.interior_contains, (margin,)),
                           (iv.interior().contains, ())):
        scalar = [test(p, *args) for p in pts]
        assert all(type(b) is bool for b in scalar)
        assert test(xs, *args).tolist() == scalar
    assert iv.interior_contains(xs).tolist() == iv.interior().contains(xs).tolist()


def test_interval_infinite_sides_forced_open():
    iv = Interval(-math.inf, 2.0, True, True)
    assert not iv.lo_closed
    assert iv.hi_closed
    assert iv.contains(2.0)
    assert not iv.contains(math.inf)


def test_out_of_order_ends_rejected():
    with pytest.raises(ValueError, match="out of order"):
        Interval(1.0, 0.0)
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan), (math.nan, math.inf)):
        with pytest.raises(ValueError):
            Interval(lo, hi)


def test_the_empty_interval_holds_no_point():
    empty = Interval.empty()
    assert empty.is_empty and not Interval(0.0, 0.0).is_empty
    assert not Interval.reals().is_empty
    assert math.isnan(empty.lo) and math.isnan(empty.hi)
    assert not empty.lo_closed and not empty.hi_closed
    assert Interval(math.nan, math.nan, True, True) == empty
    assert empty.interior().is_empty and not empty.is_all_reals
    xs = np.array([-math.inf, -1.0, 0.0, 1.0, math.inf, math.nan])
    for x in xs.tolist():
        assert empty.contains(x) is False
        assert empty.interior_contains(x) is False
        assert empty.interior_contains(x, 0.5) is False
    assert not empty.contains(xs).any() and not empty.interior_contains(xs).any()
