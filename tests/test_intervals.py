import math
from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

from paclab.intervals import (canonicalize, clip, contains_many,
                              contains_point, intersect, total_length)


def bounded_floats():
    return st.floats(min_value=-100.0, max_value=100.0,
                     allow_nan=False, allow_infinity=False)


@st.composite
def interval_lists(draw, max_size=8):
    pairs = draw(st.lists(st.tuples(bounded_floats(), bounded_floats()),
                          max_size=max_size))
    return [(min(a, b), max(a, b)) for a, b in pairs]


def brute_membership(intervals, x):
    return any(lo <= x <= hi for lo, hi in intervals)


def test_canonicalize_merges_touching():
    assert canonicalize([(0.0, 1.0), (1.0, 2.0)]) == [(0.0, 2.0)]
    assert canonicalize([(3.0, 4.0), (0.0, 1.0)]) == [(0.0, 1.0), (3.0, 4.0)]
    assert canonicalize([(0.0, 2.0), (1.0, 1.5)]) == [(0.0, 2.0)]
    assert canonicalize([]) == []


@given(interval_lists())
def test_canonicalize_is_sorted_disjoint_and_idempotent(ivs):
    canon = canonicalize(ivs)
    for (lo, hi), (lo2, hi2) in zip(canon, canon[1:]):
        assert hi < lo2
    assert canonicalize(canon) == canon
    length = 0
    for lo, hi in ivs:
        length += hi - lo
    assert total_length(ivs) == length


@given(interval_lists(), bounded_floats())
def test_canonicalize_preserves_membership(ivs, x):
    assert contains_point(canonicalize(ivs), x) == brute_membership(ivs, x)
    assert contains_many(ivs, np.array([x]))[0] == brute_membership(ivs, x)


@given(interval_lists(), interval_lists(), bounded_floats())
def test_intersect_matches_pointwise_and(a, b, x):
    ca, cb = canonicalize(a), canonicalize(b)
    both = intersect(ca, cb)
    assert contains_point(both, x) == (
        contains_point(ca, x) and contains_point(cb, x))


@given(interval_lists(), interval_lists())
def test_intersect_is_commutative(a, b):
    ca, cb = canonicalize(a), canonicalize(b)
    assert canonicalize(intersect(ca, cb)) == canonicalize(intersect(cb, ca))


def test_intersect_length_bounds():
    a = canonicalize([(0.0, 1.0), (2.0, 3.0)])
    b = canonicalize([(0.5, 2.5)])
    both = intersect(a, b)
    assert math.isclose(total_length(both), 1.0)
    assert total_length(both) <= min(total_length(a), total_length(b))


def test_clip_window():
    ivs = [(0.0, 1.0), (2.0, 3.0)]
    assert clip(ivs, 0.5, 2.5) == [(0.5, 1.0), (2.0, 2.5)]
    assert clip(ivs, 4.0, 5.0) == []


def test_fraction_endpoints_stay_exact():
    ivs = canonicalize([(Fraction(0), Fraction(1, 3)),
                        (Fraction(1, 3), Fraction(1, 2))])
    assert ivs == [(Fraction(0), Fraction(1, 2))]
    assert total_length(ivs) == Fraction(1, 2)
    assert isinstance(total_length(ivs), Fraction)
