"""Closed-interval set algebra for the exact expectation and distance paths.

Interval lists are kept canonical: sorted, non-overlapping, merged at
touching endpoints.  Endpoints may be floats, ints or Fractions; all
operations but the vectorised membership test and count are pure
comparisons and additions, so exact endpoint types stay exact.

Set operations treat intervals as closed.  Results agree with true set
algebra up to finitely many boundary points, which carry zero mass under
every non-atomic measure used by the integrators.
"""

from __future__ import annotations

import numpy as np


def canonicalize(intervals):
    """Sort (lo, hi) pairs and merge overlaps/touches into a canonical list."""
    ivs = sorted((lo, hi) for lo, hi in intervals if hi >= lo)
    out: list[list] = []
    for lo, hi in ivs:
        if out and lo <= out[-1][1]:
            if hi > out[-1][1]:
                out[-1][1] = hi
        else:
            out.append([lo, hi])
    return [(lo, hi) for lo, hi in out]


def total_length(intervals):
    """Summed in list order: ``sum()`` compensates from Python 3.12."""
    total = 0
    for lo, hi in intervals:
        total += hi - lo
    return total


def clip(intervals, lo, hi):
    """Intersect a canonical list with the window [lo, hi]."""
    out = []
    for a, b in intervals:
        a2 = a if a > lo else lo
        b2 = b if b < hi else hi
        if a2 <= b2:
            out.append((a2, b2))
    return out


def intersect(a, b):
    """Intersection of two canonical lists (degenerate points kept)."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = a[i][0] if a[i][0] > b[j][0] else b[j][0]
        hi = a[i][1] if a[i][1] < b[j][1] else b[j][1]
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def contains_point(intervals, x):
    """Closed membership of x in a canonical list."""
    for lo, hi in intervals:
        if lo <= x <= hi:
            return True
        if lo > x:
            return False
    return False


def contains_many(intervals, xs):
    """Closed membership of every x in xs in a list of intervals, as a bool
    array; endpoints are compared as floats."""
    xs = np.asarray(xs, dtype=float)
    out = np.zeros(xs.shape, dtype=bool)
    for lo, hi in intervals:
        out |= (xs >= float(lo)) & (xs <= float(hi))
    return out


def count_sorted(los, his, xs):
    """How many points of the sorted array xs lie in each closed interval
    [los[i], his[i]]: the points <= hi less the points < lo.  A point in
    two overlapping intervals counts in both."""
    return (np.searchsorted(xs, his, side="right")
            - np.searchsorted(xs, los, side="left"))
