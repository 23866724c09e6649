"""Weight-arc sets: the test oracle for the witness sweep.

``feasible_weights`` gives, for one point and label, the weights whose
network output matches; intersecting them over the points gives every
feasible weight, which ``tests/test_sontag.py`` compares with
``shatter_search``.
"""

from __future__ import annotations

from dataclasses import dataclass

from paclab import intervals as closed
from paclab.sontag import cos_sign_intervals


def _half_open(intervals):
    # A closed [lo, lo] is a point; as a half-open arc it is empty.
    return tuple((lo, hi) for lo, hi in intervals if lo < hi)


@dataclass(frozen=True)
class ArcSet:
    """A finite union of half-open weight intervals [lo, hi) within [0, w_max].

    Canonical: sorted, disjoint, touching arcs merged.  Built on the
    interval algebra of ``intervals.py``; complementation within
    [0, w_max) is an involution.
    """

    intervals: tuple
    w_max: float

    @classmethod
    def from_arcs(cls, arcs, w_max):
        w_max = float(w_max)
        merged = closed.canonicalize((float(lo), float(hi)) for lo, hi in arcs)
        return cls(_half_open(closed.clip(merged, 0.0, w_max)), w_max)

    def __post_init__(self):
        prev_hi = None
        for lo, hi in self.intervals:
            if not (0.0 <= lo < hi <= self.w_max):
                raise ValueError(f"arc ({lo}, {hi}) outside [0, {self.w_max}]")
            if prev_hi is not None and lo <= prev_hi:
                raise ValueError("arcs must be sorted and disjoint")
            prev_hi = hi

    @property
    def is_empty(self):
        return not self.intervals

    def total_length(self):
        return closed.total_length(self.intervals)

    def contains(self, w):
        return any(lo <= w < hi for lo, hi in self.intervals)

    def complement(self):
        arcs = []
        cursor = 0.0
        for lo, hi in self.intervals:
            if lo > cursor:
                arcs.append((cursor, lo))
            cursor = hi
        if cursor < self.w_max:
            arcs.append((cursor, self.w_max))
        return ArcSet(tuple(arcs), self.w_max)

    def intersect(self, other):
        if self.w_max != other.w_max:
            raise ValueError("arc sets live on different weight ranges")
        both = closed.intersect(self.intervals, other.intervals)
        return ArcSet(_half_open(both), self.w_max)


def feasible_weights(x, label, w_max):
    """Weights w in [0, w_max) whose network output at x equals the label.

    For label 1 these are the arcs where cos(wx) >= 0, which is symmetric in
    w and x, so ``cos_sign_intervals`` gives them; for label 0, their
    complement.  x == 0 forces label 1, so (x=0, label=0) yields the empty
    arc set rather than an exception.
    """
    w_max = float(w_max)
    if w_max <= 0:
        raise ValueError("w_max must be positive")
    if label not in (0, 1):
        raise ValueError("label must be 0 or 1")
    ones = ArcSet.from_arcs(cos_sign_intervals(abs(float(x)), 0.0, w_max), w_max)
    return ones if label == 1 else ones.complement()
