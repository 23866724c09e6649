"""Concept classes as first-class values.

A concept is a membership predicate over real inputs plus a structured
descriptor.  Every concept provides ``contains``, ``contains_many`` and
``as_intervals_ae`` (closed intervals equal to it almost everywhere under
the non-atomic measures); the closed-form share of a window,
``uniform_mass``, is the one optional method.  Families: sign-test
concepts of the sigmoidal network (one per weight), unions of closed
intervals (including grid-cell unions of a given order) and per-atom
labelings of an atomic measure.  Concepts are read from JSON by
``concept_from_json``; a grid union, which ``cantor.json`` reports as a
witness, is the one written back.

Concept equality is structural (descriptor equality), never measure-a.e.
equality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

import numpy as np

from . import sontag
from .intervals import (canonicalize, contains_many, contains_point, intersect,
                        total_length)
from .measures import (AtomicMeasure, CantorMeasure, EnumerationCapError,
                       Field, cantor_interval_mass, cantor_level_intervals,
                       check_cap, expect_indicator, read_kind,
                       window_intervals)

ENUMERATION_CAP = 10 ** 7
MAX_SHATTER_LEVEL = 4
MAX_SHATTER_ORDER = 10 ** 4
# The most grid cells a ``cantor`` run may span, each search counting its
# order plus 64 for its fixed cost: 10 s and 512 MB at the edge (README).
MAX_CANTOR_CELLS = 5 * 10 ** 6


@dataclass(frozen=True)
class SontagConcept:
    """The output-1 region of the network at weight w: {x : cos(wx) >= 0}."""

    w: float

    def __post_init__(self):
        sontag.SontagParams(self.w)

    def contains(self, x):
        return bool(sontag.output_labels(x, self.w))

    def contains_many(self, xs):
        return sontag.output_labels(xs, self.w)

    def as_intervals_ae(self, lo, hi):
        return sontag.cos_sign_intervals(self.w, lo, hi)

    def uniform_mass(self, lo, hi):
        return sontag.cos_sign_fraction(self.w, lo, hi)


@dataclass(frozen=True)
class IntervalUnion:
    """A union of closed intervals, sorted with non-overlapping interiors.

    Touching endpoints are allowed and not merged, so grid structure
    survives; the set semantics are unaffected.  Fraction endpoints are kept
    exact, which matters under the singular ternary measure.
    """

    intervals: tuple

    def __post_init__(self):
        ivs = tuple((lo if isinstance(lo, Fraction) else float(lo),
                     hi if isinstance(hi, Fraction) else float(hi))
                    for lo, hi in self.intervals)
        for lo, hi in ivs:
            if hi < lo:
                raise ValueError(f"empty interval ({lo}, {hi})")
        for (_, hi), (lo2, _) in zip(ivs, ivs[1:]):
            if lo2 < hi:
                raise ValueError("intervals must be sorted with disjoint interiors")
        object.__setattr__(self, "intervals", ivs)

    def contains(self, x):
        return contains_point(self.intervals, x)

    def contains_many(self, xs):
        return contains_many(self.intervals, xs)

    def as_intervals_ae(self, lo, hi):
        return self.intervals


@dataclass(frozen=True)
class GridUnion(IntervalUnion):
    """A union of grid cells [i/order, (i+1)/order] named by their indices;
    its intervals follow from the cells, so equality reads order and cells."""

    order: int
    cells: tuple
    intervals: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        cells = tuple(sorted(int(c) for c in self.cells))
        if len(set(cells)) != len(cells):
            raise ValueError("cells must be distinct")
        if cells and not (0 <= cells[0] and cells[-1] < self.order):
            raise ValueError("cells must lie in [0, order)")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "intervals", tuple(
            (c / self.order, (c + 1) / self.order) for c in cells))

    def to_json(self):
        return {"kind": "intervals", "order": self.order,
                "cells": list(self.cells),
                "intervals": [list(iv) for iv in self.intervals]}


@dataclass(frozen=True)
class AtomLabeling:
    """A bit per atom of a referenced atomic measure, at distinct locations,
    plus an off-atom default."""

    locations: tuple
    bits: tuple
    default_bit: int = 0
    _index: dict = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        locations = tuple(float(x) for x in self.locations)
        bits = tuple(int(b) for b in self.bits)
        if len(locations) != len(bits):
            raise ValueError("one bit per atom location is required")
        if any(b not in (0, 1) for b in bits) or self.default_bit not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        index = dict(zip(locations, bits))
        if len(index) < len(locations):
            raise ValueError("atom locations must be pairwise distinct")
        object.__setattr__(self, "locations", locations)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "_index", index)

    @classmethod
    def for_measure(cls, measure, bits, default_bit=0):
        return cls(tuple(measure.locations.tolist()), tuple(bits), default_bit)

    def contains(self, x):
        return bool(self._index.get(x, self.default_bit))

    def contains_many(self, xs):
        xs = np.asarray(xs, dtype=float)
        locations = np.array(self.locations, dtype=float)
        ones = locations[np.array(self.bits, dtype=bool)]
        off_atoms = ~np.isin(xs, locations)  # where the default bit holds
        return np.isin(xs, ones) | (off_atoms & bool(self.default_bit))

    def as_intervals_ae(self, lo, hi):
        # Under a non-atomic measure the labeling is a.e. the default bit.
        return [(lo, hi)] if self.default_bit else []


def _uniform_mixed_distance(sign, other, pieces, measure):
    # m(sign) + m(other) - 2 m(both), added as the two halves of the
    # symmetric difference; m(both) is the closed-form share of each piece
    # of ``other`` times the piece's share of the window.
    width = measure.b - measure.a
    both = math.fsum(sign.uniform_mass(a, b) * ((b - a) / width)
                     for a, b in pieces if b > a)
    return ((expect_indicator(measure, sign) - both)
            + (expect_indicator(measure, other) - both))


def l1_distance(c1, c2, measure):
    """L1(mu) distance between two concepts: the mass of their symmetric
    difference.

    Exact on atomic measures, and exact interval/arc arithmetic on the
    concepts' interval forms under the ternary and uniform measures.  Under
    the uniform measure a sign-test concept against a concept of another
    kind is measured in closed form from the other's interval form alone,
    so the distance agrees with ``expect_indicator`` of either and builds
    no arc of the sign test.
    """
    if isinstance(measure, AtomicMeasure):
        first, second = measure.membership_matrix((c1, c2))
        return measure.mass(first != second)
    if isinstance(measure, CantorMeasure):
        iv1, iv2 = (window_intervals(c, 0.0, 1.0) for c in (c1, c2))
        return (cantor_interval_mass(iv1) + cantor_interval_mass(iv2)
                - 2.0 * cantor_interval_mass(intersect(iv1, iv2)))
    lo, hi = measure.a, measure.b
    closed1, closed2 = (hasattr(c, "uniform_mass") for c in (c1, c2))
    if closed1 != closed2:
        sign, other = (c1, c2) if closed1 else (c2, c1)
        return _uniform_mixed_distance(sign, other,
                                       window_intervals(other, lo, hi), measure)
    iv1, iv2 = (window_intervals(c, lo, hi) for c in (c1, c2))
    return (float(total_length(iv1)) + float(total_length(iv2))
            - 2.0 * float(total_length(intersect(iv1, iv2)))) / (hi - lo)


# ---------------------------------------------------------------------------
# Order-interval classes


def max_interval_count(n):
    """Largest k with k^2 < n: members of the order-n class use < sqrt(n)
    grid cells, enforced in integer arithmetic."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return math.isqrt(n - 1)


def enumerate_order_class(n):
    """Lazy stream of every member of the order-n class, the unions of fewer
    than sqrt(n) grid cells of order n, smallest unions first; refuses
    upfront once its running member count passes ``ENUMERATION_CAP``."""
    most = max_interval_count(n)
    total = 0
    for k in range(most + 1):
        total += math.comb(n, k)
        check_cap(f"members of the order-{n} class", total, ENUMERATION_CAP)

    def gen():
        for k in range(most + 1):
            for cells in combinations(range(n), k):
                yield GridUnion(n, cells)

    return gen()


def isolate_points(points):
    """Smallest valid order isolating the points, with the covering union.

    Picks the least n > k^2 whose cell width 1/n is below every half-gap
    between neighbouring points, then covers each point by the cell whose
    left endpoint equals it (preferring that cell on grid boundaries).
    Exact rational arithmetic throughout, so containment holds with no
    floating-point slack.  Fewer than one point yields (1, empty union).
    """
    pts = sorted(float(p) for p in points)
    k = len(pts)
    if k == 0:
        return 1, GridUnion(1, ())
    if len(set(pts)) != k:
        raise ValueError("points must be pairwise distinct")
    if pts[0] < 0.0 or pts[-1] > 1.0:
        raise ValueError("points must lie in [0, 1]")
    n = k * k + 1
    if k > 1:
        min_half = min(Fraction(b) - Fraction(a)
                       for a, b in zip(pts, pts[1:])) / 2
        n = max(n, math.floor(1 / min_half) + 1)
    cells = []
    for p in pts:
        # floor gives i/n <= p < (i+1)/n exactly; p == 1 clamps to the
        # last cell, whose right endpoint it is.
        i = min(math.floor(Fraction(p) * n), n - 1)
        cells.append(i)
    if len(set(cells)) != k:
        raise AssertionError("isolated points must land in distinct cells")
    return n, GridUnion(n, tuple(cells))


# ---------------------------------------------------------------------------
# Shattering the ternary-set level intervals by order classes


@dataclass(frozen=True)
class CantorShatterReport:
    """Feasibility verdict for covering selected level intervals by a grid
    union while avoiding the unselected ones."""

    level: int
    order: int
    selected: tuple
    status: str  # "feasible" | "infeasible"
    witness: GridUnion | None
    forced_cells: tuple
    reason: str

    def to_json(self):
        return {"level": self.level, "order": self.order,
                "selected": list(self.selected), "status": self.status,
                "witness": None if self.witness is None else self.witness.to_json(),
                "forced_cells": list(self.forced_cells), "reason": self.reason}


def cantor_shatter_search(level, order, selected):
    """Search for a member of the order class containing every selected
    level interval and disjoint from every unselected one.

    Any valid union must include every grid cell whose interior meets a
    selected interval, so the forced-cell set is a minimal cover; the
    verdict is exact.  Selected indices are 1-based.  A level above
    ``MAX_SHATTER_LEVEL`` or an order above ``MAX_SHATTER_ORDER`` raises
    ``EnumerationCapError``.
    """
    level, order = int(level), int(order)
    selected = tuple(sorted(set(int(j) for j in selected)))
    if level < 0 or order < 1:
        raise ValueError("level must be >= 0 and order >= 1")
    check_cap("cantor search level", level, MAX_SHATTER_LEVEL)
    check_cap("cantor search order", order, MAX_SHATTER_ORDER)
    if any(not 1 <= j <= 2 ** level for j in selected):
        raise ValueError("selected indices must lie in 1..2^level")
    # Level interval a is [a, a + 1] / den and cell i is [i, i + 1] / order.
    den = 3 ** level
    lefts = cantor_level_intervals(level)
    chosen = [lefts[j - 1] for j in selected]
    avoided = [a for j, a in enumerate(lefts, 1) if j not in selected]

    # Forced: the cells whose interior meets a chosen interval a, that is
    #   a * order < (i + 1) * den and i * den < (a + 1) * order.
    # Clashing: the closed cells that meet an avoided one, the same with <=.
    forced = tuple(sorted({i for a in chosen for i in range(
        a * order // den, -(-(a + 1) * order // den))}))
    clashing = {i for b in avoided for i in range(
        -(-b * order // den) - 1, (b + 1) * order // den + 1)}
    for i in forced:
        if i in clashing:
            return CantorShatterReport(
                level, order, selected, "infeasible", None, forced,
                f"forced cell {i} meets an unselected level interval")
    k = len(forced)
    if k * k >= order:
        return CantorShatterReport(
            level, order, selected, "infeasible", None, forced,
            f"minimal cover needs {k} cells, and {k}^2 >= {order}")

    witness = GridUnion(order, forced)
    runs = canonicalize([(i, i + 1) for i in forced])
    for a in chosen:
        if not any(lo * den <= a * order and (a + 1) * order <= hi * den
                   for lo, hi in runs):
            raise AssertionError("witness fails exact containment check")
    return CantorShatterReport(level, order, selected, "feasible", witness,
                               forced, "forced cells form a valid union")


# ---------------------------------------------------------------------------
# Parameterized families


@dataclass(frozen=True)
class SontagFamily:
    """The weight-parameterized family {x : cos(wx) >= 0}, w in [0, w_max]."""

    w_max: float


@dataclass(frozen=True)
class OrderIntervalFamily:
    """The union over all orders n of the order-n classes."""


def concept_from_json(doc):
    number = Field("number")
    bits = Field("list", of=Field("int", least=0, most=1))
    pairs = Field("list", of=Field("list", least=2, most=2, of=number))
    if (isinstance(doc, dict) and doc.get("kind") == "intervals"
            and "order" in doc):
        # GridUnion.to_json also writes the cells as "intervals".
        return read_kind(doc, "concept", {"intervals": (
            lambda order, cells, _: GridUnion(order, cells),
            {"order": Field("int"), "cells": Field("list", of=Field("int")),
             "intervals": Field("list", None)})})
    return read_kind(doc, "concept", {
        "sontag": (SontagConcept, {"w": number}),
        "intervals": (IntervalUnion, {"intervals": pairs}),
        "atom_labels": (AtomLabeling, {
            "locations": Field("list", of=number), "bits": bits,
            "default_bit": Field("int", 0, least=0, most=1)})})
