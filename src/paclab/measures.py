"""Probability measures on the real line with seeded sampling and indicator
expectations.

Concrete kinds: purely atomic, built from its exact masses in runs of
equal masses, uniform on an interval, and the ternary-set Haar measure.
Expectations of concept indicators are exact: the units of the atoms
``AtomicMeasure.membership_matrix`` flags, summed and rounded once by
``AtomicMeasure.mass``, or arithmetic on the concept's interval form under
the uniform and ternary measures.  A concept without an interval form is
refused there (``AttributeError``), never approximated.

All measure values are immutable after construction.  Sampling takes an
explicit seed (anything ``numpy.random.default_rng`` accepts), so parallel
callers derive independent streams by seed offsetting.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .intervals import canonicalize, clip, total_length

MASS_TOLERANCE = 1e-12
DEFAULT_TERNARY_DEPTH = 40
_EXACT_MASS_DEPTH = 60
_POWERS_OF_3 = tuple(3 ** i for i in range(_EXACT_MASS_DEPTH + 1))


def window_intervals(concept, lo, hi):
    """The concept within [lo, hi] as a canonical interval list."""
    return clip(canonicalize(concept.as_intervals_ae(lo, hi)), lo, hi)


def _as_fraction(value):
    # Floats are read as the decimal literal they print as, so JSON configs
    # with 0.2 mean exactly 1/5; Fraction reads ints, strings and Fractions.
    return Fraction(str(value) if isinstance(value, float) else value)


def _unit_floats(units, total):
    # float(Fraction(d, total)) for each count d of units: one correctly
    # rounded division, of exact floats below 2**53, of Python ints above.
    units = np.asarray(units)
    if units.dtype == float:
        return units / total
    return np.array([d / total for d in units.ravel().tolist()],
                    dtype=float).reshape(units.shape)


def _run_units(runs):
    """Exact masses in integer units: one per (count, Fraction) run, over
    the runs' common denominator reduced by the units' gcd, and their total
    U = sum(count * units).

    The units are in the narrowest dtype exact for every sum up to 2U in
    any order: float64 while 2U < 2**53, then int64, then Python ints.
    """
    counts, exact = zip(*runs)
    den = math.lcm(*(f.denominator for f in exact))
    nums = [f.numerator * (den // f.denominator) for f in exact]
    common = math.gcd(*nums)
    nums = [x // common for x in nums]
    total = sum(map(operator.mul, counts, nums))
    dtype = (float if 2 * total < 2 ** 53
             else np.int64 if 2 * total < 2 ** 63 else object)
    return np.array(nums, dtype=dtype), total


@dataclass(frozen=True)
class Atom:
    """A point mass: location on the real line, mass in (0, 1]."""

    location: float
    mass: float

    def __post_init__(self):
        if not (0.0 < self.mass <= 1.0):
            raise ValueError(f"atom mass must lie in (0, 1], got {self.mass}")
        if not math.isfinite(self.location):
            raise ValueError("atom location must be finite")


class AtomicMeasure:
    """A purely atomic probability measure, built from its exact masses:
    ``runs`` lists them as (count, Fraction) pairs, one per run of equal
    masses over the locations in the order given.

    Stored in location order: ``locations`` strictly increasing floats,
    ``masses`` each exact mass rounded once, summing to 1 within
    ``MASS_TOLERANCE``, and read-only integer ``units``, built once: atom i
    weighs units[i] / U, U the Python int ``total_units``.
    """

    kind = "atomic"

    def __init__(self, locations, runs):
        locations = np.array(locations, dtype=float)
        counts = [count for count, _ in runs]
        if not len(locations) or sum(counts) != len(locations):
            raise ValueError("an atomic measure needs at least one atom and "
                             "one mass per location")
        masses = np.repeat([float(f) for _, f in runs], counts)
        if not np.all(ok := (masses > 0.0) & (masses <= 1.0)):
            raise ValueError(f"atom mass must lie in (0, 1], got "
                             f"{masses[~ok][0]}")
        if not np.isfinite(locations).all():
            raise ValueError("atom locations must be finite")
        order = np.argsort(locations, kind="stable")
        self.locations, self.masses = locations[order], masses[order]
        if np.any(np.diff(self.locations) <= 0.0):
            raise ValueError("atom locations must be pairwise distinct")
        total = math.fsum(self.masses.tolist())
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ValueError(f"atom masses sum to {total!r}, expected 1")
        units, self.total_units = _run_units(runs)
        self.units = np.repeat(units, counts)[order]
        self.units.flags.writeable = False

    @classmethod
    def from_pairs(cls, pairs):
        """One atom per (location, mass), the mass read as its decimal."""
        pairs = [(float(loc), float(mass)) for loc, mass in pairs]
        return cls([loc for loc, _ in pairs],
                   [(1, _as_fraction(mass)) for _, mass in pairs])

    @classmethod
    def uniform_on(cls, locations):
        n = len(locations)
        # No atoms (n = 0) are refused by the constructor.
        return cls(locations, [(n, Fraction(1, n or 1))])

    @property
    def atoms(self):
        """The atoms as ``Atom`` values in location order, built per read."""
        return tuple(map(Atom, self.locations.tolist(), self.masses.tolist()))

    def __len__(self):
        return len(self.locations)

    def __repr__(self):
        return f"AtomicMeasure({len(self)} atoms)"

    def sample(self, n, seed=0):
        rng = np.random.default_rng(seed)
        return self.locations[rng.choice(len(self), int(n), p=self.masses)]

    def membership_matrix(self, concepts):
        """One row of bools per concept, atoms in atom order: does the
        concept contain the atom.  The one atomic membership kernel.

        An ``AtomLabeling`` over exactly these locations, in this order,
        gives its bits as its row: ``contains`` returns them at the atoms.
        """
        from .concepts import AtomLabeling  # concepts imports this module

        concepts, locations = tuple(concepts), self.locations.tolist()
        atoms = tuple(locations)
        return np.array(
            [c.bits if isinstance(c, AtomLabeling) and c.locations == atoms
             else [bool(c.contains(x)) for x in locations]
             for c in concepts],
            dtype=bool).reshape(len(concepts), len(locations))

    def mass(self, selected):
        """Total mass of the atoms flagged in ``selected``, one bool per
        atom: a float, or one per row of a matrix of flags.

        The flagged units are summed exactly and each total d is rounded
        once, ``float(Fraction(d, U))``, so atomic expectations, distances
        and family geometry agree bit for bit.
        """
        rounded = _unit_floats(np.asarray(selected, dtype=bool) @ self.units,
                               self.total_units)
        return rounded if rounded.ndim else float(rounded)

    def expect_indicator(self, concept):
        return self.mass(self.membership_matrix((concept,))[0])


class UniformMeasure:
    """The uniform (normalized Lebesgue) measure on an interval [a, b].

    A concept with a closed-form ``uniform_mass(a, b)``, such as a sign-test
    concept, is measured by it; any other by the total length of its
    interval form within [a, b].
    """

    kind = "uniform"

    def __init__(self, a, b):
        a, b = float(a), float(b)
        if not b - a > 0:
            raise ValueError(f"need a < b, got [{a}, {b}]")
        self.a = a
        self.b = b

    def __repr__(self):
        return f"UniformMeasure({self.a}, {self.b})"

    def sample(self, n, seed=0):
        return np.random.default_rng(seed).uniform(self.a, self.b, size=int(n))

    def expect_indicator(self, concept):
        closed_form = getattr(concept, "uniform_mass", None)
        if closed_form is not None:
            return closed_form(self.a, self.b)
        inside = window_intervals(concept, self.a, self.b)
        return float(total_length(inside)) / (self.b - self.a)


# The most levels ``figures`` lists, for a budget of 10 s and 512 MB: levels
# 0-18 took 4.2-4.8 s and 144 MB on 2 vCPUs, levels 0-19 7.9 s and 255 MB.
MAX_CANTOR_LEVELS = 18


def cantor_level_intervals(n):
    """The 2**n closed intervals left after n middle-third deletions, as
    their integer left ends a in increasing order: each is [a, a + 1] / 3**n,
    of mass 2**-n under the Haar measure."""
    n = int(n)
    if n < 0:
        raise ValueError("level must be >= 0")
    # [a, a + 1] / 3**k keeps the thirds from 3a and 3a + 2 over 3**(k + 1).
    nums = [0]
    for _ in range(n):
        nums = [c for a in nums for c in (3 * a, 3 * a + 2)]
    return nums


def _cantor_cdf_units(num, den):
    # The Cantor function at num / den in [0, 1] in units of 2**-(D + 1), D =
    # _EXACT_MASS_DEPTH: its ternary digits with 2 read as a binary 1, up to
    # the first ternary 1, where it is flat.  Without a 1, the point lies in
    # a depth-D Cantor cell: exact at its left end, mid-cell elsewhere.
    if num >= den:
        return 2 ** (_EXACT_MASS_DEPTH + 1)
    cell, rest = divmod(num * _POWERS_OF_3[_EXACT_MASS_DEPTH], den)
    units = 0
    for i in range(_EXACT_MASS_DEPTH - 1, -1, -1):
        digit, cell = divmod(cell, _POWERS_OF_3[i])
        if digit == 1:
            return units + (2 << i)
        units += digit << i
    return units + (1 if rest else 0)


def cantor_interval_mass(intervals):
    """Haar mass of a union of intervals: F(hi) - F(lo) summed over its
    canonical pieces, F the Cantor function, in exact integer units.

    An endpoint inside a depth ``_EXACT_MASS_DEPTH`` cell is placed
    mid-cell, leaving an error below 1e-17 per interval endpoint.
    """
    units = 0
    for piece in clip(canonicalize(intervals), 0, 1):
        # numpy's ints lack as_integer_ratio() and read as ints.
        lo, hi = (x.as_integer_ratio() if hasattr(x, "as_integer_ratio")
                  else (operator.index(x), 1) for x in piece)
        units += _cantor_cdf_units(*hi) - _cantor_cdf_units(*lo)
    return float(Fraction(units, 2 ** (_EXACT_MASS_DEPTH + 1)))


class CantorMeasure:
    """The Haar measure on the middle-thirds set, sampled by ternary digits.

    Sampling draws ``depth`` i.i.d. digits from {0, 2} and returns
    sum(digit_i * 3**-i); the default depth 40 puts the truncation error
    below double-precision granularity.
    """

    kind = "cantor"

    def __init__(self, depth=DEFAULT_TERNARY_DEPTH):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.depth = depth

    def __repr__(self):
        return f"CantorMeasure(depth={self.depth})"

    def sample(self, n, seed=0):
        rng = np.random.default_rng(seed)
        digits = 2.0 * rng.integers(0, 2, size=(int(n), self.depth))
        vals = np.zeros(int(n))
        for i in range(self.depth - 1, -1, -1):
            vals = (vals + digits[:, i]) / 3.0
        return vals

    def expect_indicator(self, concept):
        return cantor_interval_mass(concept.as_intervals_ae(0.0, 1.0))


def expect_indicator(measure, concept):
    """Expectation of the concept's indicator under the measure.

    Exact for atomic measures (member atoms' units, rounded once) and,
    through the concept's interval form, under the uniform and ternary
    measures.
    """
    return measure.expect_indicator(concept)


class ConfigError(ValueError):
    """A JSON config document that does not match its declared fields."""


class EnumerationCapError(RuntimeError):
    """An input beyond one of the caps."""


def check_cap(what, value, cap):
    """Refuse ``value`` of ``what`` unless it is at most ``cap``: the one
    check behind every cap (README "Caps"); nan and inf are refused too."""
    if not value <= cap:
        raise EnumerationCapError(f"{what}: {value} is beyond the cap {cap}")


_REQUIRED = object()
_TYPES = {"int": (int, "an integer"), "list": (list, "a list"),
          "number": ((int, float), "a finite number")}
_LIMITS = (("least", ">=", operator.ge), ("above", ">", operator.gt),
           ("most", "<=", operator.le), ("below", "<", operator.lt))


@dataclass(frozen=True)
class Field:
    """One field of a JSON config document: its kind, bounds and default.

    ``kind`` is "int" (a JSON integer, not a bool), "number" (a finite JSON
    number, read as a float), "list" (its entries read by ``of``), a tuple
    of the values allowed, a dict of a nested object's fields (read as
    their values), or a callable building a nested document.  The bounds
    hold for a number or for a list's length, and ``distinct`` asks a list
    for distinct entries.  A field without a default is required; a None
    default leaves it None, and any other is read like a given value.
    """

    kind: object
    default: object = _REQUIRED
    least: float | None = None
    most: float | None = None
    above: float | None = None
    below: float | None = None
    of: Field | None = None
    distinct: bool = False

    def read(self, value, name):
        kind = self.kind
        if isinstance(kind, tuple):
            if value not in kind:
                raise ConfigError(f"{name} must be one of {list(kind)}, "
                                  f"got {value!r}")
            return value
        if isinstance(kind, dict):
            return read_fields(value, name, **kind)
        if callable(kind):
            # The one point where a nested document's own checks (its
            # constructor's ValueError or TypeError, or a Fraction string's
            # zero denominator) become config errors.
            try:
                return kind(value)
            except ConfigError:
                raise
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        types, noun = _TYPES[kind]
        limits = [(f"{sign} {bound}", bound, test)
                  for attr, sign, test in _LIMITS
                  if (bound := getattr(self, attr)) is not None]
        if (isinstance(value, bool) or not isinstance(value, types)
                or kind == "number" and not abs(value) <= sys.float_info.max
                or not all(test(len(value) if kind == "list" else value, b)
                           for _, b, test in limits)):
            expected = " and ".join(text for text, _, _ in limits)
            if expected:
                noun += " of length " if kind == "list" else " "
            raise ConfigError(f"{name} must be {noun}{expected}, "
                              f"got {value!r}")
        if kind == "number":
            return float(value)
        if self.of is not None:
            value = [self.of.read(v, f"{name}[{i}]")
                     for i, v in enumerate(value)]
        if self.distinct and len(set(value)) < len(value):
            raise ConfigError(f"{name} must hold distinct entries, "
                              f"got {value!r}")
        return value


class Document:
    """A JSON object read field by field: a key outside ``keys`` is an
    error, and so is a missing key whose field has no default."""

    def __init__(self, doc, name, keys):
        if not isinstance(doc, dict):
            raise ConfigError(f"{name} must be an object, got {doc!r}")
        if unknown := set(doc) - set(keys):
            raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
        self.doc, self.name = doc, name

    def __call__(self, key, field):
        name = f"{self.name}: {key}"
        if key in self.doc:
            return field.read(self.doc[key], name)
        if field.default is _REQUIRED:
            raise ConfigError(f"{self.name}: missing key {key!r}")
        return None if field.default is None else field.read(field.default,
                                                             name)


def read_fields(doc, name, **spec):
    """The values of a JSON object's fields, in ``spec`` order; ``spec``
    maps every key the object may hold to its ``Field``."""
    get = Document(doc, name, spec)
    return [get(key, field) for key, field in spec.items()]


def read_kind(doc, name, kinds):
    """The value a JSON object of several kinds describes: ``kinds`` maps
    each allowed value of its "kind" key to (build, spec), and build takes
    the values of the spec's fields in order."""
    # Any key may stand beside "kind" until the kind names the others.
    kind = Document(doc, name, doc)("kind", Field(tuple(kinds)))
    build, spec = kinds[kind]
    return build(*read_fields(doc, f"{name} kind {kind!r}",
                              kind=Field((kind,)), **spec)[1:])


def measure_from_json(doc):
    pair = Field("list", least=2, most=2, of=Field("number"))
    return read_kind(doc, "measure", {
        "atomic": (AtomicMeasure.from_pairs,
                   {"atoms": Field("list", of=pair)}),
        "uniform": (UniformMeasure, {"a": Field("number"),
                                     "b": Field("number")}),
        "cantor": (CantorMeasure,
                   {"depth": Field("int", DEFAULT_TERNARY_DEPTH)})})
