"""Probability measures on the real line with seeded sampling and indicator
expectations.

Concrete kinds: purely atomic, uniform on an interval, and the ternary-set
Haar measure.  Expectations of concept indicators are exact: a mass sum
over the atoms flagged by ``AtomicMeasure.membership_matrix``, the one
atomic membership kernel, or arithmetic on the concept's interval form
under the uniform and ternary measures.  A concept without an interval
form is refused there (``AttributeError``), never approximated.

All measure values are immutable after construction.  Sampling takes an
explicit seed (anything ``numpy.random.default_rng`` accepts), so parallel
callers derive independent streams by seed offsetting.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .intervals import canonicalize, clip, total_length

MASS_TOLERANCE = 1e-12
DEFAULT_TERNARY_DEPTH = 40
_EXACT_MASS_DEPTH = 60
# Sampling buckets: about 64 per atom, between 2**4 and 2**20.
_MIN_BUCKET_BITS = 4
_MAX_BUCKET_BITS = 20


def _rng(seed):
    return np.random.default_rng(seed)


def window_intervals(concept, lo, hi):
    """The concept within [lo, hi] as a canonical interval list."""
    return clip(canonicalize(concept.as_intervals_ae(lo, hi)), lo, hi)


def _as_fraction(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        # Floats are read as the decimal literal they print as, so JSON
        # configs with 0.2 mean exactly 1/5.
        return Fraction(str(value))
    raise TypeError(f"cannot read {value!r} as an exact rational")


@dataclass(frozen=True)
class Atom:
    """A point mass: location on the real line, mass in (0, 1].

    ``exact``, when given, is the mass as a rational whose float is
    ``mass``; without it the mass is read as the decimal literal it prints
    as.
    """

    location: float
    mass: float
    exact: Fraction | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not (0.0 < self.mass <= 1.0):
            raise ValueError(f"atom mass must lie in (0, 1], got {self.mass}")
        if not math.isfinite(self.location):
            raise ValueError("atom location must be finite")
        if self.exact is not None and float(self.exact) != self.mass:
            raise ValueError(f"exact mass {self.exact} does not round to "
                             f"{self.mass!r}")


class AtomicMeasure:
    """A purely atomic probability measure: finitely many point masses.

    Atoms are stored in strictly increasing location order; masses must sum
    to 1 within ``MASS_TOLERANCE``.
    """

    kind = "atomic"

    def __init__(self, atoms):
        atoms = tuple(sorted((a if isinstance(a, Atom) else Atom(*a) for a in atoms),
                             key=lambda a: a.location))
        if not atoms:
            raise ValueError("an atomic measure needs at least one atom")
        for prev, cur in zip(atoms, atoms[1:]):
            if cur.location <= prev.location:
                raise ValueError("atom locations must be pairwise distinct")
        total = math.fsum(a.mass for a in atoms)
        if abs(total - 1.0) > MASS_TOLERANCE:
            raise ValueError(f"atom masses sum to {total!r}, expected 1")
        self.atoms = atoms
        self.locations = np.array([a.location for a in atoms])
        self.masses = np.array([a.mass for a in atoms])
        self._buckets = None
        self._units = None

    @classmethod
    def from_pairs(cls, pairs):
        return cls([Atom(float(loc), float(mass)) for loc, mass in pairs])

    @classmethod
    def uniform_on(cls, locations):
        locations = list(locations)
        n = len(locations)
        return cls([Atom(float(loc), 1.0 / n, Fraction(1, n))
                     for loc in locations])

    def __len__(self):
        return len(self.atoms)

    def __repr__(self):
        return f"AtomicMeasure({len(self.atoms)} atoms)"

    def _bucket_table(self):
        # rng.choice's cdf, and for 2**bits equal buckets of [0, 1) the
        # first cdf index above each bucket's left edge.  A uniform in
        # bucket j has its searchsorted index within ``width`` of first[j],
        # width the largest bucket's atom count; padding the cdf with ones
        # (never <= a uniform) keeps every probe of the search in range.
        # first[j] counts the cdf entries <= j / 2**bits: the entry c lies
        # at or below edge j from j = ceil(c * 2**bits) on, a product that
        # a power of two leaves exact.
        if self._buckets is None:
            cdf = self.masses.cumsum()
            cdf /= cdf[-1]
            bits = min(max((64 * len(cdf)).bit_length(), _MIN_BUCKET_BITS),
                       _MAX_BUCKET_BITS)
            first = np.bincount(np.ceil(cdf * 2 ** bits).astype(np.intp),
                                minlength=2 ** bits + 1).cumsum()
            steps = int(np.diff(first).max()).bit_length()
            padded = np.concatenate([cdf, np.ones(2 ** steps - 1)])
            self._buckets = (padded, float(2 ** bits), first[:-1], steps)
        return self._buckets

    def draw_indices(self, rng, shape):
        """Atom indices of i.i.d. draws, equal to
        ``rng.choice(len(self), size=shape, p=self.masses)``.

        The same ``rng.random(shape)`` uniforms meet the same cdf; a bucket
        table narrows each search to a few atoms, and a fixed-step
        bisection there finishes it exactly whatever the mass profile.
        """
        return self.indices_of(rng.random(shape))

    def indices_of(self, u):
        """The atom index ``draw_indices`` draws for each uniform in ``u``."""
        cdf, scale, first, steps = self._bucket_table()
        idx = first[(u * scale).astype(np.intp)]
        for shift in range(steps - 1, -1, -1):
            half = 1 << shift
            idx += half * (cdf[idx + (half - 1)] <= u)
        return idx

    def uniform_bounds(self, lo, hi):
        """(a, b) such that a uniform u is drawn as an atom index in
        [lo, hi) exactly when a <= u < b."""
        cdf = self._bucket_table()[0]
        return (cdf[lo - 1] if lo > 0 else 0.0), cdf[hi - 1]

    def sample(self, n, seed=0):
        return self.locations[self.draw_indices(_rng(seed), int(n))]

    def units(self):
        """The exact masses in integer units: (int64 per-atom units, their
        Python-int total U), atom i weighing units[i] / U.

        Built once from each atom's exact mass over a common denominator,
        reduced by the units' gcd.  A measure whose units do not fit int64
        raises ``OverflowError``; there is no float fallback.
        """
        if self._units is None:
            exact = [a.exact if a.exact is not None else _as_fraction(a.mass)
                     for a in self.atoms]
            den = math.lcm(*(f.denominator for f in exact))
            nums = [f.numerator * (den // f.denominator) for f in exact]
            common = math.gcd(*nums)
            nums = [x // common for x in nums]
            total = sum(nums)
            if total >= 2 ** 63:
                raise OverflowError(
                    f"the exact masses of {self!r} need {total.bit_length()}"
                    "-bit units, more than int64 holds")
            self._units = (np.array(nums, dtype=np.int64), total)
        return self._units

    def membership_matrix(self, concepts):
        """One row of bools per concept, atoms in atom order: does the
        concept contain the atom.  The one atomic membership kernel."""
        concepts, locations = tuple(concepts), self.locations.tolist()
        return np.fromiter(
            (bool(c.contains(x)) for c in concepts for x in locations),
            dtype=bool, count=len(concepts) * len(locations)).reshape(
                len(concepts), len(locations))

    def memberships(self, concept):
        """One bool per atom, in atom order: does the concept contain it."""
        return self.membership_matrix((concept,))[0]

    def mass(self, selected):
        """Total mass of the atoms flagged in ``selected`` (one bool per atom).

        Added one atom at a time in atom order, so the result equals a
        brute-force loop bit for bit.  Not ``sum()``, which compensates from
        Python 3.12, nor ``np.sum`` or ``@``, which reorder the additions.
        """
        total = 0.0
        for atom, hit in zip(self.atoms, selected):
            if hit:
                total += atom.mass
        return total

    def expect_indicator(self, concept):
        return self.mass(self.memberships(concept))

    def to_json(self):
        return {"kind": "atomic",
                "atoms": [[a.location, a.mass] for a in self.atoms]}


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
        return _rng(seed).uniform(self.a, self.b, size=int(n))

    def expect_indicator(self, concept):
        closed_form = getattr(concept, "uniform_mass", None)
        if closed_form is not None:
            return closed_form(self.a, self.b)
        inside = window_intervals(concept, self.a, self.b)
        return float(total_length(inside)) / (self.b - self.a)

    def to_json(self):
        return {"kind": "uniform", "a": self.a, "b": self.b}


def cantor_level_intervals(n):
    """The 2**n closed intervals left after n middle-third deletions.

    Returned in increasing order as (lo, hi) Fraction pairs, each of length
    3**-n and each carrying mass 2**-n under the Haar measure.
    """
    n = int(n)
    if n < 0:
        raise ValueError("level must be >= 0")
    # [a, a + 1] / 3**k keeps the thirds from 3a and 3a + 2 over 3**(k + 1).
    nums = [0]
    for _ in range(n):
        nums = [c for a in nums for c in (3 * a, 3 * a + 2)]
    den = 3 ** n
    return [(Fraction(a, den), Fraction(a + 1, den)) for a in nums]


def _cantor_cdf_units(x):
    # The Cantor function at x in [0, 1] in units of 2**-(D + 1), D =
    # _EXACT_MASS_DEPTH: x's ternary digits with 2 read as a binary 1, up to
    # the first ternary 1, where the function is flat.  Without a 1, x lies
    # in a depth-D Cantor cell: exact at its left end, mid-cell elsewhere.
    if x >= 1:
        return 2 ** (_EXACT_MASS_DEPTH + 1)
    cell, rest = divmod(x.numerator * 3 ** _EXACT_MASS_DEPTH, x.denominator)
    units = 0
    for i in range(_EXACT_MASS_DEPTH - 1, -1, -1):
        digit, cell = divmod(cell, 3 ** i)
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
    ivs = canonicalize([(Fraction(lo), Fraction(hi)) for lo, hi in intervals])
    ivs = clip(ivs, Fraction(0), Fraction(1))
    units = 0
    for lo, hi in ivs:
        units += _cantor_cdf_units(hi) - _cantor_cdf_units(lo)
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
        rng = _rng(seed)
        digits = 2.0 * rng.integers(0, 2, size=(int(n), self.depth))
        vals = np.zeros(int(n))
        for i in range(self.depth - 1, -1, -1):
            vals = (vals + digits[:, i]) / 3.0
        return vals

    def expect_indicator(self, concept):
        return cantor_interval_mass(concept.as_intervals_ae(0.0, 1.0))

    def to_json(self):
        return {"kind": "cantor", "depth": self.depth}


def sample(measure, seed, n):
    """n i.i.d. draws from the measure, deterministic for a fixed seed."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return measure.sample(n, seed=seed)


def expect_indicator(measure, concept):
    """Expectation of the concept's indicator under the measure.

    Exact for atomic measures (mass sum over member atoms) and, through the
    concept's interval form, under the uniform and ternary measures.
    """
    return measure.expect_indicator(concept)


class ConfigError(ValueError):
    """A JSON config document that does not match its declared fields."""


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
            # constructor's ValueError or TypeError) become config errors.
            try:
                return kind(value)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
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
