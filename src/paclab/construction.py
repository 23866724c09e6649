"""Purely atomic measures realizing a prescribed sample-complexity growth.

Given an accuracy schedule eps_1 > eps_2 > ... (with eps_1 = 1/5) and a
non-decreasing rate function f growing at least linearly, the construction
places levels of fresh atoms: level k holds f(1/eps_k) - f(1/eps_{k-1})
atoms sharing total mass 5 (eps_k - eps_{k+1}).  Learning to accuracy eps_k
then needs on the order of f(1/eps_k) samples, bracketed between a packing
lower bound and a covering upper bound.

The infinite construction is truncated at depth K; the exact tail mass
5 eps_{K+1} sits on one residual atom, perturbing all distances by at most
that amount.  Schedules are kept in exact rational arithmetic so mass
telescoping identities hold exactly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from . import sontag
from .bounds import FiniteFamily, bi_upper_from_log2, greedy_packing
from .measures import (AtomicMeasure, EnumerationCapError, Field, _as_fraction,
                       _run_units, check_cap, read_fields, read_kind)

PACKING_LOWER_RATE = 0.0128  # 2 * (0.5 - 0.42)^2, the cube-packing constant
# The largest f_k whose small-family packing keeps `paclab construct` in 10 s
# and 512 MB on one BLAS thread: a table rate f = 8, 13, f_k (K = 3,
# linear_coeff 1/10) took 4.6-5.2 s and 192 MB at 16; 17 took 36 s on two.
SMALL_FAMILY_LIMIT = 16
MAX_ATOMS = 10 ** 6


@dataclass(frozen=True)
class RateFunction:
    """A non-decreasing growth rate: polynomial, exponential, or tabulated.

    Polynomial and integer-argument exponential rates evaluate exactly on
    rational inputs; tables hold explicit (x, f(x)) pairs and look up the
    largest tabulated x not exceeding the argument.
    """

    kind: str
    degree: int = 1
    scale: Fraction = Fraction(1)
    base: int = 2
    points: tuple = ()

    @classmethod
    def poly(cls, degree, scale=1):
        return cls("poly", degree=degree, scale=_as_fraction(scale))

    @classmethod
    def exponential(cls, base=2):
        return cls("exp", base=base)

    @classmethod
    def table(cls, points):
        pts = tuple(sorted((_as_fraction(x), _as_fraction(y)) for x, y in points))
        return cls("table", points=pts)

    def __call__(self, x):
        if self.kind == "poly":
            return self.scale * _as_fraction(x) ** self.degree
        if self.kind == "exp":
            fx = _as_fraction(x)
            if fx.denominator == 1:
                return Fraction(self.base) ** fx.numerator
            try:
                return Fraction(str(float(self.base) ** float(fx)))
            except OverflowError:  # a level of far more than MAX_ATOMS
                raise EnumerationCapError(
                    f"rate {self.base}^x at x = {fx} is beyond the float "
                    "range") from None
        if self.kind == "table":
            fx = _as_fraction(x)
            below = [py for px, py in self.points if px <= fx]
            if not below:
                raise ValueError(f"rate table has no entry at or below {x}")
            return below[-1]
        raise ValueError(f"unknown rate kind {self.kind!r}")

    def to_json(self):
        if self.kind == "poly":
            return {"kind": "poly", "degree": self.degree, "scale": str(self.scale)}
        if self.kind == "exp":
            return {"kind": "exp", "base": self.base}
        return {"kind": "table",
                "points": [[str(x), str(y)] for x, y in self.points]}

    @classmethod
    def from_json(cls, doc):
        return read_kind(doc, "rate", {
            "poly": (cls.poly, {"degree": Field("int"),
                                "scale": Field(_as_fraction, 1)}),
            "exp": (cls.exponential, {"base": Field("int", 2)}),
            "table": (cls.table, {"points": Field("list")})})


EPS_FIRST = Fraction(1, 5)


@dataclass(frozen=True)
class ComplexitySchedule:
    """Accuracy schedule, rate function, and truncation depth.

    Needs eps values for levels 1..K+1, strictly decreasing with
    eps_1 = 1/5 exactly (the normalization making level masses sum to 1).
    The rate must be at least ``linear_coeff * x`` on the grid of evaluation
    points 1/eps_k, and the rounded cardinalities f_k = ceil(f(1/eps_k))
    must increase strictly from f_0 = 0, so every level holds an atom.
    """

    eps: tuple
    f: RateFunction
    K: int
    linear_coeff: Fraction = Fraction(1)

    def __post_init__(self):
        eps = tuple(_as_fraction(e) for e in self.eps)
        object.__setattr__(self, "eps", eps)
        object.__setattr__(self, "linear_coeff", _as_fraction(self.linear_coeff))
        if self.K < 0:
            raise ValueError("truncation depth must be >= 0")
        if len(eps) < self.K + 1:
            raise ValueError(f"need eps values through level {self.K + 1}")
        if any(e <= 0 for e in eps):
            raise ValueError("eps values must be positive")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps must be strictly decreasing")
        if eps[0] != EPS_FIRST:
            raise ValueError(f"eps_1 must equal 1/5 exactly, got {eps[0]}")
        grid = [Fraction(1) / e for e in eps[:self.K]]
        values = [self.f(x) for x in grid]
        for x, v in zip(grid, values):
            if v < self.linear_coeff * x:
                raise ValueError(
                    f"rate below the declared linear floor at x={x}")
        f_vals = [0] + [math.ceil(v) for v in values]
        for k in range(1, self.K + 1):
            if f_vals[k] <= f_vals[k - 1]:
                raise ValueError(
                    f"level {k} would hold f_{k} - f_{k - 1} = "
                    f"{f_vals[k] - f_vals[k - 1]} atoms; the ceiled rate "
                    "must increase strictly from f_0 = 0")

    @classmethod
    def default(cls, K=2, degree=2):
        """eps_k = 5**-k with a polynomial rate; the shipped instance."""
        eps = tuple(Fraction(1, 5) ** k for k in range(1, K + 2))
        return cls(eps=eps, f=RateFunction.poly(degree), K=K)

    def f_values(self):
        """Rounded level cardinalities f_k = ceil(f(1/eps_k)), k = 1..K."""
        return tuple(math.ceil(self.f(Fraction(1) / e)) for e in self.eps[:self.K])

    def runs(self):
        """The instance's exact masses as (atom count, Fraction per atom)
        runs: level k holds f_k - f_{k-1} atoms sharing the mass
        m_k = 5 (eps_k - eps_{k+1}), then the residual atom 5 eps_{K+1}."""
        f_vals = (0, *self.f_values())
        runs = []
        for k in range(self.K):
            size = f_vals[k + 1] - f_vals[k]
            runs.append((size, 5 * (self.eps[k] - self.eps[k + 1]) / size))
        return runs + [(1, 5 * self.eps[self.K])]

    def to_json(self):
        return {"eps": [str(e) for e in self.eps], "f": self.f.to_json(),
                "K": self.K, "linear_coeff": str(self.linear_coeff)}

    @classmethod
    def from_json(cls, doc):
        eps, f, K, linear_coeff = read_fields(
            doc, "schedule", eps=Field("list"),
            f=Field(RateFunction.from_json), K=Field("int"),
            linear_coeff=Field(_as_fraction, 1))
        return cls(eps=tuple(eps), f=f, K=K, linear_coeff=linear_coeff)


@dataclass(frozen=True)
class ConstructedInstance:
    """A truncated instance of the construction, ready to learn against:
    the schedule, whose runs hold the exact masses, and one location per
    atom, level by level, the residual atom's last."""

    schedule: ComplexitySchedule
    locations: tuple

    def measure(self):
        """The instance as an atomic measure with exact masses."""
        return AtomicMeasure(self.locations, self.schedule.runs())

    def to_json(self):
        """Each level's index, size, float mass and locations, then the
        residual atom's location and mass, read from the schedule's runs."""
        *runs, (_, residual) = self.schedule.runs()
        levels, start = [], 0
        for k, (size, exact) in enumerate(runs, 1):
            stop = start + size
            levels.append({"index": k, "size": size,
                           "mass": float(size * exact),
                           "locations": list(self.locations[start:stop])})
            start = stop
        return {"schedule": self.schedule.to_json(), "levels": levels,
                "residual": {"location": self.locations[start],
                             "mass": float(residual)}}


def build_measure(schedule):
    """Materialize the schedule: levels of log-prime atoms plus the residual.

    Atom locations are logs of successive primes, so every finite union of
    levels is a rationally-independent-style tuple that the weight family
    can shatter.  Level masses follow m_k = 5 (eps_k - eps_{k+1}); the
    residual atom carries exactly 5 eps_{K+1}.  An instance of more than
    ``MAX_ATOMS`` atoms raises ``EnumerationCapError`` before any prime is
    generated.
    """
    total_atoms = sum(count for count, _ in schedule.runs())
    check_cap("atoms of the instance", total_atoms, MAX_ATOMS)
    return ConstructedInstance(
        schedule, tuple(sontag.rationally_independent_points(total_atoms)))


@dataclass(frozen=True)
class ProfileRow:
    """Theoretical bracket at one accuracy level."""

    k: int
    eps: float
    f_k: int
    lower: int
    upper: int

    def to_json(self):
        return asdict(self)


@dataclass(frozen=True)
class ComplexityProfile:
    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if row.lower > row.upper:
                raise ValueError(f"lower bound exceeds upper at level {row.k}")

    def to_json(self):
        return {"rows": [r.to_json() for r in self.rows]}


def theoretical_profile(instance, delta):
    """Per-level sample-complexity bracket for the instance.

    Upper: the covering bound with the 2**f_k labeling cover, computed via
    log2 without materializing the cover.  Lower: the packing-rate floor
    ceil(0.0128 f_k), sharpened by an explicit greedy packing of the 2**f_k
    labelings of levels 1..k when f_k is at most ``SMALL_FAMILY_LIMIT``.
    """
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    rows = []
    schedule = instance.schedule
    f_vals = schedule.f_values()
    runs = schedule.runs()
    units, total = _run_units(runs)
    for k in range(1, schedule.K + 1):
        f_k = f_vals[k - 1]
        eps_k = float(schedule.eps[k - 1])
        upper = bi_upper_from_log2(eps_k, delta, float(f_k))
        lower = math.ceil(PACKING_LOWER_RATE * f_k)
        if 0 < f_k <= SMALL_FAMILY_LIMIT:
            # Labeling i gives bit (i >> j) & 1 to the j-th atom of levels
            # 1..k, the first f_k atoms in location order, and 0 to the rest.
            family = FiniteFamily._of_memberships(
                (np.arange(2 ** f_k)[:, None] >> np.arange(f_k)) & 1,
                np.repeat(units[:k], [count for count, _ in runs[:k]]), total)
            packed = greedy_packing(family, 2.0 * eps_k)
            lower = max(lower, math.ceil(math.log2(packed.size)))
        rows.append(ProfileRow(k, eps_k, f_k, lower, upper))
    return ComplexityProfile(tuple(rows))
