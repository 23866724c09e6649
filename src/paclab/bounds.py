"""Sample-complexity bounds from covering and packing numbers.

The upper bound turns an eps/2-cover of size k into a sample count
ceil((32/eps) * log2(k/delta)); the lower bound is the base-2 log of a
2eps-packing.  Greedy constructions provide verified covers and packings
over finite concept families.

Under an atomic measure a family's geometry is exact: every distance is an
integer count of the measure's units, and a packing or cover decides a
pair exactly at its radius in integers, not by the rounding of a float
sum.  As floats, distances are rounded once by the measure's one rounding
helper, so ``distance_matrix`` equals ``l1_distance`` bit for bit.

``hamming_packing`` realizes the binary-cube packing guarantee: at least
ceil(exp(2 (0.5 - 2 eps)^2 n)) codewords at pairwise normalized Hamming
distance >= 2 eps, built greedily from fair-coin candidates; a guarantee
beyond ``ENUMERATION_CAP`` codewords or bound * bound * n bit comparisons
is refused with ``EnumerationCapError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .concepts import ENUMERATION_CAP, l1_distance
from .measures import AtomicMeasure, _as_fraction, _unit_floats, check_cap

HAMMING_RESTARTS = 50
# Candidates per block of ``greedy_packing``.  Blocks double from the first
# size, so a small selection pays for a small block, up to the largest,
# which bounds the memory of one block against the selection.
_FIRST_BLOCK = 16
_LARGEST_BLOCK = 256


class PackingShortfallError(RuntimeError):
    """The randomized packing construction missed its guaranteed size."""

    def __init__(self, message, best_found):
        super().__init__(message)
        self.best_found = best_found


class FiniteFamily:
    """A finite list of concepts with L1 geometry from a fixed measure.

    Under an atomic measure the geometry is exact.  With the measure's
    integer units u and their total U, members i and j are
    d = s_i + s_j - 2 <m_i u, m_j> units apart, from the membership rows
    m and the sizes s = m @ u, built once per family, in the dtype of the
    measure's exact units, so units past int64 are served too.  Radii are
    read as the decimal literal they print as, and ``distance_matrix``
    rounds each d / U once.  Under any other measure the distances are one
    read-only float matrix, built once: the ``l1_distance`` of each pair
    of members, and zeros on the diagonal.
    """

    def __init__(self, concepts, measure):
        concepts = tuple(concepts)
        if not concepts:
            raise ValueError("a finite family needs at least one concept")
        self.concepts = concepts
        self.measure = measure
        self._total = None
        if isinstance(measure, AtomicMeasure):
            self._set_units(measure.membership_matrix(concepts),
                            measure.units, measure.total_units)
            return
        self._matrix = np.zeros((len(concepts), len(concepts)))
        for i, j in combinations(range(len(concepts)), 2):
            self._matrix[i, j] = self._matrix[j, i] = l1_distance(
                concepts[i], concepts[j], measure)
        self._matrix.flags.writeable = False

    @classmethod
    def _of_memberships(cls, members, units, total):
        # A family given by membership rows over atoms of these exact units,
        # in a measure of total U, none of whose members holds another atom.
        family = cls.__new__(cls)
        family.concepts, family.measure = None, None
        family._set_units(members, units, total)
        return family

    def _set_units(self, members, units, total):
        # Member j is stored as the row [m_j, 1, s_j].  Member i's row
        # permuted by _swap and scaled, [-2 u m_i, s_i, 1], times it gives
        # s_i + s_j - 2 <u m_i, m_j>, so a block of distances is one product.
        dtype = units.dtype
        members = members.astype(np.uint8).astype(dtype)
        self._rows = np.hstack([members, np.ones((len(members), 1), dtype),
                                (members @ units)[:, None]])
        self._scale = np.append(-2 * units, np.ones(2, dtype))
        atoms = len(units)
        self._swap = np.r_[:atoms, atoms + 1, atoms]
        self._total = total

    def __len__(self):
        return len(self._rows if self._total is not None
                   else self.concepts)

    def distance_matrix(self):
        """Every pairwise distance as a float, each rounded once."""
        return self._floats(self._distances(slice(None), slice(None)))

    def _distances(self, rows, cols):
        # Members ``rows`` against members ``cols``: units, or floats
        # under a non-atomic measure.
        if self._total is None:
            return self._matrix[rows][:, cols]
        left = self._rows[rows][:, self._swap] * self._scale
        return left @ self._rows[cols].T

    def _distances_from(self):
        # A function from member i to its distances to every member: a row
        # of the matrix, or under an atomic measure one row-by-matrix
        # product of the swapped, scaled rows, built once.
        if self._total is None:
            return self._matrix.__getitem__
        left, right = self._rows[:, self._swap] * self._scale, self._rows.T
        return lambda i: left[i] @ right

    def _threshold(self, radius, up):
        # The radius as a distance in this family's terms: ceil(R U) for a
        # packing (up), floor(R U) for a cover, clamped into [0, U + 1].
        if self._total is None:
            return float(radius)
        scaled = _as_fraction(radius) * self._total
        return (min(math.ceil(scaled), self._total + 1) if up
                else min(math.floor(scaled), self._total))

    def _floats(self, distances):
        # Each distance rounded once; floats already under other measures.
        return (distances if self._total is None
                else _unit_floats(distances, self._total))


def greedy_cover(family, eps):
    """Greedy farthest-point eps-cover: center indices and their count.

    Every family member ends within eps of some center (verified
    exhaustively before returning), so the count upper-bounds the optimal
    covering number.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    near = family._threshold(eps, up=False)
    distances = family._distances_from()
    centers = [0]
    min_dist = distances(0)
    while True:
        far = int(np.argmax(min_dist))
        if min_dist[far] <= near:
            break
        centers.append(far)
        min_dist = np.minimum(min_dist, distances(far))
    if not min_dist.max() <= near:
        raise AssertionError("greedy cover left a concept farther than eps")
    return tuple(centers), len(centers)


@dataclass(frozen=True)
class PackingResult:
    """An eps-separated subset; its size lower-bounds the packing number.

    ``certified`` marks sizes known to be the exact maximum (small families
    solved by branch and bound) as opposed to greedy lower bounds.
    """

    selected: tuple
    radius: float
    certified: bool
    _distances: object = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if (self._distances is not None
                and not np.all(np.asarray(self._distances) >= self.radius)):
            raise ValueError("selected concepts are not separated "
                             f"by {self.radius}")

    @property
    def size(self):
        return len(self.selected)

    def to_json(self):
        return {"selected": list(self.selected), "radius": self.radius,
                "certified": self.certified, "size": self.size}


def greedy_packing(family, radius):
    """Maximal-by-inclusion greedy radius-separated subset, in index order.

    Candidates come in blocks that double from ``_FIRST_BLOCK`` to
    ``_LARGEST_BLOCK`` members.  One distance block drops every candidate
    closer than radius to a member already selected, and a pass over the
    survivors' own distances selects them in index order, so the result
    is the plain index-order greedy's.  Every selected pair is checked
    against the radius in the family's units, then as floats.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    apart = family._threshold(radius, up=True)
    selected = []
    start, size = 0, _FIRST_BLOCK
    while start < len(family):
        block = np.arange(start, min(start + size, len(family)))
        start, size = start + size, min(2 * size, _LARGEST_BLOCK)
        if selected:
            block = block[(family._distances(selected, block)
                           >= apart).all(axis=0)]
        # Bit j of row i: candidates i and j are apart.  A member is never
        # apart from itself, so its own row retires it.
        apart_rows = np.packbits(family._distances(block, block) >= apart,
                                 axis=1, bitorder="little")
        alive, chosen = (1 << len(block)) - 1, []
        while alive:
            chosen.append((alive & -alive).bit_length() - 1)
            alive &= int.from_bytes(apart_rows[chosen[-1]].tobytes(), "little")
        selected.extend(block[chosen].tolist())
    # The certificate: the least distance of each block of selected rows
    # to the members selected after them, checked in units, then as floats.
    least = []
    for lo in range(0, len(selected) - 1, _LARGEST_BLOCK):
        hi = min(lo + _LARGEST_BLOCK, len(selected) - 1)
        dist = family._distances(selected[lo:hi], selected[lo:])
        least.append(dist[np.arange(hi - lo)[:, None]
                          < np.arange(len(selected) - lo)].min())
    if not all(d >= apart for d in least):
        raise AssertionError(f"greedy packing selected a pair closer than "
                             f"{radius}")
    return PackingResult(tuple(selected), float(radius), False,
                         family._floats(np.array(least)))


def bi_upper_from_log2(eps, delta, log2_k):
    """Sample count sufficient for ERM given an eps/2-cover of size k:
    ceil((32/eps) * log2(k/delta)), base-2 logs throughout.  The cover size
    is given as log2(k), so covers too large to materialize need none."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    value = (32.0 / eps) * (log2_k + math.log2(1.0 / delta))
    return max(0, math.ceil(value))


def bi_lower(eps, family):
    """Certified sample-count lower bound: lg of a greedy 2eps-packing."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    size = greedy_packing(family, 2.0 * eps).size
    return max(0, math.ceil(math.log2(size)))


def hamming_packing_bound(n, eps):
    """Guaranteed packing size in the n-cube: ceil(exp(2 (0.5-2 eps)^2 n)),
    refused when beyond ``ENUMERATION_CAP`` (inf past the float range), and
    when bound * bound * n, the greedy's bit comparisons, is."""
    if not 0 < eps <= 0.25:
        raise ValueError("eps must lie in (0, 1/4]")
    exponent = 2.0 * (0.5 - 2.0 * eps) ** 2 * n
    with np.errstate(over="ignore"):
        codewords = float(np.exp(exponent))
    check_cap(f"hamming codewords of length {n} at eps {eps}, "
              f"exp({exponent:.6g})", codewords, ENUMERATION_CAP)
    bound = math.ceil(math.exp(exponent))
    check_cap(f"bit comparisons of {bound} hamming codewords of length {n}",
              bound * bound * n, ENUMERATION_CAP)
    return bound


def hamming_packing(n, eps, seed=0):
    """Binary codewords at pairwise normalized Hamming distance >= 2 eps,
    at least ceil(exp(2 (0.5-2 eps)^2 n)) of them.

    Greedy selection over fair-coin candidates, starting from the zero
    codeword, with ``HAMMING_RESTARTS`` seeded restarts, read at each call;
    the per-restart candidate budget is 50 * bound.  Exhausting every
    restart raises ``PackingShortfallError``, carrying the best count found,
    since the guarantee says a packing of that size exists.
    """
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    bound = hamming_packing_bound(n, eps)
    threshold = 2.0 * eps
    best = 0
    for r in range(HAMMING_RESTARTS):
        rng = np.random.default_rng([seed, r])
        selected = np.zeros((bound, n), dtype=np.uint8)
        count = 1  # rows selected, the zero codeword first
        for _ in range(50 * bound):
            if count >= bound:
                break
            cand = rng.integers(0, 2, size=n, dtype=np.uint8)
            dists = np.mean(selected[:count] != cand, axis=1)
            if float(np.min(dists)) >= threshold:
                selected[count] = cand
                count += 1
        best = max(best, count)
        if count >= bound:
            return selected
    raise PackingShortfallError(
        f"packing of size {bound} not reached after {HAMMING_RESTARTS} "
        f"restarts (best {best})", best)
