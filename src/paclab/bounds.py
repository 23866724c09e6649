"""Sample-complexity bounds from covering and packing numbers.

The upper bound turns an eps/2-cover of size k into a sample count
ceil((32/eps) * log2(k/delta)); the lower bound is the base-2 log of a
2eps-packing.  Greedy constructions provide verified covers and packings
over finite concept families; exact (branch-and-bound / exhaustive)
routines exist for small families so the standard sandwich
M(2eps) <= N(eps) <= M(eps) can be checked outright.

``hamming_packing`` realizes the binary-cube packing guarantee: at least
ceil(exp(2 (0.5 - 2 eps)^2 n)) codewords at pairwise normalized Hamming
distance >= 2 eps, built greedily from fair-coin candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .concepts import l1_distance
from .measures import AtomicMeasure

EXACT_PACKING_LIMIT = 24
EXACT_COVER_LIMIT = 16
HAMMING_RESTARTS = 50


class PackingShortfallError(RuntimeError):
    """The randomized packing construction missed its guaranteed size."""

    def __init__(self, message, best_found):
        super().__init__(message)
        self.best_found = best_found


class FiniteFamily:
    """A finite list of concepts with L1 geometry from a fixed measure.

    For an atomic measure the pairwise distances come from a cached
    membership matrix; any other measure falls back to pairwise exact or
    integrated distances.
    """

    def __init__(self, concepts, measure):
        concepts = tuple(concepts)
        if not concepts:
            raise ValueError("a finite family needs at least one concept")
        self.concepts = concepts
        self.measure = measure
        self._memberships = None
        self._masses = None
        if isinstance(measure, AtomicMeasure):
            rows = [[bool(c.contains(a.location)) for a in measure.atoms]
                    for c in concepts]
            self._memberships = np.array(rows, dtype=bool)
            self._masses = measure.masses
        self._matrix = None

    def __len__(self):
        return len(self.concepts)

    def distance(self, i, j):
        return float(self.distance_matrix()[i, j])

    def distance_matrix(self):
        if self._matrix is None:
            n = len(self.concepts)
            if self._memberships is not None:
                diff = self._memberships[:, None, :] != self._memberships[None, :, :]
                self._matrix = diff @ self._masses
            else:
                mat = np.zeros((n, n))
                for i in range(n):
                    for j in range(i + 1, n):
                        d = l1_distance(self.concepts[i], self.concepts[j],
                                        self.measure)
                        mat[i, j] = mat[j, i] = d
                self._matrix = mat
        return self._matrix

    def distances_to(self, j):
        return self.distance_matrix()[j]


def greedy_cover(family, eps):
    """Greedy farthest-point eps-cover: center indices and their count.

    Every family member ends within eps of some center (verified
    exhaustively before returning), so the count upper-bounds the optimal
    covering number.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    n = len(family)
    centers = [0]
    min_dist = family.distances_to(0).copy()
    while True:
        far = int(np.argmax(min_dist))
        if min_dist[far] <= eps:
            break
        centers.append(far)
        min_dist = np.minimum(min_dist, family.distances_to(far))
    if not float(np.max(min_dist)) <= eps:
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
    _distances: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self._distances is not None:
            for d in self._distances:
                if d < self.radius:
                    raise ValueError("selected concepts are not separated "
                                     f"by {self.radius}")

    @property
    def size(self):
        return len(self.selected)

    def to_json(self):
        return {"selected": list(self.selected), "radius": self.radius,
                "certified": self.certified, "size": self.size}


def cover_to_json(centers, eps):
    return {"centers": list(centers), "eps": float(eps), "size": len(centers)}


def greedy_packing(family, radius):
    """Maximal-by-inclusion greedy radius-separated subset, in index order."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    if getattr(family, "_memberships", None) is not None:
        idx, rows = greedy_packing_memberships(family._memberships,
                                               family._masses, radius)
    else:
        mat = family.distance_matrix()
        idx = []
        for i in range(len(family)):
            if all(mat[i, j] >= radius for j in idx):
                idx.append(i)
        idx = tuple(idx)
        rows = mat[list(idx)]
    # The separation check reads the distance rows the selection itself used.
    dists = tuple(float(rows[i][b]) for i in range(len(idx))
                  for b in idx[i + 1:])
    return PackingResult(idx, float(radius), False, dists)


def greedy_packing_memberships(memberships, masses, radius):
    """Greedy packing over a membership-matrix family, without
    materializing concept objects.  Equivalent to index-order greedy.
    Returns the selected indices and each one's distance row to all members.
    """
    memberships = np.asarray(memberships, dtype=bool)
    masses = np.asarray(masses, dtype=float)
    alive = np.ones(len(memberships), dtype=bool)
    selected = []
    rows = []
    while alive.any():
        i = int(np.argmax(alive))
        selected.append(i)
        rows.append((memberships != memberships[i]) @ masses)
        alive &= rows[-1] >= radius
    return tuple(selected), rows


def exact_packing_number(family, radius):
    """The exact maximum size of a radius-separated subset (<= 24 members),
    by branch and bound on the conflict graph."""
    n = len(family)
    if n > EXACT_PACKING_LIMIT:
        raise ValueError(f"exact packing limited to {EXACT_PACKING_LIMIT} members")
    mat = family.distance_matrix()
    conflict = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and mat[i, j] < radius:
                conflict[i] |= 1 << j
    best = 0

    def rec(cand, size):
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        rec(cand & ~(1 << v) & ~conflict[v], size + 1)
        rec(cand & ~(1 << v), size)

    rec((1 << n) - 1, 0)
    return best


def exact_cover_number(family, eps):
    """The exact minimum size of an eps-cover with centers drawn from the
    family itself (<= 16 members), by exhaustive subset search."""
    from itertools import combinations
    n = len(family)
    if n > EXACT_COVER_LIMIT:
        raise ValueError(f"exact cover limited to {EXACT_COVER_LIMIT} members")
    mat = family.distance_matrix()
    covered_by = [frozenset(j for j in range(n) if mat[i, j] <= eps)
                  for i in range(n)]
    everything = frozenset(range(n))
    for k in range(1, n + 1):
        for centers in combinations(range(n), k):
            hit = frozenset().union(*(covered_by[c] for c in centers))
            if hit == everything:
                return k
    raise AssertionError("the family always covers itself")


def bi_upper(eps, delta, k):
    """Sample count sufficient for ERM given an eps/2-cover of size k:
    ceil((32/eps) * log2(k/delta)).  Base-2 logs throughout."""
    _check_eps_delta(eps, delta)
    if k < 1:
        raise ValueError("cover size must be >= 1")
    return bi_upper_from_log2(eps, delta, math.log2(k))


def bi_upper_from_log2(eps, delta, log2_k):
    """Upper bound with the cover size given as log2(k), for covers too
    large to materialize."""
    _check_eps_delta(eps, delta)
    value = (32.0 / eps) * (log2_k + math.log2(1.0 / delta))
    return max(0, math.ceil(value))


def bi_lower(eps, family):
    """Certified sample-count lower bound: lg of a greedy 2eps-packing."""
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    size = greedy_packing(family, 2.0 * eps).size
    return max(0, math.ceil(math.log2(size)))


def _check_eps_delta(eps, delta):
    if not 0 < eps < 1:
        raise ValueError("eps must lie in (0, 1)")
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")


def hamming_packing_bound(n, eps):
    """Guaranteed packing size in the n-cube: ceil(exp(2 (0.5-2 eps)^2 n))."""
    if not 0 < eps <= 0.25:
        raise ValueError("eps must lie in (0, 1/4]")
    return math.ceil(math.exp(2.0 * (0.5 - 2.0 * eps) ** 2 * n))


def hamming_packing(n, eps, seed=0, restarts=HAMMING_RESTARTS):
    """Binary codewords at pairwise normalized Hamming distance >= 2 eps,
    at least ceil(exp(2 (0.5-2 eps)^2 n)) of them.

    Greedy selection over fair-coin candidates, starting from the zero
    codeword, with seeded restarts; the per-restart candidate budget is
    50 * bound.  Exhausting every restart raises, carrying the best count
    found, since the guarantee says a packing of that size exists.
    """
    n = int(n)
    if n < 1:
        raise ValueError("dimension must be >= 1")
    bound = hamming_packing_bound(n, eps)
    threshold = 2.0 * eps
    best = 0
    for r in range(restarts):
        rng = np.random.default_rng([seed, r])
        selected = np.zeros((1, n), dtype=np.uint8)
        for _ in range(50 * bound):
            if len(selected) >= bound:
                break
            cand = rng.integers(0, 2, size=n, dtype=np.uint8)
            dists = np.mean(selected != cand, axis=1)
            if float(np.min(dists)) >= threshold:
                selected = np.vstack([selected, cand])
        best = max(best, len(selected))
        if len(selected) >= bound:
            return selected
    raise PackingShortfallError(
        f"packing of size {bound} not reached after {restarts} restarts "
        f"(best {best})", best)
