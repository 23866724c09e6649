"""Sample-complexity bounds from covering and packing numbers.

The upper bound turns an eps/2-cover of size k into a sample count
ceil((32/eps) * log2(k/delta)); the lower bound is the base-2 log of a
2eps-packing.  Greedy constructions provide verified covers and packings
over finite concept families.

``hamming_packing`` realizes the binary-cube packing guarantee: at least
ceil(exp(2 (0.5 - 2 eps)^2 n)) codewords at pairwise normalized Hamming
distance >= 2 eps, built greedily from fair-coin candidates; a guarantee
beyond ``ENUMERATION_CAP`` codewords or bound * bound * n bit comparisons
is refused with ``EnumerationCapError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .concepts import ENUMERATION_CAP, EnumerationCapError, l1_distance
from .measures import AtomicMeasure

HAMMING_RESTARTS = 50


class PackingShortfallError(RuntimeError):
    """The randomized packing construction missed its guaranteed size."""

    def __init__(self, message, best_found):
        super().__init__(message)
        self.best_found = best_found


class FiniteFamily:
    """A finite list of concepts with L1 geometry from a fixed measure.

    For an atomic measure distance rows come from one ``membership_matrix``;
    any other measure takes exact pairwise distances.
    """

    def __init__(self, concepts, measure):
        concepts = tuple(concepts)
        if not concepts:
            raise ValueError("a finite family needs at least one concept")
        self.concepts = concepts
        self.measure = measure
        self._memberships = (measure.membership_matrix(concepts)
                             if isinstance(measure, AtomicMeasure) else None)
        self._matrix = None

    def __len__(self):
        return len(self.concepts)

    def distance_matrix(self):
        if self._matrix is None:
            n = len(self.concepts)
            if self._memberships is not None:
                self._matrix = np.array([self.distances_to(j) for j in range(n)])
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
        if self._memberships is not None:
            return _distance_row(self._memberships, self.measure.masses, j)
        return self.distance_matrix()[j]


def _distance_row(memberships, masses, j):
    # The one atomic distance kernel: the mass of each member's disagreement
    # with member j.
    return (memberships != memberships[j]) @ masses


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


def _greedy_rows(count, row, radius):
    # Index-order greedy: the first member still alive is selected, and its
    # distance row retires every member closer than radius (itself included).
    alive = np.ones(count, dtype=bool)
    selected = []
    rows = []
    while alive.any():
        i = int(np.argmax(alive))
        selected.append(i)
        rows.append(row(i))
        alive &= rows[-1] >= radius
    return tuple(selected), rows


def greedy_packing(family, radius):
    """Maximal-by-inclusion greedy radius-separated subset, in index order."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    idx, rows = _greedy_rows(len(family), family.distances_to, radius)
    # The separation check reads the selected columns of the rows it used.
    dists = np.array(rows)[:, idx][np.triu_indices(len(idx), k=1)]
    return PackingResult(idx, float(radius), False, dists)


def greedy_packing_memberships(memberships, masses, radius):
    """Greedy packing over a membership-matrix family, without
    materializing concept objects.  Equivalent to index-order greedy.
    Returns the selected indices and each one's distance row to all members.
    """
    memberships = np.asarray(memberships, dtype=bool)
    masses = np.asarray(masses, dtype=float)
    return _greedy_rows(len(memberships),
                        lambda j: _distance_row(memberships, masses, j), radius)


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
    """Guaranteed packing size in the n-cube: ceil(exp(2 (0.5-2 eps)^2 n)),
    refused by its exponent before ``exp`` when beyond ``ENUMERATION_CAP``,
    and when bound * bound * n, the greedy's bit comparisons, is."""
    if not 0 < eps <= 0.25:
        raise ValueError("eps must lie in (0, 1/4]")
    exponent = 2.0 * (0.5 - 2.0 * eps) ** 2 * n
    if exponent > math.log(ENUMERATION_CAP):
        raise EnumerationCapError(f"a packing of exp({exponent:.6g}) codewords"
                                  f" exceeds the cap {ENUMERATION_CAP}")
    bound = math.ceil(math.exp(exponent))
    if bound * bound * n > ENUMERATION_CAP:
        raise EnumerationCapError(f"{bound} codewords of length {n} take "
                                  f"{bound * bound * n:.3g} comparisons, "
                                  f"beyond the cap {ENUMERATION_CAP}")
    return bound


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
        f"packing of size {bound} not reached after {restarts} restarts "
        f"(best {best})", best)
