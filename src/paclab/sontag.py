"""The binary-output sigmoidal network and its exact weight solver.

The network has a single real input x, one learnable weight w, two hidden
units with the activation ``phi`` fed by w and -w, and a threshold output
unit.  The hidden-layer cancellation collapses the input-output map to
eta(rho(x)) with rho(x) = 2 cos(wx) / (alpha (1 + w^2 x^2)); since the
prefactor is positive, the binary output equals the sign test
cos(wx) >= 0 exactly.

``shatter_search`` finds the least weight realizing a prescribed labeling
of given points by sweeping the merged breakpoints of the per-point
feasible-weight arc sets; ``shatter_census`` answers every labeling of the
points from one such sweep, sharing its breakpoints and label patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ALPHA_MIN = 2.0 * math.pi
DEFAULT_ALPHA = 100.0
DEFAULT_BUDGET = 10 ** 8
_BLOCK_BREAKPOINTS = 65_536
MAX_CENSUS_POINTS = 24


def _check_alpha(alpha):
    if not alpha >= ALPHA_MIN:
        raise ValueError(f"alpha must be >= 2*pi, got {alpha}")


def phi(x, alpha=DEFAULT_ALPHA):
    """Activation sigmoid: arctan(x)/pi + cos(x)/(alpha (1+x^2)) + 1/2.

    Accepts scalars or arrays; the value stays strictly inside (0, 1) for
    every alpha >= 2*pi.
    """
    _check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    out = np.arctan(x) / np.pi + np.cos(x) / (alpha * (1.0 + x * x)) + 0.5
    return float(out) if out.ndim == 0 else out


def rho(x, w, alpha=DEFAULT_ALPHA):
    """Closed form of the two-unit composition: 2 cos(wx) / (alpha (1+(wx)^2))."""
    _check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    t = w * x
    out = 2.0 * np.cos(t) / (alpha * (1.0 + t * t))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class SontagParams:
    """Network parameters: the learnable weight w and activation constant alpha."""

    w: float
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        _check_alpha(self.alpha)
        if not math.isfinite(self.w) or self.w < 0:
            raise ValueError(f"weight must be finite and >= 0, got {self.w}")


def net_output(x, params):
    """Thresholded network output: 1 iff rho(x) >= 0, i.e. cos(wx) >= 0.

    The threshold unit fires at equality, so the output-1 region is closed.
    """
    return int(rho(x, params.w, params.alpha) >= 0.0)


def net_output_composed(x, params):
    """Network output through the explicit wiring: hidden units phi(wx) and
    phi(-wx) feed an output perceptron with unit weights and threshold one.

    Agrees with ``net_output`` because phi(t) + phi(-t) - 1 collapses to the
    closed form rho.
    """
    t = params.w * x
    return int(phi(t, params.alpha) + phi(-t, params.alpha) - 1.0 >= 0.0)


def output_labels(xs, w, alpha=DEFAULT_ALPHA):
    """Vectorized network output over an array of inputs."""
    _check_alpha(alpha)
    t = w * np.asarray(xs, dtype=float)
    return 2.0 * np.cos(t) / (alpha * (1.0 + t * t)) >= 0.0


def cos_sign_intervals(w, lo, hi):
    """The set {x in [lo, hi] : cos(wx) >= 0} as closed intervals.

    Exact arc decomposition: for w > 0 the set is the union of
    [(2k pi - pi/2)/w, (2k pi + pi/2)/w] over integers k, clipped to the
    window; w == 0 gives the whole window.
    """
    if w < 0:
        raise ValueError("weight must be >= 0")
    if w == 0.0:
        return [(lo, hi)]
    k_lo = math.ceil((lo * w - math.pi / 2) / (2 * math.pi)) - 1
    k_hi = math.floor((hi * w + math.pi / 2) / (2 * math.pi)) + 1
    ks = np.arange(k_lo, k_hi + 1)
    starts = (2 * np.pi * ks - np.pi / 2) / w
    ends = (2 * np.pi * ks + np.pi / 2) / w
    out = []
    for a, b in zip(starts, ends):
        a2, b2 = max(float(a), lo), min(float(b), hi)
        if a2 <= b2:
            out.append((a2, b2))
    return out


@dataclass(frozen=True)
class ArcSet:
    """A finite union of half-open weight intervals [lo, hi) within [0, w_max].

    Canonical: sorted, disjoint, touching arcs merged.  Complement and
    intersection are exact endpoint arithmetic, and complementation within
    [0, w_max) is an involution.
    """

    intervals: tuple
    w_max: float

    @classmethod
    def from_arcs(cls, arcs, w_max):
        arcs = sorted((float(lo), float(hi)) for lo, hi in arcs)
        merged: list[list[float]] = []
        for lo, hi in arcs:
            lo, hi = max(lo, 0.0), min(hi, w_max)
            if hi <= lo:
                continue
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        return cls(tuple((lo, hi) for lo, hi in merged), float(w_max))

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
        return sum(hi - lo for lo, hi in self.intervals)

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
        out = []
        i = j = 0
        a, b = self.intervals, other.intervals
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] < b[j][1]:
                i += 1
            else:
                j += 1
        return ArcSet(tuple(out), self.w_max)


def feasible_weights(x, label, w_max):
    """Weights w in [0, w_max) whose network output at x equals the label.

    For label 1 these are the arcs where cos(wx) >= 0; for label 0, their
    complement.  x == 0 forces label 1, so (x=0, label=0) yields the empty
    arc set rather than an exception.
    """
    w_max = float(w_max)
    if w_max <= 0:
        raise ValueError("w_max must be positive")
    if label not in (0, 1):
        raise ValueError("label must be 0 or 1")
    if x == 0.0:
        if label == 1:
            return ArcSet(((0.0, w_max),), w_max)
        return ArcSet((), w_max)
    ax = abs(float(x))
    k_hi = math.floor((w_max * ax + math.pi / 2) / (2 * math.pi)) + 1
    arcs = [((2 * math.pi * k - math.pi / 2) / ax,
             (2 * math.pi * k + math.pi / 2) / ax) for k in range(0, k_hi + 1)]
    ones = ArcSet.from_arcs(arcs, w_max)
    return ones if label == 1 else ones.complement()


@dataclass(frozen=True)
class ShatterResult:
    """Outcome of a feasible-weight search for one labeling."""

    labels: tuple
    status: str  # "found" | "infeasible" | "budget_exceeded"
    witness_w: float | None
    range_searched: tuple
    breakpoints: int

    @property
    def found(self):
        return self.status == "found"

    def to_json(self):
        return {"labels": list(self.labels),
                "witness_w": self.witness_w,
                "status": self.status,
                "range_searched": list(self.range_searched)}


def _breakpoints_in(ax, lo, hi):
    # Zeros of cos(w*x) for w in (lo, hi]: w = (k + 1/2) * pi / |x|.
    k_lo = math.ceil(lo * ax / math.pi - 0.5)
    k_hi = math.floor(hi * ax / math.pi - 0.5)
    if k_hi < k_lo:
        return np.empty(0)
    ks = np.arange(max(k_lo, 0), k_hi + 1)
    bps = (ks + 0.5) * math.pi / ax
    return bps[(bps > lo) & (bps <= hi)]


def _sweep(xs, labs, w_max, alpha, w_min, budget):
    """One ShatterResult per row of the boolean labeling matrix ``labs``:
    blocks, edges, midpoints and label patterns depend only on the points,
    so one sweep serves every row and only the final comparison is per row."""
    if len(np.unique(xs)) != len(xs):
        raise ValueError("points must be pairwise distinct")
    _check_alpha(alpha)
    w_max = float(w_max)
    w_min = float(w_min)
    if not 0.0 <= w_min < w_max:
        raise ValueError("need 0 <= w_min < w_max")

    def verified(w, lab):
        return bool(np.all(output_labels(xs, w, alpha) == lab))

    # Per row: (status, witness, end of the range searched, breakpoints).
    outcome = [None] * len(labs)
    # A zero input always outputs 1, so a 0-label there is unsatisfiable.
    zero_mask = xs == 0.0
    for r, lab in enumerate(labs):
        if verified(w_min, lab):
            outcome[r] = ("found", w_min, w_min, 0)
        elif np.any(zero_mask & ~lab):
            outcome[r] = ("infeasible", None, w_max, 0)
    open_rows = [r for r, o in enumerate(outcome) if o is None]
    # Without a nonzero point no row stays open: all-ones verifies at w_min.
    axs = np.abs(xs[~zero_mask])

    rate = float(np.sum(axs)) / math.pi  # breakpoints per unit weight
    block_w = max(_BLOCK_BREAKPOINTS / max(rate, 1e-12), 1.0)
    used = 0
    lo = w_min
    while open_rows and lo < w_max:
        hi = min(lo + block_w, w_max)
        bps = np.concatenate([_breakpoints_in(ax, lo, hi) for ax in axs])
        bps = np.unique(bps)
        used += len(bps)
        edges = np.concatenate([[lo], bps]) if len(bps) else np.array([lo])
        if edges[-1] < hi:
            edges = np.concatenate([edges, [hi]])
        mids = 0.5 * (edges[:-1] + edges[1:])
        pattern = np.cos(np.outer(mids, xs)) >= 0.0
        # Candidates in interval order, the left edge before the midpoint.
        cands = np.column_stack([edges[:-1], mids])
        for r in open_rows:
            hits = map(float, cands[np.all(pattern == labs[r], axis=1)].flat)
            witness = next((w for w in hits if verified(w, labs[r])), None)
            if witness is not None:
                outcome[r] = ("found", witness, witness, used)
            elif used > budget:
                outcome[r] = ("budget_exceeded", None, hi, used)
        open_rows = [r for r in open_rows if outcome[r] is None]
        lo = hi
    for r in open_rows:
        outcome[r] = ("infeasible", None, w_max, used)
    return [ShatterResult(tuple(int(b) for b in lab), status, w,
                          (w_min, covered), n_bps)
            for lab, (status, w, covered, n_bps) in zip(labs, outcome)]


def shatter_search(points, labels, w_max, alpha=DEFAULT_ALPHA, w_min=0.0,
                   budget=DEFAULT_BUDGET):
    """Least weight w in [w_min, w_max] realizing the labeling, if any.

    Sweep-line over the merged breakpoints of the per-point feasible arcs:
    between consecutive breakpoints the label vector is constant, so each
    elementary interval is tested once.  A found witness is verified against
    the network output before being returned; when the infimum of a feasible
    region is an open endpoint, the midpoint of the elementary interval is
    returned instead.

    Exceeding the breakpoint budget yields status "budget_exceeded" together
    with the weight range actually covered.
    """
    xs = np.asarray(points, dtype=float)
    labs = np.asarray(labels, dtype=bool)
    if xs.shape != labs.shape:
        raise ValueError("points and labels must have equal length")
    return _sweep(xs, labs[None, :], w_max, alpha, w_min, budget)[0]


@dataclass(frozen=True)
class CensusResult:
    """Per-labeling witness search over all 2**n labelings of the points."""

    points: tuple
    w_max: float
    entries: tuple = field(repr=False)

    @property
    def realized(self):
        return sum(1 for e in self.entries if e.found)

    @property
    def total(self):
        return len(self.entries)

    def to_json(self):
        return {"points": list(self.points), "w_max": self.w_max,
                "realized": self.realized, "total": self.total,
                "entries": [e.to_json() for e in self.entries]}


def shatter_census(points, w_max, alpha=DEFAULT_ALPHA, threads=1,
                   budget=DEFAULT_BUDGET):
    """Least witness for every labeling of the points, from one sweep.

    Labeling i assigns bit (i >> j) & 1 to point j, and entry i equals
    ``shatter_search(points, labeling i, w_max, alpha, budget=budget)``.
    ``threads`` is accepted for compatibility and ignored.
    """
    points = tuple(float(p) for p in points)
    n = len(points)
    if n > MAX_CENSUS_POINTS:
        raise ValueError(f"census limited to {MAX_CENSUS_POINTS} points")
    labs = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(bool)
    entries = _sweep(np.asarray(points, dtype=float), labs, w_max, alpha,
                     0.0, budget)
    return CensusResult(points, float(w_max), tuple(entries))


def first_primes(n):
    """The first n primes as Python ints, by a sieve of Eratosthenes.

    The sieve runs below n (ln n + ln ln n) + 1, which exceeds the n-th prime
    for n >= 6 (Rosser 1939); smaller n sieve below 12 (the fifth prime is 11).
    """
    n = max(n, 0)
    limit = 12 if n < 6 else int(n * (math.log(n) + math.log(math.log(n)))) + 1
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    primes = np.flatnonzero(sieve)[:n].tolist()
    if len(primes) < n:
        raise AssertionError(f"sieve below {limit} found {len(primes)} of "
                             f"{n} primes")
    return primes


def rationally_independent_points(n):
    """Logs of the first n primes: rationally independent over the rationals
    by unique factorization (as reals; double precision approximates them).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [math.log(p) for p in first_primes(n)]
