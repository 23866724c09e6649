"""The binary-output sigmoidal network and its exact weight solver.

The network has a single real input x, one learnable weight w, two hidden
units with the activation ``phi`` fed by w and -w, and a threshold output
unit.  The hidden-layer cancellation collapses the input-output map to
eta(rho(x)) with rho(x) = 2 cos(wx) / (alpha (1 + w^2 x^2)); since the
prefactor is positive, the binary output equals the sign test
cos(wx) >= 0 exactly.

The activation constant therefore shapes ``phi`` and ``rho`` but no label,
so the search and census take none.  ``shatter_search`` finds the least
weight realizing a prescribed labeling of given points by sweeping the
merged zeros of cos(wx) over the points as events, each flipping one
point's label; ``shatter_census`` answers every labeling from one such
sweep, the open labelings of a block sharing one cumulative sum of their
mismatch steps.  The sweep makes each block of events array-wide from
every point's last breakpoint index at the block's two ends and sorts
them as packed uint64 keys; indices must stay below 2**52, where a float
still holds k + 1/2 exactly, so the sweep stops short of that index as it
stops at its budget, leaving the rows still open "budget_exceeded".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ALPHA_MIN = 2.0 * math.pi
DEFAULT_ALPHA = 100.0
DEFAULT_BUDGET = 10 ** 8
_FIRST_BLOCK = 64
_LARGEST_BLOCK = 1 << 14  # bounds the memory of one block of events
_BLOCK_CELLS = 1 << 18  # bounds a block's open rows x events in one cumsum
_INDEX_LIMIT = 2 ** 52  # breakpoint indices below it are exact in a float
MAX_CENSUS_POINTS = 18
_INF_BITS = 0x7FF0000000000000  # the bit pattern of +inf


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


def output_labels(xs, w):
    """Vectorized network output over an array of inputs, through the closed
    form ``rho`` at ``DEFAULT_ALPHA``: every admissible activation constant
    gives the same labels."""
    return rho(xs, w) >= 0.0


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


def _cos_sign_measure(t):
    # |{s in [0, t] : cos s >= 0}|, signed for t < 0: pi per whole period
    # plus the part below s of the period's arcs [0, pi/2] and [3pi/2, 2pi].
    m, s = divmod(t, 2.0 * math.pi)
    return m * math.pi + min(s, math.pi / 2) + max(0.0, s - 1.5 * math.pi)


def cos_sign_fraction(w, lo, hi):
    """The share of [lo, hi] where cos(wx) >= 0, in closed form:
    (L(w hi) - L(w lo)) / (w (hi - lo)) with L(T) the length of
    {s in [0, T] : cos s >= 0}; w == 0 gives 1."""
    if w < 0:
        raise ValueError("weight must be >= 0")
    if w == 0.0:
        return 1.0
    return ((_cos_sign_measure(w * hi) - _cos_sign_measure(w * lo))
            / (w * (hi - lo)))


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


def _last_indices(axs, w):
    # Per point, the largest k >= -1 whose computed breakpoint
    # (k + 1/2) pi / ax is <= w, settled against the same float expression
    # the events evaluate.  The float estimate is off by a few units at
    # most, and k + 1.5 must stay exact, so indices stop short of 2**52.
    turns = w * axs / math.pi
    if np.any(turns >= _INDEX_LIMIT - 8):
        raise ValueError(f"weight {w} is beyond exact breakpoint indexing: "
                         f"indices reach 2**52")
    k = np.maximum(np.floor(turns - 0.5), -1).astype(np.int64)
    while np.any(over := (k >= 0) & ((k + 0.5) * math.pi / axs > w)):
        k -= over
    while np.any(under := (k + 1.5) * math.pi / axs <= w):
        k += under
    return k


def _sweep(xs, labs, w_max, w_min, budget):
    """One ShatterResult per row of the boolean labeling matrix ``labs``.

    The events are the breakpoints of the nonzero points in weight order:
    the zeros w = (k + 1/2) pi / |x| of cos(w x), k >= 0.  After its
    breakpoint k a point is labelled ``k odd``, so each row's count of
    mismatched points moves by one per event.  Events come in blocks that
    double from ``_FIRST_BLOCK`` to ``_LARGEST_BLOCK`` breakpoints; a block
    (lo, hi] holds, per point, the indices between its last indices at lo
    and at hi.  One sort of uint64 keys orders them: a key is the event
    time's bit offset from the block's base above the event code
    2 * point + (k & 1), and hi is capped so that every offset fits.  The
    open rows read their +-1 steps from a table indexed by the event code;
    one take/cumsum/take over at most ``_BLOCK_CELLS`` row x event cells
    gives a chunk of rows their counts, and only rows whose count reaches
    zero are searched.  The open interval and every row's count carry
    across block and chunk boundaries, so no result depends on them.  At
    most ``budget`` breakpoints are swept, all of them below ``w_stop``,
    where indices near 2**52 begin; either limit ends the rows still open
    as "budget_exceeded", their range ending at the last breakpoint swept
    (w_min when there is none)."""
    if len(np.unique(xs)) != len(xs):
        raise ValueError("points must be pairwise distinct")
    w_max = float(w_max)
    w_min = float(w_min)
    if not 0.0 <= w_min < w_max:
        raise ValueError("need 0 <= w_min < w_max")

    # A zero input always outputs 1, so a 0-label there is unsatisfiable.
    zero_mask = xs == 0.0
    at_min = (output_labels(xs, w_min) == labs).all(axis=1)
    blocked = ~labs[:, zero_mask].all(axis=1)
    # Per row: (status, witness, end of the range searched, breakpoints).
    outcome = [("found", w_min, w_min, 0) if f
               else ("infeasible", None, w_max, 0) if b else None
               for f, b in zip(at_min.tolist(), blocked.tolist())]
    live = (~(at_min | blocked)).nonzero()[0]  # the rows still open
    # Without a nonzero point no row stays open: all-ones verifies at w_min.
    axs = np.abs(xs[~zero_mask])
    # The sweep stops at w_stop, 8 indices short of the guard in
    # _last_indices to absorb the rounding of this quotient.
    w_stop = ((_INDEX_LIMIT - 16) * math.pi / axs.max() if len(axs)
              else math.inf)
    if w_min >= w_stop:
        outcome = [o or ("budget_exceeded", None, w_min, 0) for o in outcome]
        live = live[:0]
    targets = labs[live][:, ~zero_mask]
    # Event code 2 * point + parity steps a row's count down where the
    # point reaches its target label, and up elsewhere.
    steps = np.where(targets[:, :, None] == np.array([False, True]),
                     np.int8(-1), np.int8(1)).reshape(len(live), 2 * len(axs))
    k_lo = (_last_indices(axs, w_min) if len(live)
            else np.zeros(len(axs), dtype=np.int64))
    mismatch = (((k_lo & 1) == 1) != targets).sum(axis=1, keepdims=True)

    def search(r, edges, counts):
        # Intervals of count zero in order, the left edge before the midpoint.
        for j in np.flatnonzero(counts[:len(edges) - 1] == 0):
            left, right = float(edges[j]), float(edges[j + 1])
            for w in (left, 0.5 * (left + right)) if right > left else (left,):
                if np.all(output_labels(xs, w) == labs[r]):
                    outcome[r] = ("found", w, w, used + int(j))
                    return True
        return False

    rate = float(np.sum(axs)) / math.pi  # breakpoints per unit weight
    # Codes fit below bit ``shift``; no event lies below lo or ``first``.
    shift = (2 * len(axs) - 1).bit_length()
    first = 0.5 * math.pi / axs.max() if len(axs) else math.inf
    size = _FIRST_BLOCK
    used = 0  # breakpoints swept before this block
    left = lo = w_min  # left edge of the open interval, end of the sweep
    while len(live):
        # The block ends before its bit offsets overflow the key.
        base = np.float64(max(lo, first)).view(np.uint64)
        top = min(base + ((1 << 64 - shift) - 1), _INF_BITS)
        hi = min(lo + size / max(rate, 1e-12), w_max, w_stop,
                 float(np.uint64(top).view(np.float64)))
        k_hi = _last_indices(axs, hi)
        # Point p's events are its indices k_lo[p] + 1 .. k_hi[p], in
        # point order.
        per_point = k_hi - k_lo
        point = np.repeat(np.arange(len(axs)), per_point)
        ks = (np.repeat(k_lo + 1 - (np.cumsum(per_point) - per_point),
                        per_point) + np.arange(len(point)))
        key = ((ks + 0.5) * math.pi / axs[point]).view(np.uint64)
        key -= base
        key <<= shift
        key |= (2 * point + (ks & 1)).view(np.uint64)
        # Counts are read only at the last event of a group of equal
        # times, so the order within a group needs no stable sort.
        key.sort()
        code = (key & ((1 << shift) - 1)).view(np.int64)
        key >>= shift
        # The last event of each group of equal times closes an interval.
        ends = np.flatnonzero(np.append(key[1:] != key[:-1], len(key) > 0))
        exhausted = used + len(ends) > budget
        ends = ends[:budget - used] if exhausted else ends
        exhausted = exhausted or w_stop < w_max and hi == w_stop
        edges = np.append(left, (key[ends] + base).view(np.float64))
        last = exhausted or hi >= w_max
        if last:
            # The last interval ends with the sweep: at its own left edge
            # when the budget or w_stop stops it, else at w_max.
            edges = np.append(edges, edges[-1] if exhausted else w_max)
        chunk = max(1, _BLOCK_CELLS // max(len(code), 1))
        settled = []
        for start in range(0, len(live), chunk):
            part = slice(start, start + chunk)
            # Counts before the block, then after each interval it closes.
            sums = steps[part].astype(np.int64).take(code, axis=1)
            sums.cumsum(1, out=sums)
            before = mismatch[part]
            counts = np.concatenate(
                (before, before + sums.take(ends, axis=1)), axis=1)
            # Counts are never negative: a row hits zero where its least is 0.
            hits = counts[:, :len(edges) - 1].min(axis=1, initial=1) == 0
            settled += [start + i for i in hits.nonzero()[0]
                        if search(live[start + i], edges, counts[i])]
            mismatch[part] = counts[:, -1:]
        used += len(ends)
        left, lo, k_lo = float(edges[-1]), hi, k_hi
        if settled:
            keep = np.ones(len(live), dtype=bool)
            keep[settled] = False
            live, steps, mismatch = live[keep], steps[keep], mismatch[keep]
        if last:
            for r in live:
                outcome[r] = (("budget_exceeded", None, left, used)
                              if exhausted
                              else ("infeasible", None, w_max, used))
            break
        size = min(2 * size, _LARGEST_BLOCK)
    return [ShatterResult(tuple(int(b) for b in lab), status, w,
                          (w_min, covered), n_bps)
            for lab, (status, w, covered, n_bps) in zip(labs, outcome)]


def shatter_search(points, labels, w_max, w_min=0.0, budget=DEFAULT_BUDGET):
    """Least weight w in [w_min, w_max] realizing the labeling, if any.

    Sweep-line over the merged breakpoints of the per-point feasible arcs:
    between consecutive breakpoints the label vector is constant, so each
    elementary interval is tested once.  A found witness is verified against
    the network output before being returned; when the infimum of a feasible
    region is an open endpoint, the midpoint of the elementary interval is
    returned instead.

    A search that would sweep more than ``budget`` breakpoints stops after
    the budget-th with status "budget_exceeded"; its range ends at that
    breakpoint.  ``breakpoints`` counts those swept: for a found witness,
    the ones at or below the left edge of its elementary interval.
    """
    xs = np.asarray(points, dtype=float)
    labs = np.asarray(labels, dtype=bool)
    if xs.shape != labs.shape:
        raise ValueError("points and labels must have equal length")
    return _sweep(xs, labs[None, :], w_max, w_min, budget)[0]


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


def shatter_census(points, w_max, threads=1, budget=DEFAULT_BUDGET):
    """Least witness for every labeling of the points, from one sweep.

    Labeling i assigns bit (i >> j) & 1 to point j, and entry i equals
    ``shatter_search(points, labeling i, w_max, budget=budget)``.
    ``threads`` is accepted for compatibility and ignored.
    """
    points = tuple(float(p) for p in points)
    n = len(points)
    if n > MAX_CENSUS_POINTS:
        raise ValueError(f"census limited to {MAX_CENSUS_POINTS} points")
    labs = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(bool)
    entries = _sweep(np.asarray(points, dtype=float), labs, w_max, 0.0,
                     budget)
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
