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
sweep.  Each elementary interval between events has one state, its label
code or a lone labeling's count of mismatched points, which a table read
by event code carries from interval to interval; a lookup from state to
labeling picks the intervals to verify against the network output.
``_sweep`` sets out its blocks, budget, index limit and jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import EnumerationCapError

ALPHA_MIN = 2.0 * math.pi
DEFAULT_ALPHA = 100.0
DEFAULT_BUDGET = 10 ** 8
_FIRST_BLOCK = 64
_LARGEST_BLOCK = 1 << 14  # bounds the memory of one block of events
_INDEX_LIMIT = 2 ** 52  # breakpoint indices below it are exact in a float
_LARGEST_SPAN = 1 << 16  # bounds the arc filter's arrays to 256 kB each
_MARGIN = 2.0 ** -40  # the arc filter's index slack per unit of index
_ARC_CELLS = 1 << 12  # arc x point cells the filter's second step takes
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


class _ArcFilter:
    """How far a one-row sweep may jump, from a float filter of the arcs of
    its fastest point p.

    p is labelled ``k odd`` on its arc from breakpoint k to k + 1.  On each
    arc where p has its target label, another point's index
    w |x| / pi - 1/2 (at least -1/2) is taken at the arc's ends with a
    margin of ``_MARGIN`` (index + 2), thousands of times its rounding,
    below at the left end and above at the right: the point's last
    breakpoint index anywhere on the arc lies between the floors of the
    two.

    1. Slowest point first, an arc is dropped when both floors are one
       integer of the wrong parity, until at most ``_ARC_CELLS`` arc x
       point cells are left.  Step 2 drops these arcs too, but one 1-D
       pass per point thins a long span for less than step 2's matrix.
    2. A point whose floors differ by one flips once on the arc, at its
       breakpoint as the sweep computes it, and has its target label on
       one side of the flip.  An arc is kept only if no point stays wrong
       across it and those sides overlap, widened by a relative
       ``_MARGIN``.

    A point of p's |x| has its breakpoints at p's arc ends, so its floors
    there are two apart and it drops no arc.  A float decides only a drop,
    and the sweep still makes every exact decision.
    """

    def __init__(self, axs, target):
        self.axs, self.target = axs, target
        # Slowest point first, p last.
        order = np.argsort(axs, kind="stable")
        self.p = int(order[-1])
        q = self.others = order[:-1]
        low, high = 1.0 - _MARGIN, 1.0 + _MARGIN
        # Step 1: with t the target bit, index + t - 1 halved puts each
        # integer of the wrong parity at the start of a unit step, so both
        # ends lie on one such integer iff the floors of the shifted
        # halves agree.  A scale and a shift per end of an arc.
        t = target[q].astype(float)
        half = axs[q] / (2.0 * math.pi)
        self.steps = list(zip((half * low).tolist(),
                              ((t - 1.5 - 1.5 * _MARGIN) / 2).tolist(),
                              (half * high).tolist(),
                              ((t - 0.5 + 1.5 * _MARGIN) / 2).tolist()))
        # Step 2, one row per point: the floors shifted by t, even where
        # the point has its target label; the shift is exact, so the flip's
        # k + 3/2 is too.
        t = t[:, None]
        self.ax_q = axs[q][:, None]
        self.scale_lo = self.ax_q / math.pi * low
        self.shift_lo = 0.5 + 1.5 * _MARGIN - t
        self.scale_hi = self.ax_q / math.pi * high
        self.shift_hi = 0.5 - 1.5 * _MARGIN - t
        self.flip_at = 1.5 - t

    def __call__(self, k_lo, lo, w_end, most, span):
        """Where a sweep at ``lo`` with last indices ``k_lo`` may jump to.

        No interval of the sweep whose left edge lies in (lo, to) has every
        point at its target label.  ``to`` is the left end of p's first
        arc kept, searched ``span`` breakpoints at a time, doubling up to
        ``_LARGEST_SPAN``; the search stops below ``w_end`` and after p's
        share |x_p| / sum |x| of ``most`` breakpoints, about where all
        points sweep ``most``, and ``to`` is then the last breakpoint
        examined.  ``to`` <= lo means no jump.
        """
        ax = self.axs[self.p]
        k = int(k_lo[self.p])
        k_end = min(math.floor(w_end * ax / math.pi - 0.5) - 1,
                    k + math.floor(most * ax / self.axs.sum()))
        to = lo
        while k < k_end:
            k1 = min(k + span, k_end)
            kept = self._first_kept(k, k1)
            if kept is not None:
                return kept
            to = float((k1 + 0.5) * math.pi / ax)
            k, span = k1, min(2 * span, _LARGEST_SPAN)
        return to

    def _first_kept(self, k0, k1):
        # The left end of p's first arc from breakpoint k0 to k1 that the
        # filter keeps, or None.  Breakpoints are computed as the sweep
        # computes them; arc k0 begins at or before the sweep's lo, so a
        # jump passes it only when it is dropped.
        axs, p, q = self.axs, self.p, self.others
        # The arcs where p has its target label, every other one, by their
        # two ends: breakpoints k and k + 1.
        k = k0 + int(((k0 & 1) == 1) != self.target[p])
        lower = np.arange(k + 0.5, k1, 2.0) * math.pi / axs[p]
        upper = np.arange(k + 1.5, k1 + 1, 2.0) * math.pi / axs[p]
        done = 0
        for scale_lo, shift_lo, scale_hi, shift_hi in self.steps:
            if len(lower) * (len(q) - done) <= _ARC_CELLS:
                break
            kept = np.flatnonzero(np.floor(lower * scale_lo + shift_lo)
                                  != np.floor(upper * scale_hi + shift_hi))
            lower, upper = lower.take(kept), upper.take(kept)
            done += 1
        rows = max(1, _ARC_CELLS // max(len(q), 1))
        for start in range(0, len(lower), rows):
            starts = lower[start:start + rows]
            ends = upper[start:start + rows]
            k_first = np.floor(starts * self.scale_lo - self.shift_lo)
            k_last = np.floor(ends * self.scale_hi - self.shift_hi)
            on_target = (k_first.astype(np.int64) & 1) == 0
            flip = k_first + 1.0 == k_last
            # Each point's one breakpoint on the arc, as the sweep computes
            # it, and the side of it where the point has its target label.
            at = (k_first + self.flip_at) * math.pi / self.ax_q
            top = np.where(flip & on_target, at, ends).min(
                axis=0, initial=math.inf)
            bottom = np.where(flip > on_target, at, starts).max(
                axis=0, initial=-math.inf)
            keep = ((bottom <= top * (1.0 + _MARGIN))
                    & ~((k_first == k_last) > on_target).any(axis=0))
            if keep.any():
                return float(starts[np.argmax(keep)])
        return None


def _results(labs, outcome, w_min):
    return [ShatterResult(tuple(lab.tolist()), status, w, (w_min, covered),
                          n_bps)
            for lab, (status, w, covered, n_bps)
            in zip(labs.astype(np.int8), outcome)]


def _sweep(xs, labs, w_max, w_min, budget):
    """One ShatterResult per row of the boolean labeling matrix ``labs``.

    The events are the breakpoints w = (k + 1/2) pi / |x|, k >= 0, of the
    nonzero points in weight order; after its breakpoint k a point is
    labelled ``k odd``.  Events come in blocks (lo, hi] that double from
    ``_FIRST_BLOCK`` to ``_LARGEST_BLOCK`` breakpoints, made from every
    point's last indices at lo and at hi and ordered by one sort of uint64
    keys: the event time's bit offset from the block's base above the
    event code 2 * point + (k & 1), hi capped so that every offset fits.

    Each elementary interval has one state, linear in its labels: with
    several rows the label code, so at most ``MAX_CENSUS_POINTS`` nonzero
    points; with one row, which may have any number of points, its count of
    mismatched points.  A table indexed by the event code holds each event's
    change of state, and one cumsum per block gives every interval's state.
    A dense lookup from state to open labeling, equal rows sharing one,
    picks the intervals to verify; a labeling is settled by the first that
    verifies, at its left edge and then its midpoint.  The open interval and
    its state carry across blocks, so no result depends on them.

    Once a single labeling is open after a block, the open interval is not
    its, and its 2**n intervals, in which a labeling of n points turns up
    about once, outnumber the next two blocks, the sweep may jump to where
    ``_ArcFilter`` says its fastest point's first arc that may hold a
    witness begins: the last indices, the state and the open interval are
    re-read there, and the events skipped are counted, not made.  At most
    ``budget`` breakpoints are swept, counted once per point, a group of
    equal times whole or not at all, all of them below ``w_stop``, where
    indices near 2**52 begin; either limit ends the labelings still open as
    "budget_exceeded", their range ending at the last breakpoint swept
    (w_min when there is none), and no jump passes either limit or w_max."""
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
    if w_min >= w_stop or not len(live):
        return _results(labs, [o or ("budget_exceeded", None, w_min, 0)
                               for o in outcome], w_min)
    targets = labs[live][:, ~zero_mask]
    # A state is linear in the labels: one row counts its mismatched points,
    # and several rows take the label code.
    if len(live) == 1:
        weight, bias = np.where(targets[0], -1, 1), targets[0].sum()
        row_at = np.full(len(axs) + 1, -1)
    else:
        assert len(axs) <= MAX_CENSUS_POINTS, "more points than a census"
        weight, bias = np.left_shift(1, np.arange(len(axs))), 0
        row_at = np.full(1 << len(axs), -1)
    # Event code 2 * point + parity gives the point the label ``parity``,
    # so it moves the state by -+ the point's weight.
    table = np.outer(weight, (-1, 1)).ravel()
    # From each state to the open labeling there, -1 where none is; one of
    # equal rows stands for them all.
    keys = targets @ weight + bias
    row_at[keys] = live
    row_of = row_at.take(keys)
    k_lo = _last_indices(axs, w_min)
    state = ((k_lo & 1) == 1) @ weight + bias

    rate = float(np.sum(axs)) / math.pi  # breakpoints per unit weight
    # Codes fit below bit ``shift``; no event lies below lo or ``first``.
    shift = (2 * len(axs) - 1).bit_length()
    first = 0.5 * math.pi / axs.max()
    size = _FIRST_BLOCK
    used = 0  # breakpoints swept before this block, one per point
    left = lo = w_min  # left edge of the open interval, end of the sweep
    wait = 1 << len(axs)  # 1 in 2**n intervals has a labeling; 0: no jumps
    arcs = None  # the arc filter of the one labeling left
    while True:
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
        # States are read only at the last event of a group of equal
        # times, so the order within a group needs no stable sort.
        key.sort()
        code = (key & ((1 << shift) - 1)).view(np.int64)
        key >>= shift
        # The last event of each group of equal times closes an interval;
        # a group is swept whole or not at all.
        ends = np.flatnonzero(np.append(key[1:] != key[:-1], len(key) > 0))
        exhausted = used + len(key) > budget
        if exhausted:
            ends = ends[:np.searchsorted(ends, budget - used)]
        exhausted = exhausted or w_stop < w_max and hi == w_stop
        edges = np.append(left, (key[ends] + base).view(np.float64))
        last = exhausted or hi >= w_max
        if last:
            # The last interval ends with the sweep: at its own left edge
            # when the budget or w_stop stops it, else at w_max.
            edges = np.append(edges, edges[-1] if exhausted else w_max)
        # The state before the block, then after each interval it closes.
        states = np.append(state, state + table.take(code).cumsum().take(ends))
        state = states[-1]
        # The intervals whose state is an open labeling's, in order: each
        # labeling is settled by the first that verifies, at its left edge
        # and then its midpoint.
        d = row_at.take(states[:len(edges) - 1])
        for j in np.flatnonzero(d >= 0).tolist():
            r, a, b = int(d[j]), float(edges[j]), float(edges[j + 1])
            for w in (a, 0.5 * (a + b)) if b > a else (a,):
                if outcome[r] is None and np.all(
                        output_labels(xs, w) == labs[r]):
                    # The breakpoints swept up to the interval's left edge.
                    swept = used + (int(ends[j - 1]) + 1 if j else 0)
                    outcome[r] = ("found", w, w, swept)
                    row_at[states[j]] = -1
        used += int(ends[-1]) + 1 if len(ends) else 0
        left, lo, k_lo = float(edges[-1]), hi, k_hi
        n_open = np.count_nonzero(row_at >= 0)
        if last or not n_open:
            break
        size = min(2 * size, _LARGEST_BLOCK)
        # One labeling left, not due within two blocks: jump to the first
        # arc of the fastest point that may hold its witness.
        if wait > 2 * size and n_open == 1 and row_at[state] < 0:
            # The labeling left stays the same until it is settled.
            arcs = arcs or _ArcFilter(axs, labs[row_at.max()][~zero_mask])
            w_end = min(w_max, w_stop)
            to = arcs(k_lo, lo, w_end, budget - used, size)
            if lo < to < w_end:
                k_to = _last_indices(axs, to)
                skipped = int((k_to - k_lo).sum())
                if used + skipped > budget:
                    wait = 0
                else:
                    used += skipped
                    left = lo = to
                    k_lo = k_to
                    state = ((k_lo & 1) == 1) @ weight + bias
    unfound = (("budget_exceeded", None, left, used) if exhausted
               else ("infeasible", None, w_max, used))
    for r, i in zip(live.tolist(), row_of.tolist()):
        outcome[r] = outcome[i] or unfound
    return _results(labs, outcome, w_min)


def shatter_search(points, labels, w_max, w_min=0.0, budget=DEFAULT_BUDGET):
    """Least weight w in [w_min, w_max] realizing the labeling, if any.

    Sweep-line over the merged breakpoints of the per-point feasible arcs:
    between consecutive breakpoints the label vector is constant, so each
    elementary interval is tested once.  A found witness is verified against
    the network output before being returned; when the infimum of a feasible
    region is an open endpoint, the midpoint of the elementary interval is
    returned instead.

    Breakpoints count once per nonzero point, so two points sharing one
    count it twice.  A search that would sweep more than ``budget`` of
    them stops with status "budget_exceeded" after the last group of
    equal breakpoints that fits; its range ends at that breakpoint.
    ``breakpoints`` counts those swept: for a found witness, the ones at
    or below the left edge of its elementary interval.  Weights that the
    arc filter clears are skipped but counted.
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
    ``threads`` is accepted for compatibility and ignored.  More than
    ``MAX_CENSUS_POINTS`` points raise ``EnumerationCapError`` before any
    sweep.
    """
    points = tuple(float(p) for p in points)
    n = len(points)
    if n > MAX_CENSUS_POINTS:
        raise EnumerationCapError(f"census of {n} > {MAX_CENSUS_POINTS} "
                                  "points")
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
