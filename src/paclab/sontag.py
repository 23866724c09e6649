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
point's label; ``shatter_search_many`` searches many point sets at once,
and ``shatter_census`` answers every labeling of one, each from one sweep
that runs its problems in lockstep.  Each elementary interval between
events has one state, its label code or a lone labeling's count of
mismatched points, which a table read by event code carries from interval
to interval; a lookup from state to labeling picks the intervals to
verify against the network output, all of an iteration's in one call.
``_sweep`` sets out its iterations, budget, index limit and jumps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measures import check_cap

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
# The most periods of cos(wx) whose arcs ``cos_sign_intervals`` builds: at
# the edge, ``paclab distances`` of [5e5, 2] on [0, 2 pi] took 1.3 s, 210 MB.
MAX_SIGN_ARCS = 5 * 10 ** 5
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


def output_labels(xs, w):
    """Vectorized network output over an array of inputs: the sign test
    cos(wx) >= 0 itself, which every admissible activation constant gives,
    with no (wx)^2 to overflow where ``rho``'s denominator would."""
    return np.cos(w * np.asarray(xs, dtype=float)) >= 0.0


def cos_sign_intervals(w, lo, hi):
    """The set {x in [lo, hi] : cos(wx) >= 0} as closed intervals.

    Exact arc decomposition: for w > 0 the set is the union of
    [(2k pi - pi/2)/w, (2k pi + pi/2)/w] over integers k, clipped to the
    window; w == 0 gives the whole window.  Past ``MAX_SIGN_ARCS`` periods,
    ``EnumerationCapError`` is raised before any arc is built.  At a tiny w
    an arc end past the float range is infinite, and clipped to the window.
    """
    if w < 0:
        raise ValueError("weight must be >= 0")
    if w == 0.0:
        return [(lo, hi)]
    check_cap(f"periods of cos({w} x) in [{lo}, {hi}]",
              w * (hi - lo) / (2 * math.pi), MAX_SIGN_ARCS)
    k_lo = math.ceil((lo * w - math.pi / 2) / (2 * math.pi)) - 1
    k_hi = math.floor((hi * w + math.pi / 2) / (2 * math.pi)) + 1
    out = []
    for k in range(k_lo, k_hi + 1):
        a = max((2 * math.pi * k - math.pi / 2) / w, lo)
        b = min((2 * math.pi * k + math.pi / 2) / w, hi)
        if a <= b:
            out.append((a, b))
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


def _jump(axs, target, k_lo, lo, w_end, most, span):
    """How far a one-row sweep at ``lo`` with last indices ``k_lo`` may
    jump: to ``to``, the left end of the first arc of its fastest point p
    that a float filter keeps.  No interval of the sweep whose left edge
    lies in (lo, to) has every point at its ``target`` label.

    Arcs are searched some breakpoints at a time, from p's share
    |x_p| / sum |x| of the 2**n breakpoints in which a labeling of n points
    turns up about once, at least ``span``, doubling up to ``_LARGEST_SPAN``.
    The search stops below ``w_end`` and after p's share of ``most``
    breakpoints, about where all points sweep ``most``; ``to`` is then the
    last breakpoint examined, and ``to`` <= lo means no jump.

    p is labelled ``k odd`` on its arc from breakpoint k to k + 1.  On each
    arc where p has its target label, another point's index
    w |x| / pi - 1/2 (at least -1/2) is taken at the arc's ends with a
    margin of ``_MARGIN`` (index + 2), thousands of times its rounding,
    below at the left end and above at the right: the point's last
    breakpoint index anywhere on the arc lies between the floors of the two.

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
    # Slowest point first, p last.
    order = np.argsort(axs, kind="stable")
    p, q = int(order[-1]), order[:-1]
    low, high = 1.0 - _MARGIN, 1.0 + _MARGIN
    # Step 1: with t the target bit, index + t - 1 halved puts each integer
    # of the wrong parity at the start of a unit step, so both ends lie on
    # one such integer iff the floors of the shifted halves agree.  A scale
    # and a shift per end of an arc.
    t = target[q].astype(float)
    half = axs[q] / (2.0 * math.pi)
    steps = list(zip((half * low).tolist(),
                     ((t - 1.5 - 1.5 * _MARGIN) / 2).tolist(),
                     (half * high).tolist(),
                     ((t - 0.5 + 1.5 * _MARGIN) / 2).tolist()))
    # Step 2, one row per point: the floors shifted by t, even where the
    # point has its target label; the shift is exact, so the flip's k + 3/2
    # is too.
    t = t[:, None]
    ax_q = axs[q][:, None]
    scale_lo, shift_lo = ax_q / math.pi * low, 0.5 + 1.5 * _MARGIN - t
    scale_hi, shift_hi = ax_q / math.pi * high, 0.5 - 1.5 * _MARGIN - t
    flip_at = 1.5 - t
    rows = max(1, _ARC_CELLS // max(len(q), 1))
    ax = axs[p]
    share = ax / axs.sum()
    k = int(k_lo[p])
    k_end = min(math.floor(w_end * ax / math.pi - 0.5) - 1,
                k + math.floor(most * share))
    span = int(min(max(span, share * 2.0 ** min(len(axs), 64)),
                   _LARGEST_SPAN))
    to = lo
    while k < k_end:
        k1 = min(k + span, k_end)
        # The arcs from breakpoint k to k1 where p has its target label,
        # every other one, by their two ends, computed as the sweep
        # computes breakpoints.  Arc k begins at or before the sweep's lo,
        # so a jump passes it only when it is dropped.
        k_arc = k + int(((k & 1) == 1) != target[p])
        lower = np.arange(k_arc + 0.5, k1, 2.0) * math.pi / ax
        upper = np.arange(k_arc + 1.5, k1 + 1, 2.0) * math.pi / ax
        done = 0
        for a_lo, b_lo, a_hi, b_hi in steps:
            if len(lower) * (len(q) - done) <= _ARC_CELLS:
                break
            kept = np.flatnonzero(np.floor(lower * a_lo + b_lo)
                                  != np.floor(upper * a_hi + b_hi))
            lower, upper = lower.take(kept), upper.take(kept)
            done += 1
        for start in range(0, len(lower), rows):
            starts = lower[start:start + rows]
            ends = upper[start:start + rows]
            k_first = np.floor(starts * scale_lo - shift_lo)
            k_last = np.floor(ends * scale_hi - shift_hi)
            on_target = (k_first.astype(np.int64) & 1) == 0
            flip = k_first + 1.0 == k_last
            # Each point's one breakpoint on the arc, as the sweep computes
            # it, and the side of it where the point has its target label.
            at = (k_first + flip_at) * math.pi / ax_q
            top = np.where(flip & on_target, at, ends).min(
                axis=0, initial=math.inf)
            bottom = np.where(flip > on_target, at, starts).max(
                axis=0, initial=-math.inf)
            keep = ((bottom <= top * (1.0 + _MARGIN))
                    & ~((k_first == k_last) > on_target).any(axis=0))
            if keep.any():
                return float(starts[np.argmax(keep)])
        to = float((k1 + 0.5) * math.pi / ax)
        k, span = k1, min(2 * span, _LARGEST_SPAN)
    return to


def _sweep(xs, labs, w_max, w_min, budget):
    """One ShatterResult per labeling row of each problem: ``xs`` holds the
    problems' points, ``(problems, n)``, and ``labs`` their boolean
    labeling rows, ``(problems, rows, n)``.

    A point is labelled ``k odd`` after its breakpoint k at
    w = (k + 1/2) pi / |x|.  The problems are swept in lockstep: an
    iteration takes the open ones in order while their next blocks
    (lo, hi], doubling from ``_FIRST_BLOCK`` breakpoints, make at most
    ``_LARGEST_BLOCK`` events, and at least one, and orders the events by
    one sort of uint64 keys: problem, then the time's bit offset from its
    block's base, then the code 2 * point + (k & 1).  An elementary
    interval's state is linear in its labels: the label code in a problem
    of several rows (at most ``MAX_CENSUS_POINTS`` nonzero points), the
    count of mismatched points in a problem of one.  A table read by event
    code and one cumsum per iteration give every state; a lookup from
    state to open labeling, equal rows sharing one, picks the intervals to
    verify, all at their left edges at once, then at the midpoints of those
    that fail.  A labeling is settled by the first that verifies.  No
    result depends on the blocks or on the other problems.  A problem with
    one labeling open may jump where ``_jump`` says, counting the
    breakpoints skipped.  It sweeps at most ``budget`` breakpoints, counted
    once per point, a group of equal times whole or not at all, all below
    its ``w_stop``, where indices near 2**52 begin; either limit ends its
    open labelings as "budget_exceeded", their range ending at the last
    breakpoint swept (w_min if none), and no jump passes either limit or
    w_max.  Callers run it under ``np.errstate(over="ignore")``: a
    breakpoint of a subnormal |x| is inf, and never reached."""
    problems, rows, n = labs.shape
    ordered = np.sort(xs, axis=1)
    if np.any(ordered[:, 1:] == ordered[:, :-1]):
        raise ValueError("points must be pairwise distinct")
    w_max, w_min = float(w_max), float(w_min)
    if not 0.0 <= w_min < w_max:
        raise ValueError("need 0 <= w_min < w_max")
    budget = min(budget, 1 << 62)  # past any sweep; int64 sums stay exact

    # A problem stops at w_stop, 8 indices short of the guard in
    # _last_indices to absorb the rounding of this quotient.
    ax_max = np.abs(xs).max(axis=1, initial=0.0)
    with np.errstate(divide="ignore"):
        w_stop = (_INDEX_LIMIT - 16) * math.pi / ax_max
        first = 0.5 * math.pi / ax_max  # no event lies below it
    at_min = (output_labels(xs, w_min)[:, None] == labs).all(axis=2).ravel()
    # A zero input always outputs 1, so a 0-label there is unsatisfiable.
    blocked = (labs < (xs == 0.0)[:, None]).any(axis=2).ravel()
    stopped = np.repeat(w_min >= w_stop, rows)
    # Row r of the flat labeling matrix is row r % rows of problem r // rows.
    labs = labs.reshape(problems * rows, n)
    # Per row: (status, witness, end of the range searched, breakpoints).
    outcome = [("found", w_min, w_min, 0) if f
               else ("infeasible", None, w_max, 0) if b
               else ("budget_exceeded", None, w_min, 0) if s else None
               for f, b, s in zip(at_min.tolist(), blocked.tolist(),
                                  stopped.tolist())]
    live = (~(at_min | blocked | stopped)).nonzero()[0]  # rows still open
    per_problem = np.bincount(live // rows, minlength=problems)
    # The nonzero points of the open problems, flat in problem order.
    on = (xs != 0.0) & (per_problem > 0)[:, None]
    axs, pid, counts = np.abs(xs[on]), on.nonzero()[0], on.sum(axis=1)
    start = np.cumsum(counts) - counts
    # A state is linear in the labels: a problem of one open row counts its
    # mismatched points, one of several takes the label code.  Each
    # problem's states take their own range of the lookup.
    several = per_problem > 1
    assert counts[several].max(initial=0) <= MAX_CENSUS_POINTS, (
        "more points than a census")
    lead = np.zeros(problems, dtype=np.int64)
    lead[live // rows] = live
    target = labs[lead] & on
    weights = on * np.where(several[:, None],
                            np.left_shift(1, on.cumsum(axis=1) - 1),
                            np.where(target, -1, 1))
    size = np.where(several, 1 << counts * several, counts + 1) * on.any(1)
    offset = np.cumsum(size) - size
    bias = offset + np.where(several, 0, target.sum(axis=1))
    # Event code 2 * point + parity gives the point the label ``parity``,
    # so it moves the state by -+ the point's weight.
    weight = weights[on]
    table = np.outer(weight, (-1, 1)).ravel()
    # From each state to the open labeling there, -1 where none is; one of
    # equal rows stands for them all.
    keys = ((labs.reshape(problems, rows, n) @ weights[:, :, None]).ravel()
            + np.repeat(bias, rows))[live]
    row_at = np.full(size.sum(), -1)
    row_at[keys] = live
    row_of = row_at.take(keys)
    n_open = np.bincount(row_at[row_at >= 0] // rows, minlength=problems)
    k_lo = _last_indices(axs, w_min)
    state = bias + np.bincount(pid, ((k_lo & 1) == 1) * weight,
                               minlength=problems).astype(np.int64)

    # Breakpoints per unit weight, and where each problem's sweep ends.
    rate = np.maximum(np.bincount(pid, axs, minlength=problems) / math.pi,
                      1e-12)
    w_end = np.minimum(w_stop, w_max)
    shift = (2 * int(counts.max(initial=1)) - 1).bit_length()  # code bits
    block = np.full(problems, _FIRST_BLOCK)
    used = np.zeros(problems, dtype=np.int64)  # breakpoints swept, per point
    left = np.full(problems, w_min)  # left edge of the open interval
    lo = left.copy()  # end of the sweep
    # 1 in 2**n intervals has a labeling; 0: no jumps.
    wait = 2.0 ** np.minimum(counts, 1000)
    exhausted = np.zeros(problems, dtype=bool)
    done = per_problem == 0
    while not done.all():
        act = np.flatnonzero(~done)
        # A key holds the problem's rank among the open ones, ``above`` bits
        # of time offset and the code; a block ends before they overflow.
        above = 64 - shift - (len(act) - 1).bit_length()
        base = np.maximum(lo, first).view(np.uint64)
        top = np.minimum(base + ((1 << above) - 1), _INF_BITS)
        hi = np.minimum(lo + block / rate, np.minimum(top.view(np.float64),
                                                      w_end))
        at = np.flatnonzero(~done[pid])
        k_hi = _last_indices(axs[at], hi[pid[at]])
        # Point p's events are its indices k_lo[p] + 1 .. k_hi[p]; the open
        # problems take their turn in order, up to _LARGEST_BLOCK events.
        per_point = k_hi - k_lo[at]
        events = np.bincount(pid[at], per_point,
                             minlength=problems)[act].astype(np.int64)
        take = act[:max(1, np.searchsorted(events.cumsum(), _LARGEST_BLOCK,
                                           side="right"))]
        events = events[:len(take)]
        m = np.searchsorted(pid[at], take[-1], side="right")
        at, k_hi, per_point = at[:m], k_hi[:m], per_point[:m]
        point = np.repeat(at, per_point)
        ks = (np.repeat(k_lo[at] + 1 - (np.cumsum(per_point) - per_point),
                        per_point) + np.arange(len(point)))
        prob = pid.take(point)
        key = ((ks + 0.5) * math.pi / axs.take(point)).view(np.uint64)
        key -= base.take(prob)
        key <<= shift
        key |= (2 * (point - start.take(prob)) + (ks & 1)).view(np.uint64)
        key |= (np.cumsum(~done) - 1).take(prob).view(np.uint64) << (
            above + shift)
        # States are read only at the last event of a group of equal
        # times, so the order within a group needs no stable sort.
        key.sort()
        prob = np.repeat(take, events)
        code = (key & ((1 << shift) - 1)).view(np.int64) + 2 * start.take(prob)
        key >>= shift
        # The last event of each group of equal times closes an interval;
        # a group is swept whole or not at all.
        ends = np.flatnonzero(np.append(key[1:] != key[:-1], len(key) > 0))
        j = np.searchsorted(take, prob.take(ends))  # each end's problem
        head = np.cumsum(events) - events  # each problem's first event
        swept = ends - head.take(j) + 1
        fits = swept <= budget - used[take].take(j)
        ends, j, swept = ends[fits], j[fits], swept[fits]
        over = used[take] + events > budget
        last = over | (hi[take] == w_end[take])
        stop = over | (hi[take] < w_max)  # read only where ``last``
        # Per problem, the nodes: the open interval's left edge, then each
        # interval's end, with the state and the breakpoints swept there.
        closed = np.bincount(j, minlength=len(take))
        tail = np.cumsum(closed) + np.arange(len(take))
        lead_node, run = tail - closed, np.arange(len(ends)) + j + 1
        node_prob = np.repeat(take, 1 + closed)
        node_w = np.empty(len(node_prob))
        node_w[lead_node] = left[take]
        node_w[run] = ((key.take(ends) & ((1 << above) - 1))
                       + base.take(take.take(j))).view(np.float64)
        sums = table.take(code).cumsum()
        node_state, node_swept = np.empty((2, len(node_prob)), np.int64)
        node_state[lead_node], node_swept[lead_node] = state[take], used[take]
        node_state[run] = sums.take(ends) + (
            state[take] - np.append(0, sums).take(head)).take(j)
        node_swept[run] = used[take].take(j) + swept
        # The intervals whose state is an open labeling's, in order: those
        # between nodes, then where the sweep ends the last node's, to
        # itself when the budget or w_stop stops it, else to w_max.
        inner = np.flatnonzero(node_prob[1:] == node_prob[:-1])
        iv = np.append(inner, tail[last])
        b = np.append(node_w.take(inner + 1),
                      np.where(stop, node_w.take(tail), w_max)[last])
        r = row_at.take(node_state.take(iv))
        iv, b, r = iv[r >= 0], b[r >= 0], r[r >= 0]
        if len(iv):
            a = node_w.take(iv)
            w = a.copy()
            ok = (output_labels(xs[node_prob[iv]], a[:, None])
                  == labs[r]).all(axis=1)
            mid = np.flatnonzero(~ok & (b > a))
            w[mid] = 0.5 * (a[mid] + b[mid])
            ok[mid] = (output_labels(xs[node_prob[iv[mid]]], w[mid, None])
                       == labs[r[mid]]).all(axis=1)
            good = np.flatnonzero(ok)
            found, firsts = np.unique(r[good], return_index=True)
            hit = good[firsts]
            # A witness counts the breakpoints swept up to its left edge.
            for row, wit, n_bps in zip(found.tolist(), w[hit].tolist(),
                                       node_swept[iv[hit]].tolist()):
                outcome[row] = ("found", wit, wit, n_bps)
            row_at[node_state[iv[hit]]] = -1
            n_open -= np.bincount(found // rows, minlength=problems)
        used[take], state[take] = node_swept[tail], node_state[tail]
        left[take], lo[take], k_lo[at] = node_w[tail], hi[take], k_hi
        exhausted[take] = stop
        done[take] = last | (n_open[take] == 0)
        block[take] = np.minimum(2 * block[take], _LARGEST_BLOCK)
        # One labeling left, not due within two blocks: jump to the first
        # arc of the fastest point that may hold its witness.
        for p in take[~done[take] & (n_open[take] == 1)
                      & (wait[take] > 2 * block[take])
                      & (row_at.take(state[take]) < 0)].tolist():
            mine = slice(start[p], start[p] + counts[p])
            target = labs[row_at[offset[p]:offset[p] + size[p]].max()][on[p]]
            to = _jump(axs[mine], target, k_lo[mine], lo[p], w_end[p],
                       budget - used[p], block[p])
            if lo[p] < to < w_end[p]:
                k_to = _last_indices(axs[mine], to)
                skipped = int((k_to - k_lo[mine]).sum())
                if used[p] + skipped > budget:
                    wait[p] = 0
                else:
                    used[p] += skipped
                    left[p] = lo[p] = to
                    k_lo[mine] = k_to
                    state[p] = ((k_to & 1) == 1) @ weight[mine] + bias[p]
    # Each problem's one result for the labelings it leaves open.
    unfound = [("budget_exceeded", None, end, n_bps) if out
               else ("infeasible", None, w_max, n_bps)
               for end, n_bps, out in zip(left.tolist(), used.tolist(),
                                          exhausted.tolist())]
    for r, i in zip(live.tolist(), row_of.tolist()):
        outcome[r] = outcome[i] or unfound[r // rows]
    return [ShatterResult(tuple(lab.tolist()), status, w, (w_min, covered),
                          n_bps)
            for lab, (status, w, covered, n_bps)
            in zip(labs.astype(np.int8), outcome)]


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
    return shatter_search_many([points], [labels], w_max, w_min, budget)[0]


def shatter_search_many(points, labels, w_max, w_min=0.0,
                        budget=DEFAULT_BUDGET):
    """``shatter_search`` of each row of two ``(problems, n)`` arrays, from
    one sweep: result i equals ``shatter_search(points[i], labels[i], ...)``
    in every field."""
    xs = np.asarray(points, dtype=float)
    labs = np.asarray(labels, dtype=bool)
    if xs.shape != labs.shape or xs.ndim != 2:
        raise ValueError("need points and labels of one (problems, n) shape")
    with np.errstate(over="ignore"):  # see ``_sweep``
        return _sweep(xs, labs[:, None], w_max, w_min, budget)


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
    check_cap("census points", n, MAX_CENSUS_POINTS)
    labs = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(bool)
    with np.errstate(over="ignore"):  # see ``_sweep``
        entries = _sweep(np.asarray(points, dtype=float)[None], labs[None],
                         w_max, 0.0, budget)
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
