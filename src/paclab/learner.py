"""Minimal-empirical-risk learning over atomic instances.

The learner sees labeled i.i.d. draws from an atomic measure and outputs a
per-atom majority vote (ties and unseen atoms default to 0).  Over a family
shattering the atom universe, any labeling consistent with the per-atom
majorities minimizes empirical risk, so the vote IS an ERM hypothesis and
experiments never enumerate the exponentially-large cover, nor build the
vote itself.

``estimate_sample_complexity`` measures the smallest sample size whose
failure rate (true error above eps) drops to delta, in one pass over nested
Monte-Carlo episodes: the error of a growing sample only falls, so the
estimate is a quantile of the episodes' hitting times, each decided in
exact integer mass units.  An episode's error changes only at the first
draw of a target atom, so the pass simulates just those first draws, per
run of equal units, exact in law: their order from Poisson windows and
their draw counts from geometric gaps.
``gc_deviation`` estimates the uniform deviation sup |E_mu - E_emp| either
by enumerating a finite sub-class (census mode) or by adversarially
fitting the all-ones labeling of each drawn sample (the non-convergence
witness experiment), the weight family's fits of one sample size all in
one batched search.  Under a non-atomic measure the census sorts each
sample once and counts every closed-interval concept by binary search, an
exact integer count per concept.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass, field

import numpy as np

from . import sontag
from .concepts import (IntervalUnion, OrderIntervalFamily, SontagConcept,
                       SontagFamily, isolate_points)
from .construction import ComplexitySchedule, ConstructedInstance
from .intervals import canonicalize, count_sorted
from .measures import (AtomicMeasure, _as_fraction, _run_units, _unit_floats,
                       check_cap, expect_indicator)

DEFAULT_N_CAP = 10 ** 6
ADVERSARIAL_MIN_WEIGHT = 32.0
_WILSON_Z = 1.959963984540054  # two-sided 95%
# Most trials x target atoms one estimate takes, refused before any episode
# is drawn (``check_episode_cells``).  It bounds the first draws of targets
# a pass can simulate, so its time; its memory no longer grows with them.
MAX_EPISODE_CELLS = 2 ** 25
# Most first draws of targets expected in one window of the pass.
_EPISODE_DRAWS = 2 ** 16
# Most first draws a window works on at once, in whole trials (one at
# least): its gaps and running sums come a chunk at a time.
_CHUNK = 2 ** 13
# Most cells the adversarial trials of one run take, refused before any
# sample is drawn; ``check_adversarial_cells`` weighs a trial.  Chosen for
# 10 s and 512 MB through the CLI on one BLAS thread from the edges at
# n = 4 to 32 (README): 8,192 trials at n = 16, 341 at 24, 104 at 32.
MAX_ADVERSARIAL_CELLS = 2 ** 25
NOT_HIT = np.iinfo(np.int64).max  # hitting time of a trial still above eps
MAX_UNIT_BITS = 63  # of the targets' total U of exact units, kept in int64


def wilson_interval(successes, trials):
    """Wilson 95% score interval for a binomial proportion."""
    z = _WILSON_Z
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / trials
                                   + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ComplexityEstimate:
    """Measured sample complexity with its decision trail."""

    n_hat: int | None
    eps: float
    delta: float
    trials: int
    failure_rate_at_n_hat: float | None
    confidence_interval: tuple
    seed: int
    status: str  # "converged" | "cap_exceeded"
    draws: int = 0  # first draws of targets simulated
    probes: tuple = field(repr=False, default=())  # (n, failures) pairs

    def to_json(self):
        return asdict(self)


def _target_runs(universe):
    """(units of one atom per run, atoms per run, U) over the runs of equal
    units among the atoms a target labels, units increasing, as lists.

    A schedule's runs are its levels, the residual atom staying 0, and an
    instance's are its schedule's: no atom is built.  A plain atomic
    measure randomizes every atom.
    """
    if isinstance(universe, ConstructedInstance):
        universe = universe.schedule
    sizes = Counter()
    if isinstance(universe, ComplexitySchedule):
        runs = universe.runs()
        units, total = _run_units(runs)
        for (count, _), u in zip(runs[:-1], units.tolist()):
            sizes[u] += count
    elif isinstance(universe, AtomicMeasure):
        units, total = universe.units, universe.total_units
        sizes.update(units.tolist())
    else:
        raise TypeError("universe must be a ComplexitySchedule, "
                        "ConstructedInstance or AtomicMeasure")
    check_cap("bits of the targets' total units", total.bit_length(),
              MAX_UNIT_BITS)
    values = sorted(sizes)
    return values, [sizes[u] for u in values], total


def _arrival_order(trial, at, span):
    """Indices that sort arrivals by trial, then by time in the window.

    One float argsort of trial + at / span: rounding that sum keeps the
    order of the keys or ties two of them, never swaps them, so the order
    is exact unless two keys are equal, and then the two-key sort decides.
    """
    key = trial + np.minimum(at / span, 1.0)
    order = np.argsort(key)
    if np.any(np.diff(key[order]) == 0):
        return np.lexsort((at, trial))
    return order


def _hitting_times(runs, eps, trials, seed, allowed=0, n_cap=DEFAULT_N_CAP):
    """Nested episodes: (each trial's T = min{n : err_n <= eps}, first
    draws of targets simulated).

    With label-consistent samples the majority vote equals the target on
    seen atoms and 0 elsewhere, so err_n is the mass of the target atoms
    not yet drawn, kept per trial in integer units.  It only changes at a
    first draw of a target atom, and atoms of equal units are exchangeable,
    so a trial is a death chain over ``runs``, the target atoms' runs of
    equal units as ``_target_runs`` lists them (units, sizes, U), and only
    those first draws are simulated:

    - trial t starts with ``rng.binomial(s_r, 1/2)`` unseen targets in run
      r, a (trials, runs) array drawn first;
    - Poissonized, the atoms are independent: in a window of ``span``
      expected draws each unseen target of run r first arrives with
      probability q_r = 1 - exp(-p_r span), one ``rng.binomial`` per trial
      and run, at a time from ``rng.random`` through the exponential
      truncated to the window.  Sorted by time, a trial's arrivals are the
      order in which i.i.d. draws first meet its targets;
    - the j-th of them comes ``rng.geometric(rem / U)`` draws after the one
      before, rem the units still unseen before it, so N at every first
      draw is a running sum, and T is N at the first one after which
      rem <= floor(eps U).

    A window draws its binomials, then all its uniforms, then orders, gaps
    and sums its first draws one chunk of whole trials at a time, each at
    most ``_CHUNK`` first draws unless one trial alone has more: slices of
    one ``rng.geometric`` call draw what the call draws, so the stream does
    not depend on the chunks.  The memory is one count per trial and run,
    the window's uniforms and one chunk.

    Every trial stays in play until the pass stops, and each span, halved
    until its expected arrivals are at most ``_EPISODE_DRAWS``, depends
    only on the path: the stream is the same for every eps, so T is
    monotone in eps trial by trial.  The pass stops once the
    (trials - allowed) smallest times are settled: every trial still above
    eps has N + 1 above the (trials - allowed)-th smallest T, or above
    ``n_cap``.  Such a trial reads ``NOT_HIT``, as does one whose T passes
    ``n_cap``, lowered where needed so that every N fits int64.
    """
    values, sizes, total_units = runs
    values, sizes = (np.array(x, dtype=np.int64) for x in (values, sizes))
    eps = _as_fraction(eps)
    threshold = min(eps.numerator * total_units // eps.denominator,
                    total_units)  # err <= eps  <=>  units <= floor(eps U)
    # A trial's N sums at most `targets` gaps of at most n_cap + 1 draws:
    # (targets + 1)(n_cap + 1) < 2**63 keeps every N in int64.
    n_cap = min(n_cap, NOT_HIT // (int(sizes.sum()) + 1) - 1)
    rng = np.random.default_rng(seed)
    rates = values / total_units  # a draw's chance of one atom of the run
    alive = rng.binomial(sizes, 0.5, size=(trials, len(sizes)))
    remaining = alive @ values
    times = np.where(remaining <= threshold, 0, NOT_HIT)
    drawn = np.zeros(trials, dtype=np.int64)  # N at each trial's last arrival
    rank = trials - allowed - 1
    work = 0
    span = 0.5  # doubled before each window, so the first spans one draw
    while np.any((times == NOT_HIT) & (drawn < min(
            np.partition(times, rank)[rank], n_cap))):
        live = alive.sum(axis=0)
        span *= 2
        while live @ (hit_odds := -np.expm1(-rates * span)) > _EPISODE_DRAWS:
            span /= 2
        arrivals = rng.binomial(alive, hit_odds)
        alive -= arrivals
        counts = arrivals.sum(axis=1)
        ends = np.cumsum(counts)  # past each trial's first draws
        uniforms = rng.random(int(ends[-1]))
        # (-a) u = -(a u) and L / (-r) = -(L / r) exactly, so `at` is what
        # one expression over the whole window gives.
        odds, scales = -hit_odds, -rates
        first = 0
        while first < trials:  # one chunk of whole trials at a time
            lo = int(ends[first] - counts[first])
            last = max(first + 1, int(np.searchsorted(ends, lo + _CHUNK,
                                                      side="right")))
            chunk = slice(first, last)
            starts, stops = ends[chunk] - counts[chunk] - lo, ends[chunk] - lo
            trial = np.repeat(np.arange(first, last), counts[chunk])
            run = np.repeat(np.tile(np.arange(len(sizes)), last - first),
                            arrivals[chunk].reshape(-1))
            at = np.log1p(odds[run] * uniforms[lo:lo + len(run)]) / scales[run]
            gains = values[run[_arrival_order(trial, at, span)]]
            # A running sum within a trial is one cumsum less its base.
            sums = np.zeros(len(run) + 1, dtype=np.int64)
            np.cumsum(gains, out=sums[1:])
            after = np.repeat(remaining[chunk] + sums[starts],
                              counts[chunk]) - sums[1:]
            before = after + gains
            remaining[chunk] -= sums[stops] - sums[starts]
            np.cumsum(np.minimum(rng.geometric(before / total_units),
                                 n_cap + 1), out=sums[1:])
            base = drawn[chunk] - sums[starts]
            drawn[chunk] = base + sums[stops]
            crossed = np.flatnonzero(after <= threshold)
            crossed = crossed[before[crossed] > threshold]
            n = base[trial[crossed] - first] + sums[crossed + 1]
            hit = n <= n_cap
            times[trial[crossed[hit]]] = n[hit]
            first = last
        work += int(ends[-1])
    return times, work


def check_episode_cells(universe, eps_list, trials):
    """Refuse an estimate at any eps in ``eps_list`` past ``MAX_EPISODE_CELLS``
    trials x target atoms, leaving out the lightest runs of targets whose
    whole mass is at most eps: a pass may stop before it meets them."""
    values, sizes, total = _target_runs(universe)
    masses = np.cumsum(np.multiply(values, sizes)).tolist()  # lightest first
    for eps in map(_as_fraction, eps_list):
        light = eps.numerator * total // eps.denominator  # floor(eps U)
        targets = sum(sizes[sum(m <= light for m in masses):])
        check_cap(f"episode cells of {trials} trials x {targets} target "
                  f"atoms at eps {eps}", trials * targets, MAX_EPISODE_CELLS)


def estimate_sample_complexity(universe, eps, delta, trials=400, seed=0,
                               n_cap=DEFAULT_N_CAP):
    """Smallest n whose Monte-Carlo failure rate is at most delta, over
    the targets of a schedule, of an instance or of an atomic measure.

    One pass over ``trials`` nested episodes (``_hitting_times``): the
    failure rate at n is the share of hitting times above n, so n_hat is
    the (trials - allowed)-th smallest hitting time, ``allowed`` being the
    most failures with failures / trials <= delta.  The estimate carries a
    trail of failure counts at n = 0, 1, 2, 4, ... below n_hat and at
    n_hat - 1 and n_hat (n_cap in place of n_hat when the cap is hit), and
    a Wilson 95% interval at n_hat, and ``draws`` counts the first draws
    of targets the pass simulated.  Every eps sees the episodes of one
    seed, so estimates are monotone in eps.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if trials < 100:
        raise ValueError("need at least 100 trials")
    check_episode_cells(universe, [eps], trials)
    runs = _target_runs(universe)
    allowed = int(delta * trials) + 1
    while allowed / trials > delta:
        allowed -= 1
    n_cap = min(n_cap, NOT_HIT - 1)  # so a NOT_HIT quantile is past the cap
    times, draws = _hitting_times(runs, eps, trials, seed, allowed, n_cap)
    times.sort()
    n_hat = int(times[trials - allowed - 1])
    top = min(n_hat, n_cap)
    below = max(top - 1, 0)
    ns = {0, below, top, *(2 ** i for i in range(below.bit_length()))}
    trail = tuple((n, trials - int(np.searchsorted(times, n, side="right")))
                  for n in sorted(ns))
    if n_hat > n_cap:
        return ComplexityEstimate(None, eps, delta, trials, None, (0.0, 1.0),
                                  seed, "cap_exceeded", draws, trail)
    failures = dict(trail)[n_hat]
    return ComplexityEstimate(n_hat, eps, delta, trials, failures / trials,
                              wilson_interval(failures, trials), seed,
                              "converged", draws, trail)


@dataclass(frozen=True)
class GcDeviationResult:
    """Per-trial uniform deviations between true and empirical means."""

    mode: str
    n: int
    trials: int
    deviations: tuple
    failed_trials: int

    @property
    def median(self):
        return float(np.median(self.deviations)) if self.deviations else math.nan

    @property
    def mean(self):
        return float(np.mean(self.deviations)) if self.deviations else math.nan

    @property
    def max(self):
        return float(np.max(self.deviations)) if self.deviations else math.nan


def _atomic_census(memberships, measure, n, trials, seed):
    # Samples from an atomic measure are atom locations, so one frequency
    # vector per trial gives every concept's empirical mean at once: its
    # counts are multinomial, the atoms' exact masses rounded once.
    true_means = measure.mass(memberships)
    p = _unit_floats(measure.units, measure.total_units)
    devs = []
    for t in range(trials):
        counts = np.random.default_rng([seed, t]).multinomial(n, p)
        emp = memberships @ (counts / n)
        devs.append(float(np.max(np.abs(true_means - emp))))
    return devs


def _census_deviations(family, measure, n, trials, seed):
    concepts = list(family)
    if isinstance(measure, AtomicMeasure):
        return _atomic_census(measure.membership_matrix(concepts), measure,
                              n, trials, seed), 0
    true_means = np.array([expect_indicator(measure, c) for c in concepts])
    # Closed-interval concepts are counted in each sorted sample by binary
    # search over their float pieces, merged where they overlap or touch
    # once rounded so that no point counts twice.
    counted = [i for i, c in enumerate(concepts)
               if isinstance(c, IntervalUnion)]
    tested = [i for i, c in enumerate(concepts)
              if not isinstance(c, IntervalUnion)]
    pieces = [canonicalize((float(lo), float(hi))
                           for lo, hi in concepts[i].intervals)
              for i in counted]
    owner = np.repeat(np.array(counted, dtype=np.intp),
                      [len(p) for p in pieces])
    los = np.array([lo for p in pieces for lo, _ in p])
    his = np.array([hi for p in pieces for _, hi in p])
    devs = []
    for t in range(trials):
        xs = np.sort(measure.sample(n, seed=[seed, t]))
        counts = np.bincount(owner, weights=count_sorted(los, his, xs),
                             minlength=len(concepts))
        for i in tested:
            counts[i] = np.count_nonzero(concepts[i].contains_many(xs))
        emp = counts / len(xs)
        devs.append(float(np.max(np.abs(true_means - emp))))
    return devs, 0


def _adversarial_deviations(family, measure, n, trials, seed, min_weight):
    samples = [measure.sample(n, seed=[seed, t]) for t in range(trials)]
    if isinstance(family, SontagFamily):
        found = sontag.shatter_search_many(samples, np.ones((trials, n)),
                                           family.w_max, w_min=min_weight)
        concepts = [SontagConcept(res.witness_w) if res.found else None
                    for res in found]
    else:
        concepts = [isolate_points([float(x) for x in xs])[1]
                    for xs in samples]
    # All sample points lie inside each fitted concept, so the empirical
    # mean is exactly 1.
    devs = [abs(1.0 - expect_indicator(measure, concept))
            for concept in concepts if concept is not None]
    return devs, trials - len(devs)


def check_adversarial_cells(n_list, trials):
    """Refuse ``trials`` adversarial samples at each size in ``n_list``
    past ``MAX_ADVERSARIAL_CELLS`` with ``EnumerationCapError``.

    A trial of n points weighs n sqrt(B) cells, B the breakpoints its
    search expects to sweep: 2**n, at least 2**16, where the sample's own
    points dominate the cost, and at most the budget that stops a search.
    """
    budget = sontag.DEFAULT_BUDGET
    cells = 0
    for n in n_list:
        # The exponent is clamped first, so no power past the budget is built.
        expected = min(2 ** min(max(n, 16), budget.bit_length()), budget)
        cells += trials * n * math.isqrt(expected)
    check_cap(f"cells of {trials} adversarial trials at n = {list(n_list)}",
              cells, MAX_ADVERSARIAL_CELLS)


def gc_deviation(family, measure, n, trials=100, seed=0, mode="census",
                 min_weight=ADVERSARIAL_MIN_WEIGHT):
    """Uniform-deviation statistics sup_C |E_mu(C) - E_emp(C)| at sample
    size n.

    Census mode takes a finite list of concepts and reports the per-trial
    suprema.  Adversarial mode fits, per trial, a concept labeling the whole
    drawn sample 1 (a weight-family witness above ``min_weight``, every
    trial's searched in one ``shatter_search_many`` call, or an isolating
    grid union for the order-interval family) and reports |1 - E_mu|;
    trials whose witness search fails are flagged, excluded, and counted;
    trials past ``check_adversarial_cells`` are refused.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "census":
        devs, failed = _census_deviations(family, measure, n, trials, seed)
    elif mode == "adversarial":
        if not isinstance(family, (SontagFamily, OrderIntervalFamily)):
            raise TypeError("adversarial mode needs the weight family or the "
                            "order-interval family")
        check_adversarial_cells([n], trials)
        devs, failed = _adversarial_deviations(family, measure, n, trials,
                                               seed, min_weight)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return GcDeviationResult(mode, int(n), int(trials), tuple(devs), failed)
