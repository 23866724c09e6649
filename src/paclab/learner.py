"""Minimal-empirical-risk learning over atomic instances.

The learner sees labeled i.i.d. draws from an atomic measure and outputs a
per-atom majority vote (ties and unseen atoms default to 0).  Over a family
shattering the atom universe, any labeling consistent with the per-atom
majorities minimizes empirical risk, so the vote IS an ERM hypothesis and
experiments never enumerate the exponentially-large cover.

``estimate_sample_complexity`` measures the smallest sample size whose
failure rate (true error above eps) drops to delta, in one pass over nested
Monte-Carlo episodes: the error of a growing sample only falls, so the
estimate is a quantile of the episodes' hitting times, each decided in
exact integer mass units.  ``gc_deviation`` estimates the
uniform deviation sup |E_mu - E_emp| either by enumerating a finite
sub-class (census mode) or by adversarially fitting the all-ones labeling
of each drawn sample (the non-convergence witness experiment).  Under a
non-atomic measure the census sorts each sample once and counts every
closed-interval concept by binary search, an exact integer count per
concept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sontag
from .concepts import (AtomLabeling, GridUnion, IntervalUnion,
                       OrderIntervalFamily, SontagFamily, isolate_points)
from .construction import ConstructedInstance, LabelingFamily
from .intervals import canonicalize, count_sorted
from .measures import AtomicMeasure, _as_fraction, expect_indicator

DEFAULT_N_CAP = 10 ** 6
ADVERSARIAL_MIN_WEIGHT = 32.0
MAX_CENSUS_BITS = 20
_WILSON_Z = 1.959963984540054  # two-sided 95%
# One estimate holds a bool per trial and atom: the cap keeps that mask
# at 32 MiB.
MAX_EPISODE_CELLS = 2 ** 25
# Most draws in one block of episode columns, and half the target bits
# read in one chunk.
_EPISODE_DRAWS = 2 ** 16
NOT_HIT = np.iinfo(np.int64).max  # hitting time of a trial still above eps


class EpisodeMemoryError(RuntimeError):
    """The estimator's trials x atoms episode mask would exceed its cap."""


@dataclass(frozen=True)
class LabeledSample:
    """Points paired with the target concept's labels at those points."""

    points: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.points) != len(self.labels):
            raise ValueError("points and labels must have equal length")


def erm_learn(sample, universe):
    """Per-atom majority vote over the sample; ties and unseen atoms get 0.

    Every sample point must be an atom location of the universe; anything
    off the grid is a hard error.  On a label-consistent sample the output
    has empirical risk 0.
    """
    if not isinstance(universe, AtomicMeasure):
        raise TypeError("the learner needs an atomic universe")
    index = {a.location: i for i, a in enumerate(universe.atoms)}
    ones = [0] * len(universe.atoms)
    seen = [0] * len(universe.atoms)
    for point, label in zip(sample.points, sample.labels):
        i = index.get(float(point))
        if i is None:
            raise ValueError(f"sample point {point!r} is not an atom location")
        seen[i] += 1
        ones[i] += int(label)
    bits = tuple(1 if 2 * o > s else 0 for o, s in zip(ones, seen))
    return AtomLabeling.for_measure(universe, bits, default_bit=0)


def empirical_risk(hypothesis, sample):
    """Fraction of sample points the hypothesis mislabels."""
    if not sample.points:
        return 0.0
    wrong = sum(1 for p, lab in zip(sample.points, sample.labels)
                if int(bool(hypothesis.contains(p))) != int(lab))
    return wrong / len(sample.points)


def true_error(hypothesis, target, measure):
    """Exact L1(mu) risk: mass of atoms where hypothesis and target disagree."""
    if not isinstance(measure, AtomicMeasure):
        raise TypeError("true_error is exact only over atomic measures")
    return measure.mass(measure.memberships(hypothesis)
                        != measure.memberships(target))


def wilson_interval(successes, trials, z=_WILSON_Z):
    """Wilson score interval for a binomial proportion."""
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
    draws: int = 0  # episode draws made
    probes: tuple = field(repr=False, default=())  # (n, failures) pairs

    def to_json(self):
        return {"n_hat": self.n_hat, "eps": self.eps, "delta": self.delta,
                "trials": self.trials,
                "failure_rate_at_n_hat": self.failure_rate_at_n_hat,
                "confidence_interval": list(self.confidence_interval),
                "seed": self.seed, "status": self.status,
                "draws": self.draws,
                "probes": [list(p) for p in self.probes]}


def _universe_arrays(universe):
    """(atomic measure, random-target atom count) for an instance or measure.

    Targets are uniform over labelings of the level atoms; a construction
    instance keeps its residual atom fixed at 0, a plain atomic measure
    randomizes every atom.
    """
    if isinstance(universe, ConstructedInstance):
        measure = universe.measure()
        free = sum(lvl.size for lvl in universe.levels)
        return measure, free
    if isinstance(universe, AtomicMeasure):
        return universe, len(universe.atoms)
    raise TypeError("universe must be a ConstructedInstance or AtomicMeasure")


def _fair_bits(rng, count):
    """``rng.integers(0, 2, size=count)`` as bools, read straight from the
    raw 64-bit words of ``default_rng``'s PCG64 generator.

    A bounded draw below 2 is the top bit of one 32-bit output, and each
    64-bit word serves two 32-bit outputs, low half first: the bits, and
    every 64-bit draw after them, are the same.  Chunks hold an even
    number of bits, so no word is split between two of them.
    """
    bits = np.empty(count, dtype=bool)
    for start in range(0, count, 2 * _EPISODE_DRAWS):
        stop = min(start + 2 * _EPISODE_DRAWS, count)
        words = rng.bit_generator.random_raw((stop - start + 1) // 2)
        # little-endian words, so each low half comes first in the view
        halves = words.astype("<u8", copy=False).view("<u4")[:stop - start]
        np.greater_equal(halves, np.uint32(1 << 31), out=bits[start:stop])
    return bits


def _hitting_times(measure, free_atoms, eps, trials, seed, allowed=0,
                   n_cap=DEFAULT_N_CAP):
    """Nested episodes: (each trial's T = min{n : err_n <= eps}, draws made).

    Trial t draws its random target first (``_fair_bits``, all trials
    together), then its j-th sample point is entry (j, t) of
    ``measure.draw_indices(rng, (n, trials))``: the generator is drawn
    column-major, so no draw depends on the block widths or on which
    trials have stopped.  With label-consistent samples the majority vote
    equals the target on seen atoms and 0 elsewhere, so err_n is the exact
    mass of the target atoms not yet drawn; each trial keeps it in the
    measure's integer units, and only the first draw of a (trial, atom)
    pair removes that atom's units.  The pass stops once at most
    ``allowed`` trials are still above eps, or at ``n_cap`` draws per
    trial; a trial still above eps then reads ``NOT_HIT``.
    """
    units, total_units = measure.units()
    eps = _as_fraction(eps)
    threshold = min(eps.numerator * total_units // eps.denominator,
                    total_units)  # err <= eps  <=>  units <= floor(eps U)
    rng = np.random.default_rng(seed)
    # Only the first free_atoms atoms can be targets: the mask holds those.
    atoms, units = free_atoms, units[:free_atoms]
    missed = _fair_bits(rng, trials * atoms).reshape(trials, atoms)
    remaining = np.fromiter((units @ row for row in missed), dtype=np.int64,
                            count=trials)
    times = np.where(remaining <= threshold, 0, NOT_HIT)
    running = times == NOT_HIT
    # Per atom, how many running trials still miss it: draws of other
    # atoms change nothing and are never looked up.
    missing = (np.count_nonzero(missed, axis=0)
               - np.count_nonzero(missed[~running], axis=0))
    flat = missed.reshape(-1)
    columns = max(1, min(_EPISODE_DRAWS // trials, n_cap))
    block = np.empty(columns * trials)
    drawn = 0
    width = 1
    while np.count_nonzero(running) > allowed and drawn < n_cap:
        width = min(width, n_cap - drawn)
        u = rng.random(out=block[:width * trials].reshape(width, trials))
        live = np.flatnonzero(missing)
        lo, hi = measure.uniform_bounds(live[0], live[-1] + 1)
        wanted = u >= lo
        wanted &= u < hi
        wanted &= running
        draw, trial = np.divmod(np.flatnonzero(wanted), trials)
        cells = trial * atoms + measure.indices_of(u[draw, trial])
        new = flat[cells]
        # The first draw in this block of each (trial, atom) still missed,
        # in (trial, draw) order.
        cells, first = np.unique(cells[new], return_index=True)
        flat[cells] = False
        draw, trial = draw[new][first], trial[new][first]
        order = np.lexsort((draw, trial))
        draw, trial, cells = draw[order], trial[order], cells[order]
        gains = units[cells % atoms]
        missing -= np.bincount(cells % atoms, minlength=atoms)
        # Units removed so far within each trial's run of draws.
        spent = np.cumsum(gains)
        starts = np.flatnonzero(np.diff(trial, prepend=-1))
        ends = np.flatnonzero(np.diff(trial, append=trials))
        spent -= np.repeat(spent[starts] - gains[starts], ends - starts + 1)
        left = remaining[trial] - spent
        remaining[trial[ends]] = left[ends]
        done = np.flatnonzero(left <= threshold)
        firsts = done[np.diff(trial[done], prepend=-1) != 0]
        hit = trial[firsts]
        times[hit] = drawn + draw[firsts] + 1
        running[hit] = False
        missing -= np.count_nonzero(missed[hit], axis=0)
        drawn += width
        width = min(2 * width, columns)
    return times, trials * drawn


def estimate_sample_complexity(universe, eps, delta, trials=400, seed=0,
                               n_cap=DEFAULT_N_CAP):
    """Smallest n whose Monte-Carlo failure rate is at most delta.

    One pass over ``trials`` nested episodes (``_hitting_times``): the
    failure rate at n is the share of hitting times above n, so n_hat is
    the (trials - allowed)-th smallest hitting time, ``allowed`` being the
    most failures with failures / trials <= delta.  The estimate carries a
    trail of failure counts at n = 0, 1, 2, 4, ... below n_hat and at
    n_hat - 1 and n_hat (n_cap in place of n_hat when the cap is hit), and
    a Wilson 95% interval at n_hat.  Every eps
    sees the episodes of one seed, so estimates are monotone in eps.
    """
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if trials < 100:
        raise ValueError("need at least 100 trials")
    measure, free_atoms = _universe_arrays(universe)
    cells = trials * len(measure.atoms)
    if cells > MAX_EPISODE_CELLS:
        raise EpisodeMemoryError(
            f"{trials} trials x {len(measure.atoms)} atoms = {cells} episode "
            f"cells exceed the cap of {MAX_EPISODE_CELLS}")
    allowed = int(delta * trials) + 1
    while allowed / trials > delta:
        allowed -= 1
    times, draws = _hitting_times(measure, free_atoms, eps, trials, seed,
                                  allowed, n_cap)
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
    seed: int
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

    def to_json(self):
        return {"mode": self.mode, "n": self.n, "trials": self.trials,
                "seed": self.seed, "median": self.median, "mean": self.mean,
                "max": self.max, "failed_trials": self.failed_trials,
                "deviations": list(self.deviations)}


def _atomic_census(memberships, measure, n, trials, seed):
    # Samples from an atomic measure are atom locations, so one frequency
    # vector per trial gives every concept's empirical mean at once.
    true_means = memberships @ measure.masses
    devs = []
    for t in range(trials):
        idx = measure.draw_indices(np.random.default_rng([seed, t]), n)
        counts = np.bincount(idx, minlength=len(measure)).astype(float)
        emp = memberships @ (counts / n)
        devs.append(float(np.max(np.abs(true_means - emp))))
    return devs


def _census_deviations(family, measure, n, trials, seed):
    if isinstance(family, LabelingFamily):
        if family.size > 2 ** MAX_CENSUS_BITS:
            raise ValueError("labeling family too large for census mode")
        return _atomic_census(family.membership_matrix(), measure, n, trials,
                              seed), 0
    concepts = list(family)
    if isinstance(measure, AtomicMeasure):
        return _atomic_census(measure.membership_matrix(concepts), measure,
                              n, trials, seed), 0
    true_means = np.array([expect_indicator(measure, c) for c in concepts])
    # Closed-interval concepts are counted in each sorted sample by binary
    # search over their float pieces, merged where they overlap or touch
    # once rounded so that no point counts twice.
    counted = [i for i, c in enumerate(concepts)
               if isinstance(c, (IntervalUnion, GridUnion))]
    tested = [i for i, c in enumerate(concepts)
              if not isinstance(c, (IntervalUnion, GridUnion))]
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


def _adversarial_deviations(family, measure, n, trials, seed, min_weight,
                            budget):
    devs = []
    failed = 0
    for t in range(trials):
        xs = measure.sample(n, seed=[seed, t])
        if isinstance(family, SontagFamily):
            res = sontag.shatter_search(xs, np.ones(n, dtype=int),
                                        family.w_max, w_min=min_weight,
                                        budget=budget)
            if not res.found:
                failed += 1
                continue
            concept = family.concept(res.witness_w)
        else:
            _, concept = isolate_points([float(x) for x in xs])
        # All sample points lie inside the fitted concept, so the empirical
        # mean is exactly 1.
        devs.append(abs(1.0 - expect_indicator(measure, concept)))
    return devs, failed


def gc_deviation(family, measure, n, trials=100, seed=0, mode="census",
                 min_weight=ADVERSARIAL_MIN_WEIGHT,
                 budget=sontag.DEFAULT_BUDGET):
    """Uniform-deviation statistics sup_C |E_mu(C) - E_emp(C)| at sample
    size n.

    Census mode enumerates a finite sub-class and reports the per-trial
    suprema.  Adversarial mode fits, per trial, a concept labeling the whole
    drawn sample 1 (a weight-family witness above ``min_weight``, or an
    isolating grid union for the order-interval family) and reports
    |1 - E_mu|; trials whose witness search fails are flagged, excluded,
    and counted.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if mode == "census":
        devs, failed = _census_deviations(family, measure, n, trials, seed)
    elif mode == "adversarial":
        if not isinstance(family, (SontagFamily, OrderIntervalFamily)):
            raise TypeError("adversarial mode needs the weight family or the "
                            "order-interval family")
        devs, failed = _adversarial_deviations(family, measure, n, trials,
                                               seed, min_weight, budget)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return GcDeviationResult(mode, int(n), int(trials), int(seed),
                             tuple(devs), failed)
