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
exact integer mass units.  The random targets take 64 bits from each raw
word of the bit generator, so they depend only on its stream.
``gc_deviation`` estimates the uniform deviation sup |E_mu - E_emp| either
by enumerating a finite sub-class (census mode) or by adversarially
fitting the all-ones labeling of each drawn sample (the non-convergence
witness experiment).  Under a non-atomic measure the census sorts each
sample once and counts every closed-interval concept by binary search, an
exact integer count per concept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import sontag
from .concepts import (EnumerationCapError, IntervalUnion, OrderIntervalFamily,
                       SontagConcept, SontagFamily, isolate_points)
from .construction import ConstructedInstance
from .intervals import canonicalize, count_sorted
from .measures import AtomicMeasure, _as_fraction, expect_indicator

DEFAULT_N_CAP = 10 ** 6
ADVERSARIAL_MIN_WEIGHT = 32.0
_WILSON_Z = 1.959963984540054  # two-sided 95%
# One estimate holds a bool per trial and atom: the cap keeps that mask
# at 32 MiB.
MAX_EPISODE_CELLS = 2 ** 25
# Most draws in one block of episode columns, and about the most mask
# cells unpacked, or counted for the starting errors, in one chunk.
_EPISODE_DRAWS = 2 ** 16
NOT_HIT = np.iinfo(np.int64).max  # hitting time of a trial still above eps


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
        return universe.measure(), sum(lvl.size for lvl in universe.levels)
    if isinstance(universe, AtomicMeasure):
        return universe, len(universe)
    raise TypeError("universe must be a ConstructedInstance or AtomicMeasure")


def _fair_bits(rng, count):
    """The first ``count`` target bits of ``rng``'s stream, as bools.

    Bit j is bit j mod 64, least significant first, of raw 64-bit word
    j // 64 of ``rng.bit_generator.random_raw``: the bits depend only on
    the bit generator's stream, and every draw after them starts at word
    ceil(count / 64).  Chunks of whole words are unpacked into a mask
    allocated first, which keeps the process's peak RSS down.
    """
    bits = np.empty(count, dtype=bool)
    step = 64 * max(1, _EPISODE_DRAWS // 64)
    for start in range(0, count, step):
        stop = min(start + step, count)
        words = rng.bit_generator.random_raw(-(-(stop - start) // 64))
        # little-endian words, so each word's low byte comes first
        bits[start:stop] = np.unpackbits(
            words.astype("<u8", copy=False).view(np.uint8),
            count=stop - start, bitorder="little").view(bool)
    return bits


def _hitting_times(measure, free_atoms, eps, trials, seed, allowed=0,
                   n_cap=DEFAULT_N_CAP):
    """Nested episodes: (each trial's T = min{n : err_n <= eps}, draws made).

    Trial t draws its random target first: bit t * free_atoms + a of the
    stream of ``_fair_bits``, 64 bits to a raw word, says whether it labels
    atom a with 1.  Then its j-th sample point is entry (j, t) of
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
    # Each trial's starting error: its missed atoms counted per maximal run
    # of equal units, then weighed by the run's units.  reduceat casts its
    # whole input to int32, so it takes a few rows at a time.
    runs = np.flatnonzero(np.diff(units, prepend=-1))
    rows = max(1, _EPISODE_DRAWS // max(atoms, 1))
    remaining = np.concatenate([
        np.add.reduceat(missed[r:r + rows].view(np.uint8), runs, axis=1,
                        dtype=np.int32) @ units[runs]
        for r in range(0, trials, rows)])
    times = np.where(remaining <= threshold, 0, NOT_HIT)
    running = times == NOT_HIT
    # Per atom, how many trials still miss it, stopped trials included: an
    # over-count that only widens the span of draws looked up, since draws
    # of atoms no running trial misses change nothing.
    missing = np.add.reduce(missed.view(np.uint8), axis=0, dtype=np.int32)
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
        # The first draw in this block of each (trial, atom) still missed:
        # each cell's first sorted cell * width + draw key, re-sorted as
        # (trial * width + draw) * atoms + atom.  Keys stay below 2**35:
        # MAX_EPISODE_CELLS times width <= _EPISODE_DRAWS / 100 (>= 100 trials).
        cells, draw = np.divmod(np.sort(cells[new] * width + draw[new]), width)
        first = np.diff(cells, prepend=-1) != 0
        cells, draw = cells[first], draw[first]
        flat[cells] = False
        rest, atom = np.divmod(np.sort(
            (cells // atoms * width + draw) * atoms + cells % atoms), atoms)
        trial, draw = np.divmod(rest, width)
        gains = units[atom]
        missing -= np.bincount(atom, minlength=atoms)
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
    cells = trials * len(measure)
    if cells > MAX_EPISODE_CELLS:
        raise EnumerationCapError(
            f"{trials} trials x {len(measure)} atoms = {cells} episode "
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
    devs = []
    failed = 0
    for t in range(trials):
        xs = measure.sample(n, seed=[seed, t])
        if isinstance(family, SontagFamily):
            res = sontag.shatter_search(xs, np.ones(n, dtype=int),
                                        family.w_max, w_min=min_weight)
            if not res.found:
                failed += 1
                continue
            concept = SontagConcept(res.witness_w)
        else:
            _, concept = isolate_points([float(x) for x in xs])
        # All sample points lie inside the fitted concept, so the empirical
        # mean is exactly 1.
        devs.append(abs(1.0 - expect_indicator(measure, concept)))
    return devs, failed


def gc_deviation(family, measure, n, trials=100, seed=0, mode="census",
                 min_weight=ADVERSARIAL_MIN_WEIGHT):
    """Uniform-deviation statistics sup_C |E_mu(C) - E_emp(C)| at sample
    size n.

    Census mode takes a finite list of concepts and reports the per-trial
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
                                               seed, min_weight)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return GcDeviationResult(mode, int(n), int(trials), int(seed),
                             tuple(devs), failed)
