import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erm import LabeledSample, empirical_risk, erm_learn
from exact import exact_mass
from paclab.concepts import (AtomLabeling, EnumerationCapError, GridUnion,
                             IntervalUnion, OrderIntervalFamily, SontagConcept,
                             SontagFamily, l1_distance)
from paclab.construction import ComplexitySchedule, RateFunction, build_measure
from paclab.learner import (estimate_sample_complexity, gc_deviation,
                            wilson_interval)
from paclab.measures import AtomicMeasure, UniformMeasure, expect_indicator

TWO_PI = 2.0 * math.pi


def small_instance(K=2, degree=2):
    eps = tuple(Fraction(1, 5) ** k for k in range(1, K + 2))
    return build_measure(ComplexitySchedule(eps=eps,
                                            f=RateFunction.poly(degree), K=K))


# ---------------------------------------------------------------------------
# ERM


def test_erm_empty_sample_is_all_zeros():
    m = AtomicMeasure.uniform_on([1.0, 2.0, 3.0])
    h = erm_learn(LabeledSample((), ()), m)
    assert h.bits == (0, 0, 0)
    assert h.default_bit == 0


def test_erm_majority_vote():
    m = AtomicMeasure.uniform_on([1.0, 2.0])
    sample = LabeledSample((1.0, 1.0, 1.0, 2.0), (1, 1, 1, 0))
    assert erm_learn(sample, m).bits == (1, 0)
    # ties resolve to 0
    tied = LabeledSample((1.0, 1.0), (1, 0))
    assert erm_learn(tied, m).bits == (0, 0)


def test_erm_rejects_off_grid_points():
    m = AtomicMeasure.uniform_on([1.0, 2.0])
    with pytest.raises(ValueError):
        erm_learn(LabeledSample((1.5,), (1,)), m)


def test_erm_consistent_sample_has_zero_empirical_risk_and_bounded_error():
    rng = np.random.default_rng(17)
    m = AtomicMeasure.uniform_on([float(i) for i in range(5)])
    for _ in range(20):
        bits = tuple(int(b) for b in rng.integers(0, 2, size=5))
        target = AtomLabeling.for_measure(m, bits)
        points = m.sample(200, seed=int(rng.integers(2 ** 31)))
        labels = tuple(int(target.contains(p)) for p in points)
        sample = LabeledSample(tuple(points), labels)
        h = erm_learn(sample, m)
        assert empirical_risk(h, sample) == 0.0
        unseen_mass = 0.0
        for a in m.atoms:
            if a.location not in set(points):
                unseen_mass += a.mass
        assert l1_distance(h, target, m) <= unseen_mass


def test_true_error_examples_and_brute_force():
    m = AtomicMeasure.uniform_on([float(i) for i in range(5)])
    target = AtomLabeling.for_measure(m, (1, 1, 1, 1, 1))
    zeros = AtomLabeling.for_measure(m, (0, 0, 0, 0, 0))
    assert l1_distance(zeros, target, m) == 1.0
    assert l1_distance(target, target, m) == 0.0
    rng = np.random.default_rng(23)
    for _ in range(50):
        h = AtomLabeling.for_measure(m, [int(b) for b in rng.integers(0, 2, 5)])
        t = AtomLabeling.for_measure(m, [int(b) for b in rng.integers(0, 2, 5)])
        assert l1_distance(h, t, m) == exact_mass(
            m, lambda x: h.contains(x) != t.contains(x))


def test_true_error_single_atom_disagreement():
    m = AtomicMeasure.from_pairs([(0.0, 0.992), (1.0, 0.008)])
    h = AtomLabeling.for_measure(m, (0, 0))
    t = AtomLabeling.for_measure(m, (0, 1))
    assert l1_distance(h, t, m) == 0.008


def test_vectorized_episodes_match_erm_learn():
    # The estimator's premise, on explicit i.i.d. samples: the
    # majority vote of a label-consistent sample is an ERM hypothesis, and
    # its true error is the mass of the target atoms not yet drawn.
    inst = small_instance(K=1, degree=1)
    measure = inst.measure()
    free = len(inst.locations) - 1  # all but the residual atom
    units, total = measure.units.astype(np.int64), measure.total_units
    rng = np.random.default_rng(99)
    for _ in range(64):
        bits = np.zeros(len(measure), dtype=bool)
        bits[:free] = rng.integers(0, 2, size=free)
        target = AtomLabeling.for_measure(measure, bits.astype(int).tolist())
        idx = rng.choice(len(measure), 40, p=measure.masses)
        for n in (0, 1, 5, 12, 40):
            points = tuple(measure.locations[idx[:n]])
            labels = tuple(int(target.contains(p)) for p in points)
            h = erm_learn(LabeledSample(points, labels), measure)
            assert empirical_risk(h, LabeledSample(points, labels)) == 0.0
            unseen = bits.copy()
            unseen[idx[:n]] = False
            assert math.isclose(l1_distance(h, target, measure),
                                units[unseen].sum() / total,
                                rel_tol=1e-12, abs_tol=1e-15)


def _runs(measure, free):
    # The free atoms' runs of equal units as the estimator reads them:
    # (units of one atom, atom count) per run, units increasing.
    return np.unique(measure.units[:free].astype(np.int64),
                     return_counts=True)


def _target(measure, free):
    # The runs of the first `free` atoms and U, as _hitting_times takes them.
    return (*_runs(measure, free), measure.total_units)


# Schedules whose runs the estimator reads without atoms: poly, exp, and
# a table rate whose two levels hold atoms of 1/4 each, one merged run.
RUN_SCHEDULES = {
    "poly K=3": ComplexitySchedule.default(K=3),
    "exp": ComplexitySchedule(eps=(Fraction(1, 5), Fraction(1, 7),
                                   Fraction(1, 9)),
                              f=RateFunction.exponential(2), K=2),
    "table, merged": ComplexitySchedule(
        eps=(Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)),
        f=RateFunction.table([(5, 2), (10, 3)]), K=2,
        linear_coeff=Fraction(1, 10)),
}


@pytest.mark.parametrize("name", RUN_SCHEDULES)
def test_schedule_runs_are_the_instance_atoms_runs(name):
    from paclab.learner import _target_runs
    schedule = RUN_SCHEDULES[name]
    inst = build_measure(schedule)
    values, sizes, total = _target_runs(schedule)
    want = _target(inst.measure(), len(inst.measure()) - 1)
    assert values == want[0].tolist() and sizes == want[1].tolist()
    assert total == want[2]
    assert _target_runs(inst) == (values, sizes, total)
    if name == "table, merged":
        assert (values, sizes, total) == ([1], [3], 4)


@pytest.mark.parametrize("name", RUN_SCHEDULES)
def test_instance_json_is_the_schedule_runs_at_log_primes(name):
    # instance.json as ``construct`` writes it: level k holds the k-th
    # run's atoms at the logs of the next primes, with the run's mass, and
    # the residual atom sits at the last prime's log.
    schedule = RUN_SCHEDULES[name]
    runs = schedule.runs()
    count = sum(size for size, _ in runs)
    sieve = np.ones(2 * 10 ** 5, dtype=bool)  # past the 15,626th prime
    sieve[:2] = False
    for d in range(2, math.isqrt(len(sieve)) + 1):
        sieve[d * d::d] = False
    logs = [math.log(p) for p in np.flatnonzero(sieve)[:count].tolist()]
    levels, start = [], 0
    for k, (size, exact) in enumerate(runs[:-1], 1):
        levels.append({"index": k, "size": size, "mass": float(size * exact),
                       "locations": logs[start:start + size]})
        start += size
    doc = json.loads(json.dumps(build_measure(schedule).to_json()))
    assert doc == {"schedule": schedule.to_json(), "levels": levels,
                   "residual": {"location": logs[-1],
                                "mass": float(runs[-1][1])}}


@pytest.mark.parametrize("name", RUN_SCHEDULES)
def test_estimate_from_a_schedule_equals_its_instance(name):
    schedule = RUN_SCHEDULES[name]
    inst = build_measure(schedule)
    for eps in schedule.eps[:schedule.K]:
        est = estimate_sample_complexity(schedule, float(eps), 0.1,
                                         trials=200, seed=5)
        assert est.draws > 0 and est.probes
        assert est == estimate_sample_complexity(inst, float(eps), 0.1,
                                                 trials=200, seed=5)


def _starting_counts(measure, free, trials, seed):
    # The estimator's first draw: each trial's unseen targets per run.
    sizes = _runs(measure, free)[1]
    return np.random.default_rng(seed).binomial(sizes, 0.5,
                                                size=(trials, len(sizes)))


def test_exact_error_equal_to_eps_is_not_a_failure():
    from paclab.learner import _hitting_times
    assert 0.1 + 0.2 > 0.3  # the float sum of the two light atoms
    measure = AtomicMeasure.from_pairs([(0.0, 0.1), (1.0, 0.2), (2.0, 0.7)])
    trials, seed = 200, 4
    counts = _starting_counts(measure, 3, trials, seed)  # 1, 2, 7 tenths
    ties = np.all(counts == [1, 1, 0], axis=1)
    assert ties.any()
    times, _ = _hitting_times(_target(measure, 3), 0.3, trials, seed,
                              n_cap=0)
    assert np.all(times[ties] == 0)
    exact = counts @ np.array([1, 2, 7])  # tenths
    est = estimate_sample_complexity(measure, 0.3, 0.5, trials=trials,
                                     seed=seed)
    assert dict(est.probes)[0] == np.count_nonzero(exact > 3)


def _starting_error_measure(case):
    # (measure, free atoms, runs of equal units among the free atoms)
    if case == "constructed":
        inst = small_instance(K=2, degree=2)
        measure = inst.measure()
        free = len(inst.locations) - 1
        assert free == len(measure) - 1  # the residual atom stays 0
        return measure, free, inst.schedule.K
    if case == "pairs":
        # 0.1 comes twice, at atoms apart: one run of two atoms.
        measure = AtomicMeasure.from_pairs(
            enumerate([0.05, 0.1, 0.3, 0.1, 0.25, 0.2]))
        return measure, len(measure), len(measure) - 1
    measure = AtomicMeasure.uniform_on([float(i) for i in range(7)])
    return measure, len(measure), 1


@pytest.mark.parametrize("draws", [1, 700, 2 ** 16])
@pytest.mark.parametrize("case", ["constructed", "pairs", "uniform"])
def test_starting_error_matches_brute_force(monkeypatch, case, draws):
    # With no draws, a trial is hit at 0 exactly when its starting error,
    # summed run by run in Fractions, is at most eps.  eps sits on the
    # mass of each prefix of runs and on the starting error of some trials
    # (ties); the bound on a window's draws does not touch the start.
    from paclab import learner
    monkeypatch.setattr(learner, "_EPISODE_DRAWS", draws)
    measure, free, run_count = _starting_error_measure(case)
    total = measure.total_units
    values, sizes = _runs(measure, free)
    assert len(values) == run_count
    trials, seed = 300, 11
    counts = _starting_counts(measure, free, trials, seed)
    assert np.all((counts >= 0) & (counts <= sizes))
    start = [sum((Fraction(int(c) * int(v), total)
                  for c, v in zip(row, values)), Fraction(0))
             for row in counts]
    prefixes = np.cumsum(values * sizes).tolist()
    for eps in {Fraction(0), *(Fraction(p, total) for p in prefixes),
                *start[:5], Fraction(1)}:
        times, made = learner._hitting_times(_target(measure, free), eps,
                                             trials, seed, n_cap=0)
        assert made == 0
        assert times.tolist() == [0 if e <= eps else learner.NOT_HIT
                                  for e in start]


def _exact_cdf(masses, free, eps, n_max):
    # P(T <= n) for n = 0..n_max in Fractions: the law of the set of atoms
    # seen after n i.i.d. draws, by a recursion over subsets, against
    # every target on the first `free` atoms.
    exact = [Fraction(str(m)) for m in masses]
    exact = [m / sum(exact) for m in exact]
    passes = {}
    for seen in range(2 ** len(exact)):
        errors = [sum((exact[i] for i in range(free)
                       if target >> i & 1 and not seen >> i & 1),
                      Fraction(0)) for target in range(2 ** free)]
        passes[seen] = Fraction(sum(e <= eps for e in errors), 2 ** free)
    law = {0: Fraction(1)}
    cdf = []
    for _ in range(n_max + 1):
        cdf.append(sum(p * passes[seen] for seen, p in law.items()))
        after = {}
        for seen, p in law.items():
            for i, m in enumerate(exact):
                after[seen | 1 << i] = after.get(seen | 1 << i, 0) + p * m
        law = after
    return cdf


# (masses, free atoms, eps, bound): one run, one run per atom, and a
# residual atom fixed at label 0.  Each bound is the largest chi-square
# statistic of the test below over 300 pilot seeds (0-299), rounded up;
# the pilot's 99th percentiles read 26.1, 33.3 and 82.6.
LAW_CASES = {"one run": ([0.25, 0.25, 0.25, 0.25], 4, Fraction(1, 4), 31),
             "run per atom": ([0.1, 0.2, 0.3, 0.4], 4, Fraction(3, 10), 43),
             "residual": ([0.05, 0.1, 0.85], 2, Fraction(1, 20), 87)}


LAW_TRIALS = 100000


def _law_statistic(case):
    # Pearson's chi-square of LAW_TRIALS simulated hitting times against
    # their exact law, bins of expected count below 20 pooled (13, 16 and
    # 54 degrees of freedom).
    from paclab.learner import _hitting_times
    masses, free, eps, _ = LAW_CASES[case]
    n_max, seed = 150, 2024
    measure = AtomicMeasure.from_pairs(enumerate(masses))
    times, _ = _hitting_times(_target(measure, free), eps, LAW_TRIALS, seed)
    cdf = [float(c) for c in _exact_cdf(masses, free, eps, n_max)]
    expected = np.diff([0.0, *cdf, 1.0]) * LAW_TRIALS
    observed = np.bincount(np.minimum(times, n_max + 1), minlength=n_max + 2)
    kept = expected >= 20
    observed = np.append(observed[kept], observed[~kept].sum())
    expected = np.append(expected[kept], expected[~kept].sum())
    return ((observed - expected) ** 2 / expected).sum()


@pytest.mark.parametrize("case", LAW_CASES)
def test_hitting_times_follow_the_exact_law(case):
    # Ordering a trial's first draws by run, or by untruncated exponential
    # times, fails it.
    assert _law_statistic(case) <= LAW_CASES[case][3]


@pytest.mark.parametrize("width", [1, 7, "large"])
def test_hitting_times_do_not_depend_on_the_block_width(monkeypatch, width):
    # Windows of at most `width` expected first draws per 20 trials split
    # the pass into more windows than the default bound does (1 and 7),
    # or into windows of doubling span only ("large").  The stream
    # changes, its law does not: each case stays under the bound of its
    # default-window pilot.
    from paclab import learner
    columns = 2 ** 20 if width == "large" else width
    monkeypatch.setattr(learner, "_EPISODE_DRAWS", columns * LAW_TRIALS // 20)
    for case, (*_, bound) in LAW_CASES.items():
        assert _law_statistic(case) <= bound


def _chunk_cases():
    # (runs, eps, trials, seed, allowed, n_cap) per case.
    from paclab.learner import DEFAULT_N_CAP, _target_runs
    cases = [(_target(AtomicMeasure.from_pairs(enumerate(masses)), free),
              eps, 2000, 2024, 0, DEFAULT_N_CAP)
             for masses, free, eps, _ in LAW_CASES.values()]
    cases.append((_target_runs(small_instance(K=2)), 0.04, 400, 3, 30, 300))
    schedule = ComplexitySchedule.default(K=3)
    cases += [(_target_runs(schedule), schedule.eps[level - 1], 400, 1, 0,
               DEFAULT_N_CAP) for level in (1, 2)]
    return cases


@pytest.mark.parametrize("chunk", [1, 7, 2 ** 30])
def test_hitting_times_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # One trial per chunk (1), a few (7), or the whole window at once
    # (2**30): a window's draws and gaps come from the same stream in the
    # same order, so every time and the work agree exactly.
    from paclab import learner
    cases = _chunk_cases()
    want = [learner._hitting_times(*case) for case in cases]
    monkeypatch.setattr(learner, "_CHUNK", chunk)
    for (times, work), case in zip(want, cases):
        got, made = learner._hitting_times(*case)
        assert np.array_equal(got, times) and made == work


@pytest.mark.parametrize("level", [2, 3])
def test_hitting_times_footprint_is_one_chunk(level):
    # A window of up to 2**16 first draws is worked a chunk of 2**13 at a
    # time: the pass peaks at 1.1-1.4 MiB here, where whole-window arrays
    # peaked at 4.9 and 6.0 MiB.
    import tracemalloc

    from paclab.learner import _hitting_times, _target_runs
    schedule = ComplexitySchedule.default(K=3)
    runs = _target_runs(schedule)
    tracemalloc.start()
    try:
        _hitting_times(runs, schedule.eps[level - 1], 400, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20


def test_hitting_times_count_a_repeated_draw_once():
    # At eps = 0 a trial is hit once it has drawn each of its targets, and
    # meanwhile it draws the heavy atom, or a target already seen, again
    # and again.  The pass simulates one first draw per target; the draws
    # in between count in T only.
    from paclab.learner import NOT_HIT, _hitting_times
    measure = AtomicMeasure.from_pairs(enumerate([0.8, 0.1, 0.1]))
    trials, repeats = 50, 0
    for seed in range(10):
        targets = _starting_counts(measure, 3, trials, seed).sum(axis=1)
        times, made = _hitting_times(_target(measure, 3), 0, trials, seed)
        assert made == targets.sum() and NOT_HIT not in times
        assert np.array_equal(times == 0, targets == 0)
        assert np.all(times >= targets)
        repeats += np.count_nonzero(times > targets)
    assert repeats > 0


@settings(max_examples=40, deadline=None)
@given(cuts=st.sets(st.integers(1, 99), max_size=6),
       picks=st.lists(st.booleans(), min_size=7, max_size=7),
       trials=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_hitting_times_match_sequential_fractions(cuts, picks, trials, seed):
    # Each trial replayed one first draw at a time: its hitting times at
    # every eps = k / U give N and the unseen units after each first draw
    # of a target, units[rem] being the least k with T(k) = N.  The units
    # start at the trial's fair start, each step takes away one target
    # atom's units, and the last leaves none.  eps given as a float, or
    # halfway to the next k, is decided as k in Fractions.
    from paclab.learner import NOT_HIT, _hitting_times
    # Masses of whole hundredths read back exactly, and eps is the mass of
    # a subset of atoms, so err_n == eps ties come up.
    edges = [0, *sorted(cuts), 100]
    weights = [b - a for a, b in zip(edges, edges[1:])]
    measure = AtomicMeasure.from_pairs(enumerate(w / 100 for w in weights))
    free, total = len(weights), measure.total_units
    values = _runs(measure, free)[0]
    counts = _starting_counts(measure, free, trials, seed)
    ladder = np.array([_hitting_times(_target(measure, free),
                                      Fraction(k, total), trials, seed)[0]
                       for k in range(total + 1)])
    assert NOT_HIT not in ladder and np.all(np.diff(ladder, axis=0) <= 0)
    for t in range(trials):
        ns = np.unique(ladder[:, t])
        rem = np.array([np.argmax(ladder[:, t] == n) for n in ns])
        assert ns[0] == 0 and rem[0] == counts[t] @ values and rem[-1] == 0
        gains = -np.diff(rem)
        assert np.isin(gains, values).all()
        assert np.array_equal((gains[:, None] == values).sum(axis=0),
                              counts[t])
    w = max(sum(w for w, p in zip(weights, picks) if p), 1)
    k = w * total // 100
    for eps in (w / 100, Fraction(2 * k + 1, 2 * total)):
        times, _ = _hitting_times(_target(measure, free), eps, trials, seed)
        assert np.array_equal(times, ladder[k])


@pytest.mark.parametrize("draws", [1, 200, 2 ** 16])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1001, 4096])
def test_fair_bits_follow_the_raw_words(monkeypatch, count, draws):
    # A target labels each of `count` equal atoms by a fair bit, and the
    # pass reads the bits first from the seed's stream as one count per
    # trial: a twin generator's binomial(count, 1/2) draw, whatever the
    # bound on a window's first draws.  A last atom stays 0, so at eps =
    # 1/2 a trial with c targets is hit at 0 iff c <= h = (count + 1) // 2,
    # and needs at least c - h first draws otherwise.
    from paclab import learner
    monkeypatch.setattr(learner, "_EPISODE_DRAWS", draws)
    measure = AtomicMeasure.uniform_on([float(i) for i in range(count + 1)])
    half, seed = (count + 1) // 2, count + 3
    counts = _starting_counts(measure, count, 1000, seed).sum(axis=1)
    assert abs(counts.sum() - 500 * count) <= 4 * math.sqrt(250 * count)
    times, made = learner._hitting_times(_target(measure, count),
                                         Fraction(1, 2), 1000, seed, n_cap=0)
    assert made == 0
    assert np.array_equal(times, np.where(counts <= half, 0,
                                          learner.NOT_HIT))
    counts = _starting_counts(measure, count, 3, seed).sum(axis=1)
    times, made = learner._hitting_times(_target(measure, count),
                                         Fraction(1, 2), 3, seed)
    need = np.maximum(counts - half, 0)
    assert np.array_equal(times == 0, need == 0) and np.all(times >= need)
    assert made >= need.sum()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hitting_times_are_monotone_in_eps(seed):
    # The stream does not depend on eps, so neither does any trial's path.
    from paclab.learner import _hitting_times
    inst = small_instance(K=2, degree=1)
    free = len(inst.locations) - 1
    runs = _target(inst.measure(), free)
    times = [_hitting_times(runs, eps, 200, seed)[0]
             for eps in (0.5, 0.2, 0.1, 0.04, 0.01, 0.0)]
    for larger, smaller in zip(times, times[1:]):
        assert np.all(larger <= smaller)


@pytest.mark.parametrize("allowed", [1, 30, 99])
def test_early_stop_settles_the_smallest_times(allowed):
    # Stopping once the (trials - allowed) smallest times are known, or at
    # n_cap, leaves those times as the full pass reads them.
    from paclab.learner import NOT_HIT, _hitting_times
    inst = small_instance(K=2, degree=1)
    measure = inst.measure()
    free = len(inst.locations) - 1
    trials, seed, eps = 100, 6, 0.04
    runs = _target(measure, free)
    full, work = _hitting_times(runs, eps, trials, seed)
    part, less = _hitting_times(runs, eps, trials, seed, allowed=allowed)
    kept = trials - allowed
    assert np.array_equal(np.sort(part)[:kept], np.sort(full)[:kept])
    assert np.all((part == full) | (part == NOT_HIT)) and less <= work
    cap = int(np.median(full))
    capped, _ = _hitting_times(runs, eps, trials, seed, n_cap=cap)
    assert np.array_equal(capped, np.where(full <= cap, full, NOT_HIT))


def test_arrival_order_breaks_float_key_ties_by_time():
    # At trial 2**24 the key trial + at / span cannot tell times 1e-12
    # apart; a time a hair past the window's end still sorts before the
    # next trial's arrivals.
    from paclab.learner import _arrival_order
    trial = np.array([0, 0, 1, 3, 3, 2 ** 24, 2 ** 24])
    at = np.array([1.0 + 2 ** -52, 0.5, 0.0, 0.75, 0.25, 0.5 + 1e-12, 0.5])
    assert _arrival_order(trial, at, 1.0).tolist() == [1, 0, 2, 4, 3, 6, 5]
    assert _arrival_order(trial[:5], at[:5], 1.0).tolist() == [1, 0, 2, 4, 3]
    assert _arrival_order(trial[5:], at[5:], 1.0).tolist() == [1, 0]


# ---------------------------------------------------------------------------
# sample-complexity estimation


def test_single_atom_universe_needs_one_draw():
    m = AtomicMeasure.from_pairs([(0.0, 1.0)])
    est = estimate_sample_complexity(m, 0.1, 0.1, trials=200, seed=3)
    assert est.n_hat == 1
    assert est.failure_rate_at_n_hat <= 0.1
    assert est.status == "converged"


def test_vacuous_accuracy_needs_no_samples():
    m = AtomicMeasure.from_pairs([(0.0, 1.0)])
    est = estimate_sample_complexity(m, 1.5, 0.1, trials=200, seed=3)
    assert est.n_hat == 0


def test_instance_without_levels_needs_no_samples():
    # K = 0 leaves only the residual atom, which no target labels.
    inst = build_measure(ComplexitySchedule(eps=(Fraction(1, 5),),
                                            f=RateFunction.poly(1), K=0))
    est = estimate_sample_complexity(inst, 0.1, 0.1, trials=100)
    assert (est.n_hat, est.draws) == (0, 0)


def test_estimate_monotone_in_eps():
    inst = small_instance(K=1, degree=1)
    hats = [estimate_sample_complexity(inst, eps, 0.1, trials=200,
                                       seed=12).n_hat
            for eps in (0.05, 0.1, 0.2, 0.4)]
    assert hats == sorted(hats, reverse=True)


def test_estimate_threshold_property():
    inst = small_instance(K=1, degree=1)
    est = estimate_sample_complexity(inst, 0.1, 0.1, trials=300, seed=8)
    probed = dict(est.probes)
    assert probed[est.n_hat] / est.trials <= est.delta
    if est.n_hat - 1 in probed:
        assert probed[est.n_hat - 1] / est.trials > est.delta
    lo, hi = est.confidence_interval
    assert lo <= est.failure_rate_at_n_hat <= hi


def test_n_hat_is_a_hitting_time_quantile():
    from paclab.learner import _hitting_times
    inst = small_instance(K=1, degree=1)
    free = len(inst.locations) - 1
    trials, seed, eps, delta = 300, 8, 0.1, 0.1
    est = estimate_sample_complexity(inst, eps, delta, trials=trials,
                                     seed=seed)
    runs = _target(inst.measure(), free)
    times, _ = _hitting_times(runs, eps, trials, seed)
    allowed = 30  # the most failures f with f / 300 <= 0.1
    assert est.n_hat == sorted(times)[trials - allowed - 1]
    assert [f for _, f in est.probes] == [int(np.sum(times > n))
                                          for n, _ in est.probes]
    ns = [n for n, _ in est.probes]
    assert ns[:2] == [0, 1] and ns[-2:] == [est.n_hat - 1, est.n_hat]
    # draws counts the first draws of targets that the stopping pass made:
    # one at least for each trial hit after the start by n_hat, at most
    # one per trial and target atom.
    assert est.draws == _hitting_times(runs, eps, trials, seed, allowed)[1]
    assert (np.count_nonzero((times > 0) & (times <= est.n_hat))
            <= est.draws <= trials * free)
    assert est.to_json()["draws"] == est.draws


def test_estimate_bracket_on_linear_instance():
    from paclab.construction import theoretical_profile
    inst = small_instance(K=1, degree=1)
    prof = theoretical_profile(inst, 0.1)
    est = estimate_sample_complexity(inst, 0.2, 0.1, trials=400, seed=21)
    assert prof.rows[0].lower <= est.n_hat <= prof.rows[0].upper


def test_hitting_times_stay_in_int64_under_any_cap():
    # Six atoms of 1e-18 and one of the rest: a trial draws about 1e18
    # times before it sees them all, so a cap near the end of int64 would
    # let N wrap.  The cap is lowered instead, and a quantile past it is
    # reported as cap_exceeded, whatever cap is passed.
    from paclab.learner import NOT_HIT, _hitting_times
    m = AtomicMeasure.from_pairs([(float(i), 1e-18) for i in range(6)]
                                 + [(6.0, 1 - 6e-18)])
    times, _ = _hitting_times(_target(m, len(m)), 0, 2000, 1,
                              n_cap=NOT_HIT - 1)
    assert times.min() >= 0
    assert np.all((times < NOT_HIT // (len(m) + 1)) | (times == NOT_HIT))
    for cap in (NOT_HIT - 1, 2 ** 64):
        est = estimate_sample_complexity(m, 1e-19, 0.01, trials=2000, seed=1,
                                         n_cap=cap)
        assert est.status == "cap_exceeded" and est.n_hat is None


def test_estimate_cap_status():
    inst = small_instance(K=1, degree=1)
    est = estimate_sample_complexity(inst, 0.001, 0.001, trials=100, seed=5,
                                     n_cap=4)
    assert est.status == "cap_exceeded"
    assert est.n_hat is None
    # A cap past int64 is no cap at all.
    est = estimate_sample_complexity(inst, 0.1, 0.1, trials=100, seed=5,
                                     n_cap=2 ** 64)
    assert est == estimate_sample_complexity(inst, 0.1, 0.1, trials=100,
                                             seed=5)


def test_estimator_memory_guard_raises_before_allocating():
    import tracemalloc

    from paclab.learner import MAX_EPISODE_CELLS
    inst = small_instance(K=1, degree=1)
    trials = 10 ** 7
    assert trials * len(inst.measure()) > MAX_EPISODE_CELLS
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError):
            estimate_sample_complexity(inst, 0.1, 0.1, trials=trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_estimate_rejects_bad_parameters():
    m = AtomicMeasure.from_pairs([(0.0, 1.0)])
    with pytest.raises(ValueError):
        estimate_sample_complexity(m, 0.1, 0.1, trials=10)
    with pytest.raises(ValueError):
        estimate_sample_complexity(m, 0.1, 1.5)


def test_wilson_interval_basics():
    lo, hi = wilson_interval(5, 100)
    assert 0.0 <= lo <= 0.05 <= hi <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


# ---------------------------------------------------------------------------
# uniform-deviation experiments


def test_gc_single_atom_deviation_is_zero():
    m = AtomicMeasure.from_pairs([(3.0, 1.0)])
    fam = [AtomLabeling.for_measure(m, (b,)) for b in (0, 1)]
    res = gc_deviation(fam, m, n=5, trials=10, seed=1, mode="census")
    assert res.max == 0.0


def test_gc_atomic_census_reads_multinomial_counts():
    # Trial t counts the atoms by rng.multinomial(n, p) on stream
    # [seed, t], p the exact masses rounded once; its deviation is the
    # largest gap between a labeling's exact mass and its share of them.
    m = AtomicMeasure.from_pairs([(0.0, 0.1), (1.0, 0.2), (2.0, 0.7)])
    exact = [Fraction(1, 10), Fraction(2, 10), Fraction(7, 10)]
    labelings = list(itertools.product((0, 1), repeat=3))
    fam = [AtomLabeling.for_measure(m, bits) for bits in labelings]
    n, seed = 50, 9
    res = gc_deviation(fam, m, n=n, trials=30, seed=seed, mode="census")
    for t, dev in enumerate(res.deviations):
        counts = np.random.default_rng([seed, t]).multinomial(
            n, [0.1, 0.2, 0.7])
        want = max(abs(sum((e - Fraction(int(c), n)
                            for e, c, b in zip(exact, counts, bits) if b),
                           Fraction(0))) for bits in labelings)
        assert math.isclose(dev, want, rel_tol=1e-12, abs_tol=1e-15)


def test_gc_census_shrinks_with_n():
    inst = small_instance(K=1, degree=1)
    # The 32 labelings of the five level atoms, 0 on the residual atom.
    locations = inst.locations[:5]
    fam = [AtomLabeling(locations, [(i >> j) & 1 for j in range(5)])
           for i in range(2 ** 5)]
    measure = inst.measure()
    small = gc_deviation(fam, measure, n=20, trials=30, seed=2, mode="census")
    large = gc_deviation(fam, measure, n=10 ** 4, trials=30, seed=2,
                         mode="census")
    assert large.max <= 0.05
    assert large.median < small.median


def test_gc_census_generic_concepts_under_uniform():
    u = UniformMeasure(0.0, 1.0)
    fam = [IntervalUnion(((0.0, 0.5),)), IntervalUnion(((0.25, 0.75),))]
    res = gc_deviation(fam, u, n=4000, trials=10, seed=6, mode="census")
    assert res.max <= 0.05


@st.composite
def census_families(draw):
    # Endpoints from a small pool, so pieces touch, repeat and sit on the
    # first trial's sample points: Fractions a hair off a point or off 1/3
    # round onto the same float.
    n = draw(st.integers(min_value=1, max_value=30))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    xs = UniformMeasure(0.0, 1.0).sample(n, seed=[seed, 0]).tolist()
    tiny = Fraction(1, 10 ** 40)
    pool = [0.0, 0.5, 1.0, Fraction(1, 3), Fraction(1, 3) + tiny,
            Fraction(2, 7) - tiny, Fraction(2, 7), *xs,
            *(Fraction(x) + tiny for x in xs[:3]),
            *(Fraction(x) - tiny for x in xs[:3])]
    kinds = st.sampled_from(["grid", "intervals", "sign", "atoms"])
    family = []
    for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
        if kind == "grid":
            order = draw(st.integers(min_value=1, max_value=12))
            cells = draw(st.sets(st.integers(min_value=0, max_value=order - 1)))
            family.append(GridUnion(order, tuple(cells)))
        elif kind == "intervals":
            ends = sorted(draw(st.lists(st.sampled_from(pool), max_size=8)))
            family.append(IntervalUnion(tuple(zip(ends[::2], ends[1::2]))))
        elif kind == "sign":
            family.append(SontagConcept(draw(st.floats(min_value=0.0,
                                                       max_value=50.0))))
        else:
            locations = draw(st.lists(st.sampled_from(xs), unique=True))
            family.append(AtomLabeling(
                tuple(locations), tuple(draw(st.lists(
                    st.sampled_from([0, 1]), min_size=len(locations),
                    max_size=len(locations)))),
                draw(st.sampled_from([0, 1]))))
    return family, n, seed


@settings(max_examples=150, deadline=None)
@given(census_families())
def test_gc_census_counts_match_the_membership_loop(case):
    # The census counts closed-interval concepts in the sorted sample;
    # every deviation equals the per-concept mean of the membership mask
    # bit for bit.
    family, n, seed = case
    u = UniformMeasure(0.0, 1.0)
    samples = [u.sample(n, seed=[seed, t]) for t in range(3)]
    gaps = np.array([[abs(expect_indicator(u, c)
                          - float(np.mean(c.contains_many(xs))))
                      for c in family] for xs in samples])
    # Each concept alone, then the whole family at once.
    for i, c in enumerate(family):
        res = gc_deviation([c], u, n=n, trials=3, seed=seed, mode="census")
        assert list(res.deviations) == gaps[:, i].tolist()
    res = gc_deviation(family, u, n=n, trials=3, seed=seed, mode="census")
    assert list(res.deviations) == gaps.max(axis=1).tolist()


def test_gc_adversarial_sontag_deviation_does_not_decay():
    u = UniformMeasure(0.0, TWO_PI)
    fam = SontagFamily(10 ** 6)
    medians = {}
    for n in (4, 8, 16):
        res = gc_deviation(fam, u, n=n, trials=60, seed=14,
                           mode="adversarial")
        assert res.failed_trials == 0
        assert res.median >= 0.4
        medians[n] = res.median
    assert abs(medians[8] - medians[4]) <= 0.1
    assert abs(medians[16] - medians[4]) <= 0.1


def test_gc_adversarial_fits_and_reports_true_mass():
    u = UniformMeasure(0.0, TWO_PI)
    fam = SontagFamily(10 ** 6)
    res = gc_deviation(fam, u, n=6, trials=20, seed=31, mode="adversarial")
    for dev in res.deviations:
        assert 0.4 <= dev <= 0.6


def test_gc_adversarial_order_intervals():
    u = UniformMeasure(0.0, 1.0)
    res = gc_deviation(OrderIntervalFamily(), u, n=50, trials=20, seed=7,
                       mode="adversarial")
    assert res.failed_trials == 0
    assert min(res.deviations) >= 0.98


def test_gc_mode_validation():
    u = UniformMeasure(0.0, 1.0)
    with pytest.raises(TypeError):
        gc_deviation([IntervalUnion(((0.0, 0.5),))], u, n=4, mode="adversarial")
    with pytest.raises(ValueError):
        gc_deviation(OrderIntervalFamily(), u, n=4, mode="bogus")
