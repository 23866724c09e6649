import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from erm import LabeledSample, empirical_risk, erm_learn
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
        brute = 0.0
        for atom in m.atoms:
            if h.contains(atom.location) != t.contains(atom.location):
                brute += atom.mass
        assert l1_distance(h, t, m) == brute


def test_true_error_single_atom_disagreement():
    m = AtomicMeasure.from_pairs([(0.0, 0.992), (1.0, 0.008)])
    h = AtomLabeling.for_measure(m, (0, 0))
    t = AtomLabeling.for_measure(m, (0, 1))
    assert l1_distance(h, t, m) == 0.008


def _target_bits(rng, count):
    # The target stream one bit at a time, in Python ints: bit j is bit
    # j mod 64 of raw word j // 64.
    words = rng.bit_generator.random_raw(-(-count // 64))
    return [bool((int(words[j // 64]) >> (j % 64)) & 1) for j in range(count)]


def _stream(measure, free, trials, n, seed):
    # The estimator's episodes drawn the plain way: targets bit by bit from
    # the raw words, then rng.choice for n draws of every trial,
    # column-major.
    rng = np.random.default_rng(seed)
    targets = np.zeros((trials, len(measure)), dtype=bool)
    targets[:, :free] = np.reshape(_target_bits(rng, trials * free),
                                   (trials, free))
    idx = rng.choice(len(measure), size=(n, trials), p=measure.masses).T
    return targets, idx


def test_vectorized_episodes_match_erm_learn():
    # erm_learn on the first n draws of trial t errs above eps exactly
    # when the trial's hitting time is above n.
    from paclab.learner import NOT_HIT, _hitting_times
    inst = small_instance(K=1, degree=1)
    measure = inst.measure()
    free = sum(lvl.size for lvl in inst.levels)
    eps, trials, seed = 0.3, 64, 99
    times, _ = _hitting_times(measure, free, eps, trials, seed)
    assert NOT_HIT not in times
    targets, idx = _stream(measure, free, trials, int(times.max()) + 2, seed)
    for t in range(trials):
        target = AtomLabeling.for_measure(
            measure, tuple(int(b) for b in targets[t]))
        for n in sorted({0, 1, 5, 12, times[t] - 1, times[t], times[t] + 1}):
            if n < 0:
                continue
            points = tuple(measure.locations[idx[t, :n]])
            labels = tuple(int(target.contains(p)) for p in points)
            h = erm_learn(LabeledSample(points, labels), measure)
            assert empirical_risk(h, LabeledSample(points, labels)) == 0.0
            assert (l1_distance(h, target, measure) > eps) == (times[t] > n)


def _reference_times(measure, free, eps, trials, n, seed):
    # Hitting times from the plain stream, err_n summed in exact units
    # after each draw; NOT_HIT past n draws.
    from paclab.learner import NOT_HIT
    units, total = measure.units()
    eps = Fraction(str(eps))
    targets, idx = _stream(measure, free, trials, n, seed)
    seen = np.zeros_like(targets)
    times = np.full(trials, NOT_HIT)
    for j in range(n + 1):
        err = np.array([units[row].sum() for row in targets & ~seen])
        times[(times == NOT_HIT) & (err * eps.denominator
                                    <= eps.numerator * total)] = j
        if j < n:
            seen[np.arange(trials), idx[:, j]] = True
    return times


@pytest.mark.parametrize("width", [1, 7, "large"])
def test_hitting_times_do_not_depend_on_the_block_width(monkeypatch, width):
    from paclab import learner
    inst = small_instance(K=1, degree=1)
    measure = inst.measure()
    free = sum(lvl.size for lvl in inst.levels)
    # 505 target bits: rows of 5 atoms straddle 64-bit words, and the
    # last word is only partly read before the uniforms start.
    trials, seed, n = 101, 5, 40
    assert trials * free % 2 == 1
    columns = 2 ** 20 if width == "large" else width
    monkeypatch.setattr(learner, "_EPISODE_DRAWS", columns * trials)
    for eps in (0.0, 0.16, 0.3, 0.5, 1.0):
        expected = _reference_times(measure, free, eps, trials, n, seed)
        times, draws = learner._hitting_times(measure, free, eps, trials,
                                              seed, n_cap=n)
        assert np.array_equal(times, expected)
        assert draws % trials == 0 and draws <= n * trials
        # Stopping once at most `allowed` trials run leaves the rest as is.
        times, _ = learner._hitting_times(measure, free, eps, trials, seed,
                                          allowed=30, n_cap=n)
        known = times != learner.NOT_HIT
        assert np.array_equal(times[known], expected[known])
        assert np.count_nonzero(~known) <= 30
        assert np.all(expected[~known] > times[known].max(initial=0))


def _sequential_times(masses, eps, trials, n, seed):
    # One trial at a time, one draw at a time, in Fractions: the
    # estimator's stream with err_n summed exactly after each draw.
    exact = [Fraction(str(m)) for m in masses]
    exact = [m / sum(exact) for m in exact]
    eps = Fraction(str(eps))
    rng = np.random.default_rng(seed)
    targets = np.reshape(_target_bits(rng, trials * len(masses)),
                         (trials, len(masses)))
    columns = [rng.choice(len(masses), size=trials, p=masses)
               for _ in range(n)]
    times = []
    for t in range(trials):
        missed = {i for i in range(len(masses)) if targets[t, i]}
        time = None
        for j in range(n + 1):
            if sum((exact[i] for i in missed), Fraction(0)) <= eps:
                time = j
                break
            if j < n:
                missed.discard(int(columns[j][t]))
        times.append(time)
    return times


@settings(max_examples=40, deadline=None)
@given(cuts=st.sets(st.integers(1, 99), max_size=6),
       picks=st.lists(st.booleans(), min_size=7, max_size=7),
       trials=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_hitting_times_match_sequential_fractions(cuts, picks, trials, seed):
    from paclab.learner import NOT_HIT, _hitting_times
    # Masses of whole hundredths read back exactly, and eps is the mass of
    # a subset of atoms, so err_n == eps ties come up.
    edges = [0, *sorted(cuts), 100]
    weights = [b - a for a, b in zip(edges, edges[1:])]
    masses = [w / 100 for w in weights]
    measure = AtomicMeasure.from_pairs(enumerate(masses))
    eps = max(sum(w for w, p in zip(weights, picks) if p), 1) / 100
    n = 25
    times, _ = _hitting_times(measure, len(masses), eps, trials, seed,
                              n_cap=n)
    expected = _sequential_times(masses, eps, trials, n, seed)
    assert [None if t == NOT_HIT else int(t) for t in times] == expected


def test_hitting_times_count_a_repeated_draw_once():
    # A trial that draws a missed atom twice within one block loses its
    # units once.  With 3 trials and 25 draws the blocks hold draws 0,
    # 1-2, 3-6, 7-14 and 15-24.
    from paclab.learner import NOT_HIT, _hitting_times
    masses = [0.8, 0.1, 0.1]
    measure = AtomicMeasure.from_pairs(enumerate(masses))
    trials, n, eps = 3, 25, 0.05
    blocks = [(0, 1), (1, 3), (3, 7), (7, 15), (15, 25)]
    repeats = 0
    for seed in range(10):
        times, _ = _hitting_times(measure, 3, eps, trials, seed, n_cap=n)
        times = [None if t == NOT_HIT else int(t) for t in times]
        assert times == _sequential_times(masses, eps, trials, n, seed)
        targets, idx = _stream(measure, 3, trials, n, seed)
        for t in range(trials):
            for a, b in blocks:
                if a < (n if times[t] is None else times[t]):
                    fresh = [x for x in idx[t, a:b]
                             if targets[t, x] and x not in idx[t, :a]]
                    repeats += len(fresh) > len(set(fresh))
    assert repeats > 0


def test_packed_first_draw_keys_fit_int64():
    # The keys cell * width + draw and (trial * width + draw) * atoms +
    # atom stay below trials * atoms * width: at most MAX_EPISODE_CELLS
    # cells, and blocks of at most _EPISODE_DRAWS / 100 draws at the
    # fewest trials the estimator takes.
    from paclab.learner import _EPISODE_DRAWS, MAX_EPISODE_CELLS
    assert MAX_EPISODE_CELLS * (_EPISODE_DRAWS // 100) <= 2 ** 35 < 2 ** 63


def test_exact_error_equal_to_eps_is_not_a_failure():
    from paclab.learner import _hitting_times
    assert 0.1 + 0.2 > 0.3  # the float sum of the two light atoms
    measure = AtomicMeasure.from_pairs([(0.0, 0.1), (1.0, 0.2), (2.0, 0.7)])
    trials, seed = 200, 4
    targets, _ = _stream(measure, 3, trials, 0, seed)
    ties = np.all(targets == [True, True, False], axis=1)
    assert ties.any()
    times, _ = _hitting_times(measure, 3, 0.3, trials, seed, n_cap=0)
    assert np.all(times[ties] == 0)
    exact = targets @ np.array([1, 2, 7])  # tenths
    est = estimate_sample_complexity(measure, 0.3, 0.5, trials=trials,
                                     seed=seed)
    assert dict(est.probes)[0] == np.count_nonzero(exact > 3)


@pytest.mark.parametrize("draws", [1, 200, 2 ** 16])
@pytest.mark.parametrize("count", [0, 1, 63, 64, 65, 1001, 4096])
def test_fair_bits_follow_the_raw_words(monkeypatch, count, draws):
    # Bit j is bit j mod 64 of raw word j // 64, and the next draw starts
    # at word ceil(count / 64), as in a twin generator that read the words;
    # unpacked one word, three words or 1024 words at a time.
    from paclab import learner
    monkeypatch.setattr(learner, "_EPISODE_DRAWS", draws)
    ours = np.random.default_rng([count, 3])
    twin = np.random.default_rng([count, 3])
    bits = learner._fair_bits(ours, count)
    assert bits.dtype == bool and bits.shape == (count,)
    assert bits.tolist() == _target_bits(twin, count)
    assert np.array_equal(ours.random(5), twin.random(5))


def _starting_error_measure(case):
    # (measure, free atoms, runs of equal units among the free atoms)
    if case == "constructed":
        inst = small_instance(K=2, degree=2)
        measure = inst.measure()
        free = sum(lvl.size for lvl in inst.levels)
        assert free == len(measure) - 1  # the residual atom stays 0
        return measure, free, len(inst.levels)
    if case == "pairs":
        # Adjacent masses differ, so every atom is a run; 0.1 comes twice.
        measure = AtomicMeasure.from_pairs(
            enumerate([0.05, 0.1, 0.3, 0.1, 0.25, 0.2]))
        return measure, len(measure), len(measure)
    measure = AtomicMeasure.uniform_on([float(i) for i in range(7)])
    return measure, len(measure), 1


@pytest.mark.parametrize("draws", [1, 700, 2 ** 16])
@pytest.mark.parametrize("case", ["constructed", "pairs", "uniform"])
def test_starting_error_matches_brute_force(monkeypatch, case, draws):
    # With no draws, a trial is hit at 0 exactly when its target's units
    # are at most floor(eps U).  eps sits on the mass of each prefix of
    # runs and on the starting error of some trials (ties); the chunk of
    # rows counted at once runs from one row to all of them.
    from paclab import learner
    monkeypatch.setattr(learner, "_EPISODE_DRAWS", draws)
    measure, free, run_count = _starting_error_measure(case)
    units, total = measure.units()
    trials, seed = 300, 11
    targets, _ = _stream(measure, free, trials, 0, seed)
    start = targets.astype(np.int64) @ units
    runs = np.flatnonzero(np.diff(units[:free], prepend=-1))
    assert len(runs) == run_count
    prefixes = np.cumsum(units[:free])[np.append(runs[1:], free) - 1]
    for num in {0, *prefixes.tolist(), *start[:5].tolist(), total}:
        times, draws_made = learner._hitting_times(
            measure, free, Fraction(num, total), trials, seed, n_cap=0)
        assert draws_made == 0
        assert np.array_equal(times, np.where(start <= num, 0,
                                              learner.NOT_HIT))


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
    free = sum(lvl.size for lvl in inst.levels)
    trials, seed, eps, delta = 300, 8, 0.1, 0.1
    est = estimate_sample_complexity(inst, eps, delta, trials=trials,
                                     seed=seed)
    times, _ = _hitting_times(inst.measure(), free, eps, trials, seed)
    allowed = 30  # the most failures f with f / 300 <= 0.1
    assert est.n_hat == sorted(times)[trials - allowed - 1]
    assert [f for _, f in est.probes] == [int(np.sum(times > n))
                                          for n, _ in est.probes]
    ns = [n for n, _ in est.probes]
    assert ns[:2] == [0, 1] and ns[-2:] == [est.n_hat - 1, est.n_hat]
    assert est.draws % trials == 0 and est.draws >= trials * est.n_hat
    assert est.to_json()["draws"] == est.draws


def test_estimate_bracket_on_linear_instance():
    from paclab.construction import theoretical_profile
    inst = small_instance(K=1, degree=1)
    prof = theoretical_profile(inst, 0.1)
    est = estimate_sample_complexity(inst, 0.2, 0.1, trials=400, seed=21)
    assert prof.rows[0].lower <= est.n_hat <= prof.rows[0].upper


def test_estimate_cap_status():
    inst = small_instance(K=1, degree=1)
    est = estimate_sample_complexity(inst, 0.001, 0.001, trials=100, seed=5,
                                     n_cap=4)
    assert est.status == "cap_exceeded"
    assert est.n_hat is None


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


def test_gc_census_shrinks_with_n():
    inst = small_instance(K=1, degree=1)
    # The 32 labelings of the five level atoms, 0 on the residual atom.
    locations = inst.levels[0].locations
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
