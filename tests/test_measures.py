import bisect
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from paclab.concepts import (AtomLabeling, GridUnion, IntervalUnion,
                             MiddleThirdUnion, SontagConcept)
from paclab.construction import ComplexitySchedule, build_measure
from paclab.intervals import canonicalize, clip, total_length
from paclab.measures import (Atom, AtomicMeasure, CantorMeasure, ConfigError,
                             Field, UniformMeasure,
                             cantor_interval_mass, cantor_level_intervals,
                             expect_indicator, measure_from_json, read_fields,
                             sample, window_intervals)

TWO_PI = 2.0 * math.pi


class _Halfline:
    """Threshold concept {x : x < cut}: a membership test alone, which the
    atomic measures need and nothing more."""

    def __init__(self, cut):
        self.cut = cut

    def contains(self, x):
        return x < self.cut


# ---------------------------------------------------------------------------
# construction and validation


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom(0.0, 0.0)
    with pytest.raises(ValueError):
        Atom(0.0, 1.5)
    with pytest.raises(ValueError):
        Atom(math.inf, 0.5)


def test_atomic_measure_checks_mass_sum_and_distinct_locations():
    with pytest.raises(ValueError):
        AtomicMeasure.from_pairs([(0.0, 0.5), (1.0, 0.4)])
    with pytest.raises(ValueError):
        AtomicMeasure.from_pairs([(0.0, 0.5), (0.0, 0.5)])
    m = AtomicMeasure.from_pairs([(3.0, 0.25), (1.0, 0.75)])
    assert [a.location for a in m.atoms] == [1.0, 3.0]


@given(st.integers(min_value=1, max_value=12), st.integers())
def test_atomic_masses_sum_to_one(size, seed):
    rng = np.random.default_rng(abs(seed) % 2 ** 32)
    raw = rng.uniform(0.1, 1.0, size=size)
    masses = raw / raw.sum()
    locs = np.sort(rng.choice(1000, size=size, replace=False)).astype(float)
    m = AtomicMeasure.from_pairs(zip(locs, masses))
    assert abs(math.fsum(a.mass for a in m.atoms) - 1.0) <= 1e-12


def test_uniform_measure_rejects_empty_interval():
    with pytest.raises(ValueError):
        UniformMeasure(1.0, 1.0)


# ---------------------------------------------------------------------------
# sampling


def test_single_atom_sampling_is_constant():
    m = AtomicMeasure.from_pairs([(0.0, 1.0)])
    for seed in (0, 1, 12345):
        assert list(sample(m, seed, 5)) == [0.0] * 5


def test_units_are_the_exact_masses():
    # Decimal literals are read exactly, over one common denominator.
    m = AtomicMeasure.from_pairs([(0.0, 0.1), (1.0, 0.2), (2.0, 0.7)])
    units, total = m.units()
    assert units.dtype == np.int64
    assert units.tolist() == [1, 2, 7] and total == 10
    # uniform_on carries 1/n, though the float 1/3 reads 0.3333333333333333.
    units, total = AtomicMeasure.uniform_on([0.0, 1.0, 2.0]).units()
    assert units.tolist() == [1, 1, 1] and total == 3
    exact = [Fraction(3, 7), Fraction(4, 7)]
    m = AtomicMeasure([Atom(1.0, float(exact[1]), exact[1]),
                       Atom(0.0, float(exact[0]), exact[0])])
    assert m.units()[0].tolist() == [3, 4]
    assert m.masses.tolist() == [float(f) for f in exact]


def test_units_that_overflow_int64_raise():
    m = AtomicMeasure.from_pairs([(0.0, 0.5), (1.0, 0.5), (2.0, 1e-300)])
    with pytest.raises(OverflowError, match="int64"):
        m.units()


def test_atom_exact_mass_must_round_to_its_float():
    Atom(0.0, 1 / 3, Fraction(1, 3))
    with pytest.raises(ValueError):
        Atom(0.0, 0.3, Fraction(1, 3))


def test_sampling_is_reproducible_and_seed_sensitive():
    m = AtomicMeasure.from_pairs([(0.0, 0.3), (1.0, 0.7)])
    u = UniformMeasure(0.0, 1.0)
    c = CantorMeasure()
    for meas in (m, u, c):
        a = sample(meas, 42, 1000)
        b = sample(meas, 42, 1000)
        other = sample(meas, 43, 1000)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)


def test_bucket_table_counts_match_searchsorted_edges():
    # The table counts each cdf entry into the first bucket edge at or
    # above it; the searchsorted form probes every edge.
    rng = np.random.default_rng(12)
    profiles = [np.ones(7), np.ones(3), np.ones(2 ** 14 + 3),
                np.array([0.8, 0.16, 0.04])]
    for _ in range(100):
        tiny = int(rng.integers(1, 5000))
        raw = np.full(tiny + 1, 1e-7)
        raw[rng.integers(tiny + 1)] = 1.0
        profiles.append(raw)
        profiles.append(rng.uniform(0.0, 1.0,
                                    size=int(rng.integers(1, 3000))) ** 8
                        + 1e-12)
    instance = build_measure(ComplexitySchedule.default(K=3)).measure()
    measures = [AtomicMeasure.from_pairs(zip(range(len(raw)), raw / raw.sum()))
                for raw in profiles]
    for m in [instance, *measures]:
        cdf, scale, first, steps = m._bucket_table()
        cdf = cdf[:len(m)]
        edges = np.arange(scale + 1) / scale
        want = cdf.searchsorted(edges, side="right")
        assert np.array_equal(first, want[:-1])
        assert steps == int(np.diff(want).max()).bit_length()


def test_sample_zero_is_empty():
    assert len(sample(UniformMeasure(0, 1), 0, 0)) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(["spread", "heavy", "single"]),
       st.sampled_from([0, 1, 37, (0,), (3, 0), (4, 5), (2, 300)]))
def test_draw_indices_match_rng_choice(seed, profile, shape):
    rng = np.random.default_rng(seed)
    if profile == "heavy":
        # One heavy atom among thousands of ~1e-7 atoms: a bucket then
        # holds many atoms and the search takes several steps.
        tiny = int(rng.integers(2000, 5000))
        raw = np.full(tiny + 1, 1e-7)
        raw[rng.integers(tiny + 1)] = 1.0
    elif profile == "single":
        raw = np.ones(1)
    else:
        raw = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 3000))) ** 8
        raw += 1e-12
    m = AtomicMeasure.from_pairs(zip(range(len(raw)), raw / raw.sum()))
    shapes = [shape]
    if profile == "heavy":
        assert m._bucket_table()[3] > 1
        # The light atoms hold about 3e-4 of the mass: enough draws that
        # some land there, at every depth of the search.
        shapes.append((4, 2 ** 16))
    for size in shapes:
        choice_rng = np.random.default_rng([seed, 1])
        kernel_rng = np.random.default_rng([seed, 1])
        want = choice_rng.choice(len(m), size=size, p=m.masses)
        got = m.draw_indices(kernel_rng, size)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert kernel_rng.random() == choice_rng.random()
    # A uniform lands in an atom range exactly inside that range's bounds.
    u = np.random.default_rng([seed, 2]).random(4096)
    idx = m.indices_of(u)
    for lo, hi in {(0, len(m)), (len(m) // 3, len(m) // 3 + 1),
                   (len(m) // 2, len(m))}:
        a, b = m.uniform_bounds(lo, hi)
        assert np.array_equal((a <= u) & (u < b), (lo <= idx) & (idx < hi))
    assert np.array_equal(m.sample(7, seed=seed),
                          m.locations[np.random.default_rng(seed).choice(
                              len(m), size=7, p=m.masses)])


def test_cantor_depth1_hits_two_values():
    xs = sample(CantorMeasure(depth=1), 7, 1000)
    values = set(np.unique(xs))
    assert values <= {0.0, 2.0 / 3.0}
    freq = np.mean(xs == 0.0)
    assert abs(freq - 0.5) <= 0.05


def test_uniform_mean_on_circle_interval():
    xs = sample(UniformMeasure(0.0, TWO_PI), 5, 10 ** 5)
    assert abs(np.mean(xs) - math.pi) <= 0.02


def test_cantor_samples_have_ternary_digits_in_0_2():
    # At depth 25 the lattice spacing 3**-25 dwarfs the double rounding, so
    # the sampled float determines its lattice point uniquely.
    depth = 25
    xs = sample(CantorMeasure(depth=depth), 99, 200)
    scale = 3 ** depth
    for x in xs:
        num = round(Fraction(x) * scale)
        assert abs(Fraction(x) - Fraction(num, scale)) < Fraction(1, 2 * scale)
        digits = []
        for _ in range(depth):
            num, rem = divmod(num, 3)
            digits.append(rem)
        assert set(digits) <= {0, 2}


def test_cantor_samples_stay_in_unit_interval():
    xs = sample(CantorMeasure(), 5, 500)
    assert np.all((xs >= 0.0) & (xs <= 1.0))


# ---------------------------------------------------------------------------
# expectations


def test_atomic_expectation_is_exact_mass_sum():
    m = AtomicMeasure.from_pairs([(1.0, 0.8), (2.0, 0.2)])
    assert expect_indicator(m, _Halfline(1.5)) == 0.8


@settings(max_examples=50)
@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=10 ** 6))
def test_atomic_expectation_matches_brute_force(size, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 1.0, size=size)
    masses = raw / raw.sum()
    locs = np.sort(rng.choice(100, size=size, replace=False)).astype(float)
    m = AtomicMeasure.from_pairs(zip(locs, masses))
    concept = _Halfline(float(rng.uniform(-1, 101)))
    brute = 0.0
    for atom in m.atoms:
        if concept.contains(atom.location):
            brute += atom.mass
    assert expect_indicator(m, concept) == brute


class _NumpyBoolHalfline(_Halfline):
    def contains(self, x):
        return np.float64(x) < self.cut


class _IntHalfline(_Halfline):
    def contains(self, x):
        return int(x < self.cut)


def test_membership_matrix_matches_the_per_atom_loop():
    # Every concept kind against bool(c.contains(location)), atom by atom;
    # the atoms sit on interval and grid-cell endpoints, inside and outside
    # middle thirds, and off the labelled locations.
    m = AtomicMeasure.uniform_on([-1.0, 0.0, 0.1, 0.25, 1 / 3, 0.4, 0.5,
                                  0.75, 0.8, 1.0, 2.5])
    labelled = [a.location for a in m.atoms[::2]]
    family = [AtomLabeling(labelled, [1, 0, 1, 1, 0, 1]),
              AtomLabeling(labelled, [0, 0, 1, 0, 1, 0], default_bit=1),
              AtomLabeling.for_measure(m, [0] * len(m)),
              SontagConcept(0.0), SontagConcept(1.0), SontagConcept(7.5),
              IntervalUnion(()), IntervalUnion(((0.0, 0.25), (0.5, 0.8))),
              IntervalUnion(((Fraction(1, 3), Fraction(1, 2)),)),
              GridUnion(4, ()), GridUnion(4, (1, 3)), GridUnion(10, (8,)),
              MiddleThirdUnion(()), MiddleThirdUnion(((1, 0), (2, 1))),
              _Halfline(0.3), _NumpyBoolHalfline(0.3), _IntHalfline(0.3)]
    expected = [[bool(c.contains(a.location)) for a in m.atoms]
                for c in family]
    matrix = m.membership_matrix(family)
    assert matrix.dtype == bool and matrix.shape == (len(family), len(m))
    assert matrix.tolist() == expected
    assert m.membership_matrix(iter(family)).tolist() == expected
    assert m.membership_matrix([]).shape == (0, len(m))
    for concept, row in zip(family, expected):
        assert m.memberships(concept).tolist() == row


def test_uniform_sontag_expectation_is_exact_arc_measure():
    u = UniformMeasure(0.0, TWO_PI)
    value = expect_indicator(u, SontagConcept(2.0))
    assert abs(value - 0.5) <= 1e-12
    # quadrature oracle on a fine grid
    grid = np.linspace(0.0, TWO_PI, 2 * 10 ** 5, endpoint=False)
    oracle = np.mean(np.cos(2.0 * grid) >= 0)
    assert abs(value - oracle) <= 1e-4


def _cos_sign_fraction_mp(w, a, b):
    # 60-digit reference: L(T) = m pi + min(s, pi/2) + max(0, s - 3pi/2),
    # m = floor(T / 2pi), s = T - 2pi m, on the exact binary inputs.
    with mpmath.workdps(60):
        w, a, b = mpmath.mpf(w), mpmath.mpf(a), mpmath.mpf(b)
        pi = mpmath.pi

        def measure(t):
            m = mpmath.floor(t / (2 * pi))
            s = t - 2 * pi * m
            return m * pi + min(s, pi / 2) + max(0, s - 3 * pi / 2)

        return (measure(w * b) - measure(w * a)) / (w * (b - a))


def test_uniform_sontag_mass_closed_form_against_oracles():
    rng = np.random.default_rng(77)
    cases = [(0.0, -3.0, 2.0), (2.0, 0.0, TWO_PI), (1e5, 0.0, TWO_PI),
             (1e5, -7.5, -1.25), (3.5e4, -TWO_PI, TWO_PI)]
    cases += [(float(w), float(a), float(a + width)) for w, a, width in zip(
        10.0 ** rng.uniform(-2, 5, 30), rng.uniform(-10, 5, 30),
        rng.uniform(1, 10, 30))]
    for w, a, b in cases:
        u = UniformMeasure(a, b)
        value = expect_indicator(u, SontagConcept(w))
        intervals = window_intervals(SontagConcept(w), a, b)
        assert abs(value - float(total_length(intervals)) / (b - a)) <= 1e-10
        reference = float(_cos_sign_fraction_mp(w, a, b)) if w else 1.0
        assert abs(value - reference) <= 1e-14
    assert expect_indicator(UniformMeasure(-1.0, 4.0), SontagConcept(0.0)) \
        == 1.0


def test_uniform_interval_expectation_is_exact():
    u = UniformMeasure(0.0, 1.0)
    c = IntervalUnion(((0.25, 0.5), (0.75, 1.0)))
    assert expect_indicator(u, c) == pytest.approx(0.5, abs=1e-15)


def test_cantor_expectation_exact_on_intervals():
    c = CantorMeasure()
    left_half = IntervalUnion(((Fraction(0), Fraction(1, 3)),))
    assert expect_indicator(c, left_half) == 0.5
    for lo, hi in cantor_level_intervals(3):
        assert cantor_interval_mass([(lo, hi)]) == 0.125
    assert cantor_interval_mass([(Fraction(1, 3), Fraction(2, 3))]) == 0.0


def recursive_cantor_mass(intervals):
    """The ternary mass by recursive cell subdivision: a cell inside the
    union counts whole, a cell the union misses counts nothing, and a cell
    still split at depth 60 counts half."""
    depth = 60
    ivs = clip(canonicalize([(Fraction(lo), Fraction(hi))
                             for lo, hi in intervals]), Fraction(0), Fraction(1))
    if not ivs:
        return 0.0
    starts = [iv[0] for iv in ivs]

    def relation(cl, ch):
        # Overlaps of zero length are "out" at cell edges.
        i = bisect.bisect_right(starts, cl) - 1
        if i >= 0 and ivs[i][1] >= ch:
            return "in"
        j = max(i, 0)
        while j < len(ivs) and ivs[j][0] < ch:
            if ivs[j][1] > cl:
                return "split"
            j += 1
        return "out"

    committed = Fraction(0)
    halves = Fraction(0)
    stack = [(Fraction(0), Fraction(1), Fraction(1), 0)]
    while stack:
        cl, ch, mass, level = stack.pop()
        rel = relation(cl, ch)
        if rel == "out":
            continue
        if rel == "in":
            committed += mass
            continue
        if level >= depth:
            halves += mass / 2
            continue
        third = (ch - cl) / 3
        stack.append((cl, cl + third, mass / 2, level + 1))
        stack.append((ch - third, ch, mass / 2, level + 1))
    return float(committed + halves)


_CELL = Fraction(1, 3 ** 60)
_endpoints = st.one_of(
    st.sampled_from([0, 1, 0.0, 1.0, Fraction(1, 3), Fraction(2, 3)]),
    st.floats(min_value=-0.25, max_value=1.25),
    st.builds(Fraction, st.integers(-3 ** 7, 2 * 3 ** 12),
              st.sampled_from([3 ** 7, 3 ** 12, 10 ** 6, 2 ** 20])))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_endpoints, _endpoints), max_size=6))
def test_cantor_mass_matches_recursive_subdivision(pairs):
    intervals = [(min(a, b), max(a, b)) for a, b in pairs]
    ends = sorted(Fraction(x) for iv in clip(
        canonicalize([(Fraction(lo), Fraction(hi)) for lo, hi in intervals]),
        Fraction(0), Fraction(1)) for x in iv)
    # Two endpoints inside one depth-60 cell count that cell half in the
    # subdivision but not at all in the digit CDF (see the test below).
    assume(all(b - a > _CELL for a, b in zip(ends, ends[1:])))
    assert cantor_interval_mass(intervals) == recursive_cantor_mass(intervals)


def test_cantor_mass_inside_one_deep_cell():
    # The digit CDF places an endpoint inside a depth-60 cell mid-cell.  One
    # such endpoint counts half the cell, 2**-61, as the subdivision does.
    # Two in one cell count nothing, which is exact for a point, while the
    # subdivision still counts half the cell.
    for ivs in ([(0.0, 1e-300)], [(1 - Fraction(1, 10 ** 40), 1)]):
        assert cantor_interval_mass(ivs) == recursive_cantor_mass(ivs)
        assert cantor_interval_mass(ivs) == 2.0 ** -61
    for ivs in ([(0.25, 0.25)], [(1e-300, 2e-300)]):
        assert cantor_interval_mass(ivs) == 0.0
        assert recursive_cantor_mass(ivs) == 2.0 ** -61
    assert cantor_interval_mass([(0.0, 0.0), (1.0, 1.0)]) == 0.0
    assert cantor_interval_mass([(-1.0, 2.0)]) == 1.0


def test_cantor_level_intervals_examples():
    assert cantor_level_intervals(0) == [(Fraction(0), Fraction(1))]
    assert cantor_level_intervals(1) == [(Fraction(0), Fraction(1, 3)),
                                         (Fraction(2, 3), Fraction(1))]
    assert cantor_level_intervals(2) == [
        (Fraction(0), Fraction(1, 9)), (Fraction(2, 9), Fraction(1, 3)),
        (Fraction(2, 3), Fraction(7, 9)), (Fraction(8, 9), Fraction(1))]
    for n in range(5):
        ivs = cantor_level_intervals(n)
        assert len(ivs) == 2 ** n
        assert all(hi - lo == Fraction(1, 3 ** n) for lo, hi in ivs)


def _digit_level_intervals(n):
    # Interval m's ternary digits are twice the binary digits of m, most
    # significant first.
    den = 3 ** n
    out = []
    for m in range(2 ** n):
        num = 0
        for i in range(n):
            bit = (m >> (n - 1 - i)) & 1
            num += 2 * bit * 3 ** (n - 1 - i)
        out.append((Fraction(num, den), Fraction(num + 1, den)))
    return out


def test_cantor_level_intervals_match_the_digit_formula():
    for n in range(13):
        assert cantor_level_intervals(n) == _digit_level_intervals(n)


def test_empirical_means_converge_to_expectations():
    concept = IntervalUnion(((0.1, 0.4),))
    cases = [
        (UniformMeasure(0.0, 1.0), 101),
        (CantorMeasure(), 103),
        (AtomicMeasure.from_pairs([(0.0, 0.2), (0.25, 0.5), (0.9, 0.3)]), 105),
    ]
    for measure, seed in cases:
        xs = sample(measure, seed, 10 ** 5)
        emp = np.mean([concept.contains(float(x)) for x in xs[:10 ** 4]])
        emp_full = np.mean(concept.contains_many(np.asarray(xs)))
        exact = expect_indicator(measure, concept)
        assert abs(emp_full - exact) <= 0.01
        assert abs(emp - exact) <= 0.03


# ---------------------------------------------------------------------------
# serialization


def test_measure_json_round_trip():
    docs = [
        AtomicMeasure.from_pairs([(0.0, 0.4), (2.5, 0.6)]),
        UniformMeasure(-1.0, 3.0),
        CantorMeasure(depth=12),
    ]
    for m in docs:
        doc = json.loads(json.dumps(m.to_json()))
        m2 = measure_from_json(doc)
        assert m2.to_json() == m.to_json()
    atoms = AtomicMeasure.from_pairs([(1.0, 0.25), (2.0, 0.75)]).to_json()["atoms"]
    assert atoms == sorted(atoms)


def test_field_reader_kinds_bounds_and_defaults():
    assert Field("int", least=1).read(3, "n") == 3
    assert repr(Field("number", above=0, most=1).read(1, "delta")) == "1.0"
    assert Field("list", least=2, most=2, of=Field("number")).read(
        [0, 2], "xs") == [0.0, 2.0]
    assert Field(("a", "b")).read("b", "mode") == "b"
    bad = [(Field("int"), True), (Field("int"), 2.0), (Field("int"), "2"),
           (Field("number"), "1"), (Field("number"), False),
           (Field("number"), float("nan")), (Field("number"), math.inf),
           (Field("number"), 10 ** 400), (Field("number", above=0), 0),
           (Field("number", below=1), 1), (Field("int", most=4), 5),
           (Field("list", least=2, most=2), [1]), (Field("list"), "ab"),
           (Field(("a", "b")), "c"), (Field("list", of=Field("int")), [1, "2"]),
           (Field("list", distinct=True), [1.0, 1.0]),
           (Field({"a": Field("int")}), {"a": 1, "b": 2})]
    for field, value in bad:
        with pytest.raises(ConfigError):
            field.read(value, "f")
    spec = {"a": Field("int"), "b": Field("number", 5), "c": Field("list", None)}
    assert read_fields({"a": 1}, "doc", **spec) == [1, 5.0, None]
    with pytest.raises(ConfigError, match="unknown keys"):
        read_fields({"a": 1, "z": 1}, "doc", **spec)
    with pytest.raises(ConfigError, match="missing key"):
        read_fields({}, "doc", **spec)
    with pytest.raises(ConfigError, match="must be an object"):
        read_fields([1], "doc", **spec)
    # A nested document's own checks become config errors where it is read.
    for doc in ({"kind": "uniform", "a": 1.0, "b": 0.0}, {"kind": "point"},
                {"kind": "atomic", "atoms": [[0.0, 0.5]]}):
        with pytest.raises(ConfigError):
            Field(measure_from_json).read(doc, "measure")
