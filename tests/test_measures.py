import bisect
import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from exact import exact_mass
from paclab.bounds import FiniteFamily
from paclab.concepts import (AtomLabeling, GridUnion, IntervalUnion,
                             SontagConcept, l1_distance)
from paclab.intervals import canonicalize, clip, total_length
from paclab.measures import (Atom, AtomicMeasure, CantorMeasure, ConfigError,
                             EnumerationCapError, Field, UniformMeasure,
                             check_cap,
                             cantor_interval_mass, cantor_level_intervals,
                             expect_indicator, measure_from_json, read_fields,
                             window_intervals)

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


def test_run_path_validations():
    half = Fraction(1, 2)
    m = AtomicMeasure([1.0, 0.0], [(2, half)])
    assert m.locations.tolist() == [0.0, 1.0]
    with pytest.raises(ValueError, match="one mass per location"):
        AtomicMeasure([0.0, 1.0], [(1, half)])  # too few atoms
    with pytest.raises(ValueError, match="pairwise distinct"):
        AtomicMeasure([2.0, 2.0], [(2, half)])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            AtomicMeasure([0.0, bad], [(2, half)])
    heavy = 0.5 + 2e-12  # its exact value rounds to it, but the sum is off
    with pytest.raises(ValueError, match="sum to"):
        AtomicMeasure([0.0, 1.0], [(1, half), (1, Fraction(heavy))])
    light = 0.5 + 5e-13  # off by less than MASS_TOLERANCE
    AtomicMeasure([0.0, 1.0], [(1, half), (1, Fraction(light))])
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        AtomicMeasure([0.0, 1.0], [(1, Fraction(0)), (1, Fraction(1))])


def test_uniform_measure_rejects_empty_interval():
    with pytest.raises(ValueError):
        UniformMeasure(1.0, 1.0)


def test_uniform_measure_rejects_a_width_past_the_float_range():
    # numpy samples no interval wider than the largest float.
    with pytest.raises(ValueError, match="finite"):
        UniformMeasure(-1e308, 1e308)
    assert len(UniformMeasure(-1e307, 1e307).sample(3, seed=0)) == 3


# ---------------------------------------------------------------------------
# sampling


def test_single_atom_sampling_is_constant():
    m = AtomicMeasure.from_pairs([(0.0, 1.0)])
    for seed in (0, 1, 12345):
        assert list(m.sample(5, seed=seed)) == [0.0] * 5


def test_units_are_the_exact_masses():
    # Decimal literals are read exactly, over one common denominator.
    m = AtomicMeasure.from_pairs([(0.0, 0.1), (1.0, 0.2), (2.0, 0.7)])
    assert m.units.dtype == float and not m.units.flags.writeable
    assert m.units.tolist() == [1, 2, 7] and m.total_units == 10
    assert type(m.total_units) is int
    # uniform_on carries 1/n, though the float 1/3 reads 0.3333333333333333.
    m = AtomicMeasure.uniform_on([0.0, 1.0, 2.0])
    assert m.units.tolist() == [1, 1, 1] and m.total_units == 3
    # Runs follow the atoms as given, before the sort by location, and
    # masses are the exact masses rounded once.
    exact = [Fraction(3, 7), Fraction(4, 7)]
    m = AtomicMeasure([1.0, 0.0], [(1, exact[1]), (1, exact[0])])
    assert m.units.tolist() == [3, 4]
    assert m.masses.tolist() == [float(f) for f in exact]


def test_sampling_is_reproducible_and_seed_sensitive():
    m = AtomicMeasure.from_pairs([(0.0, 0.3), (1.0, 0.7)])
    u = UniformMeasure(0.0, 1.0)
    c = CantorMeasure()
    for meas in (m, u, c):
        a = meas.sample(1000, seed=42)
        b = meas.sample(1000, seed=42)
        other = meas.sample(1000, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, other)


def test_sample_zero_is_empty():
    assert len(UniformMeasure(0, 1).sample(0, seed=0)) == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from(["spread", "heavy", "single"]),
       st.sampled_from([0, 1, 37, 2 ** 16]))
def test_atomic_sample_is_rng_choice(seed, profile, n):
    # Draws from an atomic measure are the locations of
    # rng.choice(len(measure), n, p=masses) on the seed's stream.
    rng = np.random.default_rng(seed)
    if profile == "heavy":
        # One heavy atom among thousands of ~1e-7 atoms.
        tiny = int(rng.integers(2000, 5000))
        raw = np.full(tiny + 1, 1e-7)
        raw[rng.integers(tiny + 1)] = 1.0
    elif profile == "single":
        raw = np.ones(1)
    else:
        raw = rng.uniform(0.0, 1.0, size=int(rng.integers(1, 3000))) ** 8
        raw += 1e-12
    m = AtomicMeasure.from_pairs(zip(range(len(raw)), raw / raw.sum()))
    want = np.random.default_rng(seed).choice(len(m), n, p=m.masses)
    assert np.array_equal(m.sample(n, seed=seed), m.locations[want])


def test_cantor_depth1_hits_two_values():
    xs = CantorMeasure(depth=1).sample(1000, seed=7)
    values = set(np.unique(xs))
    assert values <= {0.0, 2.0 / 3.0}
    freq = np.mean(xs == 0.0)
    assert abs(freq - 0.5) <= 0.05


def test_uniform_mean_on_circle_interval():
    xs = UniformMeasure(0.0, TWO_PI).sample(10 ** 5, seed=5)
    assert abs(np.mean(xs) - math.pi) <= 0.02


def test_cantor_samples_have_ternary_digits_in_0_2():
    # At depth 25 the lattice spacing 3**-25 dwarfs the double rounding, so
    # the sampled float determines its lattice point uniquely.
    depth = 25
    xs = CantorMeasure(depth=depth).sample(200, seed=99)
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
    xs = CantorMeasure().sample(500, seed=5)
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
    assert expect_indicator(m, concept) == exact_mass(m, concept.contains)


# Totals U of the exact units: floats hold the family's sums below 2**52,
# int64 below 2**62, Python ints above.
@settings(max_examples=40, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("lo, hi", [(3, 52), (52, 62), (62, 63), (63, 90)])
def test_atomic_mass_paths_agree_bit_for_bit(lo, hi, data):
    # A measure drawn by its units over a total U, masses u / U: distances
    # and expectations from every path equal the exact Fraction, rounded
    # once.
    total = data.draw(st.integers(2 ** lo, 2 ** hi - 1), label="U")
    size = data.draw(st.integers(2, 8), label="atoms")
    cuts = data.draw(st.lists(st.integers(1, total - 1), min_size=size - 1,
                              max_size=size - 1, unique=True), label="cuts")
    ends = [0, *sorted(cuts), total]
    units = [b - a for a, b in zip(ends, ends[1:])]
    exact = [Fraction(u, total) for u in units]
    m = AtomicMeasure(np.arange(size) / 2, [(1, f) for f in exact])
    rows = data.draw(st.lists(st.lists(st.booleans(), min_size=size,
                                       max_size=size), min_size=1,
                              max_size=6), label="labelings")
    family = [AtomLabeling.for_measure(m, row) for row in rows]
    family.append(IntervalUnion(((0.25, data.draw(st.floats(0.25, size))),)))
    members = m.membership_matrix(family)
    matrix = FiniteFamily(family, m).distance_matrix()
    for i, a in enumerate(family):
        assert expect_indicator(m, a) == float(sum(
            (f for f, hit in zip(exact, members[i]) if hit), Fraction(0)))
        for j, b in enumerate(family):
            assert matrix[i, j] == l1_distance(a, b, m) == float(sum(
                (f for f, x, y in zip(exact, members[i], members[j])
                 if x != y), Fraction(0)))
    assert m.mass(members).tolist() == [expect_indicator(m, c) for c in family]
    common = math.gcd(*units)
    assert m.units.tolist() == [u // common for u in units]
    assert m.total_units == total // common


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
              _Halfline(0.3), _NumpyBoolHalfline(0.3), _IntHalfline(0.3)]
    expected = [[bool(c.contains(a.location)) for a in m.atoms]
                for c in family]
    matrix = m.membership_matrix(family)
    assert matrix.dtype == bool and matrix.shape == (len(family), len(m))
    assert matrix.tolist() == expected
    assert m.membership_matrix(iter(family)).tolist() == expected
    assert m.membership_matrix([]).shape == (0, len(m))
    for concept, row in zip(family, expected):
        assert m.membership_matrix((concept,))[0].tolist() == row


def test_labeling_rows_match_the_per_atom_loop():
    # A labeling over the measure's own location tuple gives its bits as
    # its row; a permuted, shorter or off-grid tuple goes atom by atom.
    # Either way each row equals bool(contains(location)), -0.0 included.
    rng = np.random.default_rng(4)
    for locations in ([-1.0, -0.0, 0.5, 2.0, 3.25], [0.0, 1.0, 2.0]):
        m = AtomicMeasure.uniform_on(locations)
        own = m.locations.tolist()
        n = len(own)
        tuples = [own, [-x if x == 0.0 else x for x in own], own[::-1],
                  list(rng.permutation(own)), own[:-1], own[1:],
                  [x + 1e-9 for x in own], [x + 0.5 for x in own]]
        family = [AtomLabeling(t, bits, default_bit=d)
                  for t in tuples for d in (0, 1)
                  for bits in (rng.integers(0, 2, len(t)), [1] * len(t))]
        expected = [[bool(c.contains(x)) for x in own] for c in family]
        assert m.membership_matrix(family).tolist() == expected


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
    for a in cantor_level_intervals(3):
        assert cantor_interval_mass([(Fraction(a, 27), Fraction(a + 1, 27))]) \
            == 0.125
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


def test_cantor_mass_reads_every_numeric_endpoint_type():
    # numpy's int64 has no as_integer_ratio(); it reads as an int.
    cases = [[(0, 1)], [(-2, 0), (1, 3)], [(0.1, 0.7)],
             [(Fraction(1, 9), Fraction(7, 9))], [(True, 2)],
             [(np.float64(0.25), np.float64(0.75))],
             [(np.int64(0), np.int64(1))],
             [(np.int64(0), 0.5), (Fraction(2, 3), np.float64(0.9))],
             [(np.int64(-3), Fraction(1, 27)), (0.5, np.int64(7))]]
    for ivs in cases:
        assert cantor_interval_mass(ivs) == recursive_cantor_mass(ivs), ivs
    # Ends beyond [0, 1] are clipped, an infinite one too, and a pair with
    # a NaN end is empty, as under the uniform measure.
    assert cantor_interval_mass([(-math.inf, math.inf)]) == 1.0
    assert cantor_interval_mass([(math.nan, 0.5), (0, Fraction(1, 3))]) == 0.5


def test_cantor_level_intervals_examples():
    assert cantor_level_intervals(0) == [0]
    assert cantor_level_intervals(1) == [0, 2]
    assert cantor_level_intervals(2) == [0, 2, 6, 8]
    for n in range(5):
        lefts = cantor_level_intervals(n)
        assert len(lefts) == 2 ** n
        assert all(type(a) is int for a in lefts)
        assert all(b - a >= 2 for a, b in zip(lefts, lefts[1:]))


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
        den = 3 ** n
        ends = [(Fraction(a, den), Fraction(a + 1, den))
                for a in cantor_level_intervals(n)]
        assert ends == _digit_level_intervals(n)


def test_figures_ends_are_the_floats_of_the_exact_ends():
    # ``figures`` writes a / 3**n and (a + 1) / 3**n.
    for n in range(15):
        den = 3 ** n
        for a in cantor_level_intervals(n):
            assert a / den == float(Fraction(a, den))
            assert (a + 1) / den == float(Fraction(a + 1, den))


def test_empirical_means_converge_to_expectations():
    concept = IntervalUnion(((0.1, 0.4),))
    cases = [
        (UniformMeasure(0.0, 1.0), 101),
        (CantorMeasure(), 103),
        (AtomicMeasure.from_pairs([(0.0, 0.2), (0.25, 0.5), (0.9, 0.3)]), 105),
    ]
    for measure, seed in cases:
        xs = measure.sample(10 ** 5, seed=seed)
        emp = np.mean([concept.contains(float(x)) for x in xs[:10 ** 4]])
        emp_full = np.mean(concept.contains_many(np.asarray(xs)))
        exact = expect_indicator(measure, concept)
        assert abs(emp_full - exact) <= 0.01
        assert abs(emp - exact) <= 0.03


# ---------------------------------------------------------------------------
# serialization


def test_measure_json_round_trip():
    # A literal document of every measure kind reads as its measure; atoms
    # are kept in location order, each with its mass.
    def read(doc):
        return measure_from_json(json.loads(json.dumps(doc)))

    atomic = read({"kind": "atomic", "atoms": [[2.5, 0.6], [0, 0.4]]})
    assert isinstance(atomic, AtomicMeasure)
    assert atomic.locations.tolist() == [0.0, 2.5]
    assert atomic.masses.tolist() == [0.4, 0.6]
    uniform = read({"kind": "uniform", "a": -1, "b": 3.0})
    assert isinstance(uniform, UniformMeasure)
    assert (uniform.a, uniform.b) == (-1.0, 3.0)
    for doc, depth in [({"kind": "cantor", "depth": 12}, 12),
                       ({"kind": "cantor"}, 40)]:
        cantor = read(doc)
        assert isinstance(cantor, CantorMeasure) and cantor.depth == depth


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


def test_check_cap_refuses_past_the_cap_and_every_nan():
    check_cap("things", 7, 7)
    check_cap("things", -math.inf, 7)
    for value in (8, 7.5, math.inf, math.nan, 10 ** 400):
        with pytest.raises(EnumerationCapError,
                           match=f"^things: {value} is beyond the cap 7$"):
            check_cap("things", value, 7)
