import math
from fractions import Fraction

import numpy as np
import pytest

from paclab.bounds import FiniteFamily, greedy_cover, greedy_packing
from paclab.concepts import AtomLabeling, l1_distance
from paclab.construction import (ComplexitySchedule, RateFunction,
                                 build_measure, theoretical_profile)
from paclab.measures import Atom


def geometric_eps(count):
    return tuple(Fraction(1, 5) ** k for k in range(1, count + 1))


# ---------------------------------------------------------------------------
# schedules


def test_schedule_requires_exact_one_fifth_start():
    with pytest.raises(ValueError):
        ComplexitySchedule(eps=(Fraction(1, 4), Fraction(1, 8)),
                           f=RateFunction.poly(1), K=1)


def test_schedule_requires_strict_decrease():
    with pytest.raises(ValueError):
        ComplexitySchedule(eps=(Fraction(1, 5), Fraction(1, 5)),
                           f=RateFunction.poly(1), K=1)


def test_schedule_reads_decimal_floats_exactly():
    sched = ComplexitySchedule(eps=(0.2, 0.04, 0.008), f=RateFunction.poly(2),
                               K=2)
    assert sched.eps == (Fraction(1, 5), Fraction(1, 25), Fraction(1, 125))


def test_schedule_enforces_linear_floor():
    with pytest.raises(ValueError):
        ComplexitySchedule(eps=geometric_eps(3),
                           f=RateFunction.poly(1, Fraction(1, 10)), K=2)
    ComplexitySchedule(eps=geometric_eps(3),
                       f=RateFunction.poly(1, Fraction(1, 10)), K=2,
                       linear_coeff=Fraction(1, 10))


def test_schedule_json_round_trip():
    sched = ComplexitySchedule.default()
    doc = sched.to_json()
    assert ComplexitySchedule.from_json(doc) == sched
    with pytest.raises(ValueError):
        ComplexitySchedule.from_json({**doc, "bogus": 1})


def test_rate_function_kinds():
    assert RateFunction.poly(2)(Fraction(5)) == 25
    assert RateFunction.exponential(2)(Fraction(5)) == 32
    table = RateFunction.table([(5, 7), (25, 9)])
    assert table(Fraction(5)) == 7
    assert table(Fraction(30)) == 9
    with pytest.raises(ValueError):
        table(Fraction(1))


def test_exp_rate_past_the_float_range_is_a_cap():
    # 2^(2051/2) has no float; a level of that many atoms is far past
    # MAX_ATOMS, so the rate refuses it as a cap, naming x.
    from paclab.concepts import EnumerationCapError
    exp = RateFunction.exponential(2)
    assert exp(Fraction(2047, 2)) == Fraction(str(2.0 ** 1023.5))
    with pytest.raises(EnumerationCapError, match="x = 2051/2"):
        exp(Fraction(2051, 2))
    with pytest.raises(EnumerationCapError, match="x = 2051/2"):
        ComplexitySchedule(eps=("1/5", "2/2051", "1/5000"), f=exp, K=2)


# ---------------------------------------------------------------------------
# the constructed measure


def test_default_instance_arithmetic():
    inst = build_measure(ComplexitySchedule.default())
    doc = inst.to_json()
    assert [lvl["size"] for lvl in doc["levels"]] == [25, 600]
    assert [lvl["mass"] for lvl in doc["levels"]] == [0.8, 0.16]
    assert doc["residual"]["mass"] == 0.04
    measure = inst.measure()
    assert abs(math.fsum(a.mass for a in measure.atoms) - 1.0) <= 1e-12


def test_linear_rate_instance():
    sched = ComplexitySchedule(eps=geometric_eps(3), f=RateFunction.poly(1),
                               K=2)
    doc = build_measure(sched).to_json()
    assert [lvl["size"] for lvl in doc["levels"]] == [5, 20]
    assert [lvl["mass"] for lvl in doc["levels"]] == [0.8, 0.16]
    assert doc["residual"]["mass"] == 0.04
    assert doc["levels"][0]["locations"] == [
        math.log(p) for p in (2, 3, 5, 7, 11)]


def test_depth_zero_instance_is_the_residual_atom():
    sched = ComplexitySchedule(eps=geometric_eps(1), f=RateFunction.poly(1),
                               K=0)
    inst = build_measure(sched)
    assert inst.locations == (math.log(2),)
    assert inst.to_json()["levels"] == []
    assert inst.to_json()["residual"] == {"location": math.log(2),
                                          "mass": 1.0}


def test_superexponential_rate():
    sched = ComplexitySchedule(eps=geometric_eps(2),
                               f=RateFunction.exponential(2), K=1)
    doc = build_measure(sched).to_json()
    assert doc["levels"][0]["size"] == 32
    assert doc["levels"][0]["mass"] == 0.8
    assert doc["residual"]["mass"] == pytest.approx(0.2)


def test_mass_telescoping_is_exact():
    for K, f in [(2, RateFunction.poly(2)), (3, RateFunction.poly(1)),
                 (1, RateFunction.exponential(2))]:
        sched = ComplexitySchedule(eps=geometric_eps(K + 1), f=f, K=K)
        *levels, (_, residual) = sched.runs()
        total_levels = sum((size * exact for size, exact in levels),
                           Fraction(0))
        assert total_levels == 5 * (sched.eps[0] - sched.eps[K])
        assert total_levels + residual == 1


def test_instance_measure_carries_the_exact_units():
    inst = build_measure(ComplexitySchedule.default())
    measure = inst.measure()
    assert inst == build_measure(ComplexitySchedule.default())
    assert hash(inst) == hash(build_measure(ComplexitySchedule.default()))
    units, total = measure.units, measure.total_units
    assert total == 3750  # K=2 masses are multiples of 1/3,750
    exact = [f for count, f in inst.schedule.runs() for _ in range(count)]
    assert len(inst.locations) == len(exact) == 626
    assert [Fraction(int(u), total) for u in units] == exact
    assert measure.masses.tolist() == [float(f) for f in exact]


def _atom_by_atom(inst):
    # The instance's measure built one validated Atom at a time: the atoms
    # sorted by location, then per-atom units over a common denominator,
    # reduced by their gcd.
    exact = [f for count, f in inst.schedule.runs() for _ in range(count)]
    pairs = [(Atom(loc, float(f)), f) for loc, f in zip(inst.locations,
                                                         exact)]
    atoms, exact = zip(*sorted(pairs, key=lambda pair: pair[0].location))
    assert all(float(f) == a.mass for a, f in zip(atoms, exact))
    den = math.lcm(*(f.denominator for f in exact))
    nums = [f.numerator * (den // f.denominator) for f in exact]
    common = math.gcd(*nums)
    return atoms, [x // common for x in nums]


@pytest.mark.parametrize("K", [2, 3])
def test_measure_build_matches_the_atom_by_atom_oracle(K):
    inst = build_measure(ComplexitySchedule.default(K=K))
    measure = inst.measure()
    atoms, nums = _atom_by_atom(inst)
    locations = np.array([a.location for a in atoms])
    masses = np.array([a.mass for a in atoms])
    assert measure.locations.tobytes() == locations.tobytes()
    assert measure.masses.tobytes() == masses.tobytes()
    assert measure.units.tolist() == nums
    assert measure.total_units == sum(nums)
    assert measure.atoms == atoms


def test_empty_level_is_refused():
    # A flat stretch of the rate empties level 2 (f_2 = f_1 = 3) ...
    with pytest.raises(ValueError, match="level 2 would hold"):
        ComplexitySchedule(eps=geometric_eps(3),
                           f=RateFunction.table([(5, 3), (25, 3)]), K=2,
                           linear_coeff=Fraction(1, 10))
    # ... and a zero rate empties level 1 (f_1 = f_0 = 0).
    with pytest.raises(ValueError, match="level 1 would hold"):
        ComplexitySchedule(eps=geometric_eps(2),
                           f=RateFunction.table([(1, 0)]), K=1,
                           linear_coeff=0)


def test_non_integer_rate_values_are_ceiled():
    sched = ComplexitySchedule(eps=geometric_eps(3),
                               f=RateFunction.poly(1, Fraction(1, 2)), K=2,
                               linear_coeff=Fraction(1, 2))
    assert sched.f_values() == (3, 13)  # ceil(5/2), ceil(25/2)
    doc = build_measure(sched).to_json()
    assert [lvl["size"] for lvl in doc["levels"]] == [3, 10]


def test_level_sizes_are_rate_differences():
    sched = ComplexitySchedule(eps=geometric_eps(4), f=RateFunction.poly(2),
                               K=3)
    f_vals = sched.f_values()
    sizes = [lvl["size"] for lvl in build_measure(sched).to_json()["levels"]]
    assert sizes[0] == f_vals[0]
    assert all(s == b - a for s, a, b in zip(sizes[1:], f_vals, f_vals[1:]))
    assert all(s >= 0 for s in sizes)


# ---------------------------------------------------------------------------
# theoretical profile


def test_profile_formula_values():
    inst = build_measure(ComplexitySchedule.default())
    prof = theoretical_profile(inst, 0.1)
    row1, row2 = prof.rows
    assert (row1.f_k, row2.f_k) == (25, 625)
    assert row1.upper == math.ceil((32 / 0.2) * (25 + math.log2(10)))
    assert row1.lower == 1  # ceil(0.0128 * 25)
    assert row2.lower == 8  # ceil(0.0128 * 625)
    assert row2.cover_size == 2 ** 625
    assert all(r.lower <= r.upper for r in prof.rows)


def test_profile_delta_one_drops_confidence_term():
    inst = build_measure(ComplexitySchedule.default())
    prof = theoretical_profile(inst, 1.0)
    assert prof.rows[0].upper == math.ceil((32 / 0.2) * 25)


def test_profile_lower_is_monotone_when_rate_is():
    sched = ComplexitySchedule(eps=geometric_eps(4), f=RateFunction.poly(2),
                               K=3)
    prof = theoretical_profile(build_measure(sched), 0.1)
    lowers = [r.lower for r in prof.rows]
    assert lowers == sorted(lowers)


def small_instance():
    sched = ComplexitySchedule(eps=geometric_eps(3),
                               f=RateFunction.poly(1, Fraction(2, 5)), K=2,
                               linear_coeff=Fraction(2, 5))
    return build_measure(sched)  # f = (2, 10): level sizes 2 and 8


def level_labelings(inst, k):
    """The 2**f_k labelings of the atoms of levels 1..k as explicit
    concepts: labeling i gives bit (i >> j) & 1 to the j-th of those atoms
    and 0 to every other point."""
    locations = inst.locations[:inst.schedule.f_values()[k - 1]]
    return [AtomLabeling(locations, [(i >> j) & 1
                                     for j in range(len(locations))])
            for i in range(2 ** len(locations))]


def test_profile_small_family_sharpening():
    # The floor ceil(0.0128 f_k) is 1 at f_k = 2, 5 and 10; the greedy
    # 2eps_k-packing of the explicit labelings sharpens it.
    poly1 = build_measure(ComplexitySchedule(eps=geometric_eps(2),
                                             f=RateFunction.poly(1), K=1))
    for inst, lowers in ((poly1, [2]), (small_instance(), [2, 6])):
        prof = theoretical_profile(inst, 0.1)
        for row in prof.rows:
            family = FiniteFamily(level_labelings(inst, row.k),
                                  inst.measure())
            packed = greedy_packing(family, 2.0 * row.eps)
            assert row.lower == math.ceil(math.log2(packed.size))
        assert [row.lower for row in prof.rows] == lowers


def test_profile_packs_no_family_past_the_small_family_limit(monkeypatch):
    # A level of SMALL_FAMILY_LIMIT + 1 atoms keeps the rate floor and
    # builds no packing; one of SMALL_FAMILY_LIMIT atoms reaches it.
    from paclab import construction
    limit = construction.SMALL_FAMILY_LIMIT

    def refuse(family, radius):
        raise AssertionError(f"packed {len(family)} labelings")

    monkeypatch.setattr(construction, "greedy_packing", refuse)
    for f_k in (limit + 1, limit):
        inst = build_measure(ComplexitySchedule(
            eps=geometric_eps(2), f=RateFunction.table([(5, f_k)]), K=1))
        if f_k > limit:
            row, = theoretical_profile(inst, 0.1).rows
            assert row.f_k == f_k and row.lower == math.ceil(
                construction.PACKING_LOWER_RATE * f_k)
        else:
            with pytest.raises(AssertionError, match=f"packed {2 ** f_k} "):
                theoretical_profile(inst, 0.1)


# ---------------------------------------------------------------------------
# the labelings of the first levels


def test_subfamily_is_its_own_zero_radius_cover():
    inst = small_instance()
    finite = FiniteFamily(level_labelings(inst, 1), inst.measure())
    centers, k = greedy_cover(finite, 1e-9)
    assert k == 4


def test_subfamily_net_radius_bound():
    inst = small_instance()
    measure = inst.measure()
    rng = np.random.default_rng(5)
    universe = inst.locations[:-1]
    for k in (1, 2):
        fam = level_labelings(inst, k)
        prefix = len(fam[0].locations)
        tail_bound = float(5 * inst.schedule.eps[k])
        for _ in range(50):
            bits = [int(b) for b in rng.integers(0, 2, size=len(universe))]
            target = AtomLabeling(universe, tuple(bits), default_bit=0)
            index = sum(b << j for j, b in enumerate(bits[:prefix]))
            nearest = fam[index]
            d = l1_distance(target, nearest, measure)
            assert d <= tail_bound + 1e-12


def test_sontag_expectation_is_atom_mass_sum():
    from paclab.concepts import SontagConcept
    from paclab.measures import expect_indicator
    sched = ComplexitySchedule(eps=geometric_eps(2), f=RateFunction.poly(1),
                               K=1)
    inst = build_measure(sched)
    measure = inst.measure()
    concept = SontagConcept(17.3)
    expected = 0.0
    for a in measure.atoms:
        if math.cos(17.3 * a.location) >= 0:
            expected += a.mass
    assert expect_indicator(measure, concept) == expected
