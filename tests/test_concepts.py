import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from exact import exact_mass
from paclab.concepts import (AtomLabeling, EnumerationCapError, GridUnion,
                             IntervalUnion, SontagConcept,
                             cantor_shatter_search, concept_from_json,
                             enumerate_order_class, isolate_points,
                             l1_distance, max_interval_count)
from paclab.intervals import intersect, total_length
from paclab.measures import (AtomicMeasure, CantorMeasure, ConfigError,
                             UniformMeasure, expect_indicator,
                             window_intervals)

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# membership


def test_member_examples():
    c = IntervalUnion(((0.0, 0.2), (0.4, 0.6)))
    assert int(c.contains(0.5)) == 1
    assert int(c.contains(0.3)) == 0
    lab = AtomLabeling((1.0, 2.0, 3.0), (1, 0, 1))
    assert int(lab.contains(2.0)) == 0
    assert int(lab.contains(1.0)) == 1
    assert int(lab.contains(9.9)) == 0
    assert int(SontagConcept(0.0).contains(-17.3)) == 1


def test_atom_labeling_refuses_a_repeated_location():
    # Two bits at 1.0 would make contains and contains_many disagree.
    with pytest.raises(ValueError, match="pairwise distinct"):
        AtomLabeling((1.0, 1.0), (1, 0))
    with pytest.raises(ValueError, match="pairwise distinct"):
        AtomLabeling((0.0, -0.0), (1, 1))


def test_sign_concept_contains_reads_the_sign_test():
    # rho's denominator overflows at w = 1e300; the labels are cos(wx)'s.
    xs = np.linspace(0.1, 6.0, 7)
    for w in (0.5, 3.0, 1e300):
        c = SontagConcept(w)
        expected = (np.cos(w * xs) >= 0.0).tolist()
        assert [c.contains(float(x)) for x in xs] == expected
        assert c.contains_many(xs).tolist() == expected


def test_sign_concept_refuses_a_phase_past_the_float_range():
    # w |x| = 6e308 or 3e308 is no float: refused before any cos.
    for w, x in ((1e308, 6.0), (3.0, 1e308)):
        with pytest.raises(EnumerationCapError, match="beyond the cap"):
            SontagConcept(w).contains_many([0.0, x])
        with pytest.raises(EnumerationCapError):
            SontagConcept(w).contains(-x)
    assert SontagConcept(1e300).contains_many([]).tolist() == []


def test_interval_union_validation():
    with pytest.raises(ValueError):
        IntervalUnion(((0.0, 0.5), (0.4, 0.9)))
    with pytest.raises(ValueError):
        IntervalUnion(((0.5, 0.4),))
    # touching endpoints are allowed and preserved unmerged
    c = IntervalUnion(((0.0, 0.2), (0.2, 0.4)))
    assert len(c.intervals) == 2
    assert int(c.contains(0.2)) == 1


def test_grid_union_structure():
    g = GridUnion(5, (0, 4))
    assert g.intervals == ((0.0, 0.2), (0.8, 1.0))
    assert int(g.contains(0.1)) == 1 and int(g.contains(0.5)) == 0
    with pytest.raises(ValueError):
        GridUnion(5, (5,))
    with pytest.raises(ValueError):
        GridUnion(5, (1, 1))


def test_grid_union_is_an_interval_union_named_by_its_cells():
    cases = [(GridUnion(5, (4, 0)), "GridUnion(order=5, cells=(0, 4))",
              [[0.0, 0.2], [0.8, 1.0]]),
             (GridUnion(1, ()), "GridUnion(order=1, cells=())", []),
             (GridUnion(4, (1,)), "GridUnion(order=4, cells=(1,))",
              [[0.25, 0.5]])]
    for g, text, intervals in cases:
        assert isinstance(g, IntervalUnion)
        assert repr(g) == text
        assert g.to_json() == {"kind": "intervals", "order": g.order,
                               "cells": list(g.cells), "intervals": intervals}
        assert concept_from_json(g.to_json()) == g
        # Equality and hash read the order and the cells alone.
        twin = GridUnion(g.order, tuple(reversed(g.cells)))
        assert twin == g and hash(twin) == hash(g) == hash((g.order, g.cells))
    assert GridUnion(4, (1,)) != IntervalUnion(((0.25, 0.5),))
    assert IntervalUnion(((0.25, 0.5),)) != GridUnion(4, (1,))
    assert GridUnion(4, (1,)) != GridUnion(8, (2, 3))
    with pytest.raises(TypeError):
        GridUnion(4, (1,), intervals=((0.25, 0.5),))


# ---------------------------------------------------------------------------
# L1 geometry


def test_l1_identity_and_known_pairs():
    u = UniformMeasure(0.0, TWO_PI)
    c2, c4 = SontagConcept(2.0), SontagConcept(4.0)
    assert l1_distance(c2, c2, u) == 0.0
    assert l1_distance(c2, c4, u) == pytest.approx(0.5, abs=1e-9)
    # quadrature oracle for the sign-disagreement region
    grid = np.linspace(0.0, TWO_PI, 200001)[:-1]
    oracle = np.mean((np.cos(2 * grid) >= 0) != (np.cos(4 * grid) >= 0))
    assert abs(l1_distance(c2, c4, u) - oracle) <= 1e-4


def test_l1_single_atom_flip():
    m = AtomicMeasure.from_pairs([(0.0, 0.8), (1.0, 0.2)])
    a = AtomLabeling.for_measure(m, (0, 0))
    b = AtomLabeling.for_measure(m, (1, 0))
    assert l1_distance(a, b, m) == 0.8


def _random_atomic(rng, size):
    raw = rng.uniform(0.1, 1.0, size=size)
    locs = np.sort(rng.choice(50, size=size, replace=False)).astype(float)
    return AtomicMeasure.from_pairs(zip(locs, raw / raw.sum()))


def _random_concept(rng, measure):
    kind = rng.integers(0, 3)
    if kind == 0:
        bits = rng.integers(0, 2, size=len(measure.atoms))
        return AtomLabeling.for_measure(measure, [int(b) for b in bits])
    if kind == 1:
        cuts = np.sort(rng.uniform(-1, 51, size=4))
        return IntervalUnion(((float(cuts[0]), float(cuts[1])),
                              (float(cuts[2]), float(cuts[3]))))
    return SontagConcept(float(rng.uniform(0, 20)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_l1_is_a_pseudometric_on_atomic_measures(seed):
    rng = np.random.default_rng(seed)
    m = _random_atomic(rng, int(rng.integers(2, 9)))
    c1, c2, c3 = (_random_concept(rng, m) for _ in range(3))
    d12 = l1_distance(c1, c2, m)
    d21 = l1_distance(c2, c1, m)
    d13 = l1_distance(c1, c3, m)
    d23 = l1_distance(c2, c3, m)
    assert d12 == d21
    assert d12 <= d13 + d23 + 1e-12
    assert l1_distance(c1, c1, m) == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6))
def test_l1_atomic_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    m = _random_atomic(rng, int(rng.integers(2, 9)))
    c1, c2 = _random_concept(rng, m), _random_concept(rng, m)
    assert l1_distance(c1, c2, m) == exact_mass(
        m, lambda x: bool(c1.contains(x)) != bool(c2.contains(x)))


def test_l1_interval_unions_under_uniform_is_exact():
    u = UniformMeasure(0.0, 1.0)
    a = IntervalUnion(((0.0, 0.5),))
    b = IntervalUnion(((0.25, 0.75),))
    assert l1_distance(a, b, u) == pytest.approx(0.5, abs=1e-15)


def test_l1_sign_test_against_intervals_uses_the_closed_form():
    u = UniformMeasure(0.0, TWO_PI)

    def arc_sum(c1, c2):
        iv1, iv2 = (window_intervals(c, u.a, u.b) for c in (c1, c2))
        return (float(total_length(iv1)) + float(total_length(iv2))
                - 2.0 * float(total_length(intersect(iv1, iv2)))) / TWO_PI

    wide = SontagConcept(3.5e4)
    window = IntervalUnion(((0.0, TWO_PI),))
    assert l1_distance(wide, window, u) == 1.0 - expect_indicator(u, wide)
    assert l1_distance(window, wide, u) == 1.0 - expect_indicator(u, wide)
    rng = np.random.default_rng(4)
    for _ in range(30):
        sign = SontagConcept(float(rng.uniform(0.5, 200.0)))
        cuts = np.sort(rng.uniform(-1.0, TWO_PI + 1.0, size=6))
        other = IntervalUnion(tuple(zip(cuts[::2], cuts[1::2])))
        d = l1_distance(sign, other, u)
        assert d == l1_distance(other, sign, u)
        assert abs(d - arc_sum(sign, other)) <= 1e-12
    # two sign-test concepts keep the arc sum
    a, b = SontagConcept(2.0), SontagConcept(4.0)
    assert l1_distance(a, b, u) == arc_sum(a, b)


def test_non_atomic_measures_refuse_a_concept_without_interval_form():
    class Halfline:
        def contains(self, x):
            return x < 0.3

    other = IntervalUnion(((0.0, 0.3),))
    for measure in (UniformMeasure(0.0, 1.0), CantorMeasure()):
        with pytest.raises(AttributeError):
            expect_indicator(measure, Halfline())
        for pair in ((Halfline(), other), (other, Halfline())):
            with pytest.raises(AttributeError):
                l1_distance(*pair, measure)


def test_l1_under_cantor_measure():
    c = CantorMeasure()
    a = IntervalUnion(((Fraction(0), Fraction(1, 3)),))
    b = IntervalUnion(((Fraction(2, 3), Fraction(1)),))
    assert l1_distance(a, b, c) == 1.0
    assert l1_distance(a, a, c) == 0.0


# ---------------------------------------------------------------------------
# order-interval classes


def test_max_interval_count_is_strict():
    assert [max_interval_count(n) for n in (1, 2, 4, 5, 9, 10, 16, 17)] == \
        [0, 1, 1, 2, 2, 3, 3, 4]
    for n in range(1, 2001):
        assert max_interval_count(n) == max(k for k in range(n) if k * k < n)
    for n in (0, -3):
        with pytest.raises(ValueError):
            max_interval_count(n)


def test_enumeration_counts():
    assert [len(list(enumerate_order_class(n))) for n in (1, 4, 9)] == [1, 5, 46]
    assert len(list(enumerate_order_class(25))) == sum(
        math.comb(25, k) for k in range(5))
    with pytest.raises(ValueError):
        enumerate_order_class(0)


def test_enumeration_members_are_structurally_valid():
    for concept in enumerate_order_class(9):
        assert concept.order == 9 and len(concept.cells) ** 2 < 9
    first = next(iter(enumerate_order_class(4)))
    assert first.cells == ()


def test_enumeration_cap_refuses_upfront():
    with pytest.raises(EnumerationCapError):
        enumerate_order_class(200)


def test_isolate_points_examples():
    n, concept = isolate_points([0.1, 0.9])
    assert n == 5
    assert concept.cells == (0, 4)
    n, concept = isolate_points([0.5])
    assert n == 2
    assert concept.cells == (1,)  # left endpoint preferred on grid boundary
    pts = [0.05 + 0.1 * i for i in range(10)]
    n, concept = isolate_points(pts)
    assert n == 101
    assert len(concept.cells) == 10
    assert 10 < math.sqrt(101)
    n, concept = isolate_points([])
    assert (n, concept.cells) == (1, ())


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 4), min_size=1,
                max_size=8, unique=True))
def test_isolate_points_contract(grid):
    pts = [p / 10 ** 4 for p in grid]
    n, concept = isolate_points(pts)
    k = len(pts)
    assert n > k * k
    for p in pts:
        assert int(concept.contains(p)) == 1
    assert concept.order == n and len(concept.cells) ** 2 < n
    lebesgue = expect_indicator(UniformMeasure(0.0, 1.0), concept)
    assert lebesgue <= n ** -0.5 + 1e-12
    if k > 1:
        spts = sorted(pts)
        min_half = min(Fraction(b) - Fraction(a)
                       for a, b in zip(spts, spts[1:])) / 2
        assert Fraction(1, n) < min_half


# ---------------------------------------------------------------------------
# shattering level intervals of the ternary construction


def test_cantor_shatter_level1_single_interval_feasible():
    rep = cantor_shatter_search(1, 5, [1])
    assert rep.status == "feasible"
    assert rep.witness.cells == (0, 1)
    assert rep.witness.intervals == ((0.0, 0.2), (0.2, 0.4))


def test_cantor_shatter_empty_selection_is_trivially_feasible():
    for order in (1, 5, 64):
        rep = cantor_shatter_search(1, order, [])
        assert rep.status == "feasible"
        assert rep.witness.cells == ()


def test_cantor_shatter_both_intervals_infeasible_through_order_64():
    for order in range(1, 65):
        rep = cantor_shatter_search(1, order, [1, 2])
        assert rep.status == "infeasible"
        assert rep.reason


def test_cantor_shatter_witnesses_pass_independent_verifier():
    ivs1 = [(Fraction(0), Fraction(1, 3)), (Fraction(2, 3), Fraction(1))]
    for order in (3, 5, 9, 25, 49):
        for selected in ([], [1], [2]):
            rep = cantor_shatter_search(1, order, selected)
            if rep.status != "feasible":
                continue
            cells = [(Fraction(i, order), Fraction(i + 1, order))
                     for i in rep.witness.cells]
            for j, (a, b) in enumerate(ivs1, start=1):
                covered = _covers(cells, a, b)
                if j in selected:
                    assert covered
                else:
                    assert all(hi <= a or b <= lo for lo, hi in cells) or \
                        all(hi < a or b < lo for lo, hi in cells)
                    assert not any(lo <= b and a <= hi for lo, hi in cells)


def _covers(cells, a, b):
    cursor = a
    for lo, hi in sorted(cells):
        if lo <= cursor < hi or (lo <= cursor <= hi and cursor == a):
            cursor = max(cursor, hi)
        if cursor >= b:
            return True
    return cursor >= b


def _fraction_level_intervals(level):
    # The middle-third construction in Fractions, one deletion per level.
    ivs = [(Fraction(0), Fraction(1))]
    for _ in range(level):
        ivs = [piece for lo, hi in ivs for piece in (
            (lo, lo + (hi - lo) / 3), (hi - (hi - lo) / 3, hi))]
    return ivs


def _cell_relations(level, order):
    # For each level interval, every cell [i, i + 1] / order decided against
    # it in Fractions, left to right up to the first cell past it: the
    # closed cells that meet it, and the cells whose interior meets it.
    touch, inner = [], []
    for lo, hi in _fraction_level_intervals(level):
        lo, hi = lo * order, hi * order
        cells = []
        for i in range(order):
            if lo <= i + 1:
                if i > hi:
                    break
                cells.append(i)
        touch.append(set(cells))
        inner.append({i for i in cells if lo < i + 1 and i < hi})
    return touch, inner


def _check_against_oracle(level, order, subsets):
    # Status, forced cells, first clashing cell and witness cells.
    touch, inner = _cell_relations(level, order)
    for selected in subsets:
        forced = sorted(set().union(*(inner[j - 1] for j in selected)))
        clash = set().union(*(cells for j, cells in enumerate(touch, start=1)
                              if j not in selected))
        first = next((i for i in forced if i in clash), None)
        feasible = first is None and len(forced) ** 2 < order
        rep = cantor_shatter_search(level, order, selected)
        same = (rep.status == ("feasible" if feasible else "infeasible")
                and list(rep.forced_cells) == forced
                and (first is None or rep.reason == f"forced cell {first} "
                     "meets an unselected level interval")
                and (rep.witness.cells if feasible else rep.witness)
                == (tuple(forced) if feasible else None))
        assert same, rep


def test_cantor_shatter_matches_fraction_oracle_at_levels_0_to_3():
    for level in range(4):
        subsets = [[j + 1 for j in range(2 ** level) if mask >> j & 1]
                   for mask in range(2 ** 2 ** level)]
        for order in (*range(1, 131), 243, 729, 2187, 6561, 10 ** 4):
            _check_against_oracle(level, order, subsets)


def test_cantor_shatter_matches_fraction_oracle_at_level_4():
    rng = np.random.default_rng(44)
    for order in (80, 81, 82, 100, 162, 243, 1000, 10 ** 4):
        masks = rng.integers(0, 2 ** 16, size=12)
        _check_against_oracle(4, order, [
            [j + 1 for j in range(16) if int(mask) >> j & 1]
            for mask in masks])


def test_cantor_shatter_caps_raise():
    with pytest.raises(EnumerationCapError):
        cantor_shatter_search(5, 10, [1])
    with pytest.raises(EnumerationCapError):
        cantor_shatter_search(1, 10 ** 5, [1])


# ---------------------------------------------------------------------------
# serialization


def test_concept_json_round_trip():
    # A literal document of every concept kind reads as its concept; the
    # grid union, the one concept written back (as a cantor witness),
    # reads its own document too.
    cases = [
        ({"kind": "sontag", "w": 3}, SontagConcept(3.0)),
        ({"kind": "intervals", "intervals": [[0, 0.25], [0.5, 1.0]]},
         IntervalUnion(((0.0, 0.25), (0.5, 1.0)))),
        ({"kind": "intervals", "order": 7, "cells": [4, 1]},
         GridUnion(7, (1, 4))),
        ({"kind": "atom_labels", "locations": [1.0, 2], "bits": [0, 1],
          "default_bit": 1}, AtomLabeling((1.0, 2.0), (0, 1), default_bit=1)),
        ({"kind": "atom_labels", "locations": [0.5], "bits": [1]},
         AtomLabeling((0.5,), (1,))),
    ]
    for doc, concept in cases:
        assert concept_from_json(json.loads(json.dumps(doc))) == concept
    grid = GridUnion(7, (1, 4))
    assert concept_from_json(json.loads(json.dumps(grid.to_json()))) == grid
    with pytest.raises(ConfigError, match="middle_thirds"):
        concept_from_json({"kind": "middle_thirds", "pieces": [[1, 0]]})
