import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paclab.sontag import (DEFAULT_BUDGET, ArcSet, SontagParams,
                           cos_sign_intervals, feasible_weights, first_primes,
                           net_output, output_labels, phi,
                           rationally_independent_points, rho, shatter_census,
                           shatter_search)

PI = math.pi


# ---------------------------------------------------------------------------
# activation and closed form


def test_phi_at_zero():
    assert phi(0.0, 100.0) == pytest.approx(0.51, abs=1e-15)


def test_phi_asymptote():
    # asymptotic oracle: arctan tail 1/(pi x), cosine term below 1e-14 here
    expected = 1.0 - 1.0 / (PI * 1e6)
    assert abs(phi(1e6, 100.0) - expected) <= 1e-9


def test_phi_stays_strictly_inside_unit_interval():
    xs = np.linspace(-1e4, 1e4, 10 ** 6)
    vals = phi(xs, 100.0)
    assert np.all(vals > 0.0) and np.all(vals < 1.0)


def test_phi_rejects_small_alpha():
    with pytest.raises(ValueError):
        phi(0.0, 6.0)
    with pytest.raises(ValueError):
        SontagParams(1.0, alpha=2.0)


def test_rho_at_zero_is_2_over_alpha():
    for w in (0.0, 1.0, 17.5):
        assert rho(0.0, w, 100.0) == pytest.approx(0.02, abs=1e-18)


def test_rho_vanishes_at_quarter_period():
    for w in (1.0, 2.0, 5.0):
        x = PI / 2 / w
        assert abs(rho(x, w, 100.0)) <= 1e-16


def test_composition_identity_on_grid():
    # phi(wx) + phi(-wx) - 1 collapses to the closed form: the arctan parts
    # cancel exactly and the cosine parts double.
    xs = np.linspace(-50.0, 50.0, 10 ** 5)
    for w in (0.1, 1.0, 5.0, 100.0):
        t = w * xs
        lhs = phi(t, 100.0) + phi(-t, 100.0) - 1.0
        gap = np.max(np.abs(lhs - rho(xs, w, 100.0)))
        assert gap <= 1e-12


# ---------------------------------------------------------------------------
# thresholded output


def test_net_output_examples():
    assert net_output(0.0, SontagParams(3.0)) == 1
    assert net_output(PI, SontagParams(1.0)) == 0
    assert net_output(123.0, SontagParams(0.0)) == 1


def test_composed_wiring_agrees_with_closed_form_output():
    from paclab.sontag import net_output_composed
    rng = np.random.default_rng(55)
    for _ in range(2000):
        params = SontagParams(float(rng.uniform(0, 50)),
                              alpha=float(rng.uniform(7, 200)))
        x = float(rng.uniform(-20, 20))
        assert net_output_composed(x, params) == net_output(x, params)


def test_net_output_equals_cosine_sign_test():
    rng = np.random.default_rng(2024)
    xs = rng.uniform(-100.0, 100.0, 10 ** 6)
    ws = rng.uniform(0.0, 1000.0, 10 ** 6)
    lhs = output_labels(xs * ws, 1.0)
    direct = np.cos(ws * xs) >= 0.0
    assert np.array_equal(lhs, direct)
    for x, w in [(0.3, 2.0), (7.0, 0.01), (-4.0, 30.0)]:
        assert net_output(x, SontagParams(w)) == int(math.cos(w * x) >= 0.0)


def test_cos_sign_intervals_against_dense_grid():
    for w, lo, hi in [(2.0, 0.0, 2 * PI), (0.0, -1.0, 1.0), (5.5, -3.0, 9.0)]:
        ivs = cos_sign_intervals(w, lo, hi)
        grid = np.linspace(lo, hi, 20001)
        inside = np.zeros(len(grid), dtype=bool)
        for a, b in ivs:
            inside |= (grid >= a) & (grid <= b)
        assert np.mean(inside == (np.cos(w * grid) >= 0.0)) >= 0.999


# ---------------------------------------------------------------------------
# feasible-weight arcs


def test_feasible_weights_label1_arcs():
    arcs = feasible_weights(1.0, 1, 12.0).intervals
    expected = [(0.0, PI / 2), (3 * PI / 2, 5 * PI / 2), (7 * PI / 2, 12.0)]
    assert len(arcs) == len(expected)
    for (lo, hi), (elo, ehi) in zip(arcs, expected):
        assert lo == pytest.approx(elo, abs=1e-12)
        assert hi == pytest.approx(ehi, abs=1e-12)
    # W_max below the third arc drops it entirely
    assert len(feasible_weights(1.0, 1, 10.0).intervals) == 2


def test_feasible_weights_at_origin():
    assert feasible_weights(0.0, 1, 7.0).intervals == ((0.0, 7.0),)
    assert feasible_weights(0.0, 0, 7.0).is_empty


def test_feasible_weights_label0_complement():
    arcs = feasible_weights(2.0, 0, PI).intervals
    assert len(arcs) == 1
    lo, hi = arcs[0]
    assert lo == pytest.approx(PI / 4, abs=1e-12)
    assert hi == pytest.approx(3 * PI / 4, abs=1e-12)


@st.composite
def arc_sets(draw):
    w_max = draw(st.floats(min_value=1.0, max_value=100.0,
                           allow_nan=False, allow_infinity=False))
    points = draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                           max_size=8, unique=True))
    cuts = sorted(p * w_max for p in points)
    arcs = [(a, b) for a, b in zip(cuts[::2], cuts[1::2]) if a < b]
    return ArcSet.from_arcs(arcs, w_max)


@given(arc_sets())
def test_arcset_complement_is_involutive(s):
    assert s.complement().complement() == s


@given(arc_sets(), arc_sets())
def test_arcset_intersection_commutes(a, b):
    # from_arcs clips a rescaled end that rounds past a.w_max.
    b = ArcSet.from_arcs(b.intervals if b.w_max == a.w_max else
                         [(lo * a.w_max / b.w_max, hi * a.w_max / b.w_max)
                          for lo, hi in b.intervals], a.w_max)
    assert a.intersect(b) == b.intersect(a)


@given(arc_sets())
def test_arcset_complement_partitions_length(s):
    assert s.total_length() + s.complement().total_length() == pytest.approx(
        s.w_max, rel=1e-9)
    assert s.intersect(s.complement()).is_empty


def test_arcset_intersection_associates():
    a = ArcSet.from_arcs([(0.0, 2.0), (5.0, 9.0)], 10.0)
    b = ArcSet.from_arcs([(1.0, 6.0)], 10.0)
    c = ArcSet.from_arcs([(1.5, 5.5), (8.0, 10.0)], 10.0)
    assert a.intersect(b).intersect(c) == a.intersect(b.intersect(c))


# ---------------------------------------------------------------------------
# witness search


def test_shatter_single_point_all_ones_is_weight_zero():
    res = shatter_search([1.0], [1], 100.0)
    assert res.found and res.witness_w == 0.0


def test_shatter_two_points_lands_in_expected_window():
    res = shatter_search([1.0, 2.0], [1, 0], 100.0)
    assert res.found
    assert PI / 4 < res.witness_w <= PI / 2
    assert output_labels([1.0, 2.0], res.witness_w).tolist() == [True, False]


def test_census_single_point_realizes_both_labels():
    census = shatter_census([1.0], 100.0)
    assert (census.realized, census.total) == (2, 2)


def test_shatter_rationally_dependent_pair_all_labelings():
    census = shatter_census([1.0, 2.0], 100.0)
    assert census.realized == 4
    # labels (0, 1): cos w < 0 <= cos 2w, satisfied near pi
    entry = census.entries[1]
    assert entry.labels == (1, 0) or entry.labels == (0, 1)


def test_witnesses_cross_checked_against_dense_grid_scan():
    points = rationally_independent_points(3)
    w_max = 40.0
    grid = np.arange(0.0, w_max, 1e-4)
    patterns = np.cos(np.outer(grid, points)) >= 0.0

    def next_breakpoint(w):
        # least zero of any cos(w * x_i) strictly above w
        return min((math.floor(w * x / PI - 0.5) + 1.5) * PI / x
                   for x in points)

    for i in range(8):
        labels = [(i >> j) & 1 for j in range(3)]
        res = shatter_search(points, labels, w_max)
        hits = np.all(patterns == np.array(labels, dtype=bool), axis=1)
        if res.found:
            assert np.any(hits)
            first = float(grid[int(np.argmax(hits))])
            # The witness may be midpoint-adjusted within its feasible
            # component, but must not land beyond the component the grid
            # scan detected first.
            assert res.witness_w <= next_breakpoint(first) + 1e-12
            assert output_labels(points, res.witness_w).tolist() == [
                bool(b) for b in labels]
        else:
            assert not np.any(hits)


def test_all_eight_labelings_of_log_primes():
    points = rationally_independent_points(3)
    census = shatter_census(points, 10 ** 4)
    assert census.realized == 8
    for entry in census.entries:
        assert output_labels(points, entry.witness_w).tolist() == [
            bool(b) for b in entry.labels]


def test_search_agrees_with_arcset_intersection():
    # dual route: intersect the per-point feasible arcs explicitly and
    # compare against the sweep-line result
    rng = np.random.default_rng(808)
    w_max = 25.0
    for _ in range(200):
        n = int(rng.integers(1, 4))
        points = np.round(rng.uniform(0.5, 3.0, size=n), 3)
        if len(np.unique(points)) != n:
            continue
        labels = [int(b) for b in rng.integers(0, 2, size=n)]
        sets = [feasible_weights(x, lab, w_max)
                for x, lab in zip(points, labels)]
        inter = sets[0]
        for s in sets[1:]:
            inter = inter.intersect(s)
        res = shatter_search(points, labels, w_max)
        assert res.found == (not inter.is_empty)
        if res.found:
            slack = 1e-9
            assert any(lo - slack <= res.witness_w < hi + slack
                       for lo, hi in inter.intervals)
            assert res.witness_w <= inter.intervals[0][1] + slack


def test_census_monotone_in_w_max():
    points = [1.0, 1.1, 2.7]
    counts = [shatter_census(points, w).realized for w in (0.5, 2.0, 20.0, 200.0)]
    assert counts == sorted(counts)


def test_census_entries_match_single_searches():
    # Entry i of the one-sweep census must equal the single search for
    # labeling i, field for field: status, witness, range and breakpoints.
    cases = [(rationally_independent_points(n), 1e4, DEFAULT_BUDGET)
             for n in range(1, 6)]
    cases += [([1.0, 2.0, 3.0], 1e4, DEFAULT_BUDGET),
              ([0.0, 1.0, 2.0], 1e4, DEFAULT_BUDGET),
              ([-2.0, -0.5, 1.0, 2.0], 1e4, DEFAULT_BUDGET),
              ([-math.log(2), -math.log(3), math.log(5)], 1e4, DEFAULT_BUDGET),
              (rationally_independent_points(5), 1e6, 10),
              # -2 and 2 always share a label, so half the labelings are
              # infeasible: swept over many blocks, or stopped by the budget.
              ([-2.0, -0.5, 1.0, 2.0], 1e6, DEFAULT_BUDGET),
              ([-2.0, -0.5, 1.0, 2.0], 1e6, 10)]
    statuses = set()
    for points, w_max, budget in cases:
        census = shatter_census(points, w_max, threads=4, budget=budget)
        assert census.total == 2 ** len(points)
        for i, entry in enumerate(census.entries):
            labels = [(i >> j) & 1 for j in range(len(points))]
            assert entry == shatter_search(points, labels, w_max,
                                           budget=budget)
            statuses.add(entry.status)
    assert statuses == {"found", "infeasible", "budget_exceeded"}


def test_budget_exceeded_reports_partial_range():
    res = shatter_search([1.0, math.sqrt(2)], [1, 0], 1e9, budget=100)
    if res.status == "found":
        assert res.witness_w is not None
    else:
        assert res.status == "budget_exceeded"
        assert res.range_searched[1] < 1e9


def test_infeasible_zero_point_label_zero():
    res = shatter_search([0.0, 1.0], [0, 1], 50.0)
    assert res.status == "infeasible"
    assert res.witness_w is None


# ---------------------------------------------------------------------------
# rationally independent points


def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]
    reference = []
    candidate = 2
    while len(reference) < 2000:
        if all(candidate % p for p in reference if p * p <= candidate):
            reference.append(candidate)
        candidate += 1
    for n in range(2001):
        assert first_primes(n) == reference[:n]
    primes = first_primes(15626)
    assert len(primes) == 15626 and primes[-1] == 171539
    assert all(type(p) is int for p in primes)


def test_log_prime_points():
    assert rationally_independent_points(1) == [math.log(2)]
    assert rationally_independent_points(3) == [math.log(2), math.log(3),
                                                math.log(5)]
    with pytest.raises(ValueError):
        rationally_independent_points(0)
