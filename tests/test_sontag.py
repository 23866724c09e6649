import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from arcsets import ArcSet, feasible_weights
from wiring import net_output_composed
from paclab import sontag
from paclab.concepts import EnumerationCapError
from paclab.sontag import (DEFAULT_BUDGET, SontagParams, cos_sign_intervals,
                           first_primes, net_output, output_labels, phi,
                           rationally_independent_points, rho, shatter_census,
                           shatter_search, shatter_search_many)

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


def test_output_labels_equal_the_closed_form_sign():
    # At moderate w the labels are rho's signs; past (wx)^2's float range,
    # where rho's denominator overflows, they stay cos(wx)'s.
    xs = np.linspace(-20.0, 20.0, 4001)
    for w in (0.0, 0.37, 1.0, 3.0, 250.0):
        assert np.array_equal(output_labels(xs, w), rho(xs, w) >= 0.0)
    xs = np.linspace(0.1, 6.0, 7)
    labels = output_labels(xs, 1e300)
    assert np.array_equal(labels, np.cos(1e300 * xs) >= 0.0)
    assert 0 < labels.sum() < len(xs)


def test_tiny_weight_arcs_are_the_whole_window():
    # At w = 5e-324 every arc end past the float range is infinite.
    assert cos_sign_intervals(5e-324, 0.0, 2 * PI) == [(0.0, 2 * PI)]
    assert cos_sign_intervals(5e-324, -1.0, 1.0) == [(-1.0, 1.0)]


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


def test_census_above_the_cap_raises_before_any_sweep(monkeypatch):
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before the census cap was checked")

    monkeypatch.setattr(sontag, "_sweep", no_sweep)
    points = [float(p) for p in range(1, sontag.MAX_CENSUS_POINTS + 2)]
    with pytest.raises(EnumerationCapError):
        shatter_census(points, 1e4)


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
    # 1 and -1 always share a label, so this sweep runs into its budget.
    # Breakpoints count once per point, so the one 1 and -1 share counts
    # twice, and the sweep stops after the last group of equal breakpoints
    # that fits the budget: at budget 2 the shared pair does not.
    points = [1.0, math.sqrt(2), -1.0]
    times = sorted((k + 0.5) * PI / abs(x) for x in points
                   for k in range(200))
    whole = [n for n in range(len(times))
             if n == 0 or times[n - 1] < times[n]]
    swept = []
    for budget in (0, 1, 2, 3, 100, 101):
        res = shatter_search(points, [1, 0, 0], 1e9, budget=budget)
        n = max(m for m in whole if m <= budget)
        assert res.status == "budget_exceeded"
        assert res.breakpoints == n
        assert res.range_searched == (0.0, ([0.0] + times)[n])
        swept.append(n)
    assert swept[:4] == [0, 1, 1, 3]


def test_witnesses_do_not_depend_on_the_blocks(monkeypatch):
    # The open interval and its state carry across a block boundary, so
    # neither the first block's size nor the largest block's may show in
    # any field.  Nor may the spans of arcs a one-row sweep filters before
    # it jumps, or the arcs of one filter matrix.
    rng = np.random.default_rng(7)
    searches = [(rng.uniform(0.0, 2 * PI, size=n), [1] * n, 1e6, 32.0,
                 DEFAULT_BUDGET) for n in (4, 8, 8, 12)]
    searches += [(rng.uniform(0.0, 2 * PI, size=14), [1, 0] * 7, 1e6, 0.0,
                  DEFAULT_BUDGET)]
    searches += [([1.0, math.sqrt(2), -1.0], [1, 0, 0], 1e9, 0.0, 1000),
                 ([1.0, math.sqrt(2)], [0, 0], 1e4, 3.0, DEFAULT_BUDGET)]
    # One batch of twelve-point searches: a largest block of one event
    # takes one problem an iteration, and the others wait.
    batch = (rng.uniform(0.0, 2 * PI, size=(5, 12)),
             rng.random((5, 12)) < 0.7, 1e6, 32.0, DEFAULT_BUDGET)
    runs = []
    # A span of one breakpoint holds one arc or none; one arc cell puts
    # each arc kept by the filter's first step in a matrix of its own.
    # The largest span and the block size clamp the filter's first span,
    # so it starts at 1, 2, 3, its share of 2**n or 16,384 breakpoints.
    for first_block, largest_block, span, arc_cells in [
            (1, 1, 1, 2 ** 12), (1, 64, 2, 1), (64, 64, 1, 2 ** 12),
            (64, 2 ** 14, 2 ** 16, 1), (64, 2 ** 14, 3, 2 ** 12),
            (65_536, 1, 2 ** 16, 1), (65_536, 2 ** 14, 2, 2 ** 12),
            (65_536, 2 ** 14, 2 ** 16, 2 ** 20)]:
        monkeypatch.setattr(sontag, "_FIRST_BLOCK", first_block)
        monkeypatch.setattr(sontag, "_LARGEST_BLOCK", largest_block)
        monkeypatch.setattr(sontag, "_LARGEST_SPAN", span)
        monkeypatch.setattr(sontag, "_ARC_CELLS", arc_cells)
        runs.append(([shatter_search(xs, labels, w_max, w_min=w_min,
                                     budget=budget)
                      for xs, labels, w_max, w_min, budget in searches],
                     shatter_census(rationally_independent_points(4), 1e4),
                     shatter_search_many(batch[0], batch[1], batch[2],
                                         w_min=batch[3], budget=batch[4])))
    assert all(run == runs[0] for run in runs[1:])
    assert runs[0][0] == [
        _argsort_sweep(np.array(xs), np.array([labels], dtype=bool), w_max,
                       w_min, budget)[0]
        for xs, labels, w_max, w_min, budget in searches]
    assert runs[0][2] == [_argsort_sweep(xs, labels[None], *batch[2:])[0]
                          for xs, labels in zip(batch[0], batch[1])]


def test_last_indices_match_a_scan_of_the_definition():
    # The largest k >= -1 whose computed breakpoint (k + 1/2) pi / ax is
    # <= w, read off every k up to past w.
    def scan(ax, w):
        ks = np.arange(int(w * ax / PI) + 3)
        hits = ks[(ks + 0.5) * PI / ax <= w]
        return int(hits.max()) if len(hits) else -1

    rng = np.random.default_rng(11)
    axs = np.concatenate([[1.0, 2.0, math.log(2), math.sqrt(2), 0.1, 7.0],
                          rng.uniform(0.05, 7.0, size=14)])
    ws = [0.0, 5e-324, 1e-9]
    for ax in axs:
        first = 0.5 * PI / ax
        ws += [0.5 * first, np.nextafter(first, 0.0)]
        for k in (0, 1, 2, 3, int(rng.integers(4, 400))):
            # Exactly on a computed breakpoint, and one ulp either side.
            w = (k + 0.5) * PI / ax
            ws += [w, np.nextafter(w, 0.0), np.nextafter(w, np.inf)]
    ws += rng.uniform(0.0, 200.0, size=50).tolist()
    for w in ws:
        got = sontag._last_indices(axs, float(w))
        assert got.tolist() == [scan(ax, float(w)) for ax in axs], w


def test_weights_beyond_exact_breakpoint_indexing_stop_the_sweep():
    # No breakpoint above w_min can be indexed: the range ends at w_min.
    res = shatter_search([1.0, 2.0], [1, 0], 1e22, w_min=1e21, budget=100)
    assert (res.status, res.range_searched, res.breakpoints) == (
        "budget_exceeded", (1e21, 1e21), 0)
    # 1 and -1 always share a label: the sweep starts below 2**52 and
    # stops at the last breakpoint it can index, as at a budget: indices
    # 2**52 - 100 to 2**52 - 17, counted once for each point.
    w_min = (2 ** 52 - 100) * PI
    res = shatter_search([1.0, -1.0], [1, 0], 1e22, w_min=w_min)
    assert res.status == "budget_exceeded"
    assert res.breakpoints == 2 * 84
    assert w_min < res.range_searched[1] < (2 ** 52 - 8) * PI
    # Rows settled at w_min need no index and are returned as before.
    at_min = output_labels([1.0, 2.0], 1e21).astype(int).tolist()
    res = shatter_search([1.0, 2.0], at_min, 1e22, w_min=1e21, budget=100)
    assert (res.status, res.witness_w, res.breakpoints) == ("found", 1e21, 0)
    res = shatter_search([0.0, 1.0], [0, 1], 1e22, w_min=1e21, budget=100)
    assert res.status == "infeasible"


@st.composite
def sweep_cases(draw):
    x = draw(st.floats(min_value=0.3, max_value=3.0))
    shape = draw(st.sampled_from(["free", "multiples", "near"]))
    if shape == "multiples":
        points = [x, 2 * x, 3 * x]
    elif shape == "near":
        points = [x, x + 1e-9] + draw(st.lists(
            st.floats(min_value=0.3, max_value=3.0), max_size=1))
    else:
        points = [x] + draw(st.lists(st.floats(min_value=0.3, max_value=3.0),
                                     max_size=2))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]),
                          min_size=len(points), max_size=len(points)))
    points = [s * p for s, p in zip(signs, points)]
    assume(len(set(points)) == len(points))
    labels = draw(st.lists(st.sampled_from([0, 1]), min_size=len(points),
                           max_size=len(points)))
    w_min = draw(st.sampled_from([0.0, 0.0, 2.5, 7.0]))
    return points, labels, w_min


@settings(max_examples=150, deadline=None)
@given(sweep_cases())
def test_sweep_agrees_with_arcset_oracle_and_dense_grid(case):
    points, labels, w_min = case
    w_max = 25.0
    inter = ArcSet.from_arcs([(w_min, w_max)], w_max)
    for x, lab in zip(points, labels):
        inter = inter.intersect(feasible_weights(x, lab, w_max))
    res = shatter_search(points, labels, w_max, w_min=w_min)
    slack = 1e-9
    # Arcs narrower than float noise in the oracle may be missed.
    wide = [(lo, hi) for lo, hi in inter.intervals if hi - lo > 1e-12]
    if res.found:
        assert output_labels(points, res.witness_w).tolist() == [
            bool(b) for b in labels]
        assert res.witness_w >= w_min
        # A feasible set can hold isolated points, e.g. w x = pi/2 for the
        # labels (1, 0, 1) of (x, 2x, 3x); they sit on a zero of some
        # cos(w x), and half-open arcs cannot represent them.
        phases = [res.witness_w * abs(x) / PI - 0.5 for x in points]
        isolated = min(abs(t - round(t)) for t in phases) < 1e-9
        assert isolated or any(lo - slack <= res.witness_w < hi + slack
                               for lo, hi in inter.intervals)
    if wide:
        assert res.found
        assert res.witness_w <= wide[0][1] + slack
    else:
        assert res.status in ("found", "infeasible")
    grid = np.arange(w_min, w_max, 1e-3)
    hits = np.all((np.cos(np.outer(grid, points)) >= 0.0)
                  == np.array(labels, dtype=bool), axis=1)
    if np.any(hits):
        # The witness lies in the elementary interval of the first grid hit
        # or earlier: below the next breakpoint of any point.
        first = float(grid[int(np.argmax(hits))])
        assert res.found
        assert res.witness_w <= min(
            (math.floor(first * abs(x) / PI - 0.5) + 1.5) * PI / abs(x)
            for x in points) + slack


def test_infeasible_zero_point_label_zero():
    res = shatter_search([0.0, 1.0], [0, 1], 50.0)
    assert res.status == "infeasible"
    assert res.witness_w is None


def test_sort_keys_stay_exact_across_wide_blocks():
    # With 300 points a key keeps 54 bits for time offsets, four binades
    # above the block's base; the point at 100 makes the first block span
    # forty times its least breakpoint, so the block must be cut short
    # there.  Only point 0 is labelled 0, and it flips first.
    xs = np.concatenate([[100.0], np.random.default_rng(2).uniform(
        0.5, 1.0, 299)])
    res = shatter_search(xs, [0] + [1] * 299, 50.0, w_min=0.0)
    assert (res.status, res.witness_w, res.breakpoints) == (
        "found", 0.015707963267948967, 1)


def _argsort_sweep(xs, labs, w_max, w_min, budget):
    # The sweep as it was with a stable argsort of each block's event
    # times and no jumps, counting one breakpoint per point: the oracle of
    # the packed-key sort and of the arc filter.
    if len(np.unique(xs)) != len(xs):
        raise ValueError("points must be pairwise distinct")
    w_max = float(w_max)
    w_min = float(w_min)
    if not 0.0 <= w_min < w_max:
        raise ValueError("need 0 <= w_min < w_max")
    zero_mask = xs == 0.0
    at_min = (output_labels(xs, w_min) == labs).all(axis=1)
    blocked = ~labs[:, zero_mask].all(axis=1)
    outcome = [("found", w_min, w_min, 0) if f
               else ("infeasible", None, w_max, 0) if b else None
               for f, b in zip(at_min.tolist(), blocked.tolist())]
    live = (~(at_min | blocked)).nonzero()[0]
    axs = np.abs(xs[~zero_mask])
    w_stop = ((sontag._INDEX_LIMIT - 16) * PI / axs.max() if len(axs)
              else math.inf)
    if w_min >= w_stop:
        outcome = [o or ("budget_exceeded", None, w_min, 0) for o in outcome]
        live = live[:0]
    targets = labs[live][:, ~zero_mask]
    steps = np.where(targets[:, :, None] == np.array([False, True]),
                     np.int8(-1), np.int8(1)).reshape(len(live), 2 * len(axs))
    k_lo = (sontag._last_indices(axs, w_min) if len(live)
            else np.zeros(len(axs), dtype=np.int64))
    mismatch = (((k_lo & 1) == 1) != targets).sum(axis=1, keepdims=True)

    def search(r, edges, counts, swept):
        for j in np.flatnonzero(counts[:len(edges) - 1] == 0):
            left, right = float(edges[j]), float(edges[j + 1])
            for w in (left, 0.5 * (left + right)) if right > left else (left,):
                if np.all(output_labels(xs, w) == labs[r]):
                    outcome[r] = ("found", w, w, int(swept[j]))
                    return True
        return False

    rate = float(np.sum(axs)) / PI
    size = sontag._FIRST_BLOCK
    used = 0
    left = lo = w_min
    while len(live):
        hi = min(lo + size / max(rate, 1e-12), w_max, w_stop)
        k_hi = sontag._last_indices(axs, hi)
        per_point = k_hi - k_lo
        point = np.repeat(np.arange(len(axs)), per_point)
        ks = (np.repeat(k_lo + 1 - (np.cumsum(per_point) - per_point),
                        per_point) + np.arange(len(point)))
        times = (ks + 0.5) * PI / axs[point]
        order = np.argsort(times, kind="stable")
        times = times[order]
        code = (2 * point + (ks & 1))[order]
        ends = np.flatnonzero(np.append(times[1:] != times[:-1],
                                        len(times) > 0))
        # One breakpoint per point; a group of equal times is swept whole.
        exhausted = used + len(times) > budget
        if exhausted:
            ends = ends[ends < budget - used]
        exhausted = exhausted or w_stop < w_max and hi == w_stop
        edges = np.append(left, times[ends])
        swept = used + np.append(0, ends + 1)
        last = exhausted or hi >= w_max
        if last:
            edges = np.append(edges, edges[-1] if exhausted else w_max)
        chunk = max(1, (1 << 18) // max(len(code), 1))  # rows x events
        settled = []
        for start in range(0, len(live), chunk):
            part = slice(start, start + chunk)
            sums = steps[part].astype(np.int64).take(code, axis=1)
            sums.cumsum(1, out=sums)
            before = mismatch[part]
            counts = np.concatenate(
                (before, before + sums.take(ends, axis=1)), axis=1)
            hits = counts[:, :len(edges) - 1].min(axis=1, initial=1) == 0
            settled += [start + i for i in hits.nonzero()[0]
                        if search(live[start + i], edges, counts[i], swept)]
            mismatch[part] = counts[:, -1:]
        used = int(swept[-1])
        left, lo, k_lo = float(edges[-1]), hi, k_hi
        if settled:
            keep = np.ones(len(live), dtype=bool)
            keep[settled] = False
            live, steps, mismatch = live[keep], steps[keep], mismatch[keep]
        if last:
            for r in live:
                outcome[r] = (("budget_exceeded", None, left, used)
                              if exhausted
                              else ("infeasible", None, w_max, used))
            break
        size = min(2 * size, sontag._LARGEST_BLOCK)
    return [sontag.ShatterResult(tuple(int(b) for b in lab), status, w,
                                 (w_min, covered), n_bps)
            for lab, (status, w, covered, n_bps) in zip(labs, outcome)]


@st.composite
def oracle_sweeps(draw):
    magnitude = st.floats(min_value=0.2, max_value=5.0)
    points = draw(st.lists(magnitude, min_size=1, max_size=6))
    points = [draw(st.sampled_from([1.0, -1.0])) * x for x in points]
    # x and -x share every breakpoint; 0 is labelled 1 at every weight; a
    # point at 100 puts a block's events far above its least breakpoint.
    points += draw(st.sampled_from([[], [-points[0]], [0.0], [100.0],
                                    [-points[0], 100.0]]))
    assume(len(set(points)) == len(points))
    labs = draw(st.lists(st.lists(st.booleans(), min_size=len(points),
                                  max_size=len(points)),
                         min_size=1, max_size=4))
    w_min = draw(st.sampled_from([0.0, 0.0, 1e-3, 2.5,
                                  draw(st.floats(0.0, 40.0))]))
    w_max = w_min + draw(st.floats(min_value=0.5, max_value=300.0))
    budget = draw(st.sampled_from([0, 1, 2, 7, 40, DEFAULT_BUDGET]))
    return np.array(points), np.array(labs, dtype=bool), w_max, w_min, budget


@settings(max_examples=200, deadline=None)
@given(oracle_sweeps())
def test_sweep_matches_the_argsort_oracle(case):
    # Every field, breakpoints included, for every row of the labeling
    # matrix and for the row searched alone.
    xs, labs, w_max, w_min, budget = case
    expected = _argsort_sweep(xs, labs, w_max, w_min, budget)
    assert sontag._sweep(xs[None], labs[None], w_max, w_min,
                         budget) == expected
    assert shatter_search(xs, labs[0], w_max, w_min=w_min,
                          budget=budget) == expected[0]


def test_census_matches_the_argsort_oracle_past_five_points():
    # Every entry of censuses whose labelings keep codes of 8 and 10 bits,
    # over one block, many blocks and the coupon collector's tail; and of
    # the integers 1..8, whose labels have period 2 pi, so the labelings
    # never realized run to w_max or to the budget.
    cases = [(rationally_independent_points(n), w_max, DEFAULT_BUDGET)
             for n in (8, 10) for w_max in (3.0, 1e4, 1e6)]
    cases += [(np.arange(1.0, 9.0), 1e4, budget)
              for budget in (500, DEFAULT_BUDGET)]
    statuses = set()
    for points, w_max, budget in cases:
        n = len(points)
        labs = ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).astype(bool)
        entries = shatter_census(points, w_max, budget=budget).entries
        assert list(entries) == _argsort_sweep(np.array(points), labs, w_max,
                                               0.0, budget)
        statuses |= {e.status for e in entries}
    assert statuses == {"found", "infeasible", "budget_exceeded"}


def test_a_search_counts_past_the_bits_of_a_code():
    # 70 points, past the 63 bits an int64 label code holds: a one-row
    # search counts mismatched points, and finds the labeling some weight
    # gives.
    xs = np.random.default_rng(70).uniform(0.2, 3.0, 70)
    xs[::3] *= -1.0
    labels = output_labels(xs, 40.0)
    res = shatter_search(xs, labels, 1e3)
    # Its elementary interval begins at or below 40.
    assert res.found and res.breakpoints <= (
        sontag._last_indices(np.abs(xs), 40.0) + 1).sum()
    assert res == _argsort_sweep(xs, labels[None, :], 1e3, 0.0,
                                 DEFAULT_BUDGET)[0]


def _jump_points(shape, n, x, signs, free):
    # n distinct points of one shape, signed by ``signs``: random, the
    # multiples of x, +-pairs, the integers from 1, or random plus 0.
    if shape == "multiples":
        points = [x * k for k in range(1, n + 1)]
    elif shape == "pairs":
        points = free[:n // 2] + [-f for f in free[:(n + 1) // 2]]
        signs = [1.0] * n
    elif shape == "integers":
        points = [float(k) for k in range(1, n + 1)]
    elif shape == "zero":
        points = [0.0] + free[:n - 1]
    else:
        points = free[:n]
    return [s * p for s, p in zip(signs, points)]


@st.composite
def jump_sweeps(draw):
    n = draw(st.integers(6, 16))
    shape = draw(st.sampled_from(["free", "multiples", "pairs", "integers",
                                  "zero"]))
    x = draw(st.floats(min_value=0.05, max_value=0.4))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n,
                          max_size=n))
    free = draw(st.lists(st.floats(min_value=0.2, max_value=3.0),
                         min_size=n, max_size=n))
    xs = np.array(_jump_points(shape, n, x, signs, free))
    assume(len(np.unique(xs)) == n)
    labels = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    labels[xs == 0.0] = True  # else the row is settled before any sweep
    start = draw(st.sampled_from(["0", "32", "1000", "near 2**52"]))
    if start == "near 2**52":
        # A few thousand indices short of the sweep's index limit, where
        # the filter's margin spans thousands of indices.
        w_min = (2 ** 52 - 3000) * PI / np.abs(xs).max()
    else:
        w_min = float(start)
    w_max = w_min + draw(st.sampled_from([10.0, 1e3, 1e5]))
    budget = draw(st.one_of(st.integers(0, 40),
                            st.just(DEFAULT_BUDGET)))
    return xs, labels, w_max, w_min, budget


@settings(max_examples=120, deadline=None)
@given(jump_sweeps())
def test_one_row_jumps_match_the_argsort_oracle(case):
    # A one-row sweep may jump over weights the arc filter clears; every
    # field must equal the oracle's, which sweeps every breakpoint.
    xs, labels, w_max, w_min, budget = case
    assert shatter_search(xs, labels, w_max, w_min=w_min,
                          budget=budget) == _argsort_sweep(
        xs, labels[None, :], w_max, w_min, budget)[0]


def test_jumps_are_taken_on_every_shape(monkeypatch):
    # The shapes of the property test above do jump, and still match the
    # oracle: some search of each shape jumps, near 2**52 too.
    jumped = []
    jump = sontag._jump

    def counted(axs, target, k_lo, lo, *args):
        to = jump(axs, target, k_lo, lo, *args)
        jumped[-1] |= to > lo
        return to

    monkeypatch.setattr(sontag, "_jump", counted)
    rng = np.random.default_rng(20)
    free = rng.uniform(0.2, 3.0, 16).tolist()
    signs = [1.0, -1.0] * 8
    far = (2 ** 52 - 3000) * PI / max(free[:12])
    shapes = {shape: [(_jump_points(shape, n, 0.3, signs, free), w_min)
                      for n, w_min in ((6, 0.0), (11, 32.0), (16, 1000.0))]
              for shape in ("free", "multiples", "pairs", "integers", "zero")}
    # Twelve points: a sweep of eight or fewer expects its labeling within
    # two blocks of 128 events and never calls the filter.
    shapes["near 2**52"] = [(free[:12], far)]
    for shape, cases in shapes.items():
        jumped.append(False)
        for points, w_min in cases:
            xs = np.array(points)
            for labels in (xs != 0.0, (np.arange(len(xs)) % 3 > 0) | (xs == 0)):
                res = shatter_search(xs, labels, w_min + 1e5, w_min=w_min)
                assert res == _argsort_sweep(
                    xs, labels[None, :], w_min + 1e5, w_min,
                    DEFAULT_BUDGET)[0]
        assert jumped[-1], shape


def test_the_budget_bounds_the_arc_filter_scan(monkeypatch):
    # No weight gives the points 1..12 all the label 0: the labels have
    # period 2 pi, and the census over one period finds none.  The filter
    # keeps no arc, so only the budget ends the sweep, and the filter's
    # scan must end there too, counted over all points' breakpoints.
    xs = np.arange(1.0, 13.0)
    labels = np.zeros(12, dtype=bool)
    assert not shatter_census(xs, 2.02 * PI).entries[0].found
    scanned = []
    jump = sontag._jump

    def recorded(*args):
        # With no arc kept, ``to`` is the last breakpoint examined.
        scanned.append(jump(*args))
        return scanned[-1]

    monkeypatch.setattr(sontag, "_jump", recorded)
    for budget in (100, 300, 1000):
        scanned.clear()
        res = shatter_search(xs, labels, 1e6, budget=budget)
        assert res == _argsort_sweep(xs, labels[None, :], 1e6, 0.0,
                                     budget)[0]
        assert res.status == "budget_exceeded"
        assert scanned
        assert (sontag._last_indices(xs, max(scanned)) + 1).sum() <= budget


def test_a_subnormal_point_sweeps_without_overflow(monkeypatch):
    # At |x| = 5e-324 each breakpoint (k + 1/2) pi / |x| passes the float
    # range.  A search, a search that jumps and a census holding the point
    # still answer, with pytest making any float warning an error.
    res = shatter_search([5e-324, 2.0], [1, 0], 1e4)
    assert res.found and res.witness_w == 1.5707963267948966
    jumped = []
    jump = sontag._jump

    def counted(axs, target, k_lo, lo, *args):
        to = jump(axs, target, k_lo, lo, *args)
        jumped.append(to > lo)
        return to

    monkeypatch.setattr(sontag, "_jump", counted)
    xs = np.array([5e-324] + rationally_independent_points(12))
    labels = np.arange(13) % 2 == 0
    res = shatter_search(xs, labels, 1e6)
    assert res.found and any(jumped)
    with np.errstate(over="ignore"):  # the oracle overflows, as _sweep does
        assert res == _argsort_sweep(xs, labels[None, :], 1e6, 0.0,
                                     DEFAULT_BUDGET)[0]
    census = shatter_census([5e-324, 1.0, 2.0], 100.0)
    # The subnormal point is labelled 1 at every weight below 1e300.
    assert census.realized == 4
    assert all(e.found == (e.labels[0] == 1) for e in census.entries)


@st.composite
def jump_batches(draw):
    # One-row cases of one n, each of a shape of jump_sweeps, searched with
    # one w_max, w_min and budget; a zero point labelled 0 settles its row
    # before any sweep.
    n = draw(st.integers(6, 16))
    cases = []
    for _ in range(draw(st.integers(1, 5))):
        shape = draw(st.sampled_from(["free", "multiples", "pairs",
                                      "integers", "zero"]))
        x = draw(st.floats(min_value=0.05, max_value=0.4))
        signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n,
                              max_size=n))
        free = draw(st.lists(st.floats(min_value=0.2, max_value=3.0),
                             min_size=n, max_size=n))
        xs = np.array(_jump_points(shape, n, x, signs, free))
        assume(len(np.unique(xs)) == n)
        labels = np.array(draw(st.lists(st.booleans(), min_size=n,
                                        max_size=n)))
        labels[xs == 0.0] |= draw(st.booleans())
        cases.append((xs, labels))
    xs = np.array([case[0] for case in cases])
    labels = np.array([case[1] for case in cases])
    start = draw(st.sampled_from(["0", "32", "1000", "near 2**52"]))
    if start == "near 2**52":
        w_min = (2 ** 52 - 3000) * PI / np.abs(xs).max()
    else:
        w_min = float(start)
    w_max = w_min + draw(st.sampled_from([10.0, 1e3, 1e5]))
    budget = draw(st.one_of(st.integers(0, 40), st.just(DEFAULT_BUDGET)))
    return xs, labels, w_max, w_min, budget


@settings(max_examples=60, deadline=None)
@given(jump_batches())
def test_batched_searches_match_the_argsort_oracle(case):
    # Every row of one sweep over many point sets equals its oracle and
    # its search alone, field for field.
    xs, labels, w_max, w_min, budget = case
    got = shatter_search_many(xs, labels, w_max, w_min=w_min, budget=budget)
    assert got == [_argsort_sweep(row, lab[None], w_max, w_min, budget)[0]
                   for row, lab in zip(xs, labels)]
    assert got == [shatter_search(row, lab, w_max, w_min=w_min,
                                  budget=budget)
                   for row, lab in zip(xs, labels)]


def test_search_many_takes_one_row_per_problem():
    assert shatter_search_many(np.zeros((0, 3)), np.zeros((0, 3)), 10.0) == []
    with pytest.raises(ValueError):
        shatter_search_many([1.0, 2.0], [1, 1], 10.0)
    with pytest.raises(ValueError):
        shatter_search_many([[1.0, 2.0]], [[1, 1, 0]], 10.0)
    with pytest.raises(ValueError):
        shatter_search_many([[1.0, 2.0], [3.0, 3.0]], [[1, 1], [1, 1]], 10.0)


def _at_left_edge(xs, res, w_min):
    # A left edge is w_min or a breakpoint (k + 1/2) pi / |x| as the sweep
    # computes it; a midpoint lies inside its interval.
    axs = np.abs(np.asarray(xs)[np.asarray(xs) != 0.0])
    k = sontag._last_indices(axs, res.witness_w)
    return (res.witness_w == w_min
            or bool(np.any((k + 0.5) * PI / axs == res.witness_w)))


def test_each_labeling_takes_its_first_verified_interval(monkeypatch):
    # A labeling is settled by the first interval of its state that
    # verifies, at its left edge and else at its midpoint, whether it is
    # searched alone, in a batch or in a census: every result equals the
    # oracle's, which verifies one interval at a time.
    rng = np.random.default_rng(1)
    xs = rng.uniform(0.2, 3.0, (12, 10)) * rng.choice([-1.0, 1.0], (12, 10))
    labels = rng.random((12, 10)) < 0.5
    expected = [_argsort_sweep(row, lab[None], 1e5, 32.0, DEFAULT_BUDGET)[0]
                for row, lab in zip(xs, labels)]
    batch = shatter_search_many(xs, labels, 1e5, w_min=32.0)
    assert batch == expected
    assert [shatter_search(row, lab, 1e5, w_min=32.0)
            for row, lab in zip(xs, labels)] == expected
    # Each block verifies its intervals' left edges in one call, then the
    # midpoints of those that fail in another.
    calls = []
    verify = sontag.output_labels

    def recorded(points, w):
        if np.ndim(w) == 2:
            calls.append(w[:, 0])
        return verify(points, w)

    monkeypatch.setattr(sontag, "output_labels", recorded)
    points = rationally_independent_points(5)
    census = shatter_census(points, 1e4)
    labs = ((np.arange(32)[:, None] >> np.arange(5)) & 1).astype(bool)
    assert list(census.entries) == _argsort_sweep(np.array(points), labs,
                                                  1e4, 0.0, DEFAULT_BUDGET)
    # Witnesses settle at left edges and at midpoints alike.
    for found, xs_of, w_min in ((batch, xs, 32.0),
                                (census.entries, [points] * 32, 0.0)):
        sides = {_at_left_edge(row, res, w_min)
                 for row, res in zip(xs_of, found) if res.found}
        assert sides == {True, False}
    # A block holds some labeling's state at two intervals: the label
    # codes after its left edges repeat.
    axs = np.abs(np.array(points))
    codes = [[int(((sontag._last_indices(axs, float(w)) & 1) == 1)
                  @ (1 << np.arange(5))) for w in edges]
             for edges in calls[0::2]]
    assert any(len(set(block)) < len(block) for block in codes)


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
