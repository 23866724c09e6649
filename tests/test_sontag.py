import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from arcsets import ArcSet, feasible_weights
from paclab import sontag
from paclab.sontag import (DEFAULT_BUDGET, SontagParams, cos_sign_intervals,
                           first_primes, net_output, output_labels, phi,
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
    # 1 and -1 always share a label, so this sweep runs into its budget.
    # It stops at the budget-th distinct breakpoint, 1 and -1 sharing theirs.
    points = [1.0, math.sqrt(2), -1.0]
    swept = sorted({(k + 0.5) * PI / abs(x) for x in points
                    for k in range(200)})
    for budget in (0, 1, 100, 101):
        res = shatter_search(points, [1, 0, 0], 1e9, budget=budget)
        assert res.status == "budget_exceeded"
        assert res.breakpoints == budget
        assert res.range_searched == (0.0, ([0.0] + swept)[budget])


def test_witnesses_do_not_depend_on_the_blocks(monkeypatch):
    # The open interval and the mismatch counts carry across a block
    # boundary, and the rows of a block share one cumsum in chunks, so
    # neither the first block's size, the largest block's nor the chunk's
    # may show in any field.
    rng = np.random.default_rng(7)
    searches = [(rng.uniform(0.0, 2 * PI, size=n), [1] * n, 1e6, 32.0,
                 DEFAULT_BUDGET) for n in (4, 8, 8, 12)]
    searches += [([1.0, math.sqrt(2), -1.0], [1, 0, 0], 1e9, 0.0, 1000),
                 ([1.0, math.sqrt(2)], [0, 0], 1e4, 3.0, DEFAULT_BUDGET)]
    runs = []
    # One cell forces one row per chunk; 2**8 cells several chunks of the
    # census's 15 open rows in every block of 64 or more events.
    for first_block, largest_block, cells in [
            (1, 1, 2 ** 20), (1, 64, 1), (64, 64, 2 ** 8),
            (64, 2 ** 14, 2 ** 20), (64, 2 ** 14, 1), (65_536, 1, 2 ** 8),
            (65_536, 2 ** 14, 2 ** 8), (65_536, 2 ** 14, 2 ** 20)]:
        monkeypatch.setattr(sontag, "_FIRST_BLOCK", first_block)
        monkeypatch.setattr(sontag, "_LARGEST_BLOCK", largest_block)
        monkeypatch.setattr(sontag, "_BLOCK_CELLS", cells)
        runs.append(([shatter_search(xs, labels, w_max, w_min=w_min,
                                     budget=budget)
                      for xs, labels, w_max, w_min, budget in searches],
                     shatter_census(rationally_independent_points(4), 1e4)))
    assert all(run == runs[0] for run in runs[1:])


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
    # stops at the last breakpoint it can index, as at a budget.
    w_min = (2 ** 52 - 100) * PI
    res = shatter_search([1.0, -1.0], [1, 0], 1e22, w_min=w_min)
    assert res.status == "budget_exceeded"
    assert 0 < res.breakpoints < 100
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
    # times, kept as the oracle of the packed-key sort.
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

    def search(r, edges, counts):
        for j in np.flatnonzero(counts[:len(edges) - 1] == 0):
            left, right = float(edges[j]), float(edges[j + 1])
            for w in (left, 0.5 * (left + right)) if right > left else (left,):
                if np.all(output_labels(xs, w) == labs[r]):
                    outcome[r] = ("found", w, w, used + int(j))
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
        exhausted = used + len(ends) > budget
        ends = ends[:budget - used] if exhausted else ends
        exhausted = exhausted or w_stop < w_max and hi == w_stop
        edges = np.append(left, times[ends])
        last = exhausted or hi >= w_max
        if last:
            edges = np.append(edges, edges[-1] if exhausted else w_max)
        chunk = max(1, sontag._BLOCK_CELLS // max(len(code), 1))
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
                        if search(live[start + i], edges, counts[i])]
            mismatch[part] = counts[:, -1:]
        used += len(ends)
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
    assert sontag._sweep(xs, labs, w_max, w_min, budget) == expected
    assert shatter_search(xs, labs[0], w_max, w_min=w_min,
                          budget=budget) == expected[0]


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
