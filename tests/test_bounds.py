import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paclab import bounds
from paclab.bounds import (FiniteFamily, PackingShortfallError, bi_lower,
                           bi_upper_from_log2, greedy_cover, greedy_packing,
                           hamming_packing, hamming_packing_bound)
from paclab.concepts import (AtomLabeling, EnumerationCapError, GridUnion,
                             IntervalUnion, SontagConcept, l1_distance)
from paclab.measures import AtomicMeasure, CantorMeasure, UniformMeasure


# Exact packing and cover numbers of small families: the oracles the
# greedy constructions and the sandwich M(2eps) <= N(eps) <= M(eps) are
# checked against.
EXACT_PACKING_LIMIT = 24
EXACT_COVER_LIMIT = 16


def exact_packing_number(family, radius):
    """The exact maximum size of a radius-separated subset (<= 24 members),
    by branch and bound on the conflict graph."""
    n = len(family)
    if n > EXACT_PACKING_LIMIT:
        raise ValueError(f"exact packing limited to {EXACT_PACKING_LIMIT} members")
    mat = family.distance_matrix()
    conflict = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and mat[i, j] < radius:
                conflict[i] |= 1 << j
    best = 0

    def rec(cand, size):
        nonlocal best
        if size + bin(cand).count("1") <= best:
            return
        if cand == 0:
            best = max(best, size)
            return
        v = (cand & -cand).bit_length() - 1
        rec(cand & ~(1 << v) & ~conflict[v], size + 1)
        rec(cand & ~(1 << v), size)

    rec((1 << n) - 1, 0)
    return best


def exact_cover_number(family, eps):
    """The exact minimum size of an eps-cover with centers drawn from the
    family itself (<= 16 members), by exhaustive subset search."""
    n = len(family)
    if n > EXACT_COVER_LIMIT:
        raise ValueError(f"exact cover limited to {EXACT_COVER_LIMIT} members")
    mat = family.distance_matrix()
    covered_by = [frozenset(j for j in range(n) if mat[i, j] <= eps)
                  for i in range(n)]
    everything = frozenset(range(n))
    for k in range(1, n + 1):
        for centers in combinations(range(n), k):
            hit = frozenset().union(*(covered_by[c] for c in centers))
            if hit == everything:
                return k
    raise AssertionError("the family always covers itself")


def labeling_family(masses, indices=None):
    m = AtomicMeasure.from_pairs((float(i), mass)
                                 for i, mass in enumerate(masses))
    size = len(masses)
    indices = range(2 ** size) if indices is None else indices
    concepts = [AtomLabeling.for_measure(m, [(i >> j) & 1 for j in range(size)])
                for i in indices]
    return FiniteFamily(concepts, m)


# ---------------------------------------------------------------------------
# greedy cover


def test_cover_of_single_concept():
    fam = labeling_family([1.0], indices=[0])
    centers, k = greedy_cover(fam, 0.5)
    assert k == 1


def test_cover_threshold_straddling():
    m = AtomicMeasure.from_pairs([(0.0, 0.8), (1.0, 0.2)])
    a = AtomLabeling.for_measure(m, (0, 0))
    b = AtomLabeling.for_measure(m, (1, 0))  # distance 0.8
    fam = FiniteFamily([a, b], m)
    assert greedy_cover(fam, 0.9)[1] == 1
    assert greedy_cover(fam, 0.5)[1] == 2


def test_cover_on_eight_labelings_vs_exhaustive_optimum():
    fam = labeling_family([0.5, 0.3, 0.2])
    centers, k = greedy_cover(fam, 0.25)
    k_opt = exact_cover_number(fam, 0.25)
    assert k_opt == 4
    assert k_opt <= k <= 2 * k_opt
    # coverage verified against the distance matrix
    mat = fam.distance_matrix()
    assert all(min(mat[i, c] for c in centers) <= 0.25 for i in range(len(fam)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.05, max_value=0.9))
def test_cover_is_always_verified(seed, eps):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 5))
    raw = rng.uniform(0.1, 1.0, size=size)
    fam = labeling_family(list(raw / raw.sum()))
    centers, k = greedy_cover(fam, eps)
    mat = fam.distance_matrix()
    for i in range(len(fam)):
        assert min(mat[i, c] for c in centers) <= eps


# ---------------------------------------------------------------------------
# packings


def test_packing_single_concept():
    fam = labeling_family([1.0], indices=[0])
    assert greedy_packing(fam, 0.3).size == 1


def test_packing_on_equal_mass_atoms():
    fam = labeling_family([0.25] * 4)
    result = greedy_packing(fam, 0.5)
    assert result.size >= 2
    mat = fam.distance_matrix()
    for i, a in enumerate(result.selected):
        for b in result.selected[i + 1:]:
            assert mat[a, b] >= 0.5
    assert not result.certified


def test_packing_result_rejects_bad_separation():
    from paclab.bounds import PackingResult
    with pytest.raises(ValueError):
        PackingResult((0, 1), 0.5, False, (0.3,))
    # A NaN distance fails the check instead of passing it.
    with pytest.raises(ValueError):
        PackingResult((0, 1), 0.5, False, (math.nan,))
    # The greedy hands over an ndarray: the least distance per block.
    with pytest.raises(ValueError):
        PackingResult((0, 1, 2), 0.5, False, np.array([0.6, 0.7, 0.4]))
    assert PackingResult((0, 1, 2), 0.5, False,
                         np.array([0.6, 0.5, 0.7])).size == 3


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.floats(min_value=0.1, max_value=0.6))
def test_sandwich_on_exhaustive_small_families(seed, eps):
    rng = np.random.default_rng(seed)
    size = int(rng.integers(2, 5))
    raw = rng.uniform(0.1, 1.0, size=size)
    indices = sorted(rng.choice(2 ** size,
                                size=min(2 ** size, 16), replace=False))
    fam = labeling_family(list(raw / raw.sum()), indices=[int(i) for i in indices])
    m2 = exact_packing_number(fam, 2 * eps)
    n1 = exact_cover_number(fam, eps)
    m1 = exact_packing_number(fam, eps)
    assert m2 <= n1 <= m1
    # greedy packing is a valid lower bound on the exact packing number
    assert greedy_packing(fam, eps).size <= m1


def test_exact_packing_on_known_family():
    fam = labeling_family([0.25] * 4)
    # distance 1.0 pairs are exactly complementary labelings: 8 such pairs
    assert exact_packing_number(fam, 1.0) == 2
    assert exact_packing_number(fam, 0.25) == 16


# ---------------------------------------------------------------------------
# sample-count formulas


def test_bi_upper_examples():
    assert bi_upper_from_log2(0.2, 0.1, 0.0) == 532  # k == 1
    assert bi_upper_from_log2(0.5, 1.0, 0.0) == 0  # k/delta == 1
    base = bi_upper_from_log2(0.2, 0.1, 3.0)  # k == 8
    doubled = bi_upper_from_log2(0.2, 0.1, 4.0)
    assert abs((doubled - base) - 32 / 0.2) <= 1.0
    with pytest.raises(ValueError):
        bi_upper_from_log2(1.5, 0.1, 2.0)


def test_bi_upper_log2_route_matches_direct():
    for k in (1, 2, 1024):
        assert (bi_upper_from_log2(0.1, 0.05, math.log2(k))
                == math.ceil((32 / 0.1) * math.log2(k / 0.05)))


def test_bi_lower_examples():
    fam = labeling_family([1.0], indices=[0])
    assert bi_lower(0.3, fam) == 0
    fam10 = labeling_family([0.1] * 10)
    size = greedy_packing(fam10, 0.2).size
    assert size >= hamming_packing_bound(10, 0.1)
    assert bi_lower(0.1, fam10) == math.ceil(math.log2(size))


def test_bi_lower_monotone_in_eps():
    fam = labeling_family([0.1] * 10)
    values = [bi_lower(eps, fam) for eps in (0.05, 0.1, 0.2, 0.4)]
    assert values == sorted(values, reverse=True)


def test_non_atomic_family_measures_each_pair_once(monkeypatch):
    calls = []

    def counted(c1, c2, measure):
        calls.append((c1, c2))
        return l1_distance(c1, c2, measure)

    monkeypatch.setattr(bounds, "l1_distance", counted)
    members = [SontagConcept(w) for w in (1.0, 2.0, 3.5, 7.0, 11.0)]
    members.append(IntervalUnion(((0.5, 2.5),)))
    n = len(members)
    for measure in (UniformMeasure(0.0, 2 * math.pi), CantorMeasure()):
        calls.clear()
        family = FiniteFamily(members, measure)
        matrix = family.distance_matrix()
        greedy_packing(family, 0.1)
        greedy_cover(family, 0.1)
        assert len(calls) == n * (n - 1) // 2
        assert np.array_equal(matrix, matrix.T)
        assert not np.diagonal(matrix).any()
        for i, j in combinations(range(n), 2):
            assert matrix[i, j] == l1_distance(members[i], members[j],
                                               measure)


def test_sign_test_against_an_interval_builds_no_arc():
    # Past MAX_SIGN_ARCS periods the sign test's own arcs are refused, but
    # against an interval union it is measured in closed form.
    circle = UniformMeasure(0.0, 2 * math.pi)
    sign, interval = SontagConcept(1e7), IntervalUnion(((0.5, 2.5),))
    with pytest.raises(EnumerationCapError):
        l1_distance(sign, SontagConcept(2.0), circle)
    got = l1_distance(sign, interval, circle)
    assert got == l1_distance(interval, sign, circle)
    assert abs(got - 0.5) < 1e-6


# ---------------------------------------------------------------------------
# cube packing


def test_hamming_bound_values():
    assert hamming_packing_bound(1, 0.25) == 1
    assert hamming_packing_bound(1, 0.1) == 2
    assert hamming_packing_bound(200, 0.21) == 13
    # 1,008,526 codewords of length 30 would take about 3e13 comparisons.
    with pytest.raises(EnumerationCapError):
        hamming_packing_bound(30, 0.01)
    with pytest.raises(EnumerationCapError):
        hamming_packing(30, 0.01)


def test_hamming_packing_degenerate_eps():
    words = hamming_packing(8, 0.25)
    assert len(words) == 1
    assert not words[0].any()


def test_hamming_packing_dimension_one():
    words = hamming_packing(1, 0.1)
    assert len(words) == 2
    assert np.mean(words[0] != words[1]) >= 0.2


@pytest.mark.parametrize("n", [50, 100, 200])
def test_hamming_packing_meets_bound_and_distance(n):
    eps = 0.21
    words = hamming_packing(n, eps, seed=7)
    bound = hamming_packing_bound(n, eps)
    assert len(words) >= bound
    # bit-exact rational check: distance >= 0.42 means 50 * diff >= 21 * n
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            diff = int(np.sum(words[i] != words[j]))
            assert 50 * diff >= 21 * n


def test_hamming_packing_deterministic_per_seed():
    a = hamming_packing(60, 0.2, seed=11)
    b = hamming_packing(60, 0.2, seed=11)
    assert np.array_equal(a, b)


def test_hamming_packing_shortfall_is_hard_error(monkeypatch):
    # eps just above the geometric limit for two codewords in one dimension
    # cannot happen within the precondition, so force failure with zero
    # restarts.
    monkeypatch.setattr(bounds, "HAMMING_RESTARTS", 0)
    with pytest.raises(PackingShortfallError) as info:
        hamming_packing(4, 0.2)
    assert info.value.best_found == 0


# ---------------------------------------------------------------------------
# family geometry beyond atomic measures


def test_family_under_uniform_measure():
    u = UniformMeasure(0.0, 2.0 * math.pi)
    weights = [2.0, 4.0, 8.0]
    fam = FiniteFamily([SontagConcept(w) for w in weights], u)
    mat = fam.distance_matrix()
    assert mat[0, 0] == 0.0
    assert abs(mat[0, 1] - 0.5) <= 1e-9
    packed = greedy_packing(fam, 0.4)
    assert packed.size == 3


def exact_distances(family):
    """The members as codes, bit a for atom a, and the exact distance of
    each disagreement code a ^ b as a Fraction: the masses, read as the
    decimals they print as and normalized to sum 1, of the atoms set."""
    masses = [Fraction(str(m)) for m in family.measure.masses.tolist()]
    masses = [m / sum(masses) for m in masses]
    codes = [sum(1 << a for a, hit in enumerate(row) if hit) for row in
             family.measure.membership_matrix(family.concepts).tolist()]
    distinct = set(codes)
    return codes, {x: sum((m for a, m in enumerate(masses) if x >> a & 1),
                          Fraction(0))
                   for x in {a ^ b for a in distinct for b in distinct}}


def exact_float_matrix(codes, table):
    floats = {x: float(d) for x, d in table.items()}
    return [[floats[a ^ b] for b in codes] for a in codes]


def index_order_packing(count, apart):
    """The plain index-order greedy: member i joins when ``apart(i, j)``
    holds for every member j already in."""
    loop = []
    for i in range(count):
        if all(apart(i, j) for j in loop):
            loop.append(i)
    return tuple(loop)


def test_distance_rows_match_the_pairwise_tensor_and_old_greedy_loop():
    # Atomic: each float entry is the exact distance, rounded once.
    rng = np.random.default_rng(31)
    for size in (1, 3, 7):
        raw = rng.uniform(0.1, 1.0, size=size)
        fam = labeling_family(list(raw / raw.sum()),
                              indices=rng.permutation(2 ** size)[:12].tolist())
        assert (fam.distance_matrix().tolist()
                == exact_float_matrix(*exact_distances(fam)))
    # Non-atomic: the blocked greedy selects what the index-order loop
    # over the distance matrix selects.
    u = UniformMeasure(0.0, 2.0 * math.pi)
    fam = FiniteFamily([SontagConcept(w) for w in
                        (0.0, 0.5, 1.0, 2.0, 2.5, 4.0, 8.0, 9.0)], u)
    mat = fam.distance_matrix()
    for radius in (0.05, 0.2, 0.3, 0.45, 0.5, 0.9):
        assert greedy_packing(fam, radius).selected == index_order_packing(
            len(fam), lambda i, j: mat[i, j] >= radius)


def test_packing_keeps_a_pair_exactly_at_the_radius():
    # {0.1, 0.7} is exactly 4/5, where the float sum reads
    # 0.7999999999999999.
    fam = labeling_family([0.1, 0.2, 0.7], indices=[0, 0b101])
    assert float(np.array([0.1, 0.7]).sum()) < 0.8
    result = greedy_packing(fam, 0.8)
    assert result.selected == (0, 1)
    assert fam.distance_matrix()[0, 1] == 0.8
    assert greedy_packing(fam, 0.8000000000000002).selected == (0,)


def test_cover_counts_a_member_exactly_at_eps_as_covered():
    # {0.1, 0.2} is exactly 3/10, where the float sum reads
    # 0.30000000000000004.
    fam = labeling_family([0.1, 0.2, 0.7], indices=[0, 0b011])
    assert 0.1 + 0.2 > 0.3
    assert greedy_cover(fam, 0.3) == ((0,), 1)
    assert greedy_cover(fam, 0.29999999999999993) == ((0, 1), 2)


BLOCK = bounds._LARGEST_BLOCK
TIE_MEASURES = {
    # U = 20, float units; radii 0.3 and 0.35 are distances, 0.325 is not.
    "float64": [0.05, 0.1, 0.15, 0.2, 0.25, 0.05, 0.1, 0.1],
    # 17-digit decimals over one common denominator below 2**62.
    "int64": [0.12345678901234568, 0.2, 0.3, 0.37654321098765432],
    # Units past int64: 1.25e20 in total, 67 bits.
    "object": [1.2345678901234567e-5, 7.654321098765432e-06, 0.25, 0.74998],
}


@pytest.mark.parametrize("dtype", sorted(TIE_MEASURES))
@pytest.mark.parametrize("count", [1, bounds._FIRST_BLOCK + 1, BLOCK - 1,
                                   BLOCK, BLOCK + 1, 2 * BLOCK + 3])
def test_blocked_packing_is_the_index_order_greedy(dtype, count):
    masses = TIE_MEASURES[dtype]
    rng = np.random.default_rng(count)
    fam = labeling_family(masses, indices=rng.integers(
        0, 2 ** len(masses), size=count).tolist())
    assert fam._rows.dtype == np.dtype(dtype)
    codes, table = exact_distances(fam)
    on_ties = sorted(d for d in table.values() if d)[:3]
    for radius in [float(r) for r in on_ties] + [0.3, 0.325, 0.35, 0.5]:
        apart = {x: d >= Fraction(str(radius)) for x, d in table.items()}
        assert greedy_packing(fam, radius).selected == index_order_packing(
            count, lambda i, j: apart[codes[i] ^ codes[j]])
    assert fam.distance_matrix().tolist() == exact_float_matrix(codes, table)


MIXED_FAMILY = [SontagConcept(3.0), SontagConcept(7.5),
                IntervalUnion(((0.1, 0.4),)),
                IntervalUnion(((0.0, 0.25), (0.5, 0.9))),
                GridUnion(4, (1,)), GridUnion(9, (0, 4, 8)),
                GridUnion(27, (2, 20)),
                IntervalUnion(((Fraction(1, 3), Fraction(2, 3)),)),
                IntervalUnion(((Fraction(1, 9), Fraction(2, 9)),
                               (Fraction(7, 9), Fraction(8, 9))))]
# (greedy packing, greedy cover) selections per radius, as the pairwise
# i < j matrix gave them.
MIXED_SELECTIONS = {
    "unit": {0.05: ((0, 1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 6, 7, 5, 8, 3, 4, 2)),
             0.2: ((0, 1, 2, 3, 4, 5, 6, 7, 8), (0, 1, 6, 7, 5, 8, 3, 4, 2)),
             0.4: ((0, 1, 5, 7), (0, 1, 6, 7))},
    "circle": {0.05: ((0, 1, 2, 3, 5, 6, 7), (0, 3, 1, 4, 5, 8)),
               0.2: ((0, 1, 2), (0, 3, 1)),
               0.4: ((0, 1, 2), (0, 3, 1))},
    "cantor": {0.05: ((0, 1, 2, 3, 4, 5, 6, 7), (0, 1, 6, 4, 3, 5, 7, 2)),
               0.2: ((0, 1, 2, 3, 5, 6, 7), (0, 1, 6, 4, 3, 5)),
               0.4: ((0, 1, 6), (0, 1, 6))},
}


@pytest.mark.parametrize("name, measure", [
    ("unit", UniformMeasure(0.0, 1.0)),
    ("circle", UniformMeasure(0.0, 2.0 * math.pi)),
    ("cantor", CantorMeasure())])
def test_non_atomic_rows_are_exact_distances_to_each_member(name, measure):
    fam = FiniteFamily(MIXED_FAMILY, measure)
    mat = fam.distance_matrix()
    assert not np.any(np.diag(mat))
    assert np.array_equal(mat, mat.T)
    for j, c in enumerate(MIXED_FAMILY):
        assert np.array_equal(mat[j], [l1_distance(c, d, measure)
                                       for d in MIXED_FAMILY])
    for radius, (packed, centers) in MIXED_SELECTIONS[name].items():
        assert greedy_packing(fam, radius).selected == packed
        assert greedy_cover(fam, radius)[0] == centers
