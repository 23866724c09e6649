"""Acceptance suite: every desk-scale claim, one test per criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and enforces the stated tolerance and runtime budget.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from exact import exact_mass
from paclab.bounds import (FiniteFamily, greedy_packing, hamming_packing,
                           hamming_packing_bound)
from paclab.concepts import (SontagConcept, cantor_shatter_search,
                             l1_distance)
from paclab.construction import (ComplexitySchedule, build_measure,
                                 theoretical_profile)
from paclab.learner import estimate_sample_complexity, gc_deviation
from paclab.measures import AtomicMeasure, UniformMeasure, expect_indicator
from paclab.concepts import AtomLabeling, IntervalUnion, SontagFamily
from paclab.sontag import (output_labels, phi, rationally_independent_points,
                           rho, shatter_census)

TWO_PI = 2.0 * math.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_closed_form_identity():
    start = time.perf_counter()
    xs = np.linspace(-100.0, 100.0, 10 ** 5)
    worst = 0.0
    for w in (0.1, 1.0, 5.0, 100.0):
        t = w * xs
        gap = np.max(np.abs(phi(t, 100.0) + phi(-t, 100.0) - 1.0
                            - rho(xs, w, 100.0)))
        worst = max(worst, float(gap))
    elapsed = time.perf_counter() - start
    report(1, worst <= 1e-12 and elapsed < 1.0,
           f"max gap {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_sign_law():
    rng = np.random.default_rng(20240601)
    xs = rng.uniform(-100.0, 100.0, 10 ** 6)
    ws = rng.uniform(0.0, 1000.0, 10 ** 6)
    mism = int(np.sum(output_labels(xs, 1.0) != (np.cos(xs) >= 0)))
    # network path at weight w versus the direct cosine sign test
    t = ws * xs
    net = 2.0 * np.cos(t) / (100.0 * (1.0 + t * t)) >= 0.0
    mism += int(np.sum(net != (np.cos(ws * xs) >= 0.0)))
    report(2, mism == 0, f"{mism} mismatches on 2e6 checks")


def test_criterion_3_shattering_census():
    start = time.perf_counter()
    c3 = shatter_census(rationally_independent_points(3), 10 ** 4)
    c5 = shatter_census(rationally_independent_points(5), 10 ** 6)
    ok = c3.realized == 8 and c5.realized == 32
    for census, points in ((c3, rationally_independent_points(3)),
                           (c5, rationally_independent_points(5))):
        for entry in census.entries:
            got = output_labels(points, entry.witness_w).tolist()
            ok = ok and got == [bool(b) for b in entry.labels]
    elapsed = time.perf_counter() - start
    report(3, ok and elapsed < 30.0,
           f"{c3.realized}/8 and {c5.realized}/32 verified, {elapsed:.1f}s")


def test_criterion_4_pairwise_half_distance_under_uniform():
    u = UniformMeasure(0.0, TWO_PI)
    weights = [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    concepts = [SontagConcept(w) for w in weights]
    worst = 0.0
    for i in range(6):
        for j in range(i + 1, 6):
            d = l1_distance(concepts[i], concepts[j], u)
            worst = max(worst, abs(d - 0.5))
    packed = greedy_packing(FiniteFamily(concepts, u), 0.4)
    ok = worst <= 1e-9 and packed.size == 6
    report(4, ok, f"max |d-1/2| = {worst:.2e}, packing keeps {packed.size}/6")


def test_criterion_5_gc_signatures():
    start = time.perf_counter()
    u = UniformMeasure(0.0, TWO_PI)
    family = SontagFamily(10 ** 6)
    medians = {}
    for n in (4, 8, 16):
        res = gc_deviation(family, u, n=n, trials=500, seed=501,
                           mode="adversarial")
        medians[n] = res.median
    atoms = AtomicMeasure.uniform_on([float(i) for i in range(10)])
    labelings = [AtomLabeling.for_measure(atoms,
                                          [(i >> j) & 1 for j in range(10)])
                 for i in range(1024)]
    census = gc_deviation(labelings, atoms, n=10 ** 4, trials=20, seed=502,
                          mode="census")
    elapsed = time.perf_counter() - start
    ok = all(m >= 0.4 for m in medians.values()) and census.max <= 0.05 \
        and elapsed < 300.0
    report(5, ok, f"adversarial medians {dict((k, round(v, 3)) for k, v in medians.items())}, "
                  f"census max {census.max:.3f}, {elapsed:.0f}s")


def test_criterion_6_hamming_packing():
    start = time.perf_counter()
    ok = True
    details = []
    for n in (50, 100, 200):
        words = hamming_packing(n, 0.21, seed=6)
        bound = hamming_packing_bound(n, 0.21)
        ok = ok and len(words) >= bound
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                diff = int(np.sum(words[i] != words[j]))
                ok = ok and 50 * diff >= 21 * n  # distance >= 0.42 exactly
        details.append(f"n={n}: {len(words)}>={bound}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(6, ok, ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_7_growth_bracket():
    start = time.perf_counter()
    instance = build_measure(ComplexitySchedule.default())
    profile = theoretical_profile(instance, 0.1)
    estimates = {}
    for row in profile.rows:
        est = estimate_sample_complexity(instance, row.eps, 0.1, trials=400,
                                         seed=777)
        estimates[row.k] = (row, est)
    ok = True
    details = []
    for k, (row, est) in estimates.items():
        floor = math.ceil(0.0128 * row.f_k)
        ok = ok and est.status == "converged"
        ok = ok and floor <= est.n_hat <= row.upper
        details.append(f"eps_{k}: {floor}<={est.n_hat}<={row.upper}")
    ratio = estimates[2][1].n_hat / estimates[1][1].n_hat
    elapsed = time.perf_counter() - start
    ok = ok and ratio >= 5.0 and elapsed < 600.0
    report(7, ok, ", ".join(details) + f", ratio {ratio:.1f}, {elapsed:.0f}s")


def test_criterion_7_growth_bracket_three_levels():
    # Criterion 7 one level deeper, on configs/complexity_k3.json.
    config = json.loads((CONFIGS / "complexity_k3.json").read_text())
    start = time.perf_counter()
    instance = build_measure(ComplexitySchedule.from_json(config["schedule"]))
    profile = theoretical_profile(instance, config["delta"])
    ok = True
    details = []
    hats = []
    for k in config["levels"]:
        row = profile.rows[k - 1]
        est = estimate_sample_complexity(instance, row.eps, config["delta"],
                                         trials=config["trials"], seed=777)
        floor = math.ceil(0.0128 * row.f_k)
        ok = ok and est.status == "converged"
        ok = ok and floor <= est.n_hat <= row.upper
        details.append(f"eps_{k}: {floor}<={est.n_hat}<={row.upper}")
        hats.append(est.n_hat)
    ratios = [b / a for a, b in zip(hats, hats[1:])]
    elapsed = time.perf_counter() - start
    ok = ok and len(hats) == 3 and min(ratios) >= 5.0 and elapsed < 600.0
    report("7 (K=3)", ok, ", ".join(details) + ", ratios "
           + ", ".join(f"{r:.1f}" for r in ratios) + f", {elapsed:.0f}s")


def test_criterion_8_construction_arithmetic():
    # The sizes and masses as ``construct`` writes them to instance.json.
    instance = build_measure(ComplexitySchedule.default())
    doc = instance.to_json()
    masses = [lvl["mass"] for lvl in doc["levels"]]
    sizes = [lvl["size"] for lvl in doc["levels"]]
    residual = doc["residual"]["mass"]
    total = math.fsum(a.mass for a in instance.measure().atoms)
    ok = masses == [0.8, 0.16] and sizes == [25, 600] \
        and residual == 0.04 and abs(total - 1.0) <= 1e-12
    report(8, ok, f"m={masses}, |F|={sizes}, residual {residual}, "
                  f"total {total!r}")


def test_criterion_9_cantor_feasibility_map():
    start = time.perf_counter()
    single = cantor_shatter_search(1, 5, [1])
    ok = single.status == "feasible" and single.witness.cells == (0, 1)
    both_reasons = []
    for order in range(1, 65):
        rep = cantor_shatter_search(1, order, [1, 2])
        ok = ok and rep.status == "infeasible" and rep.reason
        both_reasons.append(rep.reason)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(9, ok, f"(1,{{1}},5) feasible; (1,{{1,2}}) infeasible for N<=64 "
                  f"(e.g. N=64: {both_reasons[-1]}), {elapsed:.1f}s")


def test_criterion_10_oracle_identities():
    rng = np.random.default_rng(1010)
    ok = True
    for _ in range(1000):
        size = int(rng.integers(2, 8))
        raw = rng.uniform(0.1, 1.0, size=size)
        m = AtomicMeasure.from_pairs(
            zip(np.sort(rng.choice(100, size, replace=False)).astype(float),
                raw / raw.sum()))
        h = AtomLabeling.for_measure(m, [int(b) for b in rng.integers(0, 2, size)])
        t = AtomLabeling.for_measure(m, [int(b) for b in rng.integers(0, 2, size)])
        cut = float(rng.uniform(0, 100))
        c = IntervalUnion(((0.0, cut),))
        exact_err = exact_mass(m, lambda x: h.contains(x) != t.contains(x))
        exact_exp = exact_mass(m, c.contains)
        exact_l1 = exact_mass(m, lambda x: c.contains(x) != t.contains(x))
        ok = ok and l1_distance(h, t, m) == exact_err
        ok = ok and expect_indicator(m, c) == exact_exp
        ok = ok and l1_distance(c, t, m) == exact_l1
    from paclab.bounds import greedy_cover
    for trial in range(50):
        size = int(rng.integers(2, 5))
        raw = rng.uniform(0.1, 1.0, size=size)
        m = AtomicMeasure.from_pairs(
            zip(np.arange(size, dtype=float), raw / raw.sum()))
        fam = FiniteFamily([AtomLabeling.for_measure(
            m, [(i >> j) & 1 for j in range(size)]) for i in range(2 ** size)], m)
        eps = float(rng.uniform(0.1, 0.6))
        centers, _ = greedy_cover(fam, eps)
        mat = fam.distance_matrix()
        ok = ok and all(min(mat[i, c] for c in centers) <= eps
                        for i in range(len(fam)))
        packed = greedy_packing(fam, eps)
        for a_i, a in enumerate(packed.selected):
            for b in packed.selected[a_i + 1:]:
                ok = ok and mat[a, b] >= eps
    report(10, ok, "1000 oracle identities exact, 50 families verified")
