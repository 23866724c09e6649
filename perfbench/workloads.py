"""The benchmark's three workloads, one per headline experiment of paclab.

Each workload builds its inputs from the run seed (``setup``), runs one
repetition of its experiment through paclab's public API (``run``), and
checks the outputs (``checks``).  Layers are always called through their
module attribute (``sontag.shatter_census(...)``), so a traced run sees the
same calls the CLI handlers and scripts make.
"""

from __future__ import annotations

import math

import numpy as np

from paclab import bounds, concepts, construction, learner, measures, sontag


def rep_seed(seed, rep):
    """The library seed for repetition ``rep`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


def _ten_atom_labelings(atoms):
    # Labeling i assigns bit (i >> j) & 1 to atom j: all 2**10 of them.
    return [concepts.AtomLabeling.for_measure(
        atoms, [(i >> j) & 1 for j in range(len(atoms))])
        for i in range(2 ** len(atoms))]


def _gc_values(res):
    return {"mode": res.mode, "n": res.n, "deviations": list(res.deviations),
            "failed_trials": res.failed_trials}


class GcContrast:
    """Adversarial deviation under Uniform[0, 2pi] against census deviation
    over finite classes (ROADMAP's Glivenko-Cantelli contrast)."""

    ADVERSARIAL_N = (4, 8, 16)
    ADVERSARIAL_TRIALS = 20
    ATOM_CENSUS_N = (10, 100, 1000, 10000)
    ORDER_CENSUS_N = (100, 1000, 10000)
    CENSUS_TRIALS = 20
    MIN_WEIGHT = 32.0

    def setup(self, seed):
        atoms = measures.AtomicMeasure.uniform_on([float(i) for i in range(10)])
        return {"uniform": measures.UniformMeasure(0.0, 2.0 * math.pi),
                "family": concepts.SontagFamily(1e6),
                "atoms": atoms,
                "labelings": _ten_atom_labelings(atoms),
                "unit": measures.UniformMeasure(0.0, 1.0),
                "order9": list(concepts.enumerate_order_class(9))}

    def run(self, inputs, seed):
        adversarial = [learner.gc_deviation(
            inputs["family"], inputs["uniform"], n,
            trials=self.ADVERSARIAL_TRIALS, seed=seed, mode="adversarial",
            min_weight=self.MIN_WEIGHT) for n in self.ADVERSARIAL_N]
        atom_census = [learner.gc_deviation(
            inputs["labelings"], inputs["atoms"], n, trials=self.CENSUS_TRIALS,
            seed=seed, mode="census") for n in self.ATOM_CENSUS_N]
        order_census = [learner.gc_deviation(
            inputs["order9"], inputs["unit"], n, trials=self.CENSUS_TRIALS,
            seed=seed, mode="census") for n in self.ORDER_CENSUS_N]
        return {"adversarial": adversarial, "atom_census": atom_census,
                "order_census": order_census}

    def values(self, results):
        return {key: [_gc_values(r) for r in rs] for key, rs in results.items()}

    def checks(self, inputs, results):
        out = [(f"adversarial median >= 0.4 at n={r.n}", r.median >= 0.4)
               for r in results["adversarial"]]
        for key in ("atom_census", "order_census"):
            last = results[key][-1]
            out.append((f"{key} max <= 0.05 at n={last.n}", last.max <= 0.05))
        return out

    def operations(self, results):
        searches = len(self.ADVERSARIAL_N) * self.ADVERSARIAL_TRIALS
        failed = sum(r.failed_trials for r in results["adversarial"])
        censuses = len(results["atom_census"]) + len(results["order_census"])
        return searches + censuses, failed


class ComplexityBracket:
    """Measured ERM sample complexity between the packing and covering
    bounds on the K=3 constructed instance, at levels 1 and 2."""

    K = 3
    LEVELS = (1, 2)
    DELTA = 0.1
    TRIALS = 400

    def setup(self, seed):
        return {"schedule": construction.ComplexitySchedule.default(K=self.K)}

    def run(self, inputs, seed):
        instance = construction.build_measure(inputs["schedule"])
        profile = construction.theoretical_profile(instance, self.DELTA)
        rows = [profile.rows[k - 1] for k in self.LEVELS]
        estimates = [learner.estimate_sample_complexity(
            instance, row.eps, self.DELTA, trials=self.TRIALS, seed=seed)
            for row in rows]
        return {"atoms": len(instance.measure()), "rows": rows,
                "estimates": estimates}

    def values(self, results):
        return {"atoms": results["atoms"],
                "rows": [r.to_json() for r in results["rows"]],
                "estimates": [e.to_json() for e in results["estimates"]]}

    def checks(self, inputs, results):
        out = []
        for row, est in zip(results["rows"], results["estimates"]):
            out.append((f"level {row.k} converged", est.status == "converged"))
            out.append((f"level {row.k} lower <= n_hat <= upper",
                        est.n_hat is not None
                        and row.lower <= est.n_hat <= row.upper))
        first, second = (e.n_hat for e in results["estimates"])
        out.append(("n_hat(eps_2) / n_hat(eps_1) > 5",
                    bool(first and second and second / first > 5)))
        return out

    def operations(self, results):
        estimates = results["estimates"]
        return len(estimates), sum(e.status != "converged" for e in estimates)


class ShatterGeometry:
    """Shattering census on log-prime points, greedy packing and covering of
    a labeling family, and exact distances of the doubling weight family."""

    CENSUS_POINTS = 8
    W_MAX = 1e6
    PACK_RADIUS = 0.2
    COVER_EPS = 0.1
    BI_LOWER_EPS = 0.25
    HAMMING_N = 200
    HAMMING_EPS = 0.21
    WEIGHTS = tuple(2.0 * 2 ** i for i in range(6))
    CANTOR_LEVELS = (1, 2)
    CANTOR_ORDERS = (3, 5, 9, 16, 25, 36, 49, 64)

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        locations = np.sort(rng.uniform(0.0, 1.0, size=10))
        atoms = measures.AtomicMeasure.uniform_on(locations.tolist())
        return {"atoms": atoms, "labelings": _ten_atom_labelings(atoms),
                "uniform": measures.UniformMeasure(0.0, 2.0 * math.pi),
                "cantor": measures.CantorMeasure()}

    def _distances(self, measure):
        family = [concepts.SontagConcept(w) for w in self.WEIGHTS]
        return [[concepts.l1_distance(a, b, measure) for b in family]
                for a in family]

    def _cantor_map(self):
        out = []
        for level in self.CANTOR_LEVELS:
            for order in self.CANTOR_ORDERS:
                for mask in range(2 ** 2 ** level):
                    chosen = [j + 1 for j in range(2 ** level) if mask >> j & 1]
                    rep = concepts.cantor_shatter_search(level, order, chosen)
                    out.append(rep.status)
        return out

    def run(self, inputs, seed):
        points = sontag.rationally_independent_points(self.CENSUS_POINTS)
        census = sontag.shatter_census(points, self.W_MAX, threads=1)
        family = bounds.FiniteFamily(inputs["labelings"], inputs["atoms"])
        packing = bounds.greedy_packing(family, self.PACK_RADIUS)
        centers, _ = bounds.greedy_cover(family, self.COVER_EPS)
        lower = bounds.bi_lower(self.BI_LOWER_EPS, family)
        codewords = bounds.hamming_packing(self.HAMMING_N, self.HAMMING_EPS,
                                           seed=seed)
        return {"census": census, "packing": packing, "centers": centers,
                "bi_lower": lower, "codewords": codewords,
                "uniform": self._distances(inputs["uniform"]),
                "cantor": self._distances(inputs["cantor"]),
                "cantor_map": self._cantor_map()}

    def values(self, results):
        return {"census": [e.to_json() for e in results["census"].entries],
                "packing": list(results["packing"].selected),
                "centers": list(results["centers"]),
                "bi_lower": results["bi_lower"],
                "codewords": results["codewords"].tolist(),
                "uniform": results["uniform"], "cantor": results["cantor"],
                "cantor_map": results["cantor_map"]}

    def checks(self, inputs, results):
        census = results["census"]
        witnesses_ok = all(
            e.found and all(
                sontag.net_output(x, sontag.SontagParams(e.witness_w)) == bit
                for x, bit in zip(census.points, e.labels))
            for e in census.entries)
        # Pairwise separation from the labelings' own memberships, not
        # from the family's distance matrix.
        atoms = inputs["atoms"]
        selected = results["packing"].selected
        member = np.array([[bool(inputs["labelings"][i].contains(a.location))
                            for a in atoms.atoms] for i in selected])
        dists = (member[:, None, :] != member[None, :, :]) @ atoms.masses
        upper = np.triu_indices(len(selected), k=1)
        words = results["codewords"]
        word_dists = np.mean(words[:, None, :] != words[None, :, :], axis=2)
        word_upper = np.triu_indices(len(words), k=1)
        uniform = np.array(results["uniform"])
        off_diag = ~np.eye(len(uniform), dtype=bool)
        return [
            ("census realizes every labeling", census.realized == census.total
             == 2 ** self.CENSUS_POINTS),
            ("every census witness re-verified by net_output", witnesses_ok),
            (f"packed concepts pairwise >= {self.PACK_RADIUS}",
             bool(np.all(dists[upper] >= self.PACK_RADIUS))),
            ("hamming codewords >= hamming_packing_bound",
             len(words) >= bounds.hamming_packing_bound(self.HAMMING_N,
                                                        self.HAMMING_EPS)),
            (f"hamming codewords pairwise >= {2 * self.HAMMING_EPS}",
             bool(np.all(word_dists[word_upper] >= 2 * self.HAMMING_EPS))),
            ("uniform distances within 1e-9 of 1/2",
             bool(np.all(np.abs(uniform[off_diag] - 0.5) <= 1e-9))),
        ]

    def operations(self, results):
        census = results["census"]
        return census.total, census.total - census.realized


WORKLOADS = {"gc_contrast": GcContrast(),
             "complexity_bracket": ComplexityBracket(),
             "shatter_geometry": ShatterGeometry()}
