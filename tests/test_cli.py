import ast
import csv
import hashlib
import importlib
import json
import math
import re
import signal
import sys
from pathlib import Path

import pytest

from paclab import bounds, concepts, construction, learner, measures, sontag
from paclab.cli import main


def run(tmp_path, subcommand, config, extra=()):
    cfg = tmp_path / f"{subcommand}.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    code = main([subcommand, "--config", str(cfg), "--out", str(out), *extra])
    return code, out


DEFAULT_SCHEDULE = {"eps": ["1/5", "1/25", "1/125"],
                    "f": {"kind": "poly", "degree": 2}, "K": 2}


def test_construct_writes_instance_profile_and_manifest(tmp_path):
    code, out = run(tmp_path, "construct",
                    {"schedule": DEFAULT_SCHEDULE, "delta": 0.1})
    assert code == 0
    instance = json.loads((out / "instance.json").read_text())
    assert [lvl["mass"] for lvl in instance["levels"]] == [0.8, 0.16]
    assert [lvl["size"] for lvl in instance["levels"]] == [25, 600]
    assert instance["residual"]["mass"] == 0.04
    manifest = json.loads((out / "construct_manifest.json").read_text())
    assert manifest["outputs"] == ["instance.json", "profile.json"]
    assert manifest["stop"] is None
    assert len(manifest["config_sha256"]) == 64
    assert "threads" not in manifest


def test_construct_leaves_the_int_digit_limit_alone(tmp_path, monkeypatch):
    # f_3 = 15,625 on the K=3 schedule: the profile writes f_k, not the
    # 4,704 digits of 2**15625, so no run lifts Python's int-digit limit.
    def refuse(limit):
        raise AssertionError("the int-digit limit was changed")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    root = Path(__file__).resolve().parent.parent
    config = json.loads((root / "configs" / "complexity_k3.json").read_text())
    code, out = run(tmp_path, "construct", {"schedule": config["schedule"],
                                            "delta": config["delta"]})
    assert code == 0
    profile = json.loads((out / "profile.json").read_text())
    assert [row["f_k"] for row in profile["rows"]] == [25, 625, 15625]


def test_unknown_config_keys_exit_2(tmp_path):
    # Measure, rate and schedule documents reject unknown and missing keys
    # alike, and a measure of an unknown kind.
    uniform = {"kind": "uniform", "a": 0.0, "b": 1.0}

    def distances(measure):
        return {"weights": [2, 4], "measure": measure}

    def construct(**schedule):
        return {"schedule": {**DEFAULT_SCHEDULE, **schedule}}

    no_k = {k: v for k, v in DEFAULT_SCHEDULE.items() if k != "K"}
    cases = [
        ("construct", {"schedule": DEFAULT_SCHEDULE, "typo": 1}),
        ("distances", distances({"kind": "cantor", "dpeth": 3})),
        ("distances", distances({"kind": "uniform", "a": 0.0})),
        ("distances", distances({"kind": "product", "base": uniform,
                                 "uniform": uniform})),
        ("distances", distances({"kind": "pushforward", "base": uniform,
                                 "map": {"kind": "identity"}})),
        ("construct", construct(f={"kind": "poly", "degree": 2,
                                   "scael": 3})),
        ("construct", construct(f={"kind": "poly"})),
        ("construct", construct(f={"kind": "exp", "bse": 3})),
        ("construct", construct(bogus=1)),
        ("construct", {"schedule": no_k}),
    ]
    for subcommand, config in cases:
        code, out = run(tmp_path, subcommand, config)
        assert code == 2, (subcommand, config)
        assert list(out.iterdir()) == []


def test_leftover_alpha_and_family_key_typos_exit_2(tmp_path):
    # The sign-test path takes no activation constant, and each gc family
    # kind checks its own keys: a typo must not fall back to a default.
    uniform = {"kind": "uniform", "a": 0.0, "b": 1.0}

    def gc(mode, family):
        return {"mode": mode, "family": family, "measure": uniform,
                "n_list": [4], "trials": 1}

    member = {"kind": "intervals", "intervals": [[0.0, 0.5]]}
    cases = [
        ("shatter", {"points": [1.0, 2.0], "labels": [1, 0], "alpha": 100.0}),
        ("shatter", {"log_primes": 3, "census": True, "alpha": 100.0}),
        ("distances", {"weights": [2, 4], "alpha": 100.0, "measure": uniform}),
        ("gc", gc("adversarial", {"kind": "sontag", "w_max": 1e3,
                                  "alpha": 100.0})),
        ("gc", gc("adversarial", {"kind": "sontag", "w_mx": 1e3})),
        ("gc", gc("adversarial", {"kind": "order_intervals", "n": 4})),
        ("gc", gc("census", {"kind": "order_class"})),
        ("gc", gc("census", {"kind": "order_class", "n": 4, "m": 4})),
        ("gc", gc("census", {"kind": "concepts", "members": [member],
                             "extra": 1})),
    ]
    for subcommand, config in cases:
        code, out = run(tmp_path, subcommand, config)
        assert code == 2, (subcommand, config)
        assert list(out.iterdir()) == []


PACKING_ATOMS = {"kind": "atomic", "atoms": [[0.1, 0.5], [0.9, 0.5]]}


def packing(member):
    return {"family": {"measure": PACKING_ATOMS, "radius": 0.3,
                       "members": [{"kind": "sontag", "w": 3.0}, member]}}


def test_unknown_concept_keys_exit_2(tmp_path):
    # The middle thirds are a refused kind.
    for member in ({"kind": "sontag", "w": 30.0, "wq": 1},
                   {"kind": "sontag", "w": 30.0, "alpha": 100.0},
                   {"kind": "middle_thirds", "pieces": [[1, 0]]}):
        code, out = run(tmp_path, "packing", packing(member))
        assert code == 2, member
        assert list(out.iterdir()) == []


def test_missing_concept_key_exits_2(tmp_path):
    code, out = run(tmp_path, "packing",
                    packing({"kind": "intervals", "intervls": [[0.0, 0.5]]}))
    assert code == 2
    assert list(out.iterdir()) == []


def test_gc_family_that_is_not_an_object_exits_2(tmp_path):
    code, out = run(tmp_path, "gc",
                    {"mode": "adversarial", "family": "sontag",
                     "measure": {"kind": "uniform", "a": 0.0, "b": 1.0},
                     "n_list": [4], "trials": 1})
    assert code == 2
    assert list(out.iterdir()) == []


def test_missing_config_file_exits_2(tmp_path):
    code = main(["construct", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_shatter_single_search(tmp_path):
    code, out = run(tmp_path, "shatter",
                    {"points": [1.0, 2.0], "labels": [1, 0], "w_max": 100.0})
    assert code == 0
    doc = json.loads((out / "shatter.json").read_text())
    assert doc["status"] == "found"
    assert math.pi / 4 < doc["witness_w"] <= math.pi / 2
    assert doc["range_searched"][0] == 0.0


def test_shatter_census_counts(tmp_path):
    code, out = run(tmp_path, "shatter",
                    {"log_primes": 3, "census": True, "w_max": 10000.0})
    assert code == 0
    doc = json.loads((out / "census.json").read_text())
    assert (doc["realized"], doc["total"]) == (8, 8)


def test_bad_log_primes_exit_2_before_generating_primes(tmp_path,
                                                        monkeypatch):
    import paclab.cli as cli

    def no_primes(n):
        raise AssertionError("primes generated before log_primes was checked")

    monkeypatch.setattr(cli.sontag, "rationally_independent_points", no_primes)
    bad = [{"log_primes": 10 ** 12, "labels": [1, 0]},
           {"log_primes": 10 ** 12},
           {"log_primes": 3, "labels": [1, 0]},
           {"log_primes": 0, "census": True},
           {"log_primes": 2.5, "labels": [1, 0]},
           {"log_primes": True, "labels": [1]},
           {"points": [1, math.sqrt(2.0)], "labels": [1, 0],
            "w_max": "1e4", "budget": 2.7},
           {"points": [1, math.sqrt(2.0)], "labels": [1, 0], "budget": 2.7},
           {"points": [1, math.sqrt(2.0)], "labels": [1, 0], "budget": -1},
           {"points": ["1", 2.0], "labels": [1, 0]},
           {"points": [1.0, float("nan")], "labels": [1, 0]},
           {"points": [1.0, 2.0], "labels": [1, 0], "w_max": True}]
    for config in bad:
        code, out = run(tmp_path, "shatter", config)
        assert code == 2
        assert not (out / "shatter_manifest.json").exists()


def test_census_above_the_cap_exits_3_before_generating_primes(
        tmp_path, monkeypatch):
    import paclab.cli as cli

    def no_primes(n):
        raise AssertionError("primes generated before the census cap")

    monkeypatch.setattr(cli.sontag, "rationally_independent_points", no_primes)
    for config in [{"log_primes": 25, "census": True},
                   {"log_primes": 10 ** 12, "census": True},
                   {"log_primes": cli.sontag.MAX_CENSUS_POINTS + 1,
                    "census": True}]:
        code, out = run(tmp_path, "shatter", config)
        assert code == 3
        assert not (out / "shatter_manifest.json").exists()


def test_strict_budget_exit_3(tmp_path):
    # A sweep of 6 breakpoints stops short of the witness for [1, sqrt 2,
    # sqrt 3] labeled [0, 1, 0]; a sweep of 7 reaches it.
    config = {"points": [1.0, math.sqrt(2.0), math.sqrt(3.0)],
              "labels": [0, 1, 0], "w_max": 1e9}
    (tmp_path / "6").mkdir()
    code, out = run(tmp_path / "6", "shatter", {**config, "budget": 6},
                    extra=("--strict",))
    doc = json.loads((out / "shatter.json").read_text())
    assert code == 3
    assert doc["status"] == "budget_exceeded"
    assert doc["range_searched"] == [0, 4.534498410585544]
    assert not (out / "shatter_manifest.json").exists()
    (tmp_path / "7").mkdir()
    code, out = run(tmp_path / "7", "shatter", {**config, "budget": 7},
                    extra=("--strict",))
    doc = json.loads((out / "shatter.json").read_text())
    assert code == 0
    assert doc["witness_w"] == 4.623443695485117
    assert (out / "shatter_manifest.json").exists()


def test_distances_matrix(tmp_path):
    code, out = run(tmp_path, "distances",
                    {"weights": [2, 4, 8, 16, 32, 64],
                     "measure": {"kind": "uniform", "a": 0.0,
                                 "b": 2.0 * math.pi}})
    assert code == 0
    with open(out / "distances.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["w", "2", "4", "8", "16", "32", "64"]
    matrix = [[float(v) for v in row[1:]] for row in rows[1:]]
    assert len(matrix) == 6
    for i in range(6):
        assert matrix[i][i] == 0.0
        for j in range(6):
            if i != j:
                assert abs(matrix[i][j] - 0.5) <= 0.02


def test_gc_adversarial_csv(tmp_path):
    code, out = run(tmp_path, "gc",
                    {"mode": "adversarial",
                     "family": {"kind": "sontag", "w_max": 1e6},
                     "measure": {"kind": "uniform", "a": 0.0,
                                 "b": 2.0 * math.pi},
                     "n_list": [4], "trials": 30},
                    extra=("--seed", "9"))
    assert code == 0
    with open(out / "gc.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "mode"
    assert float(rows[1][3]) >= 0.4  # median deviation


def test_gc_adversarial_past_exact_indexing_counts_failed_trials(tmp_path):
    # At w >= 1e5 a point near 1e12 has breakpoint indices beyond 2**52:
    # every search stops there, and each trial counts as failed.
    code, out = run(tmp_path, "gc",
                    {"mode": "adversarial", "family": {"kind": "sontag"},
                     "measure": {"kind": "uniform", "a": 0, "b": 1e12},
                     "n_list": [8], "trials": 2, "min_weight": 1e5})
    assert code == 0
    with open(out / "gc.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["failed_trials"] for row in rows] == ["2"]


def test_packing_outputs(tmp_path):
    code, out = run(tmp_path, "packing",
                    {"hamming": {"n": 50, "eps": 0.21}})
    assert code == 0
    doc = json.loads((out / "hamming_packing.json").read_text())
    assert doc["count"] >= doc["bound"]
    assert all(len(wd) == 50 for wd in doc["codewords"])


def test_packing_past_int64_units_is_exact(tmp_path):
    # Exact units need 67 bits, beyond what the estimator accepts; the
    # family geometry keeps them as Python ints.  Atoms 0 and 1 are exactly
    # 2e-05 together, where their float sum reads 1.9999999999999998e-05.
    small = [1.2345678901234567e-5, 7.654321098765432e-06]
    measure = {"kind": "atomic",
               "atoms": [[0.0, small[0]], [1.0, small[1]], [2.0, 0.99998]]}
    assert measures.measure_from_json(measure).total_units.bit_length() == 67
    assert small[0] + small[1] < 2e-05

    def labels(*bits):
        return {"kind": "atom_labels", "locations": [0.0, 1.0, 2.0],
                "bits": list(bits)}

    code, out = run(tmp_path, "packing", {"family": {
        "measure": measure, "radius": 2e-05,
        "members": [labels(0, 0, 0), labels(1, 0, 0), labels(1, 1, 0),
                    {"kind": "intervals", "intervals": [[-0.5, 1.5]]}]}})
    assert code == 0
    doc = json.loads((out / "greedy_packing.json").read_text())
    assert doc["selected"] == [0, 2]


def test_cantor_feasibility_map(tmp_path):
    code, out = run(tmp_path, "cantor",
                    {"level": 1, "orders": [5, 64], "subsets": [[1], [1, 2]]})
    assert code == 0
    doc = json.loads((out / "cantor.json").read_text())
    verdicts = {(r["order"], tuple(r["selected"])): r["status"]
                for r in doc["reports"]}
    assert verdicts[(5, (1,))] == "feasible"
    assert verdicts[(64, (1, 2))] == "infeasible"
    assert doc["intervals"] == [["0", "1/3"], ["2/3", "1"]]


def test_figures_rho_peaks_at_origin(tmp_path):
    code, out = run(tmp_path, "figures", {"alpha": 100.0, "w": 5.0})
    assert code == 0
    with open(out / "composition.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    values = {float(x): float(r) for x, r in rows}
    assert max(values.values()) == values[0.0] == 0.02


def test_bad_level_index_exit_2(tmp_path):
    config = {"schedule": {"eps": ["1/5", "1/25"],
                           "f": {"kind": "poly", "degree": 1}, "K": 1},
              "levels": [7], "trials": 100}
    code, _ = run(tmp_path, "complexity", config)
    assert code == 2


def test_complexity_config_types_exit_2(tmp_path):
    base = {"schedule": {"eps": ["1/5", "1/25"],
                         "f": {"kind": "poly", "degree": 1}, "K": 1},
            "delta": 0.1, "trials": 100, "levels": [1], "n_cap": 1000}
    wrong = {"levels": "1", "trials": 100.7, "delta": "0.1", "n_cap": 2.5}
    for key, value in [*wrong.items(), ("levels", [1.9]),
                       ("levels", [True]), ("trials", True),
                       ("delta", 1), ("delta", float("nan"))]:
        out = tmp_path / f"{key}_{value!r}"
        out.mkdir()
        code, written = run(out, "complexity", {**base, key: value})
        assert code == 2, (key, value)
        assert not (written / "complexity_manifest.json").exists()
    code, written = run(tmp_path, "complexity", base)
    assert code == 0
    assert (written / "complexity_manifest.json").exists()
    for value in ("0.1", True, 0, 1.5):
        out = tmp_path / f"construct_{value!r}"
        out.mkdir()
        code, written = run(out, "construct",
                            {"schedule": base["schedule"], "delta": value})
        assert code == 2, value
        assert not (written / "construct_manifest.json").exists()


def test_gc_config_types_exit_2(tmp_path, monkeypatch):
    import paclab.cli as cli

    def no_run(*args, **kwargs):
        raise AssertionError("sampled before the config was checked")

    adversarial = {"mode": "adversarial",
                   "family": {"kind": "sontag", "w_max": 1e6},
                   "measure": {"kind": "uniform", "a": 0.0, "b": 6.0},
                   "n_list": [4], "trials": 2, "min_weight": 32.0}
    census = {"mode": "census", "family": {"kind": "order_class", "n": 4},
              "measure": {"kind": "uniform", "a": 0.0, "b": 1.0},
              "n_list": [10], "trials": 2}
    wrong = [(adversarial, "n_list", "48"), (adversarial, "n_list", [0]),
             (adversarial, "n_list", [4.0]), (adversarial, "trials", True),
             (adversarial, "trials", 20.7), (adversarial, "trials", 0),
             (adversarial, "min_weight", "32"),
             (adversarial, "min_weight", -1.0),
             (adversarial, "family", {"kind": "sontag", "w_max": "1e6"}),
             (adversarial, "family", {"kind": "sontag", "w_max": 16.0}),
             (adversarial, "family", {"kind": "sontag", "w_max": 10 ** 400}),
             (adversarial, "min_weight", float("nan")),
             (adversarial, "mode", "adversary"),
             (census, "family", {"kind": "order_class", "n": 9.5}),
             (census, "family", {"kind": "order_class", "n": True}),
             (census, "mode", None)]
    with monkeypatch.context() as patch:
        patch.setattr(cli.learner, "gc_deviation", no_run)
        for i, (base, key, value) in enumerate(wrong):
            out = tmp_path / str(i)
            out.mkdir()
            code, written = run(out, "gc", {**base, key: value})
            assert code == 2, (key, value)
            assert not (written / "gc_manifest.json").exists()
    for i, base in enumerate((adversarial, census)):
        out = tmp_path / f"ok{i}"
        out.mkdir()
        code, written = run(out, "gc", base)
        assert code == 0
        assert (written / "gc_manifest.json").exists()


def test_enumeration_cap_exit_3(tmp_path):
    config = {"mode": "census",
              "family": {"kind": "order_class", "n": 10 ** 6},
              "measure": {"kind": "uniform", "a": 0.0, "b": 1.0},
              "n_list": [10], "trials": 5}
    code, _ = run(tmp_path, "gc", config)
    assert code == 3


def test_adversarial_trials_cap_exit_3(tmp_path, monkeypatch):
    # One trial past the edge at n = 4, 16, 24 or 32 exits 3 before any
    # sample is drawn, and so does the edge at 16 with n = 4 listed too:
    # the cap weighs the whole run.  So does one trial at n = 10^12, whose
    # weight is found without building 2^n.  Each edge alone reaches the
    # sampler.
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before the cap")

    monkeypatch.setattr(measures.UniformMeasure, "sample", refuse)
    edges = {4: 32768, 16: 8192, 24: 341, 32: 104}
    config = {"mode": "adversarial", "family": {"kind": "sontag"},
              "measure": {"kind": "uniform", "a": 0.0, "b": 2.0 * math.pi}}
    cases = [([n], edge + 1) for n, edge in edges.items()]
    cases += [([4, 16], edges[16]), ([10 ** 12], 1)]
    for i, (n_list, trials) in enumerate(cases):
        (tmp_path / str(i)).mkdir()
        code, out = run(tmp_path / str(i), "gc",
                        {**config, "n_list": n_list, "trials": trials})
        assert code == 3, (n_list, trials)
        assert not (out / "gc_manifest.json").exists()
    for n, edge in edges.items():
        code, _ = run(tmp_path, "gc", {**config, "n_list": [n],
                                       "trials": edge})
        assert code == 4, n


def test_estimator_memory_cap_exit_3(tmp_path, monkeypatch):
    # Past the cap on trials x target atoms, with 10^7 trials, at x^2,
    # K=4, level 4 (390,625 targets) or at 2^x, K=2 (33,554,432): refused
    # before any atom is built or any episode drawn.
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the cap")

    monkeypatch.setattr(sontag, "rationally_independent_points", refuse)
    monkeypatch.setattr(learner, "_hitting_times", refuse)
    x2_k4 = {"eps": ["1/5", "1/25", "1/125", "1/625", "1/3125"],
             "f": {"kind": "poly", "degree": 2}, "K": 4}
    for config in [{"schedule": DEFAULT_SCHEDULE, "levels": [1],
                    "trials": 10 ** 7},
                   {"schedule": x2_k4, "levels": [4]},
                   schedule(f={"kind": "exp"})]:
        code, out = run(tmp_path, "complexity", config)
        assert code == 3
        assert not (out / "complexity_manifest.json").exists()


def test_complexity_builds_no_instance(tmp_path, monkeypatch):
    # The estimator reads the schedule's runs: no prime, no instance and
    # no atomic measure, and the outputs keep their golden bytes.
    def refuse(*args, **kwargs):
        raise AssertionError("complexity built atoms")

    monkeypatch.setattr(sontag, "rationally_independent_points", refuse)
    monkeypatch.setattr(construction, "build_measure", refuse)
    monkeypatch.setattr(construction.ConstructedInstance, "measure", refuse)
    monkeypatch.setattr(measures.AtomicMeasure, "__init__", refuse)
    root = Path(__file__).resolve().parent
    config = json.loads((root.parent / "configs" / "complexity.json")
                        .read_text())
    code, out = run(tmp_path, "complexity", config)
    assert code == 0
    golden = json.loads((root / "golden.json").read_text())["complexity"]
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in golden} == golden


def test_invariant_violation_exit_4(tmp_path, monkeypatch):
    import paclab.cli as cli

    def broken(config, seed):
        raise AssertionError("internal invariant failed")

    monkeypatch.setitem(cli.HANDLERS, "figures", broken)
    cfg = tmp_path / "f.json"
    cfg.write_text("{}")
    assert cli.main(["figures", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 4


def test_reruns_are_byte_identical(tmp_path):
    config = {"mode": "census",
              "family": {"kind": "order_class", "n": 4},
              "measure": {"kind": "uniform", "a": 0.0, "b": 1.0},
              "n_list": [50, 500], "trials": 10}
    cfg = tmp_path / "gc.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["gc", "--config", str(cfg), "--out", str(out),
                     "--seed", "4"]) == 0
        outs.append((out / "gc.csv").read_bytes())
    assert outs[0] == outs[1]


def test_complexity_csv_schema(tmp_path):
    config = {"schedule": {"eps": ["1/5", "1/25"],
                           "f": {"kind": "poly", "degree": 1}, "K": 1},
              "delta": 0.1, "trials": 150, "levels": [1]}
    code, out = run(tmp_path, "complexity", config, extra=("--seed", "2"))
    assert code == 0
    with open(out / "complexity.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["eps", "delta", "n_probed", "failures", "trials",
                       "n_hat", "ci_lo", "ci_hi", "seed"]
    assert len(rows) > 2
    summary = json.loads((out / "complexity_summary.json").read_text())
    assert summary["estimates"][0]["status"] == "converged"


UNIT = {"kind": "uniform", "a": 0.0, "b": 1.0}
CIRCLE = {"kind": "uniform", "a": 0.0, "b": 2.0 * math.pi}
SMALL_SCHEDULE = {"eps": ["1/5", "1/25"], "f": {"kind": "poly", "degree": 1},
                  "K": 1}
COMPLEXITY = {"schedule": SMALL_SCHEDULE, "levels": [1], "trials": 100}
# f_2 = f_1 = 30: level 2 gets no atoms.
FLAT_LEVEL_2 = {"eps": ["1/5", "1/25", "1/125"],
                "f": {"kind": "table", "points": [[5, 30], [25, 30]]}, "K": 2}
# f_2 = 2^(2051/2) passes the float range.
EXP_OVERFLOW = {"eps": ["1/5", "2/2051", "1/5000"],
                "f": {"kind": "exp", "base": 2}, "K": 2}
# f_1 = f_0 = 0: level 1 gets no atoms.
EMPTY_LEVEL_1 = {"eps": ["1/5", "1/25"],
                 "f": {"kind": "table", "points": [[1, 0]]}, "K": 1,
                 "linear_coeff": 0}
SEARCH = {"points": [1.0, 2.0], "labels": [1, 0]}
ADVERSARIAL = {"mode": "adversarial", "family": {"kind": "sontag",
                                                 "w_max": 1e3},
               "measure": CIRCLE, "n_list": [4], "trials": 1}
HAMMING = {"hamming": {"n": 50, "eps": 0.21}}


def schedule(**fields):
    return {"schedule": {**DEFAULT_SCHEDULE, **fields}}


def family(**fields):
    doc = packing({"kind": "sontag", "w": 30.0})
    doc["family"].update(fields)
    return doc


# (exit code, subcommand, config).  Every case fails while its config is
# read: at the parent, the casts let the first eleven through or escape
# as tracebacks, and the rest failed only after work had started.
BAD_CONFIGS = [
    (2, "construct", schedule(K=2.7)),
    (2, "construct", schedule(f={"kind": "poly", "degree": "2"})),
    (2, "construct", schedule(f=3)),
    (2, "construct", {"schedule": 3}),
    (2, "distances", {"weights": [2, 4], "measure": 3}),
    (2, "distances", {"weights": [2, 4],
                      "measure": {"kind": "cantor", "depth": 3.9}}),
    (2, "distances", {"weights": ["2", 4], "measure": UNIT}),
    (2, "packing", {"hamming": {"n": "50", "eps": 0.21}}),
    (2, "packing", family(radius="0.3")),
    (2, "cantor", {"level": 1.5, "orders": [3]}),
    (2, "figures", {"points": "7"}),
    (2, "complexity", {**COMPLEXITY, "trials": 50}),
    (2, "complexity", {**COMPLEXITY, "delta": 1.0}),
    (2, "shatter", {**SEARCH, "w_max": 0}),
    (2, "shatter", {**SEARCH, "labels": [2, 0]}),
    (2, "shatter", {**SEARCH, "labels": [1]}),
    (2, "shatter", {"points": [1.0, 1.0], "labels": [1, 0]}),
    (3, "shatter", {"points": [float(p) for p in range(1, 26)],
                    "census": True}),
    (2, "gc", {**ADVERSARIAL, "mode": "census"}),
    (2, "gc", {**ADVERSARIAL, "family": {"kind": "order_class", "n": 4}}),
    (2, "gc", {**ADVERSARIAL, "family": {"kind": "order_intervals"}}),
    (2, "gc", {**ADVERSARIAL, "measure": PACKING_ATOMS}),
    (2, "gc", {**ADVERSARIAL, "mode": "census",
               "family": {"kind": "concepts", "members": []}}),
    (2, "packing", {"hamming": {"n": 50, "eps": 0.3}}),
    (2, "packing", family(radius=0.0)),
    (2, "packing", family(members=[])),
    (2, "cantor", {"level": -1, "orders": [3]}),
    (2, "cantor", {"level": 1, "orders": [3], "subsets": [[3]]}),
    (2, "cantor", {"level": 1, "orders": [3], "subsets": [[0]]}),
    (2, "figures", {"alpha": 6.0}),
    (2, "figures", {"points": -1}),
    (2, "figures", {"x_range": [0.0]}),
    (3, "construct", schedule(f={"kind": "exp"})),  # 33,554,433 atoms
    (3, "cantor", {"level": 5, "orders": [3]}),  # above the search level cap
    (3, "packing", {"hamming": {"n": 100000, "eps": 0.01}}),  # e^46080
    (3, "packing", {"hamming": {"n": 1000, "eps": 0.01}}),  # e^460.8
    (3, "figures", {"cantor_levels": 40}),  # 2^40 intervals
    (3, "packing", {"hamming": {"n": 30, "eps": 0.01}}),  # 1,008,526^2 * 30
    # A schedule leaving a level without atoms is a config error; cantor
    # and figures inputs beyond their caps exit 3 before any layout.
    (2, "construct", {"schedule": FLAT_LEVEL_2}),
    (2, "complexity", {**COMPLEXITY, "schedule": FLAT_LEVEL_2}),
    (2, "construct", {"schedule": EMPTY_LEVEL_1}),
    (3, "cantor", {"level": 5, "orders": [3], "subsets": [[1]]}),
    (3, "cantor", {"level": 1, "orders": [3, 10001], "subsets": [[1]]}),
    (3, "figures", {"cantor_levels": 19}),
    # All 65,536 subsets at order 10^4 span 659,554,304 grid cells.
    (3, "cantor", {"level": 4, "orders": [10000]}),
    # A rate past the float range is a cap, not an internal error.
    (3, "construct", {"schedule": EXP_OVERFLOW}),
    (3, "complexity", {"schedule": EXP_OVERFLOW}),
    # A Fraction string with a zero denominator is a config error, as an
    # eps, a table point, a linear coefficient or a poly scale.
    (2, "construct", schedule(eps=["1/5", "1/0", "1/125"])),
    (2, "construct", schedule(f={"kind": "table",
                                 "points": [[5, 6], [25, "1/0"]]},
                              linear_coeff="1/10")),
    (2, "construct", schedule(linear_coeff="1/0")),
    (2, "construct", schedule(f={"kind": "poly", "degree": 2,
                                 "scale": "1/0"})),
    # An empty distance matrix: the family of no concepts is refused.
    (2, "distances", {"weights": [], "measure": UNIT}),
    # A labeling with two bits at one location is refused.
    (2, "packing", packing({"kind": "atom_labels", "locations": [1, 1],
                            "bits": [1, 0]})),
    # A key that would be read and then ignored is refused: labels in a
    # census, points beside log_primes, even junk ones, and a grid union's
    # intervals other than its cells'.
    (2, "shatter", {**SEARCH, "census": True}),
    (2, "shatter", {**SEARCH, "log_primes": 2}),
    (2, "shatter", {**SEARCH, "points": "junk", "log_primes": 2}),
    (2, "packing", packing({"kind": "intervals", "order": 4, "cells": [1],
                            "intervals": [[0.0, 0.25]]})),
    # A uniform measure whose width passes the float range cannot sample.
    (2, "gc", {"mode": "census", "n_list": [10], "trials": 5,
               "measure": {"kind": "uniform", "a": -1e308, "b": 1e308},
               "family": {"kind": "concepts", "members": [
                   {"kind": "intervals", "intervals": [[0, 1]]}]}}),
]

WORK = [(sontag, "rationally_independent_points"), (sontag, "shatter_search"),
        (sontag, "shatter_search_many"), (sontag, "shatter_census"),
        (sontag, "phi"),
        (learner, "estimate_sample_complexity"), (learner, "gc_deviation"),
        (bounds, "hamming_packing"), (bounds, "greedy_packing"),
        (bounds, "FiniteFamily"), (concepts, "cantor_shatter_search"),
        (measures, "cantor_level_intervals")]


@pytest.mark.parametrize("code, subcommand, config", BAD_CONFIGS)
def test_bad_configs_exit_before_any_work(tmp_path, monkeypatch, code,
                                          subcommand, config):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the config was read")

    for module, name in WORK:
        monkeypatch.setattr(module, name, no_work)
    got, out = run(tmp_path, subcommand, config)
    assert got == code
    assert list(out.iterdir()) == []


INTERNAL = [
    ("construct", {"schedule": DEFAULT_SCHEDULE}, construction,
     "theoretical_profile"),
    ("complexity", COMPLEXITY, learner, "estimate_sample_complexity"),
    ("shatter", SEARCH, sontag, "shatter_search"),
    ("distances", {"weights": [2, 4], "measure": UNIT}, bounds,
     "FiniteFamily"),
    ("gc", ADVERSARIAL, learner, "gc_deviation"),
    ("packing", HAMMING, bounds, "hamming_packing"),
    ("cantor", {"level": 1, "orders": [5], "subsets": [[1]]}, concepts,
     "cantor_shatter_search"),
    ("figures", {}, sontag, "phi"),
]


@pytest.mark.parametrize("subcommand, config, module, name", INTERNAL,
                         ids=[case[0] for case in INTERNAL])
def test_internal_value_error_exits_4_with_traceback(
        tmp_path, monkeypatch, capsys, subcommand, config, module, name):
    def broken(*args, **kwargs):
        raise ValueError("internal failure")

    monkeypatch.setattr(module, name, broken)
    code, out = run(tmp_path, subcommand, config)
    assert code == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "ValueError: internal failure" in err
    assert list(out.iterdir()) == []


# One run per stop kind: a single search and a census out of sweep budget,
# the estimator at its sample-size cap, and adversarial searches that all
# stop past exact indexing (as in the failed-trials test above).
STOPS = [
    ("shatter", {**SEARCH, "budget": 0}, ["shatter.json"],
     "the sweep budget was exhausted"),
    ("shatter", {"log_primes": 3, "census": True, "budget": 0},
     ["census.json"], "some labelings exceeded the sweep budget"),
    ("complexity", {**COMPLEXITY, "n_cap": 1},
     ["complexity.csv", "complexity_summary.json"],
     "the estimator hit its sample-size cap"),
    ("gc", {"mode": "adversarial", "family": {"kind": "sontag"},
            "measure": {"kind": "uniform", "a": 0, "b": 1e12},
            "n_list": [8], "trials": 2, "min_weight": 1e5},
     ["gc.csv"], "adversarial trials failed: 2 of 2 at n = 8"),
]


@pytest.mark.parametrize("subcommand, config, outputs, reason", STOPS,
                         ids=["search", "census", "n_cap", "failed_trials"])
def test_a_stop_exits_3_under_strict_and_is_named_in_the_manifest(
        tmp_path, capsys, subcommand, config, outputs, reason):
    # Under --strict the outputs are written and no manifest is; without
    # it the run exits 0 with the same bytes and its manifest says why it
    # stopped.
    written = {}
    for strict in (True, False):
        (tmp_path / str(strict)).mkdir()
        code, out = run(tmp_path / str(strict), subcommand, config,
                        extra=("--strict",) if strict else ())
        assert code == (3 if strict else 0)
        written[strict] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert reason in capsys.readouterr().err
    assert sorted(written[True]) == sorted(outputs)
    manifest = json.loads(written[False].pop(f"{subcommand}_manifest.json"))
    assert written[False] == written[True]
    assert manifest["outputs"] == outputs
    assert (manifest["stop"], manifest["strict"]) == (reason, False)


@pytest.mark.parametrize("error, code", [(ValueError, 4),
                                         (concepts.EnumerationCapError, 3)])
def test_packing_failing_after_the_hamming_step_writes_no_file(
        tmp_path, monkeypatch, error, code):
    def broken(*args, **kwargs):
        raise error("family step failed")

    monkeypatch.setattr(bounds, "greedy_packing", broken)
    got, out = run(tmp_path, "packing", {**HAMMING, **family()})
    assert got == code
    assert list(out.iterdir()) == []


def test_units_past_int64_exit_3_before_any_draw(tmp_path, monkeypatch):
    # eps_3 = 5e-324 gives the targets 1081-bit units.
    def refuse(*args, **kwargs):
        raise AssertionError("drew past the units cap")

    monkeypatch.setattr(learner, "_hitting_times", refuse)
    code, out = run(tmp_path, "complexity",
                    schedule(eps=["1/5", "1/25", 5e-324]))
    assert code == 3
    assert list(out.iterdir()) == []


def run_within(seconds, tmp_path, subcommand, config):
    # ``run`` under an alarm: a run still going after ``seconds`` raises
    # TimeoutError inside ``main``, which exits 4 on it.
    def hang(signum, frame):
        raise TimeoutError(f"{subcommand} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        return run(tmp_path, subcommand, config)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# A family measures its pairs only, so each case pairs its weight with 2;
# a lone weight, past the cap or not, builds no arc.
ARC_CAP_CASES = [
    ("edge", [sontag.MAX_SIGN_ARCS, 2], CIRCLE, 0, 30),
    ("edge + 1", [sontag.MAX_SIGN_ARCS + 1, 2], CIRCLE, 3, 5),
    ("lone edge + 1", [sontag.MAX_SIGN_ARCS + 1], CIRCLE, 0, 5),
    ("1e308", [1e308, 2], CIRCLE, 3, 5),
    ("cantor 1e9", [1e9, 2], {"kind": "cantor"}, 3, 5),
]


@pytest.mark.parametrize("weights, measure, expected, seconds",
                         [case[1:] for case in ARC_CAP_CASES],
                         ids=[case[0] for case in ARC_CAP_CASES])
def test_sign_concept_arcs_are_capped(tmp_path, weights, measure, expected,
                                      seconds):
    # Past MAX_SIGN_ARCS periods in the window the run is refused before
    # any arc is built; at the edge it runs to the end.
    code, out = run_within(seconds, tmp_path, "distances",
                           {"weights": weights, "measure": measure})
    assert code == expected
    assert (out / "distances.csv").exists() == (expected == 0)


def test_float_range_weights_exit_0(tmp_path):
    # A weight of 5e-324 spans the whole window with infinite arc ends, and
    # the census at w = 1e300 labels by cos(wx), past rho's float range;
    # pytest makes their overflow warnings errors.
    code, out = run(tmp_path, "distances",
                    {"weights": [5e-324, 4], "measure": CIRCLE})
    assert code == 0
    with open(out / "distances.csv") as fh:
        rows = list(csv.reader(fh))
    assert abs(float(rows[1][2]) - 0.5) < 1e-12
    assert rows[1][2] == rows[2][1] and float(rows[1][1]) == 0.0
    code, out = run(tmp_path, "gc", {
        "mode": "census", "n_list": [100], "trials": 5, "measure": CIRCLE,
        "family": {"kind": "concepts",
                   "members": [{"kind": "sontag", "w": 1e300}]}})
    assert code == 0
    with open(out / "gc.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert 0 < float(rows[0]["max_dev"]) < 0.2


def test_subnormal_delta_constructs(tmp_path):
    # 1/delta overflows at delta = 5e-324 = 2**-1074, and -log2(delta) is
    # 1074 exactly; pytest makes an overflow warning an error.
    code, out = run(tmp_path, "construct",
                    {"schedule": DEFAULT_SCHEDULE, "delta": 5e-324})
    assert code == 0
    rows = json.loads((out / "profile.json").read_text())["rows"]
    assert [r["upper"] for r in rows] == [
        math.ceil((32.0 / r["eps"]) * (r["f_k"] + 1074)) for r in rows]


def test_sign_tests_past_the_float_range_exit_3(tmp_path):
    # w |x| of 1e308 x 2 pi, or of 3 x 1e308, is no float: the sign test
    # refuses it before any cos, where w = 1e300 labels a census (above).
    census = {"mode": "census", "n_list": [10], "trials": 5,
              "measure": CIRCLE, "family": {"kind": "concepts", "members": [
                  {"kind": "sontag", "w": 1e308}]}}
    far_atom = {"family": {"measure": {"kind": "atomic", "atoms": [
        [1e308, 0.5], [1.0, 0.5]]}, "members": [{"kind": "sontag", "w": 3}],
        "radius": 0.1}}
    for subcommand, config in (("gc", census), ("packing", far_atom)):
        code, out = run(tmp_path, subcommand, config)
        assert code == 3, subcommand
        assert list(out.iterdir()) == []


def test_estimator_cap_counts_the_levels_asked_for(tmp_path):
    # 2^x at K=2 holds 2^25 targets, but a pass at eps_1 may stop before it
    # meets level 2's, whose whole mass 4/25 is below 1/5: level 1 runs.
    code, out = run(tmp_path, "complexity",
                    {**schedule(f={"kind": "exp"}), "levels": [1]})
    assert code == 0
    summary = json.loads((out / "complexity_summary.json").read_text())
    assert [(e["n_hat"], e["draws"]) for e in summary["estimates"]] == [
        (73, 14631)]


def test_order_class_past_the_cap_exits_3_at_once(tmp_path):
    # The running member count passes the cap at two cells of order 10^30;
    # a count of every member would take far longer than the alarm.
    config = {"mode": "census", "family": {"kind": "order_class",
                                           "n": 10 ** 30},
              "measure": UNIT, "n_list": [10], "trials": 5}
    code, out = run_within(5, tmp_path, "gc", config)
    assert code == 3
    assert list(out.iterdir()) == []


def test_readme_caps_table_holds_every_cap():
    # A row per cap constant of src, `module.NAME`, with its value as a
    # Python int literal, so the table cannot drift from the code.
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("### Caps\n", 1)[1]
    section = section.split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| `([0-9_]+)` \|", section,
                      re.MULTILINE)
    for module, name, value in rows:
        constant = getattr(importlib.import_module(f"paclab.{module}"), name)
        assert constant == ast.literal_eval(value), (module, name)
    defined = {(path.stem, node.targets[0].id)
               for path in (root / "src" / "paclab").glob("*.py")
               for node in ast.parse(path.read_text()).body
               if isinstance(node, ast.Assign)
               and isinstance(node.targets[0], ast.Name)
               and re.fullmatch(r"MAX_\w+|ENUMERATION_CAP",
                                node.targets[0].id)}
    assert ("learner", "MAX_UNIT_BITS") in defined
    assert sorted((m, n) for m, n, _ in rows) == sorted(defined)
