import csv
import json
import math

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
    assert len(manifest["config_sha256"]) == 64
    assert "threads" not in manifest


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
    for member in ({"kind": "sontag", "w": 30.0, "wq": 1},
                   {"kind": "sontag", "w": 30.0, "alpha": 100.0}):
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
    code, out = run(tmp_path, "shatter",
                    {"points": [1.0, math.sqrt(2.0)], "labels": [1, 0],
                     "w_max": 1e9, "budget": 10},
                    extra=("--strict",))
    doc = json.loads((out / "shatter.json").read_text())
    if doc["status"] == "budget_exceeded":
        assert code == 3
    else:
        assert code == 0


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


def test_estimator_memory_cap_exit_3(tmp_path):
    config = {"schedule": DEFAULT_SCHEDULE, "levels": [1], "trials": 10 ** 7}
    code, out = run(tmp_path, "complexity", config)
    assert code == 3
    assert not (out / "complexity_manifest.json").exists()


def test_invariant_violation_exit_4(tmp_path, monkeypatch):
    import paclab.cli as cli

    def broken(config, out_dir, seed):
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
    (2, "shatter", {"points": [float(p) for p in range(1, 26)],
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
    (3, "cantor", {"level": 5, "orders": [3]}),  # 2^32 subsets
    (3, "packing", {"hamming": {"n": 100000, "eps": 0.01}}),  # e^46080
    (3, "packing", {"hamming": {"n": 1000, "eps": 0.01}}),  # e^460.8
    (3, "figures", {"cantor_levels": 40}),  # 2^40 intervals
    (3, "packing", {"hamming": {"n": 30, "eps": 0.01}}),  # 1,008,526^2 * 30
]

WORK = [(sontag, "rationally_independent_points"), (sontag, "shatter_search"),
        (sontag, "shatter_census"), (sontag, "phi"),
        (learner, "estimate_sample_complexity"), (learner, "gc_deviation"),
        (bounds, "hamming_packing"), (bounds, "greedy_packing"),
        (concepts, "l1_distance"), (concepts, "cantor_shatter_search"),
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
    ("distances", {"weights": [2, 4], "measure": UNIT}, concepts,
     "l1_distance"),
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
    assert not (out / f"{subcommand}_manifest.json").exists()
