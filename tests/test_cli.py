import csv
import json
import math

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


def test_unknown_config_keys_exit_2(tmp_path):
    code, _ = run(tmp_path, "construct",
                  {"schedule": DEFAULT_SCHEDULE, "typo": 1})
    assert code == 2


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
    bad = [{"log_primes": 10 ** 12, "census": True},
           {"log_primes": 10 ** 12, "labels": [1, 0]},
           {"log_primes": 10 ** 12},
           {"log_primes": 25, "census": True},
           {"log_primes": 3, "labels": [1, 0]},
           {"log_primes": 0, "census": True},
           {"log_primes": 2.5, "labels": [1, 0]},
           {"log_primes": True, "labels": [1]}]
    for config in bad:
        code, out = run(tmp_path, "shatter", config)
        assert code == 2
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


def test_enumeration_cap_exit_3(tmp_path):
    config = {"mode": "census",
              "family": {"kind": "order_class", "n": 10 ** 6},
              "measure": {"kind": "uniform", "a": 0.0, "b": 1.0},
              "n_list": [10], "trials": 5}
    code, _ = run(tmp_path, "gc", config)
    assert code == 3


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
