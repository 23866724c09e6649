"""Command-line front door: experiment configs in, CSV/JSON artifacts out.

Every subcommand reads a strict JSON config (unknown keys rejected), runs
one library operation, writes its outputs plus a manifest with the config
hash, seed, and versions into the output directory.  Runs are fully
deterministic for a fixed config and seed, so re-running a manifest
reproduces byte-identical CSVs.

Exit codes: 0 ok, 2 config error, 3 budget exceeded (a search budget or
sample-size cap with --strict; an enumeration cap, a packing shortfall or
the estimator's memory cap always), 4 invariant violation.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, bounds, concepts, construction, learner, measures, sontag
from .bounds import PackingShortfallError
from .concepts import EnumerationCapError
from .learner import EpisodeMemoryError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


class ConfigError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    def __init__(self, message, outputs=()):
        super().__init__(message)
        self.outputs = list(outputs)


def _require(config, known, required=()):
    unknown = set(config) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    missing = set(required) - set(config)
    if missing:
        raise ConfigError(f"missing config keys: {sorted(missing)}")


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(out_dir, subcommand, config, seed, strict, outputs):
    blob = json.dumps(config, sort_keys=True).encode()
    doc = {"subcommand": subcommand,
           "config": config,
           "config_sha256": hashlib.sha256(blob).hexdigest(),
           "seed": seed,
           "strict": strict,
           "versions": {"paclab": __version__,
                        "python": platform.python_version(),
                        "numpy": np.__version__},
           "outputs": outputs}
    _write_json(out_dir / f"{subcommand}_manifest.json", doc)


def _measure_from_config(doc):
    try:
        return measures.measure_from_json(doc)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad measure config: {exc}") from exc


def _concepts_from_config(docs):
    try:
        return [concepts.concept_from_json(d) for d in docs]
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad concept config: {exc}") from exc


def _delta_entry(config):
    # A JSON number in (0, 1]; the estimator itself also rejects 1.
    delta = config.get("delta", 0.1)
    if (isinstance(delta, bool) or not isinstance(delta, (int, float))
            or not 0 < delta <= 1):
        raise ConfigError(f"delta must be a number in (0, 1], got {delta!r}")
    return float(delta)


def run_construct(config, out_dir, seed):
    _require(config, {"schedule", "delta"}, {"schedule"})
    schedule = construction.ComplexitySchedule.from_json(config["schedule"])
    delta = _delta_entry(config)
    instance = construction.build_measure(schedule)
    profile = construction.theoretical_profile(instance, delta)
    _write_json(out_dir / "instance.json", instance.to_json())
    _write_json(out_dir / "profile.json", profile.to_json())
    return ["instance.json", "profile.json"]


def _int_entry(value, name, least):
    # JSON integers only: bools, floats and strings are config errors.
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, "
                          f"got {value!r}")
    return value


def _number_entry(value, name, least):
    # Finite JSON numbers only: bools, strings, NaN and numbers past the
    # float range are config errors.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not least <= value <= sys.float_info.max):
        raise ConfigError(f"{name} must be a number >= {least}, "
                          f"got {value!r}")
    return float(value)


def run_complexity(config, out_dir, seed):
    _require(config, {"schedule", "delta", "trials", "levels", "n_cap"},
             {"schedule"})
    schedule = construction.ComplexitySchedule.from_json(config["schedule"])
    delta = _delta_entry(config)
    trials = _int_entry(config.get("trials", 400), "trials", 1)
    n_cap = _int_entry(config.get("n_cap", learner.DEFAULT_N_CAP), "n_cap", 0)
    levels = config.get("levels", list(range(1, schedule.K + 1)))
    if not isinstance(levels, list):
        raise ConfigError(f"levels must be a list, got {levels!r}")
    levels = [_int_entry(k, "each level", 1) for k in levels]
    if any(k > schedule.K for k in levels):
        raise ConfigError(f"levels must lie in 1..{schedule.K}")
    instance = construction.build_measure(schedule)
    rows = []
    summary = []
    for k in levels:
        eps = float(schedule.eps[k - 1])
        est = learner.estimate_sample_complexity(instance, eps, delta,
                                                 trials=trials, seed=seed,
                                                 n_cap=n_cap)
        summary.append(est.to_json())
        for n_probed, failures in est.probes:
            rows.append([eps, delta, n_probed, failures, est.trials,
                         est.n_hat if est.n_hat is not None else -1,
                         est.confidence_interval[0],
                         est.confidence_interval[1], seed])
    _write_csv(out_dir / "complexity.csv",
               ["eps", "delta", "n_probed", "failures", "trials", "n_hat",
                "ci_lo", "ci_hi", "seed"], rows)
    _write_json(out_dir / "complexity_summary.json", {"estimates": summary})
    outputs = ["complexity.csv", "complexity_summary.json"]
    if any(e["status"] != "converged" for e in summary):
        raise BudgetExceeded("the estimator hit its sample-size cap", outputs)
    return outputs


def _points_from_config(config, n_labels):
    """The config's points; ``n_labels`` is None for a census.

    ``log_primes`` is checked before any prime is generated.
    """
    if "log_primes" in config:
        n = _int_entry(config["log_primes"], "log_primes", 1)
        if n_labels is None and n > sontag.MAX_CENSUS_POINTS:
            raise ConfigError(f"log_primes {n} exceeds the census limit of "
                              f"{sontag.MAX_CENSUS_POINTS} points")
        if n_labels is not None and n != n_labels:
            raise ConfigError(f"log_primes {n} does not match the "
                              f"{n_labels} labels")
        return sontag.rationally_independent_points(n)
    if "points" in config:
        return [_number_entry(p, "each point", -sys.float_info.max)
                for p in config["points"]]
    raise ConfigError("shatter config needs 'points' or 'log_primes'")


def run_shatter(config, out_dir, seed):
    _require(config, {"points", "log_primes", "labels", "census", "w_max",
                      "budget"})
    census = config.get("census")
    labels = config.get("labels")
    if not census and labels is None:
        raise ConfigError("shatter config needs 'labels' or 'census': true")
    points = _points_from_config(config, None if census else len(labels))
    w_max = _number_entry(config.get("w_max", 10 ** 4), "w_max", 0)
    budget = _int_entry(config.get("budget", sontag.DEFAULT_BUDGET),
                        "budget", 0)
    if census:
        result = sontag.shatter_census(points, w_max, budget=budget)
        _write_json(out_dir / "census.json", result.to_json())
        if any(e.status == "budget_exceeded" for e in result.entries):
            raise BudgetExceeded("some labelings exceeded the sweep budget",
                                 ["census.json"])
        return ["census.json"]
    result = sontag.shatter_search(points, labels, w_max, budget=budget)
    _write_json(out_dir / "shatter.json", result.to_json())
    if result.status == "budget_exceeded":
        raise BudgetExceeded("the sweep budget was exhausted", ["shatter.json"])
    return ["shatter.json"]


def run_distances(config, out_dir, seed):
    _require(config, {"weights", "measure"}, {"weights", "measure"})
    weights = [float(w) for w in config["weights"]]
    measure = _measure_from_config(config["measure"])
    family = [concepts.SontagConcept(w) for w in weights]
    rows = []
    for i, wi in enumerate(weights):
        row = [wi]
        for j in range(len(weights)):
            row.append(concepts.l1_distance(family[i], family[j], measure))
        rows.append(row)
    _write_csv(out_dir / "distances.csv",
               ["w"] + [_fmt(w) for w in weights], rows)
    return ["distances.csv"]


def run_gc(config, out_dir, seed):
    _require(config, {"mode", "family", "measure", "n_list", "trials",
                      "min_weight"}, {"mode", "family", "measure", "n_list"})
    mode = config["mode"]
    if mode not in ("census", "adversarial"):
        raise ConfigError(f"mode must be 'census' or 'adversarial', "
                          f"got {mode!r}")
    n_list = config["n_list"]
    if not isinstance(n_list, list):
        raise ConfigError(f"n_list must be a list, got {n_list!r}")
    n_list = [_int_entry(n, "each n_list entry", 1) for n in n_list]
    trials = _int_entry(config.get("trials", 100), "trials", 1)
    min_weight = _number_entry(
        config.get("min_weight", learner.ADVERSARIAL_MIN_WEIGHT),
        "min_weight", 0)
    measure = _measure_from_config(config["measure"])
    fam_doc = config["family"]
    if not isinstance(fam_doc, dict):
        raise ConfigError(f"family must be an object, got {fam_doc!r}")
    kind = fam_doc.get("kind")
    if kind == "sontag":
        _require(fam_doc, {"kind", "w_max"})
        w_max = _number_entry(fam_doc.get("w_max", 10 ** 6), "w_max", 0)
        if not w_max > min_weight:
            raise ConfigError(f"w_max {w_max} must exceed min_weight "
                              f"{min_weight}")
        family = concepts.SontagFamily(w_max)
    elif kind == "order_intervals":
        _require(fam_doc, {"kind"})
        family = concepts.OrderIntervalFamily()
    elif kind == "order_class":
        _require(fam_doc, {"kind", "n"}, {"n"})
        family = list(concepts.enumerate_order_class(
            _int_entry(fam_doc["n"], "order-class n", 1)))
    elif kind == "concepts":
        _require(fam_doc, {"kind", "members"}, {"members"})
        family = _concepts_from_config(fam_doc["members"])
    else:
        raise ConfigError(f"unknown family kind {kind!r}")
    rows = []
    for n in n_list:
        res = learner.gc_deviation(family, measure, n, trials=trials,
                                   seed=seed, mode=mode,
                                   min_weight=min_weight)
        rows.append([mode, res.n, res.trials, res.median, res.mean, res.max,
                     res.failed_trials, seed])
    _write_csv(out_dir / "gc.csv",
               ["mode", "n", "trials", "median_dev", "mean_dev", "max_dev",
                "failed_trials", "seed"], rows)
    return ["gc.csv"]


def run_packing(config, out_dir, seed):
    _require(config, {"hamming", "family"})
    outputs = []
    if "hamming" in config:
        params = config["hamming"]
        _require(params, {"n", "eps"}, {"n", "eps"})
        words = bounds.hamming_packing(int(params["n"]), float(params["eps"]),
                                       seed=seed)
        doc = {"n": int(params["n"]), "eps": float(params["eps"]),
               "bound": bounds.hamming_packing_bound(int(params["n"]),
                                                     float(params["eps"])),
               "count": len(words),
               "codewords": ["".join(str(b) for b in word) for word in words]}
        _write_json(out_dir / "hamming_packing.json", doc)
        outputs.append("hamming_packing.json")
    if "family" in config:
        params = config["family"]
        _require(params, {"measure", "members", "radius"},
                 {"measure", "members", "radius"})
        measure = _measure_from_config(params["measure"])
        members = _concepts_from_config(params["members"])
        family = bounds.FiniteFamily(members, measure)
        result = bounds.greedy_packing(family, float(params["radius"]))
        _write_json(out_dir / "greedy_packing.json", result.to_json())
        outputs.append("greedy_packing.json")
    if not outputs:
        raise ConfigError("packing config needs 'hamming' and/or 'family'")
    return outputs


def run_cantor(config, out_dir, seed):
    _require(config, {"level", "orders", "subsets"}, {"level", "orders"})
    level = int(config["level"])
    orders = [int(n) for n in config["orders"]]
    subsets = config.get("subsets", "all")
    if subsets == "all":
        index_sets = [[j + 1 for j in range(2 ** level) if (mask >> j) & 1]
                      for mask in range(2 ** (2 ** level))]
    else:
        index_sets = [[int(j) for j in js] for js in subsets]
    layout = [[str(lo), str(hi)]
              for lo, hi in measures.cantor_level_intervals(level)]
    reports = []
    for order in orders:
        for js in index_sets:
            rep = concepts.cantor_shatter_search(level, order, js)
            reports.append(rep.to_json())
    _write_json(out_dir / "cantor.json",
                {"level": level, "intervals": layout, "reports": reports})
    return ["cantor.json"]


def run_figures(config, out_dir, seed):
    _require(config, {"alpha", "w", "x_range", "points", "cantor_levels"})
    alpha = float(config.get("alpha", sontag.DEFAULT_ALPHA))
    w = float(config.get("w", 5.0))
    lo, hi = config.get("x_range", [-10.0, 10.0])
    count = int(config.get("points", 2001))
    xs = np.linspace(float(lo), float(hi), count)
    _write_csv(out_dir / "activation.csv", ["x", "phi"],
               zip(xs.tolist(), sontag.phi(xs, alpha).tolist()))
    _write_csv(out_dir / "composition.csv", ["x", "rho"],
               zip(xs.tolist(), sontag.rho(xs, w, alpha).tolist()))
    bits = sontag.output_labels(xs, w).astype(int)
    _write_csv(out_dir / "binary_output.csv", ["x", "y"],
               zip(xs.tolist(), bits.tolist()))
    rows = []
    for level in range(int(config.get("cantor_levels", 3)) + 1):
        for i, (a, b) in enumerate(measures.cantor_level_intervals(level)):
            rows.append([level, i, float(a), float(b)])
    _write_csv(out_dir / "cantor_levels.csv", ["level", "index", "lo", "hi"],
               rows)
    return ["activation.csv", "composition.csv", "binary_output.csv",
            "cantor_levels.csv"]


HANDLERS = {
    "construct": run_construct,
    "complexity": run_complexity,
    "shatter": run_shatter,
    "distances": run_distances,
    "gc": run_gc,
    "packing": run_packing,
    "cantor": run_cantor,
    "figures": run_figures,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="paclab",
        description="PAC learning under a fixed input distribution: "
                    "reproducible desk-scale experiments.")
    parser.add_argument("subcommand", choices=sorted(HANDLERS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--strict", action="store_true",
                        help="treat budget exhaustion as a failure")
    args = parser.parse_args(argv)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    handler = HANDLERS[args.subcommand]
    try:
        outputs = handler(config, out_dir, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EnumerationCapError, EpisodeMemoryError,
            PackingShortfallError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except BudgetExceeded as exc:
        if args.strict:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        outputs = exc.outputs
    except (ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    _manifest(out_dir, args.subcommand, config, args.seed, args.strict,
              outputs)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
