"""Command-line front door: experiment configs in, CSV/JSON artifacts out.

Every subcommand reads a strict JSON config (unknown keys rejected), runs
one library operation, writes its outputs plus a manifest with the config
hash, seed, and versions into the output directory.  Runs are fully
deterministic for a fixed config and seed, so re-running a manifest
reproduces byte-identical CSVs.

Exit codes: 0 ok, 2 config error, 3 budget exceeded (with --strict),
4 invariant violation.
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


def _manifest(out_dir, subcommand, config, seed, threads, strict, outputs):
    blob = json.dumps(config, sort_keys=True).encode()
    doc = {"subcommand": subcommand,
           "config": config,
           "config_sha256": hashlib.sha256(blob).hexdigest(),
           "seed": seed,
           "threads": threads,
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


def run_construct(config, out_dir, seed):
    _require(config, {"schedule", "delta"}, {"schedule"})
    schedule = construction.ComplexitySchedule.from_json(config["schedule"])
    delta = float(config.get("delta", 0.1))
    instance = construction.build_measure(schedule)
    profile = construction.theoretical_profile(instance, delta)
    _write_json(out_dir / "instance.json", instance.to_json())
    _write_json(out_dir / "profile.json", profile.to_json())
    return ["instance.json", "profile.json"]


def run_complexity(config, out_dir, seed):
    _require(config, {"schedule", "delta", "trials", "levels", "n_cap"},
             {"schedule"})
    schedule = construction.ComplexitySchedule.from_json(config["schedule"])
    delta = float(config.get("delta", 0.1))
    trials = int(config.get("trials", 400))
    n_cap = int(config.get("n_cap", learner.DEFAULT_N_CAP))
    instance = construction.build_measure(schedule)
    levels = [int(k) for k in config.get("levels",
                                         range(1, schedule.K + 1))]
    if any(not 1 <= k <= schedule.K for k in levels):
        raise ConfigError(f"levels must lie in 1..{schedule.K}")
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
        n = config["log_primes"]
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ConfigError(f"log_primes must be a positive integer, "
                              f"got {n!r}")
        if n_labels is None and n > sontag.MAX_CENSUS_POINTS:
            raise ConfigError(f"log_primes {n} exceeds the census limit of "
                              f"{sontag.MAX_CENSUS_POINTS} points")
        if n_labels is not None and n != n_labels:
            raise ConfigError(f"log_primes {n} does not match the "
                              f"{n_labels} labels")
        return sontag.rationally_independent_points(n)
    if "points" in config:
        return [float(p) for p in config["points"]]
    raise ConfigError("shatter config needs 'points' or 'log_primes'")


def run_shatter(config, out_dir, seed):
    _require(config, {"points", "log_primes", "labels", "census", "w_max",
                      "alpha", "budget"})
    census = config.get("census")
    labels = config.get("labels")
    if not census and labels is None:
        raise ConfigError("shatter config needs 'labels' or 'census': true")
    points = _points_from_config(config, None if census else len(labels))
    w_max = float(config.get("w_max", 10 ** 4))
    alpha = float(config.get("alpha", sontag.DEFAULT_ALPHA))
    budget = int(config.get("budget", sontag.DEFAULT_BUDGET))
    if census:
        result = sontag.shatter_census(points, w_max, alpha=alpha,
                                       budget=budget)
        _write_json(out_dir / "census.json", result.to_json())
        if any(e.status == "budget_exceeded" for e in result.entries):
            raise BudgetExceeded("some labelings exceeded the sweep budget",
                                 ["census.json"])
        return ["census.json"]
    result = sontag.shatter_search(points, labels, w_max, alpha=alpha,
                                   budget=budget)
    _write_json(out_dir / "shatter.json", result.to_json())
    if result.status == "budget_exceeded":
        raise BudgetExceeded("the sweep budget was exhausted", ["shatter.json"])
    return ["shatter.json"]


def run_distances(config, out_dir, seed):
    _require(config, {"weights", "alpha", "measure"}, {"weights", "measure"})
    weights = [float(w) for w in config["weights"]]
    alpha = float(config.get("alpha", sontag.DEFAULT_ALPHA))
    measure = _measure_from_config(config["measure"])
    family = [concepts.SontagConcept(w, alpha) for w in weights]
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
    measure = _measure_from_config(config["measure"])
    trials = int(config.get("trials", 100))
    fam_doc = config["family"]
    kind = fam_doc.get("kind")
    if kind == "sontag":
        family = concepts.SontagFamily(float(fam_doc.get("w_max", 10 ** 6)),
                                       float(fam_doc.get("alpha", sontag.DEFAULT_ALPHA)))
    elif kind == "order_intervals":
        family = concepts.OrderIntervalFamily()
    elif kind == "order_class":
        family = list(concepts.enumerate_order_class(int(fam_doc["n"])))
    elif kind == "concepts":
        family = [concepts.concept_from_json(d) for d in fam_doc["members"]]
    else:
        raise ConfigError(f"unknown family kind {kind!r}")
    rows = []
    for n in config["n_list"]:
        res = learner.gc_deviation(family, measure, int(n), trials=trials,
                                   seed=seed, mode=mode,
                                   min_weight=float(config.get("min_weight",
                                                               learner.ADVERSARIAL_MIN_WEIGHT)))
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
        members = [concepts.concept_from_json(d) for d in params["members"]]
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
    bits = sontag.output_labels(xs, w, alpha).astype(int)
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
    parser.add_argument("--threads", type=int, default=1)
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
    except (EnumerationCapError, PackingShortfallError) as exc:
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
    _manifest(out_dir, args.subcommand, config, args.seed, args.threads,
              args.strict, outputs)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
