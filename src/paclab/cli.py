"""Command-line front door: experiment configs in, CSV/JSON artifacts out.

Every subcommand reads its JSON config through one typed field reader
(``measures.Field``: unknown keys, wrong types and out-of-range values are
rejected before any work), runs one library operation, writes its outputs
plus a manifest with the config hash, seed, and versions into the output
directory.  Runs are fully deterministic for a fixed config and seed, so
re-running a manifest reproduces byte-identical CSVs.

Exit codes: 0 ok, 2 config error, 3 budget exceeded (a search budget or
sample-size cap with --strict; an enumeration cap, the instance's atom cap,
the cantor subset cap, the hamming packing bound's cap, the figures' cantor
level cap, a packing shortfall or the estimator's memory cap always), 4
internal error or invariant violation (traceback on stderr).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import platform
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, bounds, concepts, construction, learner, measures, sontag
from .bounds import PackingShortfallError
from .concepts import EnumerationCapError
from .learner import EpisodeMemoryError
from .measures import ConfigError, Document, Field, read_fields, read_kind

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

SCHEDULE = Field(construction.ComplexitySchedule.from_json)
MEASURE = Field(measures.measure_from_json)
CONCEPTS = Field("list", least=1, of=Field(concepts.concept_from_json))


class BudgetExceeded(RuntimeError):
    def __init__(self, message, outputs=()):
        super().__init__(message)
        self.outputs = list(outputs)


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


def run_construct(config, out_dir, seed):
    schedule, delta = read_fields(
        config, "construct config", schedule=SCHEDULE,
        delta=Field("number", 0.1, above=0, most=1))
    instance = construction.build_measure(schedule)
    profile = construction.theoretical_profile(instance, delta)
    _write_json(out_dir / "instance.json", instance.to_json())
    _write_json(out_dir / "profile.json", profile.to_json())
    return ["instance.json", "profile.json"]


def run_complexity(config, out_dir, seed):
    get = Document(config, "complexity config",
                   ("schedule", "delta", "trials", "levels", "n_cap"))
    schedule = get("schedule", SCHEDULE)
    # The estimator takes delta below 1 and at least 100 trials.
    delta = get("delta", Field("number", 0.1, above=0, below=1))
    trials = get("trials", Field("int", 400, least=100))
    n_cap = get("n_cap", Field("int", learner.DEFAULT_N_CAP, least=0))
    levels = get("levels", Field("list", list(range(1, schedule.K + 1)),
                                 of=Field("int", least=1, most=schedule.K)))
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


def run_shatter(config, out_dir, seed):
    get = Document(config, "shatter config", ("points", "log_primes", "labels",
                                              "census", "w_max", "budget"))
    census = get("census", Field((True, False), False))
    w_max = get("w_max", Field("number", 10 ** 4, above=0))
    budget = get("budget", Field("int", sontag.DEFAULT_BUDGET, least=0))
    labels = None if census else get(
        "labels", Field("list", least=1, of=Field("int", least=0, most=1)))
    # A census takes up to MAX_CENSUS_POINTS points, a search one per label;
    # more log_primes is an enumeration cap, met before any prime exists.
    least, most = ((1, sontag.MAX_CENSUS_POINTS) if census
                   else (len(labels), len(labels)))
    if "log_primes" in config:
        count = get("log_primes", Field("int", least=least,
                                        most=None if census else most))
        if count > most:
            raise EnumerationCapError(f"census of {count} > {most} points")
        points = sontag.rationally_independent_points(count)
    else:
        points = get("points", Field("list", least=least, most=most,
                                     of=Field("number"), distinct=True))
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
    weights, measure = read_fields(
        config, "distances config",
        weights=Field("list", of=Field("number", least=0)), measure=MEASURE)
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
    get = Document(config, "gc config", ("mode", "family", "measure",
                                         "n_list", "trials", "min_weight"))
    mode = get("mode", Field(("census", "adversarial")))
    n_list = get("n_list", Field("list", of=Field("int", least=1)))
    trials = get("trials", Field("int", 100, least=1))
    min_weight = get("min_weight", Field(
        "number", learner.ADVERSARIAL_MIN_WEIGHT, least=0))
    measure = get("measure", MEASURE)
    # The families each mode takes.  A census enumerates a finite one.  An
    # adversarial fit needs pairwise distinct sample points, so no atoms,
    # and an isolating grid union needs them inside [0, 1].
    if mode == "census":
        families = {
            "order_class": (lambda n: list(concepts.enumerate_order_class(n)),
                            {"n": Field("int", least=1)}),
            "concepts": (list, {"members": CONCEPTS})}
    elif isinstance(measure, measures.AtomicMeasure):
        families = {}
    else:
        families = {"sontag": (concepts.SontagFamily, {"w_max": Field(
            "number", 10 ** 6, above=min_weight)})}
        if (isinstance(measure, measures.CantorMeasure)
                or 0 <= measure.a and measure.b <= 1):
            families["order_intervals"] = (concepts.OrderIntervalFamily, {})
    family = get("family", Field(lambda doc: read_kind(
        doc, f"{mode} family under {measure!r}", families)))
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
    hamming, family = read_fields(
        config, "packing config",
        hamming=Field({"n": Field("int", least=1),
                       "eps": Field("number", above=0, most=0.25)}, None),
        family=Field({"measure": MEASURE, "members": CONCEPTS,
                      "radius": Field("number", above=0)}, None))
    if hamming is None and family is None:
        raise ConfigError("packing config needs 'hamming' and/or 'family'")
    outputs = []
    if hamming is not None:
        n, eps = hamming
        bound = bounds.hamming_packing_bound(n, eps)
        words = bounds.hamming_packing(n, eps, seed=seed)
        doc = {"n": n, "eps": eps, "bound": bound, "count": len(words),
               "codewords": ["".join(str(b) for b in word) for word in words]}
        _write_json(out_dir / "hamming_packing.json", doc)
        outputs.append("hamming_packing.json")
    if family is not None:
        measure, members, radius = family
        result = bounds.greedy_packing(bounds.FiniteFamily(members, measure),
                                       radius)
        _write_json(out_dir / "greedy_packing.json", result.to_json())
        outputs.append("greedy_packing.json")
    return outputs


def run_cantor(config, out_dir, seed):
    get = Document(config, "cantor config", ("level", "orders", "subsets"))
    level = get("level", Field("int", least=0))
    orders = get("orders", Field("list", of=Field("int", least=1)))
    every = config.get("subsets", "all") == "all"
    # The layout lists 2^level intervals, and "all" 2^(2^level) subsets.
    cap = math.log2(concepts.ENUMERATION_CAP)
    if level > cap or (every and 2 ** level > cap):
        raise EnumerationCapError(
            f"cantor level {level} with {'all' if every else 'listed'} "
            f"subsets exceeds the enumeration cap {concepts.ENUMERATION_CAP}")
    if every:
        index_sets = [[j + 1 for j in range(2 ** level) if (mask >> j) & 1]
                      for mask in range(2 ** (2 ** level))]
    else:
        index_sets = get("subsets", Field("list", of=Field("list", of=Field(
            "int", least=1, most=2 ** level))))
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
    alpha, w, (lo, hi), count, cantor_levels = read_fields(
        config, "figures config",
        alpha=Field("number", sontag.DEFAULT_ALPHA, least=sontag.ALPHA_MIN),
        w=Field("number", 5.0),
        x_range=Field("list", [-10.0, 10.0], least=2, most=2,
                      of=Field("number")),
        points=Field("int", 2001, least=0),
        cantor_levels=Field("int", 3, least=0))
    # Level L alone lists 2^L intervals, capped as in the cantor layout.
    if cantor_levels > math.log2(concepts.ENUMERATION_CAP):
        raise EnumerationCapError(
            f"cantor_levels {cantor_levels} exceeds the enumeration cap "
            f"{concepts.ENUMERATION_CAP}")
    xs = np.linspace(lo, hi, count)
    _write_csv(out_dir / "activation.csv", ["x", "phi"],
               zip(xs.tolist(), sontag.phi(xs, alpha).tolist()))
    _write_csv(out_dir / "composition.csv", ["x", "rho"],
               zip(xs.tolist(), sontag.rho(xs, w, alpha).tolist()))
    bits = sontag.output_labels(xs, w).astype(int)
    _write_csv(out_dir / "binary_output.csv", ["x", "y"],
               zip(xs.tolist(), bits.tolist()))
    rows = []
    for level in range(cantor_levels + 1):
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
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    _manifest(out_dir, args.subcommand, config, args.seed, args.strict,
              outputs)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
