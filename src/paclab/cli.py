"""Command-line front door: experiment configs in, CSV/JSON artifacts out.

Every subcommand reads its JSON config through one typed field reader
(``measures.Field``: unknown keys, wrong types and out-of-range values are
rejected before any work) and runs one library operation.  Its handler
returns its outputs by file name (a JSON document or a CSV (header, rows)
pair) and a stop reason or None; ``main`` alone writes them and a manifest
(config hash, seed, versions, stop), so a run that fails writes no file.
Runs are deterministic for a fixed config and seed: re-running a manifest
reproduces byte-identical CSVs.

Exit codes: 0 ok, 2 config error (a schedule leaving a level without atoms
among them), 3 budget exceeded (with --strict, a stop: a search budget, the
sample-size cap or a failed adversarial trial, whose outputs are written
but no manifest; always, a packing shortfall, a rate beyond the float range
or an input past a cap, ``measures.check_cap``: README "Caps" lists them),
4 internal error or invariant violation (traceback on stderr).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import platform
import sys
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, bounds, concepts, construction, learner, measures, sontag
from .bounds import PackingShortfallError
from .measures import (ConfigError, Document, EnumerationCapError, Field,
                       check_cap, read_fields, read_kind)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

SCHEDULE = Field(construction.ComplexitySchedule.from_json)
MEASURE = Field(measures.measure_from_json)
CONCEPTS = Field("list", least=1, of=Field(concepts.concept_from_json))


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write(path, doc):
    """Write a CSV (header, rows) pair or a JSON document, by suffix."""
    if path.suffix == ".csv":
        header, rows = doc
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in (header, *rows):
                writer.writerow([_fmt(v) for v in row])
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # a cover size 2**f_k may pass 4,300 digits
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    finally:
        sys.set_int_max_str_digits(limit)


def _manifest(subcommand, config, seed, strict, outputs, stop):
    blob = json.dumps(config, sort_keys=True).encode()
    return {"subcommand": subcommand,
            "config": config,
            "config_sha256": hashlib.sha256(blob).hexdigest(),
            "seed": seed,
            "strict": strict,
            "versions": {"paclab": __version__,
                         "python": platform.python_version(),
                         "numpy": np.__version__},
            "outputs": list(outputs),
            "stop": stop}


def run_construct(config, seed):
    schedule, delta = read_fields(
        config, "construct config", schedule=SCHEDULE,
        delta=Field("number", 0.1, above=0, most=1))
    instance = construction.build_measure(schedule)
    profile = construction.theoretical_profile(instance, delta)
    return {"instance.json": instance.to_json(),
            "profile.json": profile.to_json()}, None


def run_complexity(config, seed):
    get = Document(config, "complexity config",
                   ("schedule", "delta", "trials", "levels", "n_cap"))
    schedule = get("schedule", SCHEDULE)
    # The estimator takes delta below 1 and at least 100 trials.
    delta = get("delta", Field("number", 0.1, above=0, below=1))
    trials = get("trials", Field("int", 400, least=100))
    n_cap = get("n_cap", Field("int", learner.DEFAULT_N_CAP, least=0))
    levels = get("levels", Field("list", list(range(1, schedule.K + 1)),
                                 of=Field("int", least=1, most=schedule.K)))
    rows = []
    summary = []
    for k in levels:
        eps = float(schedule.eps[k - 1])
        est = learner.estimate_sample_complexity(schedule, eps, delta,
                                                 trials=trials, seed=seed,
                                                 n_cap=n_cap)
        summary.append(est.to_json())
        for n_probed, failures in est.probes:
            rows.append([eps, delta, n_probed, failures, est.trials,
                         est.n_hat if est.n_hat is not None else -1,
                         est.confidence_interval[0],
                         est.confidence_interval[1], seed])
    header = ["eps", "delta", "n_probed", "failures", "trials", "n_hat",
              "ci_lo", "ci_hi", "seed"]
    capped = any(e["status"] != "converged" for e in summary)
    return ({"complexity.csv": (header, rows),
             "complexity_summary.json": {"estimates": summary}},
            "the estimator hit its sample-size cap" if capped else None)


def run_shatter(config, seed):
    get = Document(config, "shatter config", ("points", "log_primes", "labels",
                                              "census", "w_max", "budget"))
    census = get("census", Field((True, False), False))
    w_max = get("w_max", Field("number", 10 ** 4, above=0))
    budget = get("budget", Field("int", sontag.DEFAULT_BUDGET, least=0))
    labels = None if census else get(
        "labels", Field("list", least=1, of=Field("int", least=0, most=1)))
    # A census takes at least one point, a search one per label.
    least, most = (1, None) if census else (len(labels), len(labels))
    if "log_primes" in config:
        count = get("log_primes", Field("int", least=least, most=most))
    else:
        points = get("points", Field("list", least=least, most=most,
                                     of=Field("number"), distinct=True))
        count = len(points)
    # The census cap, on points listed or as log_primes, before any prime.
    if census:
        check_cap("census points", count, sontag.MAX_CENSUS_POINTS)
    if "log_primes" in config:
        points = sontag.rationally_independent_points(count)
    if census:
        result = sontag.shatter_census(points, w_max, budget=budget)
        over = any(e.status == "budget_exceeded" for e in result.entries)
        return ({"census.json": result.to_json()},
                "some labelings exceeded the sweep budget" if over else None)
    result = sontag.shatter_search(points, labels, w_max, budget=budget)
    over = result.status == "budget_exceeded"
    return ({"shatter.json": result.to_json()},
            "the sweep budget was exhausted" if over else None)


def run_distances(config, seed):
    weights, measure = read_fields(
        config, "distances config",
        weights=Field("list", least=1, of=Field("number", least=0)),
        measure=MEASURE)
    family = [concepts.SontagConcept(w) for w in weights]
    matrix = bounds.FiniteFamily(family, measure).distance_matrix().tolist()
    rows = [[w, *row] for w, row in zip(weights, matrix)]
    return {"distances.csv": (["w", *weights], rows)}, None


def run_gc(config, seed):
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
    if mode == "adversarial":  # the whole run refused before any sample
        learner.check_adversarial_cells(n_list, trials)
    rows, failed = [], []
    for n in n_list:
        res = learner.gc_deviation(family, measure, n, trials=trials,
                                   seed=seed, mode=mode,
                                   min_weight=min_weight)
        rows.append([mode, res.n, res.trials, res.median, res.mean, res.max,
                     res.failed_trials, seed])
        if res.failed_trials:  # adversarial searches that found no witness
            failed.append(f"{res.failed_trials} of {trials} at n = {n}")
    header = ["mode", "n", "trials", "median_dev", "mean_dev", "max_dev",
              "failed_trials", "seed"]
    stop = f"adversarial trials failed: {', '.join(failed)}"
    return {"gc.csv": (header, rows)}, stop if failed else None


def run_packing(config, seed):
    hamming, family = read_fields(
        config, "packing config",
        hamming=Field({"n": Field("int", least=1),
                       "eps": Field("number", above=0, most=0.25)}, None),
        family=Field({"measure": MEASURE, "members": CONCEPTS,
                      "radius": Field("number", above=0)}, None))
    if hamming is None and family is None:
        raise ConfigError("packing config needs 'hamming' and/or 'family'")
    outputs = {}
    if hamming is not None:
        n, eps = hamming
        bound = bounds.hamming_packing_bound(n, eps)
        words = bounds.hamming_packing(n, eps, seed=seed)
        doc = {"n": n, "eps": eps, "bound": bound, "count": len(words),
               "codewords": ["".join(str(b) for b in word) for word in words]}
        outputs["hamming_packing.json"] = doc
    if family is not None:
        measure, members, radius = family
        result = bounds.greedy_packing(bounds.FiniteFamily(members, measure),
                                       radius)
        outputs["greedy_packing.json"] = result.to_json()
    return outputs, None


def run_cantor(config, seed):
    get = Document(config, "cantor config", ("level", "orders", "subsets"))
    level = get("level", Field("int", least=0))
    orders = get("orders", Field("list", of=Field("int", least=1)))
    # The search caps, met before any layout, bound it too: at the level
    # cap "all" is 2^16 subsets.
    check_cap("cantor search level", level, concepts.MAX_SHATTER_LEVEL)
    check_cap("cantor search order", max(orders, default=1),
              concepts.MAX_SHATTER_ORDER)
    all_subsets = config.get("subsets", "all") == "all"
    index_sets = None if all_subsets else get("subsets", Field("list", of=Field(
        "list", of=Field("int", least=1, most=2 ** level))))
    # Each search counts its order plus 64 cells for its fixed cost.
    cells = ((2 ** 2 ** level if all_subsets else len(index_sets))
             * sum(order + 64 for order in orders))
    check_cap("cantor run grid cells", cells, concepts.MAX_CANTOR_CELLS)
    if all_subsets:
        index_sets = [[j + 1 for j in range(2 ** level) if (mask >> j) & 1]
                      for mask in range(2 ** (2 ** level))]
    layout = [[str(Fraction(a, 3 ** level)), str(Fraction(a + 1, 3 ** level))]
              for a in measures.cantor_level_intervals(level)]
    reports = [concepts.cantor_shatter_search(level, order, js).to_json()
               for order in orders for js in index_sets]
    return {"cantor.json": {"level": level, "intervals": layout,
                            "reports": reports}}, None


def run_figures(config, seed):
    alpha, w, (lo, hi), count, cantor_levels = read_fields(
        config, "figures config",
        alpha=Field("number", sontag.DEFAULT_ALPHA, least=sontag.ALPHA_MIN),
        w=Field("number", 5.0),
        x_range=Field("list", [-10.0, 10.0], least=2, most=2,
                      of=Field("number")),
        points=Field("int", 2001, least=0),
        cantor_levels=Field("int", 3, least=0))
    # Level L alone lists 2^L intervals.
    check_cap("cantor_levels", cantor_levels, measures.MAX_CANTOR_LEVELS)
    xs = np.linspace(lo, hi, count)
    bits = sontag.output_labels(xs, w).astype(int)
    # Int true division rounds correctly, as float(Fraction) does.
    rows = [[level, i, a / 3 ** level, (a + 1) / 3 ** level]
            for level in range(cantor_levels + 1)
            for i, a in enumerate(measures.cantor_level_intervals(level))]
    return {"activation.csv": (["x", "phi"], zip(
                xs.tolist(), sontag.phi(xs, alpha).tolist())),
            "composition.csv": (["x", "rho"], zip(
                xs.tolist(), sontag.rho(xs, w, alpha).tolist())),
            "binary_output.csv": (["x", "y"], zip(xs.tolist(), bits.tolist())),
            "cantor_levels.csv": (["level", "index", "lo", "hi"], rows)}, None


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
        outputs, stop = handler(config, args.seed)
        for name, doc in outputs.items():
            _write(out_dir / name, doc)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EnumerationCapError, PackingShortfallError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL
    if stop is not None and args.strict:
        print(f"budget exceeded: {stop}", file=sys.stderr)
        return EXIT_BUDGET
    _write(out_dir / f"{args.subcommand}_manifest.json",
           _manifest(args.subcommand, config, args.seed, args.strict,
                     outputs, stop))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
