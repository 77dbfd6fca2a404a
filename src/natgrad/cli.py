"""Command-line interface.

Subcommands::

    natgrad run <config.json>       optimization run
    natgrad hessian <family> <similarity> <theta> [--metric ID] [--check]
    natgrad validate [--seed N]
    natgrad bench-gp <config.json>  GP benchmark (its only CLI route)

Exit codes: 0 on success, 1 for configuration errors (with a message
listing valid identifiers or keys where relevant), a family, similarity
and metric that cannot run together and a start where the cost is +inf
among them, 2 for numerical failures or failed validation checks.  All randomness is seeded from the configs, so
outputs are deterministic up to wall-time columns.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .errors import ConfigError, DivergenceInfiniteError, NatgradError, NumericError
from .families import FAMILY_IDS, get_family
from .gp_bench import BenchmarkConfig, run_benchmark
from .metric import fd_local_hessian
from .optimizer import OptimizerConfig, optimize
from .similarity import (METRIC_ALIASES, SIMILARITY_IDS, get_similarity, metric_similarity,
                         own_metric_engine, resolve_metric_engine)
from .validation import run_checks

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must contain a JSON object")
    return data


def _check_keys(data: dict, allowed: set[str], context: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(
            f"unknown {context} keys: {', '.join(sorted(unknown))}; "
            f"allowed keys: {', '.join(sorted(allowed))}"
        )


def _load_config(config_class, data, context: str, extra: frozenset = frozenset(), **given):
    """``config_class`` from the JSON object ``data``, whose keys are its fields
    less those ``given`` plus the ``extra`` ones the caller reads; the
    dataclass checks the values.  Lists become tuples, ``optimizer`` objects
    OptimizerConfigs."""
    if not isinstance(data, dict):
        raise ConfigError(f"{context} must be a JSON object, got {data!r}")
    _check_keys(data, {f.name for f in fields(config_class)} - set(given) | extra, context)
    values = {key: tuple(v) if isinstance(v, list) else v
              for key, v in data.items() if key not in extra}
    if "optimizer" in values:
        values["optimizer"] = _load_config(OptimizerConfig, values["optimizer"], "optimizer",
                                           metric=None)
    try:
        return config_class(**values, **given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _parse_theta(text: str) -> np.ndarray:
    try:
        return np.array([float(part) for part in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ConfigError(f"could not parse parameter vector {text!r}: {exc}") from exc


def cmd_run(args) -> int:
    config = _load_json(args.config)
    _check_keys(
        config,
        {"family", "similarity", "metric", "theta0", "target", "optimizer", "output"},
        "run config",
    )
    for key in ("family", "similarity", "theta0", "target"):
        if key not in config:
            raise ConfigError(f"run config is missing required key {key!r}")
    family = get_family(config["family"])
    sim = get_similarity(config["similarity"])
    opt = _load_config(OptimizerConfig, config.get("optimizer", {}), "optimizer",
                       metric=config.get("metric"))
    trace = optimize(
        family,
        sim,
        np.asarray(config["theta0"], dtype=float),
        np.asarray(config["target"], dtype=float),
        opt,
    )
    output = config.get("output", "trace.csv")
    trace.to_csv(output)
    print(f"status={trace.status} iterations={trace.iterations} final_cost={trace.final_cost:.6e}")
    if trace.reason:
        print(f"{trace.status}: {trace.reason}", file=sys.stderr)
    print(f"trace written to {output}")
    return EXIT_NUMERIC if trace.status == "numeric_failure" else EXIT_OK


def cmd_hessian(args) -> int:
    family = get_family(args.family)
    sim = get_similarity(args.similarity)
    theta = _parse_theta(args.theta)
    direction = _parse_theta(args.direction) if args.direction else None
    engine = (resolve_metric_engine(args.metric, family) if args.metric
              else own_metric_engine(sim, family))
    theta = family.point(theta)  # one point for the engine and --check
    hessian = engine(theta, direction)
    print(f"metric={engine.name} provenance={hessian.provenance}")
    for row in hessian.matrix:
        print("[" + ", ".join(f"{v:.12g}" for v in row) + "]")
    if args.check:
        # The fd: route (Similarity.local_hessian) of the similarity whose
        # metric was printed: along the direction for a directional cost only.
        sim = metric_similarity(args.metric) if args.metric else sim
        fd = fd_local_hessian(sim, family, theta, direction if sim.directional else None)
        deviation = float(np.max(np.abs(hessian.matrix - fd.matrix)))
        print(f"max deviation from finite differences: {deviation:.6e}")
    return EXIT_OK


def cmd_validate(args) -> int:
    results = run_checks(seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  deviation={r.deviation: .3e}  tolerance={r.tolerance: .3e}  {mark}")
        failures += 0 if r.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return EXIT_OK if failures == 0 else EXIT_NUMERIC


def cmd_bench_gp(args) -> int:
    data = _load_json(args.config)
    if "gp_benchmark" in data:  # a wrapped config holds nothing else
        _check_keys(data, {"gp_benchmark"}, "wrapped bench-gp config")
        data = data["gp_benchmark"]
    config = _load_config(BenchmarkConfig, data, "gp_benchmark config",
                          extra=frozenset({"output_dir"}))
    output_dir = data.get("output_dir", ".")
    result = run_benchmark(config)
    os.makedirs(output_dir, exist_ok=True)
    for metric, trace in result.traces.items():
        trace.to_csv(os.path.join(output_dir, f"trace_{metric.replace(':', '_')}.csv"))
    with open(os.path.join(output_dir, "summary.csv"), "w") as fh:
        fh.write(result.summary_csv())
    print(f"threshold={result.threshold:.6e}")
    for metric, iters, cost, status in result.summary_rows():
        print(f"{metric}: iters_to_threshold={iters} final_cost={cost:.6e} status={status}")
    print(f"outputs written to {output_dir}")
    failed = any(t.status == "numeric_failure" for t in result.traces.values())
    return EXIT_NUMERIC if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="natgrad",
        description="Natural-gradient optimization with metrics derived from similarity measures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an optimization described by a JSON config")
    p_run.add_argument("config", help="path to the JSON config")
    p_run.set_defaults(fn=cmd_run)

    p_hess = sub.add_parser("hessian", help="print the local Hessian metric at a point")
    p_hess.add_argument("family", help=f"family id ({', '.join(FAMILY_IDS)})")
    p_hess.add_argument("similarity", help=f"similarity id ({', '.join(SIMILARITY_IDS)})")
    p_hess.add_argument("theta", help="comma-separated parameter vector, e.g. 0,1")
    p_hess.add_argument("--metric", help="metric id: a similarity id (its own metric, the "
                        "default), fd:{similarity} (finite differences of it) or an alias "
                        f"({', '.join(METRIC_ALIASES)})")
    p_hess.add_argument("--direction", help="comma-separated direction for directional metrics")
    p_hess.add_argument(
        "--check", action="store_true", help="compare against the finite-difference engine"
    )
    p_hess.set_defaults(fn=cmd_hessian)

    p_val = sub.add_parser("validate", help="run the numerical self-check suite")
    p_val.add_argument("--seed", type=int, default=0)
    p_val.set_defaults(fn=cmd_validate)

    p_bench = sub.add_parser("bench-gp", help="run the GP likelihood benchmark")
    p_bench.add_argument("config", help="path to the JSON config")
    p_bench.set_defaults(fn=cmd_bench_gp)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NumericError, DivergenceInfiniteError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, TypeError, NatgradError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
