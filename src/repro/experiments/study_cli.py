"""Config-driven study runner: ``python -m repro.experiments.study_cli``.

Downstream users rarely want to write orchestration code; they want to
declare a study and get a table.  This CLI reads a JSON config,
builds the ground truth once, runs every declared scheme, prints the
comparison, and (optionally) writes machine-readable results.

Example config::

    {
      "system": "double_pendulum",
      "resolution": 8,
      "rank": 3,
      "seed": 7,
      "schemes": [
        {"kind": "m2td", "variant": "select", "pivot": "t"},
        {"kind": "m2td", "variant": "select", "join": "zero",
         "free_fraction": 0.2, "sub_sampling": "random"},
        {"kind": "conventional", "sampler": "Random"},
        {"kind": "conventional", "sampler": "Grid"}
      ]
    }

Conventional schemes receive the budget of the *first* M2TD scheme
(or an explicit ``"budget"`` field).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from ..core.pipeline import EnsembleStudy, StudyResult
from ..exceptions import ExperimentError
from ..faults import add_fault_args, inject_faults
from ..observability import add_observability_args, observe, span
from ..runtime import Runtime, TaskGraph, output
from ..simulation import make_system
from .reporting import format_table
from .schemes import conventional_sampler

REQUIRED_KEYS = ("system", "resolution", "rank", "schemes")

#: The keys each scheme kind reads.  Any other key fails the config
#: rather than being silently ignored.
SCHEME_KEYS = {
    "m2td": ("kind", "variant", "pivot", "pivot_fraction", "free_fraction",
             "join", "sub_sampling", "seed"),
    "conventional": ("kind", "sampler", "budget", "seed"),
}


def load_config(path: str) -> Dict:
    try:
        with open(path) as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"cannot read config {path!r}: {exc}") from exc
    missing = [key for key in REQUIRED_KEYS if key not in config]
    if missing:
        raise ExperimentError(
            f"config {path!r} is missing required keys: {missing}"
        )
    if not isinstance(config["schemes"], list) or not config["schemes"]:
        raise ExperimentError("config needs a non-empty 'schemes' list")
    for index, scheme in enumerate(config["schemes"]):
        allowed = SCHEME_KEYS.get(scheme.get("kind"), ())
        unknown = sorted(set(scheme) - set(allowed)) if allowed else []
        if unknown:
            raise ExperimentError(
                f"scheme {index} ({scheme['kind']}) has unknown key "
                f"{unknown[0]!r}; allowed keys: {list(allowed)}"
            )
    return config


def run_scheme(
    study: EnsembleStudy,
    scheme: Dict,
    ranks: List[int],
    seed: int,
    default_budget: Optional[int],
) -> StudyResult:
    kind = scheme.get("kind")
    if kind == "m2td":
        return study.run_m2td(
            ranks,
            variant=scheme.get("variant", "select"),
            pivot=scheme.get("pivot", "t"),
            pivot_fraction=float(scheme.get("pivot_fraction", 1.0)),
            free_fraction=float(scheme.get("free_fraction", 1.0)),
            join_kind=scheme.get("join", "join"),
            sub_sampling=scheme.get("sub_sampling", "cross"),
            seed=scheme.get("seed", seed),
        )
    if kind == "conventional":
        budget = scheme.get("budget", default_budget)
        if budget is None:
            raise ExperimentError(
                "conventional scheme needs a 'budget' (or declare an "
                "m2td scheme first to match its budget)"
            )
        sampler = conventional_sampler(
            scheme.get("sampler", "Random"), scheme.get("seed", seed)
        )
        return study.run_conventional(sampler, int(budget), ranks)
    raise ExperimentError(
        f"unknown scheme kind {kind!r}; use 'm2td' or 'conventional'"
    )


def scheme_graph(
    study: EnsembleStudy, config: Dict, ranks: List[int], seed: int
) -> TaskGraph:
    """One task per declared scheme, on one shared ground truth.

    Schemes are independent of each other — a multi-worker runtime
    runs them concurrently — with one exception mirroring the
    sequential semantics: a conventional scheme without an explicit
    ``"budget"`` consumes the cell budget of the *first* m2td scheme,
    so its task depends on that scheme's result.
    """
    graph = TaskGraph()
    first_m2td: Optional[str] = None
    for index, scheme in enumerate(config["schemes"]):
        name = f"scheme-{index}:{scheme.get('kind', '?')}"
        needs_budget = (
            scheme.get("kind") == "conventional"
            and scheme.get("budget") is None
        )
        if needs_budget and first_m2td is None:
            raise ExperimentError(
                "conventional scheme needs a 'budget' (or declare an "
                "m2td scheme first to match its budget)"
            )

        def run(m2td_result=None, scheme=scheme):
            budget = (
                m2td_result.cells if m2td_result is not None else None
            )
            return run_scheme(study, scheme, ranks, seed, budget)

        if needs_budget:
            graph.add(name, run, m2td_result=output(first_m2td),
                      affinity="thread")
        else:
            graph.add(name, run, affinity="thread")
        if first_m2td is None and scheme.get("kind") == "m2td":
            first_m2td = name
    return graph


def run_config(
    config: Dict, runtime: Optional[Runtime] = None
) -> List[StudyResult]:
    """Execute a loaded config; returns one result per scheme.

    With a ``runtime``, ground-truth construction goes through the
    content-addressed cache (repeat invocations with a ``--cache-dir``
    skip the simulations entirely) and the schemes execute as a task
    graph on the runtime's workers.
    """
    system = make_system(str(config["system"]))
    study = EnsembleStudy.create(
        system, int(config["resolution"]), runtime=runtime
    )
    ranks = [int(config["rank"])] * study.space.n_modes
    seed = int(config.get("seed", 7))
    if runtime is None:
        results: List[StudyResult] = []
        default_budget: Optional[int] = None
        for scheme in config["schemes"]:
            result = run_scheme(study, scheme, ranks, seed, default_budget)
            if default_budget is None and scheme.get("kind") == "m2td":
                default_budget = result.cells
            results.append(result)
        return results
    # Every scheme is scored against the ground truth: build it (one
    # cached task) before concurrent schemes share the oracle, so a
    # rerun on the same cache reads it back whatever the interleaving.
    study.truth
    graph = scheme_graph(study, config, ranks, seed)
    outcome = runtime.run(graph)
    return [outcome.results[name] for name in graph.names]


def render_results(results: List[StudyResult]) -> str:
    rows = [
        [
            r.scheme,
            float(r.accuracy),
            float(r.decompose_seconds),
            r.cells,
            r.runs,
        ]
        for r in results
    ]
    return format_table(
        ["scheme", "accuracy", "seconds", "cells", "runs"], rows
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.study_cli",
        description="Run a declared ensemble study from a JSON config.",
    )
    parser.add_argument("config", help="path to the JSON study config")
    parser.add_argument(
        "--output", help="write machine-readable results (JSON) here"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="executor pool width; schemes run concurrently when > 1",
    )
    parser.add_argument(
        "--cache-dir",
        help="content-addressed result cache directory; repeated "
        "studies over the same (system, resolution) reuse the "
        "ground-truth tensor instead of re-simulating",
    )
    add_observability_args(parser)
    add_fault_args(parser)
    args = parser.parse_args(argv)
    config = load_config(args.config)
    runtime = Runtime(workers=args.workers, cache_dir=args.cache_dir)
    try:
        with observe(args.trace, args.profile, args.metrics), inject_faults(
            args.fault_plan, args.fault_seed
        ):
            with span(
                "study", "experiment",
                system=str(config["system"]),
                resolution=int(config["resolution"]),
            ):
                results = run_config(config, runtime=runtime)
    finally:
        runtime.shutdown()
    print(render_results(results))
    if args.output:
        payload = [r.row() for r in results]
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
    return 0


if __name__ == "__main__":
    sys.exit(main())
