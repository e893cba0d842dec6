"""Command-line entry point: ``python -m repro.experiments``.

Examples
--------
List experiments::

    python -m repro.experiments --list

Run one table with the quick configuration::

    python -m repro.experiments table2 --quick

Run everything and write the reports to a file::

    python -m repro.experiments --all --output results.txt
"""

from __future__ import annotations

import argparse
import sys
import time

from ..distributed.cli import add_worker_args, apply_worker_args
from ..faults import add_fault_args, inject_faults
from ..observability import add_observability_args, observe, span
from ..runtime import Runtime
from .config import default_config, quick_config
from .runner import available_experiments, run_all, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Reproduce the M2TD paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids to run (see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list available experiments"
    )
    parser.add_argument(
        "--all", action="store_true", help="run every experiment"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="use the reduced quick configuration",
    )
    parser.add_argument(
        "--output", help="also write the rendered reports to this file"
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="runtime executor pool width for study construction",
    )
    parser.add_argument(
        "--cache-dir",
        help="on-disk content-addressed cache; repeated invocations "
        "reuse ground-truth tensors instead of re-simulating",
    )
    parser.add_argument(
        "--campaign-budget-fraction",
        type=float,
        default=0.88,
        help="fraction of the full sub-space budget the ext-campaign "
        "experiment may spend (default 0.88)",
    )
    add_observability_args(parser)
    add_fault_args(parser)
    add_worker_args(parser)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for experiment_id in available_experiments():
            print(experiment_id)
        return 0
    apply_worker_args(args)
    config = quick_config() if args.quick else default_config()
    if args.campaign_budget_fraction != 0.88:
        from dataclasses import replace

        config = replace(
            config, campaign_budget_fraction=args.campaign_budget_fraction
        )
        config.validate()
    if args.all:
        targets = available_experiments()
    elif args.experiments:
        targets = args.experiments
    else:
        build_parser().print_help()
        return 2
    runtime = Runtime(workers=args.workers, cache_dir=args.cache_dir)
    sections = []
    try:
        with observe(args.trace, args.profile, args.metrics), inject_faults(
            args.fault_plan, args.fault_seed
        ):
            if args.all:
                with span("experiments:all", "experiment"):
                    reports = run_all(config, runtime=runtime)
                for experiment_id in targets:
                    sections.append(reports[experiment_id].render())
            else:
                for experiment_id in targets:
                    started = time.perf_counter()
                    with span(
                        f"experiment:{experiment_id}", "experiment",
                        quick=args.quick,
                    ):
                        report = run_experiment(
                            experiment_id, config, runtime=runtime
                        )
                    elapsed = time.perf_counter() - started
                    rendered = report.render()
                    sections.append(f"{rendered}\n[ran in {elapsed:.1f}s]")
    finally:
        runtime.shutdown()
    text = "\n\n".join(sections)
    print(text)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
