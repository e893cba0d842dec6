"""Argparse glue shared by the CLIs: ``--trace`` / ``--profile`` /
``--metrics`` flags and the session that honours them.

Usage::

    add_observability_args(parser)
    args = parser.parse_args(argv)
    with observe(args.trace, args.profile, args.metrics):
        ...   # run; exporters fire on exit (also on error)
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, Optional

from .exporters import (
    flat_profile,
    write_chrome_trace,
    write_flat_profile,
    write_metrics,
)
from .tracer import Tracer, use_tracer

__all__ = ["add_observability_args", "main", "observe"]


def add_observability_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="PATH",
        help="write a Chrome-trace JSON of the run (open in "
        "chrome://tracing or Perfetto)",
    )
    group.add_argument(
        "--profile",
        metavar="PATH",
        help="write a flat text profile (self/cumulative wall time per "
        "span category); '-' prints it to stderr",
    )
    group.add_argument(
        "--metrics",
        metavar="PATH",
        help="write the process metrics registry (counters/gauges/"
        "histograms) as JSON",
    )


@contextmanager
def observe(
    trace_path: Optional[str] = None,
    profile_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
) -> Iterator[Optional[Tracer]]:
    """Install a tracer when any trace output was requested and export
    everything on the way out (even when the run raised — a partial
    trace of a failed run is exactly when you want one)."""
    wants_trace = bool(trace_path or profile_path)
    tracer = Tracer() if wants_trace else None
    try:
        if tracer is not None:
            with use_tracer(tracer):
                yield tracer
        else:
            yield None
    finally:
        if tracer is not None and trace_path:
            write_chrome_trace(tracer, trace_path)
        if tracer is not None and profile_path:
            if profile_path == "-":
                print(flat_profile(tracer), file=sys.stderr)
            else:
                write_flat_profile(tracer, profile_path)
        if metrics_path:
            write_metrics(metrics_path)


# ----------------------------------------------------------------------
# python -m repro.observability
# ----------------------------------------------------------------------

def _cmd_slo(args: argparse.Namespace) -> int:
    import json

    from .metrics import get_metrics
    from .slo import evaluate_slos, load_objectives

    objectives = load_objectives(args.objectives)
    if args.metrics:
        with open(args.metrics) as handle:
            snapshot = json.load(handle)
    else:
        snapshot = get_metrics().as_dict()
    report = evaluate_slos(objectives, snapshot)
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    if args.check and not report.ok:
        return 1
    return 0


def main(argv: Optional[list] = None) -> int:
    """``python -m repro.observability`` — SLO checks."""
    parser = argparse.ArgumentParser(
        prog="repro.observability",
        description="Evaluate SLOs against a metrics dump.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    slo = commands.add_parser(
        "slo", help="evaluate declarative objectives against metrics"
    )
    slo.add_argument(
        "--objectives",
        required=True,
        metavar="PATH",
        help="JSON objective file (e.g. benchmarks/slo/default.json)",
    )
    slo.add_argument(
        "--metrics",
        metavar="PATH",
        help="metrics JSON dump to evaluate (from a --metrics run); "
        "defaults to this process's live registry",
    )
    slo.add_argument(
        "--check",
        action="store_true",
        help="exit 1 when any objective breaches",
    )
    slo.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    slo.set_defaults(fn=_cmd_slo)

    args = parser.parse_args(argv)
    return args.fn(args)
