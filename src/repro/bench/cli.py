"""``python -m repro.bench`` — run, compare, and report benchmarks.

Subcommands::

    run      measure workloads and write BENCH_<suite>.json artifacts
    compare  verdict per workload between two artifact sets; exits 1
             on any regression (unless --warn-only)
    report   render artifacts as text tables

``run --quick`` switches every workload to CI-sized inputs; the mode
is recorded in the artifact, and ``compare`` only ever matches records
of the same mode — a quick run can never masquerade as a full one.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..exceptions import BenchError
from .compare import (
    NOISE_CAP,
    NOISE_FACTOR,
    NOISE_FLOOR,
    compare_paths,
    format_verdicts,
    has_regressions,
)
from .harness import BenchmarkRunner
from .report import format_documents, summarize_run
from .schema import bench_filename, load_document, write_document
from .workloads import get_workloads, size_for, suites


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="performance-trajectory harness (BENCH_*.json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="measure workloads, write artifacts")
    run.add_argument(
        "--quick",
        action="store_true",
        help="CI-sized inputs (smaller resolution/rank, fewer iterations)",
    )
    run.add_argument(
        "--suite",
        action="append",
        dest="suites",
        metavar="SUITE",
        help=f"suite(s) to run (default all: {', '.join(suites())})",
    )
    run.add_argument(
        "--output-dir",
        default=".",
        metavar="DIR",
        help="where BENCH_<suite>.json files land (default: cwd)",
    )
    run.add_argument(
        "--iterations", type=int, metavar="N",
        help="override timed iterations per workload",
    )
    run.add_argument(
        "--warmup", type=int, metavar="N",
        help="override warmup iterations per workload",
    )
    run.add_argument(
        "--trace-dir",
        metavar="DIR",
        help="also emit one Chrome trace per workload into DIR",
    )
    run.add_argument(
        "--no-memory",
        action="store_true",
        help="skip the tracemalloc pass (peak_memory_bytes reported 0)",
    )

    compare = sub.add_parser(
        "compare", help="verdicts between a baseline and a candidate"
    )
    compare.add_argument(
        "baseline", help="BENCH_*.json file or directory of them"
    )
    compare.add_argument(
        "candidate", help="BENCH_*.json file or directory of them"
    )
    compare.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (cross-machine CI)",
    )
    compare.add_argument(
        "--noise-floor", type=float, default=NOISE_FLOOR,
        help=f"minimum relative change treated as signal "
        f"(default {NOISE_FLOOR})",
    )
    compare.add_argument(
        "--noise-factor", type=float, default=NOISE_FACTOR,
        help=f"IQR multiplier for the noise band (default {NOISE_FACTOR})",
    )
    compare.add_argument(
        "--noise-cap", type=float, default=NOISE_CAP,
        help=f"threshold ceiling so big slowdowns always gate "
        f"(default {NOISE_CAP})",
    )

    report = sub.add_parser("report", help="render artifacts as text")
    report.add_argument(
        "paths", nargs="+", help="BENCH_*.json files to render"
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    import os

    size = size_for("quick" if args.quick else "full")
    workloads = get_workloads(args.suites)
    selected_suites = sorted({w.suite for w in workloads})
    runner = BenchmarkRunner(
        size,
        iterations=args.iterations,
        warmup=args.warmup,
        trace_dir=args.trace_dir,
        measure_memory=not args.no_memory,
        progress=lambda line: print(line, file=sys.stderr),
    )
    os.makedirs(args.output_dir, exist_ok=True)
    docs = []
    for suite in selected_suites:
        doc = runner.run_suite(suite, workloads)
        path = os.path.join(args.output_dir, bench_filename(suite))
        write_document(doc, path)
        print(f"wrote {path}", file=sys.stderr)
        docs.append(doc)
    print(summarize_run(docs), file=sys.stderr)
    print(format_documents(docs))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    verdicts = compare_paths(
        [args.baseline],
        [args.candidate],
        floor=args.noise_floor,
        factor=args.noise_factor,
        cap=args.noise_cap,
    )
    print(format_verdicts(verdicts))
    if has_regressions(verdicts):
        if args.warn_only:
            print(
                "WARNING: regressions detected (exit 0 due to --warn-only)",
                file=sys.stderr,
            )
            return 0
        print("FAIL: performance regressions detected", file=sys.stderr)
        return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    docs = [load_document(path) for path in args.paths]
    print(format_documents(docs))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_report(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # output piped into head/less that exited early — not an error
        return 0
