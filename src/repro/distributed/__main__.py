"""``python -m repro.distributed`` — a self-contained traced D-M2TD run.

Runs the canonical small D-M2TD problem (the same ensemble the test
suite pins) through the MapReduce engine on a chosen worker venue, with
the full observability surface one flag away::

    M2TD_TRANSPORT=process python -m repro.distributed \
        --workers 4 --transport process --trace trace.json \
        --metrics metrics.json

This is what the CI observability job runs: a live 4-worker pool whose
merged Chrome trace (one pid lane per worker process) is uploaded as
an artifact and whose metrics dump feeds ``repro.observability slo
--check``.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ..faults.cli import add_fault_args, inject_faults
from ..observability import add_observability_args, get_metrics, observe, span
from .cli import add_worker_args, apply_worker_args


def _canonical_problem():
    """The test suite's canonical D-M2TD problem (see tests/conftest)."""
    from ..sampling import PFPartition
    from ..tensor import SparseTensor

    partition = PFPartition((4, 4, 4, 4, 4), (4,), (0, 1), (2, 3))
    generator = np.random.default_rng(0)
    x1 = SparseTensor.from_dense(
        generator.standard_normal(partition.sub_shape(1)) + 2,
        keep_zeros=True,
    )
    x2 = SparseTensor.from_dense(
        generator.standard_normal(partition.sub_shape(2)) + 2,
        keep_zeros=True,
    )
    return x1, x2, partition, [2] * 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.distributed",
        description="Run the canonical D-M2TD problem on a supervised "
        "worker pool, with tracing and metrics one flag away.",
    )
    parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="worker pool width (default 4)",
    )
    parser.add_argument(
        "--variant", default="select", choices=("avg", "select"),
        help="M2TD factor-stitching variant (default select)",
    )
    parser.add_argument(
        "--repeats", type=int, default=1, metavar="N",
        help="run the decomposition N times (default 1)",
    )
    parser.add_argument(
        "--summary", metavar="PATH",
        help="write a JSON run summary (core norm, counters) to PATH; "
        "'-' prints it to stdout",
    )
    add_worker_args(parser)
    add_observability_args(parser)
    add_fault_args(parser)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    apply_worker_args(args)
    from .dm2td import distributed_m2td
    from .mapreduce import LocalMapReduceEngine

    x1, x2, partition, ranks = _canonical_problem()
    core_norm = 0.0
    with observe(args.trace, args.profile, args.metrics), inject_faults(
        args.fault_plan, args.fault_seed
    ):
        for repeat in range(max(1, args.repeats)):
            engine = LocalMapReduceEngine(n_workers=args.workers)
            try:
                with span("dm2td-demo", "experiment", repeat=repeat):
                    run = distributed_m2td(
                        x1, x2, partition, ranks,
                        variant=args.variant, engine=engine,
                    )
            finally:
                engine.close()
            core_norm = float(np.linalg.norm(run.result.tucker.core))
    registry = get_metrics()
    summary = {
        "workers": args.workers,
        "variant": args.variant,
        "core_norm": core_norm,
        "counters": {
            name: registry.as_dict()[name]["value"]
            for name in registry.names()
            if registry.as_dict()[name]["kind"] == "counter"
        },
    }
    if args.summary == "-":
        print(json.dumps(summary, indent=2, sort_keys=True))
    elif args.summary:
        with open(args.summary, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(
        f"D-M2TD ok: {args.workers} worker(s), core norm {core_norm:.6f}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
