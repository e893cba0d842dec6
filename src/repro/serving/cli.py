"""``python -m repro.serving`` — serve, query, and inspect catalogs.

Subcommands::

    catalog  list the studies registered under a serving root
    query    answer one point/slice/topk query from factors
    serve    drive a synthetic query stream and print the latency
             summary (optionally seeding a demo catalog first)

``serve --demo`` registers small scenario-zoo ensembles (double
pendulum, Lorenz, epidemic) so the subsystem is explorable without
writing any registration code.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from ..exceptions import ReproError
from ..faults import add_fault_args, inject_faults
from ..observability import add_observability_args, observe
from .catalog import StudyCatalog
from .loadgen import run_load

#: Scenario-zoo systems the demo catalog registers.
DEMO_SYSTEMS = ("double_pendulum", "lorenz", "epidemic_seir")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="query factorized ensembles without reconstruction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="list registered studies")
    catalog.add_argument("--root", required=True, help="serving root dir")

    query = sub.add_parser("query", help="answer one query from factors")
    query.add_argument("--root", required=True, help="serving root dir")
    query.add_argument("--study", required=True, help="registered study key")
    kind = query.add_subparsers(dest="kind", required=True)
    point = kind.add_parser("point", help="one cell value")
    point.add_argument(
        "index", help="comma-separated cell index, e.g. 1,2,0,3"
    )
    slc = kind.add_parser("slice", help="one dense hyperplane")
    slc.add_argument("mode", type=int)
    slc.add_argument("index", type=int)
    topk = kind.add_parser("topk", help="k worst-explained cells")
    topk.add_argument("k", type=int)
    add_observability_args(query)
    add_fault_args(query)

    serve = sub.add_parser(
        "serve", help="drive a synthetic stream, print the summary"
    )
    serve.add_argument("--root", required=True, help="serving root dir")
    serve.add_argument(
        "--demo", action="store_true",
        help="register small scenario-zoo studies first if absent",
    )
    serve.add_argument(
        "--resolution", type=int, default=4,
        help="demo study resolution (default 4)",
    )
    serve.add_argument("--clients", type=int, default=100)
    serve.add_argument("--queries", type=int, default=10,
                       help="queries per client (default 10)")
    serve.add_argument("--kind", choices=("point", "slice", "topk"),
                       default="point")
    serve.add_argument("--max-batch", type=int, default=64)
    serve.add_argument("--no-batching", action="store_true",
                       help="serve one request per drain (the control)")
    serve.add_argument("--seed", type=int, default=0)
    add_observability_args(serve)
    add_fault_args(serve)
    return parser


def register_demo_studies(
    catalog: StudyCatalog, resolution: int = 4, seed: int = 7,
    density: float = 0.3, overwrite: bool = False,
) -> List[str]:
    """Register one budget-sampled ensemble per scenario-zoo system."""
    from ..core import EnsembleStudy
    from ..sampling import RandomSampler
    from ..simulation import make_system
    from ..tensor import SparseTensor

    keys = []
    for name in DEMO_SYSTEMS:
        key = f"demo-{name}"
        keys.append(key)
        if key in catalog and not overwrite:
            continue
        study = EnsembleStudy.create(make_system(name), resolution)
        shape = study.space.shape
        budget = max(1, int(density * study.space.n_cells_full))
        sample = RandomSampler(seed=seed).sample(shape, budget)
        values = study.oracle.cells(sample.coords)
        tensor = SparseTensor(shape, sample.coords, values)
        catalog.register(
            key, tensor, ranks=[2] * len(shape), overwrite=True
        )
    return keys


def _cmd_catalog(args: argparse.Namespace) -> int:
    catalog = StudyCatalog(args.root)
    if not len(catalog):
        print("(no studies registered)")
        return 0
    for key in catalog.keys():
        entry = catalog.entry(key)
        print(
            f"{key:<24} shape={'x'.join(map(str, entry.shape)):<16} "
            f"nnz={entry.nnz:<8} ranks={list(entry.ranks)}"
        )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import asyncio

    from .server import ServingServer

    catalog = StudyCatalog(args.root)

    async def run():
        async with ServingServer(catalog) as server:
            if args.kind == "point":
                index = [int(p) for p in args.index.split(",")]
                return await server.point(args.study, index)
            if args.kind == "slice":
                return await server.slice(args.study, args.mode, args.index)
            return await server.topk(args.study, args.k)

    result = asyncio.run(run())
    if args.kind == "point":
        print(f"{result:.12g}")
    elif args.kind == "slice":
        print(f"shape: {result.shape}")
        np.savetxt(
            sys.stdout, np.atleast_2d(result.reshape(result.shape[0], -1)),
            fmt="%.6g",
        )
    else:
        for index, stored, predicted, residual in result:
            print(
                f"{index}  stored={stored:.6g} predicted={predicted:.6g} "
                f"residual={residual:.6g}"
            )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    catalog = StudyCatalog(args.root)
    if args.demo:
        keys = register_demo_studies(catalog, resolution=args.resolution)
        print(f"demo studies: {', '.join(keys)}", file=sys.stderr)
    summary = run_load(
        catalog,
        kind=args.kind,
        n_clients=args.clients,
        queries_per_client=args.queries,
        batching=not args.no_batching,
        max_batch=args.max_batch,
        seed=args.seed,
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "catalog":
            return _cmd_catalog(args)
        with observe(
            getattr(args, "trace", None),
            getattr(args, "profile", None),
            getattr(args, "metrics", None),
        ), inject_faults(
            getattr(args, "fault_plan", None),
            getattr(args, "fault_seed", None),
        ):
            if args.command == "query":
                return _cmd_query(args)
            return _cmd_serve(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
