"""``python -m repro.campaigns`` — run, resume and report campaigns.

Three subcommands around one workdir:

``run``
    Start a campaign from a YAML/JSON spec file.  Refuses a workdir
    that already holds progress (that is what ``resume`` is for).
``resume``
    Continue an interrupted campaign: completed rounds replay from
    the journal, a round the journal lost re-runs off the result
    cache (where the study's oracle cached each of its requests), and
    the campaign carries on to its stopping rule.
``report``
    Print a round-by-round table from the journal without running
    anything.

Observability (``--trace``/``--profile``/``--metrics``) and fault
injection (``--fault-plan``/``--fault-seed``) compose the same way as
every other entrypoint in the package.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from ..exceptions import ReproError
from ..faults.cli import add_fault_args, inject_faults
from ..observability.cli import add_observability_args, observe
from ..runtime import Runtime
from .orchestrator import CAMPAIGN_RETRY, CampaignOrchestrator, CampaignOutcome
from .spec import CampaignSpec
from .state import read_journal


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--spec", required=True, metavar="FILE",
        help="campaign spec file (.yaml/.yml/.json)",
    )
    parser.add_argument(
        "--workdir", metavar="DIR",
        help="campaign state directory (journal + result cache); "
        "omit for an ephemeral in-memory run",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="runtime pool width (default 1: inline, deterministic)",
    )
    parser.add_argument(
        "--truth-metrics", action="store_true",
        help="record an evaluation-only ground-truth RMSE per round "
        "(never consulted by the stopping rule)",
    )
    add_observability_args(parser)
    add_fault_args(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.campaigns",
        description="Adaptive simulation campaigns on the task-graph "
        "runtime (explore sweep, error-guided confirm rounds, "
        "journaled resume).",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser(
        "run", help="start a campaign from a spec file"
    )
    _add_common(run)
    resume = commands.add_parser(
        "resume", help="continue an interrupted campaign"
    )
    _add_common(resume)
    report = commands.add_parser(
        "report", help="print the journal of a campaign workdir"
    )
    report.add_argument(
        "--workdir", required=True, metavar="DIR",
        help="campaign state directory to report on",
    )
    report.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of a table",
    )
    return parser


def _print_outcome(outcome: CampaignOutcome) -> None:
    print(f"campaign   {outcome.spec.name}")
    print(f"scenario   {outcome.spec.scenario} "
          f"(resolution {outcome.spec.resolution})")
    print(f"stop       {outcome.stop_reason}")
    print(f"rounds     {len(outcome.rounds)} "
          f"({outcome.replayed_rounds} replayed)")
    print(f"cells      {outcome.cells_simulated} simulated, "
          f"{outcome.budget_remaining} budget left")
    print(f"sim tasks  {outcome.executed_sim_tasks} integrated, "
          f"{outcome.cached_sim_tasks} served without integrating")
    print()
    _print_rounds([r.body() for r in outcome.rounds])


def _print_rounds(bodies: List[dict]) -> None:
    header = f"{'round':>5} {'phase':<8} {'probe':>5} {'cells':>6} " \
             f"{'spent':>6} {'metric':>12}"
    extra = any("truth_rmse" in body for body in bodies)
    if extra:
        header += f" {'truth rmse':>12}"
    print(header)
    for body in bodies:
        line = (
            f"{body['index']:>5} {body['phase']:<8} "
            f"{body['probe_cost']:>5} {body['alloc_cells']:>6} "
            f"{body['spent_after']:>6} {body['metric']:>12.6f}"
        )
        if "truth_rmse" in body:
            line += f" {body['truth_rmse']:>12.6f}"
        print(line)


def _cmd_run_or_resume(args: argparse.Namespace, resume: bool) -> int:
    spec = CampaignSpec.from_file(args.spec)
    with observe(args.trace, args.profile, args.metrics):
        with inject_faults(args.fault_plan, args.fault_seed):
            cache_dir = (
                os.path.join(args.workdir, "cache")
                if args.workdir else None
            )
            with Runtime(
                workers=args.workers,
                cache_dir=cache_dir,
                default_retry=CAMPAIGN_RETRY,
            ) as runtime:
                orchestrator = CampaignOrchestrator(
                    spec,
                    workdir=args.workdir,
                    runtime=runtime,
                    truth_metrics=args.truth_metrics,
                )
                outcome = (
                    orchestrator.resume() if resume
                    else orchestrator.run()
                )
    _print_outcome(outcome)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    state, _ = read_journal(args.workdir)
    if args.as_json:
        print(json.dumps({
            "fingerprint": state.fingerprint,
            "spec": state.spec_payload,
            "rounds": [r.body() for r in state.rounds],
            "stop_reason": state.stop_reason,
            "spent": state.spent,
            "quarantined_lines": state.quarantined,
        }, indent=2))
        return 0
    name = (state.spec_payload or {}).get("name", "?")
    print(f"campaign   {name}")
    print(f"stop       {state.stop_reason or '(in progress)'}")
    print(f"spent      {state.spent}")
    if state.quarantined:
        print(f"journal    {state.quarantined} damaged line(s) "
              "quarantined")
    print()
    _print_rounds([r.body() for r in state.rounds])
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run_or_resume(args, resume=False)
        if args.command == "resume":
            return _cmd_run_or_resume(args, resume=True)
        return _cmd_report(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
