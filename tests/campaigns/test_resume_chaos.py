"""Chaos suite for campaign resume.

Kill a campaign mid-round (``campaign.round`` raise / crash-worker),
bit-flip its journal (``campaign.state`` corrupt), or fault the task
graph underneath it (``runtime.task``, ``cache.read``) — in every case
a plain ``resume`` must finish the campaign with a journal and a final
decomposition byte-identical to an uninterrupted run, and the healed
faults must be metered as ``faults.recovered``.

Seeded by ``M2TD_CHAOS_SEED`` like the rest of the chaos tests: CI
runs a seed matrix, failures replay locally from one exported value.
"""

import os
import shutil

import pytest

from repro.campaigns import CampaignOrchestrator
from repro.exceptions import FaultInjectionError
from repro.faults import FaultInjector, FaultSpec, plan_of, use_injector
from repro.observability.metrics import MetricsRegistry, use_metrics

from .conftest import spec_with


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """The uninterrupted baseline every chaos scenario must match."""
    workdir = str(tmp_path_factory.mktemp("campaign-clean") / "wd")
    spec = spec_with()
    with CampaignOrchestrator(spec, workdir=workdir) as orchestrator:
        outcome = orchestrator.run()
    with open(os.path.join(workdir, "journal.jsonl"), "rb") as handle:
        journal = handle.read()
    return {
        "spec": spec,
        "journal": journal,
        "payload": outcome.payload(),
        "stop_reason": outcome.stop_reason,
    }


def journal_bytes(workdir):
    with open(os.path.join(workdir, "journal.jsonl"), "rb") as handle:
        return handle.read()


def interrupt_then_resume(workdir, plan, clean_run, expect_raise=True):
    """Run under ``plan`` (expecting the injected death), then resume
    fault-free and hand back (outcome, injector summary)."""
    spec = clean_run["spec"]
    injector = FaultInjector(plan)
    if expect_raise:
        with use_injector(injector):
            with pytest.raises(FaultInjectionError):
                with CampaignOrchestrator(
                    spec, workdir=workdir
                ) as orchestrator:
                    orchestrator.run()
    else:
        with use_injector(injector):
            with CampaignOrchestrator(
                spec, workdir=workdir
            ) as orchestrator:
                orchestrator.run()
    with CampaignOrchestrator(spec, workdir=workdir) as resumed:
        outcome = resumed.resume()
    return outcome, injector.summary()


class TestRoundInterrupts:
    @pytest.mark.parametrize("round_index", [1, 2, 3])
    def test_raise_mid_campaign_resumes_byte_identical(
        self, round_index, clean_run, chaos_seed, tmp_path
    ):
        workdir = str(tmp_path / "wd")
        plan = plan_of(
            [FaultSpec(
                site="campaign.round", kind="raise",
                target=f"*/round-{round_index}",
            )],
            seed=chaos_seed,
        )
        outcome, summary = interrupt_then_resume(
            workdir, plan, clean_run
        )
        assert summary["injected"] == 1
        assert outcome.replayed_rounds == round_index
        assert outcome.stop_reason == clean_run["stop_reason"]
        assert journal_bytes(workdir) == clean_run["journal"]
        assert outcome.payload() == clean_run["payload"]

    def test_crash_worker_kind_also_heals(
        self, clean_run, chaos_seed, tmp_path
    ):
        workdir = str(tmp_path / "wd")
        plan = plan_of(
            [FaultSpec(
                site="campaign.round", kind="crash-worker",
                target="*/round-2",
            )],
            seed=chaos_seed,
        )
        outcome, _ = interrupt_then_resume(workdir, plan, clean_run)
        assert journal_bytes(workdir) == clean_run["journal"]
        assert outcome.payload() == clean_run["payload"]

    def test_repeated_interrupts_still_converge(
        self, clean_run, chaos_seed, tmp_path
    ):
        """Die in round 1, resume and die in round 3, resume again."""
        workdir = str(tmp_path / "wd")
        spec = clean_run["spec"]
        for round_index in (1, 3):
            plan = plan_of(
                [FaultSpec(
                    site="campaign.round", kind="raise",
                    target=f"*/round-{round_index}",
                )],
                seed=chaos_seed,
            )
            with use_injector(FaultInjector(plan)):
                with pytest.raises(FaultInjectionError):
                    with CampaignOrchestrator(
                        spec, workdir=workdir
                    ) as orchestrator:
                        orchestrator.resume()
        with CampaignOrchestrator(spec, workdir=workdir) as final:
            outcome = final.resume()
        assert journal_bytes(workdir) == clean_run["journal"]
        assert outcome.payload() == clean_run["payload"]


class TestJournalCorruption:
    def test_corrupt_journal_quarantined_and_recovered(
        self, clean_run, chaos_seed, tmp_path
    ):
        workdir = str(tmp_path / "wd")
        spec = clean_run["spec"]
        with CampaignOrchestrator(spec, workdir=workdir) as first:
            first.run()
        plan = plan_of(
            [FaultSpec(site="campaign.state", kind="corrupt")],
            seed=chaos_seed,
        )
        injector = FaultInjector(plan)
        registry = MetricsRegistry()
        with use_metrics(registry), use_injector(injector):
            with CampaignOrchestrator(spec, workdir=workdir) as again:
                outcome = again.resume()
        summary = injector.summary()
        assert summary["injected"] == 1
        assert summary["recovered"] >= 1
        snapshot = registry.snapshot()
        assert snapshot["faults.recovered"]["value"] >= 1
        assert snapshot["campaign.journal_quarantined"]["value"] >= 1
        # the healed journal and model match the clean run exactly
        assert journal_bytes(workdir) == clean_run["journal"]
        assert outcome.payload() == clean_run["payload"]

    def test_corrupt_resume_runs_off_the_cache(
        self, clean_run, chaos_seed, tmp_path
    ):
        """Rounds lost to journal damage re-run as pure cache hits —
        zero integrator work is re-done."""
        workdir = str(tmp_path / "wd")
        spec = clean_run["spec"]
        with CampaignOrchestrator(spec, workdir=workdir) as first:
            first.run()
        plan = plan_of(
            [FaultSpec(site="campaign.state", kind="corrupt")],
            seed=chaos_seed,
        )
        with use_injector(FaultInjector(plan)):
            with CampaignOrchestrator(spec, workdir=workdir) as again:
                outcome = again.resume()
        assert outcome.executed_sim_tasks == 0
        assert again.meter.cells == 0
        assert again.meter.runs == 0

    def test_truncated_tail_is_dropped(self, clean_run, tmp_path):
        """A kill mid-append leaves a partial line; resume drops it."""
        workdir = str(tmp_path / "wd")
        spec = clean_run["spec"]
        with CampaignOrchestrator(spec, workdir=workdir) as first:
            first.run()
        path = os.path.join(workdir, "journal.jsonl")
        with open(path, "rb") as handle:
            data = handle.read()
        with open(path, "wb") as handle:
            handle.write(data[:-40])  # tear the last record mid-line
        with CampaignOrchestrator(spec, workdir=workdir) as again:
            outcome = again.resume()
        assert journal_bytes(workdir) == clean_run["journal"]
        assert outcome.payload() == clean_run["payload"]


class TestGraphFaults:
    def test_task_faults_heal_inside_the_round(
        self, clean_run, chaos_seed, tmp_path
    ):
        """An injected simulate-task failure retries and the campaign
        never even notices — same journal, same model."""
        workdir = str(tmp_path / "wd")
        spec = clean_run["spec"]
        plan = plan_of(
            [
                FaultSpec(
                    site="runtime.task", kind="raise",
                    target="round-1:probe",
                ),
                FaultSpec(
                    site="runtime.task", kind="raise",
                    target="round-2:confirm",
                ),
            ],
            seed=chaos_seed,
        )
        injector = FaultInjector(plan)
        registry = MetricsRegistry()
        with use_metrics(registry), use_injector(injector):
            with CampaignOrchestrator(
                spec, workdir=workdir
            ) as orchestrator:
                outcome = orchestrator.run()
        summary = injector.summary()
        assert summary["injected"] == 2
        assert summary["recovered"] == 2
        assert registry.snapshot()["faults.recovered"]["value"] == 2
        assert journal_bytes(workdir) == clean_run["journal"]
        assert outcome.payload() == clean_run["payload"]

    def test_cache_read_corruption_heals(
        self, clean_run, chaos_seed, tmp_path
    ):
        """A rotten cache entry on resume is quarantined and the task
        recomputes; the campaign output does not change."""
        workdir = str(tmp_path / "wd")
        spec = clean_run["spec"]
        plan = plan_of(
            [FaultSpec(
                site="campaign.round", kind="raise", target="*/round-2",
            )],
            seed=chaos_seed,
        )
        with use_injector(FaultInjector(plan)):
            with pytest.raises(FaultInjectionError):
                with CampaignOrchestrator(
                    spec, workdir=workdir
                ) as orchestrator:
                    orchestrator.run()
        resume_plan = plan_of(
            [FaultSpec(site="cache.read", kind="corrupt", times=2)],
            seed=chaos_seed,
        )
        injector = FaultInjector(resume_plan)
        with use_injector(injector):
            with CampaignOrchestrator(spec, workdir=workdir) as again:
                outcome = again.resume()
        assert journal_bytes(workdir) == clean_run["journal"]
        assert outcome.payload() == clean_run["payload"]
        assert injector.summary()["recovered"] == (
            injector.summary()["injected"]
        )


class TestReplayEconomy:
    def test_finished_campaign_replays_without_simulating(
        self, clean_run, tmp_path
    ):
        workdir = str(tmp_path / "wd")
        spec = clean_run["spec"]
        with CampaignOrchestrator(spec, workdir=workdir) as first:
            first.run()
        with CampaignOrchestrator(spec, workdir=workdir) as again:
            outcome = again.resume()
        assert outcome.replayed_rounds == len(outcome.rounds)
        assert outcome.executed_sim_tasks == 0
        assert outcome.cached_sim_tasks == 0
        assert again.meter.cells == 0
        assert again.meter.runs == 0
        assert outcome.payload() == clean_run["payload"]
