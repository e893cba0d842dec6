"""End-to-end campaign runs: phased rounds, stopping rules, budget
safety, observability, and the run/resume state contract."""

import numpy as np
import pytest

from repro.campaigns import (
    CampaignOrchestrator,
    CampaignSpec,
    read_journal,
)
from repro.campaigns.cli import main as campaigns_main
from repro.core import EnsembleStudy
from repro.exceptions import (
    CampaignSpecError,
    CampaignStateError,
    FaultInjectionError,
)
from repro.faults import FaultInjector, FaultSpec, plan_of, use_injector
from repro.observability import Tracer, use_tracer
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.runtime import Runtime
from repro.sampling import budget_for_fractions
from repro.simulation import SimulationMeter, make_system

from .conftest import spec_with


def run_campaign(spec, epidemic_study, workdir=None, **kwargs):
    with CampaignOrchestrator(
        spec, workdir=workdir, study=epidemic_study, **kwargs
    ) as orchestrator:
        return orchestrator.run()


class TestEndToEnd:
    def test_success_delta_stops_within_budget(self, epidemic_study):
        """The headline contract: a generous success delta stops the
        campaign via the convergence rule with budget left over."""
        spec = spec_with(
            budget=432, success_delta=0.5, max_rounds=12
        )
        outcome = run_campaign(spec, epidemic_study)
        assert outcome.stop_reason == "converged"
        assert outcome.cells_simulated <= spec.budget
        assert outcome.budget_remaining > 0
        confirm = [r for r in outcome.rounds if r.phase == "confirm"]
        assert len(confirm) >= 2
        movement = abs(confirm[-2].metric - confirm[-1].metric)
        assert movement < spec.success_delta

    def test_phases_and_budget_accounting(self, epidemic_study):
        outcome = run_campaign(spec_with(), epidemic_study)
        assert outcome.rounds[0].phase == "explore"
        assert all(
            r.phase == "confirm" for r in outcome.rounds[1:]
        )
        spent = [r.spent_after for r in outcome.rounds]
        assert spent == sorted(spent)
        assert outcome.cells_simulated == spent[-1]
        assert outcome.cells_simulated <= outcome.spec.budget
        # per-round accounting is internally consistent
        previous = 0
        for r in outcome.rounds:
            assert r.spent_after - previous == r.probe_cost + r.alloc_cells
            new = sum(len(c) for c in r.new_cells.values())
            assert new == r.probe_cost + r.alloc_cells
            previous = r.spent_after

    def test_max_rounds_stop(self, epidemic_study):
        outcome = run_campaign(
            spec_with(max_rounds=2, budget=432), epidemic_study
        )
        assert outcome.stop_reason == "max-rounds"
        confirm = [r for r in outcome.rounds if r.phase == "confirm"]
        assert len(confirm) == 2

    def test_budget_exhausted_stop(self, epidemic_study):
        outcome = run_campaign(
            spec_with(budget=80, batch=40, max_rounds=12),
            epidemic_study,
        )
        assert outcome.stop_reason == "budget-exhausted"
        assert outcome.budget_remaining == 0
        assert outcome.cells_simulated == 80

    def test_space_exhausted_stop(self, epidemic_study):
        """A budget larger than the whole sub-space ends only when
        every cell is covered."""
        outcome = run_campaign(
            spec_with(
                budget=432 * 2, batch=100, max_rounds=50,
                explore_fraction=1.0, explore_replicates=6,
            ),
            epidemic_study,
        )
        assert outcome.stop_reason == "space-exhausted"
        assert outcome.cells_simulated <= 432

    def test_uniform_allocation_runs(self, epidemic_study):
        outcome = run_campaign(
            spec_with(allocation="uniform"), epidemic_study
        )
        assert outcome.stop_reason in (
            "converged", "budget-exhausted", "max-rounds"
        )

    def test_deterministic_across_runs(self, epidemic_study):
        first = run_campaign(spec_with(), epidemic_study)
        second = run_campaign(spec_with(), epidemic_study)
        assert first.payload() == second.payload()
        assert [r.body() for r in first.rounds] == [
            r.body() for r in second.rounds
        ]

    def test_seed_changes_the_campaign(self, epidemic_study):
        first = run_campaign(spec_with(), epidemic_study)
        other = run_campaign(spec_with(seed=8), epidemic_study)
        assert first.payload() != other.payload()

    def test_infeasible_explore_budget(self, epidemic_study):
        with pytest.raises(CampaignSpecError) as excinfo:
            CampaignOrchestrator(
                spec_with(
                    budget=24, batch=24, explore_fraction=1.0,
                    explore_replicates=6,
                ),
                study=epidemic_study,
            )
        assert excinfo.value.field == "budget"


class TestObservability:
    def test_campaign_meters(self, epidemic_study):
        registry = MetricsRegistry()
        with use_metrics(registry):
            outcome = run_campaign(spec_with(), epidemic_study)
        snapshot = registry.snapshot()
        assert snapshot["campaign.rounds"]["value"] == len(
            outcome.rounds
        )
        assert snapshot["campaign.cells_simulated"]["value"] == (
            outcome.cells_simulated
        )
        assert snapshot["campaign.budget_remaining"]["value"] == (
            outcome.budget_remaining
        )

    def test_campaign_spans(self, epidemic_study):
        tracer = Tracer()
        with use_tracer(tracer):
            outcome = run_campaign(spec_with(), epidemic_study)
        campaign_spans = [
            s for s in tracer.iter_spans() if s.category == "campaign"
        ]
        names = {s.name for s in campaign_spans}
        assert f"campaign:{outcome.spec.name}" in names
        assert "round-0" in names
        # one span per round, nested under the campaign root
        rounds = [s for s in campaign_spans if s.name.startswith("round-")]
        assert len(rounds) == len(outcome.rounds)

    def test_round_spans_carry_decisions(self, epidemic_study):
        with use_tracer(Tracer()) as tracer:
            outcome = run_campaign(spec_with(), epidemic_study)
        rounds = [
            s for s in tracer.iter_spans()
            if s.category == "campaign" and s.name.startswith("round-")
        ]
        for sp, record in zip(rounds, outcome.rounds):
            assert sp.name == f"round-{record.index}"
            assert sp.attrs["probe_pivot"] == record.probe_pivot
            assert sp.attrs["alloc_cells"] == record.alloc_cells
            assert sp.attrs["metric"] == record.metric
        assert rounds[-1].attrs["spent_after"] == outcome.cells_simulated


class TestStateContract:
    def test_run_refuses_existing_progress(
        self, campaign_spec, epidemic_study, tmp_path
    ):
        workdir = str(tmp_path / "campaign")
        run_campaign(campaign_spec, epidemic_study, workdir=workdir)
        with pytest.raises(CampaignStateError):
            run_campaign(campaign_spec, epidemic_study, workdir=workdir)

    def test_resume_rejects_foreign_journal(
        self, campaign_spec, epidemic_study, tmp_path
    ):
        workdir = str(tmp_path / "campaign")
        run_campaign(campaign_spec, epidemic_study, workdir=workdir)
        other = spec_with(seed=9)
        with CampaignOrchestrator(
            other, workdir=workdir, study=epidemic_study
        ) as orchestrator:
            with pytest.raises(CampaignStateError):
                orchestrator.resume()

    def test_resume_on_empty_workdir_is_a_fresh_run(
        self, campaign_spec, epidemic_study, tmp_path
    ):
        workdir = str(tmp_path / "campaign")
        with CampaignOrchestrator(
            campaign_spec, workdir=workdir, study=epidemic_study
        ) as orchestrator:
            outcome = orchestrator.resume()
        assert outcome.replayed_rounds == 0
        assert outcome.stop_reason is not None

    def test_journal_readable_without_running(
        self, campaign_spec, epidemic_study, tmp_path
    ):
        workdir = str(tmp_path / "campaign")
        outcome = run_campaign(
            campaign_spec, epidemic_study, workdir=workdir
        )
        state, _ = read_journal(workdir)
        assert state.stop_reason == outcome.stop_reason
        assert state.spent == outcome.cells_simulated
        assert len(state.rounds) == len(outcome.rounds)
        assert state.fingerprint == campaign_spec.fingerprint()


class TestTruthMetrics:
    def test_truth_rmse_recorded_and_improving(self, epidemic_study):
        outcome = run_campaign(
            spec_with(), epidemic_study, truth_metrics=True
        )
        values = [r.truth_rmse for r in outcome.rounds]
        assert all(v is not None and np.isfinite(v) for v in values)
        assert values[-1] < values[0]

    def test_truth_rmse_off_by_default(self, epidemic_study):
        outcome = run_campaign(spec_with(), epidemic_study)
        assert all(r.truth_rmse is None for r in outcome.rounds)


class TestSimulationCacheKeys:
    def test_studies_of_one_spec_share_no_cells(self):
        """Two campaigns of one spec on one runtime, over studies whose
        true parameters differ: the second campaign's cells are its own
        study's, exactly what it gets on a fresh runtime."""
        system = make_system("epidemic_seir")
        other = {"beta": 0.3, "sigma": 0.3, "gamma": 0.2, "i0": 0.02}
        spec = spec_with()

        def payload(runtime, true_params=None):
            study = EnsembleStudy.create(
                system, 6, true_params=true_params, runtime=runtime
            )
            with CampaignOrchestrator(
                spec, runtime=runtime, study=study
            ) as orchestrator:
                return orchestrator.run().payload()

        with Runtime() as shared:
            first = payload(shared)
            second = payload(shared, other)
        with Runtime() as fresh:
            alone = payload(fresh, other)
        assert second == alone
        assert alone != first


class TestSimulationMetering:
    """The meter is charged the runs the campaign's cells made the
    study's oracle integrate, and no others."""

    def test_runs_the_study_already_sampled_are_free(self):
        study = EnsembleStudy.create(make_system("double_pendulum"), 6)
        partition = study.default_partition()
        study.sample_sub_ensembles(
            partition, budget_for_fractions(partition), seed=0
        )
        meter = SimulationMeter()
        outcome = run_campaign(
            spec_with(scenario="double_pendulum"), study, meter=meter
        )
        assert outcome.cells_simulated > 0
        assert meter.runs == 0

    @pytest.mark.parametrize("truth_metrics", [False, True])
    def test_own_study_never_simulates_the_full_space(self, truth_metrics):
        meter = SimulationMeter()
        with CampaignOrchestrator(
            spec_with(), meter=meter, truth_metrics=truth_metrics
        ) as orchestrator:
            outcome = orchestrator.run()
        space = orchestrator.study.space
        full = space.n_simulations_full
        assert outcome.cells_simulated > 0
        assert 0 < meter.runs < full
        assert meter.cells == meter.runs * space.time_resolution
        simulated = orchestrator.study.oracle.n_simulated
        assert simulated == (full if truth_metrics else meter.runs)


class TestOneRequestPerPhase:
    """Each phase asks the study's oracle once for both sides' cells."""

    #: Runs the conftest campaign integrates on a fresh study (the same
    #: count as when each side was requested on its own).
    RUNS = 47

    def test_time_pivot_integrates_once_per_round(self):
        """With a time pivot the confirm cells land on runs the probes
        integrated, so only explore and the probes integrate."""
        meter = SimulationMeter()
        with use_tracer(Tracer()) as tracer:
            with CampaignOrchestrator(spec_with(), meter=meter) as orch:
                outcome = orch.run()
        integrations = [
            s for s in tracer.iter_spans() if s.name == "simulate-fibers"
        ]
        assert len(outcome.rounds) == 5
        assert len(integrations) == len(outcome.rounds)
        assert meter.runs == self.RUNS
        assert outcome.executed_sim_tasks == len(outcome.rounds)
        assert outcome.cached_sim_tasks == len(outcome.rounds) - 1

    def test_parameter_pivot_resume_replays_the_same_requests(
        self, tmp_path
    ):
        """A parameter pivot puts confirm cells on runs of their own,
        so replay must group each round as its probe and confirm
        requests did: a campaign interrupted at round 2 resumes off
        the runtime cache an uninterrupted run filled, integrating
        nothing, and finishes byte-identical to it."""
        spec = spec_with(pivot="beta")

        def orchestrator(workdir, runtime, meter=None):
            return CampaignOrchestrator(
                spec, workdir=str(tmp_path / workdir), runtime=runtime,
                meter=meter,
            )

        with Runtime() as runtime:
            with orchestrator("clean", runtime) as clean:
                expected = clean.run()
            plan = plan_of([FaultSpec(
                site="campaign.round", kind="raise", target="*/round-2",
            )])
            with use_injector(FaultInjector(plan)):
                with pytest.raises(FaultInjectionError):
                    with orchestrator("cut", runtime) as cut:
                        cut.run()
            meter = SimulationMeter()
            with orchestrator("cut", runtime, meter) as resumed:
                outcome = resumed.resume()
        assert outcome.replayed_rounds == 2
        assert meter.runs == 0
        assert outcome.executed_sim_tasks == 0
        assert outcome.payload() == expected.payload()
        journals = [
            (tmp_path / workdir / "journal.jsonl").read_bytes()
            for workdir in ("clean", "cut")
        ]
        assert journals[0] == journals[1]


class TestCli:
    def write_spec(self, tmp_path):
        import json

        from .conftest import SPEC_FIELDS

        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(SPEC_FIELDS))
        return str(path)

    def test_run_report_resume(self, tmp_path, capsys):
        spec_path = self.write_spec(tmp_path)
        workdir = str(tmp_path / "wd")
        assert campaigns_main(
            ["run", "--spec", spec_path, "--workdir", workdir]
        ) == 0
        out = capsys.readouterr().out
        assert "epidemic_seir-campaign" in out
        # time pivot: explore and each probe integrate, the confirm
        # requests read runs the probes integrated
        rounds = len(read_journal(workdir)[0].rounds)
        assert (
            f"sim tasks  {rounds} integrated, {rounds - 1} served "
            "without integrating"
        ) in out
        assert campaigns_main(["report", "--workdir", workdir]) == 0
        assert "explore" in capsys.readouterr().out
        # run again refuses; resume replays
        assert campaigns_main(
            ["run", "--spec", spec_path, "--workdir", workdir]
        ) == 1
        assert "use resume" in capsys.readouterr().err
        assert campaigns_main(
            ["resume", "--spec", spec_path, "--workdir", workdir]
        ) == 0
        # every round replays from the journal: no round graph runs
        assert (
            "sim tasks  0 integrated, 0 served without integrating"
        ) in capsys.readouterr().out

    def test_report_json(self, tmp_path, capsys):
        import json

        spec_path = self.write_spec(tmp_path)
        workdir = str(tmp_path / "wd")
        campaigns_main(
            ["run", "--spec", spec_path, "--workdir", workdir]
        )
        capsys.readouterr()
        assert campaigns_main(
            ["report", "--workdir", workdir, "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stop_reason"] is not None
        assert payload["rounds"]

    def test_bad_spec_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"scenario": "epidemic_seir"}')
        assert campaigns_main(["run", "--spec", str(path)]) == 1
        assert "error:" in capsys.readouterr().err
