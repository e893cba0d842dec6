"""FaultPlan / FaultSpec: validation, serialisation, determinism."""

import re
from pathlib import Path

import pytest

from repro.faults import (
    KINDS,
    SITES,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    plan_of,
)


class TestSpecValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault site"):
            FaultSpec(site="nope", kind="raise")

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault kind"):
            FaultSpec(site="runtime.task", kind="explode")

    def test_illegal_site_kind_combination(self):
        # Corruption only makes sense where there are bytes on disk.
        with pytest.raises(FaultPlanError, match="not injectable"):
            FaultSpec(site="runtime.task", kind="corrupt")
        with pytest.raises(FaultPlanError, match="not injectable"):
            FaultSpec(site="mapreduce.reduce", kind="drop-output")
        with pytest.raises(FaultPlanError, match="not injectable"):
            FaultSpec(site="cache.read", kind="crash-worker")

    def test_bad_budgets_rejected(self):
        with pytest.raises(FaultPlanError, match="times"):
            FaultSpec(site="runtime.task", kind="raise", times=0)
        with pytest.raises(FaultPlanError, match="after"):
            FaultSpec(site="runtime.task", kind="raise", after=-1)
        with pytest.raises(FaultPlanError, match="probability"):
            FaultSpec(site="runtime.task", kind="raise", probability=1.5)
        with pytest.raises(FaultPlanError, match="delay_seconds"):
            FaultSpec(site="runtime.task", kind="delay", delay_seconds=-1)

    def test_every_kind_has_at_least_one_site(self):
        for kind in KINDS:
            assert any(
                _allowed(site, kind) for site in SITES
            ), f"kind {kind} injectable nowhere"

    def test_target_glob_matching(self):
        spec = FaultSpec(site="mapreduce.map", kind="raise", target="map-*")
        assert spec.matches("map-0")
        assert spec.matches("map-17")
        assert not spec.matches("reduce-0")


def _allowed(site, kind):
    try:
        FaultSpec(site=site, kind=kind)
        return True
    except FaultPlanError:
        return False


class TestPlan:
    def test_round_trip_through_json_file(self, tmp_path):
        plan = plan_of(
            [
                FaultSpec(site="runtime.task", kind="raise",
                          target="phase1", message="boom"),
                FaultSpec(site="cache.read", kind="corrupt", target="*",
                          times=None, probability=0.5),
                FaultSpec(site="mapreduce.map", kind="delay",
                          target="map-0", delay_seconds=0.2, after=1),
            ],
            seed=42,
            name="round-trip",
        )
        path = tmp_path / "plan.json"
        plan.to_file(path)
        loaded = FaultPlan.from_file(path)
        assert loaded == plan
        assert loaded.seed == 42
        assert loaded.name == "round-trip"

    def test_auto_assigned_fault_ids_are_stable(self):
        plan = plan_of(
            [
                FaultSpec(site="runtime.task", kind="raise"),
                FaultSpec(site="cache.read", kind="corrupt"),
            ]
        )
        assert [s.fault_id for s in plan.faults] == ["fault-0", "fault-1"]

    def test_duplicate_fault_ids_rejected(self):
        with pytest.raises(FaultPlanError, match="duplicate fault_id"):
            plan_of(
                [
                    FaultSpec(site="runtime.task", kind="raise",
                              fault_id="x"),
                    FaultSpec(site="cache.read", kind="corrupt",
                              fault_id="x"),
                ]
            )

    def test_for_site_partitions_specs(self):
        plan = plan_of(
            [
                FaultSpec(site="runtime.task", kind="raise"),
                FaultSpec(site="runtime.task", kind="delay"),
                FaultSpec(site="cache.read", kind="corrupt"),
            ]
        )
        assert len(plan.for_site("runtime.task")) == 2
        assert len(plan.for_site("cache.read")) == 1
        assert plan.for_site("storage.block-read") == ()
        assert set(plan.sites) == {"runtime.task", "cache.read"}

    def test_bad_file_surfaces_plan_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.from_file(path)
        with pytest.raises(FaultPlanError, match="cannot read"):
            FaultPlan.from_file(tmp_path / "missing.json")

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault spec keys"):
            FaultPlan.from_dict(
                {"faults": [{"site": "runtime.task", "kind": "raise",
                             "typo": 1}]}
            )

    def test_unsupported_version_rejected(self):
        with pytest.raises(FaultPlanError, match="version"):
            FaultPlan.from_dict({"version": 9, "faults": []})


class TestChance:
    def test_probability_bounds_short_circuit(self):
        plan = plan_of(
            [FaultSpec(site="runtime.task", kind="raise", probability=1.0)]
        )
        assert all(plan.chance(plan.faults[0], n) for n in range(1, 50))
        zero = plan_of(
            [FaultSpec(site="runtime.task", kind="raise", times=None,
                       probability=0.0)]
        )
        assert not any(zero.chance(zero.faults[0], n) for n in range(1, 50))

    def test_deterministic_across_plan_instances(self):
        def draws(seed):
            plan = plan_of(
                [FaultSpec(site="runtime.task", kind="raise", times=None,
                           probability=0.5)],
                seed=seed,
            )
            return [plan.chance(plan.faults[0], n) for n in range(1, 200)]

        assert draws(7) == draws(7)
        assert draws(7) != draws(8)  # seed actually matters

    def test_with_seed_changes_only_the_seed(self):
        plan = plan_of(
            [FaultSpec(site="runtime.task", kind="raise")], seed=1
        )
        reseeded = plan.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.faults == plan.faults

    def test_empirical_rate_tracks_probability(self):
        plan = plan_of(
            [FaultSpec(site="runtime.task", kind="raise", times=None,
                       probability=0.3)],
            seed=0,
        )
        hits = sum(plan.chance(plan.faults[0], n) for n in range(1, 2001))
        assert 0.2 < hits / 2000 < 0.4


DOC = Path(__file__).resolve().parents[2] / "docs" / "fault-injection.md"


def _doc_table(heading: str):
    """The rows of the first table under ``### <heading>`` in the
    fault-injection guide, each as its list of cells."""
    section = DOC.read_text().split(f"### {heading}\n", 1)[1]
    rows = []
    for line in section.splitlines():
        if rows and not line.startswith("|"):
            break
        if line.startswith("|") and not line.startswith("|---"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows[1:]  # drop the header row


class TestGuide:
    """docs/fault-injection.md lists exactly the sites and site/kind
    pairs the plan validates, so the tables cannot drift."""

    def test_sites_table_names_every_site(self):
        documented = [re.fullmatch(r"`(.+)`", row[0]).group(1)
                      for row in _doc_table("Sites")]
        assert sorted(documented) == sorted(SITES)

    def test_kinds_table_lists_each_kinds_valid_sites(self):
        rows = {re.fullmatch(r"`(.+)`", row[0]).group(1): row[2]
                for row in _doc_table("Kinds")}
        assert sorted(rows) == sorted(KINDS)
        for kind, cell in rows.items():
            named = re.findall(r"`([^`]+)`", cell)
            if named:  # "all" and prose summaries name no site
                valid = [site for site in SITES if _allowed(site, kind)]
                assert sorted(named) == sorted(valid), kind
