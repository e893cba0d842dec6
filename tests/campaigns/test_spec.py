"""Spec-validation wall: every malformed campaign spec dies with a
typed, field-naming :class:`~repro.exceptions.CampaignSpecError` —
never a bare ``KeyError`` or a stack trace from deep inside numpy."""

import json

import pytest

from repro.campaigns import CampaignSpec
from repro.exceptions import (
    CampaignError,
    CampaignSpecError,
    ReproError,
)

GOOD = {
    "scenario": "epidemic_seir",
    "budget": 200,
    "batch": 24,
    "success_delta": 0.001,
}


def make(**overrides):
    payload = dict(GOOD)
    payload.update(overrides)
    return CampaignSpec.from_dict(payload)


class TestTyping:
    def test_spec_error_is_campaign_error_and_value_error(self):
        error = CampaignSpecError("budget", "bad")
        assert isinstance(error, CampaignError)
        assert isinstance(error, ReproError)
        assert isinstance(error, ValueError)

    def test_error_carries_field_and_detail(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            make(budget=0)
        assert excinfo.value.field == "budget"
        assert "budget" in str(excinfo.value)

    def test_error_survives_pickling(self):
        import pickle

        error = CampaignSpecError("metric", "unknown value")
        clone = pickle.loads(pickle.dumps(error))
        assert clone.field == "metric"
        assert clone.detail == "unknown value"


class TestRequiredFields:
    @pytest.mark.parametrize(
        "missing", ["scenario", "budget", "batch", "success_delta"]
    )
    def test_missing_required_field_names_it(self, missing):
        payload = {k: v for k, v in GOOD.items() if k != missing}
        with pytest.raises(CampaignSpecError) as excinfo:
            CampaignSpec.from_dict(payload)
        assert excinfo.value.field == missing

    def test_unknown_field_names_it(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            CampaignSpec.from_dict({**GOOD, "bugdet": 100})
        assert excinfo.value.field == "bugdet"

    def test_non_mapping_payload(self):
        with pytest.raises(CampaignSpecError):
            CampaignSpec.from_dict(["scenario", "budget"])


class TestFieldValidation:
    def test_unknown_scenario(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            make(scenario="cold_fusion")
        assert excinfo.value.field == "scenario"

    @pytest.mark.parametrize("budget", [0, -5, 2.5, "lots", True])
    def test_bad_budget(self, budget):
        with pytest.raises(CampaignSpecError) as excinfo:
            make(budget=budget)
        assert excinfo.value.field == "budget"

    @pytest.mark.parametrize("field", ["batch", "probe_factor"])
    @pytest.mark.parametrize("value", [0, -1, 2.5])
    def test_bad_round_size(self, field, value):
        with pytest.raises(CampaignSpecError) as excinfo:
            make(**{field: value})
        assert excinfo.value.field == field

    def test_batch_exceeding_budget(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            make(budget=10, batch=11)
        assert excinfo.value.field == "batch"

    @pytest.mark.parametrize(
        "delta", [-0.1, float("nan"), float("inf"), "small", None]
    )
    def test_bad_success_delta(self, delta):
        with pytest.raises(CampaignSpecError) as excinfo:
            make(success_delta=delta)
        assert excinfo.value.field == "success_delta"

    def test_zero_success_delta_is_legal(self):
        assert make(success_delta=0.0).success_delta == 0.0

    def test_unknown_metric(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            make(metric="vibes")
        assert excinfo.value.field == "metric"

    def test_unknown_allocation(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            make(allocation="psychic")
        assert excinfo.value.field == "allocation"

    def test_unknown_variant(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            make(variant="mash")
        assert excinfo.value.field == "variant"

    @pytest.mark.parametrize("fraction", [0.0, -0.2, 1.5, "half"])
    def test_bad_explore_fraction(self, fraction):
        with pytest.raises(CampaignSpecError) as excinfo:
            make(explore_fraction=fraction)
        assert excinfo.value.field == "explore_fraction"

    @pytest.mark.parametrize("seed", [-1, -(2**40)])
    def test_negative_seed(self, seed):
        # numpy's generator rejects a negative seed only once the first
        # round draws, with an untyped ValueError.
        with pytest.raises(CampaignSpecError) as excinfo:
            make(seed=seed)
        assert excinfo.value.field == "seed"
        with pytest.raises(CampaignSpecError) as excinfo:
            CampaignSpec(**dict(GOOD, seed=seed))
        assert excinfo.value.field == "seed"

    def test_empty_pivot(self):
        with pytest.raises(CampaignSpecError) as excinfo:
            make(pivot="")
        assert excinfo.value.field == "pivot"

    def test_default_name_derives_from_scenario(self):
        assert make().name == "epidemic_seir-campaign"
        assert make(name="pinned").name == "pinned"


class TestFiles:
    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(GOOD))
        spec = CampaignSpec.from_file(str(path))
        assert spec.scenario == "epidemic_seir"
        assert spec.budget == 200

    def test_yaml_round_trip(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "campaign.yaml"
        path.write_text(yaml.safe_dump(GOOD))
        spec = CampaignSpec.from_file(str(path))
        assert spec.batch == 24

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text("{not json")
        with pytest.raises(CampaignSpecError) as excinfo:
            CampaignSpec.from_file(str(path))
        assert excinfo.value.field == str(path)

    def test_malformed_yaml_names_the_file(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "campaign.yaml"
        path.write_text("scenario: [unclosed")
        with pytest.raises(CampaignSpecError) as excinfo:
            CampaignSpec.from_file(str(path))
        assert excinfo.value.field == str(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CampaignSpecError):
            CampaignSpec.from_file(str(tmp_path / "nope.yaml"))

    def test_unknown_extension_falls_back_to_json(self, tmp_path):
        path = tmp_path / "campaign.spec"
        path.write_text(json.dumps(GOOD))
        assert CampaignSpec.from_file(str(path)).budget == 200

    def test_spec_file_with_unknown_field(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({**GOOD, "turbo": True}))
        with pytest.raises(CampaignSpecError) as excinfo:
            CampaignSpec.from_file(str(path))
        assert excinfo.value.field == "turbo"


class TestIdentity:
    def test_fingerprint_stable(self):
        assert make().fingerprint() == make().fingerprint()

    def test_fingerprint_moves_with_any_knob(self):
        base = make().fingerprint()
        assert make(seed=1).fingerprint() != base
        assert make(batch=23).fingerprint() != base
        assert make(allocation="uniform").fingerprint() != base

    def test_as_dict_round_trips(self):
        spec = make(seed=3, allocation="uniform")
        assert CampaignSpec.from_dict(spec.as_dict()) == spec
