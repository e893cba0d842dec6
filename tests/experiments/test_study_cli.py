"""Config-driven study CLI."""

import json

import pytest

from repro.exceptions import ExperimentError
from repro.experiments.study_cli import (
    load_config,
    main,
    render_results,
    run_config,
)


def write_config(tmp_path, config):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(config))
    return str(path)


BASE_CONFIG = {
    "system": "double_pendulum",
    "resolution": 5,
    "rank": 2,
    "seed": 3,
    "schemes": [
        {"kind": "m2td", "variant": "select"},
        {"kind": "conventional", "sampler": "Random"},
    ],
}


class TestLoadConfig:
    def test_roundtrip(self, tmp_path):
        path = write_config(tmp_path, BASE_CONFIG)
        config = load_config(path)
        assert config["system"] == "double_pendulum"

    def test_missing_keys(self, tmp_path):
        path = write_config(tmp_path, {"system": "lorenz"})
        with pytest.raises(ExperimentError, match="missing required"):
            load_config(path)

    def test_empty_schemes(self, tmp_path):
        config = dict(BASE_CONFIG, schemes=[])
        path = write_config(tmp_path, config)
        with pytest.raises(ExperimentError):
            load_config(path)

    @pytest.mark.parametrize(
        "key,value", [("method", "gram"), ("keep_probability", 0.5)]
    )
    def test_removed_kernel_option_named(self, tmp_path, key, value):
        """A config written for the removed kernel options fails and
        names the offending key instead of running something else."""
        m2td = {"kind": "m2td", "variant": "select", key: value}
        config = dict(BASE_CONFIG, schemes=[m2td])
        path = write_config(tmp_path, config)
        with pytest.raises(ExperimentError, match=repr(key)):
            load_config(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ExperimentError):
            load_config(str(path))


class TestRunConfig:
    def test_runs_all_schemes(self):
        results = run_config(BASE_CONFIG)
        assert [r.scheme for r in results] == ["M2TD-SELECT", "Random"]
        # conventional inherits the m2td budget
        assert results[1].cells == results[0].cells

    def test_explicit_budget(self):
        config = dict(
            BASE_CONFIG,
            schemes=[{"kind": "conventional", "sampler": "Grid", "budget": 50}],
        )
        results = run_config(config)
        assert results[0].cells <= 50

    def test_conventional_without_budget_rejected(self):
        config = dict(
            BASE_CONFIG,
            schemes=[{"kind": "conventional", "sampler": "Random"}],
        )
        with pytest.raises(ExperimentError, match="budget"):
            run_config(config)

    def test_unknown_kind_rejected(self):
        config = dict(BASE_CONFIG, schemes=[{"kind": "quantum"}])
        with pytest.raises(ExperimentError, match="unknown scheme"):
            run_config(config)

    def test_zero_join_scheme(self):
        config = dict(
            BASE_CONFIG,
            schemes=[
                {
                    "kind": "m2td",
                    "join": "zero",
                    "free_fraction": 0.3,
                    "sub_sampling": "random",
                }
            ],
        )
        results = run_config(config)
        assert results[0].join_nnz > 0


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE_CONFIG)
        output = tmp_path / "results.json"
        assert main([path, "--output", str(output)]) == 0
        printed = capsys.readouterr().out
        assert "M2TD-SELECT" in printed
        payload = json.loads(output.read_text())
        assert len(payload) == 2
        assert payload[0]["scheme"] == "M2TD-SELECT"

    def test_render(self):
        results = run_config(BASE_CONFIG)
        text = render_results(results)
        assert "accuracy" in text
        assert "M2TD-SELECT" in text
