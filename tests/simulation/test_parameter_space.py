"""ParameterSpace: mode geometry and index <-> value mapping."""

import numpy as np
import pytest

from repro.exceptions import ModeError, SimulationError
from repro.simulation import DoublePendulum, ParameterSpace


@pytest.fixture()
def space():
    return ParameterSpace(DoublePendulum(), resolution=5)


class TestGeometry:
    def test_shape(self, space):
        assert space.shape == (5, 5, 5, 5, 5)
        assert space.n_modes == 5
        assert space.time_mode == 4

    def test_separate_time_resolution(self):
        space = ParameterSpace(DoublePendulum(), 5, time_resolution=7)
        assert space.shape == (5, 5, 5, 5, 7)

    def test_mode_names(self, space):
        assert space.mode_names == ("phi1", "m1", "phi2", "m2", "t")

    def test_mode_index(self, space):
        assert space.mode_index("m2") == 3
        assert space.mode_index("t") == 4
        with pytest.raises(ModeError):
            space.mode_index("gravity")

    def test_counts(self, space):
        assert space.n_simulations_full == 5**4
        assert space.n_cells_full == 5**5

    def test_rejects_tiny_resolution(self):
        with pytest.raises(SimulationError):
            ParameterSpace(DoublePendulum(), resolution=1)
        with pytest.raises(SimulationError):
            ParameterSpace(DoublePendulum(), 5, time_resolution=1)


class TestMapping:
    def test_grid(self, space):
        grid = space.grid(0)
        param = space.system.parameters[0]
        assert grid[0] == param.low
        assert grid[-1] == param.high

    def test_grid_rejects_time_mode(self, space):
        with pytest.raises(ModeError):
            space.grid(4)

    def test_time_indices_span_trajectory(self, space):
        assert space.time_indices[0] == 0
        assert space.time_indices[-1] == space.system.n_steps

    def test_params_from_indices(self, space):
        params = space.params_from_indices([0, 4, 2, 1])
        assert params["phi1"] == pytest.approx(space.grid(0)[0])
        assert params["m1"] == pytest.approx(space.grid(1)[4])

    def test_params_from_indices_rejects_length(self, space):
        with pytest.raises(ModeError):
            space.params_from_indices([0, 1])

    def test_combinations_count(self, space):
        combos = list(space.param_index_combinations())
        assert len(combos) == 5**4
        assert combos[0] == (0, 0, 0, 0)

    def test_batch_values_match_scalar(self, space):
        indices = np.array([[0, 1, 2, 3], [4, 4, 4, 4]])
        batch = space.batch_param_values(indices)
        for row in range(2):
            scalar = space.params_from_indices(indices[row])
            for name in scalar:
                assert batch[name][row] == pytest.approx(scalar[name])

    def test_batch_values_rejects_bad_shape(self, space):
        with pytest.raises(ModeError):
            space.batch_param_values(np.zeros((3, 2), dtype=int))

    @pytest.mark.parametrize(
        "bad, match",
        [
            (1.7, "whole numbers"),  # never truncated to 1
            (np.nan, "whole numbers"),
            (np.inf, "whole numbers"),
            (-1, "out of range"),  # never wrapped to the last grid value
            (5, "out of range"),
            (5.0, "out of range"),
        ],
    )
    def test_batch_values_rejects_bad_index(self, space, bad, match):
        indices = np.array([[0, 1, 2, 3], [0, 0, 0, 0]], dtype=np.float64)
        indices[1, 3] = bad
        with pytest.raises(ModeError, match=match):
            space.batch_param_values(indices)
        with pytest.raises(ModeError, match=match):
            space.params_from_indices(indices[1])

    def test_batch_values_accept_integral_floats(self, space):
        indices = np.array([[0, 1, 2, 3], [4, 4, 4, 4]])
        floats = space.batch_param_values(indices.astype(np.float64))
        ints = space.batch_param_values(indices)
        for name in ints:
            assert np.array_equal(floats[name], ints[name])
