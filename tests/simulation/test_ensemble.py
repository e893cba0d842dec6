"""Ensemble tensor construction and simulation accounting."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.simulation import (
    DoublePendulum,
    ParameterSpace,
    SimulationMeter,
    SimulationOracle,
    full_space_tensor,
    make_observation,
    simulate_fibers,
)


@pytest.fixture(scope="module")
def setup():
    space = ParameterSpace(DoublePendulum(), resolution=4)
    obs = make_observation(space)
    truth = full_space_tensor(space, obs)
    return space, obs, truth


class TestSimulateFibers:
    def test_matches_scalar_pipeline(self, setup):
        space, obs, _truth = setup
        indices = np.array([[0, 1, 2, 3], [3, 3, 3, 3]])
        fibers = simulate_fibers(space, obs, indices)
        for row, index in enumerate(indices):
            states = space.system.simulate(
                space.params_from_indices(index)
            )[space.time_indices]
            expected = np.linalg.norm(states - obs.states, axis=1)
            assert np.allclose(fibers[row], expected, atol=1e-10)

    def test_meter_charged(self, setup):
        space, obs, _truth = setup
        meter = SimulationMeter()
        simulate_fibers(space, obs, np.zeros((3, 4), dtype=int), meter=meter)
        assert meter.runs == 3
        assert meter.cells == 3 * space.time_resolution
        assert meter.wall_seconds > 0

    def test_rejects_bad_shape(self, setup):
        space, obs, _truth = setup
        with pytest.raises(SimulationError):
            simulate_fibers(space, obs, np.zeros((3, 2), dtype=int))

    @pytest.mark.parametrize(
        "bad, match",
        [
            (1.7, "whole numbers"),  # never truncated to run 1
            (np.nan, "whole numbers"),
            (np.inf, "whole numbers"),
            (-1, "out of range"),  # never wrapped to the last grid value
            (4, "out of range"),
        ],
    )
    def test_rejects_bad_index(self, setup, bad, match):
        space, obs, _truth = setup
        meter = SimulationMeter()
        with pytest.raises(SimulationError, match=match):
            simulate_fibers(space, obs, [[0, 0, 0, bad]], meter=meter)
        assert meter.runs == 0

    def test_integral_floats_accepted(self, setup):
        space, obs, truth = setup
        fibers = simulate_fibers(space, obs, [[0.0, 1.0, 2.0, 3.0]])
        assert np.array_equal(fibers[0], truth[0, 1, 2, 3])


class TestFullSpaceTensor:
    def test_shape_and_chunking_invariance(self, setup):
        space, obs, truth = setup
        assert truth.shape == space.shape
        rechunked = full_space_tensor(space, obs, chunk_size=7)
        assert np.allclose(rechunked, truth)

    def test_spot_check_cell(self, setup):
        space, obs, truth = setup
        index = (1, 2, 3, 0)
        states = space.system.simulate(space.params_from_indices(index))[
            space.time_indices
        ]
        expected = np.linalg.norm(states - obs.states, axis=1)
        assert np.allclose(truth[index], expected, atol=1e-10)

    def test_rejects_bad_chunk(self, setup):
        space, obs, _truth = setup
        with pytest.raises(SimulationError):
            full_space_tensor(space, obs, chunk_size=0)


class TestOracleCells:
    def test_values_read_from_truth(self, setup):
        space, obs, truth = setup
        coords = np.array([[0, 0, 0, 0, 0], [1, 2, 3, 0, 2]])
        values = SimulationOracle(space, obs).cells(coords)
        assert values[0] == truth[0, 0, 0, 0, 0]
        assert values[1] == truth[1, 2, 3, 0, 2]

    def test_meter_counts_distinct_runs(self, setup):
        space, obs, _truth = setup
        coords = np.array(
            [[0, 0, 0, 0, 0], [0, 0, 0, 0, 1], [1, 0, 0, 0, 0]]
        )
        meter = SimulationMeter()
        oracle = SimulationOracle(space, obs, meter=meter)
        oracle.cells(coords)
        assert meter.runs == 2  # two distinct parameter combos
        assert meter.cells == 2 * space.time_resolution
        oracle.cells(coords)
        assert meter.runs == 2  # memoized: nothing integrated again

    def test_rejects_bad_coords(self, setup):
        space, obs, _truth = setup
        with pytest.raises(SimulationError):
            SimulationOracle(space, obs).cells(np.zeros((2, 3), dtype=int))

    @pytest.mark.parametrize("column", [0, 3, 4])  # 4 is the time mode
    @pytest.mark.parametrize(
        "bad, match",
        [
            (1.5, "whole numbers"),  # never truncated
            (np.nan, "whole numbers"),
            (-np.inf, "whole numbers"),
            (-1, "out of range"),  # never wrapped to the last index
            (4, "out of range"),
        ],
    )
    def test_rejects_bad_cell_index(self, setup, column, bad, match):
        space, obs, _truth = setup
        coords = np.array([[0, 1, 2, 3, 0], [1, 1, 1, 1, 1]], dtype=float)
        coords[1, column] = bad
        meter = SimulationMeter()
        oracle = SimulationOracle(space, obs, meter=meter)
        with pytest.raises(SimulationError, match=match):
            oracle.cells(coords)
        assert meter.runs == 0 and oracle.n_simulated == 0

    @pytest.mark.parametrize(
        "bad, match",
        [(2.5, "whole numbers"), (np.nan, "whole numbers"),
         (-1, "out of range"), (4, "out of range")],
    )
    def test_fibers_reject_bad_index(self, setup, bad, match):
        space, obs, _truth = setup
        oracle = SimulationOracle(space, obs)
        with pytest.raises(SimulationError, match=match):
            oracle.fibers(np.array([[0, 0, bad, 0]], dtype=float))
        assert oracle.n_simulated == 0

    def test_integral_float_cells_accepted(self, setup):
        space, obs, truth = setup
        oracle = SimulationOracle(space, obs)
        values = oracle.cells(np.array([[1.0, 2.0, 3.0, 0.0, 3.0]]))
        assert values[0] == truth[1, 2, 3, 0, 3]
        fibers = oracle.fibers(np.array([[1.0, 2.0, 3.0, 0.0]]))
        assert np.array_equal(fibers[0], truth[1, 2, 3, 0])


class TestSimulationMeter:
    def test_merge(self):
        a = SimulationMeter(runs=2, cells=10, wall_seconds=1.0)
        b = SimulationMeter(runs=3, cells=5, wall_seconds=0.5)
        a.merge(b)
        assert a.runs == 5
        assert a.cells == 15
        assert a.wall_seconds == pytest.approx(1.5)
