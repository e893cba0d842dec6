"""Each simulated batch has its index rows checked exactly once (the
typed errors of each entry point are pinned in test_ensemble.py and
test_parameter_space.py)."""

import numpy as np
import pytest

from repro.simulation import (
    Observation,
    ParameterSpace,
    make_system,
    simulate_fibers,
)
from repro.simulation import ensemble as ensemble_module
from repro.simulation import parameter_space as space_module
from repro.simulation.observation import true_parameters


@pytest.fixture()
def space():
    return ParameterSpace(make_system("epidemic_seir"), 3)


def test_simulate_fibers_checks_its_rows_once(space, monkeypatch):
    checked = []
    real = space_module.index_rows

    def counting(values, *args, **kwargs):
        checked.append(np.shape(values))
        return real(values, *args, **kwargs)

    monkeypatch.setattr(ensemble_module, "index_rows", counting)
    monkeypatch.setattr(space_module, "index_rows", counting)
    rows = np.array([[0, 1, 2, 0], [2, 2, 1, 1]])
    fibers = simulate_fibers(
        space, Observation(true_parameters(space)), rows
    )
    assert fibers.shape == (2, space.time_resolution)
    assert checked == [(2, 4)]

