"""SEIR epidemic model."""

import numpy as np
import pytest

from repro.simulation import EpidemicSEIR, make_system


@pytest.fixture()
def system():
    return EpidemicSEIR()


class TestEpidemicSEIR:
    def test_registered(self):
        assert make_system("epidemic_seir").name == "epidemic_seir"

    def test_population_conserved(self, system):
        params = system.default_params()
        states = system.simulate(params)
        totals = states.sum(axis=1)
        assert np.allclose(totals, totals[0], atol=1e-10)

    def test_compartments_stay_in_bounds(self, system):
        params = {"beta": 0.8, "sigma": 0.5, "gamma": 0.05, "i0": 0.05}
        states = system.simulate(params)
        assert (states >= -1e-10).all()
        assert (states <= 1 + 1e-10).all()

    def test_subcritical_outbreak_fizzles(self, system):
        """R0 < 1: the infectious fraction decays monotonically-ish
        and the epidemic never takes off."""
        params = {"beta": 0.1, "sigma": 0.2, "gamma": 0.4, "i0": 0.01}
        assert system.basic_reproduction_number(params) < 1
        states = system.simulate(params)
        infectious = states[:, 2]
        assert infectious.max() <= params["i0"] + 1e-6
        assert infectious[-1] < 0.1 * params["i0"]

    def test_supercritical_outbreak_peaks(self, system):
        """R0 >> 1: infections rise above i0 then fall."""
        params = {"beta": 0.8, "sigma": 0.5, "gamma": 0.05, "i0": 0.01}
        assert system.basic_reproduction_number(params) > 1
        infectious = system.simulate(params)[:, 2]
        assert infectious.max() > 5 * params["i0"]
        assert infectious[-1] < infectious.max()

    def test_recovered_monotone(self, system):
        states = system.simulate(system.default_params())
        recovered = states[:, 3]
        assert (np.diff(recovered) >= -1e-12).all()

    def test_higher_beta_bigger_epidemic(self, system):
        base = {"sigma": 0.2, "gamma": 0.15, "i0": 0.01}
        mild = system.simulate({**base, "beta": 0.2})
        severe = system.simulate({**base, "beta": 0.8})
        assert severe[:, 2].max() > mild[:, 2].max()
        assert severe[-1, 3] > mild[-1, 3]  # larger final size

    def test_batch_matches_scalar(self, system):
        """Each column of a batch evaluates as that run alone."""
        defaults = system.default_params()
        other = {k: v * 1.2 for k, v in defaults.items()}
        params = {k: np.array([defaults[k], other[k]]) for k in defaults}
        batched = system.derivative(params)(0.0, system.initial_state(params))
        for i, p in enumerate([defaults, other]):
            one = {k: np.array([v]) for k, v in p.items()}
            alone = system.derivative(one)(0.0, system.initial_state(one))
            assert np.array_equal(batched[:, i], alone[:, 0])

    def test_m2td_pipeline_on_epidemic(self):
        """The headline ordering holds on the motivating domain too."""
        from repro.core import EnsembleStudy
        from repro.sampling import RandomSampler

        study = EnsembleStudy.create(EpidemicSEIR(), resolution=5)
        ranks = [2] * 5
        m2td = study.run_m2td(ranks, variant="select", seed=1)
        random = study.run_conventional(
            RandomSampler(1), m2td.cells, ranks
        )
        assert m2td.accuracy > 3 * max(random.accuracy, 1e-9)
