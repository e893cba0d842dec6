"""EnsembleStudy: the end-to-end pipeline and the paper's headline
orderings on a tiny double-pendulum study."""

import numpy as np
import pytest

from repro.core import EnsembleStudy
from repro.exceptions import SamplingError
from repro.sampling import GridSampler, RandomSampler, budget_for_fractions

RANKS = [3] * 5


class TestStudyCreation:
    def test_shapes(self, pendulum_study):
        study = pendulum_study
        assert study.truth.shape == study.space.shape
        assert study.truth.min() >= 0  # distances

    def test_truth_nontrivial(self, pendulum_study):
        assert np.linalg.norm(pendulum_study.truth) > 0


class TestConventional:
    def test_runs(self, pendulum_study):
        result = pendulum_study.run_conventional(
            RandomSampler(seed=0), 100, RANKS
        )
        assert result.scheme == "Random"
        assert result.cells == 100
        assert -1.0 <= result.accuracy <= 1.0

    def test_budget_respected(self, pendulum_study):
        result = pendulum_study.run_conventional(GridSampler(), 200, RANKS)
        assert result.cells <= 200


class TestM2TD:
    def test_full_budget_run(self, pendulum_study):
        result = pendulum_study.run_m2td(RANKS, variant="select", seed=0)
        assert result.scheme == "M2TD-SELECT"
        # full-density sub-ensembles: 2 * R^3 cells
        assert result.cells == 2 * 6**3
        assert result.join_nnz == 6**5
        assert set(result.phase_seconds) == {
            "sub_decompose",
            "stitch",
            "core",
        }

    def test_beats_conventional_at_matched_budget(self, pendulum_study):
        study = pendulum_study
        m2td = study.run_m2td(RANKS, variant="select", seed=0)
        budget = study.matched_budget()
        assert budget == m2td.cells
        for sampler in (RandomSampler(seed=0), GridSampler()):
            baseline = study.run_conventional(sampler, budget, RANKS)
            assert m2td.accuracy > 5 * max(baseline.accuracy, 1e-12)

    def test_m2td_runs_fewer_simulations(self, pendulum_study):
        """The cost story: M2TD fills its tensor with far fewer
        simulation runs than Random needs for the same cell budget."""
        study = pendulum_study
        m2td = study.run_m2td(RANKS, seed=0)
        random = study.run_conventional(
            RandomSampler(seed=0), study.matched_budget(), RANKS
        )
        assert m2td.runs < random.runs

    def test_zero_join_at_low_budget(self, pendulum_study):
        study = pendulum_study
        join = study.run_m2td(
            RANKS, free_fraction=0.2, sub_sampling="random",
            join_kind="join", seed=0,
        )
        zero = study.run_m2td(
            RANKS, free_fraction=0.2, sub_sampling="random",
            join_kind="zero", seed=0,
        )
        assert zero.join_nnz > join.join_nnz

    def test_pivot_choice(self, pendulum_study):
        result = pendulum_study.run_m2td(RANKS, pivot="m1", seed=0)
        assert -1.0 <= result.accuracy <= 1.0

    def test_rejects_unknown_sub_sampling(self, pendulum_study):
        with pytest.raises(SamplingError):
            pendulum_study.run_m2td(RANKS, sub_sampling="sobol")

    def test_result_row(self, pendulum_study):
        row = pendulum_study.run_m2td(RANKS, seed=0).row()
        assert {"scheme", "accuracy", "seconds", "cells", "runs", "density"} <= set(row)


class TestSubEnsembles:
    def test_cross_vs_random_cell_counts(self, pendulum_study):
        study = pendulum_study
        partition = study.default_partition()
        budget = budget_for_fractions(partition, 1.0, 0.5)
        x1c, x2c, cells_c, _ = study.sample_sub_ensembles(
            partition, budget, sub_sampling="cross", seed=0
        )
        x1r, x2r, cells_r, _ = study.sample_sub_ensembles(
            partition, budget, sub_sampling="random", seed=0
        )
        assert cells_c == cells_r
        assert x1c.nnz == x1r.nnz

    def test_sub_tensor_values_match_truth(self, pendulum_study):
        study = pendulum_study
        partition = study.default_partition()
        coords = np.array([[0, 0, 0], [5, 5, 5]])
        sub = study.sub_tensor_from_coords(partition, 1, coords)
        full = partition.embed_coords(1, coords)
        for row in range(2):
            assert sub.get(tuple(coords[row])) == pytest.approx(
                study.truth[tuple(full[row])]
            )
