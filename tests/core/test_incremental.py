"""Time-incremental M2TD."""

import numpy as np
import pytest

from repro.core.incremental import IncrementalM2TD, batch_reference
from repro.exceptions import ShapeError, StitchError

FREE_SHAPE = (6, 6)


def make_subs(rng, t):
    x1 = rng.standard_normal((t,) + FREE_SHAPE) + 2.0
    x2 = rng.standard_normal((t,) + FREE_SHAPE) + 2.0
    return x1, x2


def join_fit(tucker, x1, x2):
    t = x1.shape[0]
    joined = 0.5 * (
        x1.reshape(x1.shape + (1, 1)) + x2.reshape((t, 1, 1) + x2.shape[1:])
    )
    reconstruction = tucker.reconstruct()
    return 1 - np.linalg.norm(reconstruction - joined) / np.linalg.norm(joined)


class TestConstruction:
    def test_rejects_pivot_mismatch(self, rng):
        with pytest.raises(ShapeError):
            IncrementalM2TD(
                rng.standard_normal((3, 4, 4)),
                rng.standard_normal((4, 4, 4)),
                [2] * 5,
            )

    def test_rejects_bad_rank_count(self, rng):
        x1, x2 = make_subs(rng, 3)
        with pytest.raises(ShapeError):
            IncrementalM2TD(x1, x2, [2] * 4)

    def test_rejects_unknown_variant(self, rng):
        x1, x2 = make_subs(rng, 3)
        with pytest.raises(StitchError):
            IncrementalM2TD(x1, x2, [2] * 5, variant="concat")


class TestStreaming:
    def test_t_size_tracks_appends(self, rng):
        x1, x2 = make_subs(rng, 3)
        state = IncrementalM2TD(x1, x2, [2] * 5)
        assert state.t_size == 3
        more1, more2 = make_subs(rng, 2)
        state.append(more1, more2)
        assert state.t_size == 5

    def test_rejects_slab_shape_mismatch(self, rng):
        x1, x2 = make_subs(rng, 3)
        state = IncrementalM2TD(x1, x2, [2] * 5)
        with pytest.raises(ShapeError):
            state.append(
                rng.standard_normal((1, 5, 6)), rng.standard_normal((1, 6, 6))
            )

    def test_full_rank_streaming_exact_for_shared_pivot_structure(self, rng):
        """With identical sub-ensembles the combined pivot factor stays
        orthonormal, so full-rank streaming reconstructs the join
        tensor exactly.  (With *distinct* sub-ensembles even full-rank
        SELECT/AVG factors are non-orthogonal and ``U U^T != I`` —
        inherent to the paper's factor combination, not to the
        incremental update.)"""
        x1, _unused = make_subs(rng, 2)
        state = IncrementalM2TD(x1, x1.copy(), [8, 6, 6, 6, 6])
        for _step in range(6):
            s1, _unused2 = make_subs(rng, 1)
            state.append(s1, s1.copy())
        snapshot = state.decompose()
        full_x1 = state._sub1.data
        full_x2 = state._sub2.data
        assert join_fit(snapshot.tucker, full_x1, full_x2) > 1 - 1e-9

    def test_truncated_streaming_close_to_batch(self, rng):
        """Unstructured Gaussian data is the worst case for truncated
        streaming (every step's truncation discards genuine signal);
        the streamed fit must still land in the batch fit's
        neighbourhood."""
        x1, x2 = make_subs(rng, 3)
        ranks = [3, 3, 3, 3, 3]
        state = IncrementalM2TD(x1, x2, ranks)
        slabs = [make_subs(rng, 1) for _ in range(5)]
        for s1, s2 in slabs:
            state.append(s1, s2)
        snapshot = state.decompose()
        full_x1 = state._sub1.data
        full_x2 = state._sub2.data
        batch = batch_reference(full_x1, full_x2, ranks)
        streamed_fit = join_fit(snapshot.tucker, full_x1, full_x2)
        batch_fit = join_fit(batch, full_x1, full_x2)
        assert streamed_fit > batch_fit - 0.25

    def test_truncated_streaming_tight_on_low_rank_data(self, rng):
        """On genuinely low-rank streams truncation loses (almost)
        nothing and the streamed fit matches the batch fit closely."""
        from ..generators import random_low_rank

        full1 = np.moveaxis(
            random_low_rank(FREE_SHAPE + (8,), (2, 2, 2), seed=5), -1, 0
        )
        full2 = np.moveaxis(
            random_low_rank(FREE_SHAPE + (8,), (2, 2, 2), seed=6), -1, 0
        )
        ranks = [3, 3, 3, 3, 3]
        state = IncrementalM2TD(full1[:3], full2[:3], ranks)
        for t in range(3, 8):
            state.append(full1[t : t + 1], full2[t : t + 1])
        snapshot = state.decompose()
        batch = batch_reference(full1, full2, ranks)
        streamed_fit = join_fit(snapshot.tucker, full1, full2)
        batch_fit = join_fit(batch, full1, full2)
        assert streamed_fit > batch_fit - 0.02

    def test_truncated_streaming_close_to_batch_on_pendulum(
        self, pendulum_subs
    ):
        """Real ensemble data: stream every time step after the first
        four one slab at a time; the streamed fit stays within 0.05 of
        the batch refit."""
        _partition, x1, x2 = pendulum_subs
        ranks = [3] * 5
        state = IncrementalM2TD(x1[:4], x2[:4], ranks)
        for step in range(4, x1.shape[0]):
            state.append(x1[step : step + 1], x2[step : step + 1])
        assert len(state.factors()) == 5
        batch = batch_reference(x1, x2, ranks)
        assert batch.ndim == 5
        streamed_fit = join_fit(state.decompose().tucker, x1, x2)
        assert streamed_fit > join_fit(batch, x1, x2) - 0.05

    def test_snapshot_metadata(self, rng):
        x1, x2 = make_subs(rng, 4)
        state = IncrementalM2TD(x1, x2, [2] * 5)
        snapshot = state.decompose()
        assert snapshot.t_size == 4
        assert snapshot.factor_update_seconds >= 0
        assert snapshot.core_seconds >= 0

    @pytest.mark.parametrize("variant", ["avg", "select"])
    def test_variants_run(self, rng, variant):
        x1, x2 = make_subs(rng, 4)
        state = IncrementalM2TD(x1, x2, [2] * 5, variant=variant)
        s1, s2 = make_subs(rng, 1)
        state.append(s1, s2)
        snapshot = state.decompose()
        assert snapshot.tucker.shape == (5,) + FREE_SHAPE + FREE_SHAPE
