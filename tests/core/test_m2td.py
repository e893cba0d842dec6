"""The M2TD engine: all variants, join kinds, and result invariants."""

import numpy as np
import pytest

from repro.core import m2td_decompose
from repro.core.m2td import map_ranks_to_join
from repro.exceptions import RankError, StitchError
from repro.sampling import PFPartition
from repro.tensor import SparseTensor

SHAPE = (4, 4, 4, 4, 4)
RANKS = [2] * 5


def partition():
    return PFPartition(SHAPE, (4,), (0, 1), (2, 3))


@pytest.fixture()
def subs(rng):
    part = partition()
    x1 = rng.standard_normal(part.sub_shape(1)) + 2.0
    x2 = rng.standard_normal(part.sub_shape(2)) + 2.0
    return part, x1, x2


class TestMapRanks:
    def test_reorders(self):
        part = partition()
        assert map_ranks_to_join(part, [1, 2, 3, 4, 5]) == (5, 1, 2, 3, 4)

    def test_rejects_wrong_length(self):
        with pytest.raises(RankError):
            map_ranks_to_join(partition(), [2, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(RankError):
            map_ranks_to_join(partition(), [2, 2, 2, 2, 0])


class TestEngine:
    @pytest.mark.parametrize("variant", ["avg", "concat", "select"])
    def test_variants_run(self, subs, variant):
        part, x1, x2 = subs
        result = m2td_decompose(x1, x2, part, RANKS, variant=variant)
        assert result.variant == variant
        assert result.tucker.shape == part.join_shape
        assert result.reconstruct_original().shape == SHAPE

    def test_rejects_unknown_variant(self, subs):
        part, x1, x2 = subs
        with pytest.raises(StitchError):
            m2td_decompose(x1, x2, part, RANKS, variant="median")

    def test_rejects_unknown_join_kind(self, subs):
        part, x1, x2 = subs
        with pytest.raises(StitchError):
            m2td_decompose(x1, x2, part, RANKS, join_kind="outer")

    def test_lazy_requires_join(self, subs):
        part, x1, x2 = subs
        with pytest.raises(StitchError):
            m2td_decompose(x1, x2, part, RANKS, join_kind="zero", lazy=True)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("which", ["x1", "x2"])
    def test_rejects_non_finite_sub_ensemble(self, subs, which, sparse):
        """One NaN cell fails typed at the boundary, naming the
        sub-ensemble — not as ``nan`` accuracy or a ``LinAlgError``."""
        part, x1, x2 = subs
        inputs = {"x1": x1.copy(), "x2": x2.copy()}
        inputs[which][(0,) * inputs[which].ndim] = np.nan
        if sparse:
            inputs = {
                k: SparseTensor.from_dense(v, keep_zeros=True)
                for k, v in inputs.items()
            }
        with pytest.raises(StitchError, match=f"sub-ensemble {which}"):
            m2td_decompose(inputs["x1"], inputs["x2"], part, RANKS)

    def test_lazy_matches_materialized(self, subs):
        part, x1, x2 = subs
        eager = m2td_decompose(x1, x2, part, RANKS, variant="select")
        lazy = m2td_decompose(x1, x2, part, RANKS, variant="select", lazy=True)
        assert np.allclose(eager.tucker.core, lazy.tucker.core)
        assert lazy.join_kind == "lazy"
        assert lazy.join_nnz == 0

    def test_sparse_and_dense_inputs_agree(self, subs):
        part, x1, x2 = subs
        sparse1 = SparseTensor.from_dense(x1, keep_zeros=True)
        sparse2 = SparseTensor.from_dense(x2, keep_zeros=True)
        dense_result = m2td_decompose(x1, x2, part, RANKS, variant="select")
        sparse_result = m2td_decompose(
            sparse1, sparse2, part, RANKS, variant="select"
        )
        assert np.allclose(
            dense_result.tucker.core, sparse_result.tucker.core, atol=1e-8
        )

    def test_phase_seconds_recorded(self, subs):
        part, x1, x2 = subs
        result = m2td_decompose(x1, x2, part, RANKS)
        assert set(result.phase_seconds) == {"sub_decompose", "stitch", "core"}
        assert result.total_seconds >= 0

    def test_join_nnz_counts_entries(self, subs):
        part, x1, x2 = subs
        result = m2td_decompose(x1, x2, part, RANKS)
        assert result.join_nnz == 4 * 16 * 16

    def test_rank_clipping(self, subs):
        part, x1, x2 = subs
        result = m2td_decompose(x1, x2, part, [10] * 5)
        assert all(r <= 4 for r in result.tucker.rank)

    def test_accuracy_bounded_above_by_one(self, subs, rng):
        part, x1, x2 = subs
        truth = rng.standard_normal(SHAPE) + 2.0
        result = m2td_decompose(x1, x2, part, RANKS)
        assert result.accuracy(truth) <= 1.0

    def test_accuracy_rejects_zero_truth(self, subs):
        part, x1, x2 = subs
        result = m2td_decompose(x1, x2, part, RANKS)
        with pytest.raises(StitchError):
            result.accuracy(np.zeros(SHAPE))


class TestAlignment:
    def test_procrustes_option_runs(self, subs):
        part, x1, x2 = subs
        result = m2td_decompose(
            x1, x2, part, RANKS, variant="select", alignment="procrustes"
        )
        assert result.tucker.shape == part.join_shape

    def test_unknown_alignment_rejected(self, subs):
        part, x1, x2 = subs
        with pytest.raises(StitchError):
            m2td_decompose(x1, x2, part, RANKS, alignment="affine")

    def test_procrustes_preserves_subspace(self, subs):
        """Rotation must not change the spanned pivot subspace: the
        CONCAT-free variants' reconstructions of identical inputs only
        differ through the pivot factor's row mixing."""
        from repro.core.row_select import procrustes_align

        import numpy as np

        rng = np.random.default_rng(0)
        u1 = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        u2 = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        rotated = procrustes_align(u1, u2)
        # same column space as u2
        projector_before = u2 @ u2.T
        projector_after = rotated @ rotated.T
        assert np.allclose(projector_before, projector_after, atol=1e-10)
        # and at least as close to u1 as the raw basis
        assert np.linalg.norm(u1 - rotated) <= np.linalg.norm(u1 - u2) + 1e-12


class TestVariants:
    def test_free_factors_shared_across_variants(self, subs):
        """The variants differ only in the pivot combiner: one run per
        variant yields identical free-mode factors, and the pivot
        factors of AVG and SELECT differ."""
        part, x1, x2 = subs
        results = {
            variant: m2td_decompose(x1, x2, part, RANKS, variant=variant)
            for variant in ("avg", "concat", "select")
        }
        reference = results["select"].tucker.factors
        for variant, result in results.items():
            assert result.variant == variant
            for mode in range(part.k, part.n_modes):
                assert np.array_equal(
                    result.tucker.factors[mode], reference[mode]
                )
        assert not np.array_equal(
            results["avg"].tucker.factors[0], reference[0]
        )

    def test_exact_recovery_at_full_rank(self, rng):
        """With full per-mode ranks the stitched decomposition must
        reconstruct the join tensor to machine precision: the factor
        matrices span the whole mode spaces, so core recovery loses
        nothing."""
        part = partition()
        p = rng.standard_normal(4)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        x1 = np.einsum("t,ij->tij", p, a)
        x2 = np.einsum("t,ij->tij", p, b)
        result = m2td_decompose(x1, x2, part, [4] * 5, variant="select")
        from repro.core.join_tensor import dense_join_from_subs

        joined = dense_join_from_subs(x1, x2, part)
        reconstruction = result.tucker.reconstruct()
        error = np.linalg.norm(reconstruction - joined) / np.linalg.norm(joined)
        assert error < 1e-8
