"""The M2TD engine: all variants, join kinds, and result invariants."""

import numpy as np
import pytest

from repro.core import (
    dense_join_from_subs,
    join_tensor,
    m2td_decompose,
    zero_join_tensor,
)
from repro.core.m2td import map_ranks_to_join
from repro.exceptions import RankError, ShapeError, StitchError
from repro.observability import Tracer, use_tracer
from repro.sampling import PFPartition
from repro.tensor import SparseTensor

from ..generators import materialized_core

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_accuracy_rejects_non_finite_truth(self, subs, rng, bad):
        part, x1, x2 = subs
        result = m2td_decompose(x1, x2, part, RANKS)
        truth = rng.standard_normal(SHAPE) + 2.0
        truth[0, 1, 2, 3, 0] = bad
        with pytest.raises(StitchError, match="non-finite"):
            result.accuracy(truth)

    def test_accuracy_rejects_mismatched_truth(self, subs, rng):
        """A truth that merely broadcasts against the reconstruction
        (here a trailing mode of size 1) must not score silently."""
        part, x1, x2 = subs
        result = m2td_decompose(x1, x2, part, RANKS)
        truth = rng.standard_normal(SHAPE) + 2.0
        with pytest.raises(ShapeError):
            result.accuracy(truth[..., :1])


class TestCoreRoute:
    """Every stitch takes the one factored core route: the core equals
    the materialized join's projection, and ``join_nnz`` its stored
    cells, whatever the inputs and the join kind."""

    @pytest.mark.parametrize(
        "inputs, join_kind",
        [
            ("dense", "join"),
            ("complete-sparse", "join"),
            ("one-cell-missing", "join"),
            ("complete-sparse", "zero"),
        ],
    )
    def test_route_follows_the_data(self, subs, inputs, join_kind):
        part, x1, x2 = subs
        sparse1 = SparseTensor.from_dense(x1, keep_zeros=True)
        sparse2 = SparseTensor.from_dense(x2, keep_zeros=True)
        if inputs == "one-cell-missing":
            sparse1 = SparseTensor(
                sparse1.shape, sparse1.coords[1:], sparse1.values[1:]
            )
        subs_in = (x1, x2) if inputs == "dense" else (sparse1, sparse2)
        with use_tracer(Tracer()) as tracer:
            result = m2td_decompose(
                *subs_in, part, RANKS, join_kind=join_kind
            )
        (core_span,) = [
            s for s in tracer.iter_spans() if s.name == "m2td-core"
        ]
        assert core_span.attrs["join_kind"] == join_kind
        complete = inputs != "one-cell-missing"
        assert core_span.attrs["complete"] is complete
        assert result.join_kind == join_kind

        stitch = join_tensor if join_kind == "join" else zero_join_tensor
        materialized = stitch(sparse1, sparse2, part)
        assert result.join_nnz == materialized.nnz
        if complete and join_kind == "join":
            assert result.join_nnz == int(np.prod(part.join_shape))
            reference_join = dense_join_from_subs(x1, x2, part)
        else:
            reference_join = materialized.to_dense()
        reference = materialized_core(reference_join, result.tucker.factors)
        error = np.abs(result.tucker.core - reference).max()
        assert error <= 1e-12 * np.abs(reference).max()


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
        joined = dense_join_from_subs(x1, x2, part)
        reconstruction = result.tucker.reconstruct()
        error = np.linalg.norm(reconstruction - joined) / np.linalg.norm(joined)
        assert error < 1e-8
