"""FactorEngine correctness: factor-space answers equal dense answers."""

import numpy as np
import pytest

from repro.exceptions import QueryError
from repro.observability.metrics import MetricsRegistry, use_metrics
from repro.serving import FactorEngine
from repro.storage import BlockTensorStore
from repro.tensor import SparseTensor, hosvd
from repro.tensor.tucker import clip_ranks

from .conftest import make_sparse


@pytest.fixture(scope="module")
def tucker():
    rng = np.random.default_rng(11)
    dense = rng.standard_normal((5, 4, 3))
    return hosvd(dense, [3, 3, 2])


@pytest.fixture(scope="module")
def engine(tucker):
    return FactorEngine(tucker, study="test")


@pytest.fixture(scope="module")
def full(tucker):
    return tucker.reconstruct()


class TestPoint:
    def test_every_cell_matches_reconstruct(self, engine, full):
        for index in np.ndindex(full.shape):
            assert engine.point(index) == pytest.approx(
                full[index], abs=1e-10
            )

    def test_edge_indices(self, engine, full):
        zero = tuple(0 for _ in full.shape)
        last = tuple(s - 1 for s in full.shape)
        assert engine.point(zero) == pytest.approx(full[zero], abs=1e-10)
        assert engine.point(last) == pytest.approx(full[last], abs=1e-10)

    def test_batch_equals_individual(self, engine, full):
        coords = np.array([[0, 0, 0], [4, 3, 2], [2, 1, 1], [0, 3, 0]])
        batched = engine.point_batch(coords)
        assert batched.shape == (4,)
        for row, value in zip(coords, batched):
            assert value == pytest.approx(engine.point(row), abs=1e-12)

    def test_empty_batch(self, engine):
        out = engine.point_batch(np.empty((0, 3), dtype=np.int64))
        assert out.shape == (0,)

    @pytest.mark.parametrize(
        "bad",
        [(0, 0), (0, 0, 0, 0), (5, 0, 0), (0, 0, 3), (-1, 0, 0)],
    )
    def test_bad_index_is_typed(self, engine, bad):
        with pytest.raises(QueryError):
            engine.point(bad)


class TestSlice:
    def test_every_hyperplane_matches_reconstruct(self, engine, full):
        for mode in range(full.ndim):
            for index in range(full.shape[mode]):
                expected = np.take(full, index, axis=mode)
                got = engine.slice(mode, index)
                assert got.shape == expected.shape
                assert np.allclose(got, expected, atol=1e-10)

    def test_bad_mode(self, engine):
        with pytest.raises(QueryError, match="mode"):
            engine.slice(3, 0)

    def test_bad_index(self, engine):
        with pytest.raises(QueryError, match="out of range"):
            engine.slice(0, 5)


class TestSliceBatch:
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_matches_reconstruct_unsorted_and_repeated(
        self, engine, full, mode
    ):
        size = full.shape[mode]
        indices = [size - 1, 0, size - 1, 1, 0]
        got = engine.slice_batch(mode, indices)
        others = tuple(s for m, s in enumerate(full.shape) if m != mode)
        assert got.shape == (len(indices),) + others
        for plane, index in zip(got, indices):
            assert np.allclose(
                plane, np.take(full, index, axis=mode), atol=1e-10
            )

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_slice_is_a_one_row_batch(self, engine, full, mode):
        for index in range(full.shape[mode]):
            assert np.array_equal(
                engine.slice(mode, index),
                engine.slice_batch(mode, [index])[0],
            )

    def test_empty_indices(self, engine):
        assert engine.slice_batch(1, []).shape == (0, 5, 3)

    def test_counts_every_slice(self, engine):
        registry = MetricsRegistry()
        with use_metrics(registry):
            engine.slice_batch(0, [3, 1, 3, 0])
            engine.slice(2, 1)
        assert registry.counter("serving.slices_evaluated").value == 5

    def test_bad_index_anywhere_fails_the_call(self, engine):
        with pytest.raises(QueryError, match="index 5 out of range"):
            engine.slice_batch(0, [1, 5, 2])
        with pytest.raises(QueryError, match="mode"):
            engine.slice_batch(3, [0])


NON_INTEGRAL = [1.5, 0.9, float("nan"), float("inf"), "1", True]


class TestNonIntegralIndices:
    """A float index is rejected, never truncated to a nearby cell; a
    bool is never read as 0 or 1."""

    @pytest.mark.parametrize("bad", NON_INTEGRAL)
    def test_point(self, engine, bad):
        with pytest.raises(QueryError, match="whole numbers"):
            engine.point((1, bad, 0))
        with pytest.raises(QueryError, match="whole numbers"):
            engine.point_batch([[0, 0, 0], [1, bad, 0]])

    @pytest.mark.parametrize("bad", NON_INTEGRAL)
    def test_slice(self, engine, bad):
        with pytest.raises(QueryError, match="whole numbers"):
            engine.slice(0, bad)
        with pytest.raises(QueryError, match="whole numbers"):
            engine.slice(bad, 0)
        with pytest.raises(QueryError, match="whole numbers"):
            engine.slice_batch(0, [0, bad])

    def test_integral_floats_are_accepted(self, engine, full):
        assert engine.point((1.0, 2.0, 0.0)) == pytest.approx(
            full[1, 2, 0], abs=1e-10
        )
        assert np.array_equal(engine.slice(0.0, 3.0), engine.slice(0, 3))


class TestTopK:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        tensor = make_sparse((6, 5, 4), density=0.6, seed=3)
        store = BlockTensorStore(tmp_path_factory.mktemp("store"))
        store.put("t", tensor, block_shape=(2, 2, 2))
        tucker = hosvd(tensor, clip_ranks(tensor.shape, [3, 3, 3]))
        return tensor, store, FactorEngine(tucker, study="topk")

    def _brute_force(self, tensor, engine):
        residuals = {}
        for row, stored in zip(tensor.coords, tensor.values):
            index = tuple(int(i) for i in row)
            residuals[index] = abs(stored - engine.point(index))
        return residuals

    def test_topk_matches_brute_force(self, served):
        tensor, store, engine = served
        k = 5
        expected = self._brute_force(tensor, engine)
        result = engine.topk_anomalies(store, "t", k)
        assert len(result) == k
        worst = sorted(expected.values(), reverse=True)[:k]
        got = [residual for _idx, _s, _p, residual in result]
        assert got == sorted(got, reverse=True)
        assert np.allclose(got, worst, atol=1e-10)
        for index, stored, predicted, residual in result:
            assert residual == pytest.approx(
                abs(stored - predicted), abs=1e-12
            )
            assert expected[index] == pytest.approx(residual, abs=1e-10)

    def test_topk_restricted_to_slice(self, served):
        tensor, store, engine = served
        mode, index = 0, 2
        result = engine.topk_anomalies(store, "t", 3, mode=mode, index=index)
        assert all(idx[mode] == index for idx, _s, _p, _r in result)
        on_slice = {
            tuple(int(i) for i in row): abs(v - engine.point(row))
            for row, v in zip(tensor.coords, tensor.values)
            if row[mode] == index
        }
        worst = sorted(on_slice.values(), reverse=True)[:3]
        assert np.allclose(
            [r for _i, _s, _p, r in result], worst, atol=1e-10
        )

    def test_k_larger_than_nnz(self, served):
        tensor, store, engine = served
        result = engine.topk_anomalies(store, "t", tensor.nnz + 10)
        assert len(result) == tensor.nnz

    def test_bad_k(self, served):
        _tensor, store, engine = served
        with pytest.raises(QueryError, match="k >= 1"):
            engine.topk_anomalies(store, "t", 0)


def test_rank_clipped_factors():
    """Requested ranks above a mode's extent are served correctly."""
    dense = np.random.default_rng(5).standard_normal((2, 6, 3))
    tucker = hosvd(SparseTensor.from_dense(dense), clip_ranks(dense.shape, [8, 8, 8]))
    engine = FactorEngine(tucker)
    full = tucker.reconstruct()
    for index in [(0, 0, 0), (1, 5, 2), (0, 3, 1)]:
        assert engine.point(index) == pytest.approx(full[index], abs=1e-10)
    assert np.allclose(engine.slice(1, 4), full[:, 4, :], atol=1e-10)
