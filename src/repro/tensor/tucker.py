"""Tucker decomposition: the ``TuckerTensor`` container, HOSVD
(Algorithm 1 of the paper), and HOOI refinement.

HOSVD is the building block every M2TD variant modifies: matricize the
tensor along each mode, take the leading left singular vectors as the
factor matrix, then recover the dense core by projecting the tensor
onto the factor subspaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import RankError, ShapeError
from ..observability import get_metrics, span as _span
from .ops import accuracy, frobenius_norm, relative_error
from .sparse import SparseTensor
from .svd import leading_left_singular_vectors
from .ttm import multi_ttm, ttm
from .unfold import unfold

TensorLike = Union[np.ndarray, SparseTensor]


@dataclass
class TuckerTensor:
    """A Tucker decomposition ``[G; U^(1), ..., U^(N)]``.

    Attributes
    ----------
    core:
        Dense core tensor of shape ``(r_1, ..., r_N)``.
    factors:
        One ``(I_n, r_n)`` factor matrix per mode.
    """

    core: np.ndarray
    factors: List[np.ndarray]

    def __post_init__(self) -> None:
        self.core = np.asarray(self.core, dtype=np.float64)
        self.factors = [np.asarray(f, dtype=np.float64) for f in self.factors]
        if self.core.ndim != len(self.factors):
            raise ShapeError(
                f"core has {self.core.ndim} modes but "
                f"{len(self.factors)} factors were given"
            )
        for mode, factor in enumerate(self.factors):
            if factor.ndim != 2:
                raise ShapeError(f"factor {mode} is not a matrix")
            if factor.shape[1] != self.core.shape[mode]:
                raise ShapeError(
                    f"factor {mode} has {factor.shape[1]} columns but core "
                    f"mode {mode} has size {self.core.shape[mode]}"
                )

    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the tensor this decomposition reconstructs."""
        return tuple(f.shape[0] for f in self.factors)

    @property
    def rank(self) -> Tuple[int, ...]:
        return self.core.shape

    @property
    def ndim(self) -> int:
        return self.core.ndim

    def reconstruct(self) -> np.ndarray:
        """Recompose ``G ×_1 U^(1) ×_2 ... ×_N U^(N)`` densely.

        Metered as ``tucker.reconstructs`` — the serving layer's whole
        contract is answering queries with this counter at zero, and
        its tests assert exactly that.
        """
        get_metrics().counter("tucker.reconstructs").inc()
        return multi_ttm(self.core, self.factors)

    def relative_error(self, reference: np.ndarray) -> float:
        """``||reconstruct() - reference||_F / ||reference||_F``."""
        return relative_error(self.reconstruct(), np.asarray(reference))

    def accuracy(self, reference: np.ndarray) -> float:
        """The paper's accuracy measure ``1 - rel_err`` (Section VII-D);
        a zero-norm or non-finite reference raises :class:`ShapeError`
        (see :func:`~repro.tensor.ops.accuracy`)."""
        return accuracy(self.reconstruct(), reference)

    def compression_ratio(self) -> float:
        """Stored parameters of the decomposition / dense tensor size."""
        stored = self.core.size + sum(f.size for f in self.factors)
        return stored / float(np.prod(self.shape))


def validate_ranks(shape: Sequence[int], ranks: Sequence[int]) -> Tuple[int, ...]:
    """Check one positive rank per mode, each within the mode size."""
    shape = tuple(int(s) for s in shape)
    ranks = tuple(int(r) for r in ranks)
    if len(ranks) != len(shape):
        raise RankError(
            f"need one rank per mode ({len(shape)}), got {len(ranks)}"
        )
    for mode, (size, rank) in enumerate(zip(shape, ranks)):
        if rank < 1:
            raise RankError(f"rank for mode {mode} must be >= 1, got {rank}")
        if rank > size:
            raise RankError(
                f"rank {rank} for mode {mode} exceeds mode size {size}"
            )
    return ranks


def clip_ranks(shape: Sequence[int], ranks: Sequence[int]) -> Tuple[int, ...]:
    """Clamp each requested rank into ``[1, mode size]``.

    Experiment sweeps request a uniform rank per table row; small
    scaled-down tensors may not support it on every mode.
    """
    return tuple(
        max(1, min(int(r), int(s))) for s, r in zip(shape, ranks)
    )


def _as_dense(tensor: TensorLike) -> np.ndarray:
    if isinstance(tensor, SparseTensor):
        return tensor.to_dense()
    return np.asarray(tensor, dtype=np.float64)


def hosvd(tensor: TensorLike, ranks: Sequence[int]) -> TuckerTensor:
    """Higher-Order SVD (paper Algorithm 1).

    One route for every input: a :class:`SparseTensor` is densified
    first (null cells become 0.0), then each factor is the leading
    left singular vectors of a dense unfolding
    (:func:`~repro.tensor.svd.leading_left_singular_vectors`) and the
    core is the tensor projected onto the factors.  So ``hosvd(x)`` and
    ``hosvd(x.to_dense())`` are bit-identical.  The largest configured
    tensor (12**5 cells) is 2 MB dense.

    Parameters
    ----------
    tensor:
        The input tensor (dense ndarray or SparseTensor).
    ranks:
        Target rank per mode, ``(r_1, ..., r_N)``.
    """
    shape = tensor.shape
    ranks = validate_ranks(shape, ranks)
    with _span(
        "hosvd",
        "decompose",
        shape=shape,
        ranks=ranks,
        sparse=isinstance(tensor, SparseTensor),
    ):
        dense = _as_dense(tensor)
        factors = [
            leading_left_singular_vectors(unfold(dense, mode), rank)
            for mode, rank in enumerate(ranks)
        ]
        core = multi_ttm(dense, factors, transpose=True)
        return TuckerTensor(core, factors)


def st_hosvd(tensor: TensorLike, ranks: Sequence[int]) -> TuckerTensor:
    """Sequentially truncated HOSVD (Vannieuwenhoven et al.).

    Instead of matricizing the *full* tensor for every mode, each
    mode's factor is extracted from the partially projected tensor and
    the projection is applied immediately — so later modes work on an
    already-compressed core.  Same approximation-error class as HOSVD
    (within a sqrt(N) factor of optimal) at a fraction of the flops;
    benchmarked against plain HOSVD in the substrate bench.
    """
    shape = tensor.shape
    ranks = validate_ranks(shape, ranks)
    with _span("st-hosvd", "decompose", shape=shape, ranks=ranks):
        current = _as_dense(tensor)
        factors: List[np.ndarray] = []
        for mode, rank in enumerate(ranks):
            matricized = unfold(current, mode)
            effective = min(rank, min(matricized.shape))
            factor = leading_left_singular_vectors(matricized, effective)
            factors.append(factor)
            # Project this mode away before touching the next one.
            current = ttm(current, factor.T, mode)
        return TuckerTensor(current, factors)


def hooi(
    tensor: TensorLike,
    ranks: Sequence[int],
    n_iter: int = 10,
    tol: float = 1e-7,
    initial: Optional[TuckerTensor] = None,
) -> TuckerTensor:
    """Higher-Order Orthogonal Iteration refinement of HOSVD.

    Alternately re-fits each factor matrix against the tensor projected
    onto all *other* factor subspaces, until the fit improves by less
    than ``tol`` or ``n_iter`` sweeps elapse.  Used as an ablation of
    the plain-HOSVD sub-decompositions inside M2TD.  Without an
    ``initial`` decomposition the iteration starts from :func:`hosvd`;
    the sweeps are dense.
    """
    shape = tensor.shape
    ranks = validate_ranks(shape, ranks)
    dense = _as_dense(tensor)
    current = initial if initial is not None else hosvd(tensor, ranks)
    factors = [f.copy() for f in current.factors]
    norm = frobenius_norm(dense)
    previous_fit = -np.inf
    with _span("hooi", "decompose", shape=shape, ranks=ranks) as sp:
        sweeps = 0
        for _sweep in range(max(1, int(n_iter))):
            sweeps += 1
            for mode in range(dense.ndim):
                projected = multi_ttm(
                    dense, factors, transpose=True, skip=[mode]
                )
                factors[mode] = leading_left_singular_vectors(
                    unfold(projected, mode), ranks[mode]
                )
            # The final leave-one-out projection already applied every
            # factor except the last mode's, in the same ascending
            # order multi_ttm uses — one more product yields the core
            # bit-for-bit, without re-projecting from scratch.
            core = ttm(projected, factors[-1].T, dense.ndim - 1)
            # For orthonormal factors ||X - X~||^2 = ||X||^2 - ||G||^2.
            fit = frobenius_norm(core)
            if norm > 0 and abs(fit - previous_fit) / norm < tol:
                previous_fit = fit
                break
            previous_fit = fit
        sp.set(sweeps=sweeps)
    return TuckerTensor(core, factors)
