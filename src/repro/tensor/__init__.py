"""Tensor algebra substrate: dense/sparse tensors, unfoldings, n-mode
products, deterministic truncated SVD, Tucker (HOSVD/HOOI) and CP-ALS.

This package is self-contained (numpy/scipy only) and is the
foundation the M2TD algorithms in :mod:`repro.core` build on.
"""

from .completion import CompletionResult, completion_accuracy, em_tucker
from .cp import CPTensor, cp_als
from .gram import gram_hosvd, mode_gram, sparse_project, sparse_ttm
from .dense import as_tensor, mask_like, mode_means, normalize, pad_to_shape
from .ops import frobenius_norm, inner, khatri_rao, kron, outer, relative_error
from .rank_selection import (
    describe_rank_profile,
    energy_rank_of_matrix,
    energy_threshold_ranks,
)
from .random import (
    make_rng,
    random_dense,
    random_low_rank,
    random_orthonormal,
    random_sparse,
    spawn_seeds,
)
from .sparse import SparseTensor
from .svd import (
    deterministic_signs,
    leading_left_singular_vectors,
    spectral_energy,
    truncated_svd,
)
from .ttm import multi_ttm, ttm, ttv
from .tucker import (
    TuckerTensor,
    clip_ranks,
    hooi,
    hosvd,
    st_hosvd,
    validate_ranks,
)
from .unfold import fold, unfold, unfold_row_index

__all__ = [
    "CompletionResult",
    "completion_accuracy",
    "em_tucker",
    "gram_hosvd",
    "mode_gram",
    "sparse_project",
    "sparse_ttm",
    "describe_rank_profile",
    "energy_rank_of_matrix",
    "energy_threshold_ranks",
    "CPTensor",
    "cp_als",
    "as_tensor",
    "mask_like",
    "mode_means",
    "normalize",
    "pad_to_shape",
    "frobenius_norm",
    "inner",
    "khatri_rao",
    "kron",
    "outer",
    "relative_error",
    "make_rng",
    "random_dense",
    "random_low_rank",
    "random_orthonormal",
    "random_sparse",
    "spawn_seeds",
    "SparseTensor",
    "deterministic_signs",
    "leading_left_singular_vectors",
    "spectral_energy",
    "truncated_svd",
    "multi_ttm",
    "ttm",
    "ttv",
    "TuckerTensor",
    "clip_ranks",
    "hooi",
    "hosvd",
    "st_hosvd",
    "validate_ranks",
    "fold",
    "unfold",
    "unfold_row_index",
]
