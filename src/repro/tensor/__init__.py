"""Tensor algebra substrate: dense/sparse tensors, unfoldings, n-mode
products, deterministic truncated SVD and Tucker (HOSVD/ST-HOSVD/HOOI).

This package is self-contained (numpy/scipy only) and is the
foundation the M2TD algorithms in :mod:`repro.core` build on.
"""

from .completion import CompletionResult, completion_accuracy, em_tucker
from .ops import frobenius_norm, outer, relative_error
from .random import make_rng
from .sparse import SparseTensor
from .svd import (
    deterministic_signs,
    leading_left_singular_vectors,
    truncated_svd,
    truncated_svds,
)
from .ttm import multi_ttm, ttm
from .tucker import (
    TuckerTensor,
    clip_ranks,
    hooi,
    hosvd,
    st_hosvd,
    validate_ranks,
)
from .unfold import fold, unfold

__all__ = [
    "CompletionResult",
    "completion_accuracy",
    "em_tucker",
    "frobenius_norm",
    "outer",
    "relative_error",
    "make_rng",
    "SparseTensor",
    "deterministic_signs",
    "leading_left_singular_vectors",
    "truncated_svd",
    "truncated_svds",
    "multi_ttm",
    "ttm",
    "TuckerTensor",
    "clip_ranks",
    "hooi",
    "hosvd",
    "st_hosvd",
    "validate_ranks",
    "fold",
    "unfold",
]
