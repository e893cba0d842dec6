"""The paper's contribution: JE-stitching and Multi-Task Tensor
Decomposition (M2TD), plus the end-to-end study pipeline.
"""

from .evaluation import BaselineResult, accuracy, decompose_sample
from .join_tensor import dense_join_from_subs, join_core
from .m2td import M2TDResult, m2td_decompose, map_ranks_to_join
from .pipeline import EnsembleStudy, StudyResult
from .row_select import average_factors, row_select, row_select_source
from .stitch import (
    dense_to_original_order,
    join_tensor,
    to_original_order,
    zero_join_tensor,
)

__all__ = [
    "BaselineResult",
    "accuracy",
    "decompose_sample",
    "dense_join_from_subs",
    "join_core",
    "M2TDResult",
    "m2td_decompose",
    "map_ranks_to_join",
    "EnsembleStudy",
    "StudyResult",
    "average_factors",
    "row_select",
    "row_select_source",
    "dense_to_original_order",
    "join_tensor",
    "to_original_order",
    "zero_join_tensor",
]
