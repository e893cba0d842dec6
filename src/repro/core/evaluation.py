"""Accuracy evaluation and the conventional-scheme baseline pipeline.

The paper's accuracy measure (Section VII-D):

    accuracy(X~, Y) = 1 - ||X~ - Y||_F / ||Y||_F

where ``X~`` is the reconstruction after sampling + decomposition and
``Y`` is the full-simulation-space ground truth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ShapeError
from ..sampling.base import SampleSet
from ..tensor.ops import accuracy
from ..tensor.sparse import SparseTensor
from ..tensor.tucker import TuckerTensor, clip_ranks, hosvd


@dataclass
class BaselineResult:
    """Outcome of a conventional sample-then-decompose run."""

    tucker: TuckerTensor
    sample: SampleSet
    decompose_seconds: float

    def accuracy(self, truth: np.ndarray) -> float:
        return accuracy(self.tucker.reconstruct(), truth)


def decompose_sample(
    truth: np.ndarray,
    sample: SampleSet,
    ranks: Sequence[int],
) -> BaselineResult:
    """Run a conventional baseline: read the sampled cells from the
    ground truth, decompose the resulting sparse ensemble tensor with
    HOSVD, and time the decomposition.

    Ranks are clipped per mode where the (small, scaled-down) tensor
    cannot supply them.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if truth.shape != sample.shape:
        raise ShapeError(
            f"truth shape {truth.shape} != sample shape {sample.shape}"
        )
    values = truth[tuple(sample.coords.T)]
    ensemble = SparseTensor(sample.shape, sample.coords, values)
    effective_ranks = clip_ranks(sample.shape, ranks)
    started = time.perf_counter()
    tucker = hosvd(ensemble, effective_ranks)
    elapsed = time.perf_counter() - started
    return BaselineResult(
        tucker=tucker, sample=sample, decompose_seconds=elapsed
    )
