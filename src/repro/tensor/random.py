"""Seed normalization: an int seed, a generator or ``None`` becomes a
``numpy.random.Generator``."""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Normalize a seed or generator into a ``numpy.random.Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
