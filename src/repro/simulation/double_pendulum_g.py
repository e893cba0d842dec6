"""The intro's 5-parameter double pendulum: gravity as a parameter.

Paper Figure 2 motivates the whole problem with a double equal-length
pendulum whose *five* controllable parameters are the two initial
angles, the two bob weights, and gravity ``g`` — leading to the
``20^5`` simulation-space explosion of Section I-B.  The evaluation
then freezes gravity; this subclass keeps it free, giving a 6-mode
ensemble tensor ``(phi1, m1, phi2, m2, g, t)``.

With six modes the PF-partitioning generalizes beyond the evaluated
``k = 1``: two pivots (say ``g`` and ``t``) leave four free modes to
split 2 + 2 — the multi-pivot regime the ``ext-pendulum5`` experiment
exercises.  The equation of motion is the parent's; this subclass only
supplies a per-run ``g``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .double_pendulum import DoublePendulum
from .systems import ParameterDef


class DoublePendulumG(DoublePendulum):
    """Double pendulum with gravity as the fifth simulation parameter."""

    name = "double_pendulum_g"

    def __init__(self, length: float = 1.0):
        super().__init__(gravity=9.81, length=length)
        self._parameters = (
            ParameterDef("phi1", low=0.1, high=2.0, default=1.0),
            ParameterDef("m1", low=0.5, high=3.0, default=1.0),
            ParameterDef("phi2", low=0.1, high=2.0, default=1.0),
            ParameterDef("m2", low=0.5, high=3.0, default=1.0),
            ParameterDef("g", low=3.0, high=15.0, default=9.81),
        )

    @property
    def parameters(self) -> Tuple[ParameterDef, ...]:
        return self._parameters

    def gravity_of(self, params: Dict[str, np.ndarray]) -> np.ndarray:
        """Gravity of each run: the ``g`` parameter."""
        return params["g"]
