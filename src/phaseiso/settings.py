"""Numerical tolerance settings shared across the library."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class Tolerances:
    """All comparison thresholds in one record.

    rel            relative tolerance for norm/functional comparisons; the one
                   settable value (``Tolerances(rel)``, ``--tol``, ``PHASE_TOL``),
                   which must be finite and > 0

    The other six are fixed class constants, read as ``tol.<name>`` and
    reported by ``to_dict`` beside ``rel``:

    fd             acceptance threshold for finite-difference fallbacks
    boundary       margin for boolean orthogonality verdicts near the threshold
    collinearity   sine-of-angle bound for projective consistency checks
    stabilization  dual-norm agreement required between successive functional
                   estimates on the t-schedule
    tie            residual spread, per unit |x + y|, below which pins are tied
    functional     relative bound for |x*(x)| vs |phi(f(x))| agreement
    """

    rel: float = 1e-9
    fd: ClassVar[float] = 1e-6
    boundary: ClassVar[float] = 1e-9
    collinearity: ClassVar[float] = 1e-8
    stabilization: ClassVar[float] = 1e-9
    tie: ClassVar[float] = 1e-9
    functional: ClassVar[float] = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.rel) and self.rel > 0):
            raise ValueError(f"tolerance 'rel' must be finite and > 0, got {self.rel}")

    def scaled(self, magnitude: float) -> float:
        """Absolute threshold for comparing values of the given magnitude."""
        return self.rel * (1.0 + abs(magnitude))

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in
                ("rel", "fd", "boundary", "collinearity", "stabilization", "tie", "functional")}


DEFAULT_TOL = Tolerances()


def tolerances_from_env() -> Tolerances:
    """DEFAULT_TOL with its rel replaced by PHASE_TOL, if that is set."""
    raw = os.environ.get("PHASE_TOL")
    return Tolerances(float(raw)) if raw else DEFAULT_TOL
