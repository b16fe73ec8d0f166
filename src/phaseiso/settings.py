"""Numerical tolerance settings shared across the library."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Tolerances:
    """All comparison thresholds in one record.

    rel            relative tolerance for norm/functional comparisons
    fd             acceptance threshold for finite-difference fallbacks
    boundary       margin for boolean orthogonality verdicts near the threshold
    collinearity   sine-of-angle bound for projective consistency checks
    stabilization  dual-norm agreement required between successive functional
                   estimates on the t-schedule
    tie            residual spread below which sign pinning is treated as tied
    functional     relative bound for |x*(x)| vs |phi(f(x))| agreement

    Every value must be finite and > 0.
    """

    rel: float = 1e-9
    fd: float = 1e-6
    boundary: float = 1e-9
    collinearity: float = 1e-8
    stabilization: float = 1e-9
    tie: float = 1e-9
    functional: float = 1e-8

    def __post_init__(self):
        for name, value in self.to_dict().items():
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"tolerance {name!r} must be finite and > 0, got {value}")

    def with_rel(self, rel: float) -> "Tolerances":
        return replace(self, rel=rel)

    def scaled(self, magnitude: float) -> float:
        """Absolute threshold for comparing values of the given magnitude."""
        return self.rel * (1.0 + abs(magnitude))

    def to_dict(self) -> dict:
        return {
            "rel": self.rel,
            "fd": self.fd,
            "boundary": self.boundary,
            "collinearity": self.collinearity,
            "stabilization": self.stabilization,
            "tie": self.tie,
            "functional": self.functional,
        }


DEFAULT_TOL = Tolerances()


def tolerances_from_env(base: Tolerances = DEFAULT_TOL) -> Tolerances:
    """Apply the PHASE_TOL override, if set, to the main comparison tolerance."""
    raw = os.environ.get("PHASE_TOL")
    if not raw:
        return base
    return base.with_rel(float(raw))
