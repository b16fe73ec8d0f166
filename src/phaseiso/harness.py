"""Seeded round-trip campaigns: generate a hidden factorization, decompose,
and score the recovery.

All randomness flows from one 64-bit seed through numpy's PCG64; each trial
derives its own child seed, recorded in the report, so any failure replays
bit-for-bit.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .decomposition import (DecompositionCertificate, DecompositionError,
                            NotDecomposable, decompose)
from .phase_maps import (PhaseMapOracle, _hash_signs, generate_isometry, generate_phase_isometry,
                         ray_keys)
from .settings import DEFAULT_TOL, Tolerances
from .spaces import NormSpec

__all__ = [
    "CampaignConfig",
    "TrialOutcome",
    "CampaignReport",
    "trial_seed",
    "run_trial",
    "score_certificate",
    "run_campaign",
]

RNG_NAME = "numpy-pcg64/seedseq-v1"


@dataclass(frozen=True)
class CampaignConfig:
    space: NormSpec
    trials: int
    seed: int
    route: str = "auto"
    tolerances: Tolerances = DEFAULT_TOL
    even: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("a campaign needs at least one trial")

    def to_dict(self) -> dict:
        return {"space": self.space.to_json(), "trials": self.trials,
                "seed": self.seed, "route": self.route, "even": self.even,
                "tolerances": self.tolerances.to_dict(), "rng": RNG_NAME}


@dataclass
class TrialOutcome:
    index: int
    seed: int
    status: str  # success | not_decomposable | error
    t_error: Optional[float] = None
    residual_max: Optional[float] = None
    eps_consistent: Optional[bool] = None
    message: Optional[str] = None

    def to_dict(self) -> dict:
        return {k: v for k, v in {
            "index": self.index, "seed": self.seed, "status": self.status,
            "t_error": self.t_error, "residual_max": self.residual_max,
            "eps_consistent": self.eps_consistent, "message": self.message,
        }.items() if v is not None}


@dataclass
class CampaignReport:
    config: CampaignConfig
    outcomes: List[TrialOutcome] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def successes(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "success")

    @property
    def failures(self) -> List[TrialOutcome]:
        return [o for o in self.outcomes if o.status != "success"]

    @property
    def failing_seeds(self) -> List[int]:
        return [o.seed for o in self.failures]

    def to_dict(self) -> dict:
        t_errors = [o.t_error for o in self.outcomes if o.t_error is not None]
        residuals = [o.residual_max for o in self.outcomes if o.residual_max is not None]
        counts: dict = {}
        for o in self.outcomes:
            counts[o.status] = counts.get(o.status, 0) + 1
        return {
            "config": self.config.to_dict(),
            "counts": counts,
            "trials": len(self.outcomes),
            "successes": self.successes,
            "failing_seeds": self.failing_seeds,
            "max_t_error": max(t_errors) if t_errors else None,
            "max_residual": max(residuals) if residuals else None,
            "outcomes": [o.to_dict() for o in self.outcomes],
            "timing": {"wall_seconds": self.wall_seconds},
        }


def trial_seed(campaign_seed: int, index: int) -> int:
    """Child seed for one trial; stable across runs and platforms."""
    ss = np.random.SeedSequence([campaign_seed & 0xFFFFFFFFFFFFFFFF, index])
    return int(ss.generate_state(1, np.uint64)[0])


def score_certificate(oracle: PhaseMapOracle, cert: DecompositionCertificate) -> dict:
    """Compare a certificate against the oracle's hidden ground truth.

    The global sign of T is unidentifiable, so the matrix is matched up to a
    single sign s and each recovered phase must equal s times the hidden one.
    For an even generated oracle whose domain equals (``==``) the space the
    certificate keys its signs in, every key of the sign table, all-zero or
    not, is a rounded ray the oracle hashed, so its sign is hashed again
    from the key itself.  For any other oracle each logged nonzero point is
    keyed in the certificate's space and compared with the hidden sign of the
    point; a point outside the certificate's transcript is not scored.
    """
    truth = oracle.hidden_truth
    if truth is None:
        raise ValueError("oracle carries no hidden truth to score against")
    t_true = truth["T"].matrix
    t_hat = cert.T.matrix
    err_plus = float(np.max(np.abs(t_hat - t_true)))
    err_minus = float(np.max(np.abs(t_hat + t_true)))
    s = 1 if err_plus <= err_minus else -1
    table, space = cert.sign_table.table, cert.sign_table.space
    if truth["even"] and oracle.domain == space:
        keys = np.fromiter(itertools.chain.from_iterable(table), float,
                           len(table) * space.dim).reshape(-1, space.dim)
        recovered = np.fromiter(table.values(), dtype=int, count=len(table))
        hashed = _hash_signs(truth["seed"], keys, np.ones(len(keys), dtype=bool))
        eps_ok = bool(np.all(recovered * s == hashed))
    else:
        logged = np.array(oracle.query_log, dtype=float).reshape(-1, oracle.domain.dim)
        logged = logged[logged.any(axis=1)]
        recovered = map(table.get, ray_keys(logged, space))
        eps_ok = all(r is None or r * s == want
                     for r, want in zip(recovered, truth["signs_of"](logged).tolist()))
    return {"t_error": min(err_plus, err_minus), "global_sign": s,
            "eps_consistent": eps_ok}


def run_trial(space: NormSpec, seed: int, route: str = "auto",
              tol: Tolerances = DEFAULT_TOL, even: bool = True) -> TrialOutcome:
    """One generate -> decompose -> score round trip."""
    t_map = generate_isometry(space, seed)
    oracle = generate_phase_isometry(t_map, seed, even=even)
    try:
        cert = decompose(oracle, route=route, seed=seed, tol=tol)
    except NotDecomposable as exc:
        return TrialOutcome(0, seed, "not_decomposable", message=str(exc))
    except DecompositionError as exc:
        return TrialOutcome(0, seed, "error", message=str(exc))
    score = score_certificate(oracle, cert)
    ok = score["t_error"] <= 1e-9 and score["eps_consistent"]
    return TrialOutcome(0, seed, "success" if ok else "error",
                        t_error=score["t_error"], residual_max=cert.residual_max,
                        eps_consistent=score["eps_consistent"],
                        message=None if ok else "recovered map strays from the hidden truth")


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the configured number of independent seeded trials."""
    report = CampaignReport(config)
    start = time.perf_counter()
    for i in range(config.trials):
        seed = trial_seed(config.seed, i)
        outcome = run_trial(config.space, seed, config.route,
                            config.tolerances, config.even)
        outcome.index = i
        report.outcomes.append(outcome)
    report.wall_seconds = time.perf_counter() - start
    return report
