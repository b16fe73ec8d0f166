"""Computations on finite-dimensional real normed spaces and an engine that
checks the phase-isometry equation and factors surjective phase-isometries
into a sign function times a linear isometry."""

from .settings import DEFAULT_TOL, Tolerances, tolerances_from_env
from .spaces import (DimensionMismatch, ExposedPoint, Functional, NormSpec,
                     SupportDescription, Vector, directional_derivative,
                     finite_difference_directional, is_w_star_exposed, norm, support_set)
from .orthogonality import (Hyperplane, L1OrthogonalityTriple, OrthogonalityVerdict,
                            birkhoff_verdict, is_birkhoff_orthogonal,
                            l1_orthogonality_triple, orthogonal_hyperplane)
from .phase_maps import (LinearMap, MissingSamples, PhaseMapOracle, SampleFormatError,
                         SignAssignment, canonical_ray, check_phase_equation,
                         check_phase_equation_batch, check_wigner_equation, generate_isometry,
                         generate_phase_isometry, check_phase_invariants,
                         make_sign_flip_oracle, multiset_match, ray_key,
                         ray_keys, read_samples, read_table, write_samples)
from .decomposition import (CollinearityViolation, DecompositionCertificate,
                            DecompositionError, FunctionalRecovery, NoStabilization,
                            NotDecomposable, NotExposed, QueryPlan, RangeDegenerate,
                            RouteUnsupported, SmoothnessFailure, SurjectivityNotDeclared,
                            TwoDimNormalization, decompose, normalize_two_dim, plan_queries,
                            recover_functional, recover_projective_linear, route_for)
from .harness import (CampaignConfig, CampaignReport, TrialOutcome, run_campaign,
                      run_trial, score_certificate, trial_seed)

__version__ = "0.1.0"
