"""reconphase: reconstruction phases, invariant tori and petal/flower
geometry for symmetric dynamical systems with periodic reduced dynamics.

The package is layered bottom-up:

``liegroup``
    S^1 x SO(3) (and SO(3)) group arithmetic: quaternion rotations,
    conjugation, the reference maximal torus, regular elements,
    conjugators into the torus and the projective Weyl invariant.
``dynsys``
    The two model systems — a ball rolling inside a surface of
    revolution and a free rigid body — with their symmetry actions,
    reductions and pointwise invariants.
``integrate``
    Numerics only: DOP853 integration with quaternion renormalization
    (dense output where a trajectory is kept), lockstep batches of
    fixed-horizon flows over packed columns, and the reduced-period
    section search.
``reconstruct``
    The per-orbit reconstruction phase gamma with act(gamma, m) =
    flow(m, tau), torus coordinates eta, invariant-torus embeddings and
    their commuting-square residuals against the flow, flower frames,
    the petal invariant delta and petal classification.
``verify``
    Randomized invariance checks with pass/fail/inconclusive reports,
    admissible-sample generators, and an independent rigid-body
    rotation-angle oracle.
``config`` / ``cli``
    JSON run configurations and the ``reconphase`` command-line tool,
    which alone writes the v1 CSV and JSON files.
"""

from .errors import (
    ConfigError,
    DomainError,
    IntegrationError,
    NotPeriodicError,
    OracleUnavailableError,
    PeriodNotFoundError,
    PhaseInconsistencyError,
    ReconphaseError,
    SamplerExhaustedError,
    SectionRefinementError,
)
from .liegroup import (
    GroupElement,
    Rotation,
    Xi,
    conj,
    conjugator_to_torus,
    exp_so3,
    fold_projective,
    group_distance,
    is_regular,
    projective_distance,
    torus_coords,
    torus_rank,
    weyl_representative,
)
from .dynsys import (
    BALL,
    RIGID,
    IntegrationDefaults,
    PhasePoint,
    SurfaceProfile,
    SystemSpec,
    act,
    ball_point,
    d_act,
    make_ball_system,
    make_rigid_body,
    rigid_point,
    state_distance,
    vector_field,
)
from .integrate import (
    PeriodResult,
    Trajectory,
    find_reduced_period,
    flow,
    flow_many,
    flow_trajectory,
)
from .reconstruct import (
    PhaseResult,
    conjugacy_residuals,
    delta,
    delta_from_axis,
    flower_frame,
    frequency_mismatch,
    phase,
    reduced_orbit_distance,
    same_petal,
    torus_embed,
    weyl_partner,
)
from .verify import (
    ALL_CHECKS,
    CheckReport,
    check_delta_integral,
    check_equivariance,
    check_flower_invariants,
    check_frequency_flower_constancy,
    check_linearization,
    check_period_continuity,
    check_phase_conserved,
    check_vf_invariance,
    measured_rotation_angle,
    momentum_loop_area,
    montgomery_oracle,
    rigid_family_margin,
    sample_ball,
    sample_points,
    sample_rigid,
)

__version__ = "0.1.0"
