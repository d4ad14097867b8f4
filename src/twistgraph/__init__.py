"""Manifold-aware factor-graph smoothing with a constant-twist motion prior.

Layers, bottom up: manifold (Lie-group primitives), fgraph (sparse nonlinear
least squares), factors (residuals and analytic Jacobians), tracking
(keyframe scheduling, graph assembly, metrics), simkit (synthetic scenarios
and numerical oracles), formats (file formats), cli (command line).
"""

from .manifold import (
    SE3,
    SO3,
    R3,
    EuclidPoint,
    ManifoldKind,
    ManifoldMismatchError,
    NearSingularError,
    Pose3,
    Rotation3,
    rn,
)
from .fgraph import (
    Factor,
    FactorGraph,
    NoiseModel,
    SolveReport,
    SolverSettings,
    UnderconstrainedGraphError,
    Values,
    VariableKey,
    marginal_covariance,
    optimize,
    total_cost,
)
from .factors import (
    ConstantTwistSpec,
    RollPitchSpec,
    boundary_factors,
    ct_factor,
    ct_jacobians,
    ct_residual,
    prior_factor,
    relative_pose_factor,
    roll_pitch_factor,
    usbl_factor,
)
from .tracking import (
    EstimateRow,
    Keyframe,
    MeasurementRecord,
    MeasurementStream,
    ModePolicy,
    NeedsPriorError,
    TrackingConfig,
    TrajectoryEstimate,
    build_graph,
    extrapolate,
    initialize_values,
    measurement_baselines,
    metrics,
    schedule_keyframes,
    smooth,
)
from .simkit import (
    GroundTruth,
    ScenarioConfig,
    TwistSegment,
    finite_difference_jacobian,
    generate_ground_truth,
    synthesize_measurements,
    unit_circle_fixtures,
)

__version__ = "0.1.0"
