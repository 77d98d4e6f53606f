"""Distance-based formation control toolkit.

Graphs and agent configurations go in; rigidity matrices, tangent-space
projectors, controller vector fields, stability certificates, and simulated
trajectories come out.  All public types are immutable values and all
operations are pure functions of their inputs (random ones take explicit
seeds), so everything here is safe to share across concurrent runs.
"""

from rigidform.graphs import (
    Graph,
    Orientation,
    Configuration,
    Measurement,
    build_graph,
    orient,
    edge_index,
)
from rigidform.rigidity import (
    distance_map,
    rigidity_matrix,
    directed_rigidity_matrix,
    matrix_rank,
    generic_rank,
    max_generic_rank,
    is_generically_rigid,
    is_regular_point,
    tangent_basis,
    TangentBasis,
    projector,
    min_norm_lift,
    rigid_motion_basis,
    congruence_check,
    RankDeficiencyError,
)
from rigidform.controllers import (
    ControllerSpec,
    gradient_field,
    model_field,
    directed_field,
    evaluate_field,
    field_gain,
    eta_matrix,
    node_potential,
    edge_potential,
)
from rigidform.certificates import (
    CertificateReport,
    AdmissibilityReport,
    PersistenceReport,
    EdgeLinearization,
    restricted_sym_form,
    linearized_edge_matrix,
    admissibility,
    dynamic_admissibility,
    algebraic_admissibility,
    reduction_count,
    persistence_check,
)
from rigidform.simulate import (
    IntegratorConfig,
    TerminationCriteria,
    Trajectory,
    ConvergenceOutcome,
    integrate,
    detect_convergence,
    decay_rate,
    control_energy,
)
from rigidform.scenarios import Scenario, load_scenario, builtin_scenario, builtin_names

__version__ = "0.1.0"

__all__ = [
    "Graph",
    "Orientation",
    "Configuration",
    "Measurement",
    "build_graph",
    "orient",
    "edge_index",
    "distance_map",
    "rigidity_matrix",
    "directed_rigidity_matrix",
    "matrix_rank",
    "generic_rank",
    "max_generic_rank",
    "is_generically_rigid",
    "is_regular_point",
    "tangent_basis",
    "TangentBasis",
    "projector",
    "min_norm_lift",
    "rigid_motion_basis",
    "congruence_check",
    "RankDeficiencyError",
    "ControllerSpec",
    "gradient_field",
    "model_field",
    "directed_field",
    "evaluate_field",
    "field_gain",
    "eta_matrix",
    "node_potential",
    "edge_potential",
    "CertificateReport",
    "AdmissibilityReport",
    "PersistenceReport",
    "EdgeLinearization",
    "restricted_sym_form",
    "linearized_edge_matrix",
    "admissibility",
    "dynamic_admissibility",
    "algebraic_admissibility",
    "reduction_count",
    "persistence_check",
    "IntegratorConfig",
    "TerminationCriteria",
    "Trajectory",
    "ConvergenceOutcome",
    "integrate",
    "detect_convergence",
    "decay_rate",
    "control_energy",
    "Scenario",
    "load_scenario",
    "builtin_scenario",
    "builtin_names",
]
