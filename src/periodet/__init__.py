"""Optimal stopping for periodic MDPs and quickest change detection in
periodically distributed data."""

from .belief import (
    BeliefState,
    BeliefUpdateError,
    OddsState,
    belief_to_log_odds,
    log_odds_to_belief,
    update_belief,
    update_odds_general,
    update_odds_geometric,
)
from .detection_dp import (
    BeliefGrid,
    DetectionCostSpec,
    DetectionSolution,
    detection_mdp,
    extract_thresholds,
    solve_detection,
)
from .ipid_model import (
    Gaussian,
    GeometricPrior,
    IpidScenario,
    SamplePath,
    TabulatedPrior,
    kl_information,
    log_likelihood_ratio,
    prior_tail_exponent,
    sample_path,
    stage_of,
)
from .monte_carlo import (
    AddPfaResult,
    PeriodicThresholds,
    SimulationReport,
    SingleThreshold,
    analytic_delay,
    estimate_add_pfa,
    estimate_bayes_cost,
    lower_bound_check,
    run_policy,
    sweep_single_threshold,
)
from .periodic_mdp import (
    PeriodicMdp,
    PeriodicPolicy,
    StageValues,
    apply_cycle_operator,
    apply_policy_operator,
    apply_stage_operator,
    extract_periodic_policy,
    finite_horizon_oracle,
    fixed_point_residual,
    load_instance,
    simulate_policy,
    value_iterate,
)

__version__ = "0.1.0"
