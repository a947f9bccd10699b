"""Optimal stopping for periodic MDPs and quickest change detection in
periodically distributed data."""

from .belief import (
    BeliefUpdateError,
    OddsState,
    belief_to_log_odds,
    log_odds_step_geometric,
    log_odds_to_belief,
    update_odds,
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
    kl_information,
    log_likelihood_ratio,
    prior_tail_exponent,
    sample_path,
    simpson_window,
)
from .monte_carlo import (
    AddPfaResult,
    AddPfaSweep,
    PeriodicThresholds,
    SimulationReport,
    SingleThreshold,
    analytic_delay,
    estimate_add_pfa,
    estimate_bayes_cost,
    sweep_single_threshold,
)
from .periodic_mdp import (
    PeriodicMdp,
    PeriodicPolicy,
    StageValues,
    apply_cycle_operator,
    apply_stage_operator,
    evaluate_policy,
    extract_periodic_policy,
    finite_horizon_oracle,
    fixed_point_residual,
    load_instance,
    policy_iterate,
    simulate_policy,
    value_iterate,
)

__version__ = "0.1.0"
