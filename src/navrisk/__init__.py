"""Driving-scenario simulator and per-actor navigation risk engine."""

from .planner import (
    GoalSpec,
    LatticeConfig,
    Plan,
    PlannerConfig,
    PlanningInfeasible,
    PlanSet,
    collision_check,
    enumerate_plans,
    plan_sampling,
)
from .prediction import (
    PredictionConfig,
    predict_linear,
    prediction_error,
    sample_predictions,
    sample_worlds,
)
from .risk import (
    ActorRisk,
    DegenerateScenario,
    LatticeCapExceeded,
    PlanDistribution,
    RiskReport,
    RouterConfig,
    actor_importance,
    actor_risk_exact,
    all_actor_importance_kl,
    all_actor_risk_exact,
    evaluate_tick,
    expected_actor_risk,
    plan_divergence_kl,
    select_min_risk_plan,
    total_risk_exact,
    traj_difference_euclidean,
)
from .scenario import (
    ActorState,
    CaseStudyParams,
    RoadMap,
    Scenario,
    ScenarioError,
    Trajectory,
    generate_case_study,
    load_scenario,
    save_scenario,
    slice_world,
)
from .simulate import RunConfig, RunResult, StepRecord, run_simulation

__version__ = "0.1.0"
