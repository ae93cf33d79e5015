"""Driving-scenario simulator and per-actor navigation risk engine."""

import os

# navrisk makes no BLAS call (no matrix product, dot or linalg), so the
# OpenBLAS worker threads that numpy starts at import only burn CPU at
# start-up.  One thread unless the user set another count.  navrisk loads
# numpy lazily, only where it works on arrays (the sampled futures, their
# statistics and the KL importance), so this holds wherever navrisk is
# imported before numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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
    DegenerateScenario,
    LatticeCapExceeded,
    actor_importance,
    actor_risk_exact,
    all_actor_risk_exact,
    lattice_risks,
    leave_one_out,
    min_risk_selection,
    monte_carlo_importance,
    total_risk_exact,
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
