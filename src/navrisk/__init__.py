"""Driving-scenario simulator and per-actor navigation risk engine.

`import navrisk` loads no submodule: each public name is looked up in
_HOMES on first use (PEP 562) and loads only the submodule that defines
it, with what that submodule imports.  So generate_case_study loads
scenario.py alone, and neither the planner nor the compiled kernel's
loader (ctypes) until a name that needs them is read.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it; a submodule's own name
# maps to itself
_HOMES = {name: home for home, names in (
    ("planner", ("GoalSpec", "LatticeConfig", "Plan", "PlannerConfig",
                 "PlanningInfeasible", "PlanSet", "collision_check",
                 "enumerate_plans", "plan_sampling")),
    ("prediction", ("PredictionConfig", "predict_linear", "prediction_error",
                    "sample_predictions", "sample_worlds")),
    ("risk", ("DegenerateScenario", "LatticeCapExceeded", "actor_importance",
              "actor_risk_exact", "all_actor_risk_exact", "lattice_risks",
              "leave_one_out", "min_risk_selection", "monte_carlo_importance",
              "total_risk_exact")),
    ("scenario", ("ActorState", "CaseStudyParams", "RoadMap", "Scenario",
                  "ScenarioError", "Trajectory", "generate_case_study",
                  "load_scenario", "save_scenario", "slice_world")),
    ("simulate", ("RunConfig", "RunResult", "StepRecord", "run_simulation")),
) for name in (home, *names)}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = globals()[name] = module if name == home else \
        getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES})
