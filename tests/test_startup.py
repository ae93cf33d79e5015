"""Start-up cost: `import navrisk` loads no submodule, no module
imports numpy, and no function loads it.

navrisk resolves its public names on first use (PEP 562), so a fresh
`import navrisk` loads none of its submodules, nor ctypes (the kernel's
loader) or json, and generate_case_study loads scenario.py alone.

The lattice is walked, every collision checked and every sum, the KL
importance's among them, taken in the compiled kernel, so
enumerate_plans, the exact risks and their KL importances,
collision_check and min_risk_selection load no numpy.
tests/test_cli.py probes the commands the same way: no command loads
numpy, run --operator kl and --samples among them.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import navrisk

SRC = Path(__file__).resolve().parents[1] / "src"

# every name `import navrisk` bound before its names loaded on first use,
# by the submodule that defines it (a submodule by its own name)
NAMES = [(home, name) for home, names in (
    ("planner", ("planner", "GoalSpec", "LatticeConfig", "Plan",
                 "PlannerConfig", "PlanningInfeasible", "PlanSet",
                 "collision_check", "enumerate_plans", "plan_sampling")),
    ("prediction", ("prediction", "PredictionConfig", "predict_linear",
                    "prediction_error", "sample_predictions",
                    "sample_worlds")),
    ("risk", ("risk", "DegenerateScenario", "LatticeCapExceeded",
              "actor_importance", "actor_risk_exact", "all_actor_risk_exact",
              "lattice_risks", "leave_one_out", "min_risk_selection",
              "monte_carlo_importance", "total_risk_exact")),
    ("scenario", ("scenario", "ActorState", "CaseStudyParams", "RoadMap",
                  "Scenario", "ScenarioError", "Trajectory",
                  "generate_case_study", "load_scenario", "save_scenario",
                  "slice_world")),
    ("simulate", ("simulate", "RunConfig", "RunResult", "StepRecord",
                  "run_simulation")),
) for name in names]


def loaded_modules(code):
    """The modules that a fresh interpreter loads to run code, beyond
    those it starts with."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\nbefore = set(sys.modules)\n" + code
         + "\nprint(*sorted(set(sys.modules) - before))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def loads_numpy(code):
    """Whether a fresh interpreter that runs code ends with numpy in
    sys.modules."""
    return "numpy" in loaded_modules(code)


def test_import_loads_no_submodule_ctypes_or_json():
    loaded = loaded_modules("import navrisk")
    assert "navrisk" in loaded
    assert {m for m in loaded if m.startswith("navrisk.")} == set()
    assert not loaded & {"ctypes", "json"}


@pytest.mark.parametrize("code, modules, json_loaded", [
    ("navrisk.generate_case_study()", {"scenario"}, False),
    ("navrisk.save_scenario(navrisk.generate_case_study())", {"scenario"},
     True),
    ("navrisk.Trajectory", {"scenario"}, False),
    ("navrisk.plan_sampling", {"scenario", "_kernel", "prediction",
                               "planner"}, False),
])
def test_a_name_loads_only_what_defines_it(code, modules, json_loaded):
    loaded = loaded_modules("import navrisk\n" + code)
    assert {m for m in loaded if m.startswith("navrisk.")} == \
        {f"navrisk.{m}" for m in modules}
    assert ("ctypes" in loaded) == ("navrisk._kernel" in loaded)
    assert ("json" in loaded) == json_loaded


@pytest.mark.parametrize("home, name", NAMES)
def test_every_exported_name_is_the_defining_object(home, name):
    module = importlib.import_module(f"navrisk.{home}")
    want = module if name == home else getattr(module, name)
    assert getattr(navrisk, name) is want


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from navrisk import *", namespace)
    for home, name in NAMES:
        assert namespace[name] is getattr(navrisk, name)
    assert {name for _, name in NAMES} <= set(dir(navrisk))
    assert sorted(navrisk.__all__) == sorted(name for _, name in NAMES)


def test_an_unknown_name_raises_naming_it():
    with pytest.raises(AttributeError,
                       match="^module 'navrisk' has no attribute "
                             "'no_such_name'$"):
        navrisk.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from navrisk import no_such_name", {})


def test_enumerate_plans_loads_no_numpy():
    assert not loads_numpy(
        "from navrisk import ActorState, RoadMap, LatticeConfig, "
        "enumerate_plans\n"
        "plans = enumerate_plans(RoadMap(3, 3.5, 300.0, 14.0),\n"
        "    ActorState(10.0, 5.25, 0.0, 8.0), 0, 20,\n"
        "    LatticeConfig(2, ('keep', 'brake', 'shift_left'), 10))\n"
        "assert len(plans) == 8 and plans.plans[0].cost > 0")


def test_collision_check_and_min_risk_selection_load_no_numpy():
    assert not loads_numpy(
        "from array import array\n"
        "from navrisk import (ActorState, LatticeConfig, RoadMap,\n"
        "    Trajectory, collision_check, enumerate_plans,\n"
        "    min_risk_selection)\n"
        "road, ego = RoadMap(3, 3.5, 300.0, 14.0), "
        "ActorState(10.0, 5.25, 0.0, 8.0)\n"
        "plans = enumerate_plans(road, ego, 0, 20,\n"
        "    LatticeConfig(2, ('keep', 'shift_left'), 10))\n"
        "lead = Trajectory('lead', 0, 0.1,\n"
        "    array('d', (25.0, 5.25, 0.0, 0.0) * 21))\n"
        "world, radii = {'lead': lead}, {'lead': 1.2}\n"
        "keep = min(plans.plans, key=lambda p: p.cost)\n"
        "assert keep.maneuver_seq == ('keep', 'keep')\n"
        "assert collision_check(keep.trajectory, world, radii, 1.2)\n"
        "sel = min_risk_selection(plans, [world], radii)\n"
        "assert not collision_check(sel.plan.trajectory, world, radii, 1.2)")


@pytest.mark.parametrize("read_kl", [False, True])
def test_exact_risk_loads_no_numpy_either_way(read_kl):
    assert not loads_numpy(
        "from navrisk import LatticeConfig, all_actor_risk_exact, "
        "generate_case_study\n"
        "risk = all_actor_risk_exact(generate_case_study(), 20, 40,\n"
        "    LatticeConfig(8, ('keep', 'shift_left', 'shift_right'), 5))\n"
        "assert risk.z_empty == 1393\n"
        + ("assert set(risk.kl) == set(risk.per_actor)" if read_kl
           else ""))


def test_no_module_imports_numpy():
    """No import statement of any module names numpy, at top level or
    inside a function."""
    found = []
    for path in sorted((SRC / "navrisk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.Import) else
                     [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            found += [(path.name, node.lineno, n) for n in names
                      if n.split(".")[0] == "numpy"]
    assert found == []
