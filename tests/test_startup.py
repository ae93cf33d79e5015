"""Start-up cost: no navrisk module imports numpy, and no function
loads it.

The lattice is walked, every collision checked and every sum, the KL
importance's among them, taken in the compiled kernel, so
enumerate_plans, the exact risks and their KL importances,
collision_check and min_risk_selection load no numpy.
tests/test_cli.py probes the commands the same way: no command loads
numpy, run --operator kl and --samples among them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def loads_numpy(code):
    """Whether a fresh interpreter that runs code ends with numpy in
    sys.modules."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.split()[-1]]


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
        "from navrisk import (ActorState, LatticeConfig, RoadMap,\n"
        "    Trajectory, collision_check, enumerate_plans,\n"
        "    min_risk_selection)\n"
        "road, ego = RoadMap(3, 3.5, 300.0, 14.0), "
        "ActorState(10.0, 5.25, 0.0, 8.0)\n"
        "plans = enumerate_plans(road, ego, 0, 20,\n"
        "    LatticeConfig(2, ('keep', 'shift_left'), 10))\n"
        "lead = Trajectory('lead', 0, 0.1,\n"
        "    (ActorState(25.0, 5.25, 0.0, 0.0),) * 21)\n"
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
