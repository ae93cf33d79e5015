"""Start-up cost: which commands load numpy, and numpy, imported after
navrisk, starts no idle BLAS worker threads.

The lattice is walked and every collision checked in the compiled
kernel, so enumerate_plans, the exact risks, collision_check and
min_risk_selection load no numpy; reading a KL importance (ExactRisk.kl)
does.
tests/test_cli.py probes the commands the same way: oracle, run
--exact-lattice and run --samples load no numpy, run --operator kl does.
navrisk/__init__.py defaults OPENBLAS_NUM_THREADS to 1 at import, before
any of its functions loads numpy (lazily, where it returns or works on
arrays), because navrisk makes no BLAS call and the worker threads that
OpenBLAS starts at import only burn CPU.  A value already set is kept.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
# import navrisk, then numpy after it
PROBE = ("import os, sys, navrisk; assert 'numpy' not in sys.modules; "
         "import numpy; "
         "assert 'numpy' in sys.modules; "
         "print(os.environ['OPENBLAS_NUM_THREADS']); "
         "print(next(line.split()[1] for line in open('/proc/self/status') "
         "if line.startswith('Threads:')))")
BLAS_NAMES = {"dot", "matmul", "linalg", "einsum", "inner", "tensordot",
              "vdot"}


def import_navrisk(blas_threads=None):
    """(OPENBLAS_NUM_THREADS, thread count) seen by a fresh interpreter
    after `import navrisk` and then `import numpy`, started with the
    variable unset or as given."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    value, threads = proc.stdout.split()
    return value, int(threads)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_import_starts_no_blas_threads():
    assert import_navrisk() == ("1", 1)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status")
def test_a_set_thread_count_is_kept():
    assert import_navrisk("2")[0] == "2"


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
def test_exact_risk_loads_numpy_when_kl_is_read(read_kl):
    assert loads_numpy(
        "from navrisk import LatticeConfig, all_actor_risk_exact, "
        "generate_case_study\n"
        "risk = all_actor_risk_exact(generate_case_study(), 20, 40,\n"
        "    LatticeConfig(8, ('keep', 'shift_left', 'shift_right'), 5))\n"
        "assert risk.z_empty == 1393\n"
        + ("assert set(risk.kl) == set(risk.per_actor)" if read_kl
           else "")) is read_kl


def test_navrisk_makes_no_blas_call():
    """The reason for the default: no matrix product operator, and no
    dot/matmul/linalg/einsum/inner/tensordot/vdot, in any module."""
    found = []
    for path in sorted((SRC / "navrisk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                    isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            name = (node.attr if isinstance(node, ast.Attribute) else
                    node.id if isinstance(node, ast.Name) else
                    node.name if isinstance(node, ast.alias) else None)
            if name in BLAS_NAMES:
                found.append((path.name, getattr(node, "lineno", 0), name))
    assert found == []
