"""The KL importance, summed by the compiled kernel.

risk._kl takes each actor's KL(p || q_j) as the sum over the plans of
one of three terms, by the plan's class in the walk's classes buffer:
free, blocked by actor j alone, or other.  It computes the three with
math.log (libm's log) and sums them in numpy's pairwise order
(navrisk_class_sum in navrisk/_growth.c), with q_j's count taken from
the walk as z + freed[j].  It must equal oracles.reference_kl, the
earlier numpy risk._kl, bit for bit:

* with libm_log, on class sequences drawn with random.Random: universes
  of U = 1, 7, 8, 9, 128, 129 and above 1,000 plans, on both sides of the
  pairwise blocks, in 1-3 world blocks of 1-4 actors, among them blocks
  with no free plan (z = 0) and blocks one actor alone blocks entirely
  (freed = U).  A sequential sum, or the j-alone term taken as
  p0 * log(p0 / q0), fails it;
* with numpy's own np.log, in a subprocess that turns off numpy's AVX512
  dispatch, on the case study's lattice windows.  numpy's AVX512 log
  differs from libm's in the last bits on a few inputs; without it
  np.log calls libm's.  Where numpy refuses those feature names the test
  is skipped with numpy's message.
"""

import os
import random
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

from navrisk.planner import BLOCKED, FREE
from navrisk.risk import _kl

from oracles import libm_log, reference_kl

UNIVERSES = (1, 7, 8, 9, 128, 129, 1001, 1500, 9000)
KINDS = ("mixed", "no free", "one actor", "all free")
TESTS = Path(__file__).resolve().parent
NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


def draw_block(rng: random.Random, n: int, actors: int, kind: str) -> list:
    """The classes of n plans in one world block of actors rows: drawn
    from FREE, each actor's index and BLOCKED with drawn weights; with no
    FREE plan; every plan blocked by one actor alone; or all FREE."""
    if kind == "one actor":
        return [rng.randrange(actors)] * n
    if kind == "all free":
        return [FREE] * n
    choices = [BLOCKED, *range(actors), *([FREE] if kind == "mixed" else [])]
    weights = [rng.random() for _ in choices]
    return rng.choices(choices, weights, k=n)


def draw_walk(rng: random.Random, n: int):
    """(classes, actors): n plans' classes in 1-3 interleaved world
    blocks, as navrisk_lattice writes them, and each block's actor ids,
    1-4 of them."""
    blocks = rng.randint(1, 3)
    actors = [tuple(f"a{b}{j}" for j in range(rng.randint(1, 4)))
              for b in range(blocks)]
    columns = [draw_block(rng, n, len(a), rng.choice(KINDS)) for a in actors]
    return array("i", [c[u] for u in range(n) for c in columns]), actors


def sequential(terms) -> float:
    """The terms added one by one from 0.0."""
    total = 0.0
    for term in terms.tolist():
        total += term
    return total


def test_class_sum_equals_numpy_sum_of_libm_terms():
    rng = random.Random(2032)
    cases = no_free = alone = sequential_differs = 0
    for n in UNIVERSES:
        for _ in range(12):
            classes, actors = draw_walk(rng, n)
            for b, ids in enumerate(actors):
                cls = classes[b::len(actors)]
                z = cls.count(FREE)
                freed = [cls.count(j) for j in range(len(ids))]
                got = _kl(classes, b, len(actors), z, freed, ids)
                want = reference_kl(classes, b, len(actors), z, ids,
                                    log=libm_log)
                assert got == want, (n, b, z, freed)
                cases += 1
                no_free += z == 0
                alone += n in freed
                unpaired = reference_kl(classes, b, len(actors), z, ids,
                                        log=libm_log, add=sequential)
                sequential_differs += sum(unpaired[a] != got[a] for a in ids)
    assert cases > 200 and no_free > 10 and alone > 10
    # the pairwise order shows: a sequential sum differs on some draws
    assert sequential_differs > 10


# numpy warns (ImportWarning) of feature names it does not dispatch and
# raises RuntimeError for its baseline's; either ends the check as SKIP
CROSS_CHECK = """
import sys, warnings
try:
    with warnings.catch_warnings():
        warnings.simplefilter("error", ImportWarning)
        import numpy
except (ImportWarning, RuntimeError) as e:
    print("SKIP", " ".join(str(e).split()))
    sys.exit(0)
from navrisk import LatticeConfig, all_actor_risk_exact, generate_case_study
from navrisk.planner import MANEUVERS, lattice_walk, world_arrays
from navrisk.risk import DegenerateScenario
from navrisk.scenario import EGO_ID, slice_world
from oracles import reference_kl
s, k = generate_case_study(), 40
three = ("keep", "shift_left", "shift_right")
lattices = (LatticeConfig(8, three, 5), LatticeConfig(10, three, 4),
            LatticeConfig(4, MANEUVERS, 10), LatticeConfig(5, MANEUVERS, 8))
values = differ = 0
for t in range(0, s.horizon_ticks - k, 20):
    world = slice_world(s, t, k)
    obs, rsum = world_arrays(world, s.actor_radius, s.radius_of(EGO_ID),
                             t, k)
    for lattice in lattices:
        try:
            got = all_actor_risk_exact(s, t, k, lattice).kl
        except DegenerateScenario:
            continue
        walk = lattice_walk(s.map, s.ego_initial, k, lattice, obs, rsum,
                            [len(world)], dt=s.dt)
        want = reference_kl(walk.classes, 0, 1, walk.z[0], tuple(world))
        values += len(want)
        differ += sum(got[a] != want[a] for a in want)
print(values, differ)
"""


def test_kl_equals_numpy_log_without_avx512():
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": NO_AVX512,
           "PYTHONPATH": os.pathsep.join((str(TESTS.parent / "src"),
                                          str(TESTS)))}
    proc = subprocess.run([sys.executable, "-c", CROSS_CHECK], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = proc.stdout.split()
    if out[0] == "SKIP":
        pytest.skip(f"numpy refuses NPY_DISABLE_CPU_FEATURES="
                    f"{NO_AVX512!r}: {' '.join(out[1:])}")
    values, differ = map(int, out)
    assert values > 400
    assert differ == 0
