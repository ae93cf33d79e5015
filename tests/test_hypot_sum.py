"""Displacement and path length, summed by the compiled kernel.

prediction._mean_distance (every gamma_euclid and prediction_error) and
the path length of planner._plan_cost add libm hypot distances in numpy's
pairwise order (_growth.c, navrisk_hypot_sum).  They must equal their
numpy forms, oracles.reference_mean_distance and reference_plan_cost, bit
for bit, on positions drawn with random.Random: lengths on both sides of
the pairwise blocks (1, 7, 8, 9, 41, 128, 129 and 600), unequal lengths
(the shorter array holding its last point), zero displacements and
magnitudes near scenario.MAX_MAGNITUDE.  The plan cost's comfort term,
planner._speed_change, sums |dv| in the same pairwise order
(navrisk_sum) and must equal np.sum(np.abs(np.diff(v)))
(oracles.reference_speed_change), which a sequential sum does not.
"""

import random
from array import array

import numpy as np
import pytest

from navrisk.planner import _plan_cost, _speed_change
from navrisk.prediction import _mean_distance
from navrisk.scenario import MAX_MAGNITUDE, ActorState, RoadMap, Trajectory

from oracles import (
    reference_mean_distance, reference_plan_cost, reference_speed_change)

LENGTHS = (1, 7, 8, 9, 41, 128, 129, 600)
KINDS = ("walk", "spread", "huge", "still")
ROAD = RoadMap(3, 3.5, 900.0, 14.0)


def draw_points(rng: random.Random, n: int, kind: str) -> list:
    """n (x, y) points: a walk of steps under 2 m along the road, as a
    plan moves; points spread over +-1000 m; points within
    MAX_MAGNITUDE; or a walk that stands still on about half its steps
    (zero displacements)."""
    if kind == "spread":
        return [(rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3))
                for _ in range(n)]
    if kind == "huge":
        return [(rng.uniform(-1.0, 1.0) * MAX_MAGNITUDE,
                 rng.uniform(-1.0, 1.0) * MAX_MAGNITUDE) for _ in range(n)]
    x, y = rng.uniform(0.0, 900.0), rng.uniform(0.0, 10.5)
    out = [(x, y)]
    for _ in range(n - 1):
        if kind == "walk" or rng.random() < 0.5:
            x += rng.uniform(0.0, 2.0)
            y += rng.uniform(-0.5, 0.5)
        out.append((x, y))
    return out


def flat(points) -> array:
    return array("d", [c for p in points for c in p])


def pairs(rng: random.Random):
    """(a, b) point lists: for each length and kind, b of the same length
    (drawn, a's points with some moved, or a's own: every displacement
    zero) and of another length, longer or shorter."""
    for n in LENGTHS:
        for kind in KINDS:
            for _ in range(4):
                a = draw_points(rng, n, kind)
                moved = [p if rng.random() < 0.5 else
                         (p[0] + rng.uniform(-1.0, 1.0), p[1]) for p in a]
                yield a, draw_points(rng, n, kind)
                yield a, moved
                yield a, list(a)
                other = rng.choice([m for m in LENGTHS if m != n])
                yield a, draw_points(rng, other, kind)
                yield draw_points(rng, rng.randint(1, 700), kind), a


def test_mean_distance_equals_numpy():
    rng = random.Random(2026)
    cases = padded = zero = 0
    for a, b in pairs(rng):
        want = reference_mean_distance(np.array(a), np.array(b))
        assert _mean_distance(flat(a), flat(b)) == want, (len(a), len(b))
        cases += 1
        padded += len(a) != len(b)
        zero += want == 0.0
    assert cases == 8 * 4 * 4 * 5 and padded > 200 and zero > 30


def test_single_distances_equal_numpy():
    # one point each: the mean is one hypot, where libm's and CPython's
    # math.hypot differ on about 0.6% of pairs
    rng = random.Random(7)
    for _ in range(5000):
        kind = rng.choice(("spread", "huge"))
        a, b = draw_points(rng, 1, kind), draw_points(rng, 1, kind)
        assert _mean_distance(flat(a), flat(b)) == \
            reference_mean_distance(np.array(a), np.array(b)), (a, b)


@pytest.mark.parametrize("speed_term", [False, True])
def test_plan_cost_equals_numpy(speed_term):
    # n points are n - 1 segments: both sides of each block boundary
    rng = random.Random(99)
    for n in sorted({m + d for m in LENGTHS for d in (0, 1)}):
        for kind in KINDS:
            for _ in range(3):
                states = tuple(ActorState(x, y, 0.0, rng.uniform(0.0, 14.0))
                               for x, y in draw_points(rng, n, kind))
                traj = Trajectory("ego", 0, 0.1, states)
                assert _plan_cost(traj, ROAD, speed_term) == \
                    reference_plan_cost(traj, ROAD, speed_term), (n, kind)


def test_speed_change_equals_numpy():
    # |dv| added in numpy's pairwise order; a sequential sum of the same
    # terms differs on some of these lists
    rng = random.Random(1500)
    sequential_differs = 0
    for n in (1, 2, 7, 8, 9, 128, 129, 1000):
        for _ in range(20):
            speeds = [rng.choice((rng.uniform(0.0, 14.0), 1.5 * rng.randint(
                0, 9))) for _ in range(n)]
            want = reference_speed_change(speeds)
            assert _speed_change(speeds) == want, n
            sequential = 0.0
            for a, b in zip(speeds, speeds[1:]):
                sequential += abs(b - a)
            sequential_differs += sequential != want
    assert sequential_differs > 0
