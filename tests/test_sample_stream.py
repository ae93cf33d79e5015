"""The planner's seeded randomness, drawn by the compiled kernel.

planner._sample_stream and simulate._planner_seed run numpy's
SeedSequence, PCG64 and Generator.uniform as ported to
navrisk/_growth.c; they must equal numpy's own draws
(oracles.reference_sample_stream and reference_planner_seed) bit for bit,
on cases drawn with random.Random, among them every word-boundary seed,
seeds of several words, spawn keys of two words and more, budgets from 1
to 3000 and windows of zero width.
"""

import math
import random

import pytest

from navrisk.planner import GoalSpec, PlannerConfig, _sample_stream
from navrisk.scenario import ActorState, RoadMap
from navrisk.simulate import _planner_seed

from oracles import reference_planner_seed, reference_sample_stream

EDGE_SEEDS = (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64,
              2 ** 128 + 12345)


def draw_seed(rng: random.Random) -> int:
    if rng.random() < 0.3:
        return rng.choice(EDGE_SEEDS)
    return rng.getrandbits(rng.choice((8, 32, 33, 64, 65, 127, 200)))


def stream_cases(count):
    """(road, ego, cfg, ego_radius): roads of 1-4 lanes, the ego anywhere
    on the road and sometimes at its end (a window of zero length), the
    radius sometimes half the road width (a window of zero width)."""
    rng = random.Random(2021)
    for i in range(count):
        road = RoadMap(rng.randint(1, 4), rng.uniform(2.5, 4.5),
                       rng.uniform(50.0, 1000.0), 15.0)
        x = road.road_length if rng.random() < 0.15 else \
            rng.uniform(0.0, road.road_length)
        radius = road.width / 2 if rng.random() < 0.15 else \
            rng.uniform(0.0, road.width / 2)
        budget = 1 if i == 0 else 3000 if i == 1 else \
            int(10 ** rng.uniform(0.0, math.log10(3000.0)))
        cfg = PlannerConfig(iteration_budget=budget, seed=draw_seed(rng),
                            goal=GoalSpec(rng.uniform(0.0, 100.0), 0))
        ego = ActorState(x, rng.uniform(0.0, road.width), 0.0, 10.0)
        yield road, ego, cfg, radius


def test_sample_stream_equals_numpy():
    zero_width = seeds = 0
    for road, ego, cfg, radius in stream_cases(400):
        got = _sample_stream(road, ego, cfg, radius)
        want = reference_sample_stream(road, ego, cfg, radius)
        # a flat array('d') of the (x, y) pairs
        assert got.typecode == "d" and len(got) == want.size == 2 * len(want)
        assert got.tolist() == want.ravel().tolist(), (cfg, ego, radius)
        zero_width += (ego.position_x == road.road_length) + \
            (radius == road.width / 2)
        seeds += cfg.seed in EDGE_SEEDS
    assert zero_width > 20 and seeds > 50, (zero_width, seeds)


def test_planner_seed_equals_numpy():
    rng = random.Random(7)
    cases = [(seed, t) for seed in EDGE_SEEDS
             for t in (0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64)]
    cases += [(draw_seed(rng), rng.getrandbits(rng.choice((4, 12, 32, 40,
                                                           100))))
              for _ in range(500)]
    for seed, t in cases:
        assert _planner_seed(seed, t) == reference_planner_seed(seed, t), \
            (seed, t)


@pytest.mark.parametrize("x, radius", [
    (305.0, 1.2),            # past the road end
    (10.0, 5.3),             # wider than half the road
    (10.0, math.nan),
    (10.0, -math.inf),
], ids=["negative length", "negative width", "nan width", "inf width"])
def test_window_of_negative_or_non_finite_width_refused(x, radius):
    road = RoadMap(3, 3.5, 300.0, 15.0)
    ego = ActorState(x, road.lane_center(1), 0.0, 10.0)
    with pytest.raises(ValueError, match="negative or non-finite width"):
        _sample_stream(road, ego, PlannerConfig(), radius)
