"""The kernel's depth-first lattice walk against the numpy level render.

planner._walk (navrisk_lattice in navrisk/_growth.c) renders every
in-bounds prefix of the maneuver lattice once, tests tick 0 once per
obstacle row and each step's own ticks, and inherits its parent's bits.
Its counts (|Z empty|, each world block's |Z| and each row's freed
plans), every plan's class per block and the listed plans' maneuvers and
columns must equal what the earlier numpy render,
oracles.reference_lattice_blockers, gives through its blocker matrix, ==
on every integer and float.

The windows and obstacle rows come from random.Random(seed), seeds 0 to
EXAMPLES - 1: 1-5 maneuvers, 1-8 steps, an ego at, under or over the
speed limit, and 1-3 worlds of 0-8 rows each.  A row is parked or
driving, or sits off the road but for one tick, where it is near a
rendered point or touches it at exactly its radius sum (squared offset
equal to the squared radius sum, which is no collision).
"""

import itertools
import math
import random
from array import array
from collections import Counter

import numpy as np

from navrisk.planner import (
    BLOCKED, FREE, MANEUVERS, SPEED_STEP, LatticeConfig, _unblocked,
    lattice_walk)
from navrisk.scenario import ActorState, RoadMap

from oracles import reference_lattice_blockers, walk_render

EXAMPLES = 400
SUBSETS = [c for r in range(1, len(MANEUVERS) + 1)
           for c in itertools.combinations(MANEUVERS, r)]
MAX_UNIVERSE = 2048


def draw_window(rng):
    """(road, ego, lattice, dt): 1-4 lanes, the ego at a lane centre or
    edge, at speeds from 0 to above the limit (the limit itself among
    them), 1-5 maneuvers and 1-8 steps of 1-6 ticks, at most MAX_UNIVERSE
    sequences."""
    road = RoadMap(rng.randint(1, 4), rng.choice((3.0, 3.5, 3.7)), 300.0,
                   rng.choice((13.7, 14.0, 15.0)))
    lane = rng.randint(0, road.lane_count - 1)
    y = rng.choice((road.lane_center(lane), lane * road.lane_width))
    limit = road.speed_limit
    speed = rng.choice((rng.uniform(0.0, limit), 0.0, 1.0, limit,
                        limit - SPEED_STEP, limit + 5e-10, limit + 1.0))
    ego = ActorState(rng.uniform(0.0, 100.0), y, 0.0, speed)
    maneuvers = rng.choice(SUBSETS)
    most = max(d for d in range(1, 9) if len(maneuvers) ** d <= MAX_UNIVERSE)
    lattice = LatticeConfig(rng.randint(1, most), maneuvers,
                            rng.randint(1, 6))
    return road, ego, lattice, rng.choice((0.1, 0.05, 0.25))


def touching(rng, px, py):
    """(ox, oy, r) with the squared offset from (px, py), as the hit rule
    computes it, equal to r * r, or None if the draw gives no such r."""
    ox = px + rng.uniform(-3.0, 3.0)
    oy = py + rng.uniform(-3.0, 3.0)
    dx, dy = ox - px, oy - py
    d2 = dx * dx + dy * dy
    r = math.sqrt(d2)
    for cand in (r, math.nextafter(r, 0.0), math.nextafter(r, math.inf)):
        if cand > 0.0 and cand * cand == d2:
            return ox, oy, cand
    return None


def draw_rows(rng, road, ego, lattice, dt, paths, seen):
    """0-8 obstacle rows as (positions over ticks 0 to k, radius sum)."""
    k = lattice.horizon
    far = (ego.position_x - 5000.0, -5000.0)
    rows = []
    for _ in range(rng.randint(0, 8)):
        kind = rng.choice(("parked", "driving", "flash", "contact")
                          if paths else ("parked", "driving"))
        r = rng.uniform(0.5, 3.0)
        if kind == "parked":
            x = ego.position_x + rng.uniform(-2.0, 30.0)
            pos = [(x, rng.uniform(0.0, road.width))] * (k + 1)
        elif kind == "driving":
            x, y = ego.position_x + rng.uniform(-5.0, 30.0), \
                road.lane_center(rng.randint(0, road.lane_count - 1))
            v = rng.choice((0.0, 3.0, 7.5))
            pos = [(x + v * dt * j, y) for j in range(k + 1)]
        else:   # near one rendered point at one tick, off the road before
            path = rng.choice(paths)
            t = rng.randint(0, k)
            px, py = path[t]
            pos = [far] * (k + 1)
            if kind == "contact":
                touch = touching(rng, px, py)
                if touch is None:
                    continue
                pos[t], r = touch[:2], touch[2]
                seen["exact contacts"] += 1
            else:
                pos[t] = (px + rng.uniform(-1.0, 1.0),
                          py + rng.uniform(-1.0, 1.0))
                seen["one-tick rows"] += 1
                seen["inside a step"] += t % lattice.ticks_per_step != 0
        rows.append((pos, r))
    return rows


def reference(blockers, sizes):
    """Per world block: (|Z|, freed per row, class per plan) of the
    (plans x rows) blocker matrix."""
    out, start = [], 0
    for size in sizes:
        block = blockers[:, start:start + size]
        start += size
        count = block.sum(axis=1)
        alone = block & (count == 1)[:, None]
        alone_by = block.argmax(axis=1) if size else 0   # argmax needs a row
        cls = np.where(count == 0, FREE,
                       np.where(count == 1, alone_by, BLOCKED))
        out.append((int(np.count_nonzero(count == 0)),
                    np.count_nonzero(alone, axis=0).tolist(), cls.tolist()))
    return out


def assert_walk_equals_reference(road, ego, lattice, dt, worlds):
    k = lattice.horizon
    obs = array("d", [c for rows in worlds for pos, _ in rows
                      for p in pos for c in p])
    rsum = array("d", [r for rows in worlds for _, r in rows])
    sizes = [len(rows) for rows in worlds]
    plans, blockers = reference_lattice_blockers(road, ego, k, lattice, obs,
                                                 rsum, dt=dt)
    walk = lattice_walk(road, ego, k, lattice, obs, rsum, sizes, dt=dt)
    assert walk.universe == len(blockers)
    want = reference(blockers, sizes)
    assert walk.z.tolist() == [z for z, _, _ in want]
    assert walk.freed.tolist() == [f for _, freed, _ in want for f in freed]
    assert walk.classes.tolist() == [  # plan-major, block-minor
        cls[u] for u in range(walk.universe) for _, _, cls in want]

    # the plans no row blocks, listed as enumerate_plans reads them
    universe, kept_seqs, kept_cols = _unblocked(road, ego, k, lattice, obs,
                                                rsum, dt=dt)
    seqs, cols = plans(np.flatnonzero(~blockers.any(axis=1)))
    assert universe == len(blockers)
    assert kept_seqs == seqs
    assert [[c.tolist() for c in cs] for cs in kept_cols] == cols.tolist()
    return walk


def test_walk_equals_level_render():
    seen = Counter()
    for seed in range(EXAMPLES):
        rng = random.Random(seed)
        road, ego, lattice, dt = draw_window(rng)
        paths = []
        for _ in range(3):
            seq = tuple(rng.choice(lattice.maneuvers)
                        for _ in range(lattice.decision_steps))
            pos, _, ok = walk_render(seq, road, ego, lattice.ticks_per_step,
                                     SPEED_STEP, dt)
            if ok:
                paths.append(pos)
        worlds = [draw_rows(rng, road, ego, lattice, dt, paths, seen)
                  for _ in range(rng.randint(1, 3))]
        try:
            walk = assert_walk_equals_reference(road, ego, lattice, dt,
                                                worlds)
        except AssertionError as e:
            raise AssertionError(f"the example of seed {seed}") from e
        seen["at the limit"] += ego.speed == road.speed_limit
        seen["empty universe"] += walk.universe == 0
        seen["several worlds"] += len(worlds) > 1
        seen["a plan blocked"] += any(c != FREE for c in walk.classes)
        seen["a plan freed"] += any(walk.freed)
        seen["8 steps"] += lattice.decision_steps == 8
        seen["5 maneuvers"] += len(lattice.maneuvers) == 5
    assert seen == {
        "one-tick rows": 469, "inside a step": 255, "exact contacts": 229,
        "a plan blocked": 267, "a plan freed": 206, "several worlds": 269,
        "empty universe": 77, "at the limit": 54, "8 steps": 31,
        "5 maneuvers": 7}, seen
