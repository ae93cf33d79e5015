"""The lattice's exactness claims as properties on generated windows.

The compiled kernel walks the maneuver lattice depth first
(planner._walk, navrisk_lattice), rendering every in-bounds prefix once
and inheriting its parent's blocker bits (tick 0 once, then each step's
own ticks), and counts every exact count of the window from those bits.
All of it is checked here against the per-sequence oracles of
tests/oracles.py: the render, listed for every sequence, with == on
every column float (walk_render), and the plans, risk and KL reductions
against the recursive walk enumeration (walk_enumerate).  The earlier
numpy level render, reference_lattice_blockers, is checked against the
same oracles, since tests/test_lattice_kernel.py compares the kernel
with it on random windows and obstacle rows.  One render against the
stacked rows of several worlds (risk.lattice_risks) is checked against
one render per world.

risk.leave_one_out grows the full world's tree once and reuses it for
every ablated actor that never alone blocked one of its edge checks; its
growth runs in the compiled kernel navrisk/_growth.c, which decides each
pair on binary64 scalars.  It is checked on generated worlds against
replanned_gammas, which grows every world's tree from scratch with the
numpy reference growth, whose edge checks go through planner._hits; a
probe actor sits where the squared offset is at the squared radius sum
or one ulp either side, in PROBES of the LOO_WORLDS worlds.

The kernel's endpoint selection, which kernel_calls.select_path runs on
its own, is checked against reference_select_endpoint, the earlier
Python selection,
on grown trees, on synthetic trees on a 0.5 m lattice where costs, goal
distances and cumulative path lengths tie, and on cases built for each
rule: the tie-breaks, the hold at exactly the radius sum, a blocked goal
edge and the 200-candidate cap.
"""

import itertools
import math
import random
from collections import Counter
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from navrisk.planner import (
    MANEUVERS,
    SAFETY_MARGIN,
    SPEED_STEP,
    GoalSpec,
    LatticeConfig,
    PlannerConfig,
    PlanningInfeasible,
    _goal_point,
    _hits,
    _unblocked,
    enumerate_plans,
    lattice_walk,
    world_arrays,
)
from navrisk.risk import (
    DegenerateScenario,
    PlanDistribution,
    all_actor_risk_exact,
    lattice_risks,
    _lane_terms,
    _soft_advance,
    leave_one_out,
    plan_divergence_kl,
)
from navrisk.scenario import (
    EGO_ID,
    ActorState,
    RoadMap,
    Scenario,
    Trajectory,
)

import oracles
from kernel_calls import (
    Tree, grow_tree, obstacle_arrays, select_endpoint, select_path)
from oracles import (
    reference_grow_tree,
    reference_lattice_blockers,
    reference_select_endpoint,
    replanned_gammas,
    static_actor,
    walk_enumerate,
    walk_render,
    world_to_positions,
)

# Every generated window and world comes from random.Random(seed), seeds
# 0 to EXAMPLES - 1, not from Hypothesis: a derandomized Hypothesis draw
# mixes in literal constants of the navrisk modules imported when it runs,
# so what it drew depended on the other test modules collected.  Each
# test counts what its examples covered; the counts are the same wherever
# the module runs.
EXAMPLES = 150
SUBSETS = [c for r in range(1, len(MANEUVERS) + 1)
           for c in itertools.combinations(MANEUVERS, r)]
RADIUS = 1.2


def rendered(road, ego, lattice, dt):
    """The walk_render-filtered product: (sequence, xs, ys, vs) of every
    in-bounds, within-limit sequence, in itertools.product order."""
    out = []
    for seq in itertools.product(lattice.maneuvers,
                                 repeat=lattice.decision_steps):
        pos, vs, ok = walk_render(seq, road, ego, lattice.ticks_per_step,
                                  SPEED_STEP, dt)
        if ok:
            out.append((seq, [p[0] for p in pos], [p[1] for p in pos], vs))
    return out


@contextmanager
def seeded(seed):
    """random.Random(seed); an assertion failing under it names the
    seed."""
    try:
        yield random.Random(seed)
    except AssertionError as e:
        raise AssertionError(f"the example of seed {seed}") from e


def window(rng, max_universe):
    """(road, ego, lattice, dt) from rng: 1-4 lanes; the ego at a lane
    centre, on a lane edge or the road edge, and at speeds up to above the
    limit, including within the limit's 1e-9 tolerance; a lattice of at
    most max_universe sequences."""
    road = RoadMap(rng.randint(1, 4), rng.choice((3.0, 3.5, 3.7)), 300.0,
                   rng.choice((13.7, 14.0, 15.0)))
    lane = rng.randint(0, road.lane_count - 1)
    y = rng.choice((road.lane_center(lane), lane * road.lane_width,
                    (lane + 1) * road.lane_width))
    limit = road.speed_limit
    speed = rng.choice((rng.uniform(0.0, limit), 0.0, 1.0, limit - SPEED_STEP,
                        limit, limit + 5e-10, limit + 1.0, limit + 2.5))
    ego = ActorState(rng.uniform(0.0, 100.0), y, 0.0, speed)
    maneuvers = rng.choice(SUBSETS)
    steps = rng.randint(1, next(
        d for d in range(6, 0, -1) if len(maneuvers) ** d <= max_universe))
    lattice = LatticeConfig(steps, maneuvers, rng.randint(1, 10))
    return road, ego, lattice, rng.choice((0.1, 0.05, 0.25))


def assert_render_exact(road, ego, lattice, dt):
    empty = world_arrays({}, {}, RADIUS, 0, lattice.horizon)
    plans, blockers = reference_lattice_blockers(
        road, ego, lattice.horizon, lattice, *empty, dt=dt)
    want = rendered(road, ego, lattice, dt)
    universe, kernel_seqs, kernel_cols = _unblocked(
        road, ego, lattice.horizon, lattice, *empty, dt=dt)
    assert universe == len(want)
    assert kernel_seqs == [w[0] for w in want]
    assert [[c.tolist() for c in cs] for cs in kernel_cols] == \
        [[xs, ys, vs] for _, xs, ys, vs in want]
    seqs, cols = plans(np.arange(len(blockers)))
    assert seqs == [w[0] for w in want]
    assert cols.shape == (len(want), 3, lattice.horizon + 1)
    assert blockers.shape == (len(want), 0)
    for u, (_, xs, ys, vs) in enumerate(want):
        assert cols[u].tolist() == [xs, ys, vs]
    some = np.arange(len(seqs))[::-2]   # any rows, in any order
    some_seqs, some_cols = plans(some)
    assert some_cols.tolist() == cols[some].tolist()
    assert some_seqs == [seqs[u] for u in some]
    return len(want)


def test_level_wise_render_equals_walk_render():
    seen = Counter()
    for seed in range(EXAMPLES):
        with seeded(seed) as rng:
            road, ego, lattice, dt = window(rng, max_universe=729)
            universe = assert_render_exact(road, ego, lattice, dt)
        nominal = len(lattice.maneuvers) ** lattice.decision_steps
        seen["empty"] += universe == 0
        seen["pruned"] += 0 < universe < nominal
        seen["over the limit"] += ego.speed > road.speed_limit
    assert seen == {"empty": 43, "pruned": 86, "over the limit": 58}, seen


@pytest.mark.parametrize("maneuvers", SUBSETS, ids="+".join)
def test_every_maneuver_subset_renders_exactly(maneuvers):
    road = RoadMap(3, 3.5, 300.0, 14.0)
    for ego in (ActorState(12.3, road.lane_center(1), 0.0, 7.1),
                ActorState(5.0, 3.5, 0.0, 14.0 + 5e-10)):
        steps = 4 if len(maneuvers) > 3 else 5
        assert_render_exact(road, ego, LatticeConfig(steps, maneuvers, 3),
                            0.1)


def draw_actors(rng, road, ego, k, dt):
    """0-3 actors a0, a1, ... from rng, parked or driving along the road
    near the ego's reach, over ticks [0, k]."""
    actors = {}
    for i in range(rng.randint(0, 3)):
        x0 = ego.position_x + rng.randint(-4, 60) / 2
        y = rng.choice((
            rng.uniform(0.0, road.width),
            road.lane_center(rng.randint(0, road.lane_count - 1))))
        speed = rng.choice((0.0, 3.0, 7.5))
        aid = f"a{i}"
        actors[aid] = Trajectory(aid, 0, dt, tuple(
            ActorState(x0 + speed * dt * j, y, 0.0, speed)
            for j in range(k + 1)))
    return actors


def world_case(rng):
    """A small window from rng plus draw_actors' actors, as a Scenario
    starting at tick 0."""
    road, ego, lattice, dt = window(rng, max_universe=81)
    k = lattice.horizon
    actors = draw_actors(rng, road, ego, k, dt)
    radii = {EGO_ID: RADIUS, **{aid: RADIUS for aid in actors}}
    return Scenario(map=road, npc_trajectories=actors, ego_initial=ego,
                    horizon_ticks=k, dt=dt, actor_radius=radii), lattice


def walk_counts(s, lattice, actors):
    """walk_enumerate's (universe size, survivor set) among actors."""
    return walk_enumerate(
        s.map, s.ego_initial, lattice.decision_steps, lattice.maneuvers,
        lattice.ticks_per_step, SPEED_STEP, s.dt,
        world_to_positions(actors),
        {aid: RADIUS + RADIUS + SAFETY_MARGIN for aid in actors})


def test_exact_risk_and_kl_equal_walk_enumeration():
    seen = Counter()
    for seed in range(EXAMPLES):
        with seeded(seed) as rng:
            s, lattice = world_case(rng)
            seen[assert_exact_risk_and_kl(s, lattice)] += 1
    assert seen == {"empty": 42, "none blocked": 76, "some blocked": 8,
                    "all blocked": 24}, seen


def assert_exact_risk_and_kl(s, lattice):
    """The exact risks and KL importances of one window against the walk
    enumeration; returns what the window covered."""
    k, actors = lattice.horizon, s.npc_trajectories
    universe, survivors = walk_counts(s, lattice, actors)
    if universe == 0:
        with pytest.raises(DegenerateScenario):
            all_actor_risk_exact(s, 0, k, lattice)
        return "empty"
    without = {aid: walk_counts(s, lattice, {
        a: tr for a, tr in actors.items() if a != aid})[1]
        for aid in actors}

    got = all_actor_risk_exact(s, 0, k, lattice)
    assert (got.z_empty, got.z) == (universe, len(survivors))
    assert got.total == (universe - len(survivors)) / universe
    assert got.per_actor == {
        aid: (len(w) - len(survivors)) / universe
        for aid, w in without.items()}

    seqs = [w[0] for w in rendered(s.map, s.ego_initial, lattice, s.dt)]
    p = PlanDistribution.uniform_feasible(seqs, survivors)
    assert got.kl == {
        aid: plan_divergence_kl(p, PlanDistribution.uniform_feasible(
            seqs, w)) for aid, w in without.items()}
    if len(survivors) == universe:
        return "none blocked"
    return "some blocked" if survivors else "all blocked"


def test_enumerate_plans_returns_walk_survivors():
    seen = Counter()
    for seed in range(EXAMPLES):
        with seeded(seed) as rng:
            s, lattice = world_case(rng)
            actors = s.npc_trajectories
            universe, survivors = walk_counts(s, lattice, actors)
            got = enumerate_plans(s.map, s.ego_initial, 0, lattice.horizon,
                                  lattice, actors, s.actor_radius,
                                  ego_radius=RADIUS, dt=s.dt)
            want = [w for w in rendered(s.map, s.ego_initial, lattice, s.dt)
                    if w[0] in survivors]
            assert got.universe_size == universe
            assert [p.maneuver_seq for p in got.plans] == [w[0] for w in want]
            for plan, (_, xs, ys, vs) in zip(got.plans, want):
                states = plan.trajectory.states
                assert [st.position_x for st in states] == xs
                assert [st.position_y for st in states] == ys
                assert [st.speed for st in states] == vs
        seen["kept"] += len(want)
        seen["dropped"] += universe - len(want)
    assert seen == {"kept": 745, "dropped": 262}, seen


def test_one_render_for_several_worlds_equals_one_render_each():
    # lattice_risks stacks the obstacle rows of every world it is given
    # under one render and counts each world's block of rows: that must
    # give each world exactly what a render of it alone gives, == on
    # every field and on the KL importances it computes when read, for 2-3
    # worlds that share actor ids and differ in actor count
    seen = Counter()
    radii = {f"a{i}": RADIUS for i in range(3)}
    for seed in range(EXAMPLES):
        with seeded(seed) as rng:
            road, ego, lattice, dt = window(rng, max_universe=81)
            k = lattice.horizon
            worlds = [draw_actors(rng, road, ego, k, dt)
                      for _ in range(rng.randint(2, 3))]

            def risks(ws):
                return lattice_risks(road, ego, 0, k, lattice, ws, radii,
                                     ego_radius=RADIUS, dt=dt)

            try:
                got = risks(worlds)
            except DegenerateScenario:
                for w in worlds:
                    with pytest.raises(DegenerateScenario):
                        risks([w])
                seen["empty universe"] += 1
                continue
            alone = [risks([w])[0] for w in worlds]
            assert got == alone
            assert [r.kl for r in got] == [r.kl for r in alone]
        seen["an empty world"] += any(not w for w in worlds)
        seen["unequal actor counts"] += len({len(w) for w in worlds}) > 1
        seen["unequal |Z|"] += len({r.z for r in got}) > 1
    assert seen == {"empty universe": 42, "an empty world": 55,
                    "unequal actor counts": 89, "unequal |Z|": 44}, seen


# --- the level-wise blocker bits at the first and the last tick ------------

ROAD = RoadMap(3, 3.5, 300.0, 14.0)
EGO = ActorState(10.0, ROAD.lane_center(1), 0.0, 8.0)
LEVELS = LatticeConfig(3, ("keep", "shift_left", "shift_right"), 4)
FAR = ActorState(250.0, ROAD.lane_center(0), 0.0, 0.0)


def blocker_column(actor):
    """The kernel walk's bits for one actor on the LEVELS window (the
    plans it alone blocks), reference_lattice_blockers' bits, and the
    bits of _hits over every tick of each walk_render'ed sequence."""
    rows = world_arrays({"a": actor}, {"a": RADIUS}, RADIUS, 0,
                        LEVELS.horizon)
    plans, blockers = reference_lattice_blockers(
        ROAD, EGO, LEVELS.horizon, LEVELS, *rows)
    walk = lattice_walk(ROAD, EGO, LEVELS.horizon, LEVELS, *rows, [1])
    want = []
    for seq in plans(np.arange(len(blockers)))[0]:
        pos, _, _ = walk_render(seq, ROAD, EGO, LEVELS.ticks_per_step,
                                SPEED_STEP, 0.1)
        want.append(bool(_hits(actor.xy, np.array(pos),
                               RADIUS + RADIUS + SAFETY_MARGIN).any()))
    assert blockers[:, 0].tolist() == want
    return [c == 0 for c in walk.classes], want


def test_tick_zero_overlap_blocks_every_sequence():
    # the actor sits on the ego at tick 0 only, then far down the road
    k = LEVELS.horizon
    actor = Trajectory("a", 0, 0.1, (EGO,) + (FAR,) * k)
    got, want = blocker_column(actor)
    assert len(got) > 1 and all(got) and got == want
    s = Scenario(map=ROAD, npc_trajectories={"a": actor}, ego_initial=EGO,
                 horizon_ticks=k, dt=0.1,
                 actor_radius={EGO_ID: RADIUS, "a": RADIUS})
    risk = all_actor_risk_exact(s, 0, k, LEVELS)
    assert (risk.z, risk.total, risk.per_actor) == (0, 1.0, {"a": 1.0})
    # no plan survives with the actor and every plan without it; the KL
    # equals its reference on PlanDistribution (0.0: both distributions
    # are uniform over the universe)
    seqs = [w[0] for w in rendered(ROAD, EGO, LEVELS, 0.1)]
    p = PlanDistribution.uniform_feasible(seqs, [])
    assert risk.kl == {"a": plan_divergence_kl(
        p, PlanDistribution.uniform_feasible(seqs, seqs))}


def test_last_level_actor_blocks_only_the_sequences_it_reaches():
    # far away until the last level's ticks, then parked in the left lane
    # where the ego arrives: only the sequences that end there are hit
    k, m = LEVELS.horizon, LEVELS.ticks_per_step
    there = ActorState(19.0, ROAD.lane_center(2), 0.0, 0.0)
    actor = Trajectory("a", 0, 0.1, (FAR,) * (k + 1 - m) + (there,) * m)
    got, want = blocker_column(actor)
    assert got == want
    assert 0 < sum(got) < len(got)


# --- leave-one-out against independent replans -----------------------------

# The leave-one-out worlds come from random.Random(seed) too, seeds 0 to
# LOO_WORLDS - 1.
LOO_WORLDS = 40
PROBES = 17   # of the LOO_WORLDS worlds, those that carry a boundary probe
ROAD3 = RoadMap(3, 3.5, 300.0, 15.0)
AWAY = (ROAD3.road_length + 50.0, -50.0)   # no check or route sees it


class _Found(Exception):
    pass


def first_edge_point(ego, k, cfg):
    """(tick, x, y, heading): where the growth's first edge check that
    covers an integer tick puts the ego at the first such tick, and the
    edge's heading.  Found in reference_grow_tree, whose trees equal the
    kernel's, and computed as both interpolate the ego: the same floats.
    That check is the same in every world whose root is free: the checks
    before it test no tick."""
    def spy(p0, p1, tick0, tick1, *_):
        tick0, tick1 = float(tick0), float(tick1)
        j = math.floor(tick0) + 1
        if j > math.floor(tick1):
            return None
        (p0x, p0y), (p1x, p1y) = p0.tolist(), p1.tolist()
        frac = (j - tick0) / (tick1 - tick0)
        raise _Found(j, p0x + frac * (p1x - p0x), p0y + frac * (p1y - p0y),
                     math.atan2(p1y - p0y, p1x - p0x))

    with mock.patch.object(oracles, "reference_edge_blockers", spy):
        try:
            reference_grow_tree(ROAD3, ego, k, np.zeros((0, k + 1, 2)),
                                np.zeros(0), cfg, RADIUS, 0.1)
        except _Found as found:
            return found.args
    return None


def boundary_probe(aid, ego, k, cfg, rng):
    """(trajectory, radius) of an actor that sits, at the tick of
    first_edge_point only, where the squared offset d2 that
    the edge check computes from the ego is one ulp below, equal to or one
    ulp above the square r*r of its radius sum (by the strict <, a hit,
    then two misses).  It lies ahead along the edge, so farther than that
    from the root, and is AWAY at every other tick.  None when no edge
    check covers a tick."""
    point = first_edge_point(ego, k, cfg)
    if point is None:
        return None
    j, ex, ey, heading = point
    side = rng.choice((-1, 0, 1))
    while True:
        h, a = rng.uniform(2.6, 3.4), heading + rng.uniform(-1.0, 1.0)
        ox, oy = ex + h * math.cos(a), ey + h * math.sin(a)
        dx, dy = ox - ex, oy - ey   # the offset the edge check tests
        d2 = dx * dx + dy * dy
        for r in (math.sqrt(d2) + i * math.ulp(h) for i in (-1, 0, 1)):
            radius = r - RADIUS - SAFETY_MARGIN
            target = math.nextafter(r * r, side * math.inf) if side else r * r
            if d2 == target and \
                    RADIUS + radius + SAFETY_MARGIN == r:   # world_arrays' sum
                xy = [AWAY] * (k + 1)
                xy[j] = (ox, oy)
                return Trajectory(aid, 0, 0.1, tuple(
                    ActorState(x, y, 0.0, 0.0) for x, y in xy)), radius


def loo_world(rng):
    """(world, ego, k, cfg, radii, route, probed) on ROAD3 at tick 0 from
    rng, a random.Random, with budgets of 50-300 and 0-6 actors: each
    driving or parked clear of the ego's start, or parked exactly at its
    radius sum from it (2.5 or 3.0, so the offset is exact); in about one
    world of two one of them is a boundary probe instead (then probed is
    True), and in about one of five one is parked on the ego, which
    encloses it at the root."""
    route = rng.random() < 0.5
    lane = rng.randint(0, 2)
    speed = rng.choice((6.0, 10.0, 14.0))
    ego = ActorState(10.0, ROAD3.lane_center(lane), 0.0, speed)
    k = rng.choice((20, 30))
    cfg = PlannerConfig(
        iteration_budget=rng.randint(50, 300),
        seed=rng.randrange(2 ** 31),
        goal=GoalSpec(rng.choice((12.0, 18.0, 25.0)), rng.randint(0, 2)),
        target_speed=speed)
    kinds = [rng.choice(("driving", "parked", "touching"))
             for _ in range(rng.randrange(7))]
    # one probe at most: more would crowd the root's first edge
    for kind, odds in (("probe", 2), ("enclosing", 5)):
        if kinds and rng.randint(1, odds) == 1:
            kinds[rng.randrange(len(kinds))] = kind
    world, radii, probed = {}, {}, False
    for i, kind in enumerate(kinds):
        aid, radius = f"a{i}", RADIUS
        if kind == "driving":
            v = rng.choice((0.0, 4.0, 8.0))
            x0 = rng.uniform(13.0, 40.0)
            y = rng.uniform(0.0, ROAD3.width)
            traj = Trajectory(aid, 0, 0.1, tuple(
                ActorState(x0 + v * 0.1 * j, y, 0.0, v)
                for j in range(k + 1)))
        elif kind == "parked":
            traj = static_actor(aid, rng.uniform(13.0, 40.0),
                                rng.uniform(0.0, ROAD3.width), k)
        elif kind == "touching":
            radius = rng.choice((0.8, 1.3))
            r = RADIUS + radius + SAFETY_MARGIN
            ux, uy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1)))
            traj = static_actor(aid, ego.position_x + ux * r,
                                ego.position_y + uy * r, k)
        elif kind == "enclosing":
            traj = static_actor(aid, ego.position_x + 0.5, ego.position_y,
                                k)
        else:
            probe = boundary_probe(aid, ego, k, cfg, rng)
            if probe is None:
                continue
            traj, radius = probe
            probed = True
        world[aid], radii[aid] = traj, radius
    return world, ego, k, cfg, radii, route, probed


def test_leave_one_out_equals_independent_replans():
    probes = 0
    for seed in range(LOO_WORLDS):
        world, ego, k, cfg, radii, route, probed = loo_world(
            random.Random(seed))
        full_ref, ref = replanned_gammas(ROAD3, world, ego, 0, k, cfg, radii,
                                         route=route)
        plan_full, gammas = leave_one_out(world, ego, 0, k, cfg, road=ROAD3,
                                          radii=radii, route=route)
        assert gammas == ref, seed
        assert (plan_full is None) == (full_ref is None), seed
        if plan_full is not None:
            assert plan_full == full_ref, seed
        probes += probed
    # a probe that silently stopped being placed would leave the
    # boundary untested while every world still passes
    assert probes == PROBES


# --- endpoint selection against the Python reference -----------------------

def assert_same_selection(tree, goal, obs, rsum, k):
    """select_path, which runs navrisk_select, against
    reference_select_endpoint at tick 0 with dt 0.1: both raise
    PlanningInfeasible, or they give the same endpoint, partial flag and
    positions, and select_endpoint the same Plan.  Returns the path and
    its endpoint, or None when both raise."""
    try:
        ref, ref_end = reference_select_endpoint(tree, goal, obs, rsum,
                                                 ROAD3, 0, k, 0.1)
    except PlanningInfeasible:
        with pytest.raises(PlanningInfeasible):
            select_path(tree, goal, obs, rsum, k, 0.1)
        return None
    path, end = select_path(tree, goal, obs, rsum, k, 0.1)
    assert (end, path.partial) == (ref_end, ref.partial)
    assert path.xy.tolist() == ref.trajectory.xy.tolist()
    assert select_endpoint(tree, goal, obs, rsum, ROAD3, 0, k, 0.1) == ref
    return path, end


def synthetic_tree(pts, cost, tick, parent):
    """A Tree of the given nodes walked at 10 m/s, so at dt 0.1 one
    meter per tick."""
    return Tree(np.array(pts, dtype=float), np.array(cost, dtype=float),
                 np.array(tick, dtype=float),
                 np.array(parent, dtype=np.int32), 10.0, 1.0)


def parked(points, k, radii):
    """(obs, rsum) of actors parked at points for ticks 0..k."""
    obs = np.array([[p] * (k + 1) for p in points], dtype=float)
    return obs.reshape(len(points), k + 1, 2), np.array(radii, dtype=float)


class TestEndpointSelection:
    """navrisk_select against the earlier Python selection, kept in
    oracles.py as reference_select_endpoint."""

    def test_grown_trees(self):
        # kernel-grown trees among 0-5 actors, toward the routed goal, a
        # goal on a tree node and goals anywhere on the road
        rng = np.random.default_rng(2024)
        partial = connected = 0
        for _ in range(40):
            k = int(rng.choice((20, 30, 40)))
            ego = ActorState(10.0, ROAD3.lane_center(int(rng.integers(3))),
                             0.0, 10.0)
            world, radii = {}, {}
            for i in range(int(rng.integers(0, 6))):
                aid, v = f"a{i}", float(rng.choice((0.0, 4.0, 8.0)))
                x0, y = float(rng.uniform(13.0, 45.0)), \
                    float(rng.uniform(0.0, ROAD3.width))
                world[aid] = Trajectory(aid, 0, 0.1, tuple(
                    ActorState(x0 + v * 0.1 * j, y, 0.0, v)
                    for j in range(k + 1)))
                radii[aid] = float(rng.choice((0.8, 1.2, 2.0)))
            cfg = PlannerConfig(
                iteration_budget=int(rng.integers(30, 400)),
                seed=int(rng.integers(0, 2 ** 31)),
                goal=GoalSpec(float(rng.choice((12.0, 25.0, 40.0))),
                              int(rng.integers(3))), target_speed=10.0)
            obs, rsum = obstacle_arrays(world, radii, RADIUS, 0, k)
            try:
                tree, _ = grow_tree(ROAD3, ego, k, obs, rsum, cfg, RADIUS,
                                    0.1)
            except PlanningInfeasible:
                continue
            lane, speed = cfg.goal.lane, cfg.target_speed   # under the limit
            routed = GoalSpec(_soft_advance(cfg.goal.advance, _lane_terms(
                world, ego, ROAD3, lane, speed)), lane)
            goals = [_goal_point(ROAD3, ego, routed, RADIUS),
                     tree.pts[int(rng.integers(len(tree.pts)))],
                     *rng.uniform((5.0, 0.0), (60.0, ROAD3.width), (3, 2))]
            for goal in goals:
                selected = assert_same_selection(tree, goal, obs, rsum, k)
                if selected is not None:
                    path = selected[0]
                    partial += path.partial
                    connected += not path.partial and \
                        path.vertices[-1].tolist() == list(goal)
        assert partial > 10 and connected > 10, (partial, connected)

    def test_lattice_trees(self):
        # nodes, goals and parked actors on a 0.5 m lattice, costs and
        # ticks on a coarse grid: equal costs, equal goal distances,
        # contact at exactly the radius sum, and ticks whose distance
        # along the path equals a vertex's (1 m per tick)
        rng = np.random.default_rng(7)
        outcomes = Counter()
        for _ in range(300):
            k = int(rng.integers(5, 25))
            n = int(rng.integers(1, 40))
            pts = [(10.0, 5.0)] + [
                (10.0 + 0.5 * int(rng.integers(0, 30)),
                 0.5 * int(rng.integers(0, 20))) for _ in range(n - 1)]
            parent = [-1] + [int(rng.integers(0, i)) for i in range(1, n)]
            cost = [0.0] + [float(rng.integers(1, 6)) for _ in range(n - 1)]
            tick = [0.0] + [0.5 * int(rng.integers(0, 2 * k + 6))
                            for _ in range(n - 1)]
            tree = synthetic_tree(pts, cost, tick, parent)
            goal = np.array([10.0 + 0.5 * int(rng.integers(0, 30)),
                             0.5 * int(rng.integers(0, 20))])
            m = int(rng.integers(0, 4))
            obs, rsum = parked(
                [(10.0 + 0.5 * int(rng.integers(0, 30)),
                  0.5 * int(rng.integers(0, 20))) for _ in range(m)], k,
                [float(rng.choice((1.0, 1.5, 2.5))) for _ in range(m)])
            selected = assert_same_selection(tree, goal, obs, rsum, k)
            outcomes["none" if selected is None else
                     "partial" if selected[0].partial else "goal"] += 1
        assert min(outcomes.values()) > 15, outcomes

    def test_single_node_and_no_feasible_endpoint(self):
        k = 10
        obs, rsum = parked([(20.0, 5.25)], k, [2.5])
        root = synthetic_tree([(0.0, 5.25)], [0.0], [0.0], [-1])
        assert assert_same_selection(root, np.array([1.0, 5.25]), obs, rsum,
                                     k) is None
        # an actor that covers the whole road from tick 1 on
        obs = np.array([[(500.0, 500.0)] + [(5.0, 5.25)] * k]), \
            np.array([100.0])
        tree = synthetic_tree([(0.0, 5.25), (2.0, 5.25), (4.0, 6.0)],
                              [0.0, 2.0, 4.1], [0.0, 2.0, 4.0], [-1, 0, 1])
        for goal in ((2.5, 5.25), (50.0, 5.25)):
            assert assert_same_selection(tree, np.array(goal), *obs,
                                         k) is None

    def test_equal_costs_and_goal_distances(self):
        # two nodes mirrored about the goal's line: the same cost and goal
        # distance; an actor parked by the first (lower index) blocks its
        # hold, so the tie-break decides which one is tried next.  The
        # goal lies behind them, so no goal edge is tried
        k = 20
        for goal_x in (7.5, 40.0):   # in the goal region, then not
            tree = synthetic_tree(
                [(0.0, 5.25), (8.0, 6.25), (8.0, 4.25), (6.0, 5.25)],
                [0.0, 8.0, 8.0, 9.0], [0.0, 8.0, 8.0, 6.0], [-1, 0, 0, 0])
            obs, rsum = parked([(8.0, 7.25)], k, [1.5])
            path, end = assert_same_selection(
                tree, np.array([goal_x, 5.25]), obs, rsum, k)
            assert end == 2 and path.partial == (goal_x == 40.0)

    def test_hold_at_exactly_the_radius_sum(self):
        # the endpoint parks exactly 3.0 from an actor: contact, no hit
        k = 20
        tree = synthetic_tree([(0.0, 5.25), (8.0, 5.25), (7.0, 5.25)],
                              [0.0, 8.0, 9.0], [0.0, 8.0, 7.0], [-1, 0, 0])
        for offset in ((0.0, 3.0), (3.0, 0.0), (0.0, -3.0)):
            obs, rsum = parked([(8.0 + offset[0], 5.25 + offset[1])], k,
                               [3.0])
            path, end = assert_same_selection(tree, np.array([8.0, 5.25]),
                                              obs, rsum, k)
            assert end == 1 and not path.partial
        # one ulp inside, the hold is blocked: the other node is chosen
        obs, rsum = parked([(8.0, math.nextafter(2.25, 3.0))], k, [3.0])
        assert assert_same_selection(tree, np.array([8.0, 5.25]), obs, rsum,
                                     k)[1] == 2

    def test_goal_edge_blocked_by_one_actor(self):
        # the edge from the node to the goal crosses an actor that is
        # there at tick 9 only: the plan ends at the node; without it, at
        # the goal
        k = 20
        tree = synthetic_tree([(0.0, 5.25), (8.0, 5.25)], [0.0, 8.0],
                              [0.0, 8.0], [-1, 0])
        goal = np.array([9.5, 5.25])
        obs = np.array([[(100.0, 100.0)] * (k + 1)])
        obs[0, 9] = (8.75 + 0.25, 5.25)
        for clear in (False, True):
            path, end = assert_same_selection(
                tree, goal, obs if not clear else obs[:0], np.array(
                    [0.6] if not clear else []), k)
            assert not path.partial and end == 1
            assert len(path.vertices) == (3 if clear else 2)

    @pytest.mark.parametrize("partial", [False, True])
    def test_more_than_200_candidates(self, partial):
        # an actor parked on the goal blocks the hold of every node within
        # 3 m whose tick is within k, and a node whose tick is past k
        # holds clear; the render comes no nearer the goal than 10 m.
        # Round one: 250 nodes in the goal region, the 199 cheapest
        # blocked.  Round two: 150 in it and 49 more within 3 m, all
        # blocked, then 51 farther.  Either way the 200th candidate is the
        # first clear one
        k, goal = 10, np.array([20.0, 5.25])
        in_goal = 150 if partial else 250
        pts, cost, tick = [(0.0, 5.25)], [0.0], [0.0]
        for i in range(250 if partial else in_goal):
            d = 1.9 * (i + 1) / in_goal if i < in_goal else \
                2.05 + 0.019 * (i - in_goal)
            a = 2.0 * math.pi * i / 61.0
            pts.append((goal[0] + d * math.cos(a), goal[1] + d * math.sin(a)))
            cost.append(20.0 if partial else 1000.0 - i)
            blocked = i < 199 if partial else i > 50
            tick.append(5.0 if blocked else 11.0)
        tree = synthetic_tree(pts, cost, tick, [-1] + [0] * (len(pts) - 1))
        obs, rsum = parked([tuple(goal)], k, [3.0])
        path, end = assert_same_selection(tree, goal, obs, rsum, k)
        assert path.partial == partial
        assert end == (200 if partial else 51)
