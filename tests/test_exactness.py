"""The lattice's exactness claims as properties on generated windows.

planner.lattice_blockers renders the maneuver lattice level by level,
sharing every in-bounds prefix, fills the (plans x actors) blocker matrix
level by level too (tick 0 once, then each level's own ticks ORed into
its parent's bits), and reduces that matrix to every exact count of the
window.  All of it is checked here against the per-sequence oracles of
tests/oracles.py: the render, gathered for every sequence, with == on
every column float (walk_render), and the plans, risk and KL reductions
against the recursive walk enumeration (walk_enumerate).

risk.leave_one_out grows the full world's tree once and reuses it for
every ablated actor that never alone blocked one of its edge checks; its
edge checks decide each pair in planner._edge_blockers, on Python floats.
It is checked on generated worlds against replanned_gammas, which grows
every world's tree from scratch with the numpy reference growth, whose
edge checks go through planner._hits; a probe actor sits where the
squared offset is at the squared radius sum or one ulp either side.
"""

import itertools
import math
import random
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from navrisk import planner
from navrisk.planner import (
    MANEUVERS,
    SAFETY_MARGIN,
    SPEED_STEP,
    GoalSpec,
    LatticeConfig,
    PlannerConfig,
    _hits,
    enumerate_plans,
    lattice_blockers,
)
from navrisk.risk import (
    DegenerateScenario,
    PlanDistribution,
    all_actor_importance_kl,
    all_actor_risk_exact,
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

from oracles import (
    replanned_gammas,
    static_actor,
    walk_enumerate,
    walk_render,
    world_to_positions,
)

EXACT = settings(max_examples=150, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])
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


@st.composite
def windows(draw, max_universe):
    """(road, ego, lattice, dt): 1-4 lanes; the ego at a lane centre, on a
    lane edge or the road edge, and at speeds up to above the limit,
    including within the limit's 1e-9 tolerance; a lattice of at most
    max_universe sequences."""
    road = RoadMap(draw(st.integers(1, 4)),
                   draw(st.sampled_from((3.0, 3.5, 3.7))), 300.0,
                   draw(st.sampled_from((13.7, 14.0, 15.0))))
    lane = draw(st.integers(0, road.lane_count - 1))
    y = draw(st.sampled_from((road.lane_center(lane),
                              lane * road.lane_width,
                              (lane + 1) * road.lane_width)))
    limit = road.speed_limit
    speed = draw(st.sampled_from((
        draw(st.floats(0.0, limit)), 0.0, 1.0, limit - SPEED_STEP, limit,
        limit + 5e-10, limit + 1.0, limit + 2.5)))
    ego = ActorState(draw(st.floats(0.0, 100.0)), y, 0.0, speed)
    maneuvers = draw(st.sampled_from(SUBSETS))
    steps = draw(st.integers(1, next(
        d for d in range(6, 0, -1) if len(maneuvers) ** d <= max_universe)))
    lattice = LatticeConfig(steps, maneuvers, draw(st.integers(1, 10)))
    return road, ego, lattice, draw(st.sampled_from((0.1, 0.05, 0.25)))


def assert_render_exact(road, ego, lattice, dt):
    plans, blockers = lattice_blockers(
        road, ego, 0, lattice.horizon, lattice, {}, {}, dt=dt)
    want = rendered(road, ego, lattice, dt)
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


@given(windows(max_universe=729))
@EXACT
def test_level_wise_render_equals_walk_render(window):
    assert_render_exact(*window)


@pytest.mark.parametrize("maneuvers", SUBSETS, ids="+".join)
def test_every_maneuver_subset_renders_exactly(maneuvers):
    road = RoadMap(3, 3.5, 300.0, 14.0)
    for ego in (ActorState(12.3, road.lane_center(1), 0.0, 7.1),
                ActorState(5.0, 3.5, 0.0, 14.0 + 5e-10)):
        steps = 4 if len(maneuvers) > 3 else 5
        assert_render_exact(road, ego, LatticeConfig(steps, maneuvers, 3),
                            0.1)


@st.composite
def worlds(draw):
    """A small window plus 0-3 actors, parked or driving along the road
    near the ego's reach, as a Scenario starting at tick 0."""
    road, ego, lattice, dt = draw(windows(max_universe=81))
    k = lattice.horizon
    actors = {}
    for i in range(draw(st.integers(0, 3))):
        x0 = ego.position_x + draw(st.integers(-4, 60)) / 2
        y = draw(st.sampled_from((
            draw(st.floats(0.0, road.width)),
            road.lane_center(draw(st.integers(0, road.lane_count - 1))))))
        speed = draw(st.sampled_from((0.0, 3.0, 7.5)))
        aid = f"a{i}"
        actors[aid] = Trajectory(aid, 0, dt, tuple(
            ActorState(x0 + speed * dt * j, y, 0.0, speed)
            for j in range(k + 1)))
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


@given(worlds())
@EXACT
def test_exact_risk_and_kl_equal_walk_enumeration(case):
    s, lattice = case
    k, actors = lattice.horizon, s.npc_trajectories
    universe, survivors = walk_counts(s, lattice, actors)
    if universe == 0:
        with pytest.raises(DegenerateScenario):
            all_actor_risk_exact(s, 0, k, lattice)
        return
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
    assert all_actor_importance_kl(
        actors, s.ego_initial, 0, k, lattice, road=s.map,
        radii=s.actor_radius, ego_radius=RADIUS, dt=s.dt) == {
        aid: plan_divergence_kl(p, PlanDistribution.uniform_feasible(
            seqs, w)) for aid, w in without.items()}


@given(worlds())
@EXACT
def test_enumerate_plans_returns_walk_survivors(case):
    s, lattice = case
    actors = s.npc_trajectories
    universe, survivors = walk_counts(s, lattice, actors)
    got = enumerate_plans(s.map, s.ego_initial, 0, lattice.horizon, lattice,
                          actors, s.actor_radius, ego_radius=RADIUS,
                          dt=s.dt)
    want = [w for w in rendered(s.map, s.ego_initial, lattice, s.dt)
            if w[0] in survivors]
    assert got.universe_size == universe
    assert [p.maneuver_seq for p in got.plans] == [w[0] for w in want]
    for plan, (_, xs, ys, vs) in zip(got.plans, want):
        states = plan.trajectory.states
        assert [st.position_x for st in states] == xs
        assert [st.position_y for st in states] == ys
        assert [st.speed for st in states] == vs


# --- the level-wise blocker bits at the first and the last tick ------------

ROAD = RoadMap(3, 3.5, 300.0, 14.0)
EGO = ActorState(10.0, ROAD.lane_center(1), 0.0, 8.0)
LEVELS = LatticeConfig(3, ("keep", "shift_left", "shift_right"), 4)
FAR = ActorState(250.0, ROAD.lane_center(0), 0.0, 0.0)


def blocker_column(actor):
    """lattice_blockers' bits for one actor on the LEVELS window, and the
    bits of _hits over every tick of each walk_render'ed sequence."""
    plans, blockers = lattice_blockers(
        ROAD, EGO, 0, LEVELS.horizon, LEVELS, {"a": actor}, {"a": RADIUS},
        ego_radius=RADIUS)
    want = []
    for seq in plans(np.arange(len(blockers)))[0]:
        pos, _, _ = walk_render(seq, ROAD, EGO, LEVELS.ticks_per_step,
                                SPEED_STEP, 0.1)
        want.append(bool(_hits(actor.xy, np.array(pos),
                               RADIUS + RADIUS + SAFETY_MARGIN).any()))
    return blockers[:, 0].tolist(), want


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
    assert all_actor_importance_kl(
        {"a": actor}, EGO, 0, k, LEVELS, road=ROAD, radii=s.actor_radius,
        ego_radius=RADIUS) == {"a": plan_divergence_kl(
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

LOO = settings(max_examples=40, deadline=None, derandomize=True,
               suppress_health_check=[HealthCheck.too_slow])
ROAD3 = RoadMap(3, 3.5, 300.0, 15.0)
AWAY = (ROAD3.road_length + 50.0, -50.0)   # no check or route sees it


class _Found(Exception):
    pass


def first_edge_point(ego, k, cfg):
    """(tick, x, y, heading): where the growth's first edge check that
    covers an integer tick puts the ego at the first such tick, computed
    as planner._edge_blockers interpolates it, and the edge's heading.
    That check is the same in every world whose root is free: the checks
    before it test no tick."""
    def spy(p0x, p0y, p1x, p1y, tick0, tick1, *_):
        j = math.floor(tick0) + 1
        if j > math.floor(tick1):
            return ()
        frac = (j - tick0) / (tick1 - tick0)
        raise _Found(j, p0x + frac * (p1x - p0x), p0y + frac * (p1y - p0y),
                     math.atan2(p1y - p0y, p1x - p0x))

    with mock.patch.object(planner, "_edge_blockers", spy):
        try:
            planner._grow_tree(ROAD3, ego, k, np.zeros((0, k + 1, 2)),
                               np.zeros(0), cfg, RADIUS, 0.1)
        except _Found as found:
            return found.args
    return None


def boundary_probe(aid, ego, k, cfg, rng):
    """(trajectory, radius) of an actor that sits, at the tick of
    first_edge_point only, where the squared offset d2 that
    _edge_blockers computes from the ego is one ulp below, equal to or one
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
        dx, dy = ox - ex, oy - ey   # the offset _edge_blockers tests
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


@st.composite
def loo_worlds(draw):
    """(world, ego, k, cfg, radii, route) on ROAD3 at tick 0, with budgets
    of 50-300 and 0-6 actors: each driving or parked clear of the ego's
    start, or parked exactly at its radius sum from it (2.5 or 3.0, so
    the offset is exact); in about one world of two one of them is a
    boundary probe instead, and in about one of five one is parked on the
    ego, which encloses it at the root."""
    route = draw(st.booleans())
    lane = draw(st.integers(0, 2))
    speed = draw(st.sampled_from((6.0, 10.0, 14.0)))
    ego = ActorState(10.0, ROAD3.lane_center(lane), 0.0, speed)
    k = draw(st.sampled_from((20, 30)))
    cfg = PlannerConfig(
        iteration_budget=draw(st.integers(50, 300)),
        seed=draw(st.integers(0, 2 ** 31 - 1)),
        goal=GoalSpec(draw(st.sampled_from((12.0, 18.0, 25.0))),
                      draw(st.integers(0, 2))),
        target_speed=speed)
    kinds = [draw(st.sampled_from(("driving", "parked", "touching")))
             for _ in range(draw(st.sampled_from(range(7))))]
    # one probe at most: more would crowd the root's first edge
    for kind, odds in (("probe", 2), ("enclosing", 5)):
        if kinds and draw(st.integers(1, odds)) == 1:
            kinds[draw(st.integers(0, len(kinds) - 1))] = kind
    world, radii = {}, {}
    for i, kind in enumerate(kinds):
        aid, radius = f"a{i}", RADIUS
        if kind == "driving":
            v = draw(st.sampled_from((0.0, 4.0, 8.0)))
            x0 = draw(st.floats(13.0, 40.0))
            y = draw(st.floats(0.0, ROAD3.width))
            traj = Trajectory(aid, 0, 0.1, tuple(
                ActorState(x0 + v * 0.1 * j, y, 0.0, v)
                for j in range(k + 1)))
        elif kind == "parked":
            traj = static_actor(aid, draw(st.floats(13.0, 40.0)),
                                draw(st.floats(0.0, ROAD3.width)), k)
        elif kind == "touching":
            radius = draw(st.sampled_from((0.8, 1.3)))
            r = RADIUS + radius + SAFETY_MARGIN
            ux, uy = draw(st.sampled_from(((1, 0), (-1, 0), (0, 1),
                                           (0, -1))))
            traj = static_actor(aid, ego.position_x + ux * r,
                                ego.position_y + uy * r, k)
        elif kind == "enclosing":
            traj = static_actor(aid, ego.position_x + 0.5, ego.position_y,
                                k)
        else:
            probe = boundary_probe(
                aid, ego, k, cfg, random.Random(draw(st.integers(0, 2 ** 32))))
            if probe is None:
                continue
            traj, radius = probe
        world[aid], radii[aid] = traj, radius
    return world, ego, k, cfg, radii, route


@given(loo_worlds())
@LOO
def test_leave_one_out_equals_independent_replans(case):
    world, ego, k, cfg, radii, route = case
    full_ref, ref = replanned_gammas(ROAD3, world, ego, 0, k, cfg, radii,
                                     route=route)
    plan_full, gammas = leave_one_out(world, ego, 0, k, cfg, road=ROAD3,
                                      radii=radii, route=route)
    assert gammas == ref
    assert (plan_full is None) == (full_ref is None)
    if plan_full is not None:
        assert plan_full.trajectory.xy.tolist() == \
            full_ref.trajectory.xy.tolist()
