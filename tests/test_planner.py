import math
import random
from collections import Counter

import numpy as np
import pytest

from navrisk.planner import (
    GoalSpec,
    LatticeConfig,
    Plan,
    PlannerConfig,
    PlanningInfeasible,
    GOAL_TOLERANCE,
    SPEED_STEP,
    collision_check,
    enumerate_plans,
    plan_sampling,
)
from navrisk.scenario import (
    MAX_MAGNITUDE, ActorState, RoadMap, ScenarioError)

from kernel_calls import edge_blockers, grow_tree
from oracles import (
    _hits,
    lane_walks,
    obstacle_arrays,
    reference_edge_blockers,
    reference_grow_tree,
    reference_sample_stream,
    state_trajectory,
    static_actor,
    traj_xy,
    walk_enumerate,
    world_to_positions,
)

DT = 0.1


def moving_actor(actor_id, x0, y, speed, n, dt=DT):
    states = tuple(
        ActorState(x0 + speed * dt * i, y, 0.0, speed) for i in range(n + 1))
    return state_trajectory(actor_id, 0, dt, states)


ROAD3 = RoadMap(3, 3.5, 300.0, 15.0)


class TestCollisionCheck:
    def test_disjoint_lanes_no_collision(self):
        ego = moving_actor("ego", 0.0, 1.75, 10.0, 20)
        world = {"a": moving_actor("a", 0.0, 8.75, 10.0, 20)}
        assert not collision_check(ego, world, {"a": 1.2}, 1.2)

    def test_coincident_positions_collide(self):
        ego = moving_actor("ego", 0.0, 1.75, 10.0, 20)
        world = {"a": moving_actor("a", 0.0, 1.75, 10.0, 20)}
        assert collision_check(ego, world, {"a": 1.2}, 1.2)

    def test_exact_boundary_contact_is_not_collision(self):
        # lateral gap exactly ego_r + actor_r + SAFETY_MARGIN = 2.5 at every
        # tick
        ego = moving_actor("ego", 0.0, 1.0, 5.0, 10)
        world = {"a": moving_actor("a", 0.0, 3.5, 5.0, 10)}
        assert not collision_check(ego, world, {"a": 1.0}, 1.0)
        world = {"a": moving_actor("a", 0.0, 3.5 - 1e-9, 5.0, 10)}
        assert collision_check(ego, world, {"a": 1.0}, 1.0)

    def test_radius_sum_whose_square_overflows_rejected(self):
        # a hit by distance, but inf < inf would call it clear
        ego = moving_actor("ego", 0.0, 1.0, 0.0, 2)
        world = {"a": moving_actor("a", 1e199, 1.0, 0.0, 2)}
        with pytest.raises(ScenarioError, match="world actor 'a'"):
            collision_check(ego, world, {"a": 1e200}, 1.0)

    def test_window_mismatch_rejected(self):
        ego = moving_actor("ego", 0.0, 1.0, 5.0, 10)
        world = {"a": moving_actor("a", 0.0, 3.5, 5.0, 12)}
        with pytest.raises(ScenarioError):
            collision_check(ego, world, {"a": 1.0}, 1.0)

    def test_equals_the_array_rule_on_drawn_windows(self):
        # collision_check (the kernel's path check) against oracles._hits
        # on windows of 1-8 actors and k from 0 to 60.  Ego points and
        # radius sums are multiples of 0.25, so an actor placed at the
        # radius sum along an axis is in exact contact (no hit); far actors
        # sit up to MAX_MAGNITUDE away, and some beyond 1e154, where a
        # squared offset overflows to inf (no hit either)
        rng = random.Random(28)
        seen = Counter()

        def offset(kind, r):
            if kind == "near":
                return rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0)
            if kind == "contact":
                if rng.random() < 0.5:
                    return rng.choice(((r, 0.0), (-r, 0.0), (0.0, r),
                                       (0.0, -r)))
                return 2.0 * r + rng.uniform(0.0, 5.0), rng.uniform(-r, r)
            top = MAX_MAGNITUDE if rng.random() < 0.5 else 1e300
            return tuple(rng.choice((-1.0, 1.0)) *
                         10.0 ** rng.uniform(0.0, math.log10(top))
                         for _ in range(2))

        for _ in range(400):
            k = rng.randint(0, 60)
            ego_r = rng.choice((1.0, 1.25))
            ego = state_trajectory("ego", 3, DT, tuple(
                ActorState(0.25 * rng.randint(0, 400),
                           0.25 * rng.randint(0, 42), 0.0, 0.0)
                for _ in range(k + 1)))
            world, radii = {}, {}
            for i in range(rng.randint(1, 8)):
                aid = f"a{i}"
                radii[aid] = rng.choice((0.75, 1.25, 2.25))
                kind = rng.choice(("near", "contact", "far"))
                r = ego_r + radii[aid] + 0.5
                world[aid] = state_trajectory(aid, 3, DT, tuple(
                    ActorState(st.position_x + dx, st.position_y + dy,
                               0.0, 0.0)
                    for st in ego.states for dx, dy in [offset(kind, r)]))
            obs, rsum = obstacle_arrays(world, radii, ego_r, 3, k)
            want = bool(_hits(obs, traj_xy(ego), rsum[:, None]).any())
            assert collision_check(ego, world, radii, ego_r) == want
            with np.errstate(over="ignore"):
                d = obs - traj_xy(ego)
                d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
            r2 = (rsum * rsum)[:, None]
            seen["hit" if want else "clear"] += 1
            seen["decided by contact"] += bool((d2 <= r2).any()) != want
            seen["overflow"] += bool(np.isinf(d2).any())
        assert min(seen.values()) >= 40, seen


class TestLattice:
    def test_three_lane_universe_is_17(self):
        # walks of length 3 on the 3-node path graph with self-loops,
        # starting from the middle node
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 1.0)
        lattice = LatticeConfig(3, ("keep", "shift_left", "shift_right"), 10)
        ps = enumerate_plans(ROAD3, ego, 0, 30, lattice)
        assert ps.universe_size == 17
        assert len(ps) == 17
        assert len(lane_walks(3, 1, 3)) == 17

    def test_lane_blocker_leaves_8(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 1.0)
        lattice = LatticeConfig(3, ("keep", "shift_left", "shift_right"), 10)
        world = {"block": static_actor("block", 11.5, ROAD3.lane_center(2), 30)}
        ps = enumerate_plans(ROAD3, ego, 0, 30, lattice, world,
                             {"block": 1.2}, ego_radius=1.2)
        assert ps.universe_size == 17
        assert len(ps) == 8
        assert len(lane_walks(3, 1, 3, blocked_lanes=(2,))) == 8

    def test_matches_walk_oracle_with_blocker(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 1.0)
        lattice = LatticeConfig(3, ("keep", "shift_left", "shift_right"), 10)
        world = {"block": static_actor("block", 11.5, ROAD3.lane_center(2), 30)}
        ps = enumerate_plans(ROAD3, ego, 0, 30, lattice, world,
                             {"block": 1.2}, ego_radius=1.2)
        universe, survivors = walk_enumerate(
            ROAD3, ego, 3, lattice.maneuvers, 10, SPEED_STEP, DT,
            world_to_positions(world),
            {"block": 1.2 + 1.2 + 0.5})
        assert ps.universe_size == universe
        assert ps.sequences() == survivors

    def test_actor_beyond_road_changes_nothing(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 1.0)
        lattice = LatticeConfig(3, ("keep", "shift_left", "shift_right"), 10)
        far = {"far": static_actor("far", ROAD3.road_length + 50.0, 5.25, 30)}
        free = enumerate_plans(ROAD3, ego, 0, 30, lattice)
        with_far = enumerate_plans(ROAD3, ego, 0, 30, lattice, far,
                                   {"far": 1.2}, ego_radius=1.2)
        assert free.sequences() == with_far.sequences()

    def test_speed_limit_filters_accelerate(self):
        road = RoadMap(1, 3.5, 300.0, 10.0)
        ego = ActorState(0.0, 1.75, 0.0, 9.0)
        lattice = LatticeConfig(2, ("keep", "accelerate"), 5)
        ps = enumerate_plans(road, ego, 0, 10, lattice)
        # accelerate once -> 10.5 > limit; any sequence containing it is out
        assert ps.universe_size == 1
        assert ps.sequences() == {("keep", "keep")}

    def test_containment_under_ablation(self):
        # plans(W) subseteq plans(W minus i) subseteq plans(empty), per actor
        rng = np.random.default_rng(3)
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 2.0)
        lattice = LatticeConfig(3, ("keep", "shift_left", "shift_right"), 8)
        for _ in range(20):
            world = {}
            radii = {}
            for i in range(int(rng.integers(1, 4))):
                aid = f"a{i}"
                world[aid] = static_actor(
                    aid, float(rng.uniform(5, 25)),
                    float(rng.uniform(0, ROAD3.width)), 24)
                radii[aid] = 1.2
            full = enumerate_plans(ROAD3, ego, 0, 24, lattice, world,
                                   radii, ego_radius=1.2).sequences()
            empty = enumerate_plans(ROAD3, ego, 0, 24, lattice).sequences()
            for aid in world:
                rest = {a: tr for a, tr in world.items() if a != aid}
                partial = enumerate_plans(ROAD3, ego, 0, 24, lattice, rest,
                                          radii, ego_radius=1.2).sequences()
                assert full <= partial <= empty

    def test_lattice_horizon_must_match(self):
        ego = ActorState(0.0, 1.75, 0.0, 1.0)
        lattice = LatticeConfig(3, ("keep",), 10)
        with pytest.raises(ScenarioError):
            enumerate_plans(ROAD3, ego, 0, 25, lattice)

    def test_plans_stay_in_bounds(self):
        ego = ActorState(10.0, ROAD3.lane_center(0), 0.0, 3.0)
        lattice = LatticeConfig(4, ("keep", "shift_left", "shift_right"), 5)
        ps = enumerate_plans(ROAD3, ego, 0, 20, lattice)
        for p in ps.plans:
            ys = traj_xy(p.trajectory)[:, 1]
            assert np.all(ys >= 0.0) and np.all(ys <= ROAD3.width)


def sampling_cfg(**kw):
    defaults = dict(iteration_budget=600, seed=9,
                    goal=GoalSpec(25.0, 1), target_speed=10.0)
    defaults.update(kw)
    return PlannerConfig(**defaults)


@pytest.mark.parametrize("kwargs, field", [
    ({"iteration_budget": 0}, "iteration_budget"),
    ({"iteration_budget": 1.5}, "iteration_budget"),
    ({"target_speed": 0.0}, "target_speed"),
    ({"target_speed": float("nan")}, "target_speed"),
    ({"goal": GoalSpec(float("nan"), 1)}, "goal.advance"),
    ({"goal": GoalSpec(-20.0, 1)}, "goal.advance"),
    ({"seed": 4.0}, "seed"),
    ({"seed": -1}, "seed"),
])
def test_planner_config_rejects_values_the_planner_cannot_use(kwargs, field):
    with pytest.raises(ValueError, match=field):
        sampling_cfg(**kwargs)


@pytest.mark.parametrize("args, field", [
    ((2.5,), "decision_steps"),
    ((2.0,), "decision_steps"),
    ((2, ("keep",), 2.5), "ticks_per_step"),
])
def test_lattice_config_rejects_non_integer_counts(args, field):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        LatticeConfig(*args)


class TestSamplingPlanner:
    def test_empty_road_reaches_goal_near_straight(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        cfg = sampling_cfg()
        plan = plan_sampling(ROAD3, ego, 0, 30, {}, cfg, {})
        assert not plan.partial
        end = plan.trajectory.states[-1]
        goal = (ego.position_x + 25.0, ROAD3.lane_center(1))
        assert math.dist((end.position_x, end.position_y), goal) \
            <= GOAL_TOLERANCE + 1e-9
        assert plan.cost <= 25.0 * 1.05
        assert plan.cost >= 25.0 - GOAL_TOLERANCE

    def test_determinism_same_seed(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        world = {"a": moving_actor("a", 25.0, ROAD3.lane_center(1), 3.0, 30)}
        cfg = sampling_cfg()
        p1 = plan_sampling(ROAD3, ego, 0, 30, world, cfg, {"a": 1.2})
        p2 = plan_sampling(ROAD3, ego, 0, 30, world, cfg, {"a": 1.2})
        assert p1.trajectory.states == p2.trajectory.states
        assert p1.cost == p2.cost

    def test_blocked_lane_forces_lane_change_collision_free(self):
        # stopped lead just short of the goal: the swerve around it cannot
        # return to the start lane within the time budget
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        world = {"stop": static_actor("stop", 37.0, ROAD3.lane_center(1), 30)}
        cfg = sampling_cfg(goal=GoalSpec(30.0, 1), iteration_budget=900)
        plan = plan_sampling(ROAD3, ego, 0, 30, world, cfg, {"stop": 1.2})
        start_lane = ROAD3.lane_of(ego.position_y)
        end_lane = ROAD3.lane_of(plan.trajectory.states[-1].position_y)
        assert end_lane != start_lane
        assert not collision_check(plan.trajectory, world, {"stop": 1.2},
                                   1.2)

    # the empty base world pins the m = 0 path of the collision kernel
    @pytest.mark.parametrize("base", ["empty", "near"])
    def test_obstacle_beyond_road_is_bit_identical(self, base):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        near = {} if base == "empty" else {
            "a": moving_actor("a", 30.0, ROAD3.lane_center(2), 8.0, 30)}
        far = dict(near)
        far["ghost"] = static_actor("ghost", ROAD3.road_length + 40.0,
                                    ROAD3.lane_center(1), 30)
        cfg = sampling_cfg()
        radii = {"a": 1.2, "ghost": 1.2}
        p1 = plan_sampling(ROAD3, ego, 0, 30, near, cfg, radii)
        p2 = plan_sampling(ROAD3, ego, 0, 30, far, cfg, radii)
        assert p1.trajectory.states == p2.trajectory.states
        assert p1.cost == p2.cost

    def test_enclosed_ego_raises(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        world = {"on_top": static_actor("on_top", 10.5, ROAD3.lane_center(1),
                                        30)}
        with pytest.raises(PlanningInfeasible):
            plan_sampling(ROAD3, ego, 0, 30, world, sampling_cfg(),
                          {"on_top": 1.2})

    @pytest.mark.parametrize("case, message", [
        ("ego overlaps", "ego overlaps an obstacle at the planning tick"),
        ("no edge arrives by k",
         "no collision-free edge from the ego position"),
        ("everything blocked at k",
         "no candidate endpoint stays collision-free"),
    ])
    def test_infeasible_says_why(self, case, message):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        cfg, world = sampling_cfg(iteration_budget=300), {}
        if case == "ego overlaps":
            world["a"] = static_actor("a", 10.5, ROAD3.lane_center(1), 30)
        elif case == "no edge arrives by k":
            # 10^4 ticks per meter: the tree stays the root alone
            cfg = sampling_cfg(iteration_budget=300, target_speed=1e-3)
        else:
            # far away until k, then over the whole road: the tree grows,
            # but every endpoint's hold reaches tick k
            far = ActorState(ROAD3.road_length + 50.0, -50.0, 0.0, 0.0)
            world["a"] = state_trajectory("a", 0, DT, (far,) * 30 + (ego,))
        with pytest.raises(PlanningInfeasible, match=f"^{message}$"):
            plan_sampling(ROAD3, ego, 0, 30, world, cfg, {"a": 100.0})

    def test_off_road_ego_rejected(self):
        # beside the road, and past its end
        for x, y in ((10.0, -1.0), (300.5, 5.25)):
            ego = ActorState(x, y, 0.0, 10.0)
            with pytest.raises(ScenarioError, match="^ego is off-road$"):
                plan_sampling(ROAD3, ego, 0, 30, {}, sampling_cfg(), {})

    def test_returned_plans_collision_free_on_random_worlds(self):
        rng = np.random.default_rng(12)
        cfg = sampling_cfg(iteration_budget=400)
        for trial in range(10):
            ego = ActorState(5.0, ROAD3.lane_center(1), 0.0, 10.0)
            world = {}
            radii = {}
            for i in range(int(rng.integers(1, 4))):
                aid = f"a{i}"
                world[aid] = moving_actor(
                    aid, float(rng.uniform(15, 35)),
                    float(rng.uniform(1.0, ROAD3.width - 1.0)),
                    float(rng.uniform(0.0, 6.0)), 30)
                radii[aid] = 1.2
            try:
                plan = plan_sampling(ROAD3, ego, 0, 30, world, cfg, radii)
            except PlanningInfeasible:
                continue
            assert not collision_check(plan.trajectory, world, radii, 1.2)
            ys = traj_xy(plan.trajectory)[:, 1]
            assert np.all(ys >= 0.0) and np.all(ys <= ROAD3.width)

    def test_trajectory_spans_window(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        plan = plan_sampling(ROAD3, ego, 5, 25, {}, sampling_cfg(), {})
        assert plan.trajectory.start_tick == 5
        assert plan.trajectory.end_tick == 30


class TestPairRule:
    """edge_blockers decides each ego-actor pair as _hits does: the same
    rounded squares dx*dx + dy*dy and r*r, compared with the strict <."""

    @staticmethod
    def edge_hit(dx, dy, r):
        # one actor at (dx, dy) from an ego held at the origin over tick 1
        # only, so the offset is exact
        obs = np.array([[[0.0, 0.0], [dx, dy]]])
        return edge_blockers(0.0, 0.0, 0.0, 0.0, 0.5, 1.5, obs,
                              np.array([r])) == (0,)

    def test_at_the_squared_radius_and_its_neighbours(self):
        # radius sums around sqrt(d2) put r*r at d2 and one ulp either side
        rng = np.random.default_rng(41)
        d = rng.normal(size=(300, 2)) * rng.uniform(0.5, 20.0, (300, 1))
        seen = {"below": 0, "at": 0, "above": 0}
        for dx, dy in d.tolist():
            d2 = dx * dx + dy * dy
            r0 = math.sqrt(d2)
            for r in (r0 + np.arange(-2, 3) * np.spacing(r0)).tolist():
                r2 = r * r
                want = bool(_hits(np.array([dx, dy]), np.zeros(2), r))
                assert self.edge_hit(dx, dy, r) == want == (d2 < r2), \
                    (dx, dy, r)
                if d2 == r2:
                    seen["at"] += 1
                elif d2 == math.nextafter(r2, -math.inf):
                    seen["below"] += 1
                elif d2 == math.nextafter(r2, math.inf):
                    seen["above"] += 1
        assert min(seen.values()) >= 30, seen

    def test_random_pairs_near_the_radius(self):
        rng = np.random.default_rng(42)
        d = rng.uniform(-6.0, 6.0, (10 ** 5, 2))
        h = np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])
        r = h + rng.integers(-3, 4, len(h)) * np.spacing(h)
        want = _hits(d, np.zeros(2), r).tolist()
        got = [self.edge_hit(dx, dy, ri)
               for (dx, dy), ri in zip(d.tolist(), r.tolist())]
        assert got == want
        assert 0 < sum(got) < len(got)

    def test_no_hit_once_an_offset_reaches_r(self):
        # an offset of r or more on one axis is no hit: rounding is
        # monotone and dy*dy >= 0, so the rounded sum stays >= r*r
        subnormal = 5e-324
        rng = np.random.default_rng(43)
        for r in [3.0, 2.5, 0.1, *rng.uniform(0.5, 6.0, 40).tolist()]:
            below, above = np.nextafter(r, [0.0, math.inf]).tolist()
            for off in (r, above, 2.0 * r):
                for other in (0.0, subnormal, -subnormal, 1e-300, below,
                              0.5 * r, r):
                    for dx, dy in ((off, other), (-off, other),
                                   (other, off), (other, -off)):
                        assert not self.edge_hit(dx, dy, r), (dx, dy, r)
                        assert not _hits(np.array([dx, dy]), np.zeros(2), r)
            # a squared offset that overflows is no hit, with no warning
            for dx, dy in ((1e200, 0.0), (-1e300, 1e300)):
                assert not self.edge_hit(dx, dy, r), (dx, dy, r)
                assert not _hits(np.array([dx, dy]), np.zeros(2), r)
            # one ulp inside r with a zero or subnormal other offset hits
            for dx, dy in ((below, 0.0), (below, subnormal),
                           (-subnormal, -below)):
                assert self.edge_hit(dx, dy, r), (dx, dy, r)
                assert _hits(np.array([dx, dy]), np.zeros(2), r)


def reference_worlds():
    """(ego, k, obs, rsum, cfg, ego_radius) for the kernel equality test:
    random worlds with 0-6 actors and budgets 100-300, then a parked actor
    exactly rsum ahead of the root."""
    rng = np.random.default_rng(2718)
    for _ in range(40):
        k = int(rng.integers(15, 41))
        ego = ActorState(float(rng.uniform(5.0, 20.0)),
                         float(rng.uniform(1.3, ROAD3.width - 1.3)),
                         0.0, 10.0)
        world, radii = {}, {}
        for i in range(int(rng.integers(0, 7))):
            aid = f"a{i}"
            world[aid] = moving_actor(
                aid, ego.position_x + float(rng.uniform(2.0, 30.0)),
                float(rng.uniform(0.0, ROAD3.width)),
                float(rng.uniform(0.0, 8.0)), k)
            radii[aid] = float(rng.uniform(0.8, 1.5))
        cfg = sampling_cfg(iteration_budget=int(rng.integers(100, 301)),
                           seed=int(rng.integers(0, 2 ** 31)),
                           goal=GoalSpec(float(rng.uniform(15.0, 35.0)),
                                         int(rng.integers(3))))
        obs, rsum = obstacle_arrays(world, radii, 1.2, 0, k)
        yield ego, k, obs, rsum, cfg, 1.2
    # rsum = 1.25 + 1.25 + 0.5 = 3.0 exactly, and the actor sits 3.0 ahead
    ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
    world = {"edge": static_actor("edge", 13.0, ROAD3.lane_center(1), 30),
             "a": moving_actor("a", 30.0, ROAD3.lane_center(0), 5.0, 30)}
    cfg = sampling_cfg(iteration_budget=300)
    obs, rsum = obstacle_arrays(world, {"edge": 1.25, "a": 1.25}, 1.25, 0, 30)
    assert 13.0 - ego.position_x == rsum[0] == 3.0
    yield ego, 30, obs, rsum, cfg, 1.25


def assert_same_growth(ego, k, obs, rsum, cfg, ego_r, ties=None,
                       samples=None):
    """grow_tree equals reference_grow_tree, on the samples given or each
    on its own stream for cfg, raising alike or giving the same tree and
    sole mask bit for bit; returns (tree, sole), or None when both raise
    PlanningInfeasible."""
    try:
        ref, ref_sole = reference_grow_tree(ROAD3, ego, k, obs, rsum, cfg,
                                            ego_r, DT, ties, samples)
    except PlanningInfeasible:
        with pytest.raises(PlanningInfeasible):
            grow_tree(ROAD3, ego, k, obs, rsum, cfg, ego_r, DT, samples)
        return None
    tree, sole = grow_tree(ROAD3, ego, k, obs, rsum, cfg, ego_r, DT,
                           samples)
    for field in ("pts", "cost", "tick", "parent"):
        got, want = getattr(tree, field), getattr(ref, field)
        assert got.dtype == want.dtype, field
        assert got.tolist() == want.tolist(), field
    assert (tree.speed, tree.inv) == (ref.speed, ref.inv)
    assert sole.dtype == ref_sole.dtype
    assert sole.tolist() == ref_sole.tolist()
    return tree, sole


class TestScalarKernel:
    """The compiled growth kernel against the earlier numpy kernel, kept in
    oracles.py: the same tree and sole mask, bit for bit."""

    def test_grow_tree_equals_numpy_reference(self):
        sole_seen = not_sole_seen = grown = 0
        for world in reference_worlds():
            got = assert_same_growth(*world)
            if got is None:
                continue
            grown += 1
            sole_seen += int(got[1].sum())
            not_sole_seen += int((~got[1]).sum())
        assert grown >= 30 and sole_seen > 0 and not_sole_seen > 0

    def test_edge_blockers_at_the_radius(self):
        # a parked edge at the origin over tick 1 only, so the offsets are
        # exact; one ulp inside r the actor blocks, at r it does not
        ex = ey = 0.0
        for r in (2.9, 3.0, 3.7):
            below = float(np.nextafter(r, 0.0))
            for off, blocked in ((below, True), (r, False)):
                for dx, dy in ((off, 0.0), (-off, 0.0), (0.0, off),
                               (0.0, -off), (off, 5e-324)):
                    obs = np.array([[[0.0, 0.0], [ex + dx, ey + dy]]])
                    got = edge_blockers(ex, ey, ex, ey, 0.5, 1.5, obs,
                                         np.array([r]))
                    assert got == ((0,) if blocked else ()), (dx, dy, r)

    def test_edge_blockers_contract(self):
        rng = np.random.default_rng(99)
        k = 30
        ticks = np.arange(k + 1, dtype=float)
        seen = {0: 0, 1: 0, 2: 0}
        for _ in range(60):
            world, radii = {}, {}
            for i in range(int(rng.integers(0, 7))):
                aid = f"a{i}"
                world[aid] = moving_actor(
                    aid, float(rng.uniform(10.0, 25.0)),
                    float(rng.uniform(0.0, ROAD3.width)),
                    float(rng.uniform(0.0, 4.0)), k)
                radii[aid] = float(rng.uniform(0.5, 2.5))
            obs, rsum = obstacle_arrays(world, radii, 1.2, 0, k)
            for _ in range(20):
                p0 = rng.uniform((8.0, 0.0), (25.0, ROAD3.width))
                p1 = p0 + rng.uniform(-4.0, 4.0, 2)
                tick0 = float(rng.uniform(0.0, k - 4))
                tick1 = tick0 + float(rng.uniform(0.0, 4.0))
                mask = reference_edge_blockers(p0, p1, tick0, tick1, obs,
                                               rsum, ticks)
                truth = set() if mask is None else \
                    set(np.flatnonzero(mask).tolist())
                got = edge_blockers(*p0.tolist(), *p1.tolist(), tick0,
                                     tick1, obs, rsum)
                if len(truth) < 2:
                    assert got == tuple(truth)
                else:
                    assert len(got) == 2 and got[0] != got[1]
                    assert set(got) <= truth
                seen[min(len(truth), 2)] += 1
        assert min(seen.values()) >= 50, seen

    def test_edge_blockers_rejects_ticks_the_obstacles_do_not_cover(self):
        # obs covers ticks 0-3; the kernel reads every integer tick of the
        # edge, so an edge outside them is refused before any read
        obs, rsum = np.zeros((1, 4, 2)), np.array([1.0])
        for tick0, tick1 in ((-0.5, 1.0), (1.0, 4.0), (math.nan, 1.0),
                             (0.0, math.nan)):
            with pytest.raises(ValueError, match="do not cover"):
                edge_blockers(0.0, 0.0, 1.0, 0.0, tick0, tick1, obs, rsum)
        assert edge_blockers(0.0, 0.0, 1.0, 0.0, 0.0, 3.5, obs, rsum) == (0,)


def lattice_samples(ego, cfg, ego_radius):
    """reference_sample_stream's samples rounded to the 0.25 m lattice."""
    samples = reference_sample_stream(ROAD3, ego, cfg, ego_radius)
    return np.round(samples * 4.0) / 4.0


def lattice_worlds(count):
    """(ego, k, obs, rsum, cfg, ego_radius) on the 0.25 m lattice: the ego
    and 0-3 parked actors on lattice points, and a sample window 8-12 m
    long, so that a growth on lattice_samples puts most nodes on lattice
    points too."""
    rng = np.random.default_rng(1618)
    for _ in range(count):
        k = int(rng.integers(15, 41))
        ego = ActorState(10.0 + 0.25 * int(rng.integers(0, 8)),
                         1.25 + 0.25 * int(rng.integers(0, 30)), 0.0, 10.0)
        world, radii = {}, {}
        for i in range(int(rng.integers(0, 4))):
            aid = f"a{i}"
            world[aid] = static_actor(
                aid, ego.position_x + 0.25 * int(rng.integers(12, 48)),
                0.25 * int(rng.integers(0, 43)), k)
            radii[aid] = float(rng.choice((0.8, 1.3)))
        cfg = sampling_cfg(iteration_budget=int(rng.integers(150, 301)),
                           seed=int(rng.integers(0, 2 ** 31)),
                           goal=GoalSpec(float(rng.choice((4.0, 8.0))), 1))
        obs, rsum = obstacle_arrays(world, radii, 1.2, 0, k)
        yield ego, k, obs, rsum, cfg, 1.2


class TestGrowthOnLattice:
    """The kernel's tie rules, at growth level: its trees equal
    reference_grow_tree's on sample streams rounded to a 0.25 m lattice,
    where the nearest node ties in d2 (np.argmin's lowest index), a new
    node shares x with an earlier one (the x-sorted keys), a neighbour
    sits exactly 2 * STEER_STEP away (<=) and connect costs tie (the
    stable sort), more than 50 times each."""

    def test_ties_are_decided_as_the_reference_decides(self):
        ties = Counter()
        for ego, k, obs, rsum, cfg, ego_r in lattice_worlds(30):
            samples = lattice_samples(ego, cfg, ego_r)
            assert_same_growth(ego, k, obs, rsum, cfg, ego_r, ties=ties,
                               samples=samples)
        assert min(ties[key] for key in ("nearest", "x", "at_r", "cost")) \
            > 50, ties

    @pytest.mark.parametrize("k, budget, speed, actors, past_k", [
        (30, 300, 10.0, False, 0),
        (30, 1, 10.0, True, 0),
        # 10^4 ticks per meter: no edge longer than 3 mm arrives by k
        (30, 300, 1e-3, True, 0),
        (1, 300, 10.0, True, 0),
        (30, 3000, 10.0, True, 0),
        (20, 300, 10.0, True, 7),
    ], ids=["no actors", "budget 1", "every sample rejected", "k = 1",
            "budget 3000", "obstacles past k"])
    def test_edge_cases(self, k, budget, speed, actors, past_k):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, speed)
        n = k + past_k
        world = {"a": moving_actor("a", 16.0, ROAD3.lane_center(1), 3.0, n),
                 "b": static_actor("b", 20.0, ROAD3.lane_center(2), n)} \
            if actors else {}
        obs, rsum = obstacle_arrays(world, {"a": 1.2, "b": 1.2}, 1.2, 0, n)
        cfg = sampling_cfg(iteration_budget=budget, target_speed=speed)
        tree, sole = assert_same_growth(ego, k, obs, rsum, cfg, 1.2)
        assert len(sole) == len(world)
        nodes = len(tree.pts)
        assert nodes == 1 if speed < 1.0 else 1 < nodes <= budget + 1
