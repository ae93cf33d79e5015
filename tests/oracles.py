"""Independent oracles used by the test suite.

Most of this is deliberately written without the package's planner
machinery: recursive graph walks instead of itertools products, plain
float loops instead of numpy, so that the production code is checked
against a second implementation of the same contracts.

walk_render renders one maneuver sequence at a time with the scalar
float expressions that planner.lattice_blockers applies level by level
to whole arrays of prefixes; it is the == reference for that render:
the same sequences, and columns equal to the last bit.  walk_enumerate
tests each rendered tick with the collision rule written out on Python
floats, dx*dx + dy*dy < r*r, not through planner._hits.

The exceptions are the sampling planner's tree growth and endpoint
selection.  reference_grow_tree and reference_edge_blockers keep the earlier
all-numpy growth, against which planner._grow_tree, which runs every
iteration in the compiled kernel navrisk/_growth.c, is checked for
bit-identical trees.  It is the numpy reference for every step:
whole-array edge checks through the vectorized overlap rule
planner._hits, the nearest node by np.argmin, and the neighbour set by
np.nonzero, np.sqrt and np.lexsort over the tree arrays.  On request it
counts the ties it meets, where the kernel's tie rules decide.
reference_select_endpoint, reference_render_path and reference_hold_free
keep the earlier Python endpoint selection (np.lexsort orders, the
np.searchsorted walk, _hits for hold and path), against which
planner._select_path, which runs it in the kernel, is checked for the
same endpoint and positions.  replanned_gammas plans every leave-one-out
world on its own such tree with that selection.
"""

import math
from collections import Counter
from typing import Optional

import numpy as np

from navrisk.planner import (
    GOAL_TOLERANCE,
    STEER_STEP,
    Plan,
    PlannerConfig,
    PlanningInfeasible,
    _goal_point,
    _hits,
    _plan_cost,
    _Tree,
    world_arrays,
)
from navrisk.risk import route_goal, traj_difference_euclidean
from navrisk.scenario import (
    ActorState, RoadMap, ScenarioError, Trajectory, wrap_angle)


def lane_walks(lane_count, start_lane, steps, allow_keep=True,
               blocked_lanes=()):
    """All lane index walks of the given length on the lane path graph."""
    walks = []

    def recurse(path):
        if len(path) == steps + 1:
            walks.append(tuple(path))
            return
        here = path[-1]
        moves = []
        if allow_keep:
            moves.append(here)
        moves.extend([here + 1, here - 1])
        for nxt in moves:
            if 0 <= nxt < lane_count and nxt not in blocked_lanes:
                recurse(path + [nxt])

    if start_lane not in blocked_lanes:
        recurse([start_lane])
    return walks


def walk_render(seq, road, ego, tps, speed_step, dt):
    """Plain-python rendering of one maneuver sequence.

    Returns (positions, speeds, ok) where ok is False for out-of-bounds
    or over-limit sequences.  Mirrors the production contract: cosine
    lateral ramps between lane centers, trapezoidal longitudinal
    integration.
    """
    lane = int(min(max(ego.position_y // road.lane_width, 0),
                   road.lane_count - 1))
    y = ego.position_y
    v = ego.speed
    x = ego.position_x
    pos = [(x, y)]
    vs = [v]
    for man in seq:
        v_end = v
        y_end = y
        if man == "shift_left":
            lane += 1
        elif man == "shift_right":
            lane -= 1
        elif man == "brake":
            v_end = max(0.0, v - speed_step)
        elif man == "accelerate":
            v_end = v + speed_step
        if lane < 0 or lane >= road.lane_count:
            return None, None, False
        if v_end > road.speed_limit + 1e-9:
            return None, None, False
        if man in ("shift_left", "shift_right"):
            y_end = (lane + 0.5) * road.lane_width
        for i in range(1, tps + 1):
            v_i = v + (v_end - v) * i / tps
            x = x + 0.5 * (vs[-1] + v_i) * dt
            tau = i / tps
            yy = y + (y_end - y) * 0.5 * (1 - math.cos(math.pi * tau))
            pos.append((x, yy))
            vs.append(v_i)
        v, y = v_end, y_end
    return pos, vs, True


def walk_enumerate(road, ego, steps, maneuvers, tps, speed_step, dt,
                   world_positions=None, thresholds=None):
    """Enumerate maneuver sequences by recursive walk; count in-bounds ones
    and return the collision-free sequence set.

    world_positions: {actor_id: [(x, y), ...]} per tick, length steps*tps+1.
    thresholds: {actor_id: inflated radii sum}; a squared distance strictly
    below its square means collision, in plain Python floats.
    """
    menu = sorted(set(maneuvers))
    sequences = []

    def recurse(prefix):
        if len(prefix) == steps:
            sequences.append(tuple(prefix))
            return
        for man in menu:
            recurse(prefix + [man])

    recurse([])

    universe = 0
    survivors = set()
    for seq in sequences:
        pos, _, ok = walk_render(seq, road, ego, tps, speed_step, dt)
        if not ok:
            continue
        universe += 1
        hit = False
        if world_positions:
            for aid, opos in world_positions.items():
                thr = thresholds[aid]
                for (ex, ey), (ox, oy) in zip(pos, opos):
                    dx, dy = ox - ex, oy - ey
                    if dx * dx + dy * dy < thr * thr:
                        hit = True
                        break
                if hit:
                    break
        if not hit:
            survivors.add(seq)
    return universe, survivors


def world_to_positions(world):
    """Extract plain position lists from a {id: Trajectory} mapping."""
    return {
        aid: [(s.position_x, s.position_y) for s in traj.states]
        for aid, traj in world.items()
    }


def static_actor(actor_id, x, y, n, dt=0.1):
    """A parked actor holding one position for n+1 ticks."""
    from navrisk.scenario import ActorState, Trajectory
    state = ActorState(x, y, 0.0, 0.0)
    return Trajectory(actor_id, 0, dt, tuple(state for _ in range(n + 1)))


# ---------------------------------------------------------------------------
# Reference tree growth (the earlier numpy kernel, kept as it was)
# ---------------------------------------------------------------------------

def reference_edge_blockers(p0, p1, tick0, tick1, obs, rsum,
                            ticks) -> Optional[np.ndarray]:
    """(m,) mask of the actors the edge p0 -> p1 hits, or None when the
    traversal covers no integer tick.  ticks is 0.0 .. k as floats."""
    # collision semantics live on integer ticks; check every tick the edge
    # traversal covers, interpolating both ego and obstacles
    j0 = math.floor(tick0) + 1   # smallest integer tick strictly after tick0
    j1 = math.floor(tick1)       # largest integer tick at or before tick1
    if j1 < j0:
        return None
    frac = (ticks[j0:j1 + 1] - tick0) / (tick1 - tick0)
    pts = p0[None, :] + frac[:, None] * (p1 - p0)[None, :]
    return _hits(obs[:, j0:j1 + 1], pts, rsum[:, None]).any(axis=1)


def reference_grow_tree(road: RoadMap, ego: ActorState, k: int,
                        obs: np.ndarray, rsum: np.ndarray,
                        cfg: PlannerConfig, ego_radius: float,
                        dt: float, ties: Optional[Counter] = None
                        ) -> tuple[_Tree, np.ndarray]:
    """Grow the rewiring tree for exactly cfg.iteration_budget samples
    among the obstacles (obs, rsum) of world_arrays.

    Also returns the (m,) sole mask: actor j is sole iff some connect or
    rewire edge check was blocked by actor j alone.  The tree reads
    cfg.goal only as the sample basis cfg.goal.advance, so removing a
    never-sole actor gives this same tree.  Raises PlanningInfeasible
    when the ego overlaps an obstacle at the planning tick.

    When ties is given, adds to it the samples whose nearest node ties
    in d2 with another ("nearest"), the new nodes whose x equals an
    earlier node's ("x"), the neighbours exactly 2 * STEER_STEP away
    ("at_r") and the neighbours whose connect cost equals an earlier
    neighbour's ("cost").
    """
    if not road.contains_y(ego.position_y):
        raise ScenarioError("ego is off-road")
    speed = min(cfg.target_speed, road.speed_limit)
    inv = 1.0 / (speed * dt)          # ticks per meter of path

    root = np.array([ego.position_x, ego.position_y])
    if _hits(obs[:, 0], root, rsum).any():
        raise PlanningInfeasible(
            "ego overlaps an obstacle at the planning tick")

    # entire sample stream drawn up front from the seed; the window depends
    # only on the ego state and the sample basis cfg.goal.advance
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    x_lo = ego.position_x
    x_hi = min(ego.position_x + cfg.goal.advance + 2 * GOAL_TOLERANCE,
               road.road_length)
    y_lo, y_hi = ego_radius, road.width - ego_radius
    samples = rng.uniform((x_lo, y_lo), (x_hi, y_hi),
                          (cfg.iteration_budget, 2))

    ticks = np.arange(k + 1, dtype=float)
    sole = np.zeros(len(rsum), dtype=bool)

    def edge_free(p0, p1, tick0, tick1) -> bool:
        hit = reference_edge_blockers(p0, p1, tick0, tick1, obs, rsum, ticks)
        if hit is None:
            return True
        blockers = np.count_nonzero(hit)
        if blockers == 1:
            np.logical_or(sole, hit, out=sole)
        return blockers == 0

    n_max = cfg.iteration_budget + 1
    pts = np.empty((n_max, 2))
    cost = np.empty(n_max)
    tick = np.empty(n_max)
    parent = np.full(n_max, -1, dtype=np.int32)
    children = np.zeros(n_max, dtype=np.int32)
    pts[0] = root
    cost[0] = 0.0
    tick[0] = 0.0
    n = 1

    r_rewire = 2.0 * STEER_STEP
    for s in samples:
        dx = pts[:n, 0] - s[0]
        dy = pts[:n, 1] - s[1]
        d2 = dx * dx + dy * dy
        ni = int(np.argmin(d2))
        if ties is not None:
            ties["nearest"] += int(np.count_nonzero(d2 == d2[ni]) > 1)
        dist = math.sqrt(d2[ni])
        if dist < 1e-12:
            continue
        step = min(STEER_STEP, dist)
        cand = pts[ni] + (step / dist) * (s - pts[ni])
        if cand[0] < pts[ni, 0] or not (y_lo <= cand[1] <= y_hi):
            continue

        cdx = pts[:n, 0] - cand[0]
        cdy = pts[:n, 1] - cand[1]
        cd2 = cdx * cdx + cdy * cdy
        nbrs = np.nonzero(cd2 <= r_rewire * r_rewire)[0]
        if nbrs.size == 0:
            nbrs = np.array([ni])
        cd = np.sqrt(cd2[nbrs])
        order = np.lexsort((nbrs, cost[nbrs] + cd))
        if ties is not None:
            ties["at_r"] += int(np.count_nonzero(cd2 == r_rewire * r_rewire))
            ties["cost"] += nbrs.size - np.unique(cost[nbrs] + cd).size

        chosen = -1
        chosen_d = 0.0
        for oi in order:
            i = int(nbrs[oi])
            d_i = float(cd[oi])
            if pts[i, 0] > cand[0] + 1e-12:
                continue
            nt = tick[i] + d_i * inv
            if nt > k:
                continue
            if edge_free(pts[i], cand, tick[i], nt):
                chosen, chosen_d = i, d_i
                break
        if chosen < 0:
            continue

        if ties is not None:
            ties["x"] += int(np.any(pts[:n, 0] == cand[0]))
        pts[n] = cand
        parent[n] = chosen
        cost[n] = cost[chosen] + chosen_d
        tick[n] = tick[chosen] + chosen_d * inv
        children[chosen] += 1

        # rewire: re-parent cheaper-through-new leaves; leaves only, so no
        # arrival-time cascade needs repair
        for oi in range(nbrs.size):
            i = int(nbrs[oi])
            if i == chosen or children[i] > 0:
                continue
            d_i = float(cd[oi])
            nc = cost[n] + d_i
            if nc + 1e-12 >= cost[i]:
                continue
            if pts[i, 0] + 1e-12 < cand[0]:
                continue
            nt = tick[n] + d_i * inv
            if nt > k:
                continue
            if edge_free(cand, pts[i], tick[n], nt):
                children[parent[i]] -= 1
                parent[i] = n
                cost[i] = nc
                tick[i] = nt
                children[n] += 1
        n += 1

    return _Tree(pts[:n], cost[:n], tick[:n], parent[:n], speed, inv), sole


# ---------------------------------------------------------------------------
# Reference endpoint selection (the earlier Python selection, kept as it was)
# ---------------------------------------------------------------------------

def reference_hold_free(pt, tick, k, obs, rsum) -> bool:
    # a plan that ends at pt parks there from its arrival tick to t+k
    j0 = math.ceil(tick)
    if j0 > k:
        return True
    return not _hits(obs[:, j0:k + 1], pt, rsum[:, None]).any()


def reference_render_path(vertices: np.ndarray, t: int, k: int, dt: float,
                          speed: float) -> Trajectory:
    """Walk the polyline at constant speed, holding the final state once the
    path is exhausted (held states carry speed 0)."""
    seg = np.diff(vertices, axis=0)
    seg_len = np.hypot(seg[:, 0], seg[:, 1])
    cum = np.concatenate(([0.0], np.cumsum(seg_len)))
    total = cum[-1]
    states = []
    prev_heading = 0.0
    step = speed * dt
    for j in range(k + 1):
        s = j * step
        if s >= total or total == 0.0:
            x, y = vertices[-1]
            moving = False
        else:
            i = int(np.searchsorted(cum, s, side="right")) - 1
            i = min(i, len(seg_len) - 1)
            f = (s - cum[i]) / seg_len[i] if seg_len[i] > 0 else 0.0
            x = vertices[i, 0] + f * seg[i, 0]
            y = vertices[i, 1] + f * seg[i, 1]
            moving = True
            prev_heading = math.atan2(seg[i, 1], seg[i, 0])
        states.append(ActorState(
            float(x), float(y), wrap_angle(prev_heading),
            speed if moving else 0.0))
    return Trajectory("ego", t, dt, tuple(states))


def reference_select_endpoint(tree: _Tree, goal: np.ndarray,
                              obs: np.ndarray, rsum: np.ndarray,
                              road: RoadMap, t: int, k: int,
                              dt: float) -> tuple[Plan, int]:
    """The cheapest tree path into the goal region that stays clear of
    (obs, rsum), connected to the goal point when that edge is clear, or
    else the closest-approach path flagged partial; with the endpoint's
    tree node.  Raises PlanningInfeasible when no candidate endpoint stays
    collision-free.  Goal edges are checked by reference_edge_blockers."""
    pts, cost, tick, parent = tree.pts, tree.cost, tree.tick, tree.parent
    n = len(pts)
    if n == 1:
        raise PlanningInfeasible(
            "no collision-free edge from the ego position")
    ticks = np.arange(obs.shape[1], dtype=float)
    gd = np.hypot(pts[:, 0] - goal[0], pts[:, 1] - goal[1])
    in_goal = np.nonzero(gd <= GOAL_TOLERANCE)[0]
    rounds = []
    if in_goal.size:
        rounds.append((in_goal[np.lexsort((in_goal, cost[in_goal]))], False))
    rounds.append((np.lexsort((np.arange(n), cost, gd)), True))

    # candidates in preference order; the plan parks at its endpoint until
    # t+k, so the endpoint must also stay clear over the remaining ticks
    for order, partial in rounds:
        for best in order[:200]:
            best = int(best)
            chain = [best]
            while parent[chain[-1]] >= 0:
                chain.append(int(parent[chain[-1]]))
            vertices = pts[chain[::-1]]

            end_pt, end_tick = pts[best], float(tick[best])
            if not partial:
                d_goal = float(gd[best])
                if d_goal > 1e-9 and goal[0] + 1e-12 >= pts[best, 0]:
                    nt = float(tick[best]) + d_goal * tree.inv
                    if nt <= k:
                        hit = reference_edge_blockers(
                            pts[best], goal, float(tick[best]), nt, obs,
                            rsum, ticks)
                        if (hit is None or not hit.any()) and \
                                reference_hold_free(goal, nt, k, obs, rsum):
                            vertices = np.vstack([vertices, goal])
                            end_pt, end_tick = goal, float(nt)
            if not reference_hold_free(end_pt, end_tick, k, obs, rsum):
                continue

            traj = reference_render_path(vertices, t, k, dt, tree.speed)
            if _hits(obs, traj.xy, rsum[:, None]).any():
                continue
            return Plan(traj,
                        _plan_cost(traj, road, include_speed_term=False),
                        partial=partial), best
    raise PlanningInfeasible("no candidate endpoint stays collision-free")


def replanned_gammas(road, world, ego, t, k, cfg, radii, route=True):
    """Independent reference for risk.leave_one_out (ego radius 1.2, dt
    0.1): grow a tree for the full world and for every one-actor ablation
    from scratch with the numpy reference growth, and plan each toward its
    own routed goal (toward cfg.goal when route is False) with the
    reference selection."""
    def plan(w):
        obs, rsum = world_arrays(w, radii, 1.2, t, k)
        goal = _goal_point(road, ego, route_goal(cfg, w, ego, road)
                           if route else cfg.goal, 1.2)
        try:
            tree, _ = reference_grow_tree(road, ego, k, obs, rsum, cfg, 1.2,
                                          0.1)
            return reference_select_endpoint(tree, goal, obs, rsum, road, t,
                                             k, 0.1)[0]
        except PlanningInfeasible:
            return None

    full = plan(world)
    out = {}
    for aid in world:
        m = plan({a: tr for a, tr in world.items() if a != aid})
        if full is None and m is None:
            out[aid] = (0.0, False)
        elif full is None or m is None:
            out[aid] = (road.road_length / k, True)
        else:
            out[aid] = (traj_difference_euclidean(full.trajectory,
                                                  m.trajectory), False)
    return full, out
