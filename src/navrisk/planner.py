"""Two planners over one collision model.

enumerate_plans realizes the trajectory-set semantics exactly at small
scale: every maneuver sequence on a lattice (keep / shift_left /
shift_right / brake / accelerate per decision step) is rendered and
filtered against road bounds, the speed limit and, when a world is given,
collisions.  plan_sampling is a budgeted rewiring sampling planner over
(x, y) standing in for a generic single-trajectory planner.

plan_sampling draws its entire sample stream from cfg.seed alone before
growing the tree; acceptance or rejection of a candidate never consumes
extra randomness.  Leave-one-out planner runs over different actor subsets
are therefore paired experiments: an actor whose inflated disc never
intersects a tree edge of the baseline run leaves the returned plan
bit-identical.  Tree edges are time-indexed (each node carries its arrival
tick) so moving obstacles are checked where they will be, not where they
are.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .scenario import ActorState, RoadMap, ScenarioError, Trajectory, wrap_angle

MANEUVERS = ("accelerate", "brake", "keep", "shift_left", "shift_right")

LANE_CHANGE_PENALTY = 2.0     # meters of cost per lane change
SPEED_CHANGE_PENALTY = 0.5    # cost per m/s of |speed delta|


class PlanningInfeasible(Exception):
    """No collision-free motion exists from the ego's current state."""


@dataclass(frozen=True)
class Plan:
    trajectory: Trajectory
    cost: float
    maneuver_seq: Optional[tuple[str, ...]] = None
    partial: bool = False


@dataclass(frozen=True)
class PlanSet:
    plans: tuple[Plan, ...]
    universe_size: int

    def __len__(self) -> int:
        return len(self.plans)

    def sequences(self) -> set[tuple[str, ...]]:
        return {p.maneuver_seq for p in self.plans}


@dataclass(frozen=True)
class LatticeConfig:
    """Discretization of ego futures into macro-maneuver sequences."""

    decision_steps: int
    maneuvers: tuple[str, ...] = ("keep", "shift_left", "shift_right")
    ticks_per_step: int = 10
    speed_step: float = 1.5   # m/s change per brake/accelerate step

    def __post_init__(self):
        if self.decision_steps < 1:
            raise ScenarioError("decision_steps must be >= 1")
        if self.ticks_per_step < 1:
            raise ScenarioError("ticks_per_step must be >= 1")
        if not self.maneuvers:
            raise ScenarioError("maneuver set must be non-empty")
        bad = set(self.maneuvers) - set(MANEUVERS)
        if bad:
            raise ScenarioError(f"unknown maneuvers {sorted(bad)}")
        object.__setattr__(
            self, "maneuvers", tuple(sorted(set(self.maneuvers))))

    @property
    def horizon(self) -> int:
        return self.decision_steps * self.ticks_per_step


@dataclass(frozen=True)
class GoalSpec:
    """Target longitudinal advance (meters) and preferred lane."""

    advance: float
    lane: int


@dataclass(frozen=True)
class PlannerConfig:
    iteration_budget: int = 2000
    seed: int = 0
    goal: GoalSpec = GoalSpec(40.0, 0)
    steer_step: float = 2.0
    goal_tolerance: float = 2.0
    safety_margin: float = 0.5
    target_speed: float = 10.0
    # Basis of the pre-drawn sample window.  Kept separate from
    # goal.advance so per-world clamping of the goal cannot perturb the
    # sample stream shared by paired leave-one-out runs.
    sample_advance: Optional[float] = None

    def __post_init__(self):
        if self.iteration_budget < 1:
            raise ScenarioError("iteration_budget must be >= 1")
        if self.steer_step <= 0 or self.goal_tolerance <= 0:
            raise ScenarioError("steer_step and goal_tolerance must be > 0")
        if self.target_speed <= 0:
            raise ScenarioError("target_speed must be > 0")


# ---------------------------------------------------------------------------
# Collision model
# ---------------------------------------------------------------------------

def world_arrays(world: Mapping[str, Trajectory], radii: Mapping[str, float],
                 ego_radius: float, margin: float,
                 t: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack obstacle positions to (m, k+1, 2) and inflated radii to (m,)."""
    if not world:
        return np.zeros((0, k + 1, 2)), np.zeros(0)
    xs, rs = [], []
    for aid, traj in world.items():
        if traj.start_tick != t or traj.end_tick != t + k:
            raise ScenarioError(
                f"world actor {aid!r} spans [{traj.start_tick}, "
                f"{traj.end_tick}], expected [{t}, {t + k}]")
        xs.append(traj.xy)
        rs.append(ego_radius + radii[aid] + margin)
    return np.stack(xs), np.array(rs)


def collision_check(ego_traj: Trajectory, world: Mapping[str, Trajectory],
                    radii: Mapping[str, float], ego_radius: float,
                    margin: float) -> bool:
    """True iff some tick has center distance strictly below the inflated
    radii sum; boundary contact is not a collision."""
    t, k = ego_traj.start_tick, len(ego_traj) - 1
    obs, rsum = world_arrays(world, radii, ego_radius, margin, t, k)
    if obs.shape[0] == 0:
        return False
    diff = obs - ego_traj.xy[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    return bool(np.any(dist < rsum[:, None]))


def _plan_cost(traj: Trajectory, road: RoadMap,
               include_speed_term: bool = True) -> float:
    """Path length + lane-change penalty + comfort term.

    The comfort term covers commanded speed changes; constant-speed sampled
    plans skip it so that terminal hold padding is not billed as braking.
    """
    xy = traj.xy
    seg = np.diff(xy, axis=0)
    length = float(np.sum(np.hypot(seg[:, 0], seg[:, 1])))
    lanes = [road.lane_of(y) for y in xy[:, 1]]
    lane_changes = sum(1 for a, b in zip(lanes, lanes[1:]) if a != b)
    cost = length + LANE_CHANGE_PENALTY * lane_changes
    if include_speed_term:
        dv = float(np.sum(np.abs(np.diff(traj.speeds))))
        cost += SPEED_CHANGE_PENALTY * dv
    return cost


# ---------------------------------------------------------------------------
# Maneuver lattice
# ---------------------------------------------------------------------------

def _render_lattice(seq: Sequence[str], road: RoadMap, ego: ActorState,
                    lattice: LatticeConfig, dt: float):
    """Render a maneuver sequence to (xs, ys, vs) columns, or None if it
    leaves the road or exceeds the speed limit.  Positions integrate
    trapezoidally; lateral shifts follow a cosine ramp across the step."""
    m = lattice.ticks_per_step
    lane = road.lane_of(ego.position_y)
    y = ego.position_y
    v = ego.speed
    xs = [ego.position_x]
    ys = [y]
    vs = [v]
    for man in seq:
        v_end = v
        y_end = y
        if man == "shift_left":
            lane += 1
        elif man == "shift_right":
            lane -= 1
        elif man == "brake":
            v_end = max(0.0, v - lattice.speed_step)
        elif man == "accelerate":
            v_end = v + lattice.speed_step
        if not (0 <= lane < road.lane_count):
            return None
        if v_end > road.speed_limit + 1e-9:
            return None
        if man in ("shift_left", "shift_right"):
            y_end = road.lane_center(lane)
        for i in range(1, m + 1):
            v_i = v + (v_end - v) * i / m
            xs.append(xs[-1] + 0.5 * (vs[-1] + v_i) * dt)
            tau = i / m
            ys.append(y + (y_end - y) * 0.5 * (1 - math.cos(math.pi * tau)))
            vs.append(v_i)
        v, y = v_end, y_end
    return xs, ys, vs


def _states_from_columns(xs, ys, vs) -> tuple[ActorState, ...]:
    n = len(xs)
    out = []
    prev_heading = 0.0
    for i in range(n):
        if i + 1 < n:
            dx = xs[i + 1] - xs[i]
            dy = ys[i + 1] - ys[i]
            h = math.atan2(dy, dx) if (dx or dy) else prev_heading
        else:
            h = prev_heading
        prev_heading = h
        out.append(ActorState(xs[i], ys[i], wrap_angle(h), vs[i]))
    return tuple(out)


def lattice_blockers(road: RoadMap, ego: ActorState, t: int, k: int,
                     lattice: LatticeConfig,
                     world: Mapping[str, Trajectory],
                     radii: Mapping[str, float],
                     ego_radius: float = 1.2,
                     margin: float = 0.5,
                     dt: float = 0.1):
    """Render the lattice once and test every plan against every actor.

    Returns the in-bounds, within-limit sequences in itertools.product
    order, their (U, 3, k+1) array of (xs, ys, vs) columns, and the (U, m)
    blocker matrix: [u, j] is True iff plan u collides with the j-th actor
    of world.  Every exact plan count of the window reduces this matrix.
    """
    if lattice.horizon != k:
        raise ScenarioError(
            f"lattice covers {lattice.horizon} ticks but horizon k = {k}")
    if not road.contains_y(ego.position_y):
        raise ScenarioError("ego is off-road")
    seqs, cols = [], []
    for seq in itertools.product(lattice.maneuvers,
                                 repeat=lattice.decision_steps):
        c = _render_lattice(seq, road, ego, lattice, dt)
        if c is not None:
            seqs.append(seq)
            cols.append(np.array(c))
    cols = np.array(cols).reshape(len(seqs), 3, k + 1)
    obs, rsum = world_arrays(world, radii, ego_radius, margin, t, k)
    blockers = np.empty((len(seqs), len(rsum)), dtype=bool)
    for j in range(len(rsum)):   # strict <: boundary contact is no collision
        dist = np.hypot(obs[j, None, :, 0] - cols[:, 0],
                        obs[j, None, :, 1] - cols[:, 1])
        blockers[:, j] = np.any(dist < rsum[j], axis=1)
    return seqs, cols, blockers


def enumerate_plans(road: RoadMap, ego: ActorState, t: int, k: int,
                    lattice: LatticeConfig,
                    world: Optional[Mapping[str, Trajectory]] = None,
                    radii: Optional[Mapping[str, float]] = None,
                    ego_radius: float = 1.2,
                    margin: float = 0.5,
                    dt: float = 0.1) -> PlanSet:
    """Enumerate every maneuver sequence, render it, and keep the in-bounds,
    within-limit and (when a world is given) collision-free ones.

    universe_size counts the in-bounds sequences regardless of the world, so
    it equals |plans| exactly when world is None.
    """
    seqs, cols, blockers = lattice_blockers(
        road, ego, t, k, lattice, world or {}, radii or {}, ego_radius,
        margin, dt)
    plans = []
    for u in np.flatnonzero(~blockers.any(axis=1)):
        traj = Trajectory("ego", t, dt,
                          _states_from_columns(*cols[u].tolist()))
        plans.append(Plan(traj, _plan_cost(traj, road), maneuver_seq=seqs[u]))
    return PlanSet(tuple(plans), len(seqs))


# ---------------------------------------------------------------------------
# Budgeted sampling planner
# ---------------------------------------------------------------------------

def _edge_free(p0, p1, tick0, tick1, obs, rsum) -> bool:
    # collision semantics live on integer ticks; check every tick the edge
    # traversal covers, interpolating both ego and obstacles
    if obs.shape[0] == 0:
        return True
    j0 = math.floor(tick0) + 1   # smallest integer tick strictly after tick0
    j1 = math.floor(tick1)       # largest integer tick at or before tick1
    if j1 < j0:
        return True
    js = np.arange(j0, j1 + 1)
    frac = (js - tick0) / (tick1 - tick0)
    pts = p0[None, :] + frac[:, None] * (p1 - p0)[None, :]
    ob = obs[:, js, :]
    diff = ob - pts[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    return not np.any(dist < rsum[:, None])


def _hold_free(pt, tick, k, obs, rsum) -> bool:
    # a plan that ends at pt parks there from its arrival tick to t+k
    if obs.shape[0] == 0:
        return True
    j0 = math.ceil(tick)
    if j0 > k:
        return True
    diff = obs[:, j0:k + 1, :] - pt[None, None, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    return not np.any(dist < rsum[:, None])


def _render_path(vertices: np.ndarray, t: int, k: int, dt: float,
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


def plan_sampling(road: RoadMap, ego: ActorState, t: int, k: int,
                  world: Mapping[str, Trajectory], cfg: PlannerConfig,
                  radii: Mapping[str, float],
                  ego_radius: float = 1.2,
                  dt: float = 0.1) -> Plan:
    """Grow a rewiring tree in (x, y) for exactly cfg.iteration_budget
    iterations and return the cheapest collision-free trajectory into the
    goal region, or the closest-approach trajectory flagged partial.

    Deterministic given its inputs.  Raises PlanningInfeasible when no
    collision-free edge exists from the root (the ego is fully enclosed).
    """
    if not road.contains_y(ego.position_y):
        raise ScenarioError("ego is off-road")
    speed = min(cfg.target_speed, road.speed_limit)
    inv = 1.0 / (speed * dt)          # ticks per meter of path
    margin = cfg.safety_margin
    obs, rsum = world_arrays(world, radii, ego_radius, margin, t, k)

    root = np.array([ego.position_x, ego.position_y])
    if obs.shape[0]:
        d0 = np.hypot(obs[:, 0, 0] - root[0], obs[:, 0, 1] - root[1])
        if np.any(d0 < rsum):
            raise PlanningInfeasible(
                "ego overlaps an obstacle at the planning tick")

    goal = np.array([
        min(ego.position_x + cfg.goal.advance, road.road_length - ego_radius),
        road.lane_center(cfg.goal.lane),
    ])

    # entire sample stream drawn up front from the seed; the window depends
    # only on the ego state and the configured basis advance
    base_adv = cfg.sample_advance if cfg.sample_advance is not None \
        else cfg.goal.advance
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    x_lo = ego.position_x
    x_hi = min(ego.position_x + base_adv + 2 * cfg.goal_tolerance,
               road.road_length)
    y_lo, y_hi = ego_radius, road.width - ego_radius
    samples = rng.uniform((x_lo, y_lo), (x_hi, y_hi),
                          (cfg.iteration_budget, 2))

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

    r_rewire = 2.0 * cfg.steer_step
    for s in samples:
        dx = pts[:n, 0] - s[0]
        dy = pts[:n, 1] - s[1]
        d2 = dx * dx + dy * dy
        ni = int(np.argmin(d2))
        dist = math.sqrt(d2[ni])
        if dist < 1e-12:
            continue
        step = min(cfg.steer_step, dist)
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
            if _edge_free(pts[i], cand, tick[i], nt, obs, rsum):
                chosen, chosen_d = i, d_i
                break
        if chosen < 0:
            continue

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
            if _edge_free(cand, pts[i], tick[n], nt, obs, rsum):
                children[parent[i]] -= 1
                parent[i] = n
                cost[i] = nc
                tick[i] = nt
                children[n] += 1
        n += 1

    if n == 1:
        raise PlanningInfeasible(
            "no collision-free edge from the ego position")

    gd = np.hypot(pts[:n, 0] - goal[0], pts[:n, 1] - goal[1])
    in_goal = np.nonzero(gd <= cfg.goal_tolerance)[0]
    rounds = []
    if in_goal.size:
        rounds.append((in_goal[np.lexsort((in_goal, cost[in_goal]))], False))
    rounds.append((np.lexsort((np.arange(n), cost[:n], gd)), True))

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
                    nt = tick[best] + d_goal * inv
                    if (nt <= k
                            and _edge_free(pts[best], goal, tick[best], nt,
                                           obs, rsum)
                            and _hold_free(goal, nt, k, obs, rsum)):
                        vertices = np.vstack([vertices, goal])
                        end_pt, end_tick = goal, float(nt)
            if not _hold_free(end_pt, end_tick, k, obs, rsum):
                continue

            traj = _render_path(vertices, t, k, dt, speed)
            if obs.shape[0]:
                diff = obs - traj.xy[None, :, :]
                if np.any(np.hypot(diff[..., 0], diff[..., 1])
                          < rsum[:, None]):
                    continue
            return Plan(traj,
                        _plan_cost(traj, road, include_speed_term=False),
                        partial=partial)
    raise PlanningInfeasible("no candidate endpoint stays collision-free")
