"""Two planners over one collision model.

enumerate_plans realizes the trajectory-set semantics exactly at small
scale: every maneuver sequence on a lattice (keep / shift_left /
shift_right / brake / accelerate per decision step) is rendered and
filtered against road bounds, the speed limit and, when a world is given,
collisions.  The render goes level by level, each in-bounds prefix once,
with every float equal to a per-sequence render, and so do the collision
bits: each level tests only its own ticks and inherits its parent's bits
(see lattice_blockers).  The risks read only the blocker matrix; maneuver
tuples and columns are decoded only for the plans enumerate_plans returns.
plan_sampling is a budgeted rewiring sampling planner over (x, y)
standing in for a generic single-trajectory planner.

plan_sampling draws its entire sample stream from cfg.seed alone before
growing the tree; acceptance or rejection of a candidate never consumes
extra randomness.  Tree edges are time-indexed (each node carries its
arrival tick) so moving obstacles are checked where they will be, not
where they are.

plan_sampling is _grow_tree followed by _select_endpoint.  The tree never
reads the goal point, and its sample stream (_sample_stream) depends only
on cfg.seed and the sample basis cfg.goal.advance.  Leave-one-out runs
over different actor subsets share one cfg, and so one stream, and are
paired experiments, with an exact reuse rule: an actor that was never the
sole blocker of a growth edge check (connect or rewire) grows the same
tree when removed, since every such check returns the same answer
without it.  The plan of that ablated world can still differ, through
its re-routed goal and the endpoint checks (goal connection, hold,
rendered path), which _select_path repeats against the ablated
obstacles.

Collision is one rule, dx*dx + dy*dy < r*r on the radius sum r: _hits
applies it to arrays, and the C kernel _growth.c to the binary64 scalars
of the tree-edge checks (_edge_blockers wraps its edge function) and of
the endpoint selection, with the same correctly rounded IEEE operations.
The kernel runs the whole growth loop after _grow_tree has checked the
root and drawn the samples: the nearest node by a bisect over x-sorted
keys (ties to the lowest index, np.argmin's rule), the neighbours in
ascending index (np.nonzero's order), and a stable sort by connect cost
(np.lexsort's order), each with the same expressions in the same order
as an all-numpy growth, so the tree is bit-identical to it
(tests/oracles.py, reference_grow_tree).

The endpoint rule lives in the kernel too: _select_path is a thin
wrapper over navrisk_select, which runs the whole candidate loop (both
rounds with their orders and ties, the 200-candidate cap, the goal edge
and hold checks) and renders the chosen path at constant speed with the
same binary64 expressions as the earlier Python selection
(tests/oracles.py, reference_select_endpoint): hypot segment lengths, a
running sum, bisect-right and f = (s - cum[i]) / seg_len[i].  It writes
positions only; headings, ActorStates and the cost are built in Python
(_path_plan) just for the Plan a caller reads, so leave-one-out compares
its ablated plans as position arrays.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

import numpy as np

from ._kernel import kernel
from .scenario import (
    ActorState, RoadMap, ScenarioError, Trajectory, require_int, wrap_angle)

MANEUVERS = ("accelerate", "brake", "keep", "shift_left", "shift_right")

LANE_CHANGE_PENALTY = 2.0     # meters of cost per lane change
SPEED_CHANGE_PENALTY = 0.5    # cost per m/s of |speed delta|
SAFETY_MARGIN = 0.5           # meters added to every ego-actor radius sum
STEER_STEP = 2.0              # meters: longest new tree edge
GOAL_TOLERANCE = 2.0          # meters: radius of the goal region
SPEED_STEP = 1.5              # m/s change per lattice brake/accelerate step


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

    def __post_init__(self):
        require_int("decision_steps", self.decision_steps, 1)
        require_int("ticks_per_step", self.ticks_per_step, 1)
        if not self.maneuvers:
            raise ValueError("maneuver set must be non-empty")
        bad = set(self.maneuvers) - set(MANEUVERS)
        if bad:
            raise ValueError(f"unknown maneuvers {sorted(bad)}")
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
    target_speed: float = 10.0

    def __post_init__(self):
        require_int("iteration_budget", self.iteration_budget, 1)
        require_int("seed", self.seed, 0)   # np.random.SeedSequence's rule
        if not self.target_speed > 0:
            raise ValueError("target_speed must be > 0")
        if not self.goal.advance >= 0:
            raise ValueError("goal.advance must be >= 0")


# ---------------------------------------------------------------------------
# Collision model
# ---------------------------------------------------------------------------

def world_arrays(world: Mapping[str, Trajectory], radii: Mapping[str, float],
                 ego_radius: float,
                 t: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack obstacle positions to (m, k+1, 2) and inflated radii to (m,):
    ego radius + actor radius + SAFETY_MARGIN."""
    if not world:
        return np.zeros((0, k + 1, 2)), np.zeros(0)
    xs, rs = [], []
    for aid, traj in world.items():
        if traj.start_tick != t or traj.end_tick != t + k:
            raise ScenarioError(
                f"world actor {aid!r} spans [{traj.start_tick}, "
                f"{traj.end_tick}], expected [{t}, {t + k}]")
        r = ego_radius + radii[aid] + SAFETY_MARGIN
        if not math.isfinite(r * r):   # _hits compares squares
            raise ScenarioError(f"world actor {aid!r}: radius sum {r!r} "
                                "has no finite square")
        xs.append(traj.xy)
        rs.append(r)
    return np.stack(xs), np.array(rs)


def _hits(obs: np.ndarray, xy: np.ndarray, rsum) -> np.ndarray:
    """The one overlap rule, broadcast over the leading axes of obs (..., 2),
    xy (..., 2) and rsum: a squared distance strictly below rsum * rsum, so
    contact is no collision.  A square that overflows is rightly no hit,
    since world_arrays keeps rsum * rsum finite."""
    with np.errstate(over="ignore"):
        dx = obs[..., 0] - xy[..., 0]
        dy = obs[..., 1] - xy[..., 1]
        return dx * dx + dy * dy < rsum * rsum


def collision_check(ego_traj: Trajectory, world: Mapping[str, Trajectory],
                    radii: Mapping[str, float], ego_radius: float) -> bool:
    """True iff the ego overlaps some actor at some tick."""
    t, k = ego_traj.start_tick, len(ego_traj) - 1
    obs, rsum = world_arrays(world, radii, ego_radius, t, k)
    return bool(_hits(obs, ego_traj.xy, rsum[:, None]).any())


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
                     radii: Mapping[str, float], *,
                     ego_radius: float = 1.2,
                     dt: float = 0.1):
    """Render the lattice once and test every plan against every actor.

    Returns (plans, blockers).  blockers is the (U, m) matrix over the U
    in-bounds, within-limit sequences in itertools.product order: [u, j]
    is True iff plan u collides with the j-th actor of world; every exact
    count and KL importance of the window reduces it alone.  plans(rows)
    walks the parent chain once for the maneuver tuples of the plans at
    rows and their (len(rows), 3, k+1) array of (xs, ys, vs) columns.

    The render goes level by level: level d holds every in-bounds d-step
    prefix, each extended by every maneuver, prefix-major in sorted
    maneuver order, so the survivors come out in product order.  A prefix
    that leaves the road or exceeds the speed limit is dropped once, with
    all its extensions.  Each step applies the per-sequence scalar
    operations elementwise in the same order: v + ((v_end - v) * i) / m,
    trapezoidal x tick by tick, and y + (y_end - y) * 0.5 * c_i with the
    m factors c_i from math.cos; so every column is bit-identical to a
    sequence rendered alone (tests/oracles.walk_render).

    The blocker bits follow the same levels.  The tick-0 position, which
    every sequence shares, is tested once per actor; each level tests
    only its own m ticks with _hits and ORs them into its parent prefix's
    bits.  A plan collides iff it hits at some tick, so the bits are those
    of _hits over all k+1 ticks of each plan, on the same floats.
    """
    if lattice.horizon != k:
        raise ScenarioError(
            f"lattice covers {lattice.horizon} ticks but horizon k = {k}")
    if not road.contains_y(ego.position_y):
        raise ScenarioError("ego is off-road")
    names, m = lattice.maneuvers, lattice.ticks_per_step
    shift = np.array([{"shift_left": 1, "shift_right": -1}.get(n, 0)
                      for n in names])
    accel = np.array([n == "accelerate" for n in names])
    brake = np.array([n == "brake" for n in names])
    centers = np.array([road.lane_center(i) for i in range(road.lane_count)])
    ramp = np.array([1 - math.cos(math.pi * (i / m)) for i in range(1, m + 1)])
    obs, rsum = world_arrays(world, radii, ego_radius, t, k)
    # each prefix's last rendered x and v, and the (y, v, lane) the next
    # step starts from: the last step's targets, not its last rendered tick
    x, v_col, y, v = (np.array([f], dtype=float) for f in (
        ego.position_x, ego.speed, ego.position_y, ego.speed))
    lane = np.array([road.lane_of(ego.position_y)])
    hit = _hits(obs[:, 0], np.array([ego.position_x, ego.position_y]),
                rsum)[None, :]
    levels = []   # per level: (parent index, maneuver index, (P, 3, m) cols)
    for d in range(lattice.decision_steps):
        parent = np.repeat(np.arange(len(x)), len(names))
        man = np.tile(np.arange(len(names)), len(x))
        lane_end = lane[parent] + shift[man]
        v0 = v[parent]
        v_end = np.where(accel[man], v0 + SPEED_STEP, np.where(
            brake[man], np.maximum(0.0, v0 - SPEED_STEP), v0))
        ok = (lane_end >= 0) & (lane_end < road.lane_count) & \
            ~(v_end > road.speed_limit + 1e-9)
        parent, man, lane, v0, v = (a[ok] for a in (
            parent, man, lane_end, v0, v_end))
        y0 = y[parent]
        y = np.where(shift[man] != 0, centers[lane], y0)
        vs = v0[:, None] + ((v - v0)[:, None] * np.arange(1, m + 1)) / m
        ys = y0[:, None] + ((y - y0) * 0.5)[:, None] * ramp
        xs = np.empty_like(vs)
        x, v_col = x[parent], v_col[parent]
        for i in range(m):
            x = x + 0.5 * (v_col + vs[:, i]) * dt
            xs[:, i], v_col = x, vs[:, i]
        lvl = np.stack((xs, ys, vs), axis=1)
        xy = lvl[:, :2].transpose(0, 2, 1)   # (P, m, 2) view of xs, ys
        hit = hit[parent]
        for j in range(len(rsum)):   # one actor at a time bounds peak memory
            hit[:, j] |= _hits(obs[j, 1 + d * m:1 + (d + 1) * m], xy,
                               rsum[j]).any(axis=1)
        levels.append((parent, man, lvl))

    def plans(rows) -> tuple[list[tuple[str, ...]], np.ndarray]:
        row = np.asarray(rows, dtype=int)
        seq_idx = np.empty((len(row), lattice.decision_steps), dtype=int)
        cols = np.empty((len(row), 3, k + 1))
        cols[:, :, 0] = (ego.position_x, ego.position_y, ego.speed)
        for d in range(lattice.decision_steps - 1, -1, -1):
            parent, man, lvl = levels[d]
            seq_idx[:, d] = man[row]
            cols[:, :, 1 + d * m:1 + (d + 1) * m] = lvl[row]
            row = parent[row]
        seqs = np.array(names, dtype=object)[seq_idx].tolist()
        return list(map(tuple, seqs)), cols

    return plans, hit


def enumerate_plans(road: RoadMap, ego: ActorState, t: int, k: int,
                    lattice: LatticeConfig,
                    world: Optional[Mapping[str, Trajectory]] = None,
                    radii: Optional[Mapping[str, float]] = None, *,
                    ego_radius: float = 1.2,
                    dt: float = 0.1) -> PlanSet:
    """Enumerate every maneuver sequence, render it, and keep the in-bounds,
    within-limit and (when a world is given) collision-free ones.  Maneuver
    tuples and columns are gathered only for the plans kept.

    universe_size counts the in-bounds sequences regardless of the world, so
    it equals |plans| exactly when world is None.
    """
    plans, blockers = lattice_blockers(
        road, ego, t, k, lattice, world or {}, radii or {},
        ego_radius=ego_radius, dt=dt)
    seqs, cols = plans(np.flatnonzero(~blockers.any(axis=1)))
    kept = []
    for seq, c in zip(seqs, cols.tolist()):
        traj = Trajectory("ego", t, dt, _states_from_columns(*c))
        kept.append(Plan(traj, _plan_cost(traj, road), maneuver_seq=seq))
    return PlanSet(tuple(kept), len(blockers))


# ---------------------------------------------------------------------------
# Budgeted sampling planner
# ---------------------------------------------------------------------------

def _kernel_obstacles(obs: np.ndarray, rsum: np.ndarray, tick0: float,
                      tick1: float) -> tuple[np.ndarray, np.ndarray]:
    """obs as _growth.c reads it, C-ordered float64 (m, k+1, 2), and the
    (m,) squared radius sums.  Raises ValueError unless obs has that shape
    and covers every integer tick from tick0 to tick1."""
    obs = np.ascontiguousarray(obs, dtype=np.float64)
    if obs.ndim != 3 or obs.shape[0] != len(rsum) or obs.shape[2] != 2 \
            or not (0.0 <= tick0 and tick1 < obs.shape[1]):
        raise ValueError(f"obstacles of shape {obs.shape} with "
                         f"{len(rsum)} radius sums do not cover ticks "
                         f"{tick0!r} to {tick1!r}")
    return obs, np.ascontiguousarray(rsum * rsum, dtype=np.float64)


def _edge_blockers(p0x: float, p0y: float, p1x: float, p1y: float,
                   tick0: float, tick1: float, obs: np.ndarray,
                   rsum: np.ndarray) -> tuple[int, ...]:
    """The actors of world_arrays' (obs, rsum) that the edge p0 -> p1 hits
    at the integer ticks it covers from tick0 to tick1, by _hits' rule:
    () if none, (a,) if actor a is the only one, else two of them.  The
    kernel's edge check, which the tree growth runs on every edge."""
    obs, r2 = _kernel_obstacles(obs, rsum, tick0, tick1)
    found = (ctypes.c_int32 * 2)()
    count = kernel().navrisk_edge_blockers(
        p0x, p0y, p1x, p1y, tick0, tick1, obs.ctypes.data, obs.shape[1],
        r2.ctypes.data, len(r2), found)
    return tuple(found[:count])


class _Tree(NamedTuple):
    """A grown rewiring tree trimmed to its nodes: positions, path costs,
    arrival ticks (at `speed`, `inv` ticks per meter) and parents."""

    pts: np.ndarray
    cost: np.ndarray
    tick: np.ndarray
    parent: np.ndarray
    speed: float
    inv: float


def _goal_point(road: RoadMap, ego: ActorState, goal: GoalSpec,
                ego_radius: float) -> np.ndarray:
    return np.array([
        min(ego.position_x + goal.advance, road.road_length - ego_radius),
        road.lane_center(goal.lane),
    ])


def _sample_stream(road: RoadMap, ego: ActorState, cfg: PlannerConfig,
                   ego_radius: float) -> np.ndarray:
    """The (cfg.iteration_budget, 2) samples of a growth, drawn up front
    from cfg.seed alone.  The window depends only on the ego state and the
    sample basis cfg.goal.advance, never on a goal routed per world, so
    every growth under one cfg reads the same stream."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    x_lo = ego.position_x
    x_hi = min(ego.position_x + cfg.goal.advance + 2 * GOAL_TOLERANCE,
               road.road_length)
    y_lo, y_hi = ego_radius, road.width - ego_radius
    return rng.uniform((x_lo, y_lo), (x_hi, y_hi), (cfg.iteration_budget, 2))


def _grow_tree(road: RoadMap, ego: ActorState, k: int, obs: np.ndarray,
               rsum: np.ndarray, cfg: PlannerConfig, ego_radius: float,
               dt: float, samples: Optional[np.ndarray] = None
               ) -> tuple[_Tree, np.ndarray]:
    """Grow the rewiring tree for exactly cfg.iteration_budget samples
    among the obstacles (obs, rsum) of world_arrays, on samples when
    given (_sample_stream's for this cfg), else on a stream drawn here.

    Also returns the (m,) sole mask: actor j is sole iff some connect or
    rewire edge check was blocked by actor j alone.  The tree reads
    cfg.goal only as the sample basis cfg.goal.advance, so removing a
    never-sole actor gives this same tree.  Raises PlanningInfeasible
    when the ego overlaps an obstacle at the planning tick.
    """
    if not road.contains_y(ego.position_y):
        raise ScenarioError("ego is off-road")
    speed = min(cfg.target_speed, road.speed_limit)
    inv = 1.0 / (speed * dt)          # ticks per meter of path

    root = np.array([ego.position_x, ego.position_y])
    if _hits(obs[:, 0], root, rsum).any():
        raise PlanningInfeasible(
            "ego overlaps an obstacle at the planning tick")
    if samples is None:
        samples = _sample_stream(road, ego, cfg, ego_radius)
    y_lo, y_hi = ego_radius, road.width - ego_radius

    # the kernel runs every iteration; see _growth.c
    obs, r2 = _kernel_obstacles(obs, rsum, 0.0, k)
    n_max = cfg.iteration_budget + 1
    pts, cost, tick = np.empty((n_max, 2)), np.empty(n_max), np.empty(n_max)
    parent = np.empty(n_max, dtype=np.int32)
    sole = np.zeros(len(rsum), dtype=bool)
    n = kernel().navrisk_grow(
        samples.ctypes.data, cfg.iteration_budget, *root.tolist(), y_lo, y_hi,
        inv, STEER_STEP, k, obs.ctypes.data, obs.shape[1], r2.ctypes.data,
        len(r2), pts.ctypes.data, cost.ctypes.data, tick.ctypes.data,
        parent.ctypes.data, sole.ctypes.data)
    if n < 0:
        raise MemoryError("no memory for the tree growth's work arrays")
    return _Tree(pts[:n], cost[:n], tick[:n], parent[:n], speed, inv), sole


class _Path(NamedTuple):
    """A selected plan as the kernel writes it: positions (k+1, 2), the
    segment each tick moves along (-1 while it holds), the vertices those
    index, the partial flag and the endpoint's tree node."""

    xy: np.ndarray
    seg: np.ndarray
    vertices: np.ndarray
    partial: bool
    endpoint: int


def _select_path(tree: _Tree, goal: np.ndarray, obs: np.ndarray,
                 rsum: np.ndarray, k: int, dt: float) -> _Path:
    """The cheapest tree path into the goal region that stays clear of
    (obs, rsum), connected to the goal point when that edge is clear, or
    else the closest-approach path flagged partial, walked at tree.speed.
    Raises PlanningInfeasible when no candidate endpoint stays clear.

    navrisk_select in _growth.c tries up to 200 candidates per round:
    the nodes within GOAL_TOLERANCE of the goal by cost, then every node
    by goal distance and cost, ties to the lower index.  A candidate's
    plan parks at its endpoint until k, so the endpoint must stay clear
    until then by _hits' rule, and so must every rendered tick."""
    pts, cost, tick = (np.ascontiguousarray(a, dtype=np.float64)
                       for a in (tree.pts, tree.cost, tree.tick))
    parent = np.ascontiguousarray(tree.parent, dtype=np.int32)
    n = len(pts)
    if pts.shape != (n, 2) or not cost.shape == tick.shape == parent.shape \
            == (n,) or not (tick >= 0.0).all():
        raise ValueError("not a tree of (n, 2) points with n costs, "
                         "parents and ticks >= 0")
    if n == 1:
        raise PlanningInfeasible(
            "no collision-free edge from the ego position")
    obs, r2 = _kernel_obstacles(obs, rsum, 0.0, k)
    vertices, xy = np.empty((n + 1, 2)), np.empty((k + 1, 2))
    seg = np.empty(k + 1, dtype=np.int32)
    info = (ctypes.c_int32 * 2)()
    best = kernel().navrisk_select(
        pts.ctypes.data, cost.ctypes.data, tick.ctypes.data,
        parent.ctypes.data, n, float(goal[0]), float(goal[1]),
        GOAL_TOLERANCE, tree.inv, tree.speed * dt, k, obs.ctypes.data,
        obs.shape[1], r2.ctypes.data, len(r2), vertices.ctypes.data,
        xy.ctypes.data, seg.ctypes.data, info)
    if best == -1:
        raise PlanningInfeasible("no candidate endpoint stays collision-free")
    if best == -2:
        raise MemoryError("no memory for the endpoint selection")
    if best < 0:
        raise ValueError("the tree's parent links do not reach the root")
    return _Path(xy, seg, vertices[:info[1]], bool(info[0]), best)


def _path_plan(path: _Path, speed: float, road: RoadMap, t: int,
               dt: float) -> Plan:
    """The Plan of a selected path: each moving tick heads along its
    segment (math.atan2) at speed, a holding tick keeps the last heading
    at speed 0, and the cost leaves out the speed term."""
    seg = np.diff(path.vertices, axis=0).tolist()
    heading = [wrap_angle(math.atan2(dy, dx)) for dx, dy in seg]
    h = 0.0
    states = []
    for (x, y), i in zip(path.xy.tolist(), path.seg.tolist()):
        if i >= 0:
            h = heading[i]
        states.append(ActorState(x, y, h, speed if i >= 0 else 0.0))
    traj = Trajectory("ego", t, dt, tuple(states))
    return Plan(traj, _plan_cost(traj, road, include_speed_term=False),
                partial=path.partial)


def _select_endpoint(tree: _Tree, goal: np.ndarray, obs: np.ndarray,
                     rsum: np.ndarray, road: RoadMap, t: int, k: int,
                     dt: float) -> Plan:
    """_select_path's plan as a Plan starting at tick t."""
    return _path_plan(_select_path(tree, goal, obs, rsum, k, dt),
                      tree.speed, road, t, dt)


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
    obs, rsum = world_arrays(world, radii, ego_radius, t, k)
    tree, _ = _grow_tree(road, ego, k, obs, rsum, cfg, ego_radius, dt)
    return _select_endpoint(tree, _goal_point(road, ego, cfg.goal, ego_radius),
                            obs, rsum, road, t, k, dt)
