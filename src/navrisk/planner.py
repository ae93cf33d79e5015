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
reads the goal point, and its sample stream depends only on cfg.seed and
the sample basis cfg.goal.advance.  Leave-one-out runs over different
actor subsets share one cfg, and so are paired experiments, with an
exact reuse rule: an actor that was never the sole blocker of a
growth edge check (connect or rewire) grows the same tree when removed,
since every such check returns the same answer without it.  The plan of
that ablated world can still differ, through its re-routed goal and the
endpoint checks (goal connection, hold, rendered path), which
_select_endpoint repeats against the ablated obstacles.

Collision is one rule, dx*dx + dy*dy < r*r on the radius sum r: _hits
applies it to arrays, and _edge_blockers to the Python floats of the
tree-edge checks, with the same correctly rounded IEEE operations.  Tree
growth calls no numpy: node state lives in Python lists, and an x-sorted
key list answers the nearest-node and neighbour queries (_nearest,
_neighbours) with the same IEEE expressions, index and order as the
earlier np.argmin and np.nonzero/np.lexsort queries, so the tree is
bit-identical to an all-numpy growth.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional

import numpy as np

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

def _obstacle_lists(obs: np.ndarray, rsum: np.ndarray):
    """obs and rsum as Python floats for _edge_blockers: x and y per actor
    per tick, (m, k+1) nested lists each, and the (m,) rsum * rsum."""
    return obs[..., 0].tolist(), obs[..., 1].tolist(), (rsum * rsum).tolist()


def _edge_blockers(p0x: float, p0y: float, p1x: float, p1y: float,
                   tick0: float, tick1: float, oxl, oyl,
                   r2l) -> tuple[int, ...]:
    """The actors the edge p0 -> p1 hits, by _hits' rule: () if none, (a,)
    if actor a is the only one, else two of them.  oxl, oyl, r2l come
    from _obstacle_lists."""
    # collision semantics live on integer ticks; check every tick the edge
    # traversal covers, interpolating the ego along the edge
    j0 = math.floor(tick0) + 1   # smallest integer tick strictly after tick0
    j1 = math.floor(tick1)       # largest integer tick at or before tick1
    span, ddx, ddy = tick1 - tick0, p1x - p0x, p1y - p0y
    pts = []
    for j in range(j0, j1 + 1):
        frac = (j - tick0) / span
        pts.append((j, p0x + frac * ddx, p0y + frac * ddy))
    found = ()
    for a, r2 in enumerate(r2l):
        ox, oy = oxl[a], oyl[a]
        for j, ex, ey in pts:
            # rounding is monotone and dy * dy >= 0, so the rounded sum is
            # never below dx2: dx2 >= r2 is no hit
            dx = ox[j] - ex
            dx2 = dx * dx
            if dx2 >= r2:
                continue
            dy = oy[j] - ey
            if dx2 + dy * dy < r2:
                found += (a,)
                if len(found) == 2:
                    return found
                break
    return found


def _hold_free(pt, tick, k, obs, rsum) -> bool:
    # a plan that ends at pt parks there from its arrival tick to t+k
    j0 = math.ceil(tick)
    if j0 > k:
        return True
    return not _hits(obs[:, j0:k + 1], pt, rsum[:, None]).any()


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


def _nearest(xkeys: list, ids: list, ys: list, sx: float,
             sy: float) -> tuple[int, float]:
    """The node nearest (sx, sy) and its squared distance, by np.argmin's
    rule: the lowest index among equal d2.  xkeys holds the node x
    coordinates in ascending order and ids the node index of each key."""
    best, best_d2 = -1, math.inf
    p = bisect_left(xkeys, sx)
    # scan right, then left, of sx; dx*dx grows along each scan and never
    # exceeds d2, so a scan ends once dx*dx passes the best d2
    for js in (range(p, len(xkeys)), range(p - 1, -1, -1)):
        for j in js:
            dx = xkeys[j] - sx
            dx2 = dx * dx
            if dx2 > best_d2:
                break
            i = ids[j]
            dy = ys[i] - sy
            d2 = dx2 + dy * dy
            if d2 < best_d2 or (d2 == best_d2 and i < best):
                best, best_d2 = i, d2
    return best, best_d2


def _neighbours(xkeys: list, ids: list, ys: list, cx: float, cy: float,
                r: float) -> list[tuple[int, float]]:
    """(index, distance) of every node with dx*dx + dy*dy <= r*r from
    (cx, cy), in ascending index: the order np.nonzero gives."""
    r2 = r * r
    out = []
    p = bisect_left(xkeys, cx)
    for js in (range(p, len(xkeys)), range(p - 1, -1, -1)):
        for j in js:
            dx = xkeys[j] - cx
            dx2 = dx * dx
            if dx2 > r2:
                break
            i = ids[j]
            dy = ys[i] - cy
            d2 = dx2 + dy * dy
            if d2 <= r2:
                out.append((i, math.sqrt(d2)))
    out.sort()
    return out


def _connect_order(nbrs: list[tuple[int, float]],
                   costs: list) -> list[tuple[int, float]]:
    """_neighbours' (index, distance) pairs by cost through the neighbour,
    costs[i] + distance; the sort is stable, so equal costs keep ascending
    index: np.lexsort's order."""
    return sorted(nbrs, key=lambda nb: costs[nb[0]] + nb[1])


def _grow_tree(road: RoadMap, ego: ActorState, k: int, obs: np.ndarray,
               rsum: np.ndarray, cfg: PlannerConfig, ego_radius: float,
               dt: float) -> tuple[_Tree, np.ndarray]:
    """Grow the rewiring tree for exactly cfg.iteration_budget samples
    among the obstacles (obs, rsum) of world_arrays.

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

    # entire sample stream drawn up front from the seed; the window depends
    # only on the ego state and the sample basis cfg.goal.advance, never on
    # a goal routed per world
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    x_lo = ego.position_x
    x_hi = min(ego.position_x + cfg.goal.advance + 2 * GOAL_TOLERANCE,
               road.road_length)
    y_lo, y_hi = ego_radius, road.width - ego_radius
    samples = rng.uniform((x_lo, y_lo), (x_hi, y_hi),
                          (cfg.iteration_budget, 2))

    oxl, oyl, r2l = _obstacle_lists(obs, rsum)
    sole = [False] * len(r2l)

    def edge_free(p0x, p0y, p1x, p1y, tick0, tick1) -> bool:
        hit = _edge_blockers(p0x, p0y, p1x, p1y, tick0, tick1, oxl, oyl, r2l)
        if len(hit) == 1:
            sole[hit[0]] = True
        return not hit

    # node state as Python lists, plus the x-sorted keys of _nearest and
    # _neighbours; every value comes from the same IEEE operations in the
    # same order as in an all-numpy growth
    xs, ys = [[v] for v in root.tolist()]
    costs, tick = [0.0], [0.0]
    parent, children = [-1], [0]
    xkeys, ids = [xs[0]], [0]
    n = 1

    r_rewire = 2.0 * STEER_STEP
    for sx, sy in samples.tolist():
        ni, d2 = _nearest(xkeys, ids, ys, sx, sy)
        dist = math.sqrt(d2)
        if dist < 1e-12:
            continue
        f = min(STEER_STEP, dist) / dist
        cx = xs[ni] + f * (sx - xs[ni])
        cy = ys[ni] + f * (sy - ys[ni])
        if cx < xs[ni] or not (y_lo <= cy <= y_hi):
            continue

        nbrs = _neighbours(xkeys, ids, ys, cx, cy, r_rewire)
        if not nbrs:
            dx, dy = xs[ni] - cx, ys[ni] - cy
            nbrs = [(ni, math.sqrt(dx * dx + dy * dy))]

        chosen = -1
        chosen_d = 0.0
        for i, d_i in _connect_order(nbrs, costs):
            if xs[i] > cx + 1e-12:
                continue
            nt = tick[i] + d_i * inv
            if nt > k:
                continue
            if edge_free(xs[i], ys[i], cx, cy, tick[i], nt):
                chosen, chosen_d = i, d_i
                break
        if chosen < 0:
            continue

        c_n = costs[chosen] + chosen_d
        t_n = tick[chosen] + chosen_d * inv
        xs.append(cx)
        ys.append(cy)
        costs.append(c_n)
        tick.append(t_n)
        parent.append(chosen)
        children.append(0)
        children[chosen] += 1
        j = bisect_left(xkeys, cx)
        xkeys.insert(j, cx)
        ids.insert(j, n)

        # rewire: re-parent cheaper-through-new leaves; leaves only, so no
        # arrival-time cascade needs repair
        for i, d_i in nbrs:
            if i == chosen or children[i] > 0:
                continue
            nc = c_n + d_i
            if nc + 1e-12 >= costs[i]:
                continue
            if xs[i] + 1e-12 < cx:
                continue
            nt = t_n + d_i * inv
            if nt > k:
                continue
            if edge_free(cx, cy, xs[i], ys[i], t_n, nt):
                children[parent[i]] -= 1
                parent[i] = n
                costs[i] = nc
                tick[i] = nt
                children[n] += 1
        n += 1

    return _Tree(np.column_stack((xs, ys)), np.array(costs), np.array(tick),
                 np.array(parent, dtype=np.int32), speed, inv), \
        np.array(sole, dtype=bool)


def _select_endpoint(tree: _Tree, goal: np.ndarray, obs: np.ndarray,
                     rsum: np.ndarray, road: RoadMap, t: int, k: int,
                     dt: float) -> Plan:
    """The cheapest tree path into the goal region that stays clear of
    (obs, rsum), connected to the goal point when that edge is clear, or
    else the closest-approach path flagged partial.  Raises
    PlanningInfeasible when no candidate endpoint stays collision-free."""
    pts, cost, tick, parent = tree.pts, tree.cost, tree.tick, tree.parent
    n = len(pts)
    if n == 1:
        raise PlanningInfeasible(
            "no collision-free edge from the ego position")
    oxl, oyl, r2l = _obstacle_lists(obs, rsum)

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
                        hit = _edge_blockers(*pts[best].tolist(),
                                             *goal.tolist(),
                                             float(tick[best]), nt,
                                             oxl, oyl, r2l)
                        if not hit and _hold_free(goal, nt, k, obs, rsum):
                            vertices = np.vstack([vertices, goal])
                            end_pt, end_tick = goal, float(nt)
            if not _hold_free(end_pt, end_tick, k, obs, rsum):
                continue

            traj = _render_path(vertices, t, k, dt, tree.speed)
            if _hits(obs, traj.xy, rsum[:, None]).any():
                continue
            return Plan(traj,
                        _plan_cost(traj, road, include_speed_term=False),
                        partial=partial)
    raise PlanningInfeasible("no candidate endpoint stays collision-free")


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
