"""Two planners over one collision model.

enumerate_plans realizes the trajectory-set semantics exactly at small
scale: every maneuver sequence on a lattice (keep / shift_left /
shift_right / brake / accelerate per decision step) is rendered and
filtered against road bounds, the speed limit and, when a world is given,
collisions.  The compiled kernel walks the lattice depth first in product
order (_walk, navrisk_lattice), rendering each in-bounds prefix once with
every float equal to a per-sequence render, and so are the collision
bits: each step tests only its own ticks and inherits its parent's bits
from a stack as deep as the lattice.  A walk writes counts and each
plan's class per world, which is all the risks read, in memory that
grows with the plans, not with their ticks; maneuvers and columns are
listed only for the plans enumerate_plans returns.  plan_sampling is a
budgeted rewiring sampling planner over (x, y) standing in for a generic
single-trajectory planner.

plan_sampling draws its entire sample stream from cfg.seed alone before
growing the tree; acceptance or rejection of a candidate never consumes
extra randomness.  Tree edges are time-indexed (each node carries its
arrival tick) so moving obstacles are checked where they will be, not
where they are.

The tree never reads the goal point, and its sample stream
(_sample_stream) depends only on cfg.seed and the sample basis
cfg.goal.advance.  Leave-one-out runs over different actor subsets share
one cfg, and so one stream, and are paired experiments, with an exact
reuse rule: an actor that was never the sole blocker of a growth edge
check (connect or rewire) grows the same tree when removed, since every
such check returns the same answer without it.  The plan of that ablated
world can still differ, through its re-routed goal and the endpoint
checks (goal connection, hold, rendered path), which are repeated
against the ablated obstacles.

Collision is one rule, dx*dx + dy*dy < r*r on the radius sum r, written
once in the C kernel _growth.c and applied there to the binary64 scalars
of the lattice walk, the tree-edge checks, the endpoint selection and
collision_check (its path check, navrisk_path_clear).  Every kernel call
takes world_arrays' radius sums, which the kernel alone squares.  The
kernel grows the tree: the
nearest node by a bisect over x-sorted keys (ties to the lowest index,
np.argmin's rule), the neighbours by a scan of the same keys outward
from the new point, taken by ascending index where order matters
(np.nonzero's order), and the connect order by cost, then index
(np.lexsort's order), each with the same expressions as an all-numpy
growth, so the tree is bit-identical to it (tests/oracles.py,
reference_grow_tree).  It selects the endpoint too: both candidate
rounds with their orders and ties, the 200-candidate cap, the goal edge
and hold checks, and the chosen path rendered at constant speed with the
same binary64 expressions as the earlier Python selection
(tests/oracles.py, reference_select_endpoint): hypot segment lengths, a
running sum, bisect-right and f = (s - cum[i]) / seg_len[i].  It writes
positions only; the headings, the trajectory's rows and the cost are
built in Python (_path_plan) just for the Plan a caller reads, so
leave-one-out compares its ablated plans as position arrays.

Every sampled plan comes from one kernel call, _plan_worlds
(navrisk_leave_one_out), which plans one or more worlds of the same
actors on one stream: for each, the root check, the full growth and
selection, and each ablation's selection on the full tree or on its own,
with the reuse rule above.  The growths after the full trees are
independent, so the kernel spreads them, and the full trees before them,
over threads it starts within the call, one per CPU the process may use
(_cpus); each writes only its own worlds' outputs, so the bytes do not
depend on the thread count.  plan_sampling is that call for one world
with no ablation asked for.
"""

from __future__ import annotations

import math
import os
from array import array
from collections.abc import Mapping, Sequence

from ._kernel import address, kernel, seed_words, zeros
from .prediction import _hypot_sum, _sum
from .scenario import (
    ActorState, RoadMap, ScenarioError, Trajectory, _Value, require_int,
    wrap_angle)

MANEUVERS = ("accelerate", "brake", "keep", "shift_left", "shift_right")

LANE_CHANGE_PENALTY = 2.0     # meters of cost per lane change
SPEED_CHANGE_PENALTY = 0.5    # cost per m/s of |speed delta|
SAFETY_MARGIN = 0.5           # meters added to every ego-actor radius sum
STEER_STEP = 2.0              # meters: longest new tree edge
GOAL_TOLERANCE = 2.0          # meters: radius of the goal region
SPEED_STEP = 1.5              # m/s change per lattice brake/accelerate step


class PlanningInfeasible(Exception):
    """No collision-free motion exists from the ego's current state."""


class Plan(_Value):
    trajectory: Trajectory
    cost: float
    maneuver_seq: tuple[str, ...] | None = None
    partial: bool = False


class PlanSet(_Value):
    plans: tuple[Plan, ...]
    universe_size: int

    def __len__(self) -> int:
        return len(self.plans)

    def sequences(self) -> set[tuple[str, ...]]:
        return {p.maneuver_seq for p in self.plans}


class LatticeConfig(_Value):
    """Discretization of ego futures into macro-maneuver sequences."""

    decision_steps: int
    maneuvers: tuple[str, ...] = ("keep", "shift_left", "shift_right")
    ticks_per_step: int = 10

    def __post_init__(self):
        require_int("decision_steps", self.decision_steps, 1)
        require_int("ticks_per_step", self.ticks_per_step, 1)
        if isinstance(self.maneuvers, str):
            raise ValueError(f"maneuvers must be a sequence of names, not "
                             f"the string {self.maneuvers!r}")
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


class GoalSpec(_Value):
    """Target longitudinal advance (meters) and preferred lane."""

    advance: float
    lane: int

    def __post_init__(self):
        require_int("lane", self.lane, 0)


class PlannerConfig(_Value):
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
                 ego_radius: float, t: int, k: int) -> tuple[array, array]:
    """Stack the m obstacles' positions into one flat array('d') of
    (m, k+1, 2) in C order, each actor's Trajectory.positions in world
    order, and their inflated radii into an array('d') of m: ego radius +
    actor radius + SAFETY_MARGIN.  Raises ScenarioError for an actor
    with a position that is not finite, which no squared distance could
    put within its radius sum."""
    obs, rs = array("d"), array("d")
    for aid, traj in world.items():
        if traj.start_tick != t or traj.end_tick != t + k:
            raise ScenarioError(
                f"world actor {aid!r} spans [{traj.start_tick}, "
                f"{traj.end_tick}], expected [{t}, {t + k}]")
        if not all(map(math.isfinite, traj.positions)):
            raise ScenarioError(
                f"world actor {aid!r} has a position that is not finite")
        r = ego_radius + radii[aid] + SAFETY_MARGIN
        if not math.isfinite(r * r):   # the kernel squares it
            raise ScenarioError(f"world actor {aid!r}: radius sum {r!r} "
                                "has no finite square")
        obs += traj.positions
        rs.append(r)
    return obs, rs


def _collides(ego_traj: Trajectory, obs: array, rsum: array) -> bool:
    """True iff the ego overlaps some obstacle row of world_arrays' (obs,
    rsum), made for the ego's span, at some tick, by the kernel's
    collision rule: contact is no collision."""
    k = len(ego_traj) - 1
    return not kernel().navrisk_path_clear(
        address(ego_traj.positions), 2, 0, k, address(obs), k + 1,
        address(rsum), len(rsum), -1)


def collision_check(ego_traj: Trajectory, world: Mapping[str, Trajectory],
                    radii: Mapping[str, float], ego_radius: float) -> bool:
    """True iff the ego overlaps some actor of world at some tick
    (_collides)."""
    return _collides(ego_traj, *world_arrays(
        world, radii, ego_radius, ego_traj.start_tick, len(ego_traj) - 1))


def _plan_cost(traj: Trajectory, road: RoadMap,
               include_speed_term: bool = True) -> float:
    """Path length + lane-change penalty + comfort term.

    The comfort term covers commanded speed changes; constant-speed sampled
    plans skip it so that terminal hold padding is not billed as braking.
    """
    p = traj.positions
    length = _hypot_sum(p[2:], p[:-2])   # point i + 1 minus point i
    lanes = [road.lane_of(y) for y in p[1::2]]
    lane_changes = sum(1 for a, b in zip(lanes, lanes[1:]) if a != b)
    cost = length + LANE_CHANGE_PENALTY * lane_changes
    if include_speed_term:   # the lattice's plans
        cost += SPEED_CHANGE_PENALTY * _speed_change(traj.rows[3::4])
    return cost


def _speed_change(speeds: Sequence[float]) -> float:
    """The sum of |v[i + 1] - v[i]| over speeds, as
    np.sum(np.abs(np.diff(speeds))) gives it, bit for bit."""
    return _sum([abs(b - a) for a, b in zip(speeds, speeds[1:])])


# ---------------------------------------------------------------------------
# Maneuver lattice
# ---------------------------------------------------------------------------

def _rows(xs: array, ys: array, headings, vs) -> array:
    """The Trajectory rows of the columns xs, ys, headings and vs."""
    rows = zeros("d", 4 * len(xs))
    rows[0::4], rows[1::4] = xs, ys
    rows[2::4], rows[3::4] = array("d", headings), array("d", vs)
    return rows


def _rows_from_columns(xs: array, ys: array, vs: array) -> array:
    """The rows of a lattice plan's (xs, ys, vs) columns: each tick heads
    toward the next tick's position, and keeps the heading before it
    where it does not move and at the last tick."""
    headings, h = [], 0.0
    for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:]):
        dx, dy = x1 - x0, y1 - y0
        if dx or dy:
            h = wrap_angle(math.atan2(dy, dx))
        headings.append(h)
    headings.append(h)
    return _rows(xs, ys, headings, vs)


# a plan's class in one world block, besides the index of the one row
# that alone blocks it
FREE, BLOCKED = -1, -2


class LatticeWalk(_Value):
    """What one walk of the lattice writes (_walk).  universe counts the
    in-bounds, within-limit sequences (|Z empty|).  For world block w, z[w]
    counts the plans no row of the block blocks, and freed[j] the plans
    that row j alone of its block blocks.  classes, when asked for, holds
    plan u's class in block w at u * len(z) + w: FREE, the index within
    the block of the one row that blocks it, or BLOCKED.  seqs and cols,
    when asked for, list the first plans that no row blocks, in product
    order: (kept, steps) maneuver indices and (kept, 3, k+1) columns of
    x, y and v."""

    universe: int
    z: array
    freed: array
    classes: array | None = None
    seqs: array | None = None
    cols: array | None = None


def _walk(road: RoadMap, ego: ActorState, k: int, lattice: LatticeConfig,
          obs: array, rsum: array, sizes: Sequence[int], *, dt: float,
          render: bool = True, universe: int | None = None,
          kept: int = 0) -> LatticeWalk:
    """One navrisk_lattice call: the lattice walked depth first in product
    order, each in-bounds prefix rendered once, against the obstacle rows
    of world_arrays' (obs, rsum), which form world blocks of the given
    sizes.  With render False only universe is counted.  Asked for a
    universe, the walk writes the classes of that many plans; asked for
    kept, it lists that many of the unblocked plans (one or the other)."""
    if lattice.horizon != k:
        raise ScenarioError(
            f"lattice covers {lattice.horizon} ticks but horizon k = {k}")
    if not road.contains_y(ego.position_y):
        raise ScenarioError("ego is off-road")
    n, steps, m = len(rsum), lattice.decision_steps, lattice.ticks_per_step
    if obs.typecode != "d" or len(obs) != n * 2 * (k + 1) \
            or sum(sizes) != n or min(sizes, default=0) < 0:
        raise ValueError(f"{len(obs)} obstacle coordinates in blocks "
                         f"{list(sizes)} do not give {n} rows of ticks 0 "
                         f"to {k}")
    names = lattice.maneuvers
    shift = array("i", [{"shift_left": 1, "shift_right": -1}.get(a, 0)
                        for a in names])
    accel = array("i", [{"accelerate": 1, "brake": -1}.get(a, 0)
                        for a in names])
    # only the lanes that steps shifts can reach, lo and up: the walk's
    # time and memory do not grow with road.lane_count
    lane = road.lane_of(ego.position_y)
    lo = max(0, lane - steps)
    centers = array("d", [road.lane_center(i) for i in range(
        lo, min(road.lane_count, lane + steps + 1))])
    ramp = array("d", [1 - math.cos(math.pi * (i / m))
                       for i in range(1, m + 1)])
    ws = array("i", sizes)
    z, freed = zeros("q", len(ws)), zeros("q", n)
    classes = None if universe is None else zeros("i", universe * len(ws))
    seqs = zeros("i", kept * steps) if kept else None
    cols = zeros("d", kept * 3 * (k + 1)) if kept else None
    start = array("d", (ego.position_x, ego.position_y, ego.speed))
    count = kernel().navrisk_lattice(
        address(start), lane - lo, address(centers), len(centers),
        road.speed_limit, SPEED_STEP, dt, address(shift),
        address(accel), len(names), steps, m, address(ramp), address(obs),
        address(rsum), n, address(ws), len(ws), render, address(z),
        address(freed),
        *(None if b is None else address(b) for b in (classes, seqs, cols)),
        kept if universe is None else universe)
    if count < 0:
        raise MemoryError("no memory for the lattice walk")
    if universe is not None and count != universe:
        raise ValueError(f"the walk found {count} plans, not {universe}")
    return LatticeWalk(count, z, freed, classes, seqs, cols)


def lattice_walk(road: RoadMap, ego: ActorState, k: int,
                 lattice: LatticeConfig, obs: array, rsum: array,
                 sizes: Sequence[int], *, dt: float = 0.1) -> LatticeWalk:
    """The counts and classes of every plan of the lattice against the
    obstacle rows of world_arrays' (obs, rsum), concatenated for worlds
    whose row counts are sizes, from one render (_walk): each row's bits
    are its own, so one render serves every world of a window.  The
    classes buffer is sized by a walk that only counts the plans."""
    universe = _walk(road, ego, k, lattice, obs, rsum, sizes, dt=dt,
                     render=False).universe
    return _walk(road, ego, k, lattice, obs, rsum, sizes, dt=dt,
                 universe=universe)


def _unblocked(road: RoadMap, ego: ActorState, k: int,
               lattice: LatticeConfig, obs: array, rsum: array, *,
               dt: float) -> tuple[int, list[tuple[str, ...]], list]:
    """The in-bounds sequence count and, in product order, the maneuvers
    and (xs, ys, vs) columns of every plan that no row of world_arrays'
    (obs, rsum) blocks: one walk counts them, and a second lists them."""
    counts = _walk(road, ego, k, lattice, obs, rsum, [len(rsum)], dt=dt)
    n = counts.z[0]
    listed = _walk(road, ego, k, lattice, obs, rsum, [len(rsum)], dt=dt,
                   kept=n)
    names, steps, row = lattice.maneuvers, lattice.decision_steps, k + 1
    seqs = [tuple(names[i] for i in listed.seqs[steps * u:steps * (u + 1)])
            for u in range(n)]
    cols = [tuple(listed.cols[row * c:row * (c + 1)]
                  for c in range(3 * u, 3 * u + 3)) for u in range(n)]
    return counts.universe, seqs, cols


def enumerate_plans(road: RoadMap, ego: ActorState, t: int, k: int,
                    lattice: LatticeConfig,
                    world: Mapping[str, Trajectory] | None = None,
                    radii: Mapping[str, float] | None = None, *,
                    ego_radius: float = 1.2,
                    dt: float = 0.1) -> PlanSet:
    """Enumerate every maneuver sequence, render it, and keep the in-bounds,
    within-limit and (when a world is given) collision-free ones.  Maneuver
    tuples and columns are listed only for the plans kept.

    universe_size counts the in-bounds sequences regardless of the world, so
    it equals |plans| exactly when world is None.
    """
    obs, rsum = world_arrays(world or {}, radii or {}, ego_radius, t, k)
    universe, seqs, cols = _unblocked(road, ego, k, lattice, obs, rsum,
                                      dt=dt)
    kept = []
    for seq, c in zip(seqs, cols):
        traj = Trajectory("ego", t, dt, _rows_from_columns(*c))
        kept.append(Plan(traj, _plan_cost(traj, road), maneuver_seq=seq))
    return PlanSet(tuple(kept), universe)


# ---------------------------------------------------------------------------
# Budgeted sampling planner
# ---------------------------------------------------------------------------

def _goal_point(road: RoadMap, ego: ActorState, advance: float, lane: int,
                ego_radius: float) -> tuple[float, float]:
    return (min(ego.position_x + advance, road.road_length - ego_radius),
            road.lane_center(lane))


def _sample_stream(road: RoadMap, ego: ActorState, cfg: PlannerConfig,
                   ego_radius: float) -> array:
    """The (cfg.iteration_budget, 2) samples of a growth as one flat
    array('d') of (x, y) pairs, drawn up front
    from cfg.seed alone: numpy's default_rng(SeedSequence(cfg.seed))
    .uniform over the window, drawn by the kernel.  The window depends
    only on the ego state and the sample basis cfg.goal.advance, never on
    a goal routed per world, so every growth under one cfg reads the same
    stream.  Raises ValueError on a window of negative or non-finite
    width."""
    x_lo = ego.position_x
    x_hi = min(ego.position_x + cfg.goal.advance + 2 * GOAL_TOLERANCE,
               road.road_length)
    y_lo, y_hi = ego_radius, road.width - ego_radius
    if not (0.0 <= x_hi - x_lo < math.inf and 0.0 <= y_hi - y_lo < math.inf):
        raise ValueError(f"sample window [{x_lo!r}, {x_hi!r}] x "
                         f"[{y_lo!r}, {y_hi!r}] has a negative or "
                         f"non-finite width")
    seed = seed_words(cfg.seed)
    samples = zeros("d", 2 * cfg.iteration_budget)
    kernel().navrisk_uniform(seed, len(seed), x_lo, y_lo, x_hi, y_hi,
                             cfg.iteration_budget, address(samples))
    return samples


class _Path(_Value):
    """A selected plan as the kernel writes it: positions (k+1, 2) and the
    vertices (n, 2) as flat array('d')s of (x, y) pairs, the segment each
    tick moves along (-1 while it holds) and the partial flag."""

    xy: array
    seg: array
    vertices: array
    partial: bool


def _path_plan(path: _Path, speed: float, road: RoadMap, t: int,
               dt: float) -> Plan:
    """The Plan of a selected path: each moving tick heads along its
    segment (math.atan2) at speed, a holding tick keeps the last heading
    at speed 0, and the cost leaves out the speed term."""
    v, xy = path.vertices, path.xy
    heading = [wrap_angle(math.atan2(v[j + 3] - v[j + 1], v[j + 2] - v[j]))
               for j in range(0, len(v) - 2, 2)]
    headings, h = [], 0.0
    for i in path.seg:
        if i >= 0:
            h = heading[i]
        headings.append(h)
    traj = Trajectory("ego", t, dt, _rows(
        xy[0::2], xy[1::2], headings,
        [speed if i >= 0 else 0.0 for i in path.seg]))
    return Plan(traj, _plan_cost(traj, road, include_speed_term=False),
                partial=path.partial)


class _Worlds(_Value):
    """One world of a navrisk_leave_one_out call as the kernel plans it:
    the full world's _Path (None without a plan); for each actor j the
    positions (k+1, 2) of the world without it, a flat array('d') as in
    _Path (None where that world has no plan or was not asked for); the
    full tree's node count (0 when the ego overlaps an obstacle at the
    planning tick); the trees grown; and the (m,) flags, 1 for each
    ablation that did not reuse the full tree."""

    full: _Path | None
    ablated: list[array | None]
    nodes: int
    growths: int
    regrown: array


def _cpus() -> int:
    """The CPUs this process may run on, the kernel's worker count: its
    affinity mask where the platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _plan_worlds(road: RoadMap, ego: ActorState, k: int, obs: array,
                 rsum: array, cfg: PlannerConfig, ego_radius: float,
                 dt: float, goals: array, wanted: array) -> list[_Worlds]:
    """Plan W worlds of the same m actors in one call to
    navrisk_leave_one_out, all on _sample_stream's samples for cfg: world
    w's obstacle rows are block w of obs, W world_arrays rows stacked as
    (W, m, k+1, 2), and rsum their shared radius sums (m,).  Its full
    world is planned toward goals[w][0] and, for each actor j with
    wanted[j], the world without j toward goals[w][1 + j]; goals is a
    flat array('d') of (W, m+1) (x, y) pairs, which gives W, and wanted
    an array('B') of m flags.  A world is planned by growing the rewiring
    tree for exactly cfg.iteration_budget samples and selecting its
    endpoint, except that a world without an actor that was never a sole
    blocker of its full growth reuses that tree.  The growths are spread
    over _cpus() threads; the outputs do not depend on their number."""
    if not (road.contains_y(ego.position_y)
            and ego.position_x <= road.road_length):
        raise ScenarioError("ego is off-road")
    # the kernel reads these buffers at the sizes it is told
    m, row = len(rsum), 2 * (k + 1)
    n = len(goals) // (2 * (m + 1))
    if goals.typecode != "d" or not n or len(goals) != 2 * n * (m + 1) \
            or wanted.itemsize != 1 or len(wanted) != m:
        raise ValueError(f"{len(goals)} goal coordinates and {len(wanted)} "
                         f"wanted flags for {m} actors")
    if obs.typecode != "d" or len(obs) != n * m * row:
        raise ValueError(f"{len(obs)} obstacle coordinates with {m} radius "
                         f"sums do not cover {n} worlds' ticks 0 to {k}")
    samples = _sample_stream(road, ego, cfg, ego_radius)
    speed = min(cfg.target_speed, road.speed_limit)
    inv = 1.0 / (speed * dt)          # ticks per meter of path
    slots, vsize = n * (m + 1), 2 * (cfg.iteration_budget + 2)
    xy = zeros("d", slots * row)
    status = zeros("i", slots)
    verts = zeros("d", n * vsize)
    seg = zeros("i", n * (k + 1))
    info = zeros("i", 4 * n)
    regrown = zeros("B", n * m)
    err = kernel().navrisk_leave_one_out(
        address(samples), cfg.iteration_budget, ego.position_x,
        ego.position_y, ego_radius, road.width - ego_radius, inv, STEER_STEP,
        GOAL_TOLERANCE, speed * dt, k, address(obs), k + 1, address(rsum), m,
        n, address(goals), address(wanted), address(xy), address(status),
        address(verts), address(seg), address(info), address(regrown),
        _cpus())
    if err == -2:
        raise MemoryError("no memory for the leave-one-out worlds")
    if err < 0:
        raise ValueError("a tree's parent links do not reach the root")
    # a status is 0 for no plan (or an ablation not asked for), 1 for a
    # partial plan and 2 for a plan into the goal region
    worlds = []
    for w in range(n):
        at, partial, nv, nodes, growths = w * (m + 1), *info[4 * w:4 * w + 4]
        full = None if not status[at] else _Path(
            xy[at * row:(at + 1) * row], seg[w * (k + 1):(w + 1) * (k + 1)],
            verts[w * vsize:w * vsize + 2 * nv], bool(partial))
        ablated = [xy[(at + 1 + j) * row:(at + 2 + j) * row]
                   if status[at + 1 + j] else None for j in range(m)]
        worlds.append(_Worlds(full, ablated, nodes, growths,
                              regrown[w * m:(w + 1) * m]))
    return worlds


def plan_sampling(road: RoadMap, ego: ActorState, t: int, k: int,
                  world: Mapping[str, Trajectory], cfg: PlannerConfig,
                  radii: Mapping[str, float],
                  ego_radius: float = 1.2,
                  dt: float = 0.1) -> Plan:
    """Grow a rewiring tree in (x, y) for exactly cfg.iteration_budget
    iterations and return the cheapest collision-free trajectory into the
    goal region, or the closest-approach trajectory flagged partial.

    Deterministic given its inputs.  Raises PlanningInfeasible when the
    ego overlaps an obstacle at the planning tick, when no collision-free
    edge leaves it, or when no candidate endpoint stays collision-free.
    """
    obs, rsum = world_arrays(world, radii, ego_radius, t, k)
    goal = _goal_point(road, ego, cfg.goal.advance, cfg.goal.lane,
                       ego_radius)
    [worlds] = _plan_worlds(road, ego, k, obs, rsum, cfg, ego_radius, dt,
                            array("d", goal * (len(rsum) + 1)),
                            zeros("B", len(rsum)))
    if worlds.full is None:   # why, by the full tree's node count
        raise PlanningInfeasible((
            "ego overlaps an obstacle at the planning tick",
            "no collision-free edge from the ego position",
            "no candidate endpoint stays collision-free",
        )[min(worlds.nodes, 2)])
    return _path_plan(worlds.full, min(cfg.target_speed, road.speed_limit),
                      road, t, dt)
