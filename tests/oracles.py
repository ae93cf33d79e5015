"""Independent oracles used by the test suite.

Most of this is deliberately written without the package's planner
machinery: recursive graph walks instead of itertools products, plain
float loops instead of numpy, so that the production code is checked
against a second implementation of the same contracts.

walk_render renders one maneuver sequence at a time with the scalar
float expressions that the kernel's lattice walk (planner._walk,
navrisk_lattice in navrisk/_growth.c) applies prefix by prefix; it is
the == reference for that render: the same sequences, and columns equal
to the last bit.  walk_enumerate tests each rendered tick with the
collision rule written out on Python floats, dx*dx + dy*dy < r*r, not
through _hits.  reference_lattice_blockers keeps the earlier
numpy render, level by level over whole arrays of prefixes, with its
(plans x rows) blocker matrix: the == reference for the walk's counts,
plan classes and listed columns.

The exceptions are the sampling planner's tree growth and endpoint
selection.  reference_grow_tree and reference_edge_blockers keep the earlier
all-numpy growth, against which kernel_calls.grow_tree, which runs every
iteration in the compiled kernel navrisk/_growth.c, is checked for
bit-identical trees.  It is the numpy reference for every step:
whole-array edge checks through the vectorized overlap rule _hits, the
nearest node by np.argmin, and the neighbour set by
np.nonzero, np.sqrt and np.lexsort over the tree arrays.  On request it
counts the ties it meets, where the kernel's tie rules decide.
reference_select_endpoint, reference_render_path and reference_hold_free
keep the earlier Python endpoint selection (np.lexsort orders, the
np.searchsorted walk, _hits for hold and path), against which
kernel_calls.select_path, which runs it in the kernel, is checked for the
same endpoint and positions.  replanned_gammas plans every leave-one-out
world on its own such tree with that selection.  reference_sample_stream
and reference_planner_seed draw the growth's samples and the per-tick
planner seeds with numpy.random itself, the == references for the
kernel's port of SeedSequence, PCG64 and Generator.uniform
(planner._sample_stream, simulate._planner_seed).
reference_actor_stream and reference_sample_predictions draw the sampled
futures' noise with numpy's Generator.normal and integrate it in a
Python float loop, the == references for the kernel's ziggurat and
integration (prediction.sample_predictions);
reference_mean_and_variance is np.mean and np.var(ddof=1), the ==
reference for risk.mean_and_variance.  reference_predict_linear builds
the linear prediction state by state through ActorState, the ==
reference for prediction.predict_linear's rows.  reference_save_scenario
is the earlier document writer, json.dumps(doc, indent=1) and its
pure-Python encoder, the == reference for scenario.save_scenario.

reference_mean_distance and reference_plan_cost measure displacement and
path length with np.hypot and np.mean or np.sum, the == references for
the kernel's hypot sum (prediction._mean_distance, planner._plan_cost),
which adds libm hypot distances in numpy's pairwise order;
reference_speed_change sums the plan cost's speed changes with np.sum,
the == reference for planner._speed_change.

_hits is the collision rule on numpy arrays, the == reference for the
kernel's scalar checks (planner.collision_check, kernel_calls'
edge_blockers).  PlanDistribution and plan_divergence_kl are the KL
operator on maneuver tuples, written out without the plan classes: the
== reference for the KL importances that risk.lattice_risks reads from
plan classes.  reference_kl is the earlier numpy risk._kl on those
classes, _floored's arrays and np.sum of p * log(p / q): with libm_log,
the == reference for the kernel's class sum (risk._kl,
navrisk_class_sum); with np.log, numpy's own log, which equals libm's
where numpy does not dispatch it to its AVX512 loop.  traj_xy views a
Trajectory's positions as an (n, 2) array, and state_trajectory builds a
Trajectory state by state, from ActorStates, which the package itself
never does.
"""

import hashlib
import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from navrisk.planner import (
    FREE,
    GOAL_TOLERANCE,
    LANE_CHANGE_PENALTY,
    SPEED_CHANGE_PENALTY,
    SPEED_STEP,
    STEER_STEP,
    GoalSpec,
    Plan,
    PlannerConfig,
    PlanningInfeasible,
    _goal_point,
    world_arrays,
)
from navrisk.prediction import PredictionConfig, _mean_distance, _non_finite
from navrisk.risk import KL_EPSILON, _lane_terms, _soft_advance
from navrisk.scenario import (
    EGO_ID, MAX_MAGNITUDE, SCENARIO_FORMAT_VERSION, ActorState, RoadMap,
    Scenario, ScenarioError, Trajectory, wrap_angle)


def rows_of(states: Sequence[ActorState]) -> array:
    """The (x, y, heading, speed) rows of states, one flat array('d')."""
    return array("d", [c for s in states for c in (
        s.position_x, s.position_y, s.heading, s.speed)])


def state_trajectory(actor_id: str, start_tick: int, dt: float,
                     states: Sequence[ActorState]) -> Trajectory:
    """The Trajectory whose ticks are states (rows_of)."""
    return Trajectory(actor_id, start_tick, dt, rows_of(states))


# ---------------------------------------------------------------------------
# The collision rule on arrays, and the KL operator on maneuver tuples
# ---------------------------------------------------------------------------

def _rows(obs: array, rsum: array, k: int) -> tuple[np.ndarray, np.ndarray]:
    """world_arrays' buffers as numpy views, (m, k+1, 2) and (m,)."""
    return np.frombuffer(obs).reshape(len(rsum), k + 1, 2), \
        np.frombuffer(rsum)


def obstacle_arrays(world: Mapping[str, Trajectory],
                    radii: Mapping[str, float], ego_radius: float, t: int,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """world_arrays' obstacle rows as numpy arrays, (m, k+1, 2) and
    (m,)."""
    return _rows(*world_arrays(world, radii, ego_radius, t, k), k)


def _hits(obs: np.ndarray, xy: np.ndarray, rsum) -> np.ndarray:
    """The one overlap rule, broadcast over the leading axes of obs (..., 2),
    xy (..., 2) and rsum: a squared distance strictly below rsum * rsum, so
    contact is no collision.  A square that overflows is rightly no hit,
    since world_arrays keeps rsum * rsum finite."""
    with np.errstate(over="ignore"):
        dx = obs[..., 0] - xy[..., 0]
        dy = obs[..., 1] - xy[..., 1]
        return dx * dx + dy * dy < rsum * rsum


def traj_xy(traj: Trajectory) -> np.ndarray:
    """traj's positions as a read-only (n, 2) view of .positions."""
    xy = np.frombuffer(traj.positions).reshape(-1, 2)
    xy.flags.writeable = False
    return xy


@dataclass(frozen=True)
class PlanDistribution:
    """Epsilon-floored distribution over the lattice plan universe."""

    support: tuple[tuple[str, ...], ...]
    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        object.__setattr__(self, "probabilities", p)
        if len(self.support) != len(p):
            raise ValueError("support and probabilities differ in length")
        if abs(float(np.sum(p)) - 1.0) > 1e-9:
            raise ValueError("probabilities must sum to 1 within 1e-9")
        if len(p) and float(np.min(p)) < KL_EPSILON / len(p):
            raise ValueError("probabilities must be epsilon-floored")

    @classmethod
    def uniform_feasible(cls, universe: Sequence[tuple[str, ...]],
                         feasible: Sequence[tuple[str, ...]]
                         ) -> "PlanDistribution":
        """Uniform over feasible plans, floored by KL_EPSILON over the
        universe.

        With no feasible plan this degenerates to the floor itself (uniform
        over the universe), which keeps the divergence finite.  A repeated
        universe plan, or a feasible plan outside the universe, raises
        ValueError naming it.
        """
        universe = tuple(universe)
        if not universe:
            raise ValueError("empty universe")
        index = set(universe)
        if len(index) < len(universe):
            plan = next(s for s, n in Counter(universe).items() if n > 1)
            raise ValueError(f"universe repeats plan {plan!r}")
        fs = set(feasible)
        if not fs <= index:
            plan = next(s for s in feasible if s not in index)
            raise ValueError(f"feasible plan {plan!r} is not in the universe")
        n = len(universe)
        if not fs:
            return cls(universe, np.full(n, 1.0 / n))
        return cls(universe, (np.where([s in fs for s in universe],
                                       1.0 / len(fs), 0.0) + KL_EPSILON)
                   / (1.0 + n * KL_EPSILON))


def plan_divergence_kl(p: PlanDistribution, q: PlanDistribution) -> float:
    """KL(p || q) in nats over a shared universe; >= 0, zero iff p = q."""
    if p.support != q.support:
        raise ValueError("distributions must share the same plan universe")
    pa, qa = p.probabilities, q.probabilities
    return float(np.sum(pa * np.log(pa / qa)))


def _floored(mask: np.ndarray, count: int) -> np.ndarray:
    """1 / count on the plans that mask marks, 0 elsewhere, floored by
    KL_EPSILON and renormalized over the universe; with count 0, uniform
    over it."""
    if not count:
        return np.full(len(mask), 1.0 / len(mask))
    return (np.where(mask, 1.0 / count, 0.0) + KL_EPSILON) / \
        (1.0 + len(mask) * KL_EPSILON)


def libm_log(x: np.ndarray) -> np.ndarray:
    """math.log, which calls libm's log, of each element of x."""
    return np.array([math.log(v) for v in x.tolist()])


def reference_kl(classes: array, block: int, blocks: int, z: int,
                 actors: Sequence[str], log=np.log,
                 add=np.sum) -> dict[str, float]:
    """The KL importance of each of actors, the world block block of
    blocks in a lattice_walk's classes, as the earlier numpy risk._kl
    computed it: KL(p || q_i) between _floored's distributions on the
    plans free of the block (p, z of them) and on those free of it or
    blocked by actor i alone (q_i, counted from the mask), each term
    p * log(p / q) over whole arrays, summed by np.sum.  With
    log=libm_log the terms take libm's log, as risk._kl's do; add
    replaces the sum."""
    cls = np.frombuffer(classes, dtype=np.intc)[block::blocks]
    free = cls == FREE
    p = _floored(free, z)
    kl = {}
    for j, aid in enumerate(actors):
        mask = free | (cls == j)
        q = _floored(mask, np.count_nonzero(mask))
        kl[aid] = float(add(p * log(p / q)))
    return kl


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


def reference_lattice_blockers(road: RoadMap, ego: ActorState, k: int,
                               lattice, obs, rsum, *, dt: float = 0.1):
    """The earlier numpy render of the lattice, level by level, and every
    plan tested against every obstacle row: the == reference for the
    kernel's depth-first walk (planner._walk).

    obs (n, k+1, 2) and rsum (n,) are obstacle rows as world_arrays
    stacks them; the rows of several worlds of one window may be
    concatenated, since each row's bits are computed on their own.  Returns
    (plans, blockers).  blockers is the (U, n) matrix over the U
    in-bounds, within-limit sequences in itertools.product order: [u, j]
    is True iff plan u collides with row j; the kernel's counts and plan
    classes are reductions of it.  plans(rows) walks the parent chain once
    for the maneuver tuples of the plans at rows and their (len(rows), 3,
    k+1) array of (xs, ys, vs) columns.

    The render goes level by level: level d holds every in-bounds d-step
    prefix, each extended by every maneuver, prefix-major in sorted
    maneuver order, so the survivors come out in product order.  A prefix
    that leaves the road or exceeds the speed limit is dropped once, with
    all its extensions.  Each step applies the per-sequence scalar
    operations elementwise in the same order: v + ((v_end - v) * i) / m,
    trapezoidal x tick by tick, and y + (y_end - y) * 0.5 * c_i with the
    m factors c_i from math.cos; so every column is bit-identical to a
    sequence rendered alone (walk_render).

    The blocker bits follow the same levels.  The tick-0 position, which
    every sequence shares, is tested once per row; each level tests
    only its own m ticks with _hits and ORs them into its parent prefix's
    bits.  A plan collides iff it hits at some tick, so the bits are those
    of _hits over all k+1 ticks of each plan, on the same floats.
    """
    if lattice.horizon != k:
        raise ScenarioError(
            f"lattice covers {lattice.horizon} ticks but horizon k = {k}")
    if not road.contains_y(ego.position_y):
        raise ScenarioError("ego is off-road")
    obs, rsum = _rows(obs, rsum, k)
    names, m = lattice.maneuvers, lattice.ticks_per_step
    shift = np.array([{"shift_left": 1, "shift_right": -1}.get(n, 0)
                      for n in names])
    accel = np.array([n == "accelerate" for n in names])
    brake = np.array([n == "brake" for n in names])
    centers = np.array([road.lane_center(i) for i in range(road.lane_count)])
    ramp = np.array([1 - math.cos(math.pi * (i / m)) for i in range(1, m + 1)])
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
        for j in range(len(rsum)):   # one row at a time bounds peak memory
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


def world_to_positions(world):
    """Extract plain position lists from a {id: Trajectory} mapping."""
    return {
        aid: [(s.position_x, s.position_y) for s in traj.states]
        for aid, traj in world.items()
    }


def static_actor(actor_id, x, y, n, dt=0.1):
    """A parked actor holding one position for n+1 ticks."""
    state = ActorState(x, y, 0.0, 0.0)
    return state_trajectory(actor_id, 0, dt, (state,) * (n + 1))


# ---------------------------------------------------------------------------
# Reference tree growth (the earlier numpy kernel, kept as it was)
# ---------------------------------------------------------------------------

class Tree(NamedTuple):
    """A grown rewiring tree trimmed to its nodes: positions, path costs,
    arrival ticks (at `speed`, `inv` ticks per meter) and parents."""

    pts: np.ndarray
    cost: np.ndarray
    tick: np.ndarray
    parent: np.ndarray
    speed: float
    inv: float


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


def reference_sample_stream(road: RoadMap, ego: ActorState,
                            cfg: PlannerConfig,
                            ego_radius: float) -> np.ndarray:
    """The (cfg.iteration_budget, 2) samples of a growth as numpy draws
    them, the == reference for planner._sample_stream: the entire stream
    up front from cfg.seed, over a window that depends only on the ego
    state and the sample basis cfg.goal.advance."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    x_lo = ego.position_x
    x_hi = min(ego.position_x + cfg.goal.advance + 2 * GOAL_TOLERANCE,
               road.road_length)
    y_lo, y_hi = ego_radius, road.width - ego_radius
    return rng.uniform((x_lo, y_lo), (x_hi, y_hi), (cfg.iteration_budget, 2))


def reference_planner_seed(seed: int, t: int) -> int:
    """The planner seed of replan tick t as numpy derives it, the ==
    reference for simulate._planner_seed."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(t,))
    return int(ss.generate_state(1, np.uint64)[0])


def reference_actor_stream(seed: int, actor_id: str, t: int, sample: int
                           ) -> np.random.Generator:
    """The noise stream of sample `sample` of actor_id's futures at tick t,
    as numpy.random draws it: the == reference for the stream that
    _growth.c's navrisk_sample_future seeds."""
    digest = hashlib.blake2s(actor_id.encode(), digest_size=8).digest()
    key = int.from_bytes(digest, "little")
    ss = np.random.SeedSequence(
        entropy=seed,
        spawn_key=(key, t & (2 ** 63 - 1), sample))
    return np.random.default_rng(ss)


def reference_sample_predictions(history: Trajectory, k: int,
                                 cfg: PredictionConfig) -> list[Trajectory]:
    """The sampled futures of one actor drawn with numpy's
    Generator.normal and integrated in a Python float loop: the ==
    reference for prediction.sample_predictions, raising the same
    ValueError."""
    last = history.states[-1]
    dt = history.dt
    t = history.end_tick
    out = []
    for j in range(cfg.sample_count):
        rng = reference_actor_stream(cfg.seed, history.actor_id, t, j)
        accel = rng.normal(0.0, cfg.noise_accel_sigma, size=k)
        yawrate = rng.normal(0.0, cfg.noise_yawrate_sigma, size=k)
        if not (np.isfinite(accel).all() and np.isfinite(yawrate).all()):
            raise _non_finite(history.actor_id, j, cfg)
        x, y, heading, speed = (last.position_x, last.position_y,
                                last.heading, last.speed)
        states = [last]
        for a_i, w_i in zip(accel.tolist(), yawrate.tolist()):
            speed = max(0.0, speed + a_i * dt)
            heading = wrap_angle(heading + w_i * dt)
            x += speed * dt * math.cos(heading)
            y += speed * dt * math.sin(heading)
            # False for NaN and inf too
            if not (abs(x) <= MAX_MAGNITUDE and abs(y) <= MAX_MAGNITUDE):
                raise _non_finite(history.actor_id, j, cfg)
            states.append(ActorState(x, y, heading, speed))
        out.append(state_trajectory(history.actor_id, t, dt, tuple(states)))
    return out


def reference_predict_linear(history: Trajectory, k: int) -> Trajectory:
    """predict_linear state by state: tick j of the k is the last state
    moved by j * (dx, dy), each an ActorState."""
    last = history.states[-1]
    dt = history.dt
    dx = last.speed * dt * math.cos(last.heading)
    dy = last.speed * dt * math.sin(last.heading)
    states = [last]
    for j in range(1, k + 1):
        states.append(ActorState(
            last.position_x + j * dx, last.position_y + j * dy,
            last.heading, last.speed))
    return state_trajectory(history.actor_id, history.end_tick, dt, states)


def reference_save_scenario(s: Scenario) -> bytes:
    """The scenario document as json.dumps(doc, indent=1) writes it, through
    json's pure-Python encoder: the == reference for save_scenario."""
    def row(st: ActorState) -> list[float]:
        return [float(st.position_x), float(st.position_y),
                float(st.heading), float(st.speed)]
    doc = {
        "version": SCENARIO_FORMAT_VERSION,
        "map": {"lane_count": int(s.map.lane_count), **{
            key: float(getattr(s.map, key))
            for key in ("lane_width", "road_length", "speed_limit")}},
        "dt": float(s.dt),
        "horizon_ticks": int(s.horizon_ticks),
        "ego": {"state": row(s.ego_initial),
                "radius": float(s.actor_radius[EGO_ID])},
        "actors": [
            {"id": aid, "radius": float(s.actor_radius[aid]),
             "states": [row(st) for st in traj.states]}
            for aid, traj in s.npc_trajectories.items()
        ],
        "phase_metadata": [
            {"name": p.name, "start_tick": int(p.start_tick),
             "end_tick": int(p.end_tick)}
            for p in s.phases
        ],
    }
    return (json.dumps(doc, indent=1) + "\n").encode()


def reference_mean_and_variance(gammas) -> tuple[float, float]:
    """np.mean and np.var(ddof=1) of gammas, (gamma, 0.0) when every one
    is equal: the == reference for risk.mean_and_variance."""
    arr = np.array(gammas)
    if float(arr.max()) == float(arr.min()):
        return float(arr[0]), 0.0
    return float(np.mean(arr)), float(np.var(arr, ddof=1))


def reference_grow_tree(road: RoadMap, ego: ActorState, k: int,
                        obs: np.ndarray, rsum: np.ndarray,
                        cfg: PlannerConfig, ego_radius: float,
                        dt: float, ties: Optional[Counter] = None,
                        samples: Optional[np.ndarray] = None
                        ) -> tuple[Tree, np.ndarray]:
    """Grow the rewiring tree for exactly cfg.iteration_budget samples,
    reference_sample_stream's unless samples are given, among the
    obstacles (obs, rsum) of world_arrays.

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

    if samples is None:
        samples = reference_sample_stream(road, ego, cfg, ego_radius)
    y_lo, y_hi = ego_radius, road.width - ego_radius

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

    return Tree(pts[:n], cost[:n], tick[:n], parent[:n], speed, inv), sole


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
    return state_trajectory("ego", t, dt, tuple(states))


def reference_select_endpoint(tree: Tree, goal: np.ndarray,
                              obs: np.ndarray, rsum: np.ndarray,
                              road: RoadMap, t: int, k: int,
                              dt: float) -> tuple[Plan, int]:
    """The cheapest tree path into the goal region that stays clear of
    (obs, rsum), connected to the goal point when that edge is clear, or
    else the closest-approach path flagged partial; with the endpoint's
    tree node.  Raises PlanningInfeasible when no candidate endpoint stays
    collision-free.  Goal edges are checked by reference_edge_blockers."""
    pts, cost, tick, parent = tree.pts, tree.cost, tree.tick, tree.parent
    goal = np.asarray(goal, dtype=float)   # planner._goal_point's is a tuple
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
            if _hits(obs, traj_xy(traj), rsum[:, None]).any():
                continue
            return Plan(traj,
                        reference_plan_cost(traj, road,
                                            include_speed_term=False),
                        partial=partial), best
    raise PlanningInfeasible("no candidate endpoint stays collision-free")


def replanned_gammas(road, world, ego, t, k, cfg, radii, route=True):
    """Independent reference for risk.leave_one_out (ego radius 1.2, dt
    0.1): grow a tree for the full world and for every one-actor ablation
    from scratch with the numpy reference growth, and plan each toward its
    own routed goal (toward cfg.goal when route is False) with the
    reference selection."""
    lane, speed = cfg.goal.lane, min(cfg.target_speed, road.speed_limit)

    def plan(w):
        obs, rsum = obstacle_arrays(w, radii, 1.2, t, k)
        advance = _soft_advance(cfg.goal.advance, _lane_terms(
            w, ego, road, lane, speed)) if route else cfg.goal.advance
        goal = _goal_point(road, ego, GoalSpec(advance, lane), 1.2)
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
            out[aid] = (_mean_distance(full.trajectory.positions,
                                       m.trajectory.positions), False)
    return full, out


# ---------------------------------------------------------------------------
# Displacement and path length with numpy
# ---------------------------------------------------------------------------

def reference_mean_distance(xa: np.ndarray, xb: np.ndarray) -> float:
    """Mean Euclidean distance per waypoint between (n, 2) position arrays,
    the shorter one holding its final position: the == reference for
    prediction._mean_distance."""
    n = max(len(xa), len(xb))
    if len(xa) < n:
        xa = np.vstack([xa, np.repeat(xa[-1:], n - len(xa), axis=0)])
    if len(xb) < n:
        xb = np.vstack([xb, np.repeat(xb[-1:], n - len(xb), axis=0)])
    d = xa - xb
    return float(np.mean(np.hypot(d[:, 0], d[:, 1])))


def reference_plan_cost(traj: Trajectory, road: RoadMap,
                        include_speed_term: bool = True) -> float:
    """Path length + lane-change penalty + comfort term, the path length
    by np.sum over np.hypot of the segments: the == reference for
    planner._plan_cost."""
    xy = traj_xy(traj)
    seg = np.diff(xy, axis=0)
    length = float(np.sum(np.hypot(seg[:, 0], seg[:, 1])))
    lanes = [road.lane_of(y) for y in xy[:, 1]]
    lane_changes = sum(1 for a, b in zip(lanes, lanes[1:]) if a != b)
    cost = length + LANE_CHANGE_PENALTY * lane_changes
    if include_speed_term:
        cost += SPEED_CHANGE_PENALTY * reference_speed_change(
            [st.speed for st in traj.states])
    return cost


def reference_speed_change(speeds) -> float:
    """np.sum(np.abs(np.diff(speeds))): the == reference for
    planner._speed_change, the plan cost's comfort term."""
    return float(np.sum(np.abs(np.diff(np.asarray(speeds, dtype=float)))))
