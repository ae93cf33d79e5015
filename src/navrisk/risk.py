"""Per-actor risk quantification.

Three layers and a router:

* lattice risks from plan counts on one maneuver-lattice window
  (lattice_risks): the total risk is the normalized loss of navigable
  plans caused by all actors, the exact per-actor risk is the normalized
  count of plans that reappear when that actor is ablated (computed as
  (|Z w/o i| - |Z|) / |Z empty| so it is nonnegative under subset
  semantics), and the KL importance is the divergence between the
  epsilon-floored plan distributions with and without the actor.  All of
  them, for every world given (the predicted world and the ground-truth
  slice of one replan tick), come from one render's plan counts and
  classes; the KL importance only when it is read, from one term per
  plan class, summed in the kernel;
* leave-one-out importance: replan with and without one actor, all
  randomness and routing inputs held fixed, and measure the plan change
  with a per-waypoint Euclidean operator;
* Monte-Carlo risk: the same importance evaluated across sampled futures,
  reported as sample mean and unbiased variance (monte_carlo_importance);
* routing: the lane choice with hysteresis and a commit lock while a lane
  change is in progress (_pick_lane), and each world's goal advance in
  that lane, clamped by its own occupants (_soft_advance over
  _lane_terms).

Ablating one of two actors that redundantly block the same plans changes
nothing, so per-actor risks are not additive and may all be zero while the
total risk is large (ablation masking).
"""

from __future__ import annotations

import functools
import math
from array import array
from collections.abc import Callable, Mapping, Sequence

from ._kernel import address, kernel, zeros
from .planner import (
    GoalSpec,
    LatticeConfig,
    Plan,
    PlannerConfig,
    PlanSet,
    _collides,
    _goal_point,
    _path_plan,
    _plan_worlds,
    enumerate_plans,  # noqa: F401 (wrapped by perfbench/tracer.py)
    lattice_walk,
    plan_sampling,  # noqa: F401 (wrapped by perfbench/tracer.py)
    world_arrays,
)
from .prediction import _mean_distance, _sum
# bound here for perfbench/tracer.py, which wraps it in this module
from .prediction import predict_linear  # noqa: F401
from .scenario import (
    EGO_ID,
    ActorState,
    RoadMap,
    Scenario,
    ScenarioError,
    Trajectory,
    _Value,
    slice_world,
)

KL_EPSILON = 1e-6
UNIVERSE_CAP = 1_000_000


class DegenerateScenario(Exception):
    """The map itself admits no plan (|Z empty| = 0)."""


class LatticeCapExceeded(Exception):
    """The lattice universe exceeds the configured tractability cap."""


# ---------------------------------------------------------------------------
# Exact set-reduction risk
# ---------------------------------------------------------------------------

def check_cap(lattice: LatticeConfig, source: str = "lattice"):
    """Raise LatticeCapExceeded, naming `source` (what set the lattice), if
    the lattice has over UNIVERSE_CAP sequences."""
    steps = min(lattice.decision_steps, 64)   # 2^64 > UNIVERSE_CAP, 1^s = 1
    if len(lattice.maneuvers) ** steps > UNIVERSE_CAP:
        raise LatticeCapExceeded(
            f"{source}: {len(lattice.maneuvers)}^{lattice.decision_steps} "
            f"sequences exceed the cap of {UNIVERSE_CAP}")


class ExactRisk(_Value, hidden=("kl_of",)):
    """Plan counts of one world on a lattice window and the risks they
    give.  kl is computed on first read (_kl)."""

    z_empty: int                  # |Z empty|: in-bounds plans
    z: int                        # |Z|: plans no actor blocks
    total: float                  # (|Z empty| - |Z|) / |Z empty|
    per_actor: Mapping[str, float]  # (|Z without i| - |Z|) / |Z empty|
    kl_of: Callable[[], Mapping[str, float]]

    @functools.cached_property
    def kl(self) -> Mapping[str, float]:
        """operator="kl" importance of each actor."""
        return self.kl_of()


def _kl(classes: array, block: int, blocks: int, z: int,
        freed: Sequence[int], actors: Sequence[str]) -> dict[str, float]:
    """The KL importance of each of actors, the world block block of
    blocks in a lattice_walk's classes: KL(p || q_j) between the
    epsilon-floored uniform distributions on the z plans free of the
    block (p) and on the z + freed[j] free of it or blocked by actor j
    alone (q_j).  Each term p * log(p / q) takes one value per plan
    class (free, j alone, other), from math.log (libm's log), and the
    kernel adds them plan by plan in np.sum's pairwise order."""
    n = len(classes) // blocks
    scale = 1.0 + n * KL_EPSILON

    def floored(count: int) -> tuple[float, float]:
        """(in, out): the probability of a plan among count and of one
        outside them, 1 / count and 0 floored by KL_EPSILON and
        renormalized over the universe; 1 / U for both with count 0."""
        if not count:
            return 1.0 / n, 1.0 / n
        return (1.0 / count + KL_EPSILON) / scale, KL_EPSILON / scale

    pf, p0 = floored(z)
    at = address(classes) + classes.itemsize * block
    terms, kl = zeros("d", 3), {}
    for j, aid in enumerate(actors):
        qf, q0 = floored(z + freed[j])
        terms[0] = pf * math.log(pf / qf)
        terms[1] = p0 * math.log(p0 / qf)
        terms[2] = p0 * math.log(p0 / q0)
        kl[aid] = kernel().navrisk_class_sum(at, n, blocks, j,
                                             address(terms))
    return kl


def lattice_risks(road: RoadMap, ego: ActorState, t: int, k: int,
                  lattice: LatticeConfig,
                  worlds: Sequence[Mapping[str, Trajectory]],
                  radii: Mapping[str, float], *, ego_radius: float = 1.2,
                  dt: float = 0.1) -> list[ExactRisk]:
    """The ExactRisk of each of worlds (one or more) on one lattice
    window, from one render against the obstacle rows of all of them
    (planner.lattice_walk).

    Each world's block of rows gives its counts: |Z| counts the plans no
    row of the block blocks and |Z without i| adds the plans that i alone
    blocks.  The KL importance of i is KL(p || q_i) between the
    epsilon-floored uniform distributions over the plans of the world
    (p) and of the world without i (q_i), both over the empty-world
    universe, read from the plans' classes when it is first read (_kl).
    Raises DegenerateScenario when that universe is empty."""
    check_cap(lattice)
    obs, rsum = array("d"), array("d")
    for w in worlds:
        w_obs, w_rsum = world_arrays(w, radii, ego_radius, t, k)
        obs += w_obs
        rsum += w_rsum
    walk = lattice_walk(road, ego, k, lattice, obs, rsum,
                        [len(w) for w in worlds], dt=dt)
    n = walk.universe
    if not n:
        raise DegenerateScenario("the map admits no plan (|Z empty| = 0)")
    risks, start = [], 0
    for b, world in enumerate(worlds):
        z = walk.z[b]
        freed = walk.freed[start:start + len(world)]   # |Z w/o i| - |Z|
        start += len(world)
        risks.append(ExactRisk(
            n, z, (n - z) / n, dict(zip(world, (f / n for f in freed))),
            functools.partial(_kl, walk.classes, b, len(worlds), z,
                              freed, tuple(world))))
    return risks


def all_actor_risk_exact(s: Scenario, t: int, k: int,
                         lattice: LatticeConfig,
                         ego: ActorState | None = None) -> ExactRisk:
    """lattice_risks of the ground-truth world slice alone."""
    return lattice_risks(
        s.map, s.ego_initial if ego is None else ego, t, k, lattice,
        [slice_world(s, t, k)], s.actor_radius,
        ego_radius=s.radius_of(EGO_ID), dt=s.dt)[0]


def total_risk_exact(s: Scenario, t: int, k: int, lattice: LatticeConfig,
                     ego: ActorState | None = None) -> float:
    """(|Z empty| - |Z|) / |Z empty| over the ground-truth world slice."""
    return all_actor_risk_exact(s, t, k, lattice, ego).total


def actor_risk_exact(s: Scenario, actor_id: str, t: int, k: int,
                     lattice: LatticeConfig, ego: ActorState | None = None
                     ) -> float:
    """(|Z without i| - |Z|) / |Z empty|: the plan count actor i suppresses."""
    if actor_id not in s.npc_trajectories:
        raise ScenarioError(f"unknown actor id {actor_id!r}")
    return all_actor_risk_exact(s, t, k, lattice, ego).per_actor[actor_id]


# ---------------------------------------------------------------------------
# Routing: lane choice and follow-gap clamped goal
# ---------------------------------------------------------------------------

# Deterministic goal placement used by the replanning loop.
#
# The goal advance in the preferred lane is clamped by the lane's
# occupants: an occupant moving slower than the ego limits the reachable
# advance to (gap - FOLLOW_GAP) * v / (v - v_occ), the distance at which
# the ego would close to FOLLOW_GAP.  Occupant terms combine through a
# soft minimum with temperature SOFTNESS so that every occupant of the
# lane influences the goal continuously, not only the nearest one.
FOLLOW_GAP = 6.0            # meters
SOFTNESS = 12.0             # meters
MIN_ADVANCE = 2.0           # meters
SWITCH_HYSTERESIS = 5.0     # meters of advance a lane switch must gain


def _follow_term(traj: Trajectory, ego: ActorState, road: RoadMap,
                 lane: int, ego_speed: float) -> float | None:
    """The advance one occupant of lane allows (a term of _soft_advance),
    or None when it never limits the advance there."""
    lo = lane * road.lane_width
    hi = lo + road.lane_width
    p = traj.positions
    xs, ys = p[0::2], p[1::2]
    if not any(lo <= y < hi and ego.position_x < x <= road.road_length
               for x, y in zip(xs, ys)):
        return None
    gap = xs[0] - ego.position_x
    v_occ = (xs[-1] - xs[0]) / ((len(xs) - 1) * traj.dt) if len(xs) > 1 \
        else traj.rows[3]
    if v_occ >= ego_speed - 1e-9:
        return None  # never caught within any horizon
    return max(0.0, (gap - FOLLOW_GAP) * ego_speed / (ego_speed - v_occ))


def _soft_advance(base_advance: float, terms) -> float:
    """The clamped soft minimum of base_advance and the occupant advances
    of terms, exponentiated and summed in the order given after the base
    term; None terms are skipped.  When every exp underflows (advances
    above about 745 * SOFTNESS) the sum is taken relative to the least
    advance m instead, which puts the soft minimum in
    [m - SOFTNESS * ln n, m] for n advances."""
    adv = [base_advance] + [a for a in terms if a is not None]
    total = sum([math.exp(-a / SOFTNESS) for a in adv])
    if total:
        soft = -SOFTNESS * math.log(total)
    else:
        m = min(adv)
        soft = m - SOFTNESS * math.log(
            sum([math.exp(-(a - m) / SOFTNESS) for a in adv]))
    return float(min(max(soft, MIN_ADVANCE), base_advance))


def _lane_terms(world: Mapping[str, Trajectory], ego: ActorState,
                road: RoadMap, lane: int, ego_speed: float
                ) -> list[float | None]:
    """Every occupant's _follow_term in lane, in world order."""
    return [_follow_term(traj, ego, road, lane, ego_speed)
            for traj in world.values()]


def _pick_lane(world: Mapping[str, Trajectory], ego: ActorState,
               road: RoadMap, speed: float, base_advance: float,
               preferred: int) -> int:
    """The lane to route in: preferred while the ego is more than a
    quarter lane off its centre (a lane change in progress commits),
    else the adjacent or current lane of the greatest routed advance
    (_soft_advance over the lane's _lane_terms), switching only on a gain
    of over SWITCH_HYSTERESIS."""
    if abs(ego.position_y - road.lane_center(preferred)) \
            > 0.25 * road.lane_width:
        return preferred
    candidates = [l for l in (preferred - 1, preferred, preferred + 1)
                  if 0 <= l < road.lane_count]
    utility = {l: _soft_advance(base_advance,
                                _lane_terms(world, ego, road, l, speed))
               for l in candidates}
    # prefer the current lane, break remaining ties leftward (overtaking
    # side); switch only on a clear gain
    best = max(candidates,
               key=lambda l: (utility[l], l == preferred, l))
    if best != preferred and \
            utility[best] > utility[preferred] + SWITCH_HYSTERESIS:
        return best
    return preferred


# ---------------------------------------------------------------------------
# Leave-one-out importance
# ---------------------------------------------------------------------------

def _plan_change(full: array | None, ablated: array | None,
                 road: RoadMap, k: int) -> tuple[float, bool]:
    """(gamma, saturated) between the full-world and ablated positions
    (flat (x, y) buffers, as planner._Worlds holds them):
    the mean per-waypoint displacement, 0 if neither world admits a plan,
    and road_length / k (saturated) if exactly one does."""
    if full is None and ablated is None:
        return 0.0, False
    if full is None or ablated is None:
        return road.road_length / k, True
    return _mean_distance(full, ablated), False


def leave_one_out(world: Mapping[str, Trajectory], ego: ActorState, t: int,
                  k: int, cfg: PlannerConfig, *, road: RoadMap,
                  radii: Mapping[str, float], ego_radius: float = 1.2,
                  dt: float = 0.1, route: bool = False,
                  actor_ids: Sequence[str] | None = None
                  ) -> tuple[Plan | None, dict[str, tuple[float, bool]]]:
    """operator="euclid" importance of the actors actor_ids of world (all
    of them by default): plan the full world once, then each world without
    one of those actors under the same planner seed, and return the full
    plan (None if infeasible) with each such actor's (gamma, saturated),
    in world order.  With route=True each world's goal advance is
    re-clamped by its occupants of cfg.goal.lane (_soft_advance over its
    _lane_terms); cfg itself is left as it is, so its goal.advance stays
    the planner's sample basis and every world reads one stream.

    Every world is planned one way: an endpoint selected on a tree toward
    its own goal among its own obstacle rows.  The sample stream is drawn
    once and the full-world tree grown once.  Without an actor that never
    alone blocked one of its edge checks the same tree grows, so that
    ablation reuses it; the others, and all of them when the ego is
    enclosed at the root, grow their own tree on the same stream.  All of
    it is one kernel call (planner._plan_worlds).  Each actor's route term
    is computed once; a world's goal sums the terms of its actors in world
    order.  Only the full plan is built as a Plan; the
    ablated ones are compared as positions.
    """
    plan_full, (gammas,) = _leave_one_out(
        [world], ego, t, k, cfg, road=road, radii=radii,
        ego_radius=ego_radius, dt=dt, route=route, actor_ids=actor_ids)
    return plan_full, gammas


def _leave_one_out(worlds: Sequence[Mapping[str, Trajectory]],
                   ego: ActorState, t: int, k: int, cfg: PlannerConfig, *,
                   road: RoadMap, radii: Mapping[str, float],
                   ego_radius: float, dt: float, route: bool = False,
                   actor_ids: Sequence[str] | None = None,
                   first_sample: int | None = None
                   ) -> tuple[Plan | None,
                              list[dict[str, tuple[float, bool]]]]:
    """leave_one_out of each of worlds, in one kernel call
    (planner._plan_worlds), each routed on its own occupants of
    cfg.goal.lane with route=True.
    Every world holds the actors of worlds[0], in its order, and all are
    planned under cfg, so each is a paired experiment on one stream.
    Returns the full plan of worlds[0] (None if infeasible) and each
    world's gammas.  A ScenarioError about worlds[i] with i >=
    first_sample names it as sample i - first_sample."""
    ids = list(worlds[0])
    wanted = set(ids if actor_ids is None else actor_ids)
    mask = array("B", [aid in wanted for aid in ids])
    speed = min(cfg.target_speed, road.speed_limit)
    obs = array("d")
    for i, world in enumerate(worlds):
        try:
            if i == 0 and not wanted <= world.keys():
                raise ScenarioError(
                    f"unknown actor ids {sorted(wanted - world.keys())!r}")
            if list(world) != ids:
                raise ScenarioError(f"actors {list(world)!r} are not the "
                                    f"first world's {ids!r}")
            w_obs, rsum = world_arrays(world, radii, ego_radius, t, k)
        except ScenarioError as e:
            if first_sample is None or i < first_sample:
                raise
            raise type(e)(f"sample {i - first_sample}: {e}") from e
        obs += w_obs

    def goal(w_terms, without: int | None) -> tuple[float, float]:
        """The goal of the world of route terms w_terms without actor
        `without` (None: the full world)."""
        advance = cfg.goal.advance if w_terms is None else _soft_advance(
            cfg.goal.advance, (x for j, x in enumerate(w_terms)
                               if j != without))
        return _goal_point(road, ego, GoalSpec(advance, cfg.goal.lane),
                           ego_radius)

    # per world: the full world, then the world without each j; (0, 0)
    # for one not asked for
    goals = array("d")
    for world in worlds:
        w_terms = _lane_terms(world, ego, road, cfg.goal.lane, speed) \
            if route else None
        goals.extend(goal(w_terms, None))
        for j, asked in enumerate(mask):
            goals.extend(goal(w_terms, j) if asked else (0.0, 0.0))
    planned = _plan_worlds(road, ego, k, obs, rsum, cfg, ego_radius, dt,
                           goals, mask)
    full = planned[0].full
    plan_full = None if full is None else _path_plan(
        full, speed, road, t, dt)
    return plan_full, [
        {aid: _plan_change(None if p.full is None else p.full.xy,
                           p.ablated[j], road, k)
         for j, aid in enumerate(ids) if mask[j]}
        for p in planned]


def mean_and_variance(gammas: Sequence[float]) -> tuple[float, float]:
    """Sample mean and unbiased variance, as np.mean and np.var(ddof=1)
    compute them: the sum over n, and the sum of the squared deviations
    from that mean over n - 1.  Exactly (gamma, 0.0) when every sample is
    equal."""
    first = gammas[0]
    if all(g == first for g in gammas):   # False with a NaN, as in numpy
        return float(first), 0.0
    n = len(gammas)
    mean = _sum(gammas) / n
    return mean, _sum([(g - mean) * (g - mean) for g in gammas]) / (n - 1)


def _sample_stats(runs: Sequence[Mapping[str, tuple[float, bool]]]
                  ) -> dict[str, tuple[float, float]]:
    """mean_and_variance of each actor's gamma over the samples' runs of
    leave-one-out."""
    return {aid: mean_and_variance([r[aid][0] for r in runs])
            for aid in runs[0]}


def actor_importance(world: Mapping[str, Trajectory], actor_id: str,
                     ego: ActorState, t: int, k: int,
                     planner_cfg: PlannerConfig, operator: str = "euclid", *,
                     road: RoadMap, radii: Mapping[str, float],
                     ego_radius: float = 1.2, dt: float = 0.1,
                     lattice: LatticeConfig | None = None,
                     route: bool = False) -> float:
    """Replan with and without one actor under identical seeds and measure
    the plan change.

    operator="euclid" is this actor's entry of leave_one_out (paired
    stream; with route=True the goal is re-clamped per world): the
    mean per-waypoint displacement.  operator="kl" builds epsilon-floored
    lattice plan distributions for both worlds and returns their KL
    divergence.
    If one world admits no feasible plan and the other does, the euclid
    operator saturates at road_length / k per waypoint.
    """
    if actor_id not in world:
        raise ScenarioError(f"unknown actor id {actor_id!r}")

    if operator == "kl":
        if lattice is None:
            raise ScenarioError("operator='kl' needs a lattice config")
        return lattice_risks(road, ego, t, k, lattice, [world], radii,
                             ego_radius=ego_radius, dt=dt)[0].kl[actor_id]

    if operator != "euclid":
        raise ScenarioError(f"unknown operator {operator!r}")

    return leave_one_out(world, ego, t, k, planner_cfg, road=road,
                         radii=radii, ego_radius=ego_radius, dt=dt,
                         route=route, actor_ids=(actor_id,))[1][actor_id][0]


def monte_carlo_importance(worlds: Sequence[Mapping[str, Trajectory]],
                           ego: ActorState, t: int, k: int,
                           cfg: PlannerConfig, *, road: RoadMap,
                           radii: Mapping[str, float],
                           ego_radius: float = 1.2, dt: float = 0.1,
                           route: bool = False,
                           actor_ids: Sequence[str] | None = None
                           ) -> dict[str, tuple[float, float]]:
    """Sample mean and unbiased variance of each gamma of leave_one_out
    (of actor_ids, all actors by default) over the sampled worlds, every
    one planned under cfg, so each sample is a paired experiment, all in
    one kernel call.  The worlds hold the same actors, in one order."""
    if not worlds:
        raise ScenarioError("no sampled worlds")
    return _sample_stats(_leave_one_out(
        worlds, ego, t, k, cfg, road=road, radii=radii,
        ego_radius=ego_radius, dt=dt, route=route, actor_ids=actor_ids,
        first_sample=0)[1])


# ---------------------------------------------------------------------------
# Risk-aware plan selection
# ---------------------------------------------------------------------------

class SelectionResult(_Value):
    plan: Plan
    collision_fraction: float
    all_candidates_always_collide: bool


def min_risk_selection(candidates: PlanSet,
                       sampled_worlds: Sequence[Mapping[str, Trajectory]],
                       radii: Mapping[str, float], *,
                       ego_radius: float = 1.2) -> SelectionResult:
    """Pick the candidate with the lowest empirical collision frequency
    across sampled worlds; ties break on cost, then maneuver sequence."""
    if not candidates.plans:
        raise ScenarioError("no candidate plans")
    if not sampled_worlds:
        raise ScenarioError("no sampled worlds")
    scored = []
    rows = {}   # each world's collision rows, made once per plan span
    for idx, plan in enumerate(candidates.plans):
        traj = plan.trajectory
        span = (traj.start_tick, len(traj) - 1)
        if span not in rows:
            rows[span] = [world_arrays(w, radii, ego_radius, *span)
                          for w in sampled_worlds]
        hits = sum(_collides(traj, *r) for r in rows[span])
        scored.append((hits, plan.cost, plan.maneuver_seq or (), idx))
    scored.sort()
    hits, _, _, idx = scored[0]
    n = len(sampled_worlds)
    all_collide = all(s[0] == n for s in scored)
    return SelectionResult(candidates.plans[idx], hits / n, all_collide)
