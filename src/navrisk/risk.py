"""Per-actor risk quantification.

Three layers:

* exact set-reduction risk from lattice plan counts: the total risk is the
  normalized loss of navigable plans caused by all actors, the per-actor
  risk is the normalized count of plans that reappear when that actor is
  ablated (computed as (|Z w/o i| - |Z|) / |Z empty| so it is nonnegative
  under subset semantics);
* leave-one-out importance: replan with and without one actor, all
  randomness and routing inputs held fixed, and measure the plan change
  with a per-waypoint Euclidean operator or a KL divergence over lattice
  plan distributions;
* Monte-Carlo risk: the same importance evaluated across sampled futures,
  reported as sample mean and unbiased variance.

Ablating one of two actors that redundantly block the same plans changes
nothing, so per-actor risks are not additive and may all be zero while the
total risk is large (ablation masking).
"""

from __future__ import annotations

import math
from itertools import compress
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .planner import (
    GoalSpec,
    LatticeConfig,
    Plan,
    PlannerConfig,
    PlanSet,
    PlanningInfeasible,
    collision_check,
    enumerate_plans,  # noqa: F401 (wrapped by perfbench/tracer.py)
    lattice_blockers,
    plan_sampling,
)
from .prediction import PredictionConfig, sample_worlds
# bound here for perfbench/tracer.py, which wraps it in this module
from .prediction import predict_linear  # noqa: F401
from .scenario import (
    EGO_ID,
    ActorState,
    RoadMap,
    Scenario,
    ScenarioError,
    Trajectory,
    slice_world,
)

KL_EPSILON = 1e-6
UNIVERSE_CAP = 1_000_000


class DegenerateScenario(Exception):
    """The map itself admits no plan (|Z empty| = 0)."""


class LatticeCapExceeded(Exception):
    """The lattice universe exceeds the configured tractability cap."""


# ---------------------------------------------------------------------------
# Difference operators
# ---------------------------------------------------------------------------

def traj_difference_euclidean(a: Trajectory, b: Trajectory) -> float:
    """Mean Euclidean position distance per waypoint.

    Unequal spans are aligned by holding the shorter trajectory's final
    state; equal-horizon inputs (the normal case: both plans span [t, t+k])
    make this a pseudometric.
    """
    xa, xb = a.xy, b.xy
    n = max(len(xa), len(xb))
    if len(xa) < n:
        xa = np.vstack([xa, np.repeat(xa[-1:], n - len(xa), axis=0)])
    if len(xb) < n:
        xb = np.vstack([xb, np.repeat(xb[-1:], n - len(xb), axis=0)])
    d = xa - xb
    return float(np.mean(np.hypot(d[:, 0], d[:, 1])))


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
                         feasible: Sequence[tuple[str, ...]],
                         eps: float = KL_EPSILON) -> "PlanDistribution":
        """Uniform over feasible plans, floored by eps over the universe.

        With no feasible plan this degenerates to the floor itself (uniform
        over the universe), which keeps the divergence finite.
        """
        universe = tuple(universe)
        fs = set(feasible)
        if not universe:
            raise ValueError("empty universe")
        u = np.array([1.0 / len(fs) if s in fs else 0.0 for s in universe]) \
            if fs else np.zeros(len(universe))
        p = (u + eps) / (1.0 + len(universe) * eps) if fs else \
            np.full(len(universe), 1.0 / len(universe))
        return cls(universe, p)


def plan_divergence_kl(p: PlanDistribution, q: PlanDistribution) -> float:
    """KL(p || q) in nats over a shared universe; >= 0, zero iff p = q."""
    if p.support != q.support:
        raise ValueError("distributions must share the same plan universe")
    pa, qa = p.probabilities, q.probabilities
    return float(np.sum(pa * np.log(pa / qa)))


# ---------------------------------------------------------------------------
# Exact set-reduction risk
# ---------------------------------------------------------------------------

def check_cap(lattice: LatticeConfig, cap: int = UNIVERSE_CAP):
    """Raise LatticeCapExceeded if the lattice has over cap sequences."""
    if len(lattice.maneuvers) ** lattice.decision_steps > cap:
        raise LatticeCapExceeded(
            f"{len(lattice.maneuvers)}^{lattice.decision_steps} sequences "
            f"exceed the cap of {cap}")


@dataclass(frozen=True)
class ExactRisk:
    """Plan counts of one lattice window and the risks they give."""

    z_empty: int                  # |Z empty|: in-bounds plans
    z: int                        # |Z|: plans no actor blocks
    total: float                  # (|Z empty| - |Z|) / |Z empty|
    per_actor: Mapping[str, float]  # (|Z without i| - |Z|) / |Z empty|


def _survivors(blockers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the plans no actor blocks (U,) and of the plans whose only
    blocker is actor j (U, m): ablating j frees exactly the latter."""
    n = blockers.sum(axis=1)
    return n == 0, blockers & (n == 1)[:, None]


def all_actor_risk_exact(s: Scenario, t: int, k: int,
                         lattice: LatticeConfig,
                         ego: Optional[ActorState] = None,
                         margin: float = 0.5,
                         cap: int = UNIVERSE_CAP) -> ExactRisk:
    """Exact set-reduction counts of the ground-truth world slice for the
    total and every npc actor, from one (plans x actors) blocker matrix:
    |Z| counts its rows with no blocker and |Z without i| adds the rows
    whose only blocker is i."""
    check_cap(lattice, cap)
    ego = ego if ego is not None else s.ego_initial
    world = slice_world(s, t, k)
    seqs, _, blockers = lattice_blockers(
        s.map, ego, t, k, lattice, world, s.actor_radius,
        s.radius_of(EGO_ID), margin, s.dt)
    if not seqs:
        raise DegenerateScenario("the map admits no plan (|Z empty| = 0)")
    free, alone = _survivors(blockers)
    n, z = len(seqs), int(np.count_nonzero(free))
    freed = np.count_nonzero(alone, axis=0).tolist()   # |Z without i| - |Z|
    return ExactRisk(n, z, (n - z) / n,
                     {aid: f / n for aid, f in zip(world, freed)})


def total_risk_exact(s: Scenario, t: int, k: int, lattice: LatticeConfig,
                     ego: Optional[ActorState] = None, margin: float = 0.5,
                     cap: int = UNIVERSE_CAP) -> float:
    """(|Z empty| - |Z|) / |Z empty| over the ground-truth world slice."""
    return all_actor_risk_exact(s, t, k, lattice, ego, margin, cap).total


def actor_risk_exact(s: Scenario, actor_id: str, t: int, k: int,
                     lattice: LatticeConfig, ego: Optional[ActorState] = None,
                     margin: float = 0.5, cap: int = UNIVERSE_CAP) -> float:
    """(|Z without i| - |Z|) / |Z empty|: the plan count actor i suppresses."""
    if actor_id not in s.npc_trajectories:
        raise ScenarioError(f"unknown actor id {actor_id!r}")
    return all_actor_risk_exact(s, t, k, lattice, ego, margin,
                                cap).per_actor[actor_id]


# ---------------------------------------------------------------------------
# Routing: follow-gap clamped goal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RouterConfig:
    """Deterministic goal placement used by the replanning loop.

    The goal advance in the preferred lane is clamped by the lane's
    occupants: an occupant moving slower than the ego limits the reachable
    advance to (gap - follow_gap) * v / (v - v_occ), the distance at which
    the ego would close to follow_gap.  Occupant terms combine through a
    soft minimum with temperature `softness` so that every occupant of the
    lane influences the goal continuously, not only the nearest one.
    """

    follow_gap: float = 6.0
    softness: float = 12.0
    min_advance: float = 2.0
    switch_hysteresis: float = 5.0


def follow_advance(world: Mapping[str, Trajectory], ego: ActorState,
                   road: RoadMap, lane: int, base_advance: float,
                   ego_speed: float, router: RouterConfig) -> float:
    """Clamped goal advance in one lane given predicted occupants."""
    lo = lane * road.lane_width
    hi = lo + road.lane_width
    terms = [math.exp(-base_advance / router.softness)]
    for traj in world.values():
        xy = traj.xy
        in_band = (xy[:, 1] >= lo) & (xy[:, 1] < hi)
        ahead = (xy[:, 0] > ego.position_x) & (xy[:, 0] <= road.road_length)
        if not np.any(in_band & ahead):
            continue
        gap = float(xy[0, 0]) - ego.position_x
        v_occ = (float(xy[-1, 0]) - float(xy[0, 0])) / \
            ((len(xy) - 1) * traj.dt) if len(xy) > 1 else traj.states[0].speed
        if v_occ >= ego_speed - 1e-9:
            continue  # never caught within any horizon
        fa = max(0.0, (gap - router.follow_gap) * ego_speed
                 / (ego_speed - v_occ))
        terms.append(math.exp(-fa / router.softness))
    adv = -router.softness * math.log(sum(terms))
    return float(min(max(adv, router.min_advance), base_advance))


def route_planner_cfg(cfg: PlannerConfig, world: Mapping[str, Trajectory],
                      ego: ActorState, road: RoadMap,
                      router: RouterConfig) -> PlannerConfig:
    """Clamp cfg.goal.advance for this world; the sample window keeps the
    unclamped basis so paired runs share one stream."""
    base = cfg.sample_advance if cfg.sample_advance is not None \
        else cfg.goal.advance
    speed = min(cfg.target_speed, road.speed_limit)
    adv = follow_advance(world, ego, road, cfg.goal.lane, base, speed, router)
    return replace(cfg, goal=GoalSpec(adv, cfg.goal.lane), sample_advance=base)


# ---------------------------------------------------------------------------
# Leave-one-out importance
# ---------------------------------------------------------------------------

def _plan_or_none(world: Mapping[str, Trajectory], ego: ActorState, t: int,
                  k: int, cfg: PlannerConfig, *, road: RoadMap,
                  radii: Mapping[str, float], ego_radius: float,
                  dt: float, router: Optional[RouterConfig]
                  ) -> Optional[Plan]:
    """plan_sampling on world, with the goal re-clamped for that world when
    a router is given; None when the world admits no plan."""
    if router is not None:
        cfg = route_planner_cfg(cfg, world, ego, road, router)
    try:
        return plan_sampling(road, ego, t, k, world, cfg, radii, ego_radius,
                             dt)
    except PlanningInfeasible:
        return None


def _plan_change(plan_full: Optional[Plan], plan_m: Optional[Plan],
                 road: RoadMap, k: int) -> tuple[float, bool]:
    """(gamma, saturated) between the full-world and ablated plans: the mean
    per-waypoint displacement, 0 if neither world admits a plan, and
    road_length / k (saturated) if exactly one does."""
    if plan_full is None and plan_m is None:
        return 0.0, False
    if plan_full is None or plan_m is None:
        return road.road_length / k, True
    return traj_difference_euclidean(plan_full.trajectory,
                                     plan_m.trajectory), False


def _without(world: Mapping[str, Trajectory], actor_id: str
             ) -> dict[str, Trajectory]:
    return {a: tr for a, tr in world.items() if a != actor_id}


def leave_one_out(world: Mapping[str, Trajectory], ego: ActorState, t: int,
                  k: int, cfg: PlannerConfig, *, road: RoadMap,
                  radii: Mapping[str, float], ego_radius: float = 1.2,
                  dt: float = 0.1, router: Optional[RouterConfig] = None
                  ) -> tuple[Optional[Plan], dict[str, tuple[float, bool]]]:
    """operator="euclid" importance of every actor of world: plan the full
    world once, then each world without one actor under the same planner
    seed, and return the full plan (None if infeasible) with each actor's
    (gamma, saturated)."""
    env = dict(road=road, radii=radii, ego_radius=ego_radius, dt=dt,
               router=router)
    plan_full = _plan_or_none(world, ego, t, k, cfg, **env)
    return plan_full, {
        aid: _plan_change(plan_full, _plan_or_none(
            _without(world, aid), ego, t, k, cfg, **env), road, k)
        for aid in world}


def mean_and_variance(gammas: Sequence[float]) -> tuple[float, float]:
    """Sample mean and unbiased variance; exactly (gamma, 0.0) when every
    sample is equal."""
    arr = np.array(gammas)
    if float(arr.max()) == float(arr.min()):
        return float(arr[0]), 0.0
    return float(np.mean(arr)), float(np.var(arr, ddof=1))


def all_actor_importance_kl(world: Mapping[str, Trajectory],
                            ego: ActorState, t: int, k: int,
                            lattice: LatticeConfig, *, road: RoadMap,
                            radii: Mapping[str, float],
                            ego_radius: float = 1.2, dt: float = 0.1,
                            margin: float = 0.5) -> dict[str, float]:
    """operator="kl" importance of every actor of world from one lattice
    render: KL(p || q_i) between the epsilon-floored uniform distributions
    over the plans of the full world (p) and of the world without actor i
    (q_i), both over the empty-world universe."""
    check_cap(lattice)
    seqs, _, blockers = lattice_blockers(road, ego, t, k, lattice, world,
                                         radii, ego_radius, margin, dt)
    free, alone = _survivors(blockers)
    p = PlanDistribution.uniform_feasible(seqs, compress(seqs, free))
    return {aid: plan_divergence_kl(p, PlanDistribution.uniform_feasible(
                seqs, compress(seqs, free | alone[:, j])))
            for j, aid in enumerate(world)}


def actor_importance(world: Mapping[str, Trajectory], actor_id: str,
                     ego: ActorState, t: int, k: int,
                     planner_cfg: PlannerConfig, operator: str = "euclid", *,
                     road: RoadMap, radii: Mapping[str, float],
                     ego_radius: float = 1.2, dt: float = 0.1,
                     lattice: Optional[LatticeConfig] = None,
                     router: Optional[RouterConfig] = None) -> float:
    """Replan with and without one actor under identical seeds and measure
    the plan change.

    operator="euclid" runs the sampling planner twice (paired stream; when a
    router is given the goal is re-clamped per world) and returns the mean
    per-waypoint displacement.  operator="kl" builds epsilon-floored lattice
    plan distributions for both worlds and returns their KL divergence.
    If one world admits no feasible plan and the other does, the euclid
    operator saturates at road_length / k per waypoint.
    """
    if actor_id not in world:
        raise ScenarioError(f"unknown actor id {actor_id!r}")

    if operator == "kl":
        if lattice is None:
            raise ScenarioError("operator='kl' needs a lattice config")
        return all_actor_importance_kl(
            world, ego, t, k, lattice, road=road, radii=radii,
            ego_radius=ego_radius, dt=dt,
            margin=planner_cfg.safety_margin)[actor_id]

    if operator != "euclid":
        raise ScenarioError(f"unknown operator {operator!r}")

    env = dict(road=road, radii=radii, ego_radius=ego_radius, dt=dt,
               router=router)
    plan_full = _plan_or_none(world, ego, t, k, planner_cfg, **env)
    plan_m = _plan_or_none(_without(world, actor_id), ego, t, k, planner_cfg,
                           **env)
    return _plan_change(plan_full, plan_m, road, k)[0]


def expected_actor_risk(histories: Mapping[str, Trajectory], actor_id: str,
                        ego: ActorState, t: int, k: int,
                        pred_cfg: PredictionConfig,
                        planner_cfg: PlannerConfig,
                        operator: str = "euclid", *,
                        road: RoadMap, radii: Mapping[str, float],
                        ego_radius: float = 1.2, dt: float = 0.1,
                        lattice: Optional[LatticeConfig] = None,
                        router: Optional[RouterConfig] = None,
                        sampler: Optional[Callable] = None
                        ) -> tuple[float, float]:
    """Sample mean and unbiased variance of the importance over joint
    prediction samples.

    Worlds are drawn by `sampler(histories, k, pred_cfg)` (default: the
    keyed Gaussian stream of sample_predictions) and evaluated with the
    planner seed held fixed, so sample j of the full and ablated worlds is
    a paired experiment.
    """
    draw = sampler if sampler is not None else sample_worlds
    worlds = draw(histories, k, pred_cfg)
    if not worlds:
        raise ScenarioError("sampler produced no worlds")
    gammas = []
    for j, w in enumerate(worlds):
        try:
            gammas.append(actor_importance(
                w, actor_id, ego, t, k, planner_cfg, operator, road=road,
                radii=radii, ego_radius=ego_radius, dt=dt, lattice=lattice,
                router=router))
        except ScenarioError as e:
            raise type(e)(f"sample {j}: {e}") from e
    return mean_and_variance(gammas)


# ---------------------------------------------------------------------------
# Risk-aware plan selection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelectionResult:
    plan: Plan
    collision_fraction: float
    all_candidates_always_collide: bool


def min_risk_selection(candidates: PlanSet,
                       sampled_worlds: Sequence[Mapping[str, Trajectory]],
                       radii: Mapping[str, float], ego_radius: float = 1.2,
                       margin: float = 0.5) -> SelectionResult:
    """Pick the candidate with the lowest empirical collision frequency
    across sampled worlds; ties break on cost, then maneuver sequence."""
    if not candidates.plans:
        raise ScenarioError("no candidate plans")
    if not sampled_worlds:
        raise ScenarioError("no sampled worlds")
    scored = []
    for idx, plan in enumerate(candidates.plans):
        hits = sum(
            collision_check(plan.trajectory, w, radii, ego_radius, margin)
            for w in sampled_worlds)
        scored.append((hits, plan.cost, plan.maneuver_seq or (), idx))
    scored.sort()
    hits, _, _, idx = scored[0]
    n = len(sampled_worlds)
    all_collide = all(s[0] == n for s in scored)
    return SelectionResult(candidates.plans[idx], hits / n, all_collide)
