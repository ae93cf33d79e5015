"""Closed-loop replanning simulation over a scripted scenario.

Every replan_every ticks the loop slices ground truth into per-actor
histories, predicts each npc's future, routes a goal for the ego on the
full predicted world (lane preference with hysteresis and a commit lock
while a lane change is in progress, follow-gap clamped advance), plans
with the sampling planner, and evaluates per-actor leave-one-out risk with
the planner seed held fixed across ablations.  The ego then executes the
first replan_every ticks of the plan.

Prediction error is reported retrospectively: the error of the prediction
made at tick t is recorded once ground truth through t+k exists, so the
final k ticks of a run carry no error values.  Phase attribution uses the
phase active at planning time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .planner import GoalSpec, LatticeConfig, PlannerConfig
from .prediction import predict_linear, sample_worlds, prediction_error, \
    PredictionConfig
from .risk import (
    SWITCH_HYSTERESIS,
    all_actor_importance_kl,
    all_actor_risk_exact,
    follow_advance,
    leave_one_out,
    monte_carlo_importance,
)
# bound here for perfbench/tracer.py, which wraps them in this module
from .planner import plan_sampling  # noqa: F401
from .risk import actor_importance, actor_risk_exact  # noqa: F401
from .scenario import EGO_ID, ActorState, Scenario, require_int


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    horizon: int = 40
    replan_every: int = 15
    samples: int = 0
    noise_accel: float = 0.35
    noise_yawrate: float = 0.02
    # "euclid": gamma_euclid; "kl": gamma_kl and "exact": rho_exact, both
    # on `lattice`
    operators: tuple[str, ...] = ("euclid",)
    lattice: Optional[LatticeConfig] = None
    iteration_budget: int = 700

    def __post_init__(self):
        require_int("seed", self.seed)
        require_int("replan_every", self.replan_every, 1)
        require_int("horizon", self.horizon, self.replan_every)
        require_int("iteration_budget", self.iteration_budget, 1)
        require_int("samples", self.samples, 0)
        # the noise-sigma rule lives in PredictionConfig, which raises
        PredictionConfig(self.noise_accel, self.noise_yawrate)
        bad = set(self.operators) - {"euclid", "kl", "exact"}
        if bad:
            raise ValueError(f"unknown operators {sorted(bad)}")
        if self.lattice is None and {"kl", "exact"} & set(self.operators):
            raise ValueError("operators 'kl' and 'exact' need a lattice")
        if self.lattice is not None and self.lattice.horizon != self.horizon:
            raise ValueError(
                f"lattice covers {self.lattice.horizon} ticks but horizon "
                f"is {self.horizon}")


@dataclass(frozen=True)
class StepRecord:
    tick: int
    phase: str
    actor_id: str
    gamma_euclid: Optional[float]
    gamma_kl: Optional[float]
    rho_exact: Optional[float]
    mean_gamma: Optional[float]
    var_gamma: Optional[float]
    prediction_error: Optional[float]
    ego_lane: int
    plan_partial: bool


@dataclass(frozen=True)
class RunResult:
    records: tuple[StepRecord, ...]
    ego_states: tuple[ActorState, ...]   # one per replan tick
    replan_ticks: tuple[int, ...]


def _phase_at(s: Scenario, tick: int) -> str:
    for p in s.phases:
        if p.start_tick <= tick < p.end_tick:
            return p.name
    if s.phases and tick >= s.phases[-1].end_tick:
        return s.phases[-1].name
    return ""


def _planner_seed(seed: int, t: int) -> int:
    ss = np.random.SeedSequence(entropy=seed & (2 ** 64 - 1), spawn_key=(t,))
    return int(ss.generate_state(1, np.uint64)[0])


def _pick_lane(world, ego, s, base_advance, speed, preferred):
    """Lane preference with hysteresis; adjacent switches only."""
    road = s.map
    candidates = [l for l in (preferred - 1, preferred, preferred + 1)
                  if 0 <= l < road.lane_count]
    utility = {
        l: follow_advance(world, ego, road, l, base_advance, speed)
        for l in candidates
    }
    # prefer the current lane, break remaining ties leftward (overtaking
    # side); switch only on a clear gain
    best = max(candidates,
               key=lambda l: (utility[l], l == preferred, l))
    if best != preferred and \
            utility[best] > utility[preferred] + SWITCH_HYSTERESIS:
        return best
    return preferred


def run_simulation(s: Scenario, cfg: RunConfig = RunConfig()) -> RunResult:
    road = s.map
    ego = s.ego_initial
    ego_radius = s.radius_of(EGO_ID)
    radii = dict(s.actor_radius)
    speed = min(ego.speed if ego.speed > 0 else 0.7 * road.speed_limit,
                road.speed_limit)
    base_advance = cfg.horizon * s.dt * speed
    preferred = road.lane_of(ego.position_y)
    env = dict(road=road, radii=radii, ego_radius=ego_radius, dt=s.dt,
               route=True)
    pcfg = PredictionConfig(cfg.noise_accel, cfg.noise_yawrate,
                            sample_count=cfg.samples, seed=cfg.seed) \
        if cfg.samples else None

    records: list[StepRecord] = []
    ego_states: list[ActorState] = []
    replan_ticks: list[int] = []

    for t in range(0, s.horizon_ticks, cfg.replan_every):
        k_eff = min(cfg.horizon, s.horizon_ticks - t)
        if k_eff < 1:
            break
        replan_ticks.append(t)
        ego_states.append(ego)
        phase = _phase_at(s, t)
        ego_lane = road.lane_of(ego.position_y)

        histories = {aid: tr.window(t, 0)
                     for aid, tr in s.npc_trajectories.items()}
        world = {aid: predict_linear(h, k_eff)
                 for aid, h in histories.items()}

        # route on the full predicted world; commit while mid-transition
        mid_change = abs(
            ego.position_y - road.lane_center(preferred)
        ) > 0.25 * road.lane_width
        if not mid_change:
            preferred = _pick_lane(world, ego, s, base_advance, speed,
                                   preferred)

        base_cfg = PlannerConfig(
            iteration_budget=cfg.iteration_budget,
            seed=_planner_seed(cfg.seed, t),
            goal=GoalSpec(base_advance, preferred), target_speed=speed)
        plan_full, gammas = leave_one_out(world, ego, t, k_eff, base_cfg,
                                          **env)

        kl_values = {}
        rho_values = {}
        lattice = cfg.lattice
        if lattice is not None and lattice.horizon == k_eff:
            if "kl" in cfg.operators:
                kl_values = all_actor_importance_kl(
                    world, ego, t, k_eff, lattice, road=road,
                    radii=radii, ego_radius=ego_radius, dt=s.dt)
            if "exact" in cfg.operators:
                rho_values = all_actor_risk_exact(
                    s, t, k_eff, lattice, ego=ego).per_actor

        mc_stats = monte_carlo_importance(
            sample_worlds(histories, k_eff, pcfg), ego, t, k_eff, base_cfg,
            **env) if pcfg is not None else {}

        err = {}
        if t + cfg.horizon <= s.horizon_ticks:   # then k_eff == horizon
            err = {aid: prediction_error(
                       pred, s.npc_trajectories[aid].window(t, cfg.horizon))
                   for aid, pred in world.items()}

        for aid, (gamma, saturated) in gammas.items():
            mean_g, var_g = mc_stats.get(aid, (None, None))
            records.append(StepRecord(
                tick=t, phase=phase, actor_id=aid,
                gamma_euclid=gamma if "euclid" in cfg.operators else None,
                gamma_kl=kl_values.get(aid),
                rho_exact=rho_values.get(aid),
                mean_gamma=mean_g, var_gamma=var_g,
                prediction_error=err.get(aid),
                ego_lane=ego_lane,
                plan_partial=bool(
                    (plan_full.partial if plan_full else True)
                    or saturated),
            ))

        steps = min(cfg.replan_every, k_eff)
        if plan_full is not None:
            ego = plan_full.trajectory.states[steps]
        # with no feasible plan the ego holds position

    return RunResult(tuple(records), tuple(ego_states), tuple(replan_ticks))
