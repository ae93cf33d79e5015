"""Closed-loop replanning simulation over a scripted scenario.

Every replan_every ticks the loop slices ground truth into per-actor
histories, predicts each npc's future, asks risk for the ego's lane on
the full predicted world (risk._pick_lane), plans with the sampling
planner, and evaluates per-actor leave-one-out risk with the planner seed
held fixed across ablations, on the predicted world and on every sampled
world, each routed on its own occupants of that lane, in one kernel call.
The ego then executes the first replan_every ticks of the plan.

Prediction error is reported retrospectively: the error of the prediction
made at tick t is recorded once ground truth through t+k exists, so the
final k ticks of a run carry no error values.  Phase attribution uses the
phase active at planning time.
"""

from __future__ import annotations

from ._kernel import address, kernel, seed_words, zeros
from .planner import GoalSpec, LatticeConfig, PlannerConfig
from .prediction import predict_linear, sample_worlds, prediction_error, \
    PredictionConfig
from .risk import _leave_one_out, _pick_lane, _sample_stats, lattice_risks
# bound here for perfbench/tracer.py, which wraps them in this module
from .planner import plan_sampling  # noqa: F401
from .risk import actor_importance, actor_risk_exact  # noqa: F401
from .scenario import (
    EGO_ID, ActorState, Scenario, _Value, require_int, slice_world)


class RunConfig(_Value):
    seed: int = 42
    horizon: int = 40
    replan_every: int = 15
    samples: int = 0
    noise_accel: float = 0.35
    noise_yawrate: float = 0.02
    # "euclid": gamma_euclid; "kl": gamma_kl and "exact": rho_exact, both
    # on `lattice`
    operators: tuple[str, ...] = ("euclid",)
    lattice: LatticeConfig | None = None
    iteration_budget: int = 700

    def __post_init__(self):
        # PredictionConfig holds the seed and noise-sigma rules and
        # PlannerConfig the budget's, and each raises
        PredictionConfig(self.noise_accel, self.noise_yawrate,
                         seed=self.seed)
        PlannerConfig(self.iteration_budget)
        require_int("replan_every", self.replan_every, 1)
        require_int("horizon", self.horizon, self.replan_every)
        require_int("samples", self.samples, 0)
        if isinstance(self.operators, str):
            raise ValueError(f"operators must be a sequence of names, not "
                             f"the string {self.operators!r}")
        object.__setattr__(self, "operators", tuple(self.operators))
        bad = set(self.operators) - {"euclid", "kl", "exact"}
        if bad:
            raise ValueError(f"unknown operators {sorted(bad)}")
        if self.lattice is None and {"kl", "exact"} & set(self.operators):
            raise ValueError("operators 'kl' and 'exact' need a lattice")
        if self.lattice is not None and self.lattice.horizon != self.horizon:
            raise ValueError(
                f"lattice covers {self.lattice.horizon} ticks but horizon "
                f"is {self.horizon}")


class StepRecord(_Value):
    tick: int
    phase: str
    actor_id: str
    gamma_euclid: float | None
    gamma_kl: float | None
    rho_exact: float | None
    mean_gamma: float | None
    var_gamma: float | None
    prediction_error: float | None
    ego_lane: int
    plan_partial: bool


class RunResult(_Value):
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
    """numpy's SeedSequence(seed, spawn_key=(t,))
    .generate_state(1, np.uint64)[0], computed by the kernel."""
    entropy, spawn = seed_words(seed), seed_words(t)
    out = zeros("Q", 1)
    kernel().navrisk_seed_state(entropy, len(entropy), spawn, len(spawn),
                                address(out), 1)
    return out[0]


def run_simulation(s: Scenario, cfg: RunConfig = RunConfig()) -> RunResult:
    road = s.map
    ego = s.ego_initial
    ego_radius = s.radius_of(EGO_ID)
    radii = dict(s.actor_radius)
    speed = min(ego.speed if ego.speed > 0 else 0.7 * road.speed_limit,
                road.speed_limit)
    base_advance = cfg.horizon * s.dt * speed
    preferred = road.lane_of(ego.position_y)
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

        preferred = _pick_lane(world, ego, road, speed, base_advance,
                               preferred)
        base_cfg = PlannerConfig(
            iteration_budget=cfg.iteration_budget,
            seed=_planner_seed(cfg.seed, t),
            goal=GoalSpec(base_advance, preferred), target_speed=speed)
        # one kernel call plans the predicted world and every sampled
        # world, each routed on its own occupants of the preferred lane
        samples = sample_worlds(histories, k_eff, pcfg) \
            if pcfg is not None else []
        plan_full, (gammas, *runs) = _leave_one_out(
            [world, *samples], ego, t, k_eff, base_cfg, road=road,
            radii=radii, ego_radius=ego_radius, dt=s.dt, route=True,
            first_sample=1)
        mc_stats = _sample_stats(runs) if runs else {}

        # one lattice render serves the KL world (predicted) and the exact
        # world (ground truth)
        lattice_worlds = {}
        if cfg.lattice is not None and cfg.lattice.horizon == k_eff:
            if "kl" in cfg.operators:
                lattice_worlds["kl"] = world
            if "exact" in cfg.operators:
                lattice_worlds["exact"] = slice_world(s, t, k_eff)
        risks = dict(zip(lattice_worlds, lattice_risks(
            road, ego, t, k_eff, cfg.lattice, list(lattice_worlds.values()),
            radii, ego_radius=ego_radius, dt=s.dt))) if lattice_worlds else {}
        kl_values = risks["kl"].kl if "kl" in risks else {}
        rho_values = risks["exact"].per_actor if "exact" in risks else {}

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
        if plan_full is not None:   # the plan's row at tick t + steps
            i = 4 * steps
            ego = ActorState(*plan_full.trajectory.rows[i:i + 4])
        # with no feasible plan the ego holds position

    return RunResult(tuple(records), tuple(ego_states), tuple(replan_ticks))
