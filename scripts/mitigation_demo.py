#!/usr/bin/env python3
"""Risk-aware proactive mitigation demo.

A case-study variant keeps the ego following the cut-in actor (it merges
without slowing, so the ego never changes lanes).  Shortly after the
emergency braking starts, the linear prediction still shows the lead
rolling on, so the cheapest lattice plan is to keep following -- which
collides with the realized hard stop.  Selecting by empirical collision
frequency over sampled futures picks the lane change instead and survives
the forward check against ground truth.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from navrisk.planner import LatticeConfig, collision_check, enumerate_plans
from navrisk.prediction import PredictionConfig, sample_worlds
from navrisk.risk import min_risk_selection
from navrisk.scenario import (
    EGO_ID,
    ActorState,
    CaseStudyParams,
    generate_case_study,
    slice_world,
)


def run(samples=40, seed=9):
    params = CaseStudyParams(cutin_merge_speed=5.5, lead_slow_speed=None,
                             near_offset=45.0, far_offset=51.0)
    s = generate_case_study(params)
    brake_start = next(p for p in s.phases if p.name == "s5").start_tick
    t, k = brake_start + 5, 30
    cutin = s.npc_trajectories["cutin"].states[t]
    ego = ActorState(cutin.position_x - 11.0, s.map.lane_center(1), 0.0, 9.0)
    print(f"braking starts at tick {brake_start}; planning at tick {t}")
    print(f"ego 11.0 m behind the braking actor "
          f"(its speed is already down to {cutin.speed:.2f} m/s)")

    lattice = LatticeConfig(2, ("keep", "shift_left"), 15)
    candidates = enumerate_plans(s.map, ego, t, k, lattice, dt=s.dt)
    naive = min(candidates.plans, key=lambda p: p.cost)

    hists = {aid: tr.window(0, t) for aid, tr in s.npc_trajectories.items()}
    worlds = sample_worlds(
        hists, k, PredictionConfig(0.8, 0.02, sample_count=samples,
                                   seed=seed))
    sel = min_risk_selection(candidates, worlds, s.actor_radius,
                             ego_radius=s.radius_of(EGO_ID))
    truth = slice_world(s, t, k)
    naive_hits = collision_check(naive.trajectory, truth, s.actor_radius,
                                 s.radius_of(EGO_ID))
    sel_hits = collision_check(sel.plan.trajectory, truth, s.actor_radius,
                               s.radius_of(EGO_ID))

    print(f"\n{'plan':24} {'cost':>7} {'sampled collision':>18} "
          f"{'vs ground truth':>16}")
    for plan in candidates.plans:
        frac = sum(
            collision_check(plan.trajectory, w, s.actor_radius,
                            s.radius_of(EGO_ID))
            for w in worlds) / len(worlds)
        hit = collision_check(plan.trajectory, truth, s.actor_radius,
                              s.radius_of(EGO_ID))
        tag = []
        if plan is naive:
            tag.append("min-cost")
        if plan.maneuver_seq == sel.plan.maneuver_seq:
            tag.append("selected")
        name = "+".join(plan.maneuver_seq) + \
            (f"  [{', '.join(tag)}]" if tag else "")
        print(f"{name:24} {plan.cost:7.2f} {frac:18.2f} "
              f"{'COLLIDES' if hit else 'clear':>16}")

    ok = naive_hits and not sel_hits and \
        sel.plan.maneuver_seq != naive.maneuver_seq
    print(f"\nmitigation {'avoids the collision: OK' if ok else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(run())
