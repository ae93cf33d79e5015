"""Command-line front end.

Subcommands:
  run        simulate a scenario with replanning and emit risk tables/plots
  oracle     exact lattice risk table for one planning window
  casestudy  generate the five-phase case-study scenario document

Exit codes: 0 success, 2 configuration error, 3 scenario validation error,
4 degenerate scenario (the empty-world plan set is empty), 5 lattice cap
exceeded.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .planner import LatticeConfig, MANEUVERS
from .report import phase_summary_csv, run_csv, scatter_svg, timeline_svg
from .risk import (
    DegenerateScenario,
    LatticeCapExceeded,
    all_actor_risk_exact,
    check_cap,
)
# bound here for perfbench/tracer.py, which wraps them in this module
from .risk import actor_risk_exact, total_risk_exact  # noqa: F401
from .scenario import (
    CaseStudyParams,
    ScenarioError,
    generate_case_study,
    load_scenario,
    save_scenario,
)
from .simulate import RunConfig, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SCENARIO = 3
EXIT_DEGENERATE = 4
EXIT_CAP = 5


def _load_or_generate(args) -> "Scenario":
    if args.scenario is not None:
        return load_scenario(Path(args.scenario).read_bytes())
    return generate_case_study()


def _add_run_parser(sub):
    p = sub.add_parser("run", help="replanning simulation with risk report")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", help="scenario document path")
    src.add_argument("--casestudy-defaults", action="store_true",
                     help="use the built-in case study")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--horizon", type=int, default=40,
                   help="prediction/planning horizon in ticks")
    p.add_argument("--replan-every", type=int, default=15)
    p.add_argument("--samples", type=int, default=0,
                   help="Monte-Carlo worlds per replan tick (0 = off)")
    p.add_argument("--noise-accel", type=float, default=0.35)
    p.add_argument("--noise-yawrate", type=float, default=0.02)
    p.add_argument("--operator", choices=("euclid", "kl", "both"),
                   default="euclid")
    p.add_argument("--exact-lattice", action="store_true",
                   help="also compute exact per-actor set-reduction risk")
    p.add_argument("--lattice-steps", type=int, default=4)
    p.add_argument("--budget", type=int, default=700,
                   help="sampling planner iteration budget")
    p.add_argument("--out", required=True, help="output directory")


def _add_oracle_parser(sub):
    p = sub.add_parser("oracle", help="exact set-reduction risk table")
    p.add_argument("--scenario", required=True)
    p.add_argument("--t", type=int, default=0)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--maneuvers",
                   default="keep,shift_left,shift_right",
                   help=f"comma list from {','.join(MANEUVERS)}")


def _add_casestudy_parser(sub):
    p = sub.add_parser("casestudy", help="write the case-study scenario")
    p.add_argument("--out", required=True)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--brake-decel", type=float, default=None)
    p.add_argument("--lane-change-duration", type=float, default=None)
    p.add_argument("--steady-ticks", type=int, default=None)
    p.add_argument("--steady2-ticks", type=int, default=None)
    p.add_argument("--tail-ticks", type=int, default=None)
    p.add_argument("--ego-speed", type=float, default=None)
    p.add_argument("--no-merge-slowdown", action="store_true",
                   help="the lane-change actor keeps its cruise speed")
    p.add_argument("--no-brake", action="store_true",
                   help="omit the emergency-braking phase")


def cmd_run(args) -> int:
    try:
        scenario = _load_or_generate(args)
    except (ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCENARIO

    operators = ("euclid", "kl") if args.operator == "both" \
        else (args.operator,)
    if args.exact_lattice:
        operators += ("exact",)
    lattice = None
    if "kl" in operators or "exact" in operators:
        if args.lattice_steps < 1:
            print("error: --lattice-steps must be >= 1", file=sys.stderr)
            return EXIT_CONFIG
        if args.horizon < 1 or args.horizon % args.lattice_steps:
            print("error: --horizon must be a positive multiple of "
                  "--lattice-steps", file=sys.stderr)
            return EXIT_CONFIG
        lattice = LatticeConfig(
            args.lattice_steps, ("keep", "shift_left", "shift_right"),
            args.horizon // args.lattice_steps)
        try:
            check_cap(lattice)
        except LatticeCapExceeded as e:
            print(f"error: --lattice-steps: {e}", file=sys.stderr)
            return EXIT_CAP
    try:
        cfg = RunConfig(
            seed=args.seed, horizon=args.horizon,
            replan_every=args.replan_every, samples=args.samples,
            noise_accel=args.noise_accel, noise_yawrate=args.noise_yawrate,
            operators=operators, lattice=lattice,
            iteration_budget=args.budget)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = run_simulation(scenario, cfg)
    except DegenerateScenario as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCENARIO

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run.csv").write_text(run_csv(result))
    (out / "phase_summary.csv").write_text(phase_summary_csv(result))
    (out / "scatter.svg").write_text(scatter_svg(result))
    (out / "risk_timeline.svg").write_text(timeline_svg(result))
    print(f"wrote {out / 'run.csv'} ({len(result.records)} records)")
    return EXIT_OK


def cmd_oracle(args) -> int:
    try:
        scenario = load_scenario(Path(args.scenario).read_bytes())
    except (ScenarioError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    maneuvers = tuple(m.strip() for m in args.maneuvers.split(",") if m)
    if args.steps < 1:
        print("error: --steps must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.k < 1:
        print("error: --k must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    if args.k % args.steps:
        print("error: --k must be divisible by --steps", file=sys.stderr)
        return EXIT_CONFIG
    try:
        lattice = LatticeConfig(args.steps, maneuvers, args.k // args.steps)
        risk = all_actor_risk_exact(scenario, args.t, args.k, lattice)
    except LatticeCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP
    except DegenerateScenario as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCENARIO

    print("kind,actor_id,z_empty,z,rho")
    print(f"total,,{risk.z_empty},{risk.z},{risk.total!r}")
    for aid, rho in risk.per_actor.items():
        print(f"actor,{aid},{risk.z_empty},{risk.z},{rho!r}")
    return EXIT_OK


def cmd_casestudy(args) -> int:
    overrides = {}
    if args.dt is not None:
        overrides["dt"] = args.dt
    if args.brake_decel is not None:
        overrides["brake_decel"] = args.brake_decel
    if args.lane_change_duration is not None:
        overrides["lane_change_duration"] = args.lane_change_duration
    if args.steady_ticks is not None:
        overrides["steady_ticks"] = args.steady_ticks
    if args.steady2_ticks is not None:
        overrides["steady2_ticks"] = args.steady2_ticks
    if args.tail_ticks is not None:
        overrides["tail_ticks"] = args.tail_ticks
    if args.ego_speed is not None:
        overrides["ego_speed"] = args.ego_speed
    if args.no_merge_slowdown:
        overrides["cutin_merge_speed"] = None
    if args.no_brake:
        overrides["brake_decel"] = None
    try:
        scenario = generate_case_study(CaseStudyParams(**overrides))
    except ScenarioError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SCENARIO
    Path(args.out).write_bytes(save_scenario(scenario))
    print(f"wrote {args.out} "
          f"({len(scenario.npc_trajectories)} npc actors, "
          f"{len(scenario.phases)} phases, T={scenario.horizon_ticks})")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="navrisk",
        description="driving-scenario simulator and per-actor risk engine")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_oracle_parser(sub)
    _add_casestudy_parser(sub)
    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "oracle":
        return cmd_oracle(args)
    return cmd_casestudy(args)


if __name__ == "__main__":
    sys.exit(main())
