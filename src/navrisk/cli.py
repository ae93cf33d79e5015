"""Command-line front end.

Subcommands:
  run        simulate a scenario with replanning and emit risk tables/plots
  oracle     exact lattice risk table for one planning window
  casestudy  generate the five-phase case-study scenario document

Exit codes: 0 success, 2 configuration error (also an allocation the
arguments asked for that failed), 3 scenario validation error, 4
degenerate scenario (the empty-world plan set is empty), 5 lattice cap
exceeded.  Commands raise; `main` alone maps an exception to its code
(EXIT_CODES) and prints the error.
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
    Scenario,
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
    p.add_argument("--maneuvers", default=",".join(LatticeConfig.maneuvers),
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


def _read_scenario(path: str) -> Scenario:
    try:
        data = Path(path).read_bytes()
    except OSError as e:
        raise ScenarioError(f"--scenario: {e}") from e
    return load_scenario(data)


def cmd_run(args) -> int:
    operators = ("euclid", "kl") if args.operator == "both" \
        else (args.operator,)
    if args.exact_lattice:
        operators += ("exact",)
    lattice = None
    if "kl" in operators or "exact" in operators:
        if args.lattice_steps < 1:
            raise ValueError("--lattice-steps must be >= 1")
        if args.horizon < 1 or args.horizon % args.lattice_steps:
            raise ValueError("--horizon must be a positive multiple of "
                             "--lattice-steps")
        lattice = LatticeConfig(
            args.lattice_steps,
            ticks_per_step=args.horizon // args.lattice_steps)
        check_cap(lattice, source="--lattice-steps")
    cfg = RunConfig(
        seed=args.seed, horizon=args.horizon,
        replan_every=args.replan_every, samples=args.samples,
        noise_accel=args.noise_accel, noise_yawrate=args.noise_yawrate,
        operators=operators, lattice=lattice,
        iteration_budget=args.budget)
    scenario = _read_scenario(args.scenario) if args.scenario is not None \
        else generate_case_study()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = run_simulation(scenario, cfg)
    (out / "run.csv").write_text(run_csv(result))
    (out / "phase_summary.csv").write_text(phase_summary_csv(result))
    (out / "scatter.svg").write_text(scatter_svg(result))
    (out / "risk_timeline.svg").write_text(timeline_svg(result))
    print(f"wrote {out / 'run.csv'} ({len(result.records)} records)")
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.steps < 1:
        raise ValueError("--steps must be >= 1")
    if args.k < 1:
        raise ValueError("--k must be >= 1")
    if args.k % args.steps:
        raise ValueError("--k must be divisible by --steps")
    maneuvers = tuple(filter(None, (m.strip()
                                    for m in args.maneuvers.split(","))))
    lattice = LatticeConfig(args.steps, maneuvers, args.k // args.steps)
    check_cap(lattice, source="--steps")
    scenario = _read_scenario(args.scenario)
    if not 0 <= args.t <= scenario.horizon_ticks - args.k:
        raise ValueError(f"--t and --k must keep the window inside the "
                         f"scenario's ticks [0, {scenario.horizon_ticks}]")
    risk = all_actor_risk_exact(scenario, args.t, args.k, lattice)

    print("kind,actor_id,z_empty,z,rho")
    print(f"total,,{risk.z_empty},{risk.z},{risk.total!r}")
    for aid, rho in risk.per_actor.items():
        print(f"actor,{aid},{risk.z_empty},{risk.z},{rho!r}")
    return EXIT_OK


def cmd_casestudy(args) -> int:
    overrides = {
        name: getattr(args, name)
        for name in ("dt", "brake_decel", "lane_change_duration",
                     "steady_ticks", "steady2_ticks", "tail_ticks",
                     "ego_speed")
        if getattr(args, name) is not None}
    if args.no_merge_slowdown:
        overrides["cutin_merge_speed"] = None
    if args.no_brake:
        overrides["brake_decel"] = None
    scenario = generate_case_study(CaseStudyParams(**overrides))
    Path(args.out).write_bytes(save_scenario(scenario))
    print(f"wrote {args.out} "
          f"({len(scenario.npc_trajectories)} npc actors, "
          f"{len(scenario.phases)} phases, T={scenario.horizon_ticks})")
    return EXIT_OK


# The one error path: the first class an exception is an instance of gives
# the exit code.  ScenarioError is a ValueError, so it precedes ValueError.
EXIT_CODES = (
    (DegenerateScenario, EXIT_DEGENERATE),
    (LatticeCapExceeded, EXIT_CAP),
    (ScenarioError, EXIT_SCENARIO),
    (ValueError, EXIT_CONFIG),
    (OSError, EXIT_CONFIG),
    (MemoryError, EXIT_CONFIG),
)
COMMANDS = {"run": cmd_run, "oracle": cmd_oracle, "casestudy": cmd_casestudy}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="navrisk",
        description="driving-scenario simulator and per-actor risk engine")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_run_parser(sub)
    _add_oracle_parser(sub)
    _add_casestudy_parser(sub)
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except tuple(cls for cls, _ in EXIT_CODES) as e:
        message = str(e)
        if isinstance(e, MemoryError):   # Python's own has no text
            message = ": ".join(filter(None, ("out of memory", message)))
        print(f"error: {message}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(e, cls))


if __name__ == "__main__":
    sys.exit(main())
