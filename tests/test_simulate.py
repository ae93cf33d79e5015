import math
import random
import struct
from collections import Counter
from unittest import mock

import numpy as np
import pytest

from navrisk import planner, simulate
from navrisk.planner import LatticeConfig, PlannerConfig
from navrisk.report import (
    PHASE_CSV_HEADER,
    RUN_CSV_HEADER,
    _quartiles,
    phase_summary_csv,
    run_csv,
    scatter_svg,
    timeline_svg,
)
from navrisk.scenario import (
    ActorState, CaseStudyParams, generate_case_study, load_scenario,
    save_scenario)
from navrisk.simulate import RunConfig, run_simulation

from oracles import replanned_gammas

FAST = RunConfig(iteration_budget=250)


@pytest.fixture(scope="module")
def scenario():
    # shortened variant keeps the loop tests quick
    return generate_case_study(CaseStudyParams(steady_ticks=60,
                                               steady2_ticks=60,
                                               tail_ticks=30))


@pytest.fixture(scope="module")
def result(scenario):
    return run_simulation(scenario, FAST)


def states_built(fn, *args):
    """fn(*args) and the number of ActorStates built in it, counted in
    ActorState.__post_init__."""
    built = 0
    check = ActorState.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        check(self)

    with mock.patch.object(ActorState, "__post_init__", counting):
        return fn(*args), built


class TestNoStatePerTick:
    """A trajectory is its rows: the package builds the ego's ActorStates
    and no state per tick of a trajectory (2,461 for the case study and
    1,085 for a seed-42 run, before)."""

    def test_the_case_study_builds_the_ego_alone(self):
        s, built = states_built(generate_case_study)
        assert built == 1
        back, built = states_built(load_scenario, save_scenario(s))
        assert built == 1 and back == s

    @pytest.mark.parametrize("samples", [0, 2])
    def test_a_run_builds_one_per_replan_tick_at_most(self, samples):
        s = generate_case_study()
        result, built = states_built(run_simulation, s,
                                     RunConfig(seed=42, samples=samples))
        assert len(result.replan_ticks) == 28 and built <= 28


class TestLoop:
    def test_one_record_per_replan_tick_and_actor(self, scenario, result):
        n_npc = len(scenario.npc_trajectories)
        assert len(result.records) == len(result.replan_ticks) * n_npc

    def test_final_horizon_rows_carry_no_error(self, scenario, result):
        t_max = scenario.horizon_ticks - FAST.horizon
        for r in result.records:
            if r.tick > t_max:
                assert r.prediction_error is None
            else:
                assert r.prediction_error is not None

    def test_numeric_fields_finite(self, result):
        for r in result.records:
            for v in (r.gamma_euclid, r.gamma_kl, r.rho_exact,
                      r.mean_gamma, r.var_gamma, r.prediction_error):
                if v is not None:
                    assert math.isfinite(v)

    def test_ego_stays_on_road(self, scenario, result):
        for st in result.ego_states:
            assert 0.0 <= st.position_y <= scenario.map.width

    def test_deterministic_across_runs(self, scenario):
        a = run_simulation(scenario, FAST)
        b = run_simulation(scenario, FAST)
        assert run_csv(a) == run_csv(b)

    def test_phases_attributed_at_planning_time(self, scenario, result):
        span = {p.name: (p.start_tick, p.end_tick) for p in scenario.phases}
        for r in result.records:
            lo, hi = span[r.phase]
            assert lo <= r.tick <= hi

    def test_one_lattice_render_per_window(self, scenario, monkeypatch):
        # the KL world (predicted) and the exact world (ground truth) of a
        # window share one render, against the obstacle rows of both
        cfg = RunConfig(iteration_budget=50, horizon=20, replan_every=20,
                        operators=("euclid", "kl", "exact"),
                        lattice=LatticeConfig(2, ("keep",), 10))
        rows = []
        walk = planner._walk

        def counted(road, ego, k, lattice, obs, rsum, sizes, *, dt,
                    render=True, **kw):
            if render:   # a walk that renders, not one that only counts
                rows.append(len(rsum))
            return walk(road, ego, k, lattice, obs, rsum, sizes, dt=dt,
                        render=render, **kw)

        monkeypatch.setattr(planner, "_walk", counted)
        res = run_simulation(scenario, cfg)
        windows = {t for t in res.replan_ticks
                   if t + cfg.horizon <= scenario.horizon_ticks}
        assert len(windows) > 1
        assert rows == [2 * len(scenario.npc_trajectories)] * len(windows)
        for r in res.records:
            assert (r.gamma_kl is not None) == (r.tick in windows)
            assert (r.rho_exact is not None) == (r.tick in windows)

    def test_monte_carlo_columns(self, scenario):
        cfg = RunConfig(iteration_budget=150, samples=3, horizon=30,
                        replan_every=30, noise_accel=0.5)
        res = run_simulation(scenario, cfg)
        assert all(r.mean_gamma is not None and r.var_gamma is not None
                   for r in res.records)
        assert all(r.var_gamma >= 0.0 for r in res.records)


def reference_leave_one_out(worlds, ego, t, k, cfg, *, road, radii,
                            ego_radius, dt, route=False, actor_ids=None,
                            first_sample=None):
    """simulate._leave_one_out on the references: replanned_gammas grows
    every world of worlds from scratch with the numpy growth and selects
    with the Python selection, each routed on its own occupants; the full
    plan of worlds[0] and each world's gammas."""
    assert (ego_radius, dt, route, actor_ids, first_sample) == \
        (1.2, 0.1, True, None, 1)
    runs = [replanned_gammas(road, world, ego, t, k, cfg, radii, route=route)
            for world in worlds]
    return runs[0][0], [gammas for _, gammas in runs]


def test_closed_loop_on_the_references_equals_the_kernel_run(monkeypatch):
    # the ego executes each replan's full plan, so a wrong bit in any
    # world compounds over the rest of the run
    s = generate_case_study()
    cfg = RunConfig(iteration_budget=200)
    kernel = run_simulation(s, cfg)
    monkeypatch.setattr(simulate, "_leave_one_out", reference_leave_one_out)
    reference = run_simulation(s, cfg)
    assert run_csv(reference) == run_csv(kernel)
    assert phase_summary_csv(reference) == phase_summary_csv(kernel)
    assert len(kernel.replan_ticks) == 28
    assert any(r.gamma_euclid > 0.0 for r in kernel.records)


def test_monte_carlo_loop_on_the_references_equals_the_kernel_run(
        scenario, monkeypatch):
    # each sampled world's leave-one-out on the references; the predicted
    # world's stays on the kernel, which the run above checks
    batched = simulate._leave_one_out

    def sampled(worlds, *args, **kw):
        plan_full, (gammas,) = batched(worlds[:1], *args, **kw)
        _, runs = reference_leave_one_out(worlds[1:], *args, **kw)
        assert len(runs) == 2
        return plan_full, [gammas, *runs]

    cfg = RunConfig(iteration_budget=100, samples=2, horizon=30,
                    replan_every=30)
    kernel = run_simulation(scenario, cfg)
    monkeypatch.setattr(simulate, "_leave_one_out", sampled)
    reference = run_simulation(scenario, cfg)
    assert run_csv(reference) == run_csv(kernel)
    assert phase_summary_csv(reference) == phase_summary_csv(kernel)
    assert any(r.mean_gamma > 0.0 for r in kernel.records)


class TestRunConfig:
    @pytest.mark.parametrize("operators", [("kl",), ("euclid", "exact")])
    def test_lattice_operators_need_a_lattice(self, operators):
        with pytest.raises(ValueError, match="need a lattice"):
            RunConfig(operators=operators)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown operators"):
            RunConfig(operators=("euclid", "l2"))

    def test_operators_kept_as_a_tuple_in_the_given_order(self):
        lattice = LatticeConfig(8, ("keep",), 5)
        cfg = RunConfig(operators=["kl", "euclid"], lattice=lattice)
        assert cfg.operators == ("kl", "euclid")
        same = RunConfig(operators=("kl", "euclid"), lattice=lattice)
        assert cfg == same and hash(cfg) == hash(same)

    def test_operators_refuse_a_bare_string(self):
        # read letter by letter, "euclid" was refused as six operators
        with pytest.raises(ValueError, match="^operators must be a sequence "
                                             "of names, not the string "
                                             "'euclid'$"):
            RunConfig(operators="euclid")

    @pytest.mark.parametrize("kwargs, message", [
        ({"iteration_budget": 0}, "iteration_budget"),
        ({"samples": -1}, "samples"),
        ({"noise_accel": -0.1}, "noise sigmas"),
        ({"noise_yawrate": -1.0}, "noise sigmas"),
        ({"noise_accel": float("nan")}, "noise sigmas"),
        ({"noise_yawrate": float("inf")}, "noise sigmas"),
        # every tick would skip a lattice of another horizon, leaving
        # gamma_kl and rho_exact blank
        ({"operators": ("euclid", "kl", "exact"),
          "lattice": LatticeConfig(2, ("keep",), 5)}, "horizon is 40"),
        # a float count or seed would pass here and fail inside the run
        ({"horizon": 40.0}, "horizon must be an integer"),
        ({"replan_every": 15.0}, "replan_every must be an integer"),
        ({"samples": 1.5}, "samples must be an integer"),
        ({"seed": 4.0}, "seed must be an integer"),
        ({"iteration_budget": 700.0}, "iteration_budget must be an integer"),
        # --seed is a U64; the run's streams would reduce it mod 2**64
        ({"seed": -1}, "seed must be an integer >= 0"),
        ({"seed": 2 ** 64}, "seed must be below 2\\*\\*64"),
        # a bool is an int by type, and would run as seed 1
        ({"seed": True}, "seed must be an integer >= 0, got True"),
        # PlannerConfig's bound: the kernel's C int would wrap above it
        ({"iteration_budget": 2 ** 30 - 1}, "iteration_budget must be <= "),
    ])
    def test_out_of_range_options_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**kwargs)

    def test_budget_up_to_the_planners_bound(self):
        assert RunConfig(iteration_budget=2 ** 30 - 2).iteration_budget == \
            2 ** 30 - 2

    def test_nine_settable_values(self):
        assert list(RunConfig._fields) == [
            "seed", "horizon", "replan_every", "samples", "noise_accel",
            "noise_yawrate", "operators", "lattice", "iteration_budget"]

    def test_planner_config_four_settable_values(self):
        assert list(PlannerConfig._fields) == [
            "iteration_budget", "seed", "goal", "target_speed"]

    def test_lattice_config_three_settable_values(self):
        assert list(LatticeConfig._fields) == [
            "decision_steps", "maneuvers", "ticks_per_step"]


class TestReports:
    def test_run_csv_header_and_rows(self, scenario, result):
        text = run_csv(result)
        lines = text.strip().split("\n")
        assert lines[0] == RUN_CSV_HEADER
        assert len(lines) == 1 + len(result.records)
        n_cols = len(RUN_CSV_HEADER.split(","))
        assert all(len(l.split(",")) == n_cols for l in lines[1:])

    def test_phase_summary_header(self, result):
        text = phase_summary_csv(result)
        assert text.split("\n")[0] == PHASE_CSV_HEADER

    def test_svgs_well_formed_and_deterministic(self, result):
        s1, s2 = scatter_svg(result), scatter_svg(result)
        assert s1 == s2
        assert s1.startswith("<svg") and s1.rstrip().endswith("</svg>")
        t1 = timeline_svg(result)
        assert t1.startswith("<svg") and "polyline" in t1


# The lists come from random.Random(seed), seeds 0 to QUARTILE_LISTS - 1,
# not from Hypothesis: a derandomized Hypothesis draw mixes in literal
# constants of the navrisk modules imported when it runs, so which lists
# it drew depended on the other test modules collected.
QUARTILE_LISTS = 400
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 0.5,
               1.0, -1.0, 1e-300, 1e300, -1e300, 1.7976931348623157e308,
               -1.7976931348623157e308)


def float_list(rng):
    """0-30 finite floats from rng, a random.Random: edge values, repeats
    of earlier ones, and finite floats of any bit pattern, or in one list
    of three, of either sign above 9e307, so that the difference of two of
    opposite signs overflows."""
    huge = rng.random() < 1 / 3
    out = []
    for _ in range(rng.randint(0, 30)):
        kind = rng.random()
        if kind < 0.2:
            out.append(rng.choice(EDGE_FLOATS))
        elif kind < 0.3 and out:
            out.append(rng.choice(out))
        elif huge:
            out.append(rng.choice((-1.0, 1.0)) *
                       rng.uniform(9e307, 1.7976931348623157e308))
        else:
            x = math.inf
            while not math.isfinite(x):
                x = struct.unpack("<d", rng.randbytes(8))[0]
            out.append(x)
    return out


def test_quartiles_equal_np_percentile():
    seen = Counter()
    for seed in range(QUARTILE_LISTS):
        values = float_list(random.Random(seed))
        got = _quartiles(values)
        if not values:
            assert got == (None, None, None)
            seen["empty"] += 1
            continue
        with np.errstate(all="ignore"):   # b - a may overflow, as in numpy
            q1, med, q3 = np.percentile(np.array(values), [25.0, 50.0, 75.0])
        # == leaves the sign of a zero open: which of two equal zeros numpy's
        # partition puts first is not specified
        assert np.array_equal(got, (med, q1, q3), equal_nan=True), seed
        xs, last = sorted(values), len(values) - 1
        seen["a quartile's b - a overflows"] += any(
            math.isinf(xs[i + 1] - xs[i]) for i in (
                math.floor(last * q) for q in (0.25, 0.5, 0.75))
            if i < last)
        seen["both zeros"] += {math.copysign(1.0, v)
                               for v in values if v == 0.0} == {1.0, -1.0}
        seen["repeats"] += len(set(values)) < len(values)
    # the same lists wherever the module runs, so the same counts
    assert seen == {"empty": 12, "a quartile's b - a overflows": 13,
                    "both zeros": 21, "repeats": 286}, seen
