import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from navrisk.scenario import CaseStudyParams, generate_case_study
from navrisk.simulate import RunConfig, run_simulation

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

    def test_monte_carlo_columns(self, scenario):
        cfg = RunConfig(iteration_budget=150, samples=3, horizon=30,
                        replan_every=30, noise_accel=0.5)
        res = run_simulation(scenario, cfg)
        assert all(r.mean_gamma is not None and r.var_gamma is not None
                   for r in res.records)
        assert all(r.var_gamma >= 0.0 for r in res.records)


class TestRunConfig:
    @pytest.mark.parametrize("operators", [("kl",), ("euclid", "exact")])
    def test_lattice_operators_need_a_lattice(self, operators):
        with pytest.raises(ValueError, match="need a lattice"):
            RunConfig(operators=operators)

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError, match="unknown operators"):
            RunConfig(operators=("euclid", "l2"))

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
    ])
    def test_out_of_range_options_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RunConfig(**kwargs)

    def test_nine_settable_values(self):
        from dataclasses import fields
        assert [f.name for f in fields(RunConfig)] == [
            "seed", "horizon", "replan_every", "samples", "noise_accel",
            "noise_yawrate", "operators", "lattice", "iteration_budget"]

    def test_planner_config_four_settable_values(self):
        from dataclasses import fields
        assert [f.name for f in fields(PlannerConfig)] == [
            "iteration_budget", "seed", "goal", "target_speed"]

    def test_lattice_config_three_settable_values(self):
        from dataclasses import fields
        assert [f.name for f in fields(LatticeConfig)] == [
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


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=0, max_size=30))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_quartiles_equal_np_percentile(values):
    got = _quartiles(values)
    if not values:
        assert got == (None, None, None)
        return
    with np.errstate(all="ignore"):   # b - a may overflow, as in numpy
        q1, med, q3 = np.percentile(np.array(values), [25.0, 50.0, 75.0])
    # == leaves the sign of a zero open: which of two equal zeros numpy's
    # partition puts first is not specified
    assert np.array_equal(got, (med, q1, q3), equal_nan=True)
