import math

import numpy as np
import pytest

from navrisk.report import (
    PHASE_CSV_HEADER,
    RUN_CSV_HEADER,
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
