"""navrisk_leave_one_out plans W worlds in one call, its growths spread
over threads: one kernel call per replan tick, a W-world call equal to W
one-world calls, and outputs that do not depend on the thread count."""

from unittest import mock

import pytest

from navrisk import planner, risk
from navrisk.prediction import PredictionConfig, sample_worlds
from navrisk.risk import leave_one_out, monte_carlo_importance
from navrisk.scenario import generate_case_study
from navrisk.simulate import RunConfig, run_simulation

from test_risk import case_study_worlds, loo_cases


@pytest.mark.parametrize("samples, growths", [(0, 122), (2, 368), (4, 615)])
def test_seed_42_runs_make_one_kernel_call_per_replan_tick(
        monkeypatch, samples, growths):
    # the predicted world and every sampled world of a replan tick share
    # one call; the trees grown and the worlds planned do not change
    counts = {"calls": 0, "worlds": 0, "growths": 0}
    plan_worlds = risk._plan_worlds

    def counted(road, ego, k, obs, rsum, cfg, ego_radius, dt, goals,
                wanted):
        planned = plan_worlds(road, ego, k, obs, rsum, cfg, ego_radius, dt,
                              goals, wanted)
        counts["calls"] += 1
        counts["worlds"] += len(planned) * (1 + sum(wanted))
        counts["growths"] += sum(p.growths for p in planned)
        return planned

    monkeypatch.setattr(risk, "_plan_worlds", counted)
    run_simulation(generate_case_study(), RunConfig(seed=42, samples=samples))
    assert counts == {"calls": 28, "worlds": 196 * (1 + samples),
                      "growths": growths}


@pytest.fixture(scope="module")
def calls():
    """The arguments of every _plan_worlds call that leave_one_out makes on
    loo_cases, one world each, and that monte_carlo_importance makes on
    each case-study world with three sampled worlds of it beside it."""
    calls = []
    plan_worlds = risk._plan_worlds

    def recorded(*args):
        calls.append(args)
        return plan_worlds(*args)

    with mock.patch.object(risk, "_plan_worlds", recorded):
        for road, world, ego, t, k, cfg, radii in loo_cases():
            leave_one_out(world, ego, t, k, cfg, road=road, radii=radii,
                          route=True)
        for road, world, ego, t, k, cfg, radii in case_study_worlds():
            histories = {aid: tr.window(t, 0) for aid, tr in world.items()}
            sampled = sample_worlds(histories, k, PredictionConfig(
                0.8, 0.05, sample_count=3, seed=t))
            monte_carlo_importance([world, *sampled], ego, t, k, cfg,
                                   road=road, radii=radii, route=True)
    return calls


def as_bytes(worlds):
    """Every output of _plan_worlds' worlds, as bytes where it is an
    array."""
    return [(None if w.full is None else (
                w.full.xy.tobytes(), w.full.seg.tobytes(),
                w.full.vertices.tobytes(), w.full.partial),
             [None if a is None else a.tobytes() for a in w.ablated],
             w.nodes, w.growths, w.regrown.tobytes())
            for w in worlds]


def planned(args, workers):
    """_plan_worlds(*args) on `workers` threads, as_bytes."""
    with mock.patch.object(planner, "_cpus", lambda: workers):
        return as_bytes(planner._plan_worlds(*args))


def test_the_calls_cover_one_and_several_worlds_reuse_and_regrowth(calls):
    sizes, regrown, reused = set(), 0, 0
    for args in calls:
        worlds = planner._plan_worlds(*args)
        sizes.add(len(worlds))
        wanted = args[-1]
        for w in worlds:
            regrown += sum(w.regrown)
            reused += sum(wanted) - sum(w.regrown)
    assert sizes == {1, 4}
    assert regrown > 0 and reused > 0


@pytest.mark.parametrize("workers", [2, 3, 16])
def test_the_outputs_do_not_depend_on_the_worker_count(calls, workers):
    for args in calls:
        assert planned(args, workers) == planned(args, 1)


def test_a_call_of_w_worlds_equals_w_calls_of_one(calls):
    several = 0
    for args in calls:
        road, ego, k, obs, rsum, cfg, ego_radius, dt, goals, wanted = args
        m, row = len(rsum), 2 * (k + 1)
        n = len(goals) // (2 * (m + 1))
        if n == 1:
            continue
        several += 1
        one_by_one = []
        for w in range(n):
            one_by_one += planned(
                (road, ego, k, obs[w * m * row:(w + 1) * m * row], rsum, cfg,
                 ego_radius, dt, goals[2 * w * (m + 1):2 * (w + 1) * (m + 1)],
                 wanted), 2)
        assert planned(args, 2) == one_by_one
    assert several
