"""Run-level relations: what a whole closed-loop run must give for every
input, with no reference to compare against.

- Renaming every actor leaves run.csv equal once the names are mapped
  back (at --samples 0: the sampled futures are keyed by id).
- Adding an actor parked near road_length, beyond every plan's reach, at
  any place in the actor order, leaves every other row byte-identical, at
  --samples 0 and 2, and gives the added actor 0.0 or a blank in every
  signal.  With 194 such actors the six case-study rows of the seed-42
  default run still hash to its pin.
- Permuting the actors permutes every plan of the run's kernel calls:
  the full plan, each ablated plan, the tree sizes and the regrowth flags
  follow the actors.  A wrong actor index in the kernel (a sole flag or
  a skipped row read for the wrong actor) breaks it for most orders, so
  the order is drawn, not only reversed: a mirrored index m - 1 - a
  maps each actor to the same wrong partner in both a row order and its
  reversal.

The run.csv rows themselves are not permutation-invariant: routing adds
each lane occupant's term in actor order (risk._soft_advance), so another
order can move a routed goal by an ulp.  So the permutation relation is
checked on the kernel's plans, with each world's goals held fixed.

The drawn tests draw run seeds, iteration budgets and the rest with
Hypothesis, derandomized as the suite's other drawn tests are.  Every
test fails when all its examples together take longer than the time
budget stated with it (within).
"""

import functools
import hashlib
import time
from array import array

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from navrisk import risk
from navrisk.planner import LatticeConfig
from navrisk.report import RUN_CSV_HEADER, run_csv
from navrisk.scenario import EGO_ID, Trajectory, generate_case_study
from navrisk.simulate import RunConfig, run_simulation

CASE = generate_case_study()
IDS = list(CASE.npc_trajectories)
# --exact-lattice --operator both, as the CLI builds it for horizon 40
LATTICE = LatticeConfig(4, ("keep", "shift_left", "shift_right"), 10)
DRAWN = settings(max_examples=8, deadline=None, derandomize=True,
                 suppress_health_check=[HealthCheck.too_slow])
SEEDS = st.integers(0, 2 ** 32 - 1)
BUDGETS = st.integers(100, 700)


def within(seconds):
    """Fail the test when it takes longer than seconds, all its examples
    together."""
    def wrap(test):
        @functools.wraps(test)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            test(*args, **kwargs)
            took = time.perf_counter() - start
            assert took < seconds, \
                f"{test.__name__} took {took:.1f} s of its {seconds} s"
        return timed
    return wrap


def config(seed, budget, samples):
    """RunConfig of `run --casestudy-defaults --exact-lattice --operator
    both --samples samples --seed seed --budget budget`."""
    return RunConfig(seed=seed, samples=samples, iteration_budget=budget,
                     operators=("euclid", "kl", "exact"), lattice=LATTICE)


def with_inert(s, at, xs, lanes):
    """s with actors parked at (xs[i], lanes[i]'s centre), speed 0 and
    radius 1.2, inserted at position at of the actor order."""
    road, ticks = s.map, s.horizon_ticks + 1
    added = {f"inert{i}": Trajectory(f"inert{i}", 0, s.dt, array(
                 "d", (x, road.lane_center(lane), 0.0, 0.0)) * ticks)
             for i, (x, lane) in enumerate(zip(xs, lanes))}
    trajs = list(s.npc_trajectories.items())
    return s.replace(
        npc_trajectories=dict(trajs[:at] + list(added.items()) + trajs[at:]),
        actor_radius={**s.actor_radius, **dict.fromkeys(added, 1.2)})


def split_rows(csv_text):
    """run.csv's rows of the case-study actors, and those of the rest."""
    ours, added = [], []
    for row in csv_text.splitlines()[1:]:
        (ours if row.split(",")[2] in IDS else added).append(row)
    return ours, added


@within(20)
@DRAWN
@given(seed=SEEDS, budget=BUDGETS,
       names=st.lists(st.text(min_size=1, max_size=6).filter(
           lambda n: n != EGO_ID), min_size=len(IDS), max_size=len(IDS),
           unique=True))
def test_renaming_every_actor_maps_back(seed, budget, names):
    cfg = config(seed, budget, 0)
    rename = dict(zip(IDS, names))
    renamed = CASE.replace(
        npc_trajectories={rename[aid]: Trajectory(rename[aid], 0, t.dt,
                                                  t.rows)
                          for aid, t in CASE.npc_trajectories.items()},
        actor_radius={rename.get(aid, aid): r
                      for aid, r in CASE.actor_radius.items()})
    back = {new: old for old, new in rename.items()}
    result = run_simulation(renamed, cfg)
    mapped = result.replace(records=tuple(
        r.replace(actor_id=back[r.actor_id]) for r in result.records))
    assert run_csv(mapped) == run_csv(run_simulation(CASE, cfg))


@within(30)
@DRAWN
@given(seed=SEEDS, budget=BUDGETS, samples=st.sampled_from((0, 2)),
       at=st.integers(0, len(IDS)),
       x=st.floats(CASE.map.road_length - 20.0, CASE.map.road_length),
       lane=st.integers(0, CASE.map.lane_count - 1))
def test_an_inert_actor_changes_no_other_row(seed, budget, samples, at, x,
                                             lane):
    cfg = config(seed, budget, samples)
    ours, added = split_rows(run_csv(run_simulation(
        with_inert(CASE, at, [x], [lane]), cfg)))
    assert ours == run_csv(run_simulation(CASE, cfg)).splitlines()[1:]
    assert len(added) == len(ours) // len(IDS)
    for row in added:
        # gamma_euclid, gamma_kl, rho_exact, mean_gamma, var_gamma and
        # prediction_error: 0.0, or a blank where there is no value
        assert set(row.split(",")[3:9]) <= {"0.0", ""}, row
        assert row.split(",")[3] == "0.0", row


@within(10)
def test_194_inert_actors_leave_the_default_run_pinned():
    # the seed-42 default run (run --casestudy-defaults) with 194 actors
    # parked at x = 895 on the three lane centres, after the six
    s = with_inert(CASE, len(IDS), [895.0] * 194,
                   [i % 3 for i in range(194)])
    ours, added = split_rows(run_csv(run_simulation(s, RunConfig(seed=42))))
    assert hashlib.sha256("\n".join([RUN_CSV_HEADER, *ours, ""]).encode()) \
        .hexdigest().startswith("e8a38432")
    assert len(added) == 194 * len(ours) // len(IDS)
    assert {row.split(",")[3] for row in added} == {"0.0"}


def recorded_calls(cfg):
    """The arguments and results of every risk._plan_worlds call of the
    case-study run under cfg."""
    calls = []
    plan_worlds = risk._plan_worlds

    def recorded(*args):
        calls.append((args, plan_worlds(*args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(risk, "_plan_worlds", recorded)
        run_simulation(CASE, cfg)
    return calls


def permuted(args, order):
    """_plan_worlds' arguments with the actors in order: new actor i is
    old actor order[i], in every world's rows, goals and wanted flags."""
    road, ego, k, obs, rsum, cfg, ego_radius, dt, goals, wanted = args
    m, row = len(rsum), 2 * (k + 1)
    n = len(goals) // (2 * (m + 1))
    new_obs, new_goals = array("d"), array("d")
    for w in range(n):
        block, slots = w * m * row, w * (m + 1)
        for i in order:
            new_obs += obs[block + i * row:block + (i + 1) * row]
        for s in (0, *(1 + i for i in order)):
            new_goals += goals[2 * (slots + s):2 * (slots + s + 1)]
    return (road, ego, k, new_obs, array("d", (rsum[i] for i in order)),
            cfg, ego_radius, dt, new_goals,
            array("B", (wanted[i] for i in order)))


@within(20)
@DRAWN
@given(seed=SEEDS, budget=BUDGETS, samples=st.sampled_from((0, 2)),
       order=st.permutations(range(len(IDS))))
def test_permuting_actors_permutes_every_kernel_plan(seed, budget, samples,
                                                     order):
    calls = recorded_calls(RunConfig(seed=seed, samples=samples,
                                     iteration_budget=budget))
    assert len(calls) == 28
    for args, planned in calls:
        for want, got in zip(planned, risk._plan_worlds(*permuted(args,
                                                                  order))):
            assert (got.full, got.nodes, got.growths) == \
                (want.full, want.nodes, want.growths)
            assert got.ablated == [want.ablated[i] for i in order]
            assert list(got.regrown) == [want.regrown[i] for i in order]
