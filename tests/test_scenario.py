import functools
import hashlib
import math
import pickle
import random
import re
from array import array
from unittest import mock

from hypothesis import example, given, reject, settings, strategies as st
import numpy as np
import pytest

from navrisk.scenario import (
    EGO_ID,
    EGO_LANE,
    MAX_HORIZON_TICKS,
    MAX_MAGNITUDE,
    MERGER,
    ActorState,
    CaseStudyParams,
    PhaseSpan,
    RoadMap,
    Scenario,
    ScenarioError,
    Trajectory,
    _ScriptedActor,
    generate_case_study,
    load_scenario,
    save_scenario,
    slice_world,
    wrap_angle,
)

from navrisk.planner import (
    MANEUVERS, GoalSpec, LatticeConfig, Plan, PlannerConfig, PlanSet)
from navrisk.prediction import PredictionConfig
from navrisk.risk import ExactRisk, SelectionResult
from navrisk.simulate import RunConfig, RunResult, StepRecord

from oracles import (
    dataclass_mirror, reference_save_scenario, rows_of, state_trajectory,
    traj_xy)


def make_straight(actor_id="a", n=10, speed=5.0, dt=0.1, y=1.75):
    states = tuple(
        ActorState(speed * dt * i, y, 0.0, speed) for i in range(n + 1))
    return state_trajectory(actor_id, 0, dt, states)


def speeds(traj):
    return np.array([s.speed for s in traj.states])


def tiny_scenario(n=10):
    road = RoadMap(2, 3.5, 200.0, 15.0)
    trajs = {"a": make_straight("a", n), "b": make_straight("b", n, y=5.25)}
    return Scenario(
        map=road, npc_trajectories=trajs,
        ego_initial=ActorState(0.0, 1.75, 0.0, 5.0),
        horizon_ticks=n, dt=0.1,
        actor_radius={"a": 1.2, "b": 1.2, EGO_ID: 1.2})


class TestTypes:
    def test_negative_speed_rejected(self):
        with pytest.raises(ScenarioError):
            ActorState(0, 0, 0, -1.0)

    def test_nan_speed_rejected(self):
        # a NaN speed passes `speed < 0`; the lattice would then fail on
        # a NaN heading that names neither the speed nor the ego
        with pytest.raises(ScenarioError, match="speed must be >= 0"):
            ActorState(10.0, 5.25, 0.0, float("nan"))

    def test_heading_range_enforced(self):
        with pytest.raises(ScenarioError):
            ActorState(0, 0, 4.0, 1.0)

    def test_actor_state_is_an_immutable_value(self):
        # slotted and frozen: no attribute can be set or added, and equal
        # states stay equal, hash alike and survive a pickle round trip
        a = ActorState(10.0, 5.25, 0.5, 3.0)
        for name in ("speed", "position_x"):
            with pytest.raises(AttributeError,
                               match=f"^cannot assign to field '{name}'$"):
                setattr(a, name, 1.0)
        with pytest.raises(AttributeError,
                           match="^cannot assign to field 'other'$"):
            a.other = 1.0
        assert not hasattr(a, "__dict__") and not hasattr(a, "other")
        b = pickle.loads(pickle.dumps(a))
        assert b == a and hash(b) == hash(a) and b is not a
        assert repr(a) == ("ActorState(position_x=10.0, position_y=5.25, "
                           "heading=0.5, speed=3.0)")

    def test_wrap_angle(self):
        assert wrap_angle(math.pi) == pytest.approx(math.pi)
        assert wrap_angle(-math.pi) == pytest.approx(math.pi)
        assert wrap_angle(3 * math.pi / 2) == pytest.approx(-math.pi / 2)

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ScenarioError):
            Trajectory("a", 0, 0.1, array("d"))

    # NaN passes `dt <= 0` and the scenario's dt-mismatch test alike
    BAD_DT = pytest.mark.parametrize("dt, message", [
        (0.0, "dt must be positive"),
        (-0.1, "dt must be positive"),
        (math.nan, "dt must be finite, got nan"),
        (math.inf, "dt must be finite, got inf"),
    ])

    @BAD_DT
    def test_trajectory_rejects_dt_outside_zero_to_inf(self, dt, message):
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            Trajectory("a", 0, dt, array("d", (0.0,) * 4))

    @BAD_DT
    def test_scenario_rejects_dt_outside_zero_to_inf(self, dt, message):
        with pytest.raises(ScenarioError, match=f"^{message}$"):
            generate_case_study().replace(dt=dt)

    def test_kinematic_check_passes_for_consistent(self):
        make_straight().check_kinematics()

    def test_kinematic_check_rejects_teleport(self):
        states = (ActorState(0, 0, 0, 1.0), ActorState(50, 0, 0, 1.0))
        with pytest.raises(ScenarioError, match="implied speed"):
            state_trajectory("a", 0, 0.1, states).check_kinematics()

    @pytest.mark.parametrize("args, field", [
        ((2.5, 3.5, 900.0, 14.0), "lane_count"),
        ((3, math.nan, 900.0, 14.0), "lane_width"),
        ((3, 3.5, math.inf, 14.0), "road_length"),
        ((3, 3.5, 900.0, math.nan), "speed_limit"),
        ((True, 3.5, 900.0, 14.0), "lane_count must be an integer >= 1, "
                                   "got True"),
    ])
    def test_road_rejects_non_integer_lanes_and_non_finite_sizes(
            self, args, field):
        with pytest.raises(ScenarioError, match=field):
            RoadMap(*args)

    def test_lane_helpers(self):
        road = RoadMap(3, 3.5, 100.0, 10.0)
        assert road.lane_center(0) == pytest.approx(1.75)
        assert road.lane_center(2) == pytest.approx(8.75)
        assert road.lane_of(1.0) == 0
        assert road.lane_of(9.0) == 2
        assert road.width == pytest.approx(10.5)

    def test_ego_id_reserved(self):
        road = RoadMap(1, 3.5, 100.0, 10.0)
        traj = make_straight(EGO_ID)
        with pytest.raises(ScenarioError, match="reserved"):
            Scenario(road, {EGO_ID: traj}, ActorState(0, 1, 0, 1), 10, 0.1,
                     {EGO_ID: 1.0})


class TestSliceWorld:
    def test_identity_window(self):
        s = tiny_scenario()
        out = slice_world(s, 0, s.horizon_ticks)
        assert out.keys() == s.npc_trajectories.keys()
        for aid in out:
            assert out[aid].states == s.npc_trajectories[aid].states

    def test_zero_horizon_gives_single_states(self):
        s = tiny_scenario()
        out = slice_world(s, 4, 0)
        for aid, traj in out.items():
            assert len(traj) == 1
            assert traj.start_tick == 4
            assert traj.states[0] == s.npc_trajectories[aid].states[4]

    def test_out_of_range_rejected(self):
        s = tiny_scenario()
        with pytest.raises(ScenarioError):
            slice_world(s, 5, 20)

    def test_splice_oracle(self):
        # slice(t, k) + slice(t+k, m) minus the duplicated boundary state
        # must reproduce slice(t, k+m), over random windows.
        s = tiny_scenario(n=40)
        rng = np.random.default_rng(7)
        for _ in range(25):
            t = int(rng.integers(0, 20))
            k = int(rng.integers(1, 10))
            m = int(rng.integers(1, 10))
            left = slice_world(s, t, k)
            right = slice_world(s, t + k, m)
            whole = slice_world(s, t, k + m)
            for aid in whole:
                spliced = left[aid].states + right[aid].states[1:]
                assert spliced == whole[aid].states


# --- trajectories: rows, checked when built ----------------------------------

def drawn_states(rng, n):
    """n ActorStates from rng: positions near 0 and of every magnitude up
    to MAX_MAGNITUDE, -0.0, headings at and near the bounds of (-pi, pi],
    speeds from 0."""
    def pick(*edges):
        return rng.choice((*edges, rng.uniform(-1e3, 1e3),
                           rng.uniform(-1.0, 1.0) * 10 ** rng.randint(0, 150)))
    return tuple(ActorState(
        pick(0.0, -0.0, MAX_MAGNITUDE), pick(0.0, -MAX_MAGNITUDE),
        rng.choice((math.pi, math.nextafter(-math.pi, 0.0), 0.0,
                    rng.uniform(-math.pi, math.pi))),
        abs(pick(0.0, MAX_MAGNITUDE))) for _ in range(n))


class TestRowBuiltTrajectory:
    """A Trajectory is built from the rows that predicted and sampled
    futures are written as; it must be the trajectory that the same
    states give, in every reading, and refuse the rows no ActorState
    could hold."""

    def test_equal_to_the_state_built_trajectory_in_every_reading(self):
        rng = random.Random(0)
        for _ in range(200):
            states = drawn_states(rng, rng.randint(1, 30))
            t0, dt = rng.randint(0, 50), rng.choice((0.1, 0.05, 1.0))
            built = state_trajectory("a", t0, dt, states)
            rowed = Trajectory("a", t0, dt, rows_of(states))
            xy = array("d", [c for s in states
                             for c in (s.position_x, s.position_y)])
            assert rowed == built and built == rowed
            assert hash(rowed) == hash(built)
            assert repr(rowed) == repr(built) == (
                f"Trajectory(actor_id='a', start_tick={t0}, dt={dt!r}, "
                f"rows={rows_of(states)!r})")
            assert rowed.states == states
            assert len(rowed) == len(built) == len(states)
            assert rowed.end_tick == built.end_tick == t0 + len(states) - 1
            assert rowed.positions == built.positions == xy
            assert rowed.rows == built.rows == rows_of(states)

    def test_windows_are_the_states_of_their_ticks(self):
        rng = random.Random(1)
        for _ in range(200):
            states = drawn_states(rng, rng.randint(1, 30))
            t0 = rng.randint(0, 50)
            t = t0 + rng.randint(0, len(states) - 1)
            k = rng.randint(0, t0 + len(states) - 1 - t)
            want = state_trajectory("a", t, 0.1,
                                    states[t - t0:t - t0 + k + 1])
            got = Trajectory("a", t0, 0.1, rows_of(states)).window(t, k)
            assert got == want and hash(got) == hash(want)
            assert (got.start_tick, got.end_tick) == (t, t + k)
            assert got.positions == want.positions
            assert got.rows == rows_of(want.states)

    @pytest.mark.parametrize("t, k, message", [
        (1.5, 1, "t must be an integer, got 1.5"),
        (True, 1, "t must be an integer, got True"),
        (-1, 1, "window [-1, 0] outside trajectory span [0, 3] of 'a'"),
        (0, 1.5, "k must be an integer >= 0, got 1.5"),
        (0, True, "k must be an integer >= 0, got True"),
        (0, -1, "k must be an integer >= 0, got -1"),
    ])
    def test_window_checks_t_and_k_before_it_slices(self, t, k, message):
        # window(1.5, 1) once raised a bare TypeError from the slice, and
        # window(0, -1) called the trajectory empty
        traj = Trajectory("a", 0, 0.1, array("d", (0.0,) * 16))
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            traj.window(t, k)

    def test_rows_are_refused_when_built(self):
        # a row that breaks ActorState's rules, at each tick of four; a
        # NaN that min and max would pass over is found too
        for row, message in [
                ((0.0, 0.0, 0.0, -1.0), "speed must be >= 0, got -1.0"),
                ((0.0, 0.0, 0.0, math.nan), "speed must be >= 0, got nan"),
                ((0.0, 0.0, math.nan, 1.0),
                 "heading must lie in (-pi, pi], got nan"),
                ((0.0, 0.0, -math.pi, 1.0),
                 "heading must lie in (-pi, pi], got -3.141592653589793"),
                ((0.0, 0.0, 7.0, 1.0),
                 "heading must lie in (-pi, pi], got 7.0")]:
            for j in range(4):
                rows = array("d", (0.0,) * 16)
                rows[4 * j:4 * j + 4] = array("d", row)
                with pytest.raises(ScenarioError) as e:
                    Trajectory("a", 0, 0.1, rows)
                assert str(e.value) == f"states[{j}]: {message}"

    def test_rows_differing_in_the_sign_of_zero_are_equal(self):
        zero = Trajectory("a", 0, 0.1, array("d", (0.0,) * 8))
        minus = Trajectory("a", 0, 0.1, array("d", (-0.0,) * 8))
        assert zero == minus and hash(zero) == hash(minus)
        assert zero.states == minus.states

    @pytest.mark.parametrize("rows, error, message", [
        (array("d"), ScenarioError, "states: trajectory of 'a' is empty"),
        (array("d", (0.0,) * 6), ValueError, "rows must be"),
        (array("f", (0.0,) * 4), ValueError, "rows must be"),
        ([0.0] * 4, ValueError, "rows must be"),
    ])
    def test_from_rows_rejects_no_partial_or_other_rows(self, rows, error,
                                                        message):
        with pytest.raises(error, match=f"^{re.escape(message)}"):
            Trajectory("a", 0, 0.1, rows)

    def test_from_rows_checks_dt_and_id(self):
        with pytest.raises(ScenarioError, match="dt must be positive"):
            Trajectory("a", 0, 0.0, array("d", (0.0,) * 4))
        with pytest.raises(ScenarioError, match="actor_id"):
            Trajectory("", 0, 0.1, array("d", (0.0,) * 4))

    @pytest.mark.parametrize("start_tick", [1.5, -3, True])
    def test_start_tick_is_an_integer_from_0(self, start_tick):
        # 1.5 once gave end_tick 3.5 and a TypeError from window(1.5, 1)
        with pytest.raises(ScenarioError, match=re.escape(
                f"start_tick must be an integer >= 0, got {start_tick!r}")):
            Trajectory("a", start_tick, 0.1, array("d", (0.0,) * 8))

    def test_pickles_replaces_and_refuses_other_names(self):
        states = drawn_states(random.Random(2), 5)
        traj = Trajectory("a", 3, 0.1, rows_of(states))
        back = pickle.loads(pickle.dumps(traj))
        assert back == traj and back.rows == traj.rows
        moved = traj.replace(start_tick=4)
        assert moved.states == states and moved.end_tick == 8
        with pytest.raises(AttributeError, match="'other'"):
            traj.other
        with pytest.raises(AttributeError,
                           match="^cannot assign to field 'states'$"):
            traj.states = states


class TestPhaseScript:
    """The default case study's five phases, integrated in order."""

    def test_merger_brake_stop_ticks_match_closed_form(self):
        # discrete braking from v at rate a stops after ceil(v / (a*dt)) ticks
        p = CaseStudyParams()
        s = generate_case_study(p)
        s5 = s.phases[-1]
        mover = s.npc_trajectories[MERGER]
        v0 = mover.states[s5.start_tick].speed
        expected_ticks = math.ceil(v0 / (p.brake_decel * p.dt))
        assert v0 == p.cutin_merge_speed == 4.0 and expected_ticks == 15
        stop = s5.start_tick + expected_ticks
        assert mover.states[stop].speed == 0.0
        assert mover.states[stop - 1].speed > 0.0
        assert s5.end_tick == stop + p.tail_ticks
        # trapezoidal stopping distance matches v^2/(2a) to tick resolution
        dist = traj_xy(mover)[stop, 0] - traj_xy(mover)[s5.start_tick, 0]
        assert abs(dist - v0 ** 2 / (2 * p.brake_decel)) < v0 * p.dt

    def test_steady_displacement_exact(self):
        s = generate_case_study()
        s2 = s.phases[1]
        for traj in s.npc_trajectories.values():
            xs = traj_xy(traj)[s2.start_tick:s2.end_tick + 1, 0]
            v = traj.states[s2.start_tick].speed
            assert np.all(np.abs(np.diff(xs) - v * s.dt) < 1e-6)

    def test_phases_contiguous_and_lane_change_lands(self):
        s = generate_case_study()
        assert [p.name for p in s.phases] == ["s1", "s2", "s3", "s4", "s5"]
        assert s.phases[0].start_tick == 0
        for prev, cur in zip(s.phases, s.phases[1:]):
            assert prev.end_tick == cur.start_tick
            assert cur.end_tick > cur.start_tick
        assert s.phases[-1].end_tick == s.horizon_ticks
        s3 = s.phases[2]
        assert s3.end_tick - s3.start_tick == 30   # 3.0 s at dt 0.1
        merger = s.npc_trajectories[MERGER]
        assert merger.states[s3.start_tick].position_y == 1.75
        assert merger.states[s3.end_tick].position_y == 5.25

    def test_replay_bit_identical(self):
        a = generate_case_study()
        b = generate_case_study()
        assert save_scenario(a) == save_scenario(b)


# the parameters of the reference timing test below
REFERENCE_TIMING = dict(
    accel=0.2, init_speed_factor=0.0, ego_speed=7.5, traffic_speed=7.5,
    cutin_speed=7.5, cutin_merge_speed=None, steady_ticks=420,
    lane_change_duration=24.0, steady2_ticks=180, brake_decel=0.15,
    tail_ticks=190)

# sha256 of save_scenario(generate_case_study(CaseStudyParams(**params)));
# the first four are the documents of `navrisk casestudy` with no flag,
# --no-brake, --brake-decel 0 and --no-merge-slowdown
DOC_PINS = {
    "default": ({}, (
        "737d7c2412a22612b88e508193d4a69c103b41afa2ad6581fa05150d99ec7a7c")),
    "no-brake": ({"brake_decel": None}, (
        "a3201cf08b4c8df0f6f5690f129592546d44dbebe7e3843defb7ed44da72f247")),
    "zero-brake": ({"brake_decel": 0.0}, (
        "29f74c854ba87382265a98b197b93816115f922dc46b6c2fdccca078fad6d5f2")),
    "no-merge-slowdown": ({"cutin_merge_speed": None}, (
        "071a141329b124d8caed96aa92dada60fe7d8b123ebc465f85a4ba4b8248dae8")),
    # scripts/mitigation_demo.py and test_c8_mitigation_demo
    "mitigation": ({"cutin_merge_speed": 5.5, "lead_slow_speed": None,
                    "near_offset": 45.0, "far_offset": 51.0}, (
        "0ae6f468034900eea7fb74e7fa356bfeb907ae483ebc97f89f68fbea0f6b4acd")),
    "reference-timing": (REFERENCE_TIMING, (
        "cec686bb2a38e62aa6b1d81543b6844767aa28f419e57535c72a1cf346f423f3")),
}


class TestCaseStudy:
    def test_default_has_seven_actors_and_five_phases(self):
        s = generate_case_study()
        assert len(s.npc_trajectories) == 6  # plus the ego
        assert [p.name for p in s.phases] == ["s1", "s2", "s3", "s4", "s5"]
        assert s.phases[0].start_tick == 0
        assert s.phases[-1].end_tick == s.horizon_ticks

    def test_steady_phase_speeds_constant(self):
        s = generate_case_study()
        s2 = next(p for p in s.phases if p.name == "s2")
        for traj in s.npc_trajectories.values():
            seg = speeds(traj)[s2.start_tick:s2.end_tick + 1]
            assert np.all(np.abs(seg - seg[0]) < 1e-9)

    def test_all_trajectories_kinematically_consistent(self):
        s = generate_case_study()
        for traj in s.npc_trajectories.values():
            traj.check_kinematics()

    def test_zero_brake_continues_constant_speed(self):
        p = CaseStudyParams(brake_decel=0.0)
        s = generate_case_study(p)
        s5 = next(ph for ph in s.phases if ph.name == "s5")
        mover = s.npc_trajectories["cutin"]
        seg = speeds(mover)[s5.start_tick:s5.end_tick + 1]
        assert np.all(np.abs(seg - seg[0]) < 1e-9)

    def test_ego_lane_is_not_a_setting(self):
        # actors start one lane either side of the ego on the 3-lane road,
        # so the middle lane is the only one that works
        assert EGO_LANE == 1
        with pytest.raises(TypeError, match="ego_lane"):
            CaseStudyParams(ego_lane=0)

    def test_overspeed_start_reports_actor_and_factor(self):
        # lead's 5.5 m/s target would start at 16.5 m/s on the 14 m/s road
        with pytest.raises(ScenarioError,
                           match="'lead'.*init_speed_factor 3.0"):
            generate_case_study(CaseStudyParams(init_speed_factor=3.0))

    def test_overspeed_target_reports_actor(self):
        p = CaseStudyParams(traffic_speed=99.0)
        with pytest.raises(ScenarioError, match="'lead'"):
            generate_case_study(p)

    @pytest.mark.parametrize("steady_ticks", [190_000, 199_990])
    @pytest.mark.parametrize("field, actor", [
        ("cutin_merge_speed", MERGER), ("lead_slow_speed", "lead")])
    def test_overspeed_s3_target_reported_before_integration(
            self, field, actor, steady_ticks):
        # checked with the other speeds, before s1 runs: not after
        # integrating 190,000 ticks of s2, nor lost to s2 running out of
        # ticks at 199,990
        p = CaseStudyParams(steady_ticks=steady_ticks, **{field: 15.0})
        with mock.patch.object(_ScriptedActor, "step",
                               side_effect=AssertionError("integrated")):
            with pytest.raises(ScenarioError,
                               match=f"'{actor}': target speed 15.0 "
                                     f"exceeds speed limit"):
                generate_case_study(p)

    @pytest.mark.parametrize("field, value, message", [
        ("accel", 0.0, "accel: must be positive"),   # s1 never settled
        ("init_speed_factor", -0.5, "init_speed_factor: must be >= 0"),
        ("tail_ticks", 2.5, "tail_ticks: must be an integer"),
    ])
    def test_out_of_contract_params_name_field(self, field, value, message):
        with pytest.raises(ScenarioError, match=message):
            CaseStudyParams(**{field: value})

    def test_case_study_params_settable_fields(self):
        assert list(CaseStudyParams._fields) == [
            "dt", "ego_speed", "accel", "init_speed_factor",
            "traffic_speed", "lead_slow_speed", "cutin_speed",
            "cutin_merge_speed", "near_offset", "far_offset",
            "lane_change_duration", "brake_decel", "steady_ticks",
            "steady2_ticks", "tail_ticks"]

    def test_phase_boundaries_near_reference_timing(self):
        # with dt/speeds tuned, event-triggered boundaries land near
        # (375, 795, 1035, 1215, 1905)
        s = generate_case_study(CaseStudyParams(**REFERENCE_TIMING))
        bounds = [ph.end_tick for ph in s.phases]
        for got, want in zip(bounds, (375, 795, 1035, 1215, 1905)):
            assert abs(got - want) <= 20


class TestDocuments:
    @pytest.mark.parametrize("name", sorted(DOC_PINS))
    def test_case_study_document_byte_pinned(self, name):
        params, want = DOC_PINS[name]
        doc = save_scenario(generate_case_study(CaseStudyParams(**params)))
        assert hashlib.sha256(doc).hexdigest() == want

    def test_round_trip(self):
        s = generate_case_study()
        data = save_scenario(s)
        s2 = load_scenario(data)
        assert save_scenario(s2) == data
        assert s2.horizon_ticks == s.horizon_ticks
        assert s2.npc_trajectories.keys() == s.npc_trajectories.keys()
        for aid in s.npc_trajectories:
            assert s2.npc_trajectories[aid].states == \
                s.npc_trajectories[aid].states

    def test_short_trajectory_names_actor(self):
        s = tiny_scenario()
        import json
        doc = json.loads(save_scenario(s))
        doc["actors"][0]["states"] = doc["actors"][0]["states"][:3]
        with pytest.raises(ScenarioError, match="'a'"):
            load_scenario(json.dumps(doc))

    def test_duplicate_id_rejected(self):
        s = tiny_scenario()
        import json
        doc = json.loads(save_scenario(s))
        doc["actors"][1]["id"] = doc["actors"][0]["id"]
        with pytest.raises(ScenarioError, match="duplicate"):
            load_scenario(json.dumps(doc))

    def test_missing_field_path_in_message(self):
        with pytest.raises(ScenarioError, match=r"\$\.map"):
            load_scenario(b'{"version": 1}')

    def test_bad_version(self):
        with pytest.raises(ScenarioError, match="version"):
            load_scenario(b'{"version": 99}')


# --- one contract: a Scenario the constructors accept round-trips ----------

def values(lo, hi):
    """Numbers in [lo, hi]: its bounds and boundary values (0, MAX_MAGNITUDE,
    an int and a bool where a float belongs) or a float drawn near 0."""
    edges = [v for v in (0.0, -0.0, 1, True, 0.1, 3.5, MAX_MAGNITUDE,
                         -MAX_MAGNITUDE) if lo <= v <= hi]
    return st.sampled_from([lo, hi, *edges]) | st.floats(max(lo, -1e3),
                                                         min(hi, 1e3))


@st.composite
def scenario_parts(draw):
    """The arguments of build_scenario for a small scenario: 0 to 3 npcs
    moving along the road at constant speed, 0 to 2 phases, and a
    horizon of up to 3 ticks, or of up to MAX_HORIZON_TICKS without npcs.
    Some draws break the contract (an npc moving beyond MAX_MAGNITUDE,
    or standing still where its x + v * dt rounds back to x), and the
    constructors refuse them."""
    road = (draw(st.sampled_from([1, 3, int(MAX_MAGNITUDE)])),
            *(draw(values(0.1, MAX_MAGNITUDE)) for _ in range(3)))
    width = min(road[0] * road[1], MAX_MAGNITUDE)
    dt = draw(values(1e-3, MAX_MAGNITUDE))
    ids = draw(st.lists(st.text(min_size=1, max_size=2).filter(
        lambda a: a != EGO_ID), max_size=3, unique=True))
    horizon = draw(st.integers(0, 3) if ids else
                   st.sampled_from([0, 1, MAX_HORIZON_TICKS]))
    ego = (draw(values(-MAX_MAGNITUDE, road[2])), draw(values(0.0, width)),
           draw(values(math.nextafter(-math.pi, 0.0), math.pi)),
           draw(values(0.0, MAX_MAGNITUDE)))
    actors = {aid: (draw(values(-MAX_MAGNITUDE, MAX_MAGNITUDE)),
                    draw(values(0.0, 10.0)), draw(values(0.0, 30.0)),
                    draw(values(0.0, MAX_MAGNITUDE))) for aid in ids}
    phases = [(draw(st.text(max_size=2)), *sorted(
        draw(st.integers(0, min(horizon, 3))) for _ in range(2)))
        for _ in range(draw(st.integers(0, 2)))]
    return road, dt, horizon, ego, draw(values(0.0, MAX_MAGNITUDE)), \
        actors, phases


def build_scenario(road, dt, horizon, ego, ego_radius, actors, phases):
    """actors maps an id to (x at tick 0, y, speed, radius)."""
    trajs = {aid: state_trajectory(aid, 0, dt, tuple(
        ActorState(x + v * dt * i, y, 0.0, v) for i in range(horizon + 1)))
        for aid, (x, y, v, _) in actors.items()}
    radii = {EGO_ID: ego_radius, **{aid: a[3] for aid, a in actors.items()}}
    return Scenario(RoadMap(*road), trajs, ActorState(*ego), horizon, dt,
                    radii, tuple(PhaseSpan(*p) for p in phases))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenario_parts())
# the boundaries, each once: no npcs or phases at the longest horizon; every
# number of the road, dt, the ego and the radii at its largest magnitude;
# npcs parked at +-MAX_MAGNITUDE and at 0, one of radius 0
@example(((1, 3.5, 900.0, 14.0), 0.1, MAX_HORIZON_TICKS,
          (0.0, 0.0, 0.0, 0.0), 0.0, {}, []))
@example(((3, MAX_MAGNITUDE, MAX_MAGNITUDE, MAX_MAGNITUDE), MAX_MAGNITUDE,
          1, (-MAX_MAGNITUDE, MAX_MAGNITUDE, math.pi, MAX_MAGNITUDE),
          MAX_MAGNITUDE, {}, [("", 0, 1)]))
@example(((2, 3.5, 200.0, 15.0), 0.1, 3, (40.0, 1.75, 0.0, 5.0), 1.2,
          {"a": (MAX_MAGNITUDE, 0.0, 0.0, 0.0),
           "b": (-MAX_MAGNITUDE, 7.0, 0.0, MAX_MAGNITUDE),
           "c": (0.0, 5.25, 5.0, 1.2)}, [("s1", 0, 2), ("s2", 2, 3)]))
def test_every_accepted_scenario_round_trips(parts):
    try:
        s = build_scenario(*parts)
    except ScenarioError:
        reject()
    data = save_scenario(s)
    assert data == reference_save_scenario(s)
    back = load_scenario(data)
    assert back == s
    assert save_scenario(back) == data


def _replace_actor(s, aid, **changes):
    trajs = dict(s.npc_trajectories)
    trajs[aid] = trajs[aid].replace(**changes)
    return s.replace(npc_trajectories=trajs)


def _rename_lead(s, aid):
    """s with "lead" keyed, and carrying the actor id, aid."""
    def renamed(mapping, value):
        return {aid if k == "lead" else k: value(k, v)
                for k, v in mapping.items()}
    return s.replace(
        actor_radius=renamed(s.actor_radius, lambda k, r: r),
        npc_trajectories=renamed(s.npc_trajectories, lambda k, t: (
            t.replace(actor_id=aid) if k == "lead" else t)))


def _teleport(s):
    rows = array("d", s.npc_trajectories["lead"].rows)
    rows[4 * 10] = 500.0   # tick 10's x
    return _replace_actor(s, "lead", rows=rows)


def _actorless(horizon):
    road = RoadMap(3, 3.5, 300.0, 15.0)
    return Scenario(road, {}, ActorState(10.0, 5.25, 0.0, 1.0), horizon,
                    0.1, {EGO_ID: 1.2})


# each Scenario once saved a document that did not load back as it
BROKEN = {
    "ego radius nan": (lambda s: s.replace(
        actor_radius={**s.actor_radius, EGO_ID: math.nan}),
        r"^\$\.ego\.radius: must be within \[0, 1e\+150\], got nan$"),
    "ego radius -1": (lambda s: s.replace(
        actor_radius={**s.actor_radius, EGO_ID: -1.0}),
        r"^\$\.ego\.radius: .* got -1\.0$"),
    "lane_count True": (lambda s: s.map.replace(lane_count=True),
                        r"^lane_count must be an integer >= 1, got True$"),
    "integer phase name": (lambda s: PhaseSpan(3, 0, 10),
                           r"^name must be a string, got 3$"),
    "phase past the horizon": (lambda s: s.replace(
        phases=s.phases[:-1] + (PhaseSpan("s5", s.phases[-1].start_tick,
                                          s.horizon_ticks + 1),)),
        r"^\$\.phase_metadata\[4\]: span ends at 410, after tick 409$"),
    "ego past the road's end": (lambda s: s.replace(
        ego_initial=ActorState(950.0, 5.25, 0.0, 10.0)),
        r"^\$\.ego\.state: ego is off-road at x = 950\.0$"),
    "ego speed inf": (lambda s: s.replace(
        ego_initial=ActorState(40.0, 5.25, 0.0, math.inf)),
        r"^\$\.ego\.state\[3\]: expected a number of magnitude <= "
        r"1e\+150, got inf$"),
    "horizon -3": (lambda s: _actorless(-3),
                   r"^\$\.horizon_ticks: must be an integer >= 0, got -3$"),
    "horizon 10**9": (lambda s: _actorless(10 ** 9),
                      r"^\$\.horizon_ticks: must be <= 400000, got "
                      r"1000000000$"),
    "horizon 2.5": (lambda s: _actorless(2.5),
                    r"^\$\.horizon_ticks: must be an integer >= 0, got 2\.5$"),
    "empty actor id": (lambda s: _rename_lead(s, ""),
                       r"^actor_id must be a non-empty string, got ''$"),
    "integer actor id": (lambda s: _rename_lead(s, 7),
                         r"^actor_id must be a non-empty string, got 7$"),
    "teleporting actor": (_teleport,
                          r"^\$\.actors\[0\]\.states: actor 'lead': "
                          r"implied speed .* at tick 9 "),
    "road_length 1e200": (lambda s: s.map.replace(road_length=1e200),
                          r"^road_length must be positive and <= 1e\+150, "
                          r"got 1e\+200$"),
    "dt off by 1e-13": (lambda s: _replace_actor(s, "lead", dt=0.1 + 1e-13),
                        r"^\$\.actors\[0\]\.states: actor 'lead' covers "
                        r"ticks \[0, 409\] at dt 0\.1000000000001\d*, not "
                        r"\[0, 409\] at 0\.1$"),
    "radius of no actor": (lambda s: s.replace(
        actor_radius={**s.actor_radius, "ghost": 1.2}),
        r"^actor_radius: keys \[.*'ghost'.*\] are not the npc ids and "
        r"'ego'$"),
}


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_scenario_refuses_what_would_not_round_trip(case):
    make, message = BROKEN[case]
    s = generate_case_study()
    with pytest.raises(ScenarioError, match=message):
        make(s)


# ---------------------------------------------------------------------------
# Value semantics against the standard library's dataclasses
# ---------------------------------------------------------------------------

def drawn_values(rng):
    """One value of each of the package's 17 frozen value types, its
    fields drawn from rng out of small pools, so two draws often share
    a field; NaN among them, which equals itself only as one object."""
    c = rng.choice
    states = drawn_states(rng, rng.randint(1, 3))
    traj = Trajectory(c(["a", "lead"]), rng.randint(0, 2), c([0.1, 0.05]),
                      rows_of(states))
    road = RoadMap(rng.randint(1, 3), c([3.0, 3.5]), c([300.0, 900.0]),
                   c([14.0, 15.0]))
    h = rng.randint(2, 5)
    parked = Trajectory("p", 0, 0.1, array("d", (c([20.0, 30.0]), 1.5, 0.0,
                                                 0.0) * (h + 1)))
    phase = PhaseSpan(c(["s1", "s2"]), rng.randint(0, 1), rng.randint(1, h))
    plan = Plan(traj, c([1.0, 2.5]), c([None, ("keep",), ("keep", "brake")]),
                c([False, True]))
    goal = GoalSpec(c([20.0, 40.0]), rng.randint(0, 2))
    lattice = LatticeConfig(rng.randint(2, 4), tuple(rng.sample(
        MANEUVERS, rng.randint(1, 3))), 10)
    gamma = [None, 0.25, math.nan]
    record = StepRecord(rng.randint(0, 30), c(["s1", ""]), c(["a", "b"]),
                        *(c(gamma) for _ in range(6)), rng.randint(0, 2),
                        c([False, True]))
    return [
        states[0], traj, road, phase,
        Scenario(road, {"p": parked}, ActorState(c([10.0, 12.0]), 1.5, 0.0,
                                                 c([0.0, 5.0])),
                 h, 0.1, {"p": 1.2, EGO_ID: c([1.0, 1.2])}, [phase]),
        CaseStudyParams(dt=c([0.1, 0.05]), ego_speed=c([10.0, 12.0]),
                        near_offset=c([17.0, -3.0]),
                        brake_decel=c([None, 2.7]),
                        steady_ticks=rng.randint(0, 2)),
        plan, PlanSet(tuple(c([plan, plan.replace(cost=4.0)])
                            for _ in range(rng.randint(0, 2))),
                      rng.randint(1, 3)),
        lattice, goal,
        PlannerConfig(rng.randint(1, 3), rng.randint(0, 2), goal,
                      c([8.0, 10.0])),
        PredictionConfig(c([0.0, 0.35]), c([0.0, 0.02]), rng.randint(1, 2),
                         rng.randint(0, 2)),
        ExactRisk(rng.randint(2, 3), rng.randint(0, 1), c([0.0, 0.5]),
                  {"a": c([0.0, 0.5])}, functools.partial(dict, a=0.25)),
        SelectionResult(plan, c([0.0, 0.5]), c([False, True])),
        RunConfig(seed=rng.randint(0, 2), horizon=lattice.horizon,
                  replan_every=c([5, 15]), samples=rng.randint(0, 2),
                  operators=c([("euclid",), ["kl", "euclid"], ("exact",)]),
                  lattice=lattice, iteration_budget=rng.randint(1, 2)),
        record,
        RunResult(tuple(c([record, record.replace(tick=40)])
                        for _ in range(rng.randint(0, 2))),
                  tuple(states), (0, rng.randint(1, 15))),
    ]


def _mirrored(value):
    """value as its dataclass mirror, field for field."""
    cls = type(value)
    return dataclass_mirror(cls)(*(getattr(value, name)
                                   for name in cls._fields))


def _hash(value):
    """hash(value), or None where its type is unhashable."""
    try:
        return hash(value)
    except TypeError:
        return None


@pytest.mark.parametrize("seed", range(16))
def test_value_types_agree_with_their_dataclass_mirrors(seed):
    rng = random.Random(seed)
    values, others = drawn_values(rng), drawn_values(rng)
    assert len({type(v) for v in values}) == 17
    for value, other in zip(values, others):
        mirror = _mirrored(value)
        assert type(mirror).__name__ == type(value).__name__
        assert repr(value) == repr(mirror)
        assert _hash(value) == _hash(mirror)
        # another class is never equal: each side declines, both ways
        assert value.__eq__(mirror) is NotImplemented
        assert mirror.__eq__(value) is NotImplemented
        assert value != mirror and not value == mirror
        for x in values:   # nor is a value of another of the types
            if type(x) is not type(value):
                assert value.__eq__(x) is NotImplemented
                assert mirror.__eq__(_mirrored(x)) is NotImplemented
        back, mirror_back = (pickle.loads(pickle.dumps(v))
                             for v in (value, mirror))
        assert type(back) is type(value) and repr(back) == repr(mirror_back)
        assert (back == value) == (mirror_back == mirror)
        # NaN hashes by identity, so a loaded NaN field changes the hash
        assert (_hash(back) == _hash(value)) == \
            (_hash(mirror_back) == _hash(mirror))
        # a value that differs in at most one field, drawn anew
        for name in type(value)._fields:
            try:
                changed = value.replace(**{name: getattr(other, name)})
            except ValueError:   # breaks one of the value's rules
                continue
            changed_mirror = _mirrored(changed)
            assert (changed == value) == (changed_mirror == mirror)
            assert (changed != value) == (changed_mirror != mirror)
            assert repr(changed) == repr(changed_mirror)
            assert _hash(changed) == _hash(changed_mirror)
