import hashlib
import math
import pickle
from dataclasses import FrozenInstanceError
from unittest import mock

import numpy as np
import pytest

from navrisk.scenario import (
    EGO_ID,
    EGO_LANE,
    MERGER,
    ActorState,
    CaseStudyParams,
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


def make_straight(actor_id="a", n=10, speed=5.0, dt=0.1, y=1.75):
    states = tuple(
        ActorState(speed * dt * i, y, 0.0, speed) for i in range(n + 1))
    return Trajectory(actor_id, 0, dt, states)


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
            with pytest.raises(FrozenInstanceError):
                setattr(a, name, 1.0)
        # a new name: CPython 3.11's frozen slotted __setattr__ raises
        # TypeError, later versions FrozenInstanceError
        with pytest.raises((AttributeError, TypeError)):
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
            Trajectory("a", 0, 0.1, ())

    def test_kinematic_check_passes_for_consistent(self):
        make_straight().check_kinematics()

    def test_kinematic_check_rejects_teleport(self):
        states = (ActorState(0, 0, 0, 1.0), ActorState(50, 0, 0, 1.0))
        with pytest.raises(ScenarioError, match="implied speed"):
            Trajectory("a", 0, 0.1, states).check_kinematics()

    @pytest.mark.parametrize("args, field", [
        ((2.5, 3.5, 900.0, 14.0), "lane_count"),
        ((3, math.nan, 900.0, 14.0), "lane_width"),
        ((3, 3.5, math.inf, 14.0), "road_length"),
        ((3, 3.5, 900.0, math.nan), "speed_limit"),
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


class TestPhaseScript:
    """The default case study's five phases, integrated in order."""

    def test_merger_brake_stop_ticks_match_closed_form(self):
        # discrete braking from v at rate a stops after ceil(v / (a*dt)) ticks
        p = CaseStudyParams()
        s = generate_case_study(p)
        s5 = s.phases[-1]
        mover = s.npc_trajectories[MERGER]
        v0 = mover.speeds[s5.start_tick]
        expected_ticks = math.ceil(v0 / (p.brake_decel * p.dt))
        assert v0 == p.cutin_merge_speed == 4.0 and expected_ticks == 15
        stop = s5.start_tick + expected_ticks
        assert mover.speeds[stop] == 0.0
        assert mover.speeds[stop - 1] > 0.0
        assert s5.end_tick == stop + p.tail_ticks
        # trapezoidal stopping distance matches v^2/(2a) to tick resolution
        dist = mover.xy[stop, 0] - mover.xy[s5.start_tick, 0]
        assert abs(dist - v0 ** 2 / (2 * p.brake_decel)) < v0 * p.dt

    def test_steady_displacement_exact(self):
        s = generate_case_study()
        s2 = s.phases[1]
        for traj in s.npc_trajectories.values():
            xs = traj.xy[s2.start_tick:s2.end_tick + 1, 0]
            v = traj.speeds[s2.start_tick]
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
            seg = traj.speeds[s2.start_tick:s2.end_tick + 1]
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
        seg = mover.speeds[s5.start_tick:s5.end_tick + 1]
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
        from dataclasses import fields
        assert [f.name for f in fields(CaseStudyParams)] == [
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
