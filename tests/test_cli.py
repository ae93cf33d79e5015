import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from navrisk.cli import main
from navrisk.scenario import generate_case_study, load_scenario, save_scenario


@pytest.fixture(scope="module")
def casestudy_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cs") / "case.json"
    assert main(["casestudy", "--out", str(path)]) == 0
    return path


def run_probe(code: str, *args: str) -> str:
    """The last line that code prints in a fresh interpreter that imports
    navrisk from this checkout's src/, given args as sys.argv[1:]."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


SMALL_RUN = ["run", "--casestudy-defaults", "--budget", "50",
             "--replan-every", "40", "--out", "{out}"]


@pytest.mark.parametrize("argv, loaded", [
    (SMALL_RUN, False),
    (["casestudy", "--out", "{out}"], False),
    ([*SMALL_RUN, "--samples", "1"], False),
    ([*SMALL_RUN, "--exact-lattice"], False),
    ([*SMALL_RUN, "--exact-lattice", "--operator", "kl"], False),
    ([*SMALL_RUN, "--exact-lattice", "--operator", "both"], False),
    ([*SMALL_RUN, "--samples", "1", "--exact-lattice", "--operator",
      "both"], False),
    (["oracle", "--scenario", "{case}", "--t", "20", "--k", "8",
      "--steps", "2"], False),
], ids=["run", "casestudy", "run samples", "run exact", "run exact kl",
        "run exact both", "run samples exact both", "oracle"])
def test_only_array_commands_load_numpy(casestudy_path, tmp_path, argv,
                                        loaded):
    # numpy costs about 12 MiB of resident memory and 0.07-0.1 s of
    # start-up; the runs and the oracle compute their risks with the
    # kernel and plain floats (the lattice is walked, the sampled futures
    # drawn and the KL importance summed in the kernel), so no command
    # loads numpy.  TestRunCommand's run that imports numpy.random itself
    # shows that such a probe sees numpy
    args = [a.format(out=tmp_path / "out", case=casestudy_path)
            for a in argv]
    code = ("import sys\n"
            "from navrisk.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "print('numpy' in sys.modules)\n")
    assert run_probe(code, *args) == str(loaded)


class TestCasestudyCommand:
    def test_document_round_trips(self, casestudy_path):
        s = load_scenario(casestudy_path.read_bytes())
        assert len(s.npc_trajectories) == 6
        assert [p.name for p in s.phases] == ["s1", "s2", "s3", "s4", "s5"]
        assert save_scenario(load_scenario(save_scenario(s))) == \
            save_scenario(s)

    def test_no_brake_lists_four_phases(self, tmp_path):
        out = tmp_path / "nobrake.json"
        assert main(["casestudy", "--out", str(out), "--no-brake"]) == 0
        s = load_scenario(out.read_bytes())
        assert [p.name for p in s.phases] == ["s1", "s2", "s3", "s4"]

    def test_infeasible_params_exit_3(self, tmp_path, capsys):
        out = tmp_path / "bad.json"
        assert main(["casestudy", "--out", str(out),
                     "--ego-speed", "99.0"]) == 3
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", [
        ("--dt", "0", "dt"),
        ("--dt", "-0.1", "dt"),
        ("--dt", "nan", "dt"),
        ("--dt", "inf", "dt"),
        ("--steady-ticks", "-5", "steady_ticks"),
        ("--tail-ticks", "-1", "tail_ticks"),
        ("--tail-ticks", "300000", "tail_ticks"),
        ("--steady-ticks", "300000", "steady_ticks"),
        ("--brake-decel", "nan", "brake_decel"),
        ("--lane-change-duration", "inf", "lane_change_duration"),
        ("--lane-change-duration", "1e308", "lane_change_duration"),
        ("--ego-speed", "nan", "ego_speed"),
        ("--ego-speed", "-1", "ego_speed"),
        ("--lane-change-duration", "-5", "lane_change_duration"),
        ("--brake-decel", "-1", "brake_decel"),
    ])
    def test_bad_params_exit_3_names_field(self, tmp_path, capsys, flag,
                                           value, field):
        out = tmp_path / "bad.json"
        assert main(["casestudy", "--out", str(out), flag, value]) == 3
        assert f"error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exit_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["casestudy", "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err


class TestOracleCommand:
    def test_table_matches_fixture(self, tmp_path, capsys):
        # three lanes, ego mid-lane, one static blocker in the top lane
        from navrisk.scenario import ActorState, RoadMap, Scenario, EGO_ID
        from oracles import state_trajectory
        road = RoadMap(3, 3.5, 300.0, 15.0)
        state = ActorState(11.5, road.lane_center(2), 0.0, 0.0)
        blk = state_trajectory("blk", 0, 0.1, (state,) * 31)
        s = Scenario(map=road, npc_trajectories={"blk": blk},
                     ego_initial=ActorState(10.0, road.lane_center(1),
                                            0.0, 1.0),
                     horizon_ticks=30, dt=0.1,
                     actor_radius={"blk": 1.2, EGO_ID: 1.2})
        path = tmp_path / "blocker.json"
        path.write_bytes(save_scenario(s))
        assert main(["oracle", "--scenario", str(path), "--k", "30",
                     "--steps", "3"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "kind,actor_id,z_empty,z,rho"
        total = out[1].split(",")
        assert total[2] == "17" and total[3] == "8"
        assert float(total[4]) == pytest.approx((17 - 8) / 17, abs=1e-12)
        actor = out[2].split(",")
        assert actor[1] == "blk"
        assert float(actor[4]) == pytest.approx((17 - 8) / 17, abs=1e-12)

    def test_empty_scenario_zero_risk_empty_table(self, tmp_path, capsys):
        from navrisk.scenario import ActorState, RoadMap, Scenario, EGO_ID
        road = RoadMap(3, 3.5, 300.0, 15.0)
        s = Scenario(map=road, npc_trajectories={},
                     ego_initial=ActorState(10.0, road.lane_center(1),
                                            0.0, 1.0),
                     horizon_ticks=30, dt=0.1, actor_radius={EGO_ID: 1.2})
        path = tmp_path / "empty.json"
        path.write_bytes(save_scenario(s))
        assert main(["oracle", "--scenario", str(path), "--k", "30",
                     "--steps", "3"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 2  # header + total row, no actor rows
        assert float(out[1].split(",")[4]) == 0.0

    def test_cap_exceeded_exit_5(self, tmp_path, casestudy_path, capsys):
        assert main(["oracle", "--scenario", str(casestudy_path),
                     "--k", "40", "--steps", "40",
                     "--maneuvers",
                     "keep,shift_left,shift_right,brake,accelerate"]) == 5
        assert "--steps" in capsys.readouterr().err

    def test_huge_lattice_exit_5_at_once(self, casestudy_path, capsys):
        # the cap check used to build 3^10000000 exactly, for about 5 s
        start = time.perf_counter()
        assert main(["oracle", "--scenario", str(casestudy_path),
                     "--k", "10000000", "--steps", "10000000"]) == 5
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: --steps: 3^10000000 sequences exceed the cap of "
            "1000000\n")

    def test_degenerate_universe_exit_4(self, tmp_path):
        # single-lane road with a shift-only lattice: nothing is in-bounds
        from navrisk.scenario import (ActorState, RoadMap, Scenario,
                                      Trajectory, EGO_ID)
        road = RoadMap(1, 3.5, 100.0, 10.0)
        s = Scenario(map=road, npc_trajectories={},
                     ego_initial=ActorState(5.0, 1.75, 0.0, 1.0),
                     horizon_ticks=20, dt=0.1, actor_radius={EGO_ID: 1.2})
        path = tmp_path / "onelane.json"
        path.write_bytes(save_scenario(s))
        assert main(["oracle", "--scenario", str(path), "--k", "20",
                     "--steps", "2", "--maneuvers", "shift_left"]) == 4

    def test_missing_scenario_exit_3(self, tmp_path):
        assert main(["oracle", "--scenario", str(tmp_path / "nope.json"),
                     "--k", "30", "--steps", "3"]) == 3

    @pytest.mark.parametrize("keys, value, field", [
        (("map", "lane_count"), "x", "$.map.lane_count"),
        (("dt",), "x", "$.dt"),
        (("ego", "state"), 5, "$.ego.state"),
        (("actors", 0, "states", 0), "abcd", "$.actors[0].states[0]"),
        (("ego", "state", 0), float("nan"), "$.ego.state[0]"),
        (("map", "lane_count"), 2.7, "$.map.lane_count"),
        (("actors", 0, "radius"), -1, "$.actors[0].radius"),
        (("map",), 5, "$.map"),
        (("actors",), 5, "$.actors"),
        (("actors", 0, "states"), 5, "$.actors[0].states"),
        (("phase_metadata",), 5, "$.phase_metadata"),
        (("phase_metadata", 0, "start_tick"), 99999, "$.phase_metadata[0]"),
        (("phase_metadata", 1, "end_tick"), 0, "$.phase_metadata[1]"),
        (("phase_metadata", 0, "start_tick"), -1, "$.phase_metadata[0]"),
        (("dt",), 0, "$.dt"),
        (("horizon_ticks",), -1, "$.horizon_ticks"),
        (("map", "lane_width"), 0, "$.map"),
        (("map", "speed_limit"), -1, "$.map"),
        (("actors", 0, "states", 5, 0), 1e6, "$.actors[0].states"),
        (("ego", "state", 1), -5.0, "$.ego.state"),
        (("ego", "state", 1), 99.0, "$.ego.state"),
        (("version",), True, "$.version"),
        (("actors", 0, "id"), None, "$.actors[0].id"),
        (("actors", 0, "id"), 7, "$.actors[0].id"),
        (("actors", 0, "id"), {"a": 1}, "$.actors[0].id"),
        (("actors", 0, "id"), "", "$.actors[0].id"),
        (("phase_metadata", 0, "name"), 3, "$.phase_metadata[0].name"),
    ])
    def test_malformed_document_exit_3_names_field(
            self, tmp_path, casestudy_path, capsys, keys, value, field):
        doc = json.loads(casestudy_path.read_bytes())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", "--scenario", str(path), "--t", "20",
                     "--k", "8", "--steps", "2"]) == 3
        assert field in capsys.readouterr().err

    def test_indivisible_k_exit_2(self, casestudy_path):
        assert main(["oracle", "--scenario", str(casestudy_path),
                     "--k", "31", "--steps", "3"]) == 2

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_steps_below_one_exit_2(self, casestudy_path, capsys, steps):
        assert main(["oracle", "--scenario", str(casestudy_path),
                     "--k", "40", "--steps", steps]) == 2
        assert "--steps" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-40"])
    def test_k_below_one_exit_2(self, casestudy_path, capsys, k):
        assert main(["oracle", "--scenario", str(casestudy_path),
                     "--k", k, "--steps", "1"]) == 2
        assert "--k" in capsys.readouterr().err

    @pytest.mark.parametrize("maneuvers", ["foo", "keep,foo", ","])
    def test_bad_maneuvers_exit_2(self, casestudy_path, capsys, maneuvers):
        assert main(["oracle", "--scenario", str(casestudy_path),
                     "--k", "8", "--steps", "2",
                     "--maneuvers", maneuvers]) == 2
        assert "maneuver" in capsys.readouterr().err

    @pytest.mark.parametrize("maneuvers", ["keep,,shift_left",
                                           "keep,shift_left, ",
                                           " keep , shift_left"])
    def test_empty_maneuver_names_skipped(self, casestudy_path, capsys,
                                          maneuvers):
        # a name is stripped before an empty one is dropped, so a blank
        # after the last comma is no unknown maneuver ''
        argv = ["oracle", "--scenario", str(casestudy_path), "--t", "20",
                "--k", "8", "--steps", "2", "--maneuvers"]
        assert main([*argv, "keep,shift_left"]) == 0
        want = capsys.readouterr().out
        assert main([*argv, maneuvers]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("t", ["-1", "400"])
    def test_window_outside_scenario_exit_2(self, casestudy_path, capsys,
                                            t):
        # the case study has 409 ticks; [400, 440] runs past its end
        assert main(["oracle", "--scenario", str(casestudy_path),
                     "--t", t, "--k", "40", "--steps", "8"]) == 2
        assert "--t" in capsys.readouterr().err

    def test_unreadable_scenario_exit_3_names_flag(self, tmp_path, capsys):
        assert main(["oracle", "--scenario", str(tmp_path),
                     "--k", "8", "--steps", "2"]) == 3
        assert "--scenario" in capsys.readouterr().err

    def test_case_study_window_output_pinned(self, casestudy_path, capsys):
        # the table the per-actor enumeration printed for this window
        assert main(["oracle", "--scenario", str(casestudy_path),
                     "--t", "20", "--k", "40", "--steps", "8"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == (
            "cb9e8e4e4ef4aff7dcbc55b3de6ff23adb2bc9a0836ee77944bbb96213af56d6")

    def test_million_lanes_table_and_memory(self, casestudy_path, tmp_path,
                                            capsys):
        # the walk reads only the lanes its steps can reach, so 10^6 lanes
        # print the table that one centre per lane gave (two steps from
        # lane 1 reach lane 3, so 8 plans against 3 lanes' 7), and trace
        # no per-lane memory: one centre per lane traced a 38.6 MiB peak
        doc = json.loads(casestudy_path.read_bytes())
        doc["map"]["lane_count"] = 10 ** 6
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        assert main(["oracle", "--scenario", str(path), "--t", "20",
                     "--k", "8", "--steps", "2"]) == 0
        assert capsys.readouterr().out == (
            "kind,actor_id,z_empty,z,rho\n"
            "total,,8,8,0.0\n"
            + "".join(f"actor,{aid},8,8,0.0\n" for aid in (
                "lead", "cutin", "near", "far", "rear", "outer")))
        import tracemalloc
        from navrisk.planner import LatticeConfig
        from navrisk.risk import all_actor_risk_exact
        s = load_scenario(path.read_bytes())
        lattice = LatticeConfig(2, ("keep", "shift_left", "shift_right"), 4)
        tracemalloc.start()
        try:
            risk = all_actor_risk_exact(s, 20, 8, lattice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (risk.z_empty, risk.z) == (8, 8) and peak < 2 ** 20

    def test_oracle_never_loads_openssl(self, tmp_path):
        # hashlib's OpenSSL module costs 3.6 MiB of resident memory; no
        # command needs it, since the sampled futures key their streams
        # with _blake2's blake2s
        code = (
            "import sys\n"
            "from navrisk.cli import main\n"
            "case = sys.argv[1]\n"
            "assert main(['casestudy', '--out', case]) == 0\n"
            "assert main(['oracle', '--scenario', case, '--t', '20',\n"
            "             '--k', '8', '--steps', '2']) == 0\n"
            "print('_hashlib' in sys.modules)\n")
        assert run_probe(code, str(tmp_path / "case.json")) == "False"


class TestRunCommand:
    @pytest.mark.parametrize("extra, imports, loaded", [
        ([], "", "False False False"),
        (["--samples", "2"], "", "False False False"),
        ([], "import numpy.random\n", "True True True")],
        ids=["no samples", "samples", "numpy.random imported"])
    def test_only_sampled_futures_load_numpy_random(self, tmp_path, extra,
                                                    imports, loaded):
        # numpy.random, and through it hashlib's OpenSSL module, cost
        # about 6 MiB of resident memory; the planner's stream and seeds
        # and the sampled futures' noise are drawn in the kernel, so no
        # run loads them.  The run that imports numpy.random itself shows
        # that the probe sees them
        code = (
            "import sys\n"
            f"{imports}"
            "from navrisk.cli import main\n"
            "assert main(['run', '--casestudy-defaults', '--budget', '50',\n"
            "             '--replan-every', '40', '--out', sys.argv[1],\n"
            "             *sys.argv[2:]]) == 0\n"
            "print('numpy' in sys.modules, 'numpy.random' in sys.modules,\n"
            "      '_hashlib' in sys.modules)\n")
        assert run_probe(code, str(tmp_path / "out"), *extra) == loaded

    def test_run_emits_artifacts(self, tmp_path, casestudy_path):
        out = tmp_path / "out"
        code = main(["run", "--scenario", str(casestudy_path),
                     "--seed", "5", "--budget", "200",
                     "--replan-every", "40", "--out", str(out)])
        assert code == 0
        for name in ("run.csv", "phase_summary.csv", "scatter.svg",
                     "risk_timeline.svg"):
            assert (out / name).exists()
        header = (out / "run.csv").read_text().split("\n")[0]
        assert header == ("tick,phase,actor_id,gamma_euclid,gamma_kl,"
                          "rho_exact,mean_gamma,var_gamma,prediction_error,"
                          "ego_lane,plan_partial")

    def test_row_count_is_replans_times_actors(self, tmp_path,
                                               casestudy_path):
        out = tmp_path / "out2"
        main(["run", "--scenario", str(casestudy_path), "--budget", "200",
              "--replan-every", "40", "--out", str(out)])
        s = load_scenario(casestudy_path.read_bytes())
        replans = len(range(0, s.horizon_ticks, 40))
        rows = (out / "run.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == replans * len(s.npc_trajectories)

    def test_long_horizon_routes(self, tmp_path):
        # a 9 km base advance: every soft-minimum exp underflows to 0.0
        assert main(["run", "--casestudy-defaults", "--horizon", "9000",
                     "--budget", "50", "--out", str(tmp_path / "x")]) == 0

    def test_bad_config_exit_2(self, tmp_path, casestudy_path):
        assert main(["run", "--scenario", str(casestudy_path),
                     "--horizon", "41", "--exact-lattice",
                     "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("steps", ["0", "-4"])
    def test_lattice_steps_below_one_exit_2(self, tmp_path, casestudy_path,
                                            capsys, steps):
        assert main(["run", "--scenario", str(casestudy_path),
                     "--exact-lattice", "--lattice-steps", steps,
                     "--out", str(tmp_path / "x")]) == 2
        assert "--lattice-steps" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--exact-lattice"],
                                      ["--operator", "kl"]])
    def test_lattice_cap_exit_5_before_planning(self, tmp_path,
                                                casestudy_path, capsys,
                                                monkeypatch, mode):
        def no_run(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr("navrisk.cli.run_simulation", no_run)
        assert main(["run", "--scenario", str(casestudy_path), *mode,
                     "--lattice-steps", "20",
                     "--out", str(tmp_path / "x")]) == 5
        assert "--lattice-steps" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flags", [
        ["--budget", "0"],
        # one above planner.MAX_BUDGET, and one that the kernel's C int
        # would read as 1
        ["--budget", str(2 ** 30 - 1)],
        ["--budget", str(2 ** 32 + 1)],
        ["--samples", "-1"],
        ["--samples", "1", "--noise-accel", "-1"],
        ["--noise-yawrate", "nan"],
        ["--noise-accel", "inf"],
        ["--seed", "-1"],
        ["--seed", str(2 ** 64 + 42)],
    ])
    def test_bad_run_option_exit_2_before_any_work(
            self, tmp_path, casestudy_path, monkeypatch, flags):
        def no_run(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr("navrisk.cli.run_simulation", no_run)
        assert main(["run", "--scenario", str(casestudy_path), *flags,
                     "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_non_finite_sampled_future_exit_2(self, tmp_path,
                                              casestudy_path, capsys):
        # --noise-accel 1e308 draws +-inf accelerations; the run used to
        # exit 0 with actors at inf/NaN positions that never collide
        assert main(["run", "--scenario", str(casestudy_path),
                     "--samples", "1", "--noise-accel", "1e308",
                     "--budget", "50", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert "actor '" in err and "sample 0" in err
        assert "noise_accel_sigma=1e+308" in err
        assert not (tmp_path / "x" / "run.csv").exists()

    def test_sampled_future_beyond_the_document_bound_exit_2(self, tmp_path,
                                                             capsys):
        # finite, but actors some 1e159 m away, which no collision check
        # can hit; the run used to exit 0 with such Monte-Carlo columns
        assert main(["run", "--casestudy-defaults", "--samples", "1",
                     "--noise-accel", "1e160", "--budget", "50",
                     "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sampled future of actor '")
        assert "', sample 0, is not finite or beyond 1e+150" in err
        assert not (tmp_path / "x" / "run.csv").exists()

    def test_out_is_a_file_exit_2_before_planning(self, tmp_path,
                                                 casestudy_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("simulation started")

        monkeypatch.setattr("navrisk.cli.run_simulation", no_run)
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["run", "--scenario", str(casestudy_path),
                     "--out", str(out)]) == 2

    def test_bad_scenario_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"version": 1}')
        assert main(["run", "--scenario", str(bad),
                     "--out", str(tmp_path / "y")]) == 3

    def test_actorless_huge_horizon_exit_3_at_once(self, tmp_path):
        # an actor needs a state row per tick, so only a document with no
        # actors claims such a horizon cheaply; the run used to plan its
        # 6.7e7 replans
        from navrisk.scenario import (EGO_ID, MAX_HORIZON_TICKS, ActorState,
                                      RoadMap, Scenario)
        road = RoadMap(3, 3.5, 300.0, 15.0)
        doc = tmp_path / "long.json"
        # a Scenario refuses such a horizon, so the document is edited
        data = json.loads(save_scenario(Scenario(
            map=road, npc_trajectories={},
            ego_initial=ActorState(10.0, road.lane_center(1), 0.0, 1.0),
            horizon_ticks=0, dt=0.1, actor_radius={EGO_ID: 1.2})))
        doc.write_text(json.dumps({**data, "horizon_ticks": 10 ** 9}))
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run(
            [sys.executable, "-m", "navrisk.cli", "run", "--scenario",
             str(doc), "--out", str(tmp_path / "y")],
            capture_output=True, text=True, env=env, timeout=20)
        assert proc.returncode == 3
        assert f"$.horizon_ticks: must be <= {MAX_HORIZON_TICKS}" \
            in proc.stderr

    def test_exact_lattice_and_kl_columns(self, tmp_path):
        # small scenario so the lattice pass stays fast
        from navrisk.scenario import CaseStudyParams
        from navrisk.scenario import generate_case_study, save_scenario
        s = generate_case_study(CaseStudyParams(
            steady_ticks=30, steady2_ticks=30, tail_ticks=15))
        path = tmp_path / "small.json"
        path.write_bytes(save_scenario(s))
        out = tmp_path / "out3"
        code = main(["run", "--scenario", str(path), "--budget", "150",
                     "--replan-every", "40", "--operator", "both",
                     "--exact-lattice", "--out", str(out)])
        assert code == 0
        rows = (out / "run.csv").read_text().strip().split("\n")[1:]
        cols = rows[0].split(",")
        assert cols[4] != "" and cols[5] != ""  # gamma_kl, rho_exact

    def test_kl_without_exact_lattice_leaves_rho_blank(self, tmp_path):
        from navrisk.scenario import CaseStudyParams
        s = generate_case_study(CaseStudyParams(
            steady_ticks=30, steady2_ticks=30, tail_ticks=15))
        path = tmp_path / "small.json"
        path.write_bytes(save_scenario(s))
        out = tmp_path / "out4"
        assert main(["run", "--scenario", str(path), "--budget", "150",
                     "--replan-every", "40", "--operator", "kl",
                     "--out", str(out)]) == 0
        rows = [r.split(",") for r in
                (out / "run.csv").read_text().strip().split("\n")[1:]]
        assert any(r[4] != "" for r in rows)            # gamma_kl
        assert all(r[5] == "" for r in rows)            # rho_exact
