"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, each
printing a single PASS line when it holds (run with `pytest -s
tests/test_acceptance.py` to see them).
"""

import csv
import hashlib
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from navrisk.cli import main
from navrisk.planner import (
    GoalSpec,
    LatticeConfig,
    PlannerConfig,
    SPEED_STEP,
    collision_check,
    enumerate_plans,
)
from navrisk.prediction import PredictionConfig, _mean_distance, \
    predict_linear, sample_worlds
from navrisk.risk import (
    actor_importance,
    actor_risk_exact,
    min_risk_selection,
    monte_carlo_importance,
    total_risk_exact,
)
from navrisk.scenario import (
    EGO_ID,
    ActorState,
    CaseStudyParams,
    RoadMap,
    Scenario,
    Trajectory,
    generate_case_study,
    slice_world,
)

from oracles import (
    PlanDistribution,
    plan_divergence_kl,
    static_actor,
    walk_enumerate,
    world_to_positions,
)

DT = 0.1


def build_scenario(actors, ego, n, road, radii=None):
    all_radii = {EGO_ID: 1.2, **{aid: 1.2 for aid in actors}}
    if radii:
        all_radii.update(radii)
    return Scenario(map=road, npc_trajectories=actors, ego_initial=ego,
                    horizon_ticks=n, dt=DT, actor_radius=all_radii)


def moving_actor(actor_id, x0, y, speed, n, dt=DT):
    states = tuple(
        ActorState(x0 + speed * dt * i, y, 0.0, speed) for i in range(n + 1))
    return Trajectory(actor_id, 0, dt, states)


def test_c1_exact_oracle_equivalence():
    """Lattice risks equal the brute-force walk oracle exactly, < 1 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(101)

    cases = []
    # the (17-8)/17 fixture
    road = RoadMap(3, 3.5, 300.0, 15.0)
    cases.append((road, ActorState(10.0, road.lane_center(1), 0.0, 1.0),
                  3, 10, [("blk", 11.5, road.lane_center(2))]))
    # corners and a randomized family up to 3 lanes x 5 steps, <= 3 actors
    for lanes, steps in [(1, 1), (2, 2), (3, 4), (3, 5)]:
        r = RoadMap(lanes, 3.5, 300.0, 15.0)
        ego = ActorState(10.0, r.lane_center(lanes // 2), 0.0, 1.5)
        acts = [
            (f"s{i}", float(rng.uniform(8, 18)), float(rng.uniform(0, r.width)))
            for i in range(int(rng.integers(0, 4)))
        ]
        cases.append((r, ego, steps, int(rng.integers(4, 7)), acts))
    for _ in range(6):
        lanes = int(rng.integers(1, 4))
        steps = int(rng.integers(1, 6))
        r = RoadMap(lanes, 3.5, 300.0, 15.0)
        ego = ActorState(10.0, r.lane_center(int(rng.integers(lanes))),
                         0.0, float(rng.uniform(0.5, 3.0)))
        acts = [
            (f"s{i}", float(rng.uniform(8, 18)), float(rng.uniform(0, r.width)))
            for i in range(int(rng.integers(0, 4)))
        ]
        cases.append((r, ego, steps, int(rng.integers(3, 7)), acts))

    checked = 0
    for road, ego, steps, tps, actor_spec in cases:
        k = steps * tps
        lattice = LatticeConfig(steps, ("keep", "shift_left", "shift_right"),
                                tps)
        actors = {aid: static_actor(aid, x, y, k)
                  for aid, x, y in actor_spec}
        s = build_scenario(actors, ego, k, road)
        universe, survivors = walk_enumerate(
            road, ego, steps, lattice.maneuvers, tps, SPEED_STEP, DT,
            world_to_positions(actors), {aid: 2.9 for aid in actors})
        got_total = total_risk_exact(s, 0, k, lattice)
        want_total = (universe - len(survivors)) / universe
        assert abs(got_total - want_total) <= 1e-12
        for aid in actors:
            rest = {a: tr for a, tr in actors.items() if a != aid}
            _, surv_wo = walk_enumerate(
                road, ego, steps, lattice.maneuvers, tps, SPEED_STEP,
                DT, world_to_positions(rest), {a: 2.9 for a in rest})
            want = (len(surv_wo) - len(survivors)) / universe
            got = actor_risk_exact(s, aid, 0, k, lattice)
            assert abs(got - want) <= 1e-12
            checked += 1
        # the fixture counts must also come out exactly
        if actor_spec and actor_spec[0][0] == "blk":
            assert universe == 17 and len(survivors) == 8

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"\nACCEPTANCE C1 exact-oracle-equivalence: PASS "
          f"({len(cases)} lattices, {checked} ablations, {elapsed:.2f}s)")


def test_c2_monotonicity_under_added_actors():
    """Adding an actor never decreases total risk: 200 scenarios, 0 slack."""
    rng = np.random.default_rng(7)
    road = RoadMap(3, 3.5, 300.0, 15.0)
    lattice = LatticeConfig(3, ("keep", "shift_left", "shift_right"), 8)
    violations = 0
    for trial in range(200):
        ego = ActorState(10.0, road.lane_center(int(rng.integers(3))),
                         0.0, float(rng.uniform(0.5, 2.5)))
        base = {}
        for i in range(int(rng.integers(0, 3))):
            aid = f"b{i}"
            base[aid] = static_actor(aid, float(rng.uniform(8, 18)),
                                     float(rng.uniform(0, road.width)), 24)
        s0 = build_scenario(dict(base), ego, 24, road)
        before = total_risk_exact(s0, 0, 24, lattice)
        base["added"] = static_actor("added", float(rng.uniform(8, 18)),
                                     float(rng.uniform(0, road.width)), 24)
        s1 = build_scenario(base, ego, 24, road)
        after = total_risk_exact(s1, 0, 24, lattice)
        if after < before:
            violations += 1
    assert violations == 0
    print("\nACCEPTANCE C2 monotonicity: PASS (200 scenarios, 0 violations)")


def test_c3_null_ablation_exact_zero():
    """An actor beyond road_length has importance exactly 0, both operators."""
    rng = np.random.default_rng(13)
    road = RoadMap(3, 3.5, 300.0, 15.0)
    lattice = LatticeConfig(2, ("keep", "shift_left", "shift_right"), 10)
    for trial in range(100):
        k = 20
        ego = ActorState(10.0, road.lane_center(int(rng.integers(3))),
                         0.0, 10.0)
        world = {}
        radii = {}
        for i in range(int(rng.integers(0, 3))):
            aid = f"a{i}"
            world[aid] = moving_actor(
                aid, float(rng.uniform(18, 35)),
                float(rng.uniform(1.2, road.width - 1.2)),
                float(rng.uniform(0, 7)), k)
            radii[aid] = 1.2
        world["ghost"] = static_actor(
            "ghost", road.road_length + float(rng.uniform(1, 80)),
            road.lane_center(int(rng.integers(3))), k)
        radii["ghost"] = 1.2
        cfg = PlannerConfig(iteration_budget=150,
                            seed=int(rng.integers(0, 2 ** 31)),
                            goal=GoalSpec(18.0, road.lane_of(ego.position_y)),
                            target_speed=10.0)
        g_e = actor_importance(world, "ghost", ego, 0, k, cfg, "euclid",
                               road=road, radii=radii, route=True)
        g_kl = actor_importance(world, "ghost", ego, 0, k, cfg, "kl",
                                road=road, radii=radii, lattice=lattice)
        assert g_e == 0.0
        assert g_kl == 0.0
    print("\nACCEPTANCE C3 null-ablation: PASS "
          "(100 scenarios, exact zero, both operators)")


def test_c4_case_study_replication(tmp_path):
    """Default case study reproduces the qualitative orderings, < 60 s."""
    start = time.perf_counter()
    out = tmp_path / "case"
    code = main(["run", "--casestudy-defaults", "--out", str(out)])
    elapsed = time.perf_counter() - start
    assert code == 0
    assert elapsed < 60.0, f"criterion 4 took {elapsed:.1f}s"
    # byte-identical to the recorded default-seed outputs
    assert hashlib.sha256((out / "run.csv").read_bytes()).hexdigest() == \
        "e8a38432476da31e99ac8967ee7ab76efaed0f30b3e3b86e313f82c9c5355e14"
    assert hashlib.sha256(
        (out / "phase_summary.csv").read_bytes()).hexdigest() == \
        "98edcf2ca94eadd1d52d9d0f18f04676093c94dd6a43cea805e1585c3be77fce"

    with open(out / "phase_summary.csv") as f:
        rows = {(r["phase"], r["actor_id"]): r for r in csv.DictReader(f)}

    def med(ph, actor, col):
        v = rows[(ph, actor)][col]
        return float(v) if v else None

    mover = "cutin"
    candidates = ("near", "far")
    others = ("lead", "rear", "outer")

    # (a) the lane-change actor's error spikes at s3 and s5 vs s2
    e2 = med("s2", mover, "prediction_error_median")
    e3 = med("s3", mover, "prediction_error_median")
    e5 = med("s5", mover, "prediction_error_median")
    assert e3 >= 5 * e2
    assert e5 >= 5 * e2

    # (b) at s5 the candidate medians are strictly ordered above the
    # braking actor's
    g5 = sorted((med("s5", a, "gamma_euclid_median") for a in candidates),
                reverse=True)
    g5_mover = med("s5", mover, "gamma_euclid_median")
    assert g5[0] > g5[1] > g5_mover

    # (c) at s4 both candidates dominate every other npc
    g4_cand = min(med("s4", a, "gamma_euclid_median") for a in candidates)
    g4_other = max(med("s4", a, "gamma_euclid_median")
                   for a in (mover,) + others)
    assert g4_cand > g4_other

    print(f"\nACCEPTANCE C4 case-study-replication: PASS "
          f"(err x{e3 / max(e2, 1e-300):.0e}/{e5 / max(e2, 1e-300):.0e}, "
          f"s5 gammas {g5[0]:.2f}>{g5[1]:.2f}>{g5_mover:.2f}, "
          f"s4 {g4_cand:.2f}>{g4_other:.2f}, {elapsed:.1f}s)")


# sha256 of (run.csv, phase_summary.csv) for `run --casestudy-defaults`
# plus these flags: the Monte-Carlo and lattice paths are byte-gated too.
# The --budget 200 --seed 5 pins were recorded before the scalar growth
# kernel; casestudy-exact is the benchmark's workload at its seed 42.
SHORT = ["--budget", "200", "--seed", "5"]
RUN_PINS = {
    "samples": ([*SHORT, "--samples", "2"], (
        "b5b72ceaef90dd168aad57d57f0168643e1aa2af4810b642a9a3bc03990f7297",
        "f5eb5c06b23b420a7d64fd87877dd27fd8ad94f49c82ca3ba17c936ba9643ad5")),
    "lattice": ([*SHORT, "--exact-lattice", "--operator", "both"], (
        "8ede3e5f698d42490a308310f5d8b08599c7e641c8863e27192281fe44fe8b92",
        "5d441dd2e1d71e762b1628ef83148f2cd384a23ac03eb7d103fba79aa92f1aa3")),
    "casestudy-exact": (["--exact-lattice", "--operator", "both"], (
        "23d8b6297216c5d798548c11aad718d5f42145fa4dc9563f9f0fb7f1f64121ca",
        "e7a77cf17be0cf9ecf44b8637acdba5ac6616d7942714516ceae564d9a6c920e")),
    # the benchmark's casestudy-mc workload at seed 42
    "casestudy-mc": (["--samples", "2", "--seed", "42"], (
        "29aa76a0dec307a700ebea27ebe65645f56689befda89e6c9bf2bcc5242c6c6b",
        "98edcf2ca94eadd1d52d9d0f18f04676093c94dd6a43cea805e1585c3be77fce")),
    # the single-world lattice runs: the predicted world alone, and the
    # ground-truth slice alone
    "casestudy-kl": (["--operator", "kl", "--seed", "42"], (
        "c874024262b18d34786a4d046708cae403a803c7b1422b154d7c0bd95de6c1a3",
        "0b56d73c4b18b290a5480e880c96565307dd795e3ac174a07bf001d98391e019")),
    "casestudy-exact-only": (["--exact-lattice", "--seed", "42"], (
        "2007a6092e03a63bb674a82346483a67227f5bfa7b51d30bdc2b82ecded9a265",
        "98edcf2ca94eadd1d52d9d0f18f04676093c94dd6a43cea805e1585c3be77fce")),
    "casestudy-mc4": (["--samples", "4", "--seed", "42"], (
        "95e85259067265d350e23529fb3568f571098ba75df616f0887a3518eb195ed4",
        "98edcf2ca94eadd1d52d9d0f18f04676093c94dd6a43cea805e1585c3be77fce")),
    # the default, exact and Monte-Carlo runs at a second seed
    "seed7": (["--seed", "7"], (
        "1c89f00376153c550e2d315a6f6d499e75d77f0c87a8b84b59db18499897d6ec",
        "d983cfef71ceb3c28a8e023a54c5f5d0ab16977c2a9cdaf512575853f739c698")),
    "seed7-exact": (["--exact-lattice", "--operator", "both", "--seed", "7"], (
        "2b23195e0e688ad4494fc0aad91af23495e02bc70169a9dc1ad04dc52ff0c326",
        "cf6c1a6e1b25253bec70b4a074c1dde10135182a2fb54470bf6c33ae8fae2ba4")),
    "seed7-mc": (["--samples", "2", "--seed", "7"], (
        "74763e25bee7276ab5671cde2478b0c0c62ea88d28e292d596e3922dfea4a99c",
        "d983cfef71ceb3c28a8e023a54c5f5d0ab16977c2a9cdaf512575853f739c698")),
}


@pytest.mark.parametrize("name", sorted(RUN_PINS))
def test_run_outputs_byte_pinned(tmp_path, name):
    flags, want = RUN_PINS[name]
    out = tmp_path / name
    assert main(["run", "--casestudy-defaults", *flags,
                 "--out", str(out)]) == 0
    assert tuple(hashlib.sha256((out / f).read_bytes()).hexdigest()
                 for f in ("run.csv", "phase_summary.csv")) == want


def test_c5_monte_carlo_correctness():
    """Zero noise is exact; the two-branch mixture matches enumeration."""
    road = RoadMap(3, 3.5, 300.0, 15.0)
    ego = ActorState(10.0, road.lane_center(1), 0.0, 10.0)
    cfg = PlannerConfig(iteration_budget=150, seed=31,
                        goal=GoalSpec(20.0, 1), target_speed=10.0)

    # zero-noise: variance exactly 0, mean exactly the deterministic gamma
    hists = {"a": moving_actor("a", 22.0, road.lane_center(1), 6.0, 5)}
    pcfg = PredictionConfig(0.0, 0.0, sample_count=6, seed=3)
    mean, var = monte_carlo_importance(
        sample_worlds(hists, 20, pcfg), ego, 5, 20, cfg, road=road,
        radii={"a": 1.2}, route=True, actor_ids=("a",))["a"]
    det = actor_importance({"a": predict_linear(hists["a"], 20)}, "a", ego,
                           5, 20, cfg, "euclid", road=road,
                           radii={"a": 1.2}, route=True)
    assert var == 0.0
    assert mean == det

    # two-branch mixture at n = 500 within 3 standard errors
    k, n = 20, 500
    cruise = moving_actor("a", 22.0, road.lane_center(1), 7.0, k)
    cruise = Trajectory("a", 5, DT, cruise.states)
    states = [ActorState(22.0, road.lane_center(1), 0.0, 7.0)]
    x, v = 22.0, 7.0
    for _ in range(k):
        v2 = max(0.0, v - 4.0 * DT)
        x += 0.5 * (v + v2) * DT
        v = v2
        states.append(ActorState(x, road.lane_center(1), 0.0, v2))
    brake = Trajectory("a", 5, DT, tuple(states))

    def sampler(histories, k_, cfg_):
        rng = np.random.default_rng(cfg_.seed)
        return [{"a": brake if rng.uniform() < 0.5 else cruise}
                for _ in range(cfg_.sample_count)]

    pcfg = PredictionConfig(0.0, 0.0, sample_count=n, seed=77)
    mean, var = monte_carlo_importance(
        sampler(hists, k, pcfg), ego, 5, k, cfg, road=road,
        radii={"a": 1.2}, route=True, actor_ids=("a",))["a"]
    g_b = actor_importance({"a": brake}, "a", ego, 5, k, cfg, "euclid",
                           road=road, radii={"a": 1.2}, route=True)
    g_c = actor_importance({"a": cruise}, "a", ego, 5, k, cfg, "euclid",
                           road=road, radii={"a": 1.2}, route=True)
    oracle = 0.5 * (g_b + g_c)
    se = math.sqrt(var / n)
    assert abs(mean - oracle) <= 3 * se
    assert var >= 0.0
    print(f"\nACCEPTANCE C5 monte-carlo: PASS "
          f"(zero-noise exact; |{mean:.4f}-{oracle:.4f}| <= 3*{se:.4f})")


def test_c6_operator_properties():
    """KL >= 0 (= 0 iff equal) on 1000 pairs; pseudometric on 1000 triples."""
    rng = np.random.default_rng(3)
    universe = [(f"s{i}",) for i in range(12)]
    for _ in range(1000):
        fa = frozenset(u for u in universe if rng.uniform() < 0.5)
        fb = frozenset(u for u in universe if rng.uniform() < 0.5)
        p = PlanDistribution.uniform_feasible(universe, fa)
        q = PlanDistribution.uniform_feasible(universe, fb)
        kl = plan_divergence_kl(p, q)
        assert kl >= 0.0
        if fa == fb:
            assert kl <= 1e-9
        else:
            assert kl > 1e-9

    for _ in range(1000):
        m = int(rng.integers(2, 10))
        trajs = []
        for _ in range(3):
            xy = rng.uniform(-25, 25, (m, 2))
            trajs.append(Trajectory("r", 0, DT, tuple(
                ActorState(float(a), float(b), 0.0, 0.0) for a, b in xy)))
        a, b, c = trajs
        dab = _mean_distance(a.positions, b.positions)
        assert dab >= 0.0
        assert abs(dab - _mean_distance(b.positions, a.positions)) <= 1e-9
        assert _mean_distance(a.positions, a.positions) <= 1e-9
        assert _mean_distance(a.positions, c.positions) <= \
            dab + _mean_distance(b.positions, c.positions) + 1e-9
    print("\nACCEPTANCE C6 operator-properties: PASS "
          "(1000 KL pairs, 1000 euclid triples)")


def test_c7_determinism(tmp_path):
    """Identical config and seed give byte-identical run.csv."""
    args = ["run", "--casestudy-defaults", "--seed", "11", "--budget", "400",
            "--replan-every", "20"]
    outs = []
    for i in range(2):
        out = tmp_path / f"d{i}"
        assert main(args + ["--out", str(out)]) == 0
        outs.append((out / "run.csv").read_bytes())
    assert outs[0] == outs[1]
    print("\nACCEPTANCE C7 determinism: PASS "
          "(byte-identical across reruns)")


def test_c8_mitigation_demo():
    """Risk-aware selection avoids the collision the min-cost follow plan
    drives into."""
    params = CaseStudyParams(cutin_merge_speed=5.5, lead_slow_speed=None,
                             near_offset=45.0, far_offset=51.0)
    s = generate_case_study(params)
    brake_start = next(p for p in s.phases if p.name == "s5").start_tick
    t, k = brake_start + 5, 30
    cutin_x = s.npc_trajectories["cutin"].states[t].position_x
    ego = ActorState(cutin_x - 11.0, s.map.lane_center(1), 0.0, 9.0)

    lattice = LatticeConfig(2, ("keep", "shift_left"), 15)
    candidates = enumerate_plans(s.map, ego, t, k, lattice, dt=s.dt)
    naive = min(candidates.plans, key=lambda p: p.cost)
    assert naive.maneuver_seq == ("keep", "keep")

    from navrisk.prediction import sample_worlds
    hists = {aid: tr.window(0, t) for aid, tr in s.npc_trajectories.items()}
    worlds = sample_worlds(hists, k,
                           PredictionConfig(0.8, 0.02, sample_count=40,
                                            seed=9))
    sel = min_risk_selection(candidates, worlds, s.actor_radius,
                             ego_radius=s.radius_of(EGO_ID))
    truth = slice_world(s, t, k)
    assert sel.plan.maneuver_seq != naive.maneuver_seq
    assert collision_check(naive.trajectory, truth, s.actor_radius,
                           s.radius_of(EGO_ID))
    assert not collision_check(sel.plan.trajectory, truth, s.actor_radius,
                               s.radius_of(EGO_ID))
    print("\nACCEPTANCE C8 mitigation-demo: PASS "
          f"(selected {'+'.join(sel.plan.maneuver_seq)} avoids the "
          "realized stop; min-cost follow collides)")


def test_c8_mitigation_demo_script():
    """scripts/mitigation_demo.py runs against the current API and its
    selected plan avoids the collision."""
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "mitigation_demo.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "mitigation avoids the collision: OK" in proc.stdout


def test_replicate_case_study_script(tmp_path):
    """scripts/replicate_case_study.py runs against the current API, in a
    fresh working directory, and passes its three checks (a)-(c)."""
    script = Path(__file__).resolve().parents[1] / "scripts" / \
        "replicate_case_study.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    verdicts = [line for line in proc.stdout.splitlines()
                if line.startswith(("(a) ", "(b) ", "(c) "))]
    assert [line[:3] for line in verdicts] == ["(a)", "(b)", "(c)"]
    assert all(line.endswith("  OK") for line in verdicts), proc.stdout
    assert (tmp_path / "out" / "case_study" / "run.csv").is_file()
