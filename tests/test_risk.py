import math
import re
import tracemalloc
from itertools import islice

import numpy as np
import pytest

from navrisk import risk
from navrisk.planner import (
    GoalSpec,
    LatticeConfig,
    PlannerConfig,
    SPEED_STEP,
    collision_check,
    enumerate_plans,
    plan_sampling,
)
from navrisk.prediction import PredictionConfig, _mean_distance, \
    predict_linear, sample_worlds
from navrisk.risk import (
    KL_EPSILON,
    LatticeCapExceeded,
    actor_importance,
    actor_risk_exact,
    all_actor_risk_exact,
    lattice_risks,
    leave_one_out,
    mean_and_variance,
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
    ScenarioError,
    Trajectory,
    generate_case_study,
)
from navrisk.simulate import RunConfig, run_simulation

from oracles import (
    PlanDistribution,
    plan_divergence_kl,
    replanned_gammas,
    state_trajectory,
    static_actor,
    traj_xy,
    walk_enumerate,
    world_to_positions,
)

DT = 0.1
ROAD3 = RoadMap(3, 3.5, 300.0, 15.0)


def moving_actor(actor_id, x0, y, speed, n, dt=DT):
    states = tuple(
        ActorState(x0 + speed * dt * i, y, 0.0, speed) for i in range(n + 1))
    return state_trajectory(actor_id, 0, dt, states)


def build_scenario(actors, ego, n=30, road=ROAD3, radii=None):
    all_radii = {EGO_ID: 1.2}
    all_radii.update({aid: 1.2 for aid in actors})
    if radii:
        all_radii.update(radii)
    return Scenario(map=road, npc_trajectories=actors, ego_initial=ego,
                    horizon_ticks=n, dt=DT, actor_radius=all_radii)


LATTICE3 = LatticeConfig(3, ("keep", "shift_left", "shift_right"), 10)
EGO_MID = ActorState(10.0, ROAD3.lane_center(1), 0.0, 1.0)


class TestExactRisk:
    def test_no_actors_zero_risk(self):
        s = build_scenario({}, EGO_MID)
        assert total_risk_exact(s, 0, 30, LATTICE3) == 0.0

    def test_lane_blocker_fraction(self):
        blk = static_actor("blk", 11.5, ROAD3.lane_center(2), 30)
        s = build_scenario({"blk": blk}, EGO_MID)
        assert total_risk_exact(s, 0, 30, LATTICE3) == pytest.approx(
            (17 - 8) / 17, abs=1e-12)

    def test_total_blockage_is_one(self):
        wall = static_actor("wall", 11.5, ROAD3.width / 2, 30)
        s = build_scenario({"wall": wall}, EGO_MID, radii={"wall": 5.5})
        assert total_risk_exact(s, 0, 30, LATTICE3) == 1.0

    def test_single_actor_risk_equals_total(self):
        blk = static_actor("blk", 11.5, ROAD3.lane_center(2), 30)
        s = build_scenario({"blk": blk}, EGO_MID)
        assert actor_risk_exact(s, "blk", 0, 30, LATTICE3) == \
            total_risk_exact(s, 0, 30, LATTICE3)

    def test_distant_actor_zero_blocker_full(self):
        blk = static_actor("blk", 11.5, ROAD3.lane_center(2), 30)
        far = static_actor("far", ROAD3.road_length + 60.0,
                           ROAD3.lane_center(0), 30)
        s = build_scenario({"blk": blk, "far": far}, EGO_MID)
        assert actor_risk_exact(s, "far", 0, 30, LATTICE3) == 0.0
        assert actor_risk_exact(s, "blk", 0, 30, LATTICE3) == pytest.approx(
            9 / 17, abs=1e-12)

    def test_redundant_blockers_mask_each_other(self):
        b1 = static_actor("b1", 11.0, ROAD3.lane_center(2), 30)
        b2 = static_actor("b2", 12.0, ROAD3.lane_center(2), 30)
        s = build_scenario({"b1": b1, "b2": b2}, EGO_MID)
        assert actor_risk_exact(s, "b1", 0, 30, LATTICE3) == 0.0
        assert actor_risk_exact(s, "b2", 0, 30, LATTICE3) == 0.0
        assert total_risk_exact(s, 0, 30, LATTICE3) > 0.0

    def test_unknown_actor_rejected(self):
        s = build_scenario({}, EGO_MID)
        with pytest.raises(Exception, match="unknown actor"):
            actor_risk_exact(s, "ghost", 0, 30, LATTICE3)

    def test_over_cap_lattice_raises(self):
        wall = static_actor("wall", 11.5, ROAD3.width / 2, 30)
        s = build_scenario({"wall": wall}, EGO_MID, radii={"wall": 5.5})
        # 3^13 sequences exceed UNIVERSE_CAP; the cap is checked before the
        # lattice is rendered
        with pytest.raises(LatticeCapExceeded):
            total_risk_exact(s, 0, 30, LatticeConfig(13, LATTICE3.maneuvers))

    def test_case_study_window_in_bounded_memory(self):
        # the counts read only the level-wise blocker bits: the (U, 3, k+1)
        # columns of this window alone would take 9.5 MiB (U = 8,119)
        s = generate_case_study()
        lattice = LatticeConfig(10, LATTICE3.maneuvers, 5)
        tracemalloc.start()
        try:
            all_actor_risk_exact(s, 20, 50, lattice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20

    def test_matches_walk_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(8):
            lanes = int(rng.integers(1, 4))
            steps = int(rng.integers(1, 5))
            tps = int(rng.integers(4, 9))
            road = RoadMap(lanes, 3.5, 300.0, 15.0)
            ego = ActorState(10.0, road.lane_center(int(rng.integers(lanes))),
                             0.0, float(rng.uniform(0.5, 3.0)))
            k = steps * tps
            actors = {}
            for i in range(int(rng.integers(0, 4))):
                aid = f"s{i}"
                actors[aid] = static_actor(
                    aid, float(rng.uniform(8.0, 20.0)),
                    float(rng.uniform(0.0, road.width)), k)
            s = build_scenario(actors, ego, n=k, road=road)
            lattice = LatticeConfig(
                steps, ("keep", "shift_left", "shift_right"), tps)
            got_total = total_risk_exact(s, 0, k, lattice)
            universe, survivors = walk_enumerate(
                road, ego, steps, lattice.maneuvers, tps, SPEED_STEP,
                DT, world_to_positions(s.npc_trajectories),
                {aid: 2.9 for aid in actors})
            want_total = (universe - len(survivors)) / universe
            assert got_total == pytest.approx(want_total, abs=1e-12)
            for aid in actors:
                rest = {a: tr for a, tr in s.npc_trajectories.items()
                        if a != aid}
                _, surv_wo = walk_enumerate(
                    road, ego, steps, lattice.maneuvers, tps,
                    SPEED_STEP, DT, world_to_positions(rest),
                    {a: 2.9 for a in rest})
                want = (len(surv_wo) - len(survivors)) / universe
                got = actor_risk_exact(s, aid, 0, k, lattice)
                assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_under_added_actors(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            ego = ActorState(10.0, ROAD3.lane_center(1), 0.0,
                             float(rng.uniform(0.5, 2.5)))
            actors = {}
            for i in range(3):
                aid = f"m{i}"
                actors[aid] = static_actor(
                    aid, float(rng.uniform(8, 18)),
                    float(rng.uniform(0, ROAD3.width)), 30)
            prev = 0.0
            present = {}
            for aid, tr in actors.items():
                present[aid] = tr
                s = build_scenario(dict(present), ego)
                risk = total_risk_exact(s, 0, 30, LATTICE3)
                assert risk >= prev
                prev = risk



def c1_case_family():
    """The lattices of acceptance criterion c1, drawn from the same stream:
    (road, ego, steps, ticks per step, [(actor id, x, y)])."""
    rng = np.random.default_rng(101)
    road = RoadMap(3, 3.5, 300.0, 15.0)
    cases = [(road, ActorState(10.0, road.lane_center(1), 0.0, 1.0),
              3, 10, [("blk", 11.5, road.lane_center(2))])]
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
    return cases


class TestAllActorForms:
    """One render and one blocker matrix give exactly the counts and the KL
    values that a separate walk enumeration per ablated world gives."""

    def test_equal_to_walk_oracle_on_c1_family(self):
        checked = 0
        for road, ego, steps, tps, spec in c1_case_family():
            k = steps * tps
            lattice = LatticeConfig(
                steps, ("keep", "shift_left", "shift_right"), tps)
            actors = {aid: static_actor(aid, x, y, k) for aid, x, y in spec}
            s = build_scenario(actors, ego, n=k, road=road)

            def walk(world):
                return walk_enumerate(
                    road, ego, steps, lattice.maneuvers, tps,
                    SPEED_STEP, DT, world_to_positions(world),
                    {a: 2.9 for a in world})

            universe, survivors = walk(actors)
            # product order over the sorted menu is lexicographic order
            support = sorted(walk({})[1])
            p = PlanDistribution.uniform_feasible(support, survivors)

            got = all_actor_risk_exact(s, 0, k, lattice)
            assert got.z_empty == universe == len(support)
            assert got.z == len(survivors)
            assert got.total == (universe - len(survivors)) / universe
            assert list(got.per_actor) == list(got.kl) == list(actors)
            for aid in actors:
                _, surv_wo = walk(
                    {a: tr for a, tr in actors.items() if a != aid})
                assert got.per_actor[aid] == \
                    (len(surv_wo) - len(survivors)) / universe
                q = PlanDistribution.uniform_feasible(support, surv_wo)
                assert got.kl[aid] == plan_divergence_kl(p, q)
                checked += 1
        assert checked > 0

    def test_boundary_contact_blocks_nothing(self):
        # a parked ego and a parked actor exactly 2.9 (the inflated radii
        # sum) apart touch without colliding; a hair closer they collide
        ego = ActorState(0.0, ROAD3.lane_center(1), 0.0, 0.0)
        lattice = LatticeConfig(1, ("keep",), 10)
        for x, z in [(2.9, 1), (float(np.nextafter(2.9, 0.0)), 0)]:
            actor = static_actor("a", x, ROAD3.lane_center(1), 10)
            s = build_scenario({"a": actor}, ego, n=10)
            got = all_actor_risk_exact(s, 0, 10, lattice)
            assert (got.z_empty, got.z, got.per_actor["a"]) == (1, z, 1 - z)


class TestEuclideanOperator:
    def test_identity(self):
        a = moving_actor("p", 0.0, 5.25, 10.0, 20)
        assert _mean_distance(a.positions, a.positions) == 0.0

    def test_constant_lane_offset(self):
        a = moving_actor("p", 0.0, 5.25, 10.0, 20)
        b = moving_actor("p", 0.0, 5.25 + 3.5, 10.0, 20)
        assert _mean_distance(a.positions, b.positions) == pytest.approx(3.5)

    def test_braking_closed_form(self):
        # displacement gap at tick j is a*(j*dt)^2/2 exactly under
        # trapezoidal integration
        v0, a_dec, k = 10.0, 2.0, 20
        straight = moving_actor("p", 0.0, 5.25, v0, k)
        states = [ActorState(0.0, 5.25, 0.0, v0)]
        x, v = 0.0, v0
        for _ in range(k):
            v2 = max(0.0, v - a_dec * DT)
            x += 0.5 * (v + v2) * DT
            v = v2
            states.append(ActorState(x, 5.25, 0.0, v))
        braking = state_trajectory("p", 0, DT, tuple(states))
        want = np.mean([0.5 * a_dec * (j * DT) ** 2 for j in range(k + 1)])
        assert _mean_distance(straight.positions, braking.positions) == \
            pytest.approx(float(want), abs=1e-9)

    def test_hold_padding_alignment(self):
        a = moving_actor("p", 0.0, 5.25, 10.0, 20)
        short = state_trajectory("p", 0, DT, a.states[:11])
        d = _mean_distance(a.positions, short.positions)
        # held final state sits at x=10; mean gap over 21 ticks
        gaps = [max(0.0, 10.0 * DT * j - 10.0 * DT * min(j, 10))
                for j in range(21)]
        assert d == pytest.approx(float(np.mean(gaps)), abs=1e-9)

    def test_pseudometric_on_random_equal_length_triples(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            trajs = []
            for _ in range(3):
                xy = rng.uniform(-20, 20, (n, 2))
                states = tuple(
                    ActorState(float(x), float(y), 0.0, 0.0) for x, y in xy)
                trajs.append(state_trajectory("r", 0, DT, states))
            a, b, c = trajs
            dab = _mean_distance(a.positions, b.positions)
            dba = _mean_distance(b.positions, a.positions)
            dac = _mean_distance(a.positions, c.positions)
            dbc = _mean_distance(b.positions, c.positions)
            assert dab >= 0
            assert abs(dab - dba) <= 1e-9
            assert dac <= dab + dbc + 1e-9
            assert _mean_distance(a.positions, a.positions) <= 1e-12


class TestKLOperator:
    def test_identity_zero(self):
        u = [("keep",), ("shift_left",)]
        p = PlanDistribution.uniform_feasible(u, [("keep",)])
        assert plan_divergence_kl(p, p) == 0.0

    def test_direct_summation_oracle(self):
        universe = [(f"s{i}",) for i in range(17)]
        feas = universe[:8]
        eps = KL_EPSILON
        p = PlanDistribution.uniform_feasible(universe, feas)
        q = PlanDistribution.uniform_feasible(universe, universe)
        # direct formula evaluation with plain floats
        pv = [((1 / 8 if u in feas else 0.0) + eps) / (1 + 17 * eps)
              for u in universe]
        qv = [((1 / 17) + eps) / (1 + 17 * eps) for u in universe]
        want = sum(a * math.log(a / b) for a, b in zip(pv, qv))
        assert plan_divergence_kl(p, q) == pytest.approx(want, abs=1e-9)

    def test_gibbs_nonnegative_random_pairs(self):
        rng = np.random.default_rng(3)
        universe = [(f"s{i}",) for i in range(12)]
        for _ in range(100):
            fa = [u for u in universe if rng.uniform() < 0.5]
            fb = [u for u in universe if rng.uniform() < 0.5]
            p = PlanDistribution.uniform_feasible(universe, fa)
            q = PlanDistribution.uniform_feasible(universe, fb)
            kl = plan_divergence_kl(p, q)
            assert kl >= 0.0
            if fa == fb:
                assert kl == 0.0

    def test_universe_mismatch_rejected(self):
        p = PlanDistribution.uniform_feasible([("a",)], [("a",)])
        q = PlanDistribution.uniform_feasible([("b",)], [("b",)])
        with pytest.raises(ValueError, match="universe"):
            plan_divergence_kl(p, q)

    @pytest.mark.parametrize("universe, feasible, named", [
        ([("a",), ("b",)], [("c",)], "feasible plan ('c',) is not in the "
                                     "universe"),
        ([("a",), ("a",)], [("a",)], "universe repeats plan ('a',)"),
    ], ids=["outside", "repeated"])
    def test_bad_input_is_named(self, universe, feasible, named):
        with pytest.raises(ValueError) as err:
            PlanDistribution.uniform_feasible(universe, feasible)
        assert str(err.value) == named

    def test_distribution_invariants(self):
        universe = [(f"s{i}",) for i in range(9)]
        p = PlanDistribution.uniform_feasible(universe, universe[:3])
        assert float(np.sum(p.probabilities)) == pytest.approx(1.0, abs=1e-9)
        assert float(np.min(p.probabilities)) >= 1e-6 / 9


class TestRouter:
    @staticmethod
    def advance(world, ego):
        # the routed goal advance in lane 1 from a base of 40 m at 10 m/s
        return risk._soft_advance(
            40.0, risk._lane_terms(world, ego, ROAD3, 1, 10.0))

    def test_empty_world_gives_base(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        adv = self.advance({}, ego)
        assert adv == pytest.approx(40.0, abs=1e-9)

    def test_slower_lead_clamps(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        world = {"a": moving_actor("a", 22.0, ROAD3.lane_center(1), 7.0, 40)}
        adv = self.advance(world, ego)
        # catch-aware clamp: (12 - 6) * 10 / 3 = 20, minus soft-min slack
        assert 15.0 < adv <= 20.0

    def test_faster_lead_ignored(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        world = {"a": moving_actor("a", 22.0, ROAD3.lane_center(1), 12.0, 40)}
        adv = self.advance(world, ego)
        base = self.advance({}, ego)
        assert adv == base

    def test_beyond_road_actor_exactly_no_op(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        near = {"a": moving_actor("a", 22.0, ROAD3.lane_center(1), 7.0, 40)}
        far = dict(near)
        far["g"] = static_actor("g", ROAD3.road_length + 5.0,
                                ROAD3.lane_center(1), 40)
        a1 = self.advance(near, ego)
        a2 = self.advance(far, ego)
        assert a1 == a2

    def test_underflowing_terms_keep_the_soft_minimum(self):
        # above about 745 * SOFTNESS every exp(-a / SOFTNESS) is 0.0; the
        # soft minimum is then taken relative to the least advance
        assert math.exp(-1e5 / risk.SOFTNESS) == 0.0
        assert risk._soft_advance(1e5, []) == 1e5
        advances = [2e4, 1.5e4, None, 1.5e4 + 3.0, 1.6e4]
        m, n = 1.5e4, 4
        got = risk._soft_advance(advances[0], advances[1:])
        assert m - risk.SOFTNESS * math.log(n) <= got <= m


def importance_cfg(**kw):
    defaults = dict(iteration_budget=400, seed=31, goal=GoalSpec(30.0, 1),
                    target_speed=10.0)
    defaults.update(kw)
    return PlannerConfig(**defaults)


class TestActorImportance:
    def test_null_actor_exact_zero_both_operators(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        world = {
            "a": moving_actor("a", 25.0, ROAD3.lane_center(1), 6.0, 30),
            "ghost": static_actor("ghost", ROAD3.road_length + 30.0,
                                  ROAD3.lane_center(1), 30),
        }
        radii = {"a": 1.2, "ghost": 1.2}
        cfg = importance_cfg()
        g = actor_importance(world, "ghost", ego, 0, 30, cfg, "euclid",
                             road=ROAD3, radii=radii,
                             route=True)
        assert g == 0.0
        g_kl = actor_importance(world, "ghost", ego, 0, 30, cfg, "kl",
                                road=ROAD3, radii=radii, lattice=LATTICE3)
        assert g_kl == 0.0

    def test_stopped_lead_gamma_matches_direct_recomputation(self):
        # independent oracle: rerun both plans and average point distances
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        world = {"stop": static_actor("stop", 30.0, ROAD3.lane_center(1), 30)}
        cfg = importance_cfg()
        g = actor_importance(world, "stop", ego, 0, 30, cfg, "euclid",
                             road=ROAD3, radii={"stop": 1.2})
        p_full = plan_sampling(ROAD3, ego, 0, 30, world, cfg, {"stop": 1.2})
        p_wo = plan_sampling(ROAD3, ego, 0, 30, {}, cfg, {})
        dists = [
            math.dist((a.position_x, a.position_y),
                      (b.position_x, b.position_y)) for a, b in
            zip(p_full.trajectory.states, p_wo.trajectory.states)
        ]
        assert g == pytest.approx(sum(dists) / len(dists), abs=1e-12)
        assert g > 0.5

    def test_enclosed_ego_saturates(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        world = {"on_top": static_actor("on_top", 10.5, ROAD3.lane_center(1),
                                        30)}
        g = actor_importance(world, "on_top", ego, 0, 30, importance_cfg(),
                             "euclid", road=ROAD3, radii={"on_top": 1.2})
        assert g == ROAD3.road_length / 30

    def test_unknown_actor_rejected(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        with pytest.raises(Exception, match="unknown actor"):
            actor_importance({}, "nope", ego, 0, 30, importance_cfg(),
                             road=ROAD3, radii={})

    def test_euclid_grows_at_most_two_trees(self, monkeypatch):
        # one full-world growth, plus a re-growth only when the actor was
        # a sole blocker; never the other actors' ablations
        per_call = []
        reports = kernel_reports(monkeypatch)
        for road, world, ego, t, k, cfg, radii in loo_cases():
            _, every = leave_one_out(world, ego, t, k, cfg, road=road,
                                     radii=radii, route=True)
            for aid in world:
                reports.clear()
                assert actor_importance(
                    world, aid, ego, t, k, cfg, "euclid", road=road,
                    radii=radii, route=True) == every[aid][0]
                per_call.append(sum(r.growths for r in reports))
        assert max(per_call) <= 2
        assert 1 in per_call and 2 in per_call

    def test_kl_requires_lattice(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        world = {"a": moving_actor("a", 25.0, ROAD3.lane_center(1), 6.0, 30)}
        with pytest.raises(Exception, match="lattice"):
            actor_importance(world, "a", ego, 0, 30, importance_cfg(), "kl",
                             road=ROAD3, radii={"a": 1.2})


def leave_one_out_worlds():
    """The c3 world family with two or three actors, then the c5 world,
    each with a ghost beyond road_length: (world, ego, k, cfg) per case."""
    rng = np.random.default_rng(13)
    for _ in range(6):
        k = 20
        ego = ActorState(10.0, ROAD3.lane_center(int(rng.integers(3))),
                         0.0, 10.0)
        world = {}
        for i in range(int(rng.integers(2, 4))):
            world[f"a{i}"] = moving_actor(
                f"a{i}", float(rng.uniform(18, 35)),
                float(rng.uniform(1.2, ROAD3.width - 1.2)),
                float(rng.uniform(0, 7)), k)
        world["ghost"] = static_actor(
            "ghost", ROAD3.road_length + float(rng.uniform(1, 80)),
            ROAD3.lane_center(int(rng.integers(3))), k)
        cfg = PlannerConfig(iteration_budget=150,
                            seed=int(rng.integers(0, 2 ** 31)),
                            goal=GoalSpec(18.0, ROAD3.lane_of(ego.position_y)),
                            target_speed=10.0)
        yield world, ego, k, cfg
    world = {"a": moving_actor("a", 22.0, ROAD3.lane_center(1), 6.0, 20),
             "ghost": static_actor("ghost", ROAD3.road_length + 30.0,
                                   ROAD3.lane_center(1), 20)}
    yield (world, ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0), 20,
           PlannerConfig(iteration_budget=150, seed=31,
                         goal=GoalSpec(20.0, 1), target_speed=10.0))


def case_study_worlds():
    """Predicted worlds of a shortened case study at replan ticks across
    its phases, with the ego where the closed loop put it: (road, world,
    ego, t, k, cfg, radii) per tick."""
    s = generate_case_study(CaseStudyParams(steady_ticks=60,
                                            steady2_ticks=60, tail_ticks=30))
    res = run_simulation(s, RunConfig(iteration_budget=150))
    k = 40
    speed = min(s.ego_initial.speed, s.map.speed_limit)
    for t, ego in zip(res.replan_ticks, res.ego_states):
        if t % 30 or t + k > s.horizon_ticks:
            continue
        world = {aid: predict_linear(tr.window(t, 0), k)
                 for aid, tr in s.npc_trajectories.items()}
        cfg = PlannerConfig(iteration_budget=300, seed=1000 + t,
                            goal=GoalSpec(k * s.dt * speed,
                                          s.map.lane_of(ego.position_y)),
                            target_speed=speed)
        yield s.map, world, ego, t, k, cfg, dict(s.actor_radius)


def kernel_reports(monkeypatch):
    """The list that every later kernel call of risk appends its reports
    to, one per world (planner._Worlds: the trees grown, which ablations
    grew their own)."""
    reports = []
    plan_worlds = risk._plan_worlds

    def reported(*args, **kw):
        worlds = plan_worlds(*args, **kw)
        reports.extend(worlds)
        return worlds

    monkeypatch.setattr(risk, "_plan_worlds", reported)
    return reports


def loo_cases():
    """(road, world, ego, t, k, cfg, radii) for the equality test."""
    for world, ego, k, cfg in leave_one_out_worlds():
        yield ROAD3, world, ego, 0, k, cfg, {aid: 1.2 for aid in world}
    yield from case_study_worlds()
    ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
    cfg = importance_cfg(iteration_budget=200)
    # a parked actor dead ahead: the only blocker of many edge checks
    world = {"stop": static_actor("stop", 30.0, ROAD3.lane_center(1), 30),
             "ghost": static_actor("ghost", ROAD3.road_length + 30.0,
                                   ROAD3.lane_center(1), 30)}
    yield ROAD3, world, ego, 0, 30, cfg, {"stop": 1.2, "ghost": 1.2}
    # the ego starts inside "on_top": the full world has no tree at all
    world = {"on_top": static_actor("on_top", 10.5, ROAD3.lane_center(1), 30),
             "a": moving_actor("a", 25.0, ROAD3.lane_center(0), 6.0, 30)}
    yield ROAD3, world, ego, 0, 30, cfg, {"on_top": 1.2, "a": 1.2}


class TestLeaveOneOut:
    def test_equals_independent_replans(self, monkeypatch):
        reports = kernel_reports(monkeypatch)
        regrown, reused = set(), set()
        moved = enclosed = 0
        for n, (road, world, ego, t, k, cfg, radii) in enumerate(loo_cases()):
            full_ref, ref = replanned_gammas(road, world, ego, t, k, cfg,
                                             radii)
            reports.clear()
            plan_full, gammas = leave_one_out(world, ego, t, k, cfg,
                                              road=road, radii=radii,
                                              route=True)
            assert gammas == ref
            assert (plan_full is None) == (full_ref is None)
            if plan_full is None:
                enclosed += 1
            else:
                assert traj_xy(plan_full.trajectory).tolist() == \
                    traj_xy(full_ref.trajectory).tolist()
            if "ghost" in world:
                assert gammas["ghost"] == (0.0, False)
            # the kernel reports the ablations that grew their own tree
            [report] = reports
            grown = {(n, aid) for aid, again in zip(world, report.regrown)
                     if again}
            regrown |= grown
            reused |= {(n, aid) for aid in world} - grown
            moved += sum(g > 0.0 for g, _ in gammas.values())
        assert moved > 0 and enclosed == 1
        # both branches ran: the parked actor dead ahead was re-grown, and
        # the ghost and some case-study actors reused the full-world tree
        stop = next(key for key in regrown if key[1] == "stop")
        assert (stop[0], "ghost") in reused
        assert any(aid in ("lead", "cutin", "near", "far", "rear", "outer")
                   for _, aid in reused)

    def test_unknown_actor_ids_rejected(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        world = {"a": moving_actor("a", 25.0, ROAD3.lane_center(1), 6.0, 30)}
        with pytest.raises(ScenarioError, match="unknown actor"):
            leave_one_out(world, ego, 0, 30, importance_cfg(), road=ROAD3,
                          radii={"a": 1.2}, actor_ids=("a", "nope"))

    def test_mean_and_variance(self):
        assert mean_and_variance([0.3, 0.3, 0.3]) == (0.3, 0.0)
        xs = [0.1, 0.4, 0.2]
        assert mean_and_variance(xs) == (float(np.mean(xs)),
                                         float(np.var(xs, ddof=1)))


class TestExpectedRisk:
    def test_zero_noise_exact(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        hists = {"a": moving_actor("a", 25.0, ROAD3.lane_center(1), 6.0, 5)}
        pcfg = PredictionConfig(0.0, 0.0, sample_count=4, seed=2)
        cfg = importance_cfg()
        mean, var = monte_carlo_importance(
            sample_worlds(hists, 30, pcfg), ego, 5, 30, cfg,
            road=ROAD3, radii={"a": 1.2}, actor_ids=("a",))["a"]
        from navrisk.prediction import predict_linear
        det = actor_importance(
            {"a": predict_linear(hists["a"], 30)}, "a", ego, 5, 30, cfg,
            "euclid", road=ROAD3, radii={"a": 1.2})
        assert var == 0.0
        assert mean == det

    def test_two_branch_mixture_matches_enumeration(self):
        # lead either cruises or brakes, chosen by a fair coin per sample;
        # the mean must approach the average of the two branch gammas
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        n, k = 120, 20
        cruise = moving_actor("a", 22.0, ROAD3.lane_center(1), 7.0, k)
        states = [ActorState(22.0, ROAD3.lane_center(1), 0.0, 7.0)]
        x, v = 22.0, 7.0
        for _ in range(k):
            v2 = max(0.0, v - 4.0 * DT)
            x += 0.5 * (v + v2) * DT
            v = v2
            states.append(ActorState(x, ROAD3.lane_center(1), 0.0, v2))
        brake = state_trajectory("a", 5, DT, states)
        cruise = state_trajectory("a", 5, DT, cruise.states)

        def sampler(histories, k_, cfg_):
            rng = np.random.default_rng(cfg_.seed)
            return [
                {"a": brake if rng.uniform() < 0.5 else cruise}
                for _ in range(cfg_.sample_count)
            ]

        cfg = importance_cfg(goal=GoalSpec(20.0, 1), iteration_budget=250)
        hists = {"a": moving_actor("a", 22.0, ROAD3.lane_center(1), 7.0, 5)}
        pcfg = PredictionConfig(0.0, 0.0, sample_count=n, seed=77)
        mean, var = monte_carlo_importance(
            sampler(hists, k, pcfg), ego, 5, k, cfg, road=ROAD3,
            radii={"a": 1.2}, route=True, actor_ids=("a",))["a"]
        g_b = actor_importance({"a": brake}, "a", ego, 5, k, cfg, "euclid",
                               road=ROAD3, radii={"a": 1.2}, route=True)
        g_c = actor_importance({"a": cruise}, "a", ego, 5, k, cfg, "euclid",
                               road=ROAD3, radii={"a": 1.2}, route=True)
        oracle = 0.5 * (g_b + g_c)
        se = math.sqrt(var / n)
        assert abs(mean - oracle) <= 3 * se + 1e-12
        assert var >= 0.0
        assert mean >= 0.0


class TestMonteCarloImportance:
    def test_one_actor_run_equals_its_entry_of_the_all_actor_run(self):
        # sampled futures of three case-study ticks: every actor's entry
        # is what a run ablating that actor alone gives on the same worlds
        pcfg = PredictionConfig(0.35, 0.02, sample_count=2, seed=5)
        for road, world, ego, t, k, cfg, radii in islice(case_study_worlds(),
                                                         3):
            hists = {aid: state_trajectory(aid, t, tr.dt, tr.states[:1])
                     for aid, tr in world.items()}
            worlds = sample_worlds(hists, k, pcfg)
            env = dict(road=road, radii=radii, ego_radius=radii[EGO_ID],
                       dt=DT, route=True)
            got = monte_carlo_importance(worlds, ego, t, k, cfg, **env)
            assert list(got) == list(world)
            for aid in world:
                assert got[aid] == monte_carlo_importance(
                    worlds, ego, t, k, cfg, actor_ids=(aid,), **env)[aid]

    def test_no_worlds_rejected(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        with pytest.raises(ScenarioError, match="no sampled worlds"):
            monte_carlo_importance([], ego, 0, 30, importance_cfg(),
                                   road=ROAD3, radii={})

    def test_error_names_the_sample(self):
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        good = {"a": moving_actor("a", 25.0, ROAD3.lane_center(1), 6.0, 30)}
        short = {"a": moving_actor("a", 25.0, ROAD3.lane_center(1), 6.0, 20)}
        with pytest.raises(ScenarioError,
                           match=r"^sample 1: world actor 'a' spans"):
            monte_carlo_importance([good, short], ego, 0, 30,
                                   importance_cfg(), road=ROAD3,
                                   radii={"a": 1.2})

    def test_worlds_of_other_actors_rejected(self):
        # the worlds of one call share their radius sums and ablations,
        # so they hold the same actors in one order
        ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 10.0)
        a = moving_actor("a", 25.0, ROAD3.lane_center(1), 6.0, 30)
        b = moving_actor("b", 40.0, ROAD3.lane_center(0), 6.0, 30)
        for other, listed in [({"b": b, "a": a}, "['b', 'a']"),
                              ({"a": a}, "['a']")]:
            with pytest.raises(ScenarioError, match=re.escape(
                    f"sample 1: actors {listed} are not the first "
                    f"world's ['a', 'b']")):
                monte_carlo_importance([{"a": a, "b": b}, other], ego, 0, 30,
                                       importance_cfg(), road=ROAD3,
                                       radii={"a": 1.2, "b": 1.2})


class TestMinRiskSelection:
    def setup_method(self):
        self.ego = ActorState(10.0, ROAD3.lane_center(1), 0.0, 9.0)
        self.lattice = LatticeConfig(
            2, ("keep", "shift_left"), 15)

    def test_singleton_returned(self):
        ps = enumerate_plans(ROAD3, self.ego, 0, 30,
                             LatticeConfig(1, ("keep",), 30))
        world = {"a": moving_actor("a", 100.0, 1.75, 5.0, 30)}
        got = min_risk_selection(ps, [world], {"a": 1.2}).plan
        assert got is ps.plans[0]

    def test_all_free_returns_min_cost(self):
        ps = enumerate_plans(ROAD3, self.ego, 0, 30, self.lattice)
        world = {"a": moving_actor("a", 150.0, 1.75, 5.0, 30)}
        got = min_risk_selection(ps, [world, world], {"a": 1.2}).plan
        assert got.cost == min(p.cost for p in ps.plans)

    def test_braking_lead_prefers_lane_change_and_avoids_truth(self):
        # follow plan collides with the realized emergency stop while the
        # risk-aware choice does not
        k = 30
        lead_hist_speed = 6.3
        samples = []
        rng_speeds = np.linspace(3.0, 6.8, 12)
        for vs in rng_speeds:
            samples.append(
                {"lead": moving_actor("lead", 22.0, ROAD3.lane_center(1),
                                      float(vs), k)})
        # realized ground truth: hard stop
        states = [ActorState(22.0, ROAD3.lane_center(1), 0.0, 6.3)]
        x, v = 22.0, 6.3
        for _ in range(k):
            v2 = max(0.0, v - 6.0 * DT)
            x += 0.5 * (v + v2) * DT
            v = v2
            states.append(ActorState(x, ROAD3.lane_center(1), 0.0, v2))
        truth = {"lead": state_trajectory("lead", 0, DT, tuple(states))}

        candidates = enumerate_plans(ROAD3, self.ego, 0, k, self.lattice)
        keep_plan = min(candidates.plans, key=lambda p: p.cost)
        assert keep_plan.maneuver_seq == ("keep", "keep")

        result = min_risk_selection(candidates, samples, {"lead": 1.2})
        assert result.plan.maneuver_seq != ("keep", "keep")
        assert not result.all_candidates_always_collide

        assert collision_check(keep_plan.trajectory, truth, {"lead": 1.2},
                               1.2)
        assert not collision_check(result.plan.trajectory, truth,
                                   {"lead": 1.2}, 1.2)

    def test_each_world_stacked_once(self, monkeypatch):
        # every candidate is checked against every world, but each world's
        # obstacle rows are made once for all of them
        calls = []

        def counted(*args):
            calls.append(args)
            return world_arrays(*args)

        candidates = enumerate_plans(ROAD3, self.ego, 0, 30, self.lattice)
        worlds = [{"a": moving_actor("a", x, ROAD3.lane_center(1), 5.0, 30)}
                  for x in (20.0, 40.0, 60.0, 150.0, 200.0)]
        assert len(candidates.plans) > 1
        world_arrays = risk.world_arrays
        monkeypatch.setattr(risk, "world_arrays", counted)
        got = min_risk_selection(candidates, worlds, {"a": 1.2})
        assert len(calls) == len(worlds)
        monkeypatch.undo()
        hits = [sum(collision_check(p.trajectory, w, {"a": 1.2}, 1.2)
                    for w in worlds) for p in candidates.plans]
        assert got.collision_fraction == min(hits) / len(worlds)


def actor_with(axis: str, value: float, k: int = 30) -> Trajectory:
    """An actor parked on EGO_MID's position at every tick of [0, k] but
    tick 3, where its x or y is value."""
    states = []
    for i in range(k + 1):
        x, y = EGO_MID.position_x, EGO_MID.position_y
        if i == 3:
            x, y = (value, y) if axis == "x" else (x, value)
        states.append(ActorState(x, y, 0.0, 0.0))
    return state_trajectory("a", 0, DT, tuple(states))


NON_FINITE = [(axis, value) for axis in ("x", "y")
              for value in (math.nan, math.inf, -math.inf)]
NOT_FINITE = "world actor 'a' has a position that is not finite"


class TestNonFiniteActors:
    """A NaN or infinite position is no squared distance below any radius
    sum, so such an actor would collide with nothing: world_arrays, which
    stacks the worlds that collision_check, the lattice walk and both
    planners read, refuses it."""

    @pytest.mark.parametrize("axis, value", NON_FINITE)
    def test_collision_check(self, axis, value):
        ego = state_trajectory("ego", 0, DT, (EGO_MID,) * 31)
        assert collision_check(ego, {"a": actor_with("x", 10.0)},
                               {"a": 1.2}, 1.2)
        with pytest.raises(ScenarioError, match=NOT_FINITE):
            collision_check(ego, {"a": actor_with(axis, value)}, {"a": 1.2},
                            1.2)

    @pytest.mark.parametrize("axis, value", NON_FINITE)
    def test_all_actor_risk_exact(self, axis, value):
        # a scenario refuses the actor at once; the lattice takes the world
        world = {"a": actor_with(axis, value)}
        with pytest.raises(ScenarioError, match=r"^\$\.actors\[0\]\.states"
                                                r"\[3\]\[[01]\]: expected a "
                                                r"number of magnitude"):
            build_scenario(world, EGO_MID)
        with pytest.raises(ScenarioError, match=NOT_FINITE):
            lattice_risks(ROAD3, EGO_MID, 0, 30, LATTICE3, [world],
                          {"a": 1.2}, ego_radius=1.2, dt=DT)

    @pytest.mark.parametrize("axis, value", NON_FINITE)
    def test_leave_one_out(self, axis, value):
        with pytest.raises(ScenarioError, match=NOT_FINITE):
            leave_one_out({"a": actor_with(axis, value)}, EGO_MID, 0, 30,
                          importance_cfg(), road=ROAD3, radii={"a": 1.2})
