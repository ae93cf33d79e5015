import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navrisk.prediction import (
    PredictionConfig,
    predict_linear,
    prediction_error,
    sample_predictions,
    sample_worlds,
)
from navrisk.scenario import (
    MAX_MAGNITUDE, ActorState, ScenarioError)

from oracles import reference_predict_linear, state_trajectory, traj_xy

DT = 0.1


def history_from(x, y, heading, speed, n=5, actor_id="a"):
    """Constant-velocity history ending at the given state."""
    states = []
    for i in range(n, -1, -1):
        states.append(ActorState(
            x - i * speed * DT * math.cos(heading),
            y - i * speed * DT * math.sin(heading),
            heading, speed))
    return state_trajectory(actor_id, 0, DT, tuple(states))


def decelerating_truth(v0, a, k, actor_id="a", start_tick=5):
    """Trapezoid-integrated braking ground truth from (0, 0) heading 0."""
    states = [ActorState(0.0, 0.0, 0.0, v0)]
    x, v = 0.0, v0
    for _ in range(k):
        v_next = max(0.0, v - a * DT)
        x += 0.5 * (v + v_next) * DT
        v = v_next
        states.append(ActorState(x, 0.0, 0.0, v))
    return state_trajectory(actor_id, start_tick, DT, tuple(states))


class TestPredictLinear:
    def test_closed_form_straight_line(self):
        h = history_from(0.0, 0.0, 0.0, 10.0)
        pred = predict_linear(h, 7)
        for j, s in enumerate(pred.states):
            assert s.position_x == pytest.approx(j * DT * 10.0)
            assert s.position_y == 0.0
        assert pred.start_tick == h.end_tick
        assert len(pred) == 8

    def test_output_is_exactly_straight(self):
        h = history_from(3.0, 2.0, 0.4, 6.0)
        pred = predict_linear(h, 20)
        assert all(s.heading == pred.states[0].heading for s in pred.states)
        assert all(s.speed == pred.states[0].speed for s in pred.states)

    def test_matches_constant_velocity_truth(self):
        h = history_from(1.0, 2.0, 0.3, 4.0, actor_id="cv")
        truth_states = tuple(
            ActorState(1.0 + j * 0.4 * DT * math.cos(0.3) * 10,
                       2.0 + j * 0.4 * DT * math.sin(0.3) * 10,
                       0.3, 4.0)
            for j in range(0, 13))
        # regenerate exactly via the predictor's own step size
        truth = predict_linear(h, 12)
        assert prediction_error(truth, predict_linear(h, 12)) == 0.0

    def test_empty_history_rejected(self):
        with pytest.raises(ScenarioError):
            state_trajectory("a", 0, DT, ())

    def test_decelerating_truth_error_matches_closed_form(self):
        # per-waypoint displacement at step j is a*(j*dt)^2/2 until the stop;
        # trapezoid integration makes the closed form exact
        v0, a, k = 10.0, 2.0, 20
        h = history_from(0.0, 0.0, 0.0, v0)
        pred = predict_linear(h, k)
        truth = decelerating_truth(v0, a, k)
        expected = np.mean([0.5 * a * (j * DT) ** 2 for j in range(k + 1)])
        assert prediction_error(pred, truth) == pytest.approx(
            expected, abs=1e-6)


    def test_rows_equal_the_state_by_state_prediction(self):
        # x0 + j * dx for each tick j: a running x += dx drifts from it
        rng = random.Random(0)
        for _ in range(200):
            last = ActorState(
                rng.uniform(-1e3, 1e3), rng.uniform(-1.0, 1.0) * 10 **
                rng.randint(0, 9), rng.uniform(-math.pi, math.pi),
                rng.choice((0.0, rng.uniform(0.0, 30.0))))
            h = state_trajectory("a", rng.randint(0, 50), rng.choice(
                (0.1, 0.05, 0.37)), (last,) * rng.randint(1, 3))
            k = rng.randint(1, 60)
            got, want = predict_linear(h, k), reference_predict_linear(h, k)
            assert got.rows.tobytes() == want.rows.tobytes()
            assert got == want and got.start_tick == h.end_tick


class TestSamplePredictions:
    def test_sampled_rows_meet_actor_state_rules(self):
        """Every row the kernel writes has a speed >= 0 and a heading in
        (-pi, pi], so a sampled future's states need no check per tick:
        random sigmas of every size up to 1e300, where a future is either
        refused (ValueError) or meets both rules."""
        rng = random.Random(0)
        kept = refused = 0
        for _ in range(300):
            last = ActorState(
                rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3),
                rng.choice((math.pi, math.nextafter(-math.pi, 0.0),
                            rng.uniform(-math.pi, math.pi))),
                rng.choice((0.0, rng.uniform(0.0, 30.0))))
            sigmas = [rng.choice((0.0, 10 ** rng.uniform(-3.0, 300.0)))
                      for _ in range(2)]
            if sigmas == [0.0, 0.0]:
                continue
            h = state_trajectory("a", 0, rng.choice((0.1, 1.0, 1e3)), (last,))
            cfg = PredictionConfig(*sigmas, rng.randint(1, 3),
                                   rng.randrange(2 ** 64))
            try:
                futures = sample_predictions(h, rng.randint(1, 60), cfg)
            except ValueError:
                refused += 1
                continue
            for traj in futures:
                rows = traj.rows
                assert all(v >= 0.0 for v in rows[3::4])
                assert all(-math.pi < a <= math.pi for a in rows[2::4])
                assert all(abs(c) <= MAX_MAGNITUDE for c in traj.positions)
                assert len(traj.states) == len(rows) // 4
            kept += 1
        assert kept > 100 and refused > 10


    def test_zero_noise_collapses_to_linear(self):
        h = history_from(0.0, 1.0, 0.1, 8.0)
        cfg = PredictionConfig(sample_count=5, seed=3)
        samples = sample_predictions(h, 10, cfg)
        det = predict_linear(h, 10)
        assert all(s.states == det.states for s in samples)
        # one prediction, shared by every sample
        assert len(samples) == 5 and all(s is samples[0] for s in samples)

    def test_same_seed_bit_identical(self):
        h = history_from(0.0, 0.0, 0.0, 8.0)
        cfg = PredictionConfig(0.5, 0.05, sample_count=4, seed=11)
        a = sample_predictions(h, 15, cfg)
        b = sample_predictions(h, 15, cfg)
        for ta, tb in zip(a, b):
            assert ta.states == tb.states

    def test_different_actors_get_different_streams(self):
        cfg = PredictionConfig(0.5, 0.0, sample_count=1, seed=11)
        a = sample_predictions(history_from(0, 0, 0, 8, actor_id="a"), 10, cfg)
        b = sample_predictions(history_from(0, 0, 0, 8, actor_id="b"), 10, cfg)
        assert a[0].states != b[0].states

    def test_endpoint_variance_matches_integrated_noise(self):
        # Var(x_k - x_0) = sigma^2 dt^4 k(k+1)(2k+1)/6 for summed Gaussian
        # speed increments along heading 0 (speed kept away from the >=0 clamp)
        sigma, k, n = 0.8, 20, 10_000
        h = history_from(0.0, 0.0, 0.0, 50.0)
        cfg = PredictionConfig(sigma, 0.0, sample_count=n, seed=5)
        samples = sample_predictions(h, k, cfg)
        endpoints = np.array([s.states[-1].position_x for s in samples])
        analytic = sigma ** 2 * DT ** 4 * k * (k + 1) * (2 * k + 1) / 6
        assert np.var(endpoints, ddof=1) == pytest.approx(analytic, rel=0.05)

    def test_sample_worlds_pairs_indices(self):
        cfg = PredictionConfig(0.4, 0.01, sample_count=3, seed=2)
        hists = {
            "a": history_from(0, 0, 0, 8, actor_id="a"),
            "b": history_from(5, 0, 0, 6, actor_id="b"),
        }
        worlds = sample_worlds(hists, 8, cfg)
        assert len(worlds) == 3
        per_actor = {aid: sample_predictions(h, 8, cfg)
                     for aid, h in hists.items()}
        for j, world in enumerate(worlds):
            for aid in hists:
                assert world[aid].states == per_actor[aid][j].states

    @pytest.mark.parametrize("sigmas", [(1e308, 0.0), (0.0, 1e308)])
    def test_noise_draw_beyond_float_range_raises(self, sigmas):
        # a sigma of 1e308 draws +-inf: the actor used to move to inf/NaN
        # positions, where it never collides, or wrap_angle(inf) failed
        h = history_from(0.0, 0.0, 0.0, 8.0, actor_id="lead")
        cfg = PredictionConfig(*sigmas, sample_count=3, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                sample_predictions(h, 40, cfg)
        msg = str(info.value)
        assert "'lead'" in msg and "sample 0" in msg
        assert f"noise_accel_sigma={sigmas[0]!r}" in msg
        assert f"noise_yawrate_sigma={sigmas[1]!r}" in msg

    def test_position_overflow_raises(self):
        # finite draws (|z| would need to pass 17) whose speed overflows:
        # 1e307 m/s^2 over a 100 s tick
        states = (ActorState(0.0, 0.0, 0.0, 1.0),) * 2
        h = state_trajectory("slow", 0, 100.0, states)
        cfg = PredictionConfig(1e307, 0.0, sample_count=2, seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="'slow', sample 0"):
                sample_predictions(h, 30, cfg)

    def test_large_finite_sigma_still_samples(self):
        # positions stay within MAX_MAGNITUDE: about 1e140 m at most
        h = history_from(0.0, 0.0, 0.0, 8.0)
        cfg = PredictionConfig(1e140, 1e300, sample_count=2, seed=0)
        for traj in sample_predictions(h, 20, cfg):
            assert np.isfinite(traj_xy(traj)).all()
            assert (np.abs(traj_xy(traj)) <= MAX_MAGNITUDE).all()

    def test_position_beyond_max_magnitude_raises(self):
        # finite, but far beyond any document number: no check could hit
        # an actor there
        h = history_from(0.0, 0.0, 0.0, 8.0, actor_id="far")
        cfg = PredictionConfig(1e300, 0.0, sample_count=2, seed=0)
        with pytest.raises(ValueError) as info:
            sample_predictions(h, 20, cfg)
        assert "'far', sample 0, is not finite or beyond 1e+150" in \
            str(info.value)

    @pytest.mark.parametrize("sigmas", [
        (float("nan"), 0.0), (0.0, float("nan")), (float("inf"), 0.0),
        (0.0, float("inf")), (-0.1, 0.0), (0.0, -1.0)])
    def test_non_finite_or_negative_sigma_rejected(self, sigmas):
        # nan < 0 is False, so only 0 <= sigma < inf keeps NaN out
        with pytest.raises(ValueError, match="noise sigmas"):
            PredictionConfig(*sigmas)

    @pytest.mark.parametrize("kwargs, field", [
        ({"sample_count": 1.5}, "sample_count"),
        ({"sample_count": 2.0}, "sample_count"),
        ({"seed": 4.0}, "seed"),
    ])
    def test_non_integer_count_or_seed_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            PredictionConfig(**kwargs)


class TestPredictionError:
    def test_identity_is_zero(self):
        t = history_from(0, 0, 0, 5)
        assert prediction_error(t, t) == 0.0

    def test_constant_lateral_offset(self):
        a = history_from(0, 0, 0, 5)
        shifted = state_trajectory(a.actor_id, a.start_tick, a.dt, tuple(
            ActorState(s.position_x, s.position_y + 1.0, s.heading, s.speed)
            for s in a.states))
        assert prediction_error(a, shifted) == pytest.approx(1.0)

    def test_window_mismatch_rejected(self):
        a = history_from(0, 0, 0, 5, n=5)
        b = history_from(0, 0, 0, 5, n=7)
        with pytest.raises(ScenarioError, match="window mismatch"):
            prediction_error(a, b)

    def test_constant_velocity_truth_error_below_1e9(self):
        for speed, heading in [(3.0, 0.0), (7.5, 0.7), (1.0, -2.0)]:
            h = history_from(2.0, 1.0, heading, speed)
            pred = predict_linear(h, 50)
            truth = predict_linear(h, 50)  # the same constant-velocity motion
            assert prediction_error(pred, truth) < 1e-9

    @given(st.floats(0.0, 12.0), st.floats(-3.1, 3.1),
           st.integers(1, 30))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_and_symmetric(self, speed, heading, k):
        h1 = history_from(0.0, 1.0, heading, speed)
        h2 = history_from(0.5, 1.5, heading, speed)
        a, b = predict_linear(h1, k), predict_linear(h2, k)
        e1, e2 = prediction_error(a, b), prediction_error(b, a)
        assert e1 >= 0.0
        assert e1 == pytest.approx(e2, abs=1e-12)
