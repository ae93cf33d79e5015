"""Linear behavior prediction with Gaussian perturbation sampling.

The deterministic model is constant-velocity, constant-heading extrapolation
from an actor's most recent state.  Uncertainty is modeled by integrating the
same kinematics under zero-mean Gaussian per-tick perturbations of
longitudinal acceleration and yaw rate.  Random streams are keyed by
(seed, actor_id, t, sample index) so that leave-one-out evaluations are
paired across actor subsets and calls are order-independent.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .scenario import ActorState, ScenarioError, Trajectory, wrap_angle


@dataclass(frozen=True)
class PredictionConfig:
    """Noise model for sampled futures."""

    noise_accel_sigma: float = 0.0   # m/s^2
    noise_yawrate_sigma: float = 0.0  # rad/s
    sample_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.noise_accel_sigma < 0 or self.noise_yawrate_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        if self.sample_count < 1:
            raise ValueError("sample_count must be >= 1")


def _actor_stream(seed: int, actor_id: str, t: int, sample: int
                  ) -> np.random.Generator:
    # Stable across runs and platforms: fold the opaque actor id through
    # blake2s rather than hash().
    digest = hashlib.blake2s(actor_id.encode(), digest_size=8).digest()
    key = int.from_bytes(digest, "little")
    ss = np.random.SeedSequence(
        entropy=seed & (2 ** 64 - 1),
        spawn_key=(key, t & (2 ** 63 - 1), sample))
    return np.random.default_rng(ss)


def predict_linear(history: Trajectory, k: int) -> Trajectory:
    """Constant-velocity, constant-heading extrapolation of the last state."""
    if k < 1:
        raise ScenarioError("prediction horizon k must be >= 1")
    last = history.states[-1]
    dt = history.dt
    dx = last.speed * dt * math.cos(last.heading)
    dy = last.speed * dt * math.sin(last.heading)
    states = [last]
    for j in range(1, k + 1):
        states.append(ActorState(
            last.position_x + j * dx, last.position_y + j * dy,
            last.heading, last.speed))
    return Trajectory(history.actor_id, history.end_tick, dt, tuple(states))


def sample_predictions(history: Trajectory, k: int, cfg: PredictionConfig
                       ) -> list[Trajectory]:
    """Draw cfg.sample_count perturbed futures of one actor.

    Sample j integrates the linear model with per-tick acceleration and
    yaw-rate noise from the stream keyed (seed, actor_id, t, j); with both
    sigmas zero every sample equals predict_linear(history, k) exactly.
    """
    if k < 1:
        raise ScenarioError("prediction horizon k must be >= 1")
    last = history.states[-1]
    dt = history.dt
    t = history.end_tick
    out = []
    for j in range(cfg.sample_count):
        if cfg.noise_accel_sigma == 0.0 and cfg.noise_yawrate_sigma == 0.0:
            out.append(predict_linear(history, k))
            continue
        rng = _actor_stream(cfg.seed, history.actor_id, t, j)
        accel = rng.normal(0.0, cfg.noise_accel_sigma, size=k)
        yawrate = rng.normal(0.0, cfg.noise_yawrate_sigma, size=k)
        x, y, heading, speed = (last.position_x, last.position_y,
                                last.heading, last.speed)
        states = [last]
        for i in range(k):
            speed = max(0.0, speed + accel[i] * dt)
            heading = wrap_angle(heading + yawrate[i] * dt)
            x += speed * dt * math.cos(heading)
            y += speed * dt * math.sin(heading)
            states.append(ActorState(x, y, heading, speed))
        out.append(Trajectory(history.actor_id, t, dt, tuple(states)))
    return out


def sample_worlds(histories: Mapping[str, Trajectory], k: int,
                  cfg: PredictionConfig) -> list[dict[str, Trajectory]]:
    """Joint world samples: sample j pairs the j-th future of every actor."""
    per_actor = {
        aid: sample_predictions(h, k, cfg) for aid, h in histories.items()
    }
    return [
        {aid: samples[j] for aid, samples in per_actor.items()}
        for j in range(cfg.sample_count)
    ]


def prediction_error(predicted: Trajectory, realized: Trajectory) -> float:
    """Mean Euclidean displacement per waypoint between aligned trajectories."""
    if (predicted.start_tick != realized.start_tick
            or len(predicted) != len(realized)):
        raise ScenarioError(
            f"window mismatch: predicted [{predicted.start_tick}, "
            f"{predicted.end_tick}] vs realized [{realized.start_tick}, "
            f"{realized.end_tick}]")
    diff = predicted.xy - realized.xy
    return float(np.mean(np.hypot(diff[:, 0], diff[:, 1])))
