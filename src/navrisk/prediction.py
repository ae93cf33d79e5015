"""Linear behavior prediction with Gaussian perturbation sampling.

The deterministic model is constant-velocity, constant-heading extrapolation
from an actor's most recent state.  Uncertainty is modeled by integrating the
same kinematics under zero-mean Gaussian per-tick perturbations of
longitudinal acceleration and yaw rate.  Random streams are keyed by
(seed, actor_id, t, sample index) so that leave-one-out evaluations are
paired across actor subsets and calls are order-independent.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from ._kernel import address, kernel
from .scenario import (
    MAX_MAGNITUDE, ActorState, ScenarioError, Trajectory, require_int,
    wrap_angle)

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class PredictionConfig:
    """Noise model for sampled futures."""

    noise_accel_sigma: float = 0.0   # m/s^2
    noise_yawrate_sigma: float = 0.0  # rad/s
    sample_count: int = 1
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.noise_accel_sigma < math.inf
                and 0 <= self.noise_yawrate_sigma < math.inf):
            raise ValueError("noise sigmas must be finite and >= 0")
        require_int("sample_count", self.sample_count, 1)
        require_int("seed", self.seed)


def _actor_stream(seed: int, actor_id: str, t: int, sample: int
                  ) -> np.random.Generator:
    # Stable across runs and platforms: fold the opaque actor id through
    # blake2s rather than hash().  This is the package's only use of
    # hashlib and of numpy.random (which numpy loads on first access and
    # which loads OpenSSL too); the planner draws its stream in the
    # kernel, so commands that sample no futures load neither.
    import hashlib
    import numpy as np
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


def _non_finite(actor_id: str, sample: int,
                cfg: PredictionConfig) -> ValueError:
    return ValueError(
        f"sampled future of actor {actor_id!r}, sample {sample}, is not "
        f"finite or beyond {MAX_MAGNITUDE:g} "
        f"(noise_accel_sigma={cfg.noise_accel_sigma!r}, "
        f"noise_yawrate_sigma={cfg.noise_yawrate_sigma!r})")


def sample_predictions(history: Trajectory, k: int, cfg: PredictionConfig
                       ) -> list[Trajectory]:
    """Draw cfg.sample_count perturbed futures of one actor.

    Sample j integrates the linear model with per-tick acceleration and
    yaw-rate noise from the stream keyed (seed, actor_id, t, j); with both
    sigmas zero every sample is the one predict_linear(history, k).
    Raises ValueError when a noise draw is not finite or a sampled
    position is not within +-MAX_MAGNITUDE, the bound load_scenario puts
    on every document number (sigmas too large for the scenario).
    """
    if k < 1:
        raise ScenarioError("prediction horizon k must be >= 1")
    if cfg.noise_accel_sigma == 0.0 and cfg.noise_yawrate_sigma == 0.0:
        return [predict_linear(history, k)] * cfg.sample_count
    import numpy as np
    last = history.states[-1]
    dt = history.dt
    t = history.end_tick
    out = []
    for j in range(cfg.sample_count):
        rng = _actor_stream(cfg.seed, history.actor_id, t, j)
        accel = rng.normal(0.0, cfg.noise_accel_sigma, size=k)
        yawrate = rng.normal(0.0, cfg.noise_yawrate_sigma, size=k)
        if not (np.isfinite(accel).all() and np.isfinite(yawrate).all()):
            raise _non_finite(history.actor_id, j, cfg)
        x, y, heading, speed = (last.position_x, last.position_y,
                                last.heading, last.speed)
        states = [last]
        for a_i, w_i in zip(accel.tolist(), yawrate.tolist()):
            speed = max(0.0, speed + a_i * dt)
            heading = wrap_angle(heading + w_i * dt)
            x += speed * dt * math.cos(heading)
            y += speed * dt * math.sin(heading)
            # False for NaN and inf too
            if not (abs(x) <= MAX_MAGNITUDE and abs(y) <= MAX_MAGNITUDE):
                raise _non_finite(history.actor_id, j, cfg)
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
    return _mean_distance(predicted.positions, realized.positions)


def _hypot_sum(a: array, b: array) -> float:
    """The sum of the Euclidean distances between the points of a and b,
    flat array('d')s of (x, y) pairs, the shorter holding its last point,
    as np.sum(np.hypot(...)) gives it on the padded difference, bit for
    bit (_growth.c's navrisk_hypot_sum: libm hypot in numpy's pairwise
    order); 0.0 when either holds no point."""
    return kernel().navrisk_hypot_sum(address(a), len(a) // 2, address(b),
                                      len(b) // 2)


def _mean_distance(a: array, b: array) -> float:
    """Mean Euclidean distance per waypoint between the positions a and b,
    flat array('d')s of (x, y) pairs, each holding at least one point; the
    shorter one holds its final position.  risk's plan-change operator
    and prediction_error both measure displacement with it."""
    return _hypot_sum(a, b) / (max(len(a), len(b)) // 2)
