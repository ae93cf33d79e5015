"""Linear behavior prediction with Gaussian perturbation sampling.

The deterministic model is constant-velocity, constant-heading extrapolation
from an actor's most recent state.  Uncertainty is modeled by integrating the
same kinematics under zero-mean Gaussian per-tick perturbations of
longitudinal acceleration and yaw rate.  Random streams are keyed by
(seed, actor_id, t, sample index) so that leave-one-out evaluations are
paired across actor subsets and calls are order-independent.

Each sampled future is one call of the compiled kernel,
navrisk_sample_future in _growth.c: numpy's SeedSequence, PCG64 and
Generator.normal (its ziggurat, with numpy's tables), ported bit for bit,
draw the noise, and the kernel integrates it with the scalar expressions
of a Python float loop, so that sampling loads no numpy.  numpy's own
draws and that loop are the references they are tested against
(tests/oracles.py, reference_sample_predictions).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Mapping

from ._kernel import address, kernel, seed_words
from .scenario import (
    MAX_MAGNITUDE, ActorState, ScenarioError, Trajectory, require_int)


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


def _actor_key(actor_id: str) -> int:
    """The actor's word of its streams' spawn keys: stable across runs and
    platforms, the opaque id folded through blake2s rather than hash().
    _blake2's blake2s is the object hashlib.blake2s is, without the
    OpenSSL module that importing hashlib loads."""
    from _blake2 import blake2s
    return int.from_bytes(blake2s(actor_id.encode(), digest_size=8).digest(),
                          "little")


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
    last = history.states[-1]
    dt = history.dt
    t = history.end_tick
    entropy = seed_words(cfg.seed & (2 ** 64 - 1))
    key = _actor_key(history.actor_id)
    rows = array("d", bytes(32 * (k + 1)))
    out = []
    for j in range(cfg.sample_count):
        spawn = seed_words(key, t & (2 ** 63 - 1), j)
        if kernel().navrisk_sample_future(
                entropy, len(entropy), spawn, len(spawn),
                cfg.noise_accel_sigma, cfg.noise_yawrate_sigma, k,
                last.position_x, last.position_y, last.heading, last.speed,
                dt, MAX_MAGNITUDE, address(rows)):
            raise _non_finite(history.actor_id, j, cfg)
        states = [last]
        states += (ActorState(*rows[i:i + 4])
                   for i in range(4, 4 * (k + 1), 4))
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


def _sum(values) -> float:
    """np.sum of the floats values, bit for bit (_growth.c's navrisk_sum:
    numpy's pairwise order)."""
    buf = array("d", values)
    return kernel().navrisk_sum(address(buf), len(buf))


def _mean_distance(a: array, b: array) -> float:
    """Mean Euclidean distance per waypoint between the positions a and b,
    flat array('d')s of (x, y) pairs, each holding at least one point; the
    shorter one holds its final position.  risk's plan-change operator
    and prediction_error both measure displacement with it."""
    return _hypot_sum(a, b) / (max(len(a), len(b)) // 2)
