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
from .scenario import MAX_MAGNITUDE, ScenarioError, Trajectory, require_int


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
        # a U64, as --seed is: masked to 64 bits, two seeds drew alike
        require_int("seed", self.seed, 0)
        if self.seed >= 2 ** 64:
            raise ValueError(f"seed must be below 2**64, got {self.seed!r}")


def _actor_key(actor_id: str) -> int:
    """The actor's word of its streams' spawn keys: stable across runs and
    platforms, the opaque id folded through blake2s rather than hash().
    _blake2's blake2s is the object hashlib.blake2s is, without the
    OpenSSL module that importing hashlib loads."""
    from _blake2 import blake2s
    return int.from_bytes(blake2s(actor_id.encode(), digest_size=8).digest(),
                          "little")


def predict_linear(history: Trajectory, k: int) -> Trajectory:
    """Constant-velocity, constant-heading extrapolation of the last state:
    tick j of the k moves to x0 + j * dx, y0 + j * dy."""
    if k < 1:
        raise ScenarioError("prediction horizon k must be >= 1")
    last = history.rows[-4:]
    x, y, heading, speed = last
    dt = history.dt
    dx = speed * dt * math.cos(heading)
    dy = speed * dt * math.sin(heading)
    rows = last * (k + 1)   # every row holds the heading and speed
    rows[4::4] = array("d", [x + j * dx for j in range(1, k + 1)])
    rows[5::4] = array("d", [y + j * dy for j in range(1, k + 1)])
    return Trajectory(history.actor_id, history.end_tick, dt, rows)


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
    position is not within +-MAX_MAGNITUDE, the bound a Scenario puts on
    every number it holds (sigmas too large for the scenario).
    """
    if k < 1:
        raise ScenarioError("prediction horizon k must be >= 1")
    if cfg.noise_accel_sigma == 0.0 and cfg.noise_yawrate_sigma == 0.0:
        return [predict_linear(history, k)] * cfg.sample_count
    x, y, heading, speed = history.rows[-4:]
    dt = history.dt
    t = history.end_tick
    entropy = seed_words(cfg.seed)
    key = _actor_key(history.actor_id)
    out = []
    for j in range(cfg.sample_count):
        spawn = seed_words(key, t & (2 ** 63 - 1), j)
        rows = array("d", bytes(32 * (k + 1)))
        if kernel().navrisk_sample_future(
                entropy, len(entropy), spawn, len(spawn),
                cfg.noise_accel_sigma, cfg.noise_yawrate_sigma, k,
                x, y, heading, speed, dt, MAX_MAGNITUDE, address(rows)):
            raise _non_finite(history.actor_id, j, cfg)
        out.append(Trajectory(history.actor_id, t, dt, rows))
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
