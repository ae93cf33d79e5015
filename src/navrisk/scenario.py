"""World model: road geometry, actor trajectories, the scripted case study.

A scenario is a straight multi-lane one-way road segment, a set of scripted
non-ego ("npc") trajectories on a uniform tick grid, and the ego's initial
state.  The case study is generated by integrating its five phases in
order; each phase ends on its own event (a tick count, every npc settling
at its cruise speed, the merger's lane change completing, or the merger
braking to a standstill).

Scenario values are immutable after construction and safe to share across
concurrent evaluators.
"""

from __future__ import annotations

import json
import math
import numbers
from array import array
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Mapping, Optional

EGO_ID = "ego"

SCENARIO_FORMAT_VERSION = 1
MAX_SCRIPT_TICKS = 200_000   # case study: latest phase end, largest tick count
# load_scenario: longest horizon, a case study's latest phase end plus its
# longest tail; an actor-less document could otherwise claim any horizon
MAX_HORIZON_TICKS = 2 * MAX_SCRIPT_TICKS
MAX_MAGNITUDE = 1e150        # load_scenario: largest magnitude of a number
KINEMATIC_TOLERANCE = 0.2    # check_kinematics: allowed fractional deviation


class ScenarioError(ValueError):
    """Raised for malformed scenarios, infeasible params or bad documents."""


def require_int(name: str, value, least: Optional[int] = None) -> None:
    """Raise ValueError naming the config field unless value is an integer
    (>= least when given): a float count or seed would otherwise pass
    construction and fail deep inside a run."""
    if not isinstance(value, numbers.Integral) or \
            (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def _require_dt(dt: float) -> None:
    """Raise ScenarioError naming dt unless 0 < dt < inf; NaN fails too."""
    if dt <= 0.0:
        raise ScenarioError("dt must be positive")
    if not dt < math.inf:
        raise ScenarioError(f"dt must be finite, got {dt!r}")


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


@dataclass(frozen=True, slots=True)
class ActorState:
    """Kinematic state of one actor at one tick.

    position_x runs along the road axis, position_y is lateral with 0 at the
    right road edge.  heading 0 points along the road axis; speed is the
    displacement speed (m/s), always >= 0.  Slotted: a run builds tens of
    thousands of them, and a slotted one is built in about half the time.
    """

    position_x: float
    position_y: float
    heading: float
    speed: float

    def __post_init__(self):
        if not self.speed >= 0.0:   # NaN fails too
            raise ScenarioError(f"speed must be >= 0, got {self.speed}")
        if not (-math.pi < self.heading <= math.pi):
            raise ScenarioError(
                f"heading must lie in (-pi, pi], got {self.heading}")

    @property
    def xy(self) -> tuple[float, float]:
        return (self.position_x, self.position_y)


@dataclass(frozen=True)
class Trajectory:
    """Timestamped state sequence of one actor on a uniform tick grid."""

    actor_id: str
    start_tick: int
    dt: float
    states: tuple[ActorState, ...]

    def __post_init__(self):
        if len(self.states) == 0:
            raise ScenarioError(f"trajectory of {self.actor_id!r} is empty")
        _require_dt(self.dt)
        if not isinstance(self.states, tuple):
            object.__setattr__(self, "states", tuple(self.states))

    def __len__(self) -> int:
        return len(self.states)

    @property
    def end_tick(self) -> int:
        return self.start_tick + len(self.states) - 1

    @cached_property
    def positions(self) -> array:
        """Positions as one flat array('d'): x0, y0, x1, y1, ...; the
        buffer the planner kernel reads."""
        return array("d", [c for s in self.states
                           for c in (s.position_x, s.position_y)])

    def window(self, t: int, k: int) -> "Trajectory":
        """Restrict to ticks [t, t+k], re-indexed with start_tick = t."""
        if not (self.start_tick <= t and t + k <= self.end_tick):
            raise ScenarioError(
                f"window [{t}, {t + k}] outside trajectory span "
                f"[{self.start_tick}, {self.end_tick}] of {self.actor_id!r}")
        i = t - self.start_tick
        return Trajectory(self.actor_id, t, self.dt, self.states[i:i + k + 1])

    def check_kinematics(self) -> None:
        """Verify per-tick displacement against the stored speed midpoint.

        The implied speed |dp|/dt must stay within KINEMATIC_TOLERANCE
        (fraction) of the midpoint of the two stored speeds; an absolute
        slack of 1e-9 covers standstill states.
        """
        for i in range(len(self.states) - 1):
            a, b = self.states[i], self.states[i + 1]
            implied = math.dist(a.xy, b.xy) / self.dt
            mid = 0.5 * (a.speed + b.speed)
            if abs(implied - mid) > KINEMATIC_TOLERANCE * mid + 1e-9:
                raise ScenarioError(
                    f"actor {self.actor_id!r}: implied speed {implied:.4f} at "
                    f"tick {self.start_tick + i} deviates from stored "
                    f"midpoint {mid:.4f} by more than "
                    f"{KINEMATIC_TOLERANCE:.0%}")


@dataclass(frozen=True)
class RoadMap:
    """Straight one-way road segment with equal-width parallel lanes."""

    lane_count: int
    lane_width: float
    road_length: float
    speed_limit: float

    def __post_init__(self):
        if not isinstance(self.lane_count, numbers.Integral) or \
                self.lane_count < 1:
            raise ScenarioError(f"lane_count must be an integer >= 1, got "
                                f"{self.lane_count!r}")
        for name in ("lane_width", "road_length", "speed_limit"):
            value = getattr(self, name)
            if not 0 < value < math.inf:   # NaN fails too
                raise ScenarioError(f"{name} must be finite and positive, "
                                    f"got {value!r}")

    @property
    def width(self) -> float:
        return self.lane_count * self.lane_width

    def lane_center(self, lane: int) -> float:
        if not (0 <= lane < self.lane_count):
            raise ScenarioError(f"lane {lane} outside [0, {self.lane_count})")
        return (lane + 0.5) * self.lane_width

    def lane_of(self, y: float) -> int:
        """Nearest lane index for a lateral position (clipped to the road)."""
        return int(min(max(y // self.lane_width, 0), self.lane_count - 1))

    def contains_y(self, y: float) -> bool:
        return 0.0 <= y <= self.width


@dataclass(frozen=True)
class PhaseSpan:
    name: str
    start_tick: int
    end_tick: int


@dataclass(frozen=True)
class Scenario:
    """Map + scripted npc trajectories + ego initial state over [0, T]."""

    map: RoadMap
    npc_trajectories: Mapping[str, Trajectory]
    ego_initial: ActorState
    horizon_ticks: int
    dt: float
    actor_radius: Mapping[str, float]
    phases: tuple[PhaseSpan, ...] = ()

    def __post_init__(self):
        _require_dt(self.dt)
        if EGO_ID in self.npc_trajectories:
            raise ScenarioError(
                f"actor id {EGO_ID!r} is reserved for the ego vehicle")
        for aid, traj in self.npc_trajectories.items():
            if traj.actor_id != aid:
                raise ScenarioError(
                    f"trajectory keyed {aid!r} carries actor_id "
                    f"{traj.actor_id!r}")
            if traj.start_tick != 0 or traj.end_tick != self.horizon_ticks:
                raise ScenarioError(
                    f"actor {aid!r}: trajectory must cover ticks "
                    f"[0, {self.horizon_ticks}], got "
                    f"[{traj.start_tick}, {traj.end_tick}]")
            if abs(traj.dt - self.dt) > 1e-12:
                raise ScenarioError(f"actor {aid!r}: dt mismatch")
        missing = set(self.npc_trajectories) | {EGO_ID}
        missing -= set(self.actor_radius)
        if missing:
            raise ScenarioError(f"missing actor_radius for {sorted(missing)}")

    def radius_of(self, actor_id: str) -> float:
        return self.actor_radius[actor_id]


def slice_world(s: Scenario, t: int, k: int) -> dict[str, Trajectory]:
    """Ground-truth npc trajectories over [t, t+k], re-indexed to start at t."""
    if not (0 <= t and k >= 0 and t + k <= s.horizon_ticks):
        raise ScenarioError(
            f"window [{t}, {t + k}] outside scenario horizon "
            f"[0, {s.horizon_ticks}]")
    return {aid: traj.window(t, k) for aid, traj in s.npc_trajectories.items()}


# ---------------------------------------------------------------------------
# Case study generation
# ---------------------------------------------------------------------------

CASE_STUDY_ROAD = RoadMap(3, 3.5, 900.0, 14.0)
EGO_X = 40.0                # the ego's start along the road
EGO_LANE = 1                # the middle lane: actors flank it on both sides
ACTOR_RADIUS = 1.2          # of the ego and of every npc
# start offsets ahead of the ego; near's and far's are CaseStudyParams fields
LEAD_OFFSET, CUTIN_OFFSET, REAR_OFFSET, OUTER_OFFSET = 18.0, -4.0, -14.0, 19.0
MERGER = "cutin"            # changes lanes at s3 and brakes at s5
SETTLE_EPS = 0.05           # s1 ends once every speed is this near its target


@dataclass(frozen=True)
class CaseStudyParams:
    """Parameters of the five-phase cut-in-and-brake case study.

    Six npcs plus the ego.  Traffic forms a uniform-speed wall around the
    ego: "lead" paces the ego in its own lane, follow candidates "near"
    and "far" hold the adjacent left lane, "outer" plugs the right lane and
    "rear" trails.  The "cutin" actor overtakes on the right, swings into
    the ego's lane just ahead of it while slowing down (s3), which makes
    the ego give up its lane and slot in behind the left-lane candidates
    (s4); at s5 the cutin actor brakes hard to a standstill.
    """

    dt: float = 0.1

    ego_speed: float = 10.0       # planner target; traffic paces it down

    accel: float = 1.5
    init_speed_factor: float = 0.6   # npcs start at this fraction of target

    # cruise target speed of every npc but cutin, and start offset ahead of
    # the ego for the two left-lane candidates
    traffic_speed: float = 5.5
    lead_slow_speed: Optional[float] = 4.8  # lead compresses from s3 onward
    cutin_speed: float = 6.5
    cutin_merge_speed: Optional[float] = 4.0  # None: merge without slowing
    near_offset: float = 17.0
    far_offset: float = 23.0

    lane_change_duration: float = 3.0
    # braking rate of the cutin actor at s5; 0 keeps a degenerate
    # constant-speed s5, None drops the phase entirely
    brake_decel: Optional[float] = 2.7

    steady_ticks: int = 150         # s2 duration
    steady2_ticks: int = 150        # s4 duration
    tail_ticks: int = 45            # run-out after the braking actor stops

    def __post_init__(self):
        # every number finite and every tick count an integer; every field
        # but the start offsets >= 0, and dt, accel and
        # lane_change_duration > 0
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ScenarioError(f"{f.name}: must be finite, got {value!r}")
            if f.name.endswith("_ticks") and value > MAX_SCRIPT_TICKS:
                raise ScenarioError(f"{f.name}: must be <= {MAX_SCRIPT_TICKS}")
            if value <= 0 and f.name in ("dt", "accel",
                                         "lane_change_duration"):
                raise ScenarioError(f"{f.name}: must be positive, got "
                                    f"{value!r}")
            if value < 0 and not f.name.endswith("_offset"):
                raise ScenarioError(f"{f.name}: must be >= 0, got {value!r}")
            if f.name.endswith("_ticks") and \
                    not isinstance(value, numbers.Integral):
                raise ScenarioError(f"{f.name}: must be an integer, got "
                                    f"{value!r}")
        # a longer lane change (inf included) could never end within the
        # script's tick cap
        if self.lane_change_duration / self.dt > MAX_SCRIPT_TICKS:
            raise ScenarioError(
                f"lane_change_duration: {self.lane_change_duration!r} s is "
                f"more than {MAX_SCRIPT_TICKS} ticks of dt {self.dt!r}")

    def actor_table(self) -> dict[str, tuple[int, float, float]]:
        """actor_id -> (lane, start offset from EGO_X, target speed)."""
        return {
            "lead": (EGO_LANE, LEAD_OFFSET, self.traffic_speed),
            "cutin": (EGO_LANE - 1, CUTIN_OFFSET, self.cutin_speed),
            "near": (EGO_LANE + 1, self.near_offset, self.traffic_speed),
            "far": (EGO_LANE + 1, self.far_offset, self.traffic_speed),
            "rear": (EGO_LANE - 1, REAR_OFFSET, self.traffic_speed),
            "outer": (EGO_LANE - 1, OUTER_OFFSET, self.traffic_speed),
        }


@dataclass
class _ScriptedActor:
    """One npc of the case study: its speed approaches target at accel
    (decel, when set, when slowing down), and a lane change is a cosine
    lateral ramp of ramp_ticks ticks from ramp_start."""

    x: float
    y: float
    vx: float
    target: float
    accel: float
    decel: Optional[float] = None
    prev_vx: float = float("nan")
    ramp_from: float = 0.0
    ramp_to: float = 0.0
    ramp_start: int = -1
    ramp_ticks: int = 0

    def lateral_at(self, tick: int) -> tuple[float, float]:
        """Cosine-ramp lateral position and velocity at a tick."""
        if self.ramp_start < 0:
            return self.y, 0.0
        tau = (tick - self.ramp_start) / self.ramp_ticks
        if tau >= 1.0:
            return self.ramp_to, 0.0
        dy = self.ramp_to - self.ramp_from
        y = self.ramp_from + dy * 0.5 * (1.0 - math.cos(math.pi * tau))
        vy = dy * 0.5 * math.pi * math.sin(math.pi * tau) / self.ramp_ticks
        return y, vy

    def state(self, tick: int) -> ActorState:
        _, vy = self.lateral_at(tick)
        speed = math.hypot(self.vx, vy)
        heading = math.atan2(vy, self.vx) if speed > 0 else 0.0
        return ActorState(self.x, self.y, wrap_angle(heading), speed)

    def step(self, tick: int, dt: float) -> None:
        """Advance from tick to tick + 1.  Trapezoidal integration makes a
        constant speed's displacement exactly vx*dt per tick."""
        vx0 = self.prev_vx = self.vx
        if self.target < vx0:
            rate = self.accel if self.decel is None else self.decel
            self.vx = max(self.target, vx0 - rate * dt)
        elif self.target > vx0:
            self.vx = min(self.target, vx0 + self.accel * dt)
        self.x += 0.5 * (vx0 + self.vx) * dt
        self.y, _ = self.lateral_at(tick + 1)


def generate_case_study(params: CaseStudyParams = CaseStudyParams()) -> Scenario:
    """Build the five-phase scenario (init / steady / lane change / steady /
    emergency brake) by forward kinematic integration.

    Each phase ends on its own event: s1 once every npc has settled at its
    cruise speed, s2 and s4 after a tick count, s3 when the merger's lane
    change is done and s5 when it stands still.  The last phase that runs
    takes the tail_ticks run-out.  Replaying with identical params is
    bit-identical.  Raises ScenarioError (naming the offending actor) for
    infeasible params.
    """
    road = CASE_STUDY_ROAD
    dt = params.dt
    table = params.actor_table()

    def check_limit(aid: str, what: str, speed: float) -> None:
        if speed > road.speed_limit + 1e-9:
            raise ScenarioError(f"actor {aid!r}: {what} exceeds speed limit "
                                f"{road.speed_limit}")

    factor = params.init_speed_factor
    for aid, (_, _, speed) in table.items():
        check_limit(aid, f"target speed {speed}", speed)
        check_limit(aid, f"start speed init_speed_factor {factor} x {speed}",
                    factor * speed)
    check_limit(EGO_ID, f"target speed {params.ego_speed}", params.ego_speed)
    merge, slow = params.cutin_merge_speed, params.lead_slow_speed
    if merge is not None:
        check_limit(MERGER, f"target speed {merge}", merge)
    if slow is not None:
        check_limit("lead", f"target speed {slow}", slow)

    npcs = {aid: _ScriptedActor(EGO_X + off, road.lane_center(lane),
                                factor * speed, speed, params.accel)
            for aid, (lane, off, speed) in table.items()}
    merger = npcs[MERGER]
    rows: dict[str, list[ActorState]] = {aid: [] for aid in npcs}
    spans: list[PhaseSpan] = []
    tick = 0

    def advance() -> None:
        nonlocal tick
        for aid, a in npcs.items():   # record before stepping
            rows[aid].append(a.state(tick))
        for a in npcs.values():
            a.step(tick, dt)
        tick += 1

    def phase(name: str, done) -> None:
        """Advance until done(ticks since the phase started) holds."""
        start = tick
        while not done(tick - start):
            advance()
            if tick > MAX_SCRIPT_TICKS:
                raise ScenarioError(f"phase {name!r} trigger never fired "
                                    f"within {MAX_SCRIPT_TICKS} ticks")
        spans.append(PhaseSpan(name, start, tick))

    # settled: within tolerance and no longer changing, so s2 starts with
    # every speed already clamped at its target
    phase("s1", lambda n: all(abs(a.vx - a.target) <= SETTLE_EPS
                              and a.vx == a.prev_vx for a in npcs.values()))
    phase("s2", lambda n: n >= params.steady_ticks)

    if merge is not None:
        merger.target = merge
    if slow is not None:
        npcs["lead"].target = slow
    merger.ramp_from, merger.ramp_to = merger.y, road.lane_center(EGO_LANE)
    merger.ramp_start = tick
    merger.ramp_ticks = max(1, round(params.lane_change_duration / dt))
    phase("s3", lambda n: n >= merger.ramp_ticks)
    phase("s4", lambda n: n >= params.steady2_ticks)

    if params.brake_decel == 0.0:
        # degenerate brake: keep cruising through s5 for a fixed run-out
        phase("s5", lambda n: n >= params.steady2_ticks)
    elif params.brake_decel is not None:   # None: no braking phase at all
        merger.target, merger.decel = 0.0, params.brake_decel
        phase("s5", lambda n: merger.vx <= 0.0)

    for _ in range(params.tail_ticks):
        advance()
    spans[-1] = PhaseSpan(spans[-1].name, spans[-1].start_tick, tick)
    for aid, a in npcs.items():   # the final state at tick T
        rows[aid].append(a.state(tick))

    ego = ActorState(EGO_X, road.lane_center(EGO_LANE),
                     0.0, params.ego_speed)
    return Scenario(
        map=road,
        npc_trajectories={aid: Trajectory(aid, 0, dt, tuple(states))
                          for aid, states in rows.items()},
        ego_initial=ego,
        horizon_ticks=tick,
        dt=dt,
        actor_radius={aid: ACTOR_RADIUS for aid in (*table, EGO_ID)},
        phases=tuple(spans),
    )


# ---------------------------------------------------------------------------
# Scenario documents
# ---------------------------------------------------------------------------

def save_scenario(s: Scenario) -> bytes:
    """Serialize to the versioned scenario document (JSON, floats decimal)."""
    doc = {
        "version": SCENARIO_FORMAT_VERSION,
        "map": {
            "lane_count": s.map.lane_count,
            "lane_width": s.map.lane_width,
            "road_length": s.map.road_length,
            "speed_limit": s.map.speed_limit,
        },
        "dt": s.dt,
        "horizon_ticks": s.horizon_ticks,
        "ego": {
            "state": [s.ego_initial.position_x, s.ego_initial.position_y,
                      s.ego_initial.heading, s.ego_initial.speed],
            "radius": s.actor_radius[EGO_ID],
        },
        "actors": [
            {
                "id": aid,
                "radius": s.actor_radius[aid],
                "states": [
                    [st.position_x, st.position_y, st.heading, st.speed]
                    for st in traj.states
                ],
            }
            for aid, traj in s.npc_trajectories.items()
        ],
        "phase_metadata": [
            {"name": p.name, "start_tick": p.start_tick, "end_tick": p.end_tick}
            for p in s.phases
        ],
    }
    return (json.dumps(doc, indent=1) + "\n").encode()


def _require(doc: Mapping, key: str, path: str):
    if not isinstance(doc, Mapping):
        raise ScenarioError(f"{path}: expected an object")
    if key not in doc:
        raise ScenarioError(f"{path}.{key}: missing field")
    return doc[key]


def _field(path: str, key) -> str:
    """The field path of key (an object field, or a list index) at path."""
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def _finite(value) -> bool:
    # json.loads makes every number an int or a float, and a bool is
    # neither by type; NaN and inf fail the bound, which keeps every square
    # the kernel takes of a radius sum or a coordinate difference finite
    return type(value) in (int, float) and abs(value) <= MAX_MAGNITUDE


def _number(doc, key, path: str, integral: bool = False,
            nonneg: bool = False):
    """Read doc[key] (an object field, or a list index) as a number within
    +-MAX_MAGNITUDE: an int when integral, >= 0 when nonneg.  Anything else
    raises ScenarioError naming the field path, formatted only then."""
    value = doc[key] if isinstance(key, int) else _require(doc, key, path)
    if not _finite(value):
        raise ScenarioError(f"{_field(path, key)}: expected a number of "
                            f"magnitude <= {MAX_MAGNITUDE:g}, got {value!r}")
    if integral and value != int(value):
        raise ScenarioError(f"{_field(path, key)}: expected an integer, got "
                            f"{value!r}")
    if nonneg and value < 0:
        raise ScenarioError(f"{_field(path, key)}: must be >= 0, got "
                            f"{value!r}")
    return int(value) if integral else float(value)


def _string(doc, key: str, path: str, nonempty: bool = False) -> str:
    value = _require(doc, key, path)
    if not isinstance(value, str) or (nonempty and not value):
        raise ScenarioError(f"{path}.{key}: expected a "
                            f"{'non-empty ' if nonempty else ''}string, got "
                            f"{value!r}")
    return value


def _list(value, path: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{path}: expected a list")
    return value


def _at(path: str, key, make, *args):
    """make(*args), with the field path of key at path (see _field)
    prefixed to any ScenarioError it raises."""
    try:
        return make(*args)
    except ScenarioError as e:
        raise ScenarioError(f"{_field(path, key)}: {e}") from e


def _state(doc, key, path: str) -> ActorState:
    """Read doc[key] (as in _number) as an [x, y, heading, speed] row."""
    row = doc[key] if isinstance(key, int) else _require(doc, key, path)
    if not isinstance(row, list) or len(row) != 4:
        raise ScenarioError(f"{_field(path, key)}: expected [x, y, heading, "
                            f"speed]")
    if not all(map(_finite, row)):
        for c in range(4):   # raises at the first value out of bounds
            _number(row, c, _field(path, key))
    return _at(path, key, ActorState, *map(float, row))


def load_scenario(data: bytes | str) -> Scenario:
    """Parse and validate a scenario document.

    Schema violations report the offending field path; duplicate actor ids
    and trajectories not covering [0, horizon_ticks] are rejected.
    """
    try:
        doc = json.loads(data)
    except ValueError as e:   # also undecodable bytes
        raise ScenarioError(f"document is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ScenarioError("document root must be an object")

    version = _require(doc, "version", "$")
    # bool is an int subclass, and True == 1
    if type(version) is not int or version != SCENARIO_FORMAT_VERSION:
        raise ScenarioError(f"$.version: unsupported version {version!r}")
    m = _require(doc, "map", "$")
    road = _at("$", "map", RoadMap,
               _number(m, "lane_count", "$.map", integral=True),
               *(_number(m, key, "$.map")
                 for key in ("lane_width", "road_length", "speed_limit")))
    dt = _number(doc, "dt", "$")
    if dt <= 0:
        raise ScenarioError(f"$.dt: must be positive, got {dt!r}")
    horizon = _number(doc, "horizon_ticks", "$", integral=True, nonneg=True)
    if horizon > MAX_HORIZON_TICKS:
        raise ScenarioError(f"$.horizon_ticks: must be <= "
                            f"{MAX_HORIZON_TICKS}, got {horizon}")
    ego_doc = _require(doc, "ego", "$")
    ego = _state(ego_doc, "state", "$.ego")
    if not road.contains_y(ego.position_y):
        raise ScenarioError(f"$.ego.state: ego is off-road at y = "
                            f"{ego.position_y!r}")
    if ego.position_x > road.road_length:
        raise ScenarioError(f"$.ego.state: ego is off-road at x = "
                            f"{ego.position_x!r}")

    radii = {EGO_ID: _number(ego_doc, "radius", "$.ego", nonneg=True)}
    trajs: dict[str, Trajectory] = {}
    for i, a in enumerate(_list(_require(doc, "actors", "$"), "$.actors")):
        path = f"$.actors[{i}]"
        aid = _string(a, "id", path, nonempty=True)
        if aid in trajs or aid == EGO_ID:
            raise ScenarioError(f"{path}.id: duplicate or reserved actor id "
                                f"{aid!r}")
        states_path = f"{path}.states"
        states_doc = _list(_require(a, "states", path), states_path)
        if len(states_doc) != horizon + 1:
            raise ScenarioError(
                f"{states_path}: actor {aid!r} has {len(states_doc)} states, "
                f"expected {horizon + 1} to cover ticks [0, {horizon}]")
        states = tuple(_state(states_doc, j, states_path)
                       for j in range(len(states_doc)))
        trajs[aid] = Trajectory(aid, 0, dt, states)
        _at(path, "states", trajs[aid].check_kinematics)
        radii[aid] = _number(a, "radius", path, nonneg=True)

    phases = []
    for i, p in enumerate(_list(doc.get("phase_metadata", []),
                                "$.phase_metadata")):
        path = f"$.phase_metadata[{i}]"
        span = PhaseSpan(_string(p, "name", path),
                         _number(p, "start_tick", path, integral=True),
                         _number(p, "end_tick", path, integral=True))
        if not 0 <= span.start_tick <= span.end_tick <= horizon:
            raise ScenarioError(
                f"{path}: span [{span.start_tick}, {span.end_tick}] is not "
                f"an ordered span within [0, {horizon}]")
        phases.append(span)
    return Scenario(
        map=road, npc_trajectories=trajs, ego_initial=ego,
        horizon_ticks=horizon, dt=dt, actor_radius=radii,
        phases=tuple(phases))
