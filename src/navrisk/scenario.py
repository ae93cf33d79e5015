"""World model: road geometry, actor trajectories, the scripted case study.

A scenario is a straight multi-lane one-way road segment, a set of scripted
non-ego ("npc") trajectories on a uniform tick grid, and the ego's initial
state.  The case study is generated by integrating its five phases in
order; each phase ends on its own event (a tick count, every npc settling
at its cruise speed, the merger's lane change completing, or the merger
braking to a standstill).

Each value checks its own rules when built, and Scenario those that tie
them together, naming the field's path in the scenario document, so every
Scenario saves to a document that load_scenario reads back equal.

Scenario values are immutable after construction and safe to share across
concurrent evaluators.
"""

from __future__ import annotations

import math
import numbers
from array import array
from collections.abc import Mapping
from functools import cached_property

EGO_ID = "ego"

SCENARIO_FORMAT_VERSION = 1
MAX_SCRIPT_TICKS = 200_000   # case study: latest phase end, largest tick count
# Scenario: longest horizon, a case study's latest phase end plus its tail
MAX_HORIZON_TICKS = 2 * MAX_SCRIPT_TICKS
MAX_MAGNITUDE = 1e150        # Scenario: largest magnitude of a number
KINEMATIC_TOLERANCE = 0.2    # check_kinematics: allowed fractional deviation


class ScenarioError(ValueError):
    """Raised for malformed scenarios, infeasible params or bad documents."""


def require_int(name: str, value, least: int | None = None,
                error: type = ValueError) -> None:
    """Raise error naming the field unless value is an integer, and not a
    bool (>= least when given): a float count or seed would otherwise pass
    construction and fail deep inside a run."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(
            value, numbers.Integral)) or (least is not None and value < least):
        bound = "" if least is None else f" >= {least}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")


def _require_dt(dt: float) -> float:
    """dt, or ScenarioError naming dt unless 0 < dt <= MAX_MAGNITUDE."""
    if dt <= 0.0:
        raise ScenarioError("dt must be positive")
    if not dt < math.inf:
        raise ScenarioError(f"dt must be finite, got {dt!r}")
    if dt > MAX_MAGNITUDE:
        raise ScenarioError(f"dt must be <= {MAX_MAGNITUDE:g}, got {dt!r}")
    return dt


def _require_id(actor_id) -> str:
    if not isinstance(actor_id, str) or not actor_id:
        raise ScenarioError(f"actor_id must be a non-empty string, got "
                            f"{actor_id!r}")
    return actor_id


def _field(path: str, key) -> str:
    """The field path of key (an object field, or a list index) at path."""
    return f"{path}[{key}]" if isinstance(key, int) else f"{path}.{key}"


def _at(path: str, key, make, *args):
    """make(*args), with the field path of key at path (see _field)
    prefixed to any ScenarioError it raises."""
    try:
        return make(*args)
    except ScenarioError as e:
        raise ScenarioError(f"{_field(path, key)}: {e}") from e


_set = object.__setattr__   # sets a field past _Value's __setattr__


class _Value:
    """Base of navrisk's immutable value types, built as dataclasses
    builds a frozen class but with no code generated: a subclass
    declares its fields as annotations, in order, some with a default,
    and gets

    - the constructor: positional or keyword arguments, then the
      defaults, then __post_init__, which checks the value's rules;
    - ==, which compares the fields of two values of one class;
    - the hash of the tuple of its hashed fields;
    - repr as Name(field=value, ...);
    - pickling through the constructor, so a loaded value is checked;
    - _fields, the field names, and replace(**changes).

    Assigning or deleting an attribute raises AttributeError.  A class
    keyword unhashed names fields the hash leaves out, and hidden
    fields left out of ==, the hash and repr.
    """

    __slots__ = ()

    def __init_subclass__(cls, unhashed=(), hidden=(), **kwargs):
        super().__init_subclass__(**kwargs)
        own, slots = cls.__dict__, cls.__dict__.get("__slots__", ())
        cls._fields = tuple(own.get("__annotations__", ()))
        cls._defaults = {name: own[name] for name in cls._fields
                         if name in own and name not in slots}
        cls._compared = tuple(n for n in cls._fields if n not in hidden)
        cls._hashed = tuple(n for n in cls._compared if n not in unhashed)

    def __init__(self, *args, **kwargs):
        names = self._fields
        if len(args) > len(names):
            raise TypeError(f"{type(self).__name__}() takes {len(names)} "
                            f"arguments but {len(args)} were given")
        for name, value in zip(names, args):
            _set(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError(f"{type(self).__name__}() missing argument "
                                f"{name!r}")
            _set(self, name, value)
        if kwargs:
            name = next(iter(kwargs))
            raise TypeError(f"{type(self).__name__}() got " + (
                "multiple values for argument" if name in names
                else "an unexpected keyword argument") + f" {name!r}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the value's rules (none here)."""

    def _values(self, names: tuple[str, ...]) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self._compared) == other._values(self._compared)

    def __hash__(self) -> int:
        return hash(self._values(self._hashed))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._compared) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self._fields)

    def replace(self, **changes):
        """This value with changes to some fields, built, and so checked,
        anew."""
        return type(self)(**dict(zip(self._fields,
                                     self._values(self._fields)), **changes))


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a > math.pi:
        a -= 2.0 * math.pi
    elif a <= -math.pi:
        a += 2.0 * math.pi
    return a


class ActorState(_Value):
    """Kinematic state of one actor at one tick.

    position_x runs along the road axis, position_y is lateral with 0 at the
    right road edge.  heading 0 points along the road axis; speed is the
    displacement speed (m/s), always >= 0.  A run builds one per replan
    tick, the ego's; a trajectory holds rows, not states.
    """

    __slots__ = ("position_x", "position_y", "heading", "speed")
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


class Trajectory(_Value, unhashed=("rows",)):
    """One actor's ticks from start_tick on a uniform grid, held as rows:
    one flat array('d') of (x, y, heading, speed) per tick, kept as given.

    Every rule is checked when it is built, ActorState's on every row (an
    error names the row j as states[j]).  states is a read-only view of
    the rows as ActorStates, built on first read.  Equality compares the
    rows; the hash leaves them out.
    """

    actor_id: str
    start_tick: int
    dt: float
    rows: array

    def __post_init__(self):
        _require_id(self.actor_id)
        require_int("start_tick", self.start_tick, 0, ScenarioError)
        _require_dt(self.dt)
        rows = self.rows
        if not isinstance(rows, array) or rows.typecode != "d" \
                or len(rows) % 4:
            raise ValueError("rows must be an array('d') of 4 values a tick")
        if not rows:
            raise ScenarioError(
                f"states: trajectory of {self.actor_id!r} is empty")
        h, v = rows[2::4], rows[3::4]
        total = sum(h) + sum(v)   # NaN with a NaN, which min and max miss
        if not (total == total and -math.pi < min(h) and max(h) <= math.pi
                and min(v) >= 0.0):   # then ActorState names the first row
            for j in range(0, len(rows), 4):
                _at("states", j // 4, ActorState, *rows[j:j + 4])

    @cached_property
    def states(self) -> tuple[ActorState, ...]:
        """The rows as ActorStates."""
        r = self.rows
        return tuple(map(ActorState, r[0::4], r[1::4], r[2::4], r[3::4]))

    def __len__(self) -> int:
        return len(self.rows) // 4

    @property
    def end_tick(self) -> int:
        return self.start_tick + len(self) - 1

    @cached_property
    def positions(self) -> array:
        """Positions as one flat array('d'): x0, y0, x1, y1, ...; the
        buffer the planner kernel reads."""
        rows = self.rows
        p = array("d", [0.0]) * (len(rows) // 2)   # each row's x and y
        p[0::2], p[1::2] = rows[0::4], rows[1::4]
        return p

    def window(self, t: int, k: int) -> "Trajectory":
        """Restrict to ticks [t, t+k], re-indexed with start_tick = t.
        Raises ScenarioError naming t or k unless both are integers (not
        bools) and k >= 0, and when the window leaves the span."""
        require_int("t", t, error=ScenarioError)
        require_int("k", k, 0, ScenarioError)
        if not (self.start_tick <= t and t + k <= self.end_tick):
            raise ScenarioError(
                f"window [{t}, {t + k}] outside trajectory span "
                f"[{self.start_tick}, {self.end_tick}] of {self.actor_id!r}")
        i = 4 * (t - self.start_tick)
        return Trajectory(self.actor_id, t, self.dt,
                          self.rows[i:i + 4 * (k + 1)])

    def check_kinematics(self) -> None:
        """Verify per-tick displacement against the stored speed midpoint.

        The implied speed |dp|/dt must stay within KINEMATIC_TOLERANCE
        (fraction) of the midpoint of the two stored speeds; an absolute
        slack of 1e-9 covers standstill states.
        """
        r = self.rows
        xs, ys, vs = r[0::4], r[1::4], r[3::4]
        for i, (x0, x1, y0, y1, v0, v1) in enumerate(zip(
                xs, xs[1:], ys, ys[1:], vs, vs[1:])):
            implied = math.hypot(x1 - x0, y1 - y0) / self.dt
            mid = 0.5 * (v0 + v1)
            if abs(implied - mid) > KINEMATIC_TOLERANCE * mid + 1e-9:
                raise ScenarioError(
                    f"actor {self.actor_id!r}: implied speed {implied:.4f} at "
                    f"tick {self.start_tick + i} deviates from stored "
                    f"midpoint {mid:.4f} by more than "
                    f"{KINEMATIC_TOLERANCE:.0%}")


class RoadMap(_Value):
    """Straight one-way road segment with equal-width parallel lanes."""

    lane_count: int
    lane_width: float
    road_length: float
    speed_limit: float

    def __post_init__(self):
        require_int("lane_count", self.lane_count, 1, ScenarioError)
        for name in self._fields:
            value = getattr(self, name)
            if not 0 < value <= MAX_MAGNITUDE:   # NaN fails too
                raise ScenarioError(f"{name} must be positive and <= "
                                    f"{MAX_MAGNITUDE:g}, got {value!r}")

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


class PhaseSpan(_Value):
    name: str
    start_tick: int
    end_tick: int

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ScenarioError(f"name must be a string, got {self.name!r}")
        require_int("start_tick", self.start_tick, 0, ScenarioError)
        require_int("end_tick", self.end_tick, self.start_tick, ScenarioError)


def _bounded(rows, row_path: str) -> None:
    """Raise ScenarioError naming row_path.format(j) + [c] for the first
    value c of a row j of rows (flat, 4 values a row) beyond
    +-MAX_MAGNITUDE (NaN and inf too)."""
    total = sum(rows)   # NaN with a NaN, where min and max may miss it
    if total == total and -MAX_MAGNITUDE <= min(rows) \
            and max(rows) <= MAX_MAGNITUDE:
        return
    for i, v in enumerate(rows):
        if not abs(v) <= MAX_MAGNITUDE:
            raise ScenarioError(f"{row_path.format(i // 4)}[{i % 4}]: "
                                f"expected a number of magnitude <= "
                                f"{MAX_MAGNITUDE:g}, got {v!r}")


class Scenario(_Value):
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
        h, ego = self.horizon_ticks, self.ego_initial
        require_int("$.horizon_ticks:", h, 0, ScenarioError)
        if h > MAX_HORIZON_TICKS:
            raise ScenarioError(f"$.horizon_ticks: must be <= "
                                f"{MAX_HORIZON_TICKS}, got {h}")
        object.__setattr__(self, "phases", tuple(self.phases))
        _bounded((ego.position_x, ego.position_y, ego.heading, ego.speed),
                 "$.ego.state")
        if not self.map.contains_y(ego.position_y):
            raise ScenarioError(f"$.ego.state: ego is off-road at y = "
                                f"{ego.position_y!r}")
        if ego.position_x > self.map.road_length:
            raise ScenarioError(f"$.ego.state: ego is off-road at x = "
                                f"{ego.position_x!r}")
        paths = {EGO_ID: "$.ego"}   # of each actor's document object
        for i, (aid, traj) in enumerate(self.npc_trajectories.items()):
            path = paths[aid] = f"$.actors[{i}]"
            if aid == EGO_ID:
                raise ScenarioError(f"{path}.id: actor id {EGO_ID!r} is "
                                    f"reserved for the ego vehicle")
            if traj.actor_id != aid:
                raise ScenarioError(f"{path}.id: trajectory keyed {aid!r} "
                                    f"carries actor_id {traj.actor_id!r}")
            _bounded(traj.rows, path + ".states[{}]")
            # a document holds one dt, and one state per tick
            if (traj.start_tick, traj.end_tick, traj.dt) != (0, h, self.dt):
                raise ScenarioError(
                    f"{path}.states: actor {aid!r} covers ticks "
                    f"[{traj.start_tick}, {traj.end_tick}] at dt "
                    f"{traj.dt!r}, not [0, {h}] at {self.dt!r}")
            _at(path, "states", traj.check_kinematics)
        if self.actor_radius.keys() != paths.keys():
            raise ScenarioError(
                f"actor_radius: keys {sorted(self.actor_radius, key=repr)} "
                f"are not the npc ids and {EGO_ID!r}")
        for aid, path in paths.items():
            r = self.actor_radius[aid]
            if not 0.0 <= r <= MAX_MAGNITUDE:   # NaN fails too
                raise ScenarioError(f"{path}.radius: must be within "
                                    f"[0, {MAX_MAGNITUDE:g}], got {r!r}")
        for i, p in enumerate(self.phases):
            if p.end_tick > h:
                raise ScenarioError(f"$.phase_metadata[{i}]: span ends at "
                                    f"{p.end_tick}, after tick {h}")

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


class CaseStudyParams(_Value):
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
    lead_slow_speed: float | None = 4.8  # lead compresses from s3 onward
    cutin_speed: float = 6.5
    cutin_merge_speed: float | None = 4.0  # None: merge without slowing
    near_offset: float = 17.0
    far_offset: float = 23.0

    lane_change_duration: float = 3.0
    # braking rate of the cutin actor at s5; 0 keeps a degenerate
    # constant-speed s5, None drops the phase entirely
    brake_decel: float | None = 2.7

    steady_ticks: int = 150         # s2 duration
    steady2_ticks: int = 150        # s4 duration
    tail_ticks: int = 45            # run-out after the braking actor stops

    def __post_init__(self):
        # every number finite and every tick count an integer; every field
        # but the start offsets >= 0, and dt, accel and
        # lane_change_duration > 0
        for name in self._fields:
            value = getattr(self, name)
            if value is None:
                continue
            if not math.isfinite(value):
                raise ScenarioError(f"{name}: must be finite, got {value!r}")
            if name.endswith("_ticks") and value > MAX_SCRIPT_TICKS:
                raise ScenarioError(f"{name}: must be <= {MAX_SCRIPT_TICKS}")
            if value <= 0 and name in ("dt", "accel", "lane_change_duration"):
                raise ScenarioError(f"{name}: must be positive, got "
                                    f"{value!r}")
            if name.endswith("_ticks"):
                require_int(f"{name}:", value, 0, ScenarioError)
            if value < 0 and not name.endswith("_offset"):
                raise ScenarioError(f"{name}: must be >= 0, got {value!r}")
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


class _ScriptedActor:
    """One npc of the case study: its speed approaches target at accel
    (decel, when set, when slowing down), and a lane change is a cosine
    lateral ramp of ramp_ticks ticks from ramp_start."""

    decel: float | None = None
    prev_vx: float = float("nan")
    ramp_from: float = 0.0
    ramp_to: float = 0.0
    ramp_start: int = -1
    ramp_ticks: int = 0

    def __init__(self, x: float, y: float, vx: float, target: float,
                 accel: float):
        self.x, self.y, self.vx = x, y, vx
        self.target, self.accel = target, accel

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

    def row(self, tick: int) -> tuple[float, float, float, float]:
        """(x, y, heading, speed) at tick; atan2 of a vx >= 0 lies in
        [-pi/2, pi/2] already."""
        _, vy = self.lateral_at(tick)
        speed = math.hypot(self.vx, vy)
        heading = math.atan2(vy, self.vx) if speed > 0 else 0.0
        return self.x, self.y, heading, speed

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
    rows = {aid: array("d") for aid in npcs}
    spans: list[PhaseSpan] = []
    tick = 0

    def advance() -> None:
        nonlocal tick
        for aid, a in npcs.items():   # record before stepping
            rows[aid].extend(a.row(tick))
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
        rows[aid].extend(a.row(tick))

    ego = ActorState(EGO_X, road.lane_center(EGO_LANE),
                     0.0, params.ego_speed)
    return Scenario(
        map=road,
        npc_trajectories={aid: Trajectory(aid, 0, dt, r)
                          for aid, r in rows.items()},
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
    """Serialize to the versioned scenario document (JSON, floats decimal),
    each number as its field's int or float, as load_scenario reads it,
    laid out as json.dumps(doc, indent=1) lays it out (_layout)."""
    st = s.ego_initial
    doc = {
        "version": SCENARIO_FORMAT_VERSION,
        "map": {"lane_count": int(s.map.lane_count), **{
            key: float(getattr(s.map, key))
            for key in ("lane_width", "road_length", "speed_limit")}},
        "dt": float(s.dt),
        "horizon_ticks": int(s.horizon_ticks),
        "ego": {"state": [float(st.position_x), float(st.position_y),
                          float(st.heading), float(st.speed)],
                "radius": float(s.actor_radius[EGO_ID])},
        "actors": [
            {"id": aid, "radius": float(s.actor_radius[aid]),
             "states": traj.rows}
            for aid, traj in s.npc_trajectories.items()
        ],
        "phase_metadata": [
            {"name": p.name, "start_tick": int(p.start_tick),
             "end_tick": int(p.end_tick)}
            for p in s.phases
        ],
    }
    return (_layout(doc) + "\n").encode()


def _layout(value, depth: int = 0) -> str:
    """value, nested depth levels deep, as json.dumps(value, indent=1) lays
    it out, without json's pure-Python encoder: each string and number is
    json's C encoder's, and an array('d') of (x, y, heading, speed) rows
    is laid out as the list of 4-number lists it holds, in one %-format
    (%r writes the float repr that json writes)."""
    import json   # loaded only to write or read a document
    pad = "\n" + " " * (depth + 1)
    brackets = "[]"
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{json.dumps(key)}: {_layout(v, depth + 1)}"
                 for key, v in value.items()]
    elif isinstance(value, list):
        items = [_layout(v, depth + 1) for v in value]
    elif isinstance(value, array):
        row = pad + " " + ("," + pad + " ").join(["%r"] * 4) + pad
        items = ["[" + row + "]"] * (len(value) // 4)
    else:
        return json.dumps(value)
    text = brackets[0] + pad + ("," + pad).join(items) + pad[:-1] + \
        brackets[1] if items else brackets
    return text % tuple(value) if isinstance(value, array) else text


def _require(doc: Mapping, key: str, path: str, kind: type = object):
    """doc[key], or ScenarioError naming the field unless doc is an object
    holding key, of kind (list or str) when given."""
    if not isinstance(doc, Mapping):
        raise ScenarioError(f"{path}: expected an object")
    if key not in doc:
        raise ScenarioError(f"{path}.{key}: missing field")
    if not isinstance(doc[key], kind):
        raise ScenarioError(f"{path}.{key}: expected a "
                            f"{'list' if kind is list else 'string'}")
    return doc[key]


def _number(doc, key, path: str, integral: bool = False):
    """Read doc[key] (an object field, or a list index) as a float, or an
    int when integral, or raise ScenarioError naming the field path."""
    value = doc[key] if isinstance(key, int) else _require(doc, key, path)
    if type(value) in (int, float):   # json's numbers; a bool is neither
        try:   # int() of NaN or inf, or float() of an int beyond binary64
            number = int(value) if integral else float(value)
            if number == value or not integral:
                return number
        except (OverflowError, ValueError):
            pass
    raise ScenarioError(f"{_field(path, key)}: expected "
                        f"{'an integer' if integral else 'a number'}, got "
                        f"{value!r}")


def _row(doc, key, path: str) -> list[float]:
    """Read doc[key] (as in _number) as an [x, y, heading, speed] row."""
    row = doc[key] if isinstance(key, int) else _require(doc, key, path)
    if not isinstance(row, list) or len(row) != 4:
        raise ScenarioError(f"{_field(path, key)}: expected [x, y, heading, "
                            f"speed]")
    if {*map(type, row)} != {float}:   # an int, or no number at all
        row = [_number(row, c, _field(path, key)) for c in range(4)]
    return row


def load_scenario(data: bytes | str) -> Scenario:
    """Parse a scenario document into a Scenario.  Reads its shape and JSON
    types (fields, version 1, objects, lists, numbers, integers for counts
    and ticks, strings) and no actor id twice; every other rule is the
    rule of the value built, which names the offending field path."""
    import json
    try:
        doc = json.loads(data)
    except ValueError as e:   # also undecodable bytes
        raise ScenarioError(f"document is not valid JSON: {e}") from e

    version = _require(doc, "version", "$")
    # bool is an int subclass, and True == 1
    if type(version) is not int or version != SCENARIO_FORMAT_VERSION:
        raise ScenarioError(f"$.version: unsupported version {version!r}")
    m = _require(doc, "map", "$")
    road = _at("$", "map", RoadMap,
               _number(m, "lane_count", "$.map", integral=True),
               *(_number(m, key, "$.map")
                 for key in ("lane_width", "road_length", "speed_limit")))
    # a Trajectory takes dt and its id before the Scenario exists
    dt = _at("$", "dt", _require_dt, _number(doc, "dt", "$"))
    horizon = _number(doc, "horizon_ticks", "$", integral=True)
    ego_doc = _require(doc, "ego", "$")
    ego = _at("$.ego", "state", ActorState, *_row(ego_doc, "state", "$.ego"))

    radii = {EGO_ID: _number(ego_doc, "radius", "$.ego")}
    trajs: dict[str, Trajectory] = {}
    for i, a in enumerate(_require(doc, "actors", "$", list)):
        path = f"$.actors[{i}]"
        aid = _at(path, "id", _require_id, _require(a, "id", path))
        if aid in trajs:
            raise ScenarioError(f"{path}.id: duplicate actor id {aid!r}")
        states, rows = _require(a, "states", path, list), array("d")
        for j in range(len(states)):
            rows.extend(_row(states, j, f"{path}.states"))
        try:   # its errors name states, or the row states[j]
            trajs[aid] = Trajectory(aid, 0, dt, rows)
        except ScenarioError as e:
            raise ScenarioError(f"{path}.{e}") from e
        radii[aid] = _number(a, "radius", path)

    phases = []   # phase_metadata may be left out
    for i, p in enumerate(_require({"phase_metadata": [], **doc},
                                   "phase_metadata", "$", list)):
        path = f"$.phase_metadata[{i}]"
        phases.append(_at("$.phase_metadata", i, PhaseSpan,
                          _require(p, "name", path, str),
                          _number(p, "start_tick", path, integral=True),
                          _number(p, "end_tick", path, integral=True)))
    return Scenario(map=road, npc_trajectories=trajs, ego_initial=ego,
                    horizon_ticks=horizon, dt=dt, actor_radius=radii,
                    phases=phases)
