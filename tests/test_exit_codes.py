"""Fuzz the CLI's exit-code contract.

Every input ends in 0 (success), 2 (configuration), 3 (scenario), 4
(degenerate scenario) or 5 (lattice cap), never in an uncaught exception.
Argument vectors draw each value from a small set of boundary cases: zero,
negative, NaN, infinity and a typical value.
"""

import contextlib
import functools
import io
import json
import math
from unittest import mock

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from navrisk.cli import main
from navrisk.scenario import CaseStudyParams, generate_case_study, \
    save_scenario
from navrisk.simulate import RunResult

CODES = {0, 2, 3, 4, 5}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


def _exit(argv) -> tuple[int, str]:
    """main(argv)'s exit code and stderr; argparse's own rejections exit 2
    through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@functools.cache
def _case_doc() -> dict:
    """The case-study document as parsed JSON (never mutated)."""
    return json.loads(save_scenario(generate_case_study()))


@pytest.fixture(scope="module")
def small_case(workdir):
    path = workdir / "small.json"
    path.write_bytes(save_scenario(generate_case_study(CaseStudyParams(
        steady_ticks=30, steady2_ticks=30, tail_ticks=15))))
    return path


# --- mutated scenario documents ---------------------------------------------

FIELDS = [
    ("version",), ("map",), ("map", "lane_count"), ("map", "lane_width"),
    ("map", "road_length"), ("map", "speed_limit"), ("dt",),
    ("horizon_ticks",), ("ego",), ("ego", "state"), ("ego", "radius"),
    *(("ego", "state", j) for j in range(4)),
    ("actors",), ("actors", 0), ("actors", 0, "id"), ("actors", 0, "radius"),
    ("actors", 0, "states"), ("actors", 0, "states", 0),
    *(("actors", 1, "states", 25, j) for j in range(4)),
    ("phase_metadata",), ("phase_metadata", 0),
    ("phase_metadata", 0, "name"), ("phase_metadata", 0, "start_tick"),
    ("phase_metadata", 2, "end_tick"),
]
DELETE = object()
VALUES = [DELETE, None, True, "x", 0, -1, 0.5, 2.5, 99999, 1e308,
          math.nan, math.inf, -math.inf, [], {}, [0.0, 0.0, 0.0, 0.0]]


def _mutated(doc, path, value):
    """A copy of doc with the node at path replaced by value (or deleted),
    copying only the containers along the path; doc itself if the path
    no longer exists."""
    key, rest = path[0], path[1:]
    if isinstance(doc, dict) and key in doc or \
            isinstance(doc, list) and isinstance(key, int) and key < len(doc):
        new = type(doc)(doc)
        if rest:
            new[key] = _mutated(doc[key], rest, value)
        elif value is DELETE:
            del new[key]
        else:
            new[key] = value
        return new
    return doc


@FUZZ
@given(st.lists(st.tuples(st.sampled_from(FIELDS), st.sampled_from(VALUES)),
                min_size=1, max_size=3))
def test_mutated_documents(workdir, mutations):
    doc = _case_doc()
    for path, value in mutations:
        doc = _mutated(doc, path, value)
    bad = workdir / "mutated.json"
    bad.write_text(json.dumps(doc))
    code, err = _exit(["oracle", "--scenario", str(bad), "--t", "20",
                       "--k", "8", "--steps", "2"])
    assert code in CODES
    if code == 3:   # a document error names the offending field
        assert err.startswith("error: $"), err


@pytest.mark.parametrize("operator", ["kl", "euclid", "both"])
def test_empty_universe_exit_4_for_every_operator(workdir, operator):
    # an ego above the speed limit leaves no lattice sequence in bounds;
    # the KL and the exact paths report it alike
    fast = workdir / "fast_ego.json"
    fast.write_text(json.dumps(_mutated(_case_doc(), ("ego", "state", 3),
                                        20.0)))
    code, err = _exit(["run", "--scenario", str(fast), "--operator",
                       operator, "--exact-lattice", "--budget", "50",
                       "--out", str(workdir / "fast")])
    assert (code, err) == (4, "error: the map admits no plan "
                              "(|Z empty| = 0)\n")


@pytest.mark.parametrize("axis, j, value", [("x", 0, 905.0),
                                             ("y", 1, -1.0)])
def test_off_road_ego_exit_3(workdir, axis, j, value):
    # the road is 900 m long: an ego past its end would leave the
    # planner's sample window a negative length
    off = workdir / "off_road.json"
    off.write_text(json.dumps(_mutated(_case_doc(), ("ego", "state", j),
                                       value)))
    code, err = _exit(["run", "--scenario", str(off), "--budget", "50",
                       "--out", str(workdir / "off")])
    assert (code, err) == (3, f"error: $.ego.state: ego is off-road at "
                              f"{axis} = {value!r}\n")


@pytest.mark.parametrize("raised, line", [
    (MemoryError(), "error: out of memory\n"),
    (MemoryError("no memory for the lattice walk"),
     "error: out of memory: no memory for the lattice walk\n"),
])
def test_allocation_failure_exit_2(workdir, small_case, raised, line):
    # an allocation the arguments asked for failed: Python's own
    # MemoryError has no text, so the line names it
    scenario = ["--scenario", str(small_case)]
    with mock.patch("navrisk.cli.run_simulation", side_effect=raised):
        assert _exit(["run", *scenario, "--out", str(workdir / "oom")]) == \
            (2, line)
    with mock.patch("navrisk.cli.all_actor_risk_exact", side_effect=raised):
        assert _exit(["oracle", *scenario, "--t", "20", "--k", "8",
                      "--steps", "2"]) == (2, line)


# --- argument vectors -------------------------------------------------------

INTS = ["0", "-1", "3"]
FLOATS = ["0", "-1", "nan", "inf", "0.2"]


def _flags(options, most=3):
    """Strategy for an argument list of up to `most` options, each a flag
    with one of its values; a flag whose value list is None is a switch."""
    choices = [(flag,) if values is None else (flag, v)
               for flag, values in options for v in values or [None]]
    return st.lists(st.sampled_from(choices), max_size=most).map(
        lambda parts: [a for part in parts for a in part])


ORACLE_FLAGS = _flags([
    ("--t", ["0", "-1", "20", "100000"]),
    ("--maneuvers", ["keep", "foo", "", "keep,brake,accelerate"]),
])


@FUZZ
@given(k=st.sampled_from(["0", "-8", "8", "9", "nan"]),
       steps=st.sampled_from(["0", "-2", "1", "2"]), rest=ORACLE_FLAGS)
def test_oracle_arguments(small_case, k, steps, rest):
    code, _ = _exit(["oracle", "--scenario", str(small_case), "--k", k,
                     "--steps", steps, *rest])
    assert code in CODES


CASESTUDY_FLAGS = _flags([
    ("--dt", FLOATS), ("--brake-decel", FLOATS),
    ("--lane-change-duration", FLOATS), ("--steady-ticks", INTS),
    ("--steady2-ticks", INTS), ("--tail-ticks", INTS),
    ("--ego-speed", FLOATS), ("--no-merge-slowdown", None),
    ("--no-brake", None),
])


@FUZZ
@given(out=st.sampled_from(["doc.json", "missing/doc.json"]),
       rest=CASESTUDY_FLAGS)
def test_casestudy_arguments(workdir, out, rest):
    code, _ = _exit(["casestudy", "--out", str(workdir / out), *rest])
    assert code in CODES


RUN_FLAGS = _flags([
    ("--seed", ["0", "-1"]), ("--horizon", ["0", "-1", "40", "41"]),
    ("--replan-every", ["0", "-1", "15"]), ("--samples", ["0", "-1", "2"]),
    ("--noise-accel", FLOATS), ("--noise-yawrate", FLOATS),
    ("--operator", ["euclid", "kl", "both"]), ("--exact-lattice", None),
    ("--lattice-steps", ["0", "-1", "4", "20"]),
    ("--budget", ["0", "-1", "200"]),
])


@FUZZ
@given(source=st.sampled_from(["small", "defaults", "small", "missing"]),
       out=st.sampled_from(["run", "run", "file", "file/under"]),
       rest=RUN_FLAGS)
def test_run_arguments(workdir, small_case, source, out, rest):
    (workdir / "file").touch()
    calls = []

    def stub(scenario, cfg):
        calls.append(cfg)
        return RunResult((), (), ())

    scenario = {"small": ["--scenario", str(small_case)],
                "missing": ["--scenario", str(workdir / "nope.json")],
                "defaults": ["--casestudy-defaults"]}[source]
    with mock.patch("navrisk.cli.run_simulation", stub):
        code, _ = _exit(["run", *scenario, "--out", str(workdir / out),
                         *rest])
    assert code in CODES
    # a configuration error never reaches the simulation
    assert (code == 0) == bool(calls)
