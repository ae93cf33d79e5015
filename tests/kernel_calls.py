"""The planner kernel's parts, called one at a time.

navrisk plans every sampled world through one kernel call,
navrisk_leave_one_out (planner._plan_worlds).  _growth.c also exports
the parts that call is made of, and these wrappers call them as it does,
so that the tests can check each part against its reference in
oracles.py: grow_tree runs the tree growth (navrisk_grow), select_path
the endpoint selection (navrisk_select) and edge_blockers the edge check
(navrisk_edge_blockers).  They take and return numpy arrays, as
oracles.obstacle_arrays gives world_arrays' buffers.  parts() also
gives the sampled futures' noise draw on its own (navrisk_normal), which
tests/test_normal_stream.py compares with numpy's Generator.normal.
"""

import ctypes
import functools
from array import array
from typing import NamedTuple, Optional

import numpy as np

from navrisk._kernel import kernel
from navrisk.planner import (
    GOAL_TOLERANCE,
    STEER_STEP,
    Plan,
    PlannerConfig,
    PlanningInfeasible,
    _Path,
    _path_plan,
    _sample_stream,
)
from navrisk.scenario import ActorState, RoadMap, ScenarioError
from oracles import Tree, _hits

_P, _D, _I = ctypes.c_void_p, ctypes.c_double, ctypes.c_int
SIGNATURES = {
    "navrisk_edge_blockers": (_D, _D, _D, _D, _D, _D, _P, _I, _P, _I, _P),
    "navrisk_grow": (_P, _I, _D, _D, _D, _D, _D, _D, _I, _P, _I, _P, _I, _P,
                     _P, _P, _P, _P),
    "navrisk_select": (_P, _P, _P, _P, _I, _D, _D, _D, _D, _D, _I, _P, _I,
                       _P, _I, _P, _P, _P, _P),
    "navrisk_normal": (_P, _I, _P, _I, _D, _I, _P),
}


@functools.cache
def parts() -> ctypes.CDLL:
    """The loaded kernel with the parts' argument types set."""
    lib = kernel()
    for name, argtypes in SIGNATURES.items():
        fn = getattr(lib, name)
        fn.argtypes, fn.restype = argtypes, ctypes.c_int
    return lib


def kernel_obstacles(obs: np.ndarray, rsum: np.ndarray, tick0: float,
                     tick1: float) -> tuple[np.ndarray, np.ndarray]:
    """obs and rsum as _growth.c reads them, C-ordered float64 (m, k+1, 2)
    and (m,).  Raises ValueError unless obs has that shape and covers
    every integer tick from tick0 to tick1."""
    obs = np.ascontiguousarray(obs, dtype=np.float64)
    if obs.ndim != 3 or obs.shape[0] != len(rsum) or obs.shape[2] != 2 \
            or not (0.0 <= tick0 and tick1 < obs.shape[1]):
        raise ValueError(f"obstacles of shape {obs.shape} with "
                         f"{len(rsum)} radius sums do not cover ticks "
                         f"{tick0!r} to {tick1!r}")
    return obs, np.ascontiguousarray(rsum, dtype=np.float64)


def edge_blockers(p0x: float, p0y: float, p1x: float, p1y: float,
                  tick0: float, tick1: float, obs: np.ndarray,
                  rsum: np.ndarray) -> tuple[int, ...]:
    """The actors of world_arrays' (obs, rsum) that the edge p0 -> p1 hits
    at the integer ticks it covers from tick0 to tick1, by _hits' rule:
    () if none, (a,) if actor a is the only one, else two of them.  The
    kernel's edge check, which the tree growth runs on every edge."""
    obs, rsum = kernel_obstacles(obs, rsum, tick0, tick1)
    found = (ctypes.c_int32 * 2)()
    count = parts().navrisk_edge_blockers(
        p0x, p0y, p1x, p1y, tick0, tick1, obs.ctypes.data, obs.shape[1],
        rsum.ctypes.data, len(rsum), found)
    if count < 0:
        raise MemoryError("no memory for the edge check")
    return tuple(found[:count])


class Selected(NamedTuple):
    """A selected path as select_path returns it: positions (k+1, 2), the
    segment each tick moves along (-1 while it holds), the vertices (n,
    2) those index, and the partial flag."""

    xy: np.ndarray
    seg: np.ndarray
    vertices: np.ndarray
    partial: bool


def grow_tree(road: RoadMap, ego: ActorState, k: int, obs: np.ndarray,
              rsum: np.ndarray, cfg: PlannerConfig, ego_radius: float,
              dt: float, samples: Optional[np.ndarray] = None
              ) -> tuple[Tree, np.ndarray]:
    """Grow the rewiring tree for exactly cfg.iteration_budget samples,
    _sample_stream's for this cfg unless samples (cfg.iteration_budget,
    2) are given, among the obstacles (obs, rsum) of world_arrays.

    Also returns the (m,) sole mask: actor j is sole iff some connect or
    rewire edge check was blocked by actor j alone.  Raises
    PlanningInfeasible when the ego overlaps an obstacle at the planning
    tick.
    """
    if not road.contains_y(ego.position_y):
        raise ScenarioError("ego is off-road")
    speed = min(cfg.target_speed, road.speed_limit)
    inv = 1.0 / (speed * dt)          # ticks per meter of path

    root = np.array([ego.position_x, ego.position_y])
    if _hits(obs[:, 0], root, rsum).any():
        raise PlanningInfeasible(
            "ego overlaps an obstacle at the planning tick")
    if samples is None:
        samples = np.frombuffer(
            _sample_stream(road, ego, cfg, ego_radius)).reshape(-1, 2)
    samples = np.ascontiguousarray(samples, dtype=np.float64)
    if samples.shape != (cfg.iteration_budget, 2):
        raise ValueError(f"{samples.shape} samples for a budget of "
                         f"{cfg.iteration_budget}")
    y_lo, y_hi = ego_radius, road.width - ego_radius

    obs, rsum = kernel_obstacles(obs, rsum, 0.0, k)
    n_max = cfg.iteration_budget + 1
    pts, cost, tick = np.empty((n_max, 2)), np.empty(n_max), np.empty(n_max)
    parent = np.empty(n_max, dtype=np.int32)
    sole = np.zeros(len(rsum), dtype=bool)
    n = parts().navrisk_grow(
        samples.ctypes.data, cfg.iteration_budget, *root.tolist(), y_lo, y_hi,
        inv, STEER_STEP, k, obs.ctypes.data, obs.shape[1], rsum.ctypes.data,
        len(rsum), pts.ctypes.data, cost.ctypes.data, tick.ctypes.data,
        parent.ctypes.data, sole.ctypes.data)
    if n < 0:
        raise MemoryError("no memory for the tree growth's work arrays")
    return Tree(pts[:n], cost[:n], tick[:n], parent[:n], speed, inv), sole


def select_path(tree: Tree, goal: np.ndarray, obs: np.ndarray,
                rsum: np.ndarray, k: int, dt: float
                ) -> tuple[Selected, int]:
    """navrisk_select's path on tree toward goal among (obs, rsum), walked
    at tree.speed, and its endpoint's tree node.  Raises
    PlanningInfeasible when no candidate endpoint stays clear."""
    pts, cost, tick = (np.ascontiguousarray(a, dtype=np.float64)
                       for a in (tree.pts, tree.cost, tree.tick))
    parent = np.ascontiguousarray(tree.parent, dtype=np.int32)
    n = len(pts)
    if pts.shape != (n, 2) or not cost.shape == tick.shape == parent.shape \
            == (n,) or not (tick >= 0.0).all():
        raise ValueError("not a tree of (n, 2) points with n costs, "
                         "parents and ticks >= 0")
    if n == 1:
        raise PlanningInfeasible(
            "no collision-free edge from the ego position")
    obs, rsum = kernel_obstacles(obs, rsum, 0.0, k)
    vertices, xy = np.empty((n + 1, 2)), np.empty((k + 1, 2))
    seg = np.empty(k + 1, dtype=np.int32)
    info = (ctypes.c_int32 * 2)()
    best = parts().navrisk_select(
        pts.ctypes.data, cost.ctypes.data, tick.ctypes.data,
        parent.ctypes.data, n, float(goal[0]), float(goal[1]),
        GOAL_TOLERANCE, tree.inv, tree.speed * dt, k, obs.ctypes.data,
        obs.shape[1], rsum.ctypes.data, len(rsum), vertices.ctypes.data,
        xy.ctypes.data, seg.ctypes.data, info)
    if best == -1:
        raise PlanningInfeasible("no candidate endpoint stays collision-free")
    if best == -2:
        raise MemoryError("no memory for the endpoint selection")
    if best < 0:
        raise ValueError("the tree's parent links do not reach the root")
    return Selected(xy, seg, vertices[:info[1]], bool(info[0])), best


def select_endpoint(tree: Tree, goal: np.ndarray, obs: np.ndarray,
                    rsum: np.ndarray, road: RoadMap, t: int, k: int,
                    dt: float) -> Plan:
    """select_path's plan as a Plan starting at tick t."""
    path = select_path(tree, goal, obs, rsum, k, dt)[0]
    flat = _Path(array("d", path.xy.ravel().tolist()),
                 array("i", path.seg.tolist()),
                 array("d", path.vertices.ravel().tolist()), path.partial)
    return _path_plan(flat, tree.speed, road, t, dt)
