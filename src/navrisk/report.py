"""CSV tables and static SVG diagnostics for simulation runs.

All output is byte-deterministic for a given run: floats are written with
repr (shortest round-trip) and the SVGs embed no timestamps or random ids.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

from .simulate import RunResult, StepRecord

RUN_CSV_HEADER = ("tick,phase,actor_id,gamma_euclid,gamma_kl,rho_exact,"
                  "mean_gamma,var_gamma,prediction_error,ego_lane,"
                  "plan_partial")

PHASE_CSV_HEADER = ("phase,actor_id,n,gamma_euclid_median,gamma_euclid_q1,"
                    "gamma_euclid_q3,gamma_kl_median,"
                    "prediction_error_median,prediction_error_q1,"
                    "prediction_error_q3")


def _num(x: float | None) -> str:
    return "" if x is None else repr(float(x))


def run_csv(result: RunResult) -> str:
    lines = [RUN_CSV_HEADER]
    for r in result.records:
        lines.append(",".join([
            str(r.tick), r.phase, r.actor_id,
            _num(r.gamma_euclid), _num(r.gamma_kl), _num(r.rho_exact),
            _num(r.mean_gamma), _num(r.var_gamma),
            _num(r.prediction_error), str(r.ego_lane),
            "1" if r.plan_partial else "0",
        ]))
    return "\n".join(lines) + "\n"


def _quartiles(values: list[float]):
    """(median, q1, q3) as np.percentile's default linear method gives
    them: between the sorted values at the floor and the ceiling of
    (n - 1) * q, by numpy's lerp rule, whose two forms are each exact at
    their own end."""
    if not values:
        return None, None, None
    xs = sorted(values)
    last = len(xs) - 1

    def quantile(q: float) -> float:
        v = last * q
        i = math.floor(v)
        if i >= last:
            return xs[last]
        a, b, t = xs[i], xs[i + 1], v - i
        return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

    return quantile(0.5), quantile(0.25), quantile(0.75)


def phase_summary_csv(result: RunResult) -> str:
    """Per (phase, actor) medians and quartiles of risk and error, in
    first-appearance order of phases, then of actors."""
    groups: dict[tuple[str, str], list[StepRecord]] = {}
    for r in result.records:
        groups.setdefault((r.phase, r.actor_id), []).append(r)
    phase_order = dict.fromkeys(r.phase for r in result.records)
    actor_order = dict.fromkeys(r.actor_id for r in result.records)
    lines = [PHASE_CSV_HEADER]
    for phase in phase_order:
        for actor in actor_order:
            recs = groups.get((phase, actor))
            if recs is None:
                continue
            ge_med, ge_q1, ge_q3 = _quartiles(
                [r.gamma_euclid for r in recs if r.gamma_euclid is not None])
            kl_med, _, _ = _quartiles(
                [r.gamma_kl for r in recs if r.gamma_kl is not None])
            pe_med, pe_q1, pe_q3 = _quartiles(
                [r.prediction_error for r in recs
                 if r.prediction_error is not None])
            lines.append(",".join([
                phase, actor, str(len(recs)),
                *map(_num, (ge_med, ge_q1, ge_q3, kl_med,
                            pe_med, pe_q1, pe_q3))]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Static SVG plots
# ---------------------------------------------------------------------------

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_W, _H = 640, 460
_ML, _MR, _MT, _MB = 60, 150, 20, 45


def _scale(vals, lo, hi, out_lo, out_hi):
    if hi - lo < 1e-12:
        hi = lo + 1.0
    return [(out_lo + (v - lo) / (hi - lo) * (out_hi - out_lo))
            for v in vals]


def _svg_frame(title: str, xlabel: str, ylabel: str,
               x_rng, y_rng) -> list[str]:
    x0, x1 = _ML, _W - _MR
    y0, y1 = _H - _MB, _MT
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
        f'height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="{_H - 8}" font-size="12" '
        f'text-anchor="middle">{xlabel}</text>',
        f'<text x="14" y="{(y0 + y1) / 2:.1f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 14 '
        f'{(y0 + y1) / 2:.1f})">{ylabel}</text>',
        f'<text x="{(x0 + x1) / 2:.1f}" y="14" font-size="13" '
        f'text-anchor="middle">{title}</text>',
        f'<text x="{x0}" y="{y0 + 14}" font-size="10" '
        f'text-anchor="middle">{x_rng[0]:.3g}</text>',
        f'<text x="{x1}" y="{y0 + 14}" font-size="10" '
        f'text-anchor="middle">{x_rng[1]:.3g}</text>',
        f'<text x="{x0 - 6}" y="{y0}" font-size="10" '
        f'text-anchor="end">{y_rng[0]:.3g}</text>',
        f'<text x="{x0 - 6}" y="{y1 + 4}" font-size="10" '
        f'text-anchor="end">{y_rng[1]:.3g}</text>',
    ]
    return parts


def _legend(parts: list[str], actors: Sequence[str]):
    for i, aid in enumerate(actors):
        color = _PALETTE[i % len(_PALETTE)]
        y = _MT + 16 + 16 * i
        parts.append(f'<rect x="{_W - _MR + 12}" y="{y - 9}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{_W - _MR + 28}" y="{y}" '
                     f'font-size="11">{aid}</text>')


def scatter_svg(result: RunResult) -> str:
    """Per actor-step importance vs prediction error (risk correlation)."""
    pts = [(r.prediction_error, r.gamma_euclid, r.actor_id)
           for r in result.records
           if r.prediction_error is not None and r.gamma_euclid is not None]
    actors = list(dict.fromkeys(r.actor_id for r in result.records))
    xs = [p[0] for p in pts] or [0.0, 1.0]
    ys = [p[1] for p in pts] or [0.0, 1.0]
    x_rng = (min(xs), max(xs))
    y_rng = (min(ys), max(ys))
    parts = _svg_frame("importance vs prediction error",
                       "prediction error (m/waypoint)",
                       "importance (m/waypoint)", x_rng, y_rng)
    sx = _scale([p[0] for p in pts], x_rng[0], x_rng[1], _ML, _W - _MR)
    sy = _scale([p[1] for p in pts], y_rng[0], y_rng[1], _H - _MB, _MT)
    for (_, _, aid), px, py in zip(pts, sx, sy):
        color = _PALETTE[actors.index(aid) % len(_PALETTE)]
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="3.5" '
                     f'fill="{color}" fill-opacity="0.7"/>')
    _legend(parts, actors)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def timeline_svg(result: RunResult) -> str:
    """Per-actor importance over replan ticks."""
    actors = list(dict.fromkeys(r.actor_id for r in result.records))
    series = {aid: [] for aid in actors}
    for r in result.records:
        if r.gamma_euclid is not None:
            series[r.actor_id].append((r.tick, r.gamma_euclid))
    all_t = [t for pts in series.values() for t, _ in pts] or [0, 1]
    all_g = [g for pts in series.values() for _, g in pts] or [0, 1]
    x_rng = (min(all_t), max(all_t))
    y_rng = (min(all_g), max(all_g))
    parts = _svg_frame("per-actor importance over time", "tick",
                       "importance (m/waypoint)", x_rng, y_rng)
    for i, aid in enumerate(actors):
        pts = series[aid]
        if not pts:
            continue
        sx = _scale([p[0] for p in pts], x_rng[0], x_rng[1], _ML, _W - _MR)
        sy = _scale([p[1] for p in pts], y_rng[0], y_rng[1], _H - _MB, _MT)
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(sx, sy))
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    _legend(parts, actors)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
