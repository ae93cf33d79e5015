"""Span tracer that wraps the public navrisk functions from outside.

Each wrapped call records one span: its name, the index of the span that
was open when it started (its parent), its duration, its self time (the
duration minus the time covered by its direct child spans) and, for the
planner functions, the outcome that the useful-work ratios need.  Nothing
under ``src/`` changes: the wrappers are installed by rebinding module
attributes, in every module that looks the name up at call time.
"""

from __future__ import annotations

import functools
import importlib
import time

# span name -> the (module, attribute) pairs through which navrisk calls
# it.  The first pair is the defining module.  Patching only the defining
# module would miss every call made through a `from ... import` binding.
PATCHES = {
    "planner.plan_sampling": [
        ("navrisk.planner", "plan_sampling"),
        ("navrisk.simulate", "plan_sampling"),
        ("navrisk.risk", "plan_sampling"),
    ],
    # cmd_oracle imports enumerate_plans from navrisk.planner at call time
    "planner.enumerate_plans": [
        ("navrisk.planner", "enumerate_plans"),
        ("navrisk.risk", "enumerate_plans"),
    ],
    "risk.actor_risk_exact": [
        ("navrisk.risk", "actor_risk_exact"),
        ("navrisk.simulate", "actor_risk_exact"),
        ("navrisk.cli", "actor_risk_exact"),
    ],
    "risk.actor_importance": [
        ("navrisk.risk", "actor_importance"),
        ("navrisk.simulate", "actor_importance"),
    ],
    "risk.total_risk_exact": [
        ("navrisk.risk", "total_risk_exact"),
        ("navrisk.cli", "total_risk_exact"),
    ],
    "prediction.sample_worlds": [
        ("navrisk.prediction", "sample_worlds"),
        ("navrisk.simulate", "sample_worlds"),
    ],
    "prediction.predict_linear": [
        ("navrisk.prediction", "predict_linear"),
        ("navrisk.simulate", "predict_linear"),
        ("navrisk.risk", "predict_linear"),
    ],
    "simulate.run_simulation": [
        ("navrisk.simulate", "run_simulation"),
        ("navrisk.cli", "run_simulation"),
    ],
    "report.run_csv": [("navrisk.report", "run_csv"),
                       ("navrisk.cli", "run_csv")],
    "report.phase_summary_csv": [("navrisk.report", "phase_summary_csv"),
                                 ("navrisk.cli", "phase_summary_csv")],
    "report.scatter_svg": [("navrisk.report", "scatter_svg"),
                           ("navrisk.cli", "scatter_svg")],
    "report.timeline_svg": [("navrisk.report", "timeline_svg"),
                            ("navrisk.cli", "timeline_svg")],
    "scenario.generate_case_study": [
        ("navrisk.scenario", "generate_case_study"),
        ("navrisk.cli", "generate_case_study"),
    ],
    "scenario.load_scenario": [
        ("navrisk.scenario", "load_scenario"),
        ("navrisk.cli", "load_scenario"),
    ],
    "cli.main": [("navrisk.cli", "main")],
}


def _plan_outcome(result):
    return "partial" if result.partial else "ok"


def _plan_set_outcome(result):
    return [len(result), result.universe_size]


OUTCOMES = {
    "planner.plan_sampling": _plan_outcome,
    "planner.enumerate_plans": _plan_set_outcome,
}


class Tracer:
    """Keeps finished spans in memory; `spans` is written out at the end.

    A span is [name, parent index or -1, start_s, duration_s, self_s,
    outcome].  The outcome is the exception class name when the call
    raised, else what OUTCOMES gives for that name, else None.
    """

    def __init__(self):
        self.spans = []
        self._stack = []   # [span index, child time so far]
        self._t0 = time.perf_counter()

    def wrap(self, name, fn):
        outcome_of = OUTCOMES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            span = [name, parent, 0.0, 0.0, 0.0, None]
            self.spans.append(span)
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                span[5] = type(e).__name__
                raise
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dur
                span[2] = start - self._t0
                span[3] = dur
                span[4] = dur - frame[1]
            if outcome_of is not None:
                span[5] = outcome_of(result)
            return result

        return traced

    def install(self):
        """Rebind every name in PATCHES; returns the traced cli.main."""
        # import everything first, so no module binds a wrapper at import
        cli = importlib.import_module("navrisk.cli")
        for name, sites in PATCHES.items():
            home, attr = sites[0]
            original = getattr(importlib.import_module(home), attr)
            traced = self.wrap(name, original)
            for module, attr in sites:
                mod = importlib.import_module(module)
                if getattr(mod, attr) is not original:
                    raise RuntimeError(
                        f"{module}.{attr} is not {home}.{attr}; "
                        f"update perfbench/tracer.py PATCHES")
                setattr(mod, attr, traced)
        return cli.main
