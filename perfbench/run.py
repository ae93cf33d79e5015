#!/usr/bin/env python3
"""The navrisk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository (nothing needs installing: the
program is imported from src/).  One client runs one invocation of the
public CLI entry point, navrisk.cli.main, at a time in a fresh process.

--trace 0 measures the end-to-end metrics.  It times set-up
(SETUP_REPEATS fresh processes that import navrisk and build the
scenario), then repeats the workload's invocation until the next one
would end after --seconds (at least once).  Each metric is the median
over the invocations of the run.

--trace 1 runs the invocation once untraced and twice with the span
wrappers of tracer.py, and reports the per-layer metrics.  The counts of
the two traced invocations must agree exactly.

Every invocation's output is checked (see check_run and check_oracle);
the run's invocations must produce identical output, and at DEFAULT_SEED
the output hash must equal the one recorded at commit ddaf76c.  The last
line of standard output is one JSON object; the exit code is 1 if any
check failed.  --workload all runs every workload in turn.
See perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
MODULES = ("scenario", "prediction", "planner", "risk", "simulate",
           "report", "cli")

DEFAULT_SEED = 42          # the CLI's default --seed
SETUP_REPEATS = 5
DEADLINE_S = 170           # the whole process must end within 180 s
REPLANS, ACTORS = 28, 6    # case study: 409 ticks / replan every 15

# Window ticks of the default case study at --k 40 --steps 8 where
# 0 < |Z| < universe (1,393 of 6,561 sequences are in bounds) are 7 to 66.
# Of these, the windows at ticks 7-10 and 27-35 peak at 56-61 MiB of
# resident memory and all others at 65.4-65.8 MiB (the same on every
# repeat), so those two ranges are left out: mixing them made the
# seed-to-seed spread of peak_rss_mb wider than its bound.  The +14 makes
# DEFAULT_SEED pick t = 20, the window profiled when the benchmark was
# defined.
ORACLE_TICKS = (*range(11, 27), *range(36, 67))


def oracle_tick(seed: int) -> int:
    return ORACLE_TICKS[(seed + 14) % len(ORACLE_TICKS)]


RUN_ARGS = {
    "casestudy": [],
    "casestudy-exact": ["--exact-lattice", "--operator", "both"],
    "casestudy-mc": ["--samples", "2"],
}
# columns of run.csv that each run workload fills in at least one row;
# the other optional columns must stay empty
FILLED = {
    "casestudy": {"gamma_euclid"},
    "casestudy-exact": {"gamma_euclid", "gamma_kl", "rho_exact"},
    "casestudy-mc": {"gamma_euclid", "mean_gamma", "var_gamma"},
}
OPTIONAL = ("gamma_euclid", "gamma_kl", "rho_exact", "mean_gamma",
            "var_gamma")
WORKLOADS = (*RUN_ARGS, "oracle-wide")

# sha256 of the outputs at DEFAULT_SEED, recorded at commit ddaf76c:
# run.csv + phase_summary.csv for run workloads, stdout for oracle-wide
REFERENCE = {
    "casestudy": (
        "e8a38432476da31e99ac8967ee7ab76efaed0f30b3e3b86e313f82c9c5355e14",
        "98edcf2ca94eadd1d52d9d0f18f04676093c94dd6a43cea805e1585c3be77fce"),
    "casestudy-exact": (
        "23d8b6297216c5d798548c11aad718d5f42145fa4dc9563f9f0fb7f1f64121ca",
        "e7a77cf17be0cf9ecf44b8637acdba5ac6616d7942714516ceae564d9a6c920e"),
    "casestudy-mc": (
        "29aa76a0dec307a700ebea27ebe65645f56689befda89e6c9bf2bcc5242c6c6b",
        "98edcf2ca94eadd1d52d9d0f18f04676093c94dd6a43cea805e1585c3be77fce"),
    "oracle-wide": (
        "cb9e8e4e4ef4aff7dcbc55b3de6ff23adb2bc9a0836ee77944bbb96213af56d6",),
}

# span counts at DEFAULT_SEED at commit ddaf76c; a later change may move
# them on purpose, so a difference is reported, not failed
REFERENCE_COUNTS = {
    "casestudy": {"planner.plan_sampling.calls": 196},
    "casestudy-exact": {"planner.plan_sampling.calls": 196,
                        "planner.enumerate_plans.calls": 1050,
                        "risk.actor_risk_exact.calls": 150,
                        "risk.actor_importance.calls": 150},
    "casestudy-mc": {"planner.plan_sampling.calls": 588,
                     "prediction.sample_worlds.calls": 28},
    "oracle-wide": {"planner.enumerate_plans.calls": 28,
                    "risk.actor_risk_exact.calls": 6},
}

END_TO_END = {"run_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
              "setup_s": "s"}


class Failure(Exception):
    """An invocation that exited nonzero or failed its output check."""


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

class Child:
    """Runs perfbench/child.py against src/ and reaps it with wait4, so
    the wall time, CPU time and peak RSS are those of that process (and
    of any children it waited for)."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def run(self, *args: str):
        out_path, err_path = WORK / "stdout", WORK / "stderr"
        cmd = [sys.executable, str(BENCH / "child.py"), *args]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)
            timer = threading.Timer(
                max(self.deadline - time.monotonic(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out_path.read_bytes()
        if proc.returncode != 0:
            tail = err_path.read_text(errors="replace").strip()[-400:]
            raise Failure(f"exit {proc.returncode}: {tail}")
        return {"run_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0, "stdout": stdout}


# ---------------------------------------------------------------------------
# Workload inputs and output checks
# ---------------------------------------------------------------------------

def workload_argv(workload: str, seed: int, doc: Path, out: Path):
    if workload == "oracle-wide":
        return ["oracle", "--scenario", str(doc), "--t",
                str(oracle_tick(seed)), "--k", "40", "--steps", "8"]
    return ["run", "--casestudy-defaults", *RUN_ARGS[workload],
            "--seed", str(seed), "--out", str(out)]


def _require(ok: bool, what: str):
    if not ok:
        raise Failure(what)


def check_run(workload: str, out: Path, stdout: bytes):
    """Checks run.csv and phase_summary.csv; returns their hashes."""
    run_csv = (out / "run.csv").read_bytes()
    summary = (out / "phase_summary.csv").read_bytes()
    for svg in ("scatter.svg", "risk_timeline.svg"):
        _require((out / svg).stat().st_size > 0, f"{svg} is empty")
    lines = run_csv.decode().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    _require(len(rows) == REPLANS * ACTORS,
             f"run.csv has {len(rows)} records, not {REPLANS * ACTORS}")
    ticks = {row["tick"] for row in rows}
    _require(len(ticks) == REPLANS, f"run.csv has {len(ticks)} ticks")
    for col in OPTIONAL:
        values = [row[col] for row in rows if row[col] != ""]
        _require(bool(values) == (col in FILLED[workload]),
                 f"column {col} filled in {len(values)} rows")
        for v in values:
            x = float(v)
            _require(x >= 0.0, f"{col} = {v} < 0")
            _require(col != "rho_exact" or x <= 1.0, f"rho_exact = {v} > 1")
    _require(summary.decode().startswith("phase,actor_id,n,"),
             "phase_summary.csv header")
    _require(f"({len(rows)} records)".encode() in stdout,
             "stdout does not report the record count")
    return (hashlib.sha256(run_csv).hexdigest(),
            hashlib.sha256(summary).hexdigest())


def check_oracle(stdout: bytes):
    """Checks the oracle table; returns the hash of stdout."""
    lines = stdout.decode().splitlines()
    _require(lines[0] == "kind,actor_id,z_empty,z,rho", "oracle header")
    kind, _, z_empty, z, total = lines[1].split(",")
    z_empty, z, total = int(z_empty), int(z), float(total)
    _require(kind == "total" and 0 < z < z_empty,
             f"window is not partly blocked: |Z| {z} of {z_empty}")
    _require(total == (z_empty - z) / z_empty, "total risk != formula")
    actors = [line.split(",") for line in lines[2:]]
    _require(len(actors) == ACTORS, f"{len(actors)} actor rows")
    for kind, aid, ze, za, rho in actors:
        _require(kind == "actor" and int(ze) == z_empty and int(za) == z,
                 f"actor row {aid}")
        _require(0.0 <= float(rho) <= total,
                 f"actor {aid} risk {rho} outside [0, total]")
    return (hashlib.sha256(stdout).hexdigest(),)


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def source_lines():
    counts = {f"{m}.lines": len((SRC / "navrisk" / f"{m}.py")
                                .read_text().splitlines())
              for m in MODULES}
    counts["src.lines"] = sum(len(p.read_text().splitlines())
                              for p in (SRC / "navrisk").rglob("*.py"))
    return counts


def layer_metrics(spans):
    """Aggregates one traced invocation's spans by name."""
    by_name = {}
    for name, _parent, _start, dur, self_s, outcome in spans:
        by_name.setdefault(name, []).append((dur, self_s, outcome))

    def calls(name):
        return len(by_name.get(name, ()))

    def total(name, col=0):
        return sum(s[col] for s in by_name.get(name, ()))

    def frac(num, den):
        return num / den if den else 0.0

    m = {}
    ps = by_name.get("planner.plan_sampling", ())
    m["planner.plan_sampling.calls"] = len(ps)
    m["planner.plan_sampling.ms_per_call"] = \
        frac(1000.0 * total("planner.plan_sampling"), len(ps))
    m["planner.plan_sampling.total_s"] = total("planner.plan_sampling")
    m["planner.plan_sampling.partial_frac"] = \
        frac(sum(s[2] == "partial" for s in ps), len(ps))
    m["planner.plan_sampling.infeasible_frac"] = \
        frac(sum(s[2] == "PlanningInfeasible" for s in ps), len(ps))
    ep = by_name.get("planner.enumerate_plans", ())
    m["planner.enumerate_plans.calls"] = len(ep)
    m["planner.enumerate_plans.ms_per_call"] = \
        frac(1000.0 * total("planner.enumerate_plans"), len(ep))
    m["planner.enumerate_plans.total_s"] = total("planner.enumerate_plans")
    ok = [s[2] for s in ep if isinstance(s[2], list)]
    m["planner.enumerate_plans.kept_frac"] = \
        frac(sum(k for k, _ in ok), sum(u for _, u in ok))
    for fn in ("actor_risk_exact", "actor_importance", "total_risk_exact"):
        m[f"risk.{fn}.calls"] = calls(f"risk.{fn}")
        m[f"risk.{fn}.self_s"] = total(f"risk.{fn}", 1)
    m["prediction.sample_worlds.calls"] = calls("prediction.sample_worlds")
    m["prediction.sample_worlds.total_s"] = total("prediction.sample_worlds")
    m["prediction.predict_linear.calls"] = calls("prediction.predict_linear")
    m["simulate.run_simulation.self_s"] = total("simulate.run_simulation", 1)
    m["report.write_s"] = sum(
        total(f"report.{fn}") for fn in
        ("run_csv", "phase_summary_csv", "scatter_svg", "timeline_svg"))
    m["cli.self_s"] = total("cli.main", 1)
    m["scenario.build_s"] = (total("scenario.generate_case_study")
                             + total("scenario.load_scenario"))
    return m


def unit_of(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith(".lines"):
        return "lines"
    return "ms" if name.endswith("ms_per_call") else "s"


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Returns (metrics, attempted, failed, sample counts)."""
    child = Child(time.monotonic() + DEADLINE_S)
    doc, out = WORK / "case.json", WORK / "out"
    if workload == "oracle-wide":
        child.run("cli", "casestudy", "--out", str(doc))
    argv = workload_argv(workload, seed, doc, out)
    print(f"workload {workload} seed {seed}: navrisk {' '.join(argv)}")
    expected = REFERENCE[workload] if seed == DEFAULT_SEED else None

    attempted, failed, samples, traces = 0, 0, [], []

    def invoke(*mode):
        nonlocal attempted, failed, expected
        attempted += 1
        shutil.rmtree(out, ignore_errors=True)
        try:
            r = child.run(*mode, *argv)
            if workload == "oracle-wide":
                digest = check_oracle(r["stdout"])
            else:
                digest = check_run(workload, out, r["stdout"])
            # every invocation of one run must repeat the first's output
            expected = expected or digest
            _require(digest == expected,
                     f"output hash {digest[0][:8]} != {expected[0][:8]}")
        except (Failure, OSError, ValueError, IndexError, KeyError) as e:
            failed += 1
            print(f"  invocation {attempted} FAILED: {e}")
            return None
        print(f"  invocation {attempted} {' '.join(mode)}: "
              f"run_s {r['run_s']:.3f} cpu_s {r['cpu_s']:.3f} "
              f"peak_rss_mb {r['peak_rss_mb']:.1f} "
              f"output {digest[0][:8]} ok")
        return r

    if trace:
        plain = invoke("cli")
        spans_path = WORK / "spans.json"
        for _ in range(2):
            r = invoke("trace", str(spans_path))
            if r is not None:
                spans = json.loads(spans_path.read_text())
                traces.append((r["run_s"], layer_metrics(spans)))
        if plain is None or len(traces) < 2:
            return {}, attempted, max(failed, 1), {}
        (run_a, a), (run_b, b) = traces
        drift = [k for k in a if k.endswith(".calls") and a[k] != b[k]]
        if drift:
            print(f"  traced counts differ between runs: {drift}")
            return {}, attempted, failed + 1, {}
        if seed == DEFAULT_SEED:
            for k, v in REFERENCE_COUNTS[workload].items():
                if a[k] != v:
                    print(f"  note: {k} = {a[k]}, commit ddaf76c had {v}")
        # counts are equal by now; times are the median of the two
        metrics = {k: a[k] if a[k] == b[k] else statistics.median([a[k], b[k]])
                   for k in a}
        metrics.update(source_lines())
        metrics["trace.overhead_frac"] = \
            statistics.median([run_a, run_b]) / plain["run_s"] - 1.0
        return metrics, attempted, failed, {k: 2 for k in metrics}

    setup_arg = str(doc) if workload == "oracle-wide" else "run"
    child.run("setup", setup_arg)   # warm-up: bytecode and file cache
    setup = [float(child.run("setup", setup_arg)["stdout"])
             for _ in range(SETUP_REPEATS)]

    start = time.perf_counter()
    while True:
        r = invoke("cli")
        if r is None:
            break
        samples.append(r)
        elapsed = time.perf_counter() - start
        typical = statistics.median(s["run_s"] for s in samples)
        if elapsed + typical > seconds:
            break
    if failed:
        return {}, attempted, failed, {}
    metrics = {k: statistics.median(s[k] for s in samples)
               for k in ("run_s", "cpu_s", "peak_rss_mb")}
    metrics["setup_s"] = statistics.median(setup)
    counts = {k: len(samples) for k in metrics}
    counts["setup_s"] = len(setup)
    return metrics, attempted, failed, counts


def machine_record(seed: int) -> str:
    return (f"machine: nproc {os.cpu_count()} python "
            f"{platform.python_version()} numpy "
            f"{importlib.metadata.version('numpy')} "
            f"{platform.machine()} seed {seed}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "navrisk" / "cli.py").is_file():
        print(f"error: no navrisk sources under {SRC}", file=sys.stderr)
        return 2

    print(machine_record(args.seed))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    WORK.mkdir(exist_ok=True)
    try:
        for wl in workloads:
            metrics, attempted, failed, counts = measure(
                wl, args.seed, args.seconds, bool(args.trace))
            result["attempted"] += attempted
            result["failed"] += failed
            result["correct"] = result["correct"] and failed == 0
            prefix = "" if len(workloads) == 1 else f"{wl}."
            for name, value in metrics.items():
                unit = END_TO_END.get(name) or unit_of(name)
                print(f"  {name} = {value:.6g} {unit} "
                      f"(median of {counts[name]})")
                result["metrics"][prefix + name] = {"value": value,
                                                    "unit": unit}
    except Failure as e:   # set-up or input generation failed
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
