#!/usr/bin/env python3
"""End-to-end case-study replication.

Generates the default five-phase scenario, runs the replanning simulation,
writes the CSV tables and SVG plots into out/case_study/, and prints the
per-phase risk/error medians with the qualitative checks (exit 1 if any
fails):

  (a) the lane-change actor's prediction error spikes at s3 and s5,
  (b) at s5 the follow candidates' risks are strictly ordered above the
      braking actor's,
  (c) at s4 the candidates dominate every other npc.
"""

import csv
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from navrisk.cli import main as navrisk_main


def run(out_dir="out/case_study", seed=42):
    t0 = time.time()
    code = navrisk_main(["run", "--casestudy-defaults",
                         "--seed", str(seed), "--out", out_dir])
    if code != 0:
        return code
    elapsed = time.time() - t0

    with open(Path(out_dir) / "phase_summary.csv") as f:
        rows = {(r["phase"], r["actor_id"]): r for r in csv.DictReader(f)}

    def med(ph, actor, col):
        v = rows[(ph, actor)][col]
        return float(v) if v else float("nan")

    actors = ["lead", "cutin", "near", "far", "rear", "outer"]
    print(f"\nper-phase medians (gamma m/waypoint | prediction error m), "
          f"{elapsed:.1f}s")
    print(f"{'actor':8}" + "".join(f"{ph:>16}" for ph in
                                   ["s1", "s2", "s3", "s4", "s5"]))
    for a in actors:
        cells = []
        for ph in ["s1", "s2", "s3", "s4", "s5"]:
            g = med(ph, a, "gamma_euclid_median")
            e = med(ph, a, "prediction_error_median")
            cells.append(f"{g:7.2f}|{e:7.3g}")
        print(f"{a:8}" + " ".join(cells))

    e2, e3, e5 = (med(ph, "cutin", "prediction_error_median")
                  for ph in ("s2", "s3", "s5"))
    g5 = sorted((med("s5", a, "gamma_euclid_median")
                 for a in ("near", "far")), reverse=True)
    g5_cut = med("s5", "cutin", "gamma_euclid_median")
    g4_cand = min(med("s4", a, "gamma_euclid_median")
                  for a in ("near", "far"))
    g4_other = max(med("s4", a, "gamma_euclid_median")
                   for a in ("lead", "cutin", "rear", "outer"))
    checks = (e3 >= 5 * e2 and e5 >= 5 * e2, g5[0] > g5[1] > g5_cut,
              g4_cand > g4_other)
    verdict = ["OK" if ok else "FAIL" for ok in checks]
    print(f"\n(a) error spike:  s3/s2 = {e3 / max(e2, 1e-300):.2g}, "
          f"s5/s2 = {e5 / max(e2, 1e-300):.2g}  {verdict[0]}")
    print(f"(b) s5 ordering:  {g5[0]:.2f} > {g5[1]:.2f} > {g5_cut:.2f}  "
          f"{verdict[1]}")
    print(f"(c) s4 dominance: min(candidates) {g4_cand:.2f} > "
          f"max(others) {g4_other:.2f}  {verdict[2]}")
    return 0 if all(checks) else 1


if __name__ == "__main__":
    sys.exit(run(*sys.argv[1:]))
