"""Self-test of the benchmark.

Usage, from the root of a checkout that holds `src/choquard`:

    python3 perfbench/selftest.py [--seed 7] [--workload NAME ...]

Checks, for each workload (all by default):
  * BENCHMARK.json names exactly the workloads of `workloads.py` and the
    metrics `run.py` reports;
  * two traced repetitions at one seed give identical work counts;
  * the spans account for all of `choquard.cli.main`: self times sum to its
    duration;
  * the correctness gate passes those outputs with the pinned references and
    fails them with a c_eps reference 1e-6 off, or with a nonzero exit.
Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import spans
from run import Spawner, run_rep, sub_seed
from workloads import WORKLOADS, check_outputs

# work counts that must repeat exactly at a fixed seed
COUNTS = ("fft.calls", "riesz.calls", "nehari.calls", "solver.iters",
          "quad.apply.calls", "quad.seminorm.calls")
END_TO_END = {"wall_s", "solve_s", "setup_s", "peak_rss_mb"}
# per-layer metrics run.py adds to those of spans.layer_metrics
RUN_LAYER = {"import_s", "trace_overhead_s"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    root = Path.cwd()
    failures = []

    def check(ok: bool, what: str):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    spec = json.loads((root / "BENCHMARK.json").read_text())
    check({w["name"] for w in spec["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")
    check({m["name"] for m in spec["end_to_end"]} == END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check({m["name"] for m in spec["per_layer"]}
          == set(spans.layer_metrics({})) | RUN_LAYER,
          "BENCHMARK.json per_layer matches spans.py and run.py")

    spawner = Spawner(root)
    work = root / ".perfbench_runs" / "selftest"
    seed = sub_seed(args.seed, 0)
    for name in args.workload or list(WORKLOADS):
        wl = WORKLOADS[name]
        reps = [run_rep(spawner, wl, work / name / tag, seed, traced=True)
                for tag in ("a", "b")]
        counts = [{k: spans.layer_metrics(spans.merge(r.dumps))[k] for k in COUNTS}
                  for r in reps]
        check(counts[0] == counts[1],
              f"{name}: work counts repeat at seed {seed}: {counts[0]}"
              + ("" if counts[0] == counts[1] else f" vs {counts[1]}"))
        raw = spans.merge(reps[0].dumps)
        gap = sum(raw["self"].values()) - raw["total"]["cli.main"]
        check(abs(gap) < 1e-6 * len(wl.commands) + 1e-9,
              f"{name}: self times sum to cli.main (gap {gap:.2e} s)")
        rep_dir = work / name / "a"
        attempted, failed, reasons = check_outputs(wl, rep_dir, reps[0].exits)
        check(failed == 0 and attempted > 0,
              f"{name}: gate passes {attempted} solves {reasons}")
        wrong = {k: [c * (1 + 1e-6) for c in v] for k, v in wl.references.items()}
        refs_attempted, refs_failed, _ = check_outputs(wl, rep_dir, reps[0].exits, wrong)
        n_refs = sum(len(v) for v in wl.references.values())
        check(refs_failed >= n_refs,
              f"{name}: gate fails {refs_failed} of {refs_attempted} on wrong references")
        exit_attempted, exit_failed, _ = check_outputs(
            wl, rep_dir, dict.fromkeys(reps[0].exits, 2))
        check(exit_failed == exit_attempted > 0,
              f"{name}: gate fails all {exit_failed} on nonzero exits")
    shutil.rmtree(work, ignore_errors=True)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
