"""Benchmark of the `choquard` CLI on the workloads named in BENCHMARK.json.

Usage, from the root of a checkout that holds `src/choquard`:

    python3 perfbench/run.py --workload paper1d --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 20

Closed loop with one client: every CLI command runs in a fresh child process
(`child.py`) with FFT, BLAS and OpenMP threads pinned to 1, and the next
starts when it has exited. A run first records the machine (which also warms
the file cache), then times `SETUPS` set-ups in processes of their own, then
repeats the workload's commands until `--seconds` are used. Repetition j runs
at CLI seed `1000 * seed + j`, so a run averages over several inputs drawn
from its seed; every repetition passes the correctness gate in
`workloads.check_outputs`, and failures are counted, never dropped.

`--trace 0` reports the end-to-end metrics: means over repetitions of the
summed wall time (`wall_s`, spawn to exit) and of the time inside
`choquard.cli.main` (`solve_s`), the median set-up time (`setup_s`) and the
highest peak RSS of a command (`peak_rss_mb`, from `os.wait4`). Means, not
medians, because repetitions differ in input: iteration counts vary with the
seed (magnetic1d: 356, 406 and 478 at seeds 7, 8 and 123), and a mean over
seeds is the steadier estimate of the workload's cost. The failed share of
attempted solves (fail_frac) is the result's `failed` / `attempted`; it is 0
today, so it is not an end-to-end metric of its own.

`--trace 1` alternates untraced and traced repetitions at one seed, so work
counts repeat exactly, and reports the per-layer metrics of `spans.py`, the
median over traced repetitions, plus `trace_overhead_s`, the traced minus the
untraced median `solve_s`.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import spans
from workloads import WORKLOADS, Workload, check_outputs

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
THREAD_ENV = {"CHOQUARD_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUPS = 5
# a run must end within 180 s: no repetition starts that would end past
# RUN_BUDGET_S, and a child still running at RUN_LIMIT_S is killed
RUN_BUDGET_S = 150.0
RUN_LIMIT_S = 175.0


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sub_seed(seed: int, rep: int) -> int:
    return 1000 * seed + rep


class ChildFailed(RuntimeError):
    pass


@dataclass
class Spawner:
    """Runs child processes with the pinned environment and times them."""

    root: Path
    started: float = field(default_factory=_now)

    def __post_init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                        **THREAD_ENV)

    def run(self, spec: dict, cwd: Path, stem: str) -> dict:
        """Spawn `child.py` in `cwd`; return its exit code, wall time from
        spawn to exit, peak RSS and the timings the child wrote."""
        result_path = cwd / f"{stem}.result.json"
        spec = dict(spec, src=str(self.root / "src"), result=str(result_path))
        env = dict(self.env, TMPDIR=str(cwd))
        with open(cwd / f"{stem}.stdout", "wb") as out, \
                open(cwd / f"{stem}.stderr", "wb") as err:
            spec["spawned"] = t0 = _now()
            proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                                    cwd=cwd, env=env, stdout=out, stderr=err)
            timeout = max(0.0, RUN_LIMIT_S - (t0 - self.started))
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    ready, _, _ = select.select([pidfd], [], [], timeout)
                finally:
                    os.close(pidfd)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            if not ready:
                proc.kill()
            # wait4, not Popen.wait: it also returns the child's peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
            wall = _now() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not ready:
            raise ChildFailed(f"{stem} killed at the {RUN_LIMIT_S} s run limit")
        try:
            timings = json.loads(result_path.read_text())
        except (OSError, ValueError):
            timings = {}
        return {"exit": proc.returncode, "wall_s": wall,
                "rss_mb": usage.ru_maxrss / 1024.0, **timings}


@dataclass
class Rep:
    traced: bool
    wall_s: float = 0.0
    solve_s: float = 0.0
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    dumps: list = field(default_factory=list)
    import_s: float = 0.0
    exits: dict = field(default_factory=dict)


def write_config(wl: Workload, rep_dir: Path, seed: int) -> None:
    rep_dir.mkdir(parents=True, exist_ok=True)
    doc = copy.deepcopy(wl.config)
    doc["solver"]["seed"] = seed
    (rep_dir / "config.json").write_text(json.dumps(doc, indent=1))


def run_rep(spawner: Spawner, wl: Workload, rep_dir: Path, seed: int,
            traced: bool) -> Rep:
    """One repetition: the workload's commands in order, then the gate."""
    write_config(wl, rep_dir, seed)
    rep = Rep(traced)
    for cmd in wl.commands:
        r = spawner.run({"mode": "cli", "trace": traced, "argv": wl.argv(cmd, seed)},
                        rep_dir, cmd.out)
        rep.exits[cmd.out] = r["exit"]
        rep.wall_s += r["wall_s"]
        rep.solve_s += r.get("solve_s", float("nan"))
        rep.import_s += r.get("import_s", float("nan"))
        rep.rss_mb = max(rep.rss_mb, r["rss_mb"])
        if "trace" in r:
            rep.dumps.append(r["trace"])
    rep.attempted, rep.failed, rep.reasons = check_outputs(wl, rep_dir, rep.exits)
    return rep


def measure(root: Path, wl: Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    """One benchmark run; returns the result object of the last output line."""
    spawner = Spawner(root)
    work = root / ".perfbench_runs" / f"{wl.name}-{seed}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    setup_dir = work / "setup"
    write_config(wl, setup_dir, sub_seed(seed, 0))
    machine = spawner.run({"mode": "machine"}, setup_dir, "machine")
    if machine["exit"] != 0:
        raise ChildFailed((setup_dir / "machine.stderr").read_text())
    print("machine: " + json.dumps(machine["machine"], sort_keys=True))

    setups = []
    if not trace:
        for i in range(SETUPS):
            r = spawner.run({"mode": "setup"}, setup_dir, f"setup{i}")
            if r["exit"] != 0:
                raise ChildFailed((setup_dir / f"setup{i}.stderr").read_text())
            setups.append(r["setup_s"])
        print("setup_s samples: " + " ".join(f"{x:.4f}" for x in setups))

    reps: list[Rep] = []
    t_begin = _now()
    while True:
        j = len(reps)
        traced = trace and j % 2 == 1
        seed_j = sub_seed(seed, 0 if trace else j)
        rep_dir = work / f"rep{j}"
        t0 = _now()
        rep = run_rep(spawner, wl, rep_dir, seed_j, traced)
        took = _now() - t0
        reps.append(rep)
        print(f"{wl.name} rep {j} seed {seed_j}{' traced' if traced else ''}: "
              f"wall {rep.wall_s:.4f} s, solve {rep.solve_s:.4f} s, "
              f"rss {rep.rss_mb:.1f} MB, failed {rep.failed}/{rep.attempted}")
        for why in rep.reasons:
            print(f"  FAILED {why}")
        if not rep.failed:
            shutil.rmtree(rep_dir)
        done = _now()
        if len(reps) >= (2 if trace else 1) and (
                done - t_begin >= seconds
                or done - spawner.started + took > RUN_BUDGET_S):
            break
    if not any(r.failed for r in reps):
        shutil.rmtree(work)

    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    plain = [r for r in reps if not r.traced and math.isfinite(r.solve_s)]
    if not plain:
        raise ChildFailed(f"{wl.name}: no repetition reported its timings")
    if trace:
        traced = [r for r in reps if r.traced]
        per_rep = [dict(spans.layer_metrics(spans.merge(r.dumps)),
                        import_s=r.import_s) for r in traced]
        metrics = {k: statistics.median(m[k] for m in per_rep) for k in per_rep[0]}
        metrics["trace_overhead_s"] = (statistics.median(r.solve_s for r in traced)
                                       - statistics.median(r.solve_s for r in plain))
    else:
        metrics = {
            "wall_s": statistics.fmean(r.wall_s for r in plain),
            "solve_s": statistics.fmean(r.solve_s for r in plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r.rss_mb for r in plain),
        }
    print(f"{wl.name}: {len(reps)} repetitions, {failed} failed of {attempted} "
          "attempted")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="a workload name from BENCHMARK.json, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "choquard" / "cli.py").is_file():
        print("perfbench: run from a checkout root holding src/choquard",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"perfbench: unknown workload {args.workload}", file=sys.stderr)
        return 2
    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        res = measure(root, WORKLOADS[name], args.seed, args.seconds,
                      bool(args.trace))
        if set(res["metrics"]) != set(units):
            raise SystemExit(f"perfbench: metrics {sorted(res['metrics'])} do "
                             f"not match BENCHMARK.json {sorted(units)}")
        res["metrics"] = {k: {"value": v, "unit": units[k]}
                          for k, v in res["metrics"].items()}
        for k, m in res["metrics"].items():
            print(f"{name:12s} {k:26s} {m['value']:14.6f} {m['unit']}")
        print(f"{name:12s} {'fail_frac':26s} "
              f"{res['failed'] / res['attempted']:14.6f} ratio")
        results[name] = res
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
