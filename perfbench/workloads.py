"""The benchmark's workloads: the config each one solves, the `choquard`
commands it runs, and the correctness gate on their outputs.

Why each workload exists is recorded in BENCHMARK.json (`workloads[].why`);
the notes below say which layers it stresses, so a later change can predict
which workloads it should move and which it should leave alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# The seed moves the start and the calibration samples but not the ground
# state: c_eps agrees to about 1e-12 relative across seeds, so one reference
# per solve serves every seed.
REL_TOL = 1e-8
# c_{0.125} / c_{V0}: the paper's energy-convergence claim, at desk scale.
PAPER_RATIO_MAX = 1.05

_V = {"kind": "clipped_quadratic", "coeff": 1.0, "cap": 4.0}
_ZERO_A = {"kind": "zero"}
_SINE_A = {"kind": "sine", "amplitude": 0.5, "wavelength": 4.0}
_BALL = {"kind": "ball", "radius": 1.0}
EPS_LIST = [0.5, 0.25, 0.125]


def _config(N, M, L, q, A, tol, eps_list=None):
    doc = {
        "problem": {"N": N, "s": 0.75, "mu": 0.5, "q": q, "eps": 0.5, "V0": 1.0},
        "grid": {"L": L, "M": M},
        "potential": {"V": _V, "A": A, "Lambda": _BALL},
        "solver": {"max_iters": 2000, "grad_tol": tol, "seed": 0},
    }
    if eps_list:
        doc["sweep"] = {"eps_list": eps_list}
    return doc


@dataclass(frozen=True)
class Command:
    """One CLI invocation; `out` is its output directory under the rep dir."""

    verb: str
    out: str
    argv: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    commands: tuple[Command, ...]
    # expected c_eps per solve, keyed by the command's output dir
    references: dict = field(default_factory=dict)

    def argv(self, cmd: Command, seed: int) -> list[str]:
        """CLI arguments of `cmd` for one repetition at `seed`, relative to
        the repetition's directory, which holds `config.json`."""
        if cmd.verb == "check":
            return ["check", *cmd.argv]
        return [cmd.verb, "--config", "config.json", "--out", cmd.out,
                "--seed", str(seed), *cmd.argv]


WORKLOADS = {
    # The paper's experiment end to end: ~10k 1024-point FFTs, so per-call
    # overhead dominates; also io, diagnostics and warm starts.
    "paper1d": Workload(
        "paper1d",
        _config(1, 1024, 64.0, 4.0, _ZERO_A, 1e-8, EPS_LIST),
        (Command("sweep", "sweep"), Command("limit", "limit"),
         Command("check", "decay", ("--field", "sweep/u_eps_0.125.f64",
                                    "--name", "decay"))),
        {"sweep": [1.156162812, 1.107423882, 1.090995189], "limit": [1.084544276]},
    ),
    # Inside the paper's theory (N >= 3): the same layers as paper1d but few
    # large 32^3 arrays, separating per-call overhead from bytes moved.
    "solve3d": Workload(
        "solve3d",
        _config(3, 32, 12.0, 3.0, _ZERO_A, 1e-6),
        (Command("solve", "solve"),),
        {"solve": [4.174791601]},
    ),
    # 784 points, just above QuadratureOperator.dense_limit = 768: chunked
    # magnetic pair sums dominate; Nehari, Riesz and FFT are under 2%.
    "magnetic2d": Workload(
        "magnetic2d",
        _config(2, 28, 8.0, 4.0, _SINE_A, 1e-6),
        (Command("solve", "solve"),),
        {"solve": [1.900012010]},
    ),
    # 256 points, the dense side of dense_limit: complex fields through FFT
    # and Riesz, many iterations.
    "magnetic1d": Workload(
        "magnetic1d",
        _config(1, 256, 16.0, 4.0, _SINE_A, 1e-8, EPS_LIST),
        (Command("sweep", "sweep"),),
        {"sweep": [1.154471082, 1.105972938, 1.089628170]},
    ),
}


# ------------------------------------------------------------------ the gate

def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _entry_ok(entry: dict, ref: float) -> bool:
    c = entry.get("c_eps")
    return (entry.get("converged") is True
            and entry.get("valid_penalization") is True
            and isinstance(c, float) and abs(c - ref) <= REL_TOL * abs(ref))


def check_outputs(wl: Workload, rep_dir: Path, exits: dict,
                  references: dict | None = None) -> tuple[int, int, list[str]]:
    """Correctness gate of one repetition.

    `exits` maps each command's output dir to its exit code. Every solve (a
    sweep entry, a solve, a limit) and every check counts as one attempt; it
    fails on a nonzero exit, `converged` or `valid_penalization` not true, or
    a c_eps off its reference. Returns (attempted, failed, reasons).
    """
    refs = wl.references if references is None else references
    attempted = failed = 0
    reasons: list[str] = []
    c_final = c_limit = None

    def fail(why: str):
        nonlocal failed
        failed += 1
        reasons.append(why)

    for cmd in wl.commands:
        if cmd.verb == "check":
            attempted += 1
            doc = _read_json(rep_dir / f"{cmd.out}.stdout")
            if exits.get(cmd.out) != 0 or not doc or doc.get("passed") is not True:
                fail(f"check {cmd.out}: exit {exits.get(cmd.out)}, result {doc}")
            continue
        expected = refs[cmd.out]
        attempted += len(expected)
        if exits.get(cmd.out) != 0:
            for _ in expected:
                fail(f"{cmd.verb}: exit {exits.get(cmd.out)}")
            continue
        if cmd.verb == "sweep":
            doc = _read_json(rep_dir / cmd.out / "sweep.json")
            entries = (doc or {}).get("reports", [])
        else:
            doc = _read_json(rep_dir / cmd.out / "report.json")
            entries = [doc] if doc else []
        for i, ref in enumerate(expected):
            entry = entries[i] if i < len(entries) else {}
            if not _entry_ok(entry, ref):
                fail(f"{cmd.verb}[{i}]: c_eps {entry.get('c_eps')} vs {ref}, "
                     f"converged {entry.get('converged')}, "
                     f"valid {entry.get('valid_penalization')}")
        if entries:
            c = entries[-1].get("c_eps")
            if cmd.verb == "limit":
                c_limit = c
            else:
                c_final = c
    if c_limit is not None:
        attempted += 1
        if not (isinstance(c_final, float) and isinstance(c_limit, float)
                and c_final / c_limit <= PAPER_RATIO_MAX):
            fail(f"c_eps/c_V0 = {c_final}/{c_limit} above {PAPER_RATIO_MAX}")
    return attempted, failed, reasons
