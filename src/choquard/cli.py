"""Command-line front end: solve / limit / sweep / check / export."""

from __future__ import annotations

import argparse
import csv
import io as _io
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .config import ConfigError, pair_storage_refusal
from .diagnostics import _tail_radii, check_decay, check_diamagnetic
from .io import (ParsedConfig, decode_json, load_field, parse_config, report_to_dict,
                 sanitize_json, save_field, write_report, write_run, _atomic_write_bytes,
                 _atomic_write_json)
from .solver import (SolverError, failed_solve, solve_limit, solve_penalized,
                     sweep_epsilon)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2


def _load_parsed(args) -> ParsedConfig:
    """The config file with the command-line overrides applied. A file that
    is not a JSON object, a non-finite --tol and an --eps-list that is not
    finite numbers are ConfigErrors naming their source; an override into a
    section that is not an object is left for `parse_config` to reject."""
    doc = decode_json(Path(args.config).read_bytes(), "config")
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    if args.tol is not None and not np.isfinite(args.tol):
        raise ConfigError(f"--tol must be finite, got {args.tol}")
    overrides = [("grid", "M", args.grid), ("solver", "grad_tol", args.tol),
                 ("solver", "seed", args.seed)]
    if getattr(args, "eps_list", None):
        try:
            eps_list = [float(x) for x in args.eps_list.split(",")]
        except ValueError as exc:
            raise ConfigError(f"bad --eps-list: {exc}") from exc
        if not np.all(np.isfinite(eps_list)):
            raise ConfigError(f"bad --eps-list: {args.eps_list} is not all finite")
        overrides.append(("sweep", "eps_list", eps_list))
    for section, key, value in overrides:
        if value is not None and isinstance(doc.setdefault(section, {}), dict):
            doc[section][key] = value
    raw = json.dumps(doc, sort_keys=True, indent=1).encode()
    return parse_config(raw)


def _out_dir(args) -> Path:
    """--out, refused (creating nothing) when it, or the first of its parents
    that exists, is not a directory."""
    out = Path(args.out)
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise NotADirectoryError(f"--out {out}: {existing} exists and is not a directory")
    return out


def _print_warnings(reports) -> None:
    """Print the reports' warnings on stderr (the theory hypotheses, an
    invalid penalization, say); they do not change the exit code."""
    for r in reports:
        for w in r.warnings:
            print(f"warning: eps={r.eps:g}: {w}", file=sys.stderr)


def _solve_into(out: Path, parsed: ParsedConfig, solve, eps: float):
    """Run `solve`, write its field, report and run files under `out` and
    print the report's warnings. A SolverError writes a `converged: false`
    report with the error, and the last iterate when it carries one, before
    it propagates (exit 2)."""
    started = datetime.now(timezone.utc)
    try:
        u, rep = solve()
    except SolverError as exc:
        _write_solution(out, parsed, *failed_solve(exc, eps, parsed.opts.seed), eps,
                        started)
        raise
    _write_solution(out, parsed, u, rep, eps, started)
    _print_warnings([rep])
    return rep


def _write_solution(out: Path, parsed: ParsedConfig, u, rep, eps: float, started):
    """The field u (none when u is None), the report and the run files."""
    names = [] if u is None else save_field(out / "u.f64", u, s=parsed.cfg.s,
                                            mu=parsed.cfg.mu, eps=eps)
    write_report(out / "report.json", rep)
    write_run(out, parsed, names + ["report.json"], started)


def _cmd_solve(args) -> int:
    out = _out_dir(args)
    parsed = _load_parsed(args)
    rep = _solve_into(out, parsed, lambda: solve_penalized(
        parsed.cfg, parsed.pot, parsed.grid, parsed.opts), parsed.cfg.eps)
    print(json.dumps({"c_eps": rep.c_eps, "V_at_max": rep.V_at_max,
                      "valid_penalization": rep.valid_penalization,
                      "iterations": rep.iterations}))
    return EXIT_OK


def _cmd_limit(args) -> int:
    out = _out_dir(args)
    parsed = _load_parsed(args)
    rep = _solve_into(out, parsed, lambda: solve_limit(
        parsed.cfg, parsed.grid, parsed.opts), 1.0)
    print(json.dumps({"c_V0": rep.c_eps, "decay_exponent": rep.decay_exponent,
                      "iterations": rep.iterations}))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    out = _out_dir(args)
    parsed = _load_parsed(args)
    started = datetime.now(timezone.utc)
    names: list[str] = []

    def on_solution(eps, field, rep):
        names.extend(save_field(out / f"u_eps_{eps:g}.f64", field, s=parsed.cfg.s,
                                mu=parsed.cfg.mu, eps=eps))

    reports = sweep_epsilon(parsed.cfg, parsed.pot, parsed.grid, parsed.eps_list,
                            parsed.opts, on_solution=on_solution)
    _print_warnings(reports)
    summary = {"eps_list": list(parsed.eps_list),
               "reports": [report_to_dict(r) for r in reports]}
    _atomic_write_json(out / "sweep.json", sanitize_json(summary))
    write_run(out, parsed, names + ["sweep.json"], started)
    if not all(r.converged for r in reports):
        print("sweep finished with failed entries", file=sys.stderr)
        return EXIT_SOLVER
    print(json.dumps(sanitize_json({"V_at_max": [r.V_at_max for r in reports],
                                    "c_eps": [r.c_eps for r in reports]})))
    return EXIT_OK


def _run_potential(field_path: Path, u, eps: float):
    """(A(eps x), kind) from the run's `config.json` beside the field, or
    (None, "zero") with a warning when there is none."""
    cfg_path = field_path.parent / "config.json"
    if not cfg_path.exists():
        print(f"warning: no {cfg_path}; checking with A = 0", file=sys.stderr)
        return None, "zero"
    parsed = parse_config(cfg_path)
    if parsed.cfg.dim != u.grid.dim:
        raise ConfigError(f"{cfg_path} has N = {parsed.cfg.dim}, the field "
                          f"has {u.grid.dim} dimensions")
    kind = json.loads(parsed.raw)["potential"].get("A", {"kind": "zero"})["kind"]
    return parsed.pot.A_eps(eps), kind


def _cmd_check(args) -> int:
    u, meta = load_field(args.field)
    if args.name == "diamagnetic":
        A, kind = _run_potential(Path(args.field), u, meta["eps"])
        if refusal := pair_storage_refusal(A, u.grid):
            raise ConfigError(refusal)
        result = check_diamagnetic(u, A, meta["s"])
        result.context["A"] = kind
    else:
        result = check_decay(u, meta["eps"], u.argmax_index(), meta["s"])
    print(json.dumps(report_to_dict(result)))
    return EXIT_OK


def _cmd_export(args) -> int:
    u, meta = load_field(args.field)
    g = u.grid
    buf = _io.StringIO()
    writer = csv.writer(buf)
    idx = u.argmax_index()
    if args.mode == "axis":
        writer.writerow(["x", "abs_u"])
        # the scalar abs of each sample: numpy's array abs of a complex array
        # can differ from it in the last bit
        for x, v in zip(g.axis(), u.values[(slice(None), *idx[1:])]):
            writer.writerow([f"{x:.17g}", f"{abs(v):.17g}"])
    else:
        writer.writerow(["r_mid", "mean_abs_u", "count"])
        r = _tail_radii(u, idx).reshape(-1)
        a = np.abs(u.values).reshape(-1)
        edges = g.h * np.arange(r.max() // g.h + 2)  # the last lies above r.max()
        which = np.digitize(r, edges)
        for b in range(1, len(edges)):
            m = which == b
            if not m.any():
                continue
            writer.writerow([f"{(edges[b - 1] + edges[b]) / 2:.17g}",
                             f"{a[m].mean():.17g}", int(m.sum())])
    _atomic_write_bytes(Path(args.out), buf.getvalue().encode())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="choquard",
                                 description="fractional magnetic Choquard "
                                             "ground-state solver")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", required=True)
        if needs_out:
            p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--grid", type=int, default=None, help="override grid M")
        p.add_argument("--tol", type=float, default=None, help="override grad_tol")

    p = sub.add_parser("solve", help="one-eps penalized ground state")
    common(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("limit", help="limit problem ground state (reports c_V0)")
    common(p)
    p.set_defaults(fn=_cmd_limit)

    p = sub.add_parser("sweep", help="eps-sweep concentration experiment")
    common(p)
    p.add_argument("--eps-list", default=None, help="comma-separated eps values")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("check", help="run a named diagnostic on a stored field")
    p.add_argument("--field", required=True)
    p.add_argument("--name", required=True, choices=("diamagnetic", "decay"))
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("export", help="export |u| to CSV")
    p.add_argument("--field", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("axis", "radial"), default="axis")
    p.set_defaults(fn=_cmd_export)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except ConfigError as exc:
        for line in str(exc).split("\n"):
            print(f"config invalid: {line}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
