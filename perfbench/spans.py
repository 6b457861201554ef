"""Spans around the public functions of each `choquard` module, installed from
outside the package: no source file of the library is edited.

A function imported with `from .x import y` is bound in every module that
imported it, so each binding is replaced (found by identity in every loaded
`choquard.*` module). Methods are replaced on their class. Modules are taken
from `sys.modules`, because the package attribute `choquard.energy` is the
`energy` function, not the module.

A span's self time is its duration minus the durations of its direct child
spans. `layer_metrics` turns the raw sums of one or more traced commands into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory span sums of one process: calls, total and self seconds per
    span name, calls per (parent, child) pair, and work counts from hooks."""

    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        # duration of calls not nested in a span of the same group, the
        # group being the name up to its first "."; sums a layer without
        # counting its nested calls twice
        self.outer = defaultdict(float)
        self.under = Counter()  # (parent, child) -> calls
        self.work = Counter()
        self._stack: list[list] = []  # [name, child seconds]
        self._open = Counter()  # group -> spans of the group on the stack

    def wrap(self, name: str, fn, hook=None):
        """`fn` timed as span `name`; `hook(work, args, result)` adds work
        counts after a call that returns."""
        group = name.split(".")[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack, open_ = self._stack, self._open
            parent = stack[-1][0] if stack else ""
            nested = open_[group] > 0
            frame = [name, 0.0]
            stack.append(frame)
            open_[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                open_[group] -= 1
                self.calls[name] += 1
                self.total[name] += dur
                self.self_s[name] += dur - frame[1]
                if not nested:
                    self.outer[name] += dur
                if stack:
                    stack[-1][1] += dur
                self.under[parent, name] += 1
            if hook is not None:
                hook(self.work, args, result)
            return result

        return span

    def dump(self) -> dict:
        return {"calls": dict(self.calls), "total": dict(self.total),
                "self": dict(self.self_s), "outer": dict(self.outer),
                "under": {f"{p}>{c}": n for (p, c), n in self.under.items()},
                "work": dict(self.work)}


def _count_points(work, args, result):
    work["fft.points"] += args[0].size


def _count_iters(work, args, result):
    work["solver.iters"] += result[2]


def _count_bytes(work, args, result):
    work["io.bytes"] += len(args[1])


# (module, function, span name, hook)
FUNCTIONS = (
    ("choquard._fft", "fftn", "fft.fftn", _count_points),
    ("choquard._fft", "ifftn", "fft.ifftn", _count_points),
    ("choquard.operators", "riesz_convolve", "riesz.convolve", None),
    ("choquard.operators", "build_hartree_cache", "hartree.build", None),
    ("choquard.energy", "nehari_project", "nehari.project", None),
    ("choquard.energy", "energy_value", "energy.value", None),
    ("choquard.energy", "gradient", "energy.gradient", None),
    ("choquard.energy", "calibrate_penalization", "calibrate.penalization", None),
    ("choquard.energy", "build_penalized_context", "context.penalized", None),
    ("choquard.energy", "build_limit_context", "context.limit", None),
    ("choquard.sampling", "band_limited_field", "sampling.band_limited", None),
    ("choquard.sampling", "gaussian_bump", "sampling.gaussian_bump", None),
    ("choquard.sampling", "bump_in_region", "sampling.bump_in_region", None),
    ("choquard.solver", "minimize_on_nehari", "solver.minimize", _count_iters),
    ("choquard.solver", "rescale_field", "solver.rescale", None),
    ("choquard.diagnostics", "fit_decay", "diagnostics.fit_decay", None),
    ("choquard.diagnostics", "check_decay", "check.decay", None),
    ("choquard.io", "parse_config", "cli.parse_config", None),
    ("choquard.io", "save_field", "io.save_field", None),
    ("choquard.io", "write_report", "io.write_report", None),
    ("choquard.io", "write_run", "io.write_run", None),
    ("choquard.io", "_atomic_write_json", "io.write_json", None),
    ("choquard.io", "_atomic_write_bytes", "io.write_bytes", _count_bytes),
)

# (module, class, method, span name)
METHODS = (
    ("choquard.operators", "QuadratureOperator", "__post_init__", "quad.assemble"),
    ("choquard.operators", "QuadratureOperator", "apply", "quad.apply"),
    ("choquard.operators", "QuadratureOperator", "seminorm_sq", "quad.seminorm"),
    ("choquard.energy", "EnergyContext", "apply_op", "op.apply"),
    ("choquard.energy", "EnergyContext", "seminorm_sq", "op.seminorm"),
)


def instrument(tracer: Tracer):
    """Replace every binding of the traced functions and methods in the
    loaded `choquard` modules with spans of `tracer`."""
    modules = [m for name, m in sys.modules.items()
               if name == "choquard" or name.startswith("choquard.")]
    for mod_name, fn_name, span_name, hook in FUNCTIONS:
        original = getattr(sys.modules[mod_name], fn_name)
        wrapped = tracer.wrap(span_name, original, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for mod_name, cls_name, method, span_name in METHODS:
        cls = getattr(sys.modules[mod_name], cls_name)
        setattr(cls, method, tracer.wrap(span_name, getattr(cls, method)))


def merge(dumps: list[dict]) -> dict:
    """Sum the dumps of the commands of one repetition."""
    out: dict = {}
    for d in dumps:
        for table, values in d.items():
            acc = out.setdefault(table, {})
            for key, v in values.items():
                acc[key] = acc.get(key, 0) + v
    return out


def layer_metrics(raw: dict) -> dict[str, float]:
    """Per-layer metrics from merged dumps; ratios carry their base in the
    unit named in BENCHMARK.json."""
    calls, total, self_s, outer, under, work = (
        defaultdict(float, raw.get(k, {})) for k in
        ("calls", "total", "self", "outer", "under", "work"))

    def prefixed(table, prefix):
        return sum(v for k, v in table.items() if k.startswith(prefix))

    nehari = calls["nehari.project"]
    iters = work["solver.iters"]
    # projections inside the descent, less the one that places the start
    attempts = under["solver.minimize>nehari.project"] - calls["solver.minimize"]
    return {
        "fft.calls": calls["fft.fftn"] + calls["fft.ifftn"],
        "fft.self_s": self_s["fft.fftn"] + self_s["fft.ifftn"],
        "fft.mpoints": work["fft.points"] / 1e6,
        "fft.computed_mb": 16 * work["fft.points"] / 1e6,
        "riesz.calls": calls["riesz.convolve"],
        "riesz.self_s": self_s["riesz.convolve"],
        "hartree_cache_s": total["hartree.build"],
        "quad.assemble_s": total["quad.assemble"],
        "quad.apply.calls": calls["quad.apply"],
        "quad.apply.self_s": self_s["quad.apply"],
        "quad.seminorm.calls": calls["quad.seminorm"],
        "quad.seminorm.self_s": self_s["quad.seminorm"],
        "op.apply.self_s": self_s["op.apply"],
        "op.seminorm.self_s": self_s["op.seminorm"],
        "nehari.calls": nehari,
        "nehari.self_s": self_s["nehari.project"],
        "nehari.riesz_per_call": (under["nehari.project>riesz.convolve"] / nehari
                                  if nehari else 0.0),
        "energy_value.calls": calls["energy.value"],
        "gradient.calls": calls["energy.gradient"],
        "gradient.self_s": self_s["energy.gradient"],
        "calibrate_s": total["calibrate.penalization"],
        "context_build_s": total["context.penalized"] + total["context.limit"],
        "sampling.calls": prefixed(calls, "sampling."),
        "sampling.self_s": prefixed(self_s, "sampling."),
        "solver.iters": iters,
        "solver.attempts_per_iter": attempts / iters if iters else 0.0,
        "minimize.self_s": self_s["solver.minimize"],
        "rescale_s": total["solver.rescale"],
        "fit_decay.calls": calls["diagnostics.fit_decay"],
        "fit_decay.self_s": self_s["diagnostics.fit_decay"],
        "check_s": total["check.decay"],
        "parse_config_s": total["cli.parse_config"],
        "io.write_s": prefixed(outer, "io."),
        "io.bytes_written": work["io.bytes"],
        "unspanned_s": self_s["cli.main"],
    }
