"""The benchmark's trace (`perfbench/spans.py`) wraps library names by
`getattr`; a rename must fail here, not when the benchmark runs, and so must
a moved c_eps reference or a work count that does not repeat."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    spans = _spans()
    for mod_name, fn_name, _, _ in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), fn_name)), \
            (mod_name, fn_name)
    for mod_name, cls_name, method, _ in spans.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name)
        assert callable(getattr(cls, method)), (mod_name, cls_name, method)
    # spans._count_iters reads the iterations of `minimize_on_nehari`'s result
    # by position
    from choquard.solver import Descent
    assert Descent._fields[2] == "iterations"


def test_bench_selftest_passes():
    # the benchmark's own self-test: pinned c_eps references, traced names
    # and repeatable work counts, checked before anyone runs the benchmark
    root = SPANS.parents[1]
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
