"""One child process of the benchmark.

Usage: python3 child.py '<json spec>'

The spec's `mode` is one of
  "cli"     run `choquard.cli.main(argv)`, timed, optionally under spans;
  "setup"   import the CLI, parse and validate `config.json` and build the
            first solve's energy context, then stop;
  "machine" record the interpreter, libraries, cores and caches.
The process writes its timings to the spec's `result` file. Times are taken
on CLOCK_MONOTONIC, which the parent shares, so `spawned` (stamped by the
parent just before the spawn) starts the set-up clock.
"""

import json
import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _machine() -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    libc = ctypes.CDLL(None)
    libc.sysconf.argtypes = [ctypes.c_int]
    libc.sysconf.restype = ctypes.c_long
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("CHOQUARD_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in threads},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        # glibc answers these from cpuid (_SC_LEVEL2_CACHE_SIZE and
        # _SC_LEVEL3_CACHE_SIZE), reading no file
        "l2_bytes": libc.sysconf(191),
        "l3_bytes": libc.sysconf(194),
    }


def _setup() -> None:
    from pathlib import Path

    from choquard import build_penalized_context, parse_config, validate_config

    parsed = parse_config(Path("config.json"))
    report = validate_config(parsed.cfg, parsed.pot, parsed.grid)
    if not report.ok:
        raise SystemExit(f"config invalid: {report.violations}")
    build_penalized_context(parsed.cfg, parsed.pot, parsed.grid)


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = _now()
    import choquard.cli as cli
    result = {"import_s": _now() - t0}
    src = os.path.realpath(spec["src"]) + os.sep
    if not os.path.realpath(cli.__file__).startswith(src):
        print(f"choquard imported from {cli.__file__}, not {src}", file=sys.stderr)
        return 3
    code = 0
    if spec["mode"] == "machine":
        result["machine"] = _machine()
    elif spec["mode"] == "setup":
        _setup()
        result["setup_s"] = _now() - spec["spawned"]
    else:
        main_fn = cli.main
        tracer = None
        if spec["trace"]:
            import spans
            tracer = spans.Tracer()
            spans.instrument(tracer)
            main_fn = tracer.wrap("cli.main", main_fn)
        t1 = _now()
        code = main_fn(spec["argv"])
        result["solve_s"] = _now() - t1
        if tracer is not None:
            result["trace"] = tracer.dump()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
