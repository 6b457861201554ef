"""Config ingestion, field persistence, and machine-readable reports.

Field files are raw little-endian binary64, interleaved (real, imaginary) per
sample in row-major grid order, which is numpy's '<c16' layout (so signed
zeros survive), with a JSON sidecar `<name>.meta.json` holding the grid
geometry, problem scalars, phase gauge, and a payload sha256. `save_field`
returns the names of the two files it wrote, and a run directory's
`manifest.json` (`write_run`) lists `config.json` and the names its writers
returned, with the package `__version__`.
All writes are atomic (write to a temp file, then rename).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, ProblemConfig, PotentialSpec
from .grids import Field, GridSpec, NonFiniteFieldError
from .potentials import (BallRegion, BoxRegion, clipped_quadratic_V, constant_A,
                         constant_V, sine_A)
from .solver import SolverOptions

# SHA-256 from the interpreter's built-in module, as random.py takes its sha512:
# hashlib loads _hashlib, which maps OpenSSL's libcrypto (~3.5 MB of RSS in a
# CLI process). _sha2 (Python >= 3.12) and _sha256 (3.10, 3.11) are private
# modules, so an interpreter built without them falls back to hashlib.
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

# the sidecar's name for the global phase of a stored field (solver.phase_gauge)
PHASE_GAUGE = "argmax-real-positive"


# ---------------------------------------------------------------- atomic io

def _atomic_write_bytes(path: Path, payload: bytes):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_json(path: Path, doc):
    _atomic_write_bytes(Path(path), to_json(doc, indent=2).encode())


# ------------------------------------------------------------ field storage

def save_field(path, u: Field, *, s: float, mu: float, eps: float) -> list[str]:
    """Write the field payload and its sidecar; returns their file names."""
    path = Path(path)
    payload = np.ascontiguousarray(u.values, dtype="<c16").tobytes()
    meta = {
        "dims": list(u.grid.shape),
        "L": u.grid.L,
        "s": s,
        "mu": mu,
        "eps": eps,
        "phase_gauge": PHASE_GAUGE,
        "sha256": sha256(payload).hexdigest(),
    }
    meta_path = path.with_name(path.name + ".meta.json")
    _atomic_write_bytes(path, payload)
    _atomic_write_json(meta_path, meta)
    return [path.name, meta_path.name]


def load_field(path) -> tuple[Field, dict]:
    """Round-trip loader; verifies the sidecar's keys and values, the payload
    length, its checksum and that every sample is finite, raising ConfigError
    for any fault."""
    path = Path(path)
    meta_path = path.with_name(path.name + ".meta.json")
    if not meta_path.exists():
        raise ConfigError(f"missing field sidecar {meta_path.name}")
    where = f"field sidecar {meta_path.name}"
    meta = _take(decode_json(meta_path.read_bytes(), where), where,
                 {"dims": lambda v: [_int(n) for n in v], "L": float, "s": float,
                  "mu": float, "eps": float, "sha256": str},
                 {"phase_gauge": str})
    if not 0 < meta["s"] < 1:
        raise ConfigError(f"{where}: s must lie in (0, 1)")
    if not 0 < meta["eps"] < math.inf:
        raise ConfigError(f"{where}: eps must be positive and finite")
    dims = meta["dims"]
    if len(set(dims)) != 1:
        raise ConfigError("field sidecar dims must be equal per axis")
    try:
        grid = GridSpec(L=meta["L"], M=dims[0], dim=len(dims))
    except ValueError as exc:
        raise ConfigError(f"bad grid in {where}: {exc}") from exc
    payload = path.read_bytes()
    expected = 16 * grid.size
    if len(payload) < expected:
        raise ConfigError("unexpected end of field data")
    if len(payload) > expected:
        raise ConfigError("field payload longer than sidecar dims imply")
    if sha256(payload).hexdigest() != meta["sha256"]:
        raise ConfigError("checksum mismatch in field payload")
    vals = np.frombuffer(payload, dtype="<c16").reshape(grid.shape).copy()
    try:
        return Field(vals, grid), meta
    except NonFiniteFieldError as exc:
        raise ConfigError(f"field payload {path.name}: {exc}") from None


# ------------------------------------------------------------- config parse

def _refuse_constant(name: str):
    raise ConfigError(f"non-finite number {name}")


def decode_json(raw: bytes, where: str):
    """The JSON document in `raw`, read from outside the program; bytes that
    are not JSON, and the NaN and infinities Python's reader would accept,
    raise ConfigError."""
    try:
        return json.loads(raw, parse_constant=_refuse_constant)
    except ValueError as exc:  # undecodable bytes, not JSON, or a non-finite number
        raise ConfigError(f"{where} is not valid JSON: {exc}") from exc


def _int(value) -> int:
    """An integer: booleans, text and numbers with a fractional part are refused."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _take(doc: dict, where: str, required: dict, optional: dict | None = None):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    optional = optional or {}
    unknown = set(doc) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in {where}")
    missing = set(required) - set(doc)
    if missing:
        raise ConfigError(f"missing key '{sorted(missing)[0]}' in {where}")
    out = {}
    for key, cast in {**required, **optional}.items():
        if key in doc:
            try:
                out[key] = cast(doc[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(f"bad value for '{key}' in {where}: {exc}") from exc
    return out


def _floats(values) -> tuple[float, ...]:
    return tuple(float(x) for x in values)


def _parse_V(doc: dict, V0: float):
    kind = doc.get("kind")
    if kind == "constant":
        _take(doc, "potential.V", {"kind": str})
        return constant_V(V0)
    if kind == "clipped_quadratic":
        vals = _take(doc, "potential.V", {"kind": str},
                     {"coeff": float, "cap": float})
        del vals["kind"]
        return clipped_quadratic_V(V0, **vals)
    raise ConfigError(f"unknown potential.V kind '{kind}'")


def _parse_A(doc: dict, dim: int):
    kind = doc.get("kind")
    if kind == "zero":
        _take(doc, "potential.A", {"kind": str})
        return None
    if kind == "constant":
        vals = _take(doc, "potential.A", {"kind": str, "value": _floats})
        vec = vals["value"]
        if len(vec) != dim:
            raise ConfigError("potential.A constant value length must match N")
        return constant_A(vec)
    if kind == "sine":
        vals = _take(doc, "potential.A", {"kind": str, "amplitude": float,
                                          "wavelength": float})
        if not vals["wavelength"] > 0:
            raise ConfigError("potential.A wavelength must be positive")
        return sine_A(vals["amplitude"], vals["wavelength"], dim)
    raise ConfigError(f"unknown potential.A kind '{kind}'")


def _parse_region(doc: dict, dim: int):
    kind = doc.get("kind")
    if kind == "ball":
        vals = _take(doc, "potential.Lambda", {"kind": str, "radius": float},
                     {"center": _floats})
        center = vals.get("center", (0.0,) * dim)
        if len(center) != dim:
            raise ConfigError("potential.Lambda center length must match N")
        return BallRegion(center, vals["radius"])
    if kind == "box":
        vals = _take(doc, "potential.Lambda", {"kind": str, "lo": _floats, "hi": _floats})
        lo, hi = vals["lo"], vals["hi"]
        if len(lo) != dim or len(hi) != dim:
            raise ConfigError("potential.Lambda lo/hi length must match N")
        return BoxRegion(lo, hi)
    raise ConfigError(f"unknown potential.Lambda kind '{kind}'")


@dataclass(frozen=True)
class ParsedConfig:
    cfg: ProblemConfig
    pot: PotentialSpec
    grid: GridSpec
    opts: SolverOptions
    eps_list: tuple[float, ...]
    raw: bytes


def parse_config(source: str | Path | bytes) -> ParsedConfig:
    """Parse the single JSON config document, the file at a path or its
    bytes (kept as `raw`); unknown keys are errors."""
    raw = source if isinstance(source, bytes) else Path(source).read_bytes()
    top = _take(decode_json(raw, "config"), "config",
                {"problem": dict, "grid": dict, "potential": dict},
                {"solver": dict, "sweep": dict})

    prob = _take(top["problem"], "problem",
                 {"N": _int, "s": float, "mu": float, "q": float, "eps": float,
                  "V0": float})
    cfg = ProblemConfig(dim=prob["N"], s=prob["s"], mu=prob["mu"], q=prob["q"],
                        eps=prob["eps"], V0=prob["V0"])

    gdoc = _take(top["grid"], "grid", {"L": float, "M": _int})
    try:
        grid = GridSpec(L=gdoc["L"], M=gdoc["M"], dim=cfg.dim)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc

    pdoc = _take(top["potential"], "potential", {"V": dict, "Lambda": dict},
                 {"A": dict})
    V = _parse_V(pdoc["V"], cfg.V0)
    A = _parse_A(pdoc["A"], cfg.dim) if "A" in pdoc else None
    region = _parse_region(pdoc["Lambda"], cfg.dim)
    pot = PotentialSpec(V=V, A=A, region=region)

    odoc = _take(top.get("solver", {}), "solver", {},
                 {"max_iters": _int, "grad_tol": float, "seed": _int})
    try:
        opts = SolverOptions(**odoc)
    except ValueError as exc:
        raise ConfigError(f"bad solver options: {exc}") from exc

    sdoc = _take(top.get("sweep", {}), "sweep", {}, {"eps_list": _floats})
    eps_list = sdoc.get("eps_list", ())
    if not all(0 < e < math.inf for e in eps_list) \
            or any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ConfigError("sweep.eps_list must be positive, finite and strictly descending")
    return ParsedConfig(cfg, pot, grid, opts, eps_list, raw)


# ----------------------------------------------------------------- reports

def sanitize_json(obj):
    """Make a record JSON-safe: a dataclass becomes its dict, and every float
    is finite or the string 'nan'/'inf'/'-inf'."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, dict):
        return {str(k): sanitize_json(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize_json(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "nan" if math.isnan(obj) else "inf" if obj > 0 else "-inf"
    return obj


def to_json(doc, indent: int | None = None) -> str:
    """Strict JSON of `sanitize_json(doc)`: the one encoder of reports,
    summaries, manifests, sidecars and the CLI's stdout lines."""
    return json.dumps(sanitize_json(doc), indent=indent, allow_nan=False)


def write_report(path, report):
    _atomic_write_json(Path(path), report)


# ----------------------------------------------------------------- manifest

def config_hash(raw: bytes) -> str:
    return sha256(raw).hexdigest()


def write_run(out_dir, parsed: ParsedConfig, names: list[str], started: datetime):
    """Store the resolved config and the manifest listing it and `names`, the
    files already written under out_dir, for a run begun at `started`."""
    out = Path(out_dir)
    _atomic_write_bytes(out / "config.json", parsed.raw)
    _atomic_write_json(out / "manifest.json", {
        "config_hash": config_hash(parsed.raw),
        "seed": parsed.opts.seed,
        "created_utc": started.isoformat(),
        "finished_utc": datetime.now(timezone.utc).isoformat(),
        "artifacts": ["config.json", *sorted(names)],
        "tool_version": __version__,
    })
