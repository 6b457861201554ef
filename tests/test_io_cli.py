import json
import hashlib
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import choquard
import choquard.cli as cli
from choquard import (ConfigError, Field, GridSpec, QuadratureOperator, load_field,
                      parse_config, save_field, sine_A)
from choquard.cli import main
from choquard.io import decode_json, sanitize_json


BASE_CONFIG = {
    "problem": {"N": 1, "s": 0.6, "mu": 0.5, "q": 3.0, "eps": 0.5, "V0": 1.0},
    "grid": {"L": 12.0, "M": 96},
    "potential": {
        "V": {"kind": "clipped_quadratic", "coeff": 1.0, "cap": 4.0},
        "A": {"kind": "zero"},
        "Lambda": {"kind": "ball", "radius": 1.0},
    },
    "solver": {"max_iters": 3000, "grad_tol": 1e-6, "seed": 7},
}


def write_config(tmp_path, doc=None, **problem_overrides):
    doc = json.loads(json.dumps(doc or BASE_CONFIG))
    doc["problem"].update(problem_overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(doc))
    return p


# ------------------------------------------------------------- field storage

def test_field_roundtrip_bitwise(tmp_path):
    grid = GridSpec(L=8.0, M=32, dim=2)
    rng = np.random.default_rng(0)
    u = Field(rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape), grid)
    path = tmp_path / "u.f64"
    save_field(path, u, s=0.6, mu=0.5, eps=0.5)
    back, meta = load_field(path)
    assert np.array_equal(back.values, u.values)  # bitwise identity
    assert meta["dims"] == [32, 32]
    assert back.grid == grid


def test_save_field_returns_the_names_it_wrote(tmp_path):
    grid = GridSpec(L=8.0, M=16, dim=1)
    names = save_field(tmp_path / "u.f64", Field(np.ones(16), grid), s=0.5, mu=0.4, eps=1.0)
    assert names == ["u.f64", "u.f64.meta.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_version_is_the_project_version():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert choquard.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]


def test_field_roundtrip_keeps_signed_zeros(tmp_path):
    grid = GridSpec(L=8.0, M=8, dim=1)
    vals = np.empty(grid.shape, dtype=complex)
    vals.real = [0.0, -0.0, 1.0, -0.0, 0.0, -2.0, -0.0, 0.5]
    vals.imag = [-0.0, 0.0, -0.0, 1.0, -0.0, -0.0, 0.0, 3.0]
    path = tmp_path / "u.f64"
    save_field(path, Field(vals, grid), s=0.6, mu=0.5, eps=0.5)
    back, _ = load_field(path)
    assert back.values.tobytes() == vals.tobytes()


def test_field_payload_bytes(tmp_path):
    # interleaved little-endian binary64 (re, im), row-major; a real field
    # stores +0.0 imaginary parts
    grid = GridSpec(L=8.0, M=8, dim=2)
    vals = np.arange(64.0).reshape(grid.shape)
    vals[0, 0] = -0.0
    path = tmp_path / "u.f64"
    save_field(path, Field(vals, grid), s=0.6, mu=0.5, eps=0.5)
    pairs = [(-0.0, 0.0)] + [(float(k), 0.0) for k in range(1, 64)]
    assert path.read_bytes() == struct.pack("<128d", *[x for p in pairs for x in p])


def test_field_truncated_payload(tmp_path):
    grid = GridSpec(L=8.0, M=16, dim=1)
    path = tmp_path / "u.f64"
    save_field(path, Field(np.ones(16), grid), s=0.5, mu=0.4, eps=1.0)
    payload = path.read_bytes()
    path.write_bytes(payload[:-8])
    with pytest.raises(ConfigError, match="unexpected end of field data"):
        load_field(path)


def test_field_checksum_mismatch(tmp_path):
    grid = GridSpec(L=8.0, M=16, dim=1)
    path = tmp_path / "u.f64"
    save_field(path, Field(np.ones(16), grid), s=0.5, mu=0.4, eps=1.0)
    payload = bytearray(path.read_bytes())
    payload[3] ^= 0xFF
    path.write_bytes(bytes(payload))
    with pytest.raises(ConfigError, match="checksum mismatch"):
        load_field(path)


@pytest.mark.parametrize("verb", ["check", "export"])
def test_cli_non_finite_payload_exits_1(tmp_path, capsys, verb):
    # one NaN sample under a matching digest is a config fault, not a traceback
    grid = GridSpec(L=8.0, M=16, dim=1)
    path = tmp_path / "u.f64"
    save_field(path, Field(np.ones(16), grid), s=0.5, mu=0.4, eps=1.0)
    vals = np.ones(16, dtype="<c16")
    vals[5] = np.nan
    path.write_bytes(vals.tobytes())
    meta_path = tmp_path / "u.f64.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["sha256"] = hashlib.sha256(vals.tobytes()).hexdigest()
    meta_path.write_text(json.dumps(meta))
    argv = ["--name", "decay"] if verb == "check" else ["--out", str(tmp_path / "u.csv")]
    assert main([verb, "--field", str(path), *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config invalid: field payload u.f64: field contains "
                            "non-finite values\n")
    assert not (tmp_path / "u.csv").exists()


@pytest.mark.parametrize("size", [0, 1, 16 * 1024 + 3, 512 * 1024])
def test_digest_is_hashlib_sha256(size):
    # the interpreter's built-in SHA-256 that choquard.io takes in place of
    # hashlib: the same digest, so stored sidecars and config hashes stay valid
    from choquard.io import sha256
    payload = bytes(np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8))
    assert sha256(payload).hexdigest() == hashlib.sha256(payload).hexdigest()


def test_field_with_hashlib_digest_loads(tmp_path):
    # a field stored by a version that took its digest from hashlib: the
    # payload and a sidecar written by hand, not by save_field
    grid = GridSpec(L=8.0, M=8, dim=2)
    vals = np.arange(64.0).reshape(grid.shape) * (1 - 0.5j)
    payload = vals.astype("<c16").tobytes()
    (tmp_path / "u.f64").write_bytes(payload)
    (tmp_path / "u.f64.meta.json").write_text(json.dumps({
        "dims": [8, 8], "L": 8.0, "s": 0.6, "mu": 0.5, "eps": 0.5,
        "phase_gauge": "argmax-real-positive",
        "sha256": hashlib.sha256(payload).hexdigest()}))
    back, meta = load_field(tmp_path / "u.f64")
    assert back.values.tobytes() == vals.tobytes() and back.grid == grid
    save_field(tmp_path / "v.f64", back, s=0.6, mu=0.5, eps=0.5)
    assert json.loads((tmp_path / "v.f64.meta.json").read_text())["sha256"] == meta["sha256"]


def test_field_dims_disagree(tmp_path):
    grid = GridSpec(L=8.0, M=16, dim=1)
    path = tmp_path / "u.f64"
    save_field(path, Field(np.ones(16), grid), s=0.5, mu=0.4, eps=1.0)
    meta_path = tmp_path / "u.f64.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["dims"] = [32]
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ConfigError):
        load_field(path)


def _long_payload(path, meta):
    payload = path.read_bytes() + bytes(16)
    path.write_bytes(payload)
    return {**meta, "sha256": hashlib.sha256(payload).hexdigest()}


@pytest.mark.parametrize("fault, message", [
    (lambda path, meta: None, "missing field sidecar u.f64.meta.json"),
    (lambda path, meta: {**meta, "dims": [16, 8]},
     "field sidecar dims must be equal per axis"),
    (_long_payload, "field payload longer than sidecar dims imply"),
], ids=["no_sidecar", "unequal_dims", "long_payload"])
def test_load_field_refusals(tmp_path, fault, message):
    grid = GridSpec(L=8.0, M=16, dim=2)
    path = tmp_path / "u.f64"
    save_field(path, Field(np.ones(grid.shape), grid), s=0.5, mu=0.4, eps=1.0)
    meta_path = tmp_path / "u.f64.meta.json"
    meta = fault(path, json.loads(meta_path.read_text()))
    if meta is None:
        meta_path.unlink()
    else:
        meta_path.write_text(json.dumps(meta))
    with pytest.raises(ConfigError, match=message):
        load_field(path)


# ------------------------------------------------------------- config parsing

def test_parse_config_happy(tmp_path):
    parsed = parse_config(write_config(tmp_path))
    assert parsed.cfg.dim == 1 and parsed.cfg.s == 0.6
    assert parsed.opts.seed == 7
    assert parsed.grid.M == 96


def test_parse_config_constant_potentials_and_box_region():
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["problem"]["N"] = 2
    doc["grid"]["M"] = 16
    doc["potential"] = {"V": {"kind": "constant"},
                        "A": {"kind": "constant", "value": [0.3, -0.2]},
                        "Lambda": {"kind": "box", "lo": [-1.0, -0.5], "hi": [1.0, 0.5]}}
    pot = parse_config(json.dumps(doc).encode()).pot
    pts = np.array([[0.0, 0.0], [0.9, 0.4], [0.0, 0.6], [-1.2, 0.0]])
    assert np.array_equal(pot.V(pts), np.full(4, BASE_CONFIG["problem"]["V0"]))
    assert np.array_equal(pot.A(pts), np.tile([0.3, -0.2], (4, 1)))
    assert pot.region.contains(pts).tolist() == [True, True, False, False]


def test_parse_config_unknown_key_named(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["problem"]["mystery"] = 1
    with pytest.raises(ConfigError, match="mystery"):
        parse_config(write_config(tmp_path, doc))
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["extra_top"] = {}
    with pytest.raises(ConfigError, match="extra_top"):
        parse_config(write_config(tmp_path, doc))


def test_parse_config_missing_key(tmp_path):
    doc = json.loads(json.dumps(BASE_CONFIG))
    del doc["problem"]["V0"]
    with pytest.raises(ConfigError, match="V0"):
        parse_config(write_config(tmp_path, doc))


@pytest.mark.parametrize("path, value", [
    ((), 3),
    (("grid", "M"), 97),
    (("grid", "M"), 4),
    (("grid", "L"), 0),
    (("problem", "N"), 4),
    (("potential", "Lambda", "center"), ["x"]),
    (("potential", "A"), {"kind": "constant", "value": ["x"]}),
    (("solver", "grad_tol"), 0),
    (("solver", "seed"), -1),
    (("grid", "M"), 64.7),
    (("grid", "M"), "96"),
    (("problem", "N"), True),
    (("solver", "seed"), 2.9),
    (("solver", "max_iters"), 0),
    (("solver", "max_iters"), 10.5),
    (("potential", "Lambda", "center"), [0.0, 0.0]),
    (("potential", "Lambda"), {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0]}),
    (("potential", "Lambda"), {"kind": "box", "lo": [-1.0], "hi": [1.0, 1.0]}),
    (("potential", "A"), {"kind": "constant", "value": [0.1, 0.2]}),
    (("potential", "A"), {"kind": "sine", "amplitude": 0.5, "wavelength": 0.0}),
    (("potential", "A"), {"kind": "sine", "amplitude": 0.5, "wavelength": -4.0}),
], ids=["top_level_int", "M_odd", "M_small", "L_zero", "N_4", "center_text",
        "A_value_text", "grad_tol_zero", "seed_negative", "M_fractional", "M_text",
        "N_bool", "seed_fractional", "max_iters_zero", "max_iters_fractional",
        "center_length", "box_lo_length", "box_hi_length", "A_value_length",
        "wavelength_zero", "wavelength_negative"])
def test_parse_config_malformed_values_are_config_errors(path, value):
    doc = json.loads(json.dumps(BASE_CONFIG))
    if not path:
        doc = value
    else:
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    with pytest.raises(ConfigError):
        parse_config(json.dumps(doc).encode())


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 20, 10 ** 20)
    | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


def _sections(node, path=()):
    """Paths of every JSON object in the document, the root included."""
    yield path
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _sections(value, path + (key,))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_parse_config_raises_only_config_error(data):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["sweep"] = {"eps_list": [0.5, 0.25]}
    for _ in range(data.draw(st.integers(1, 3))):
        sections = list(_sections(doc))
        node = doc
        for key in data.draw(st.sampled_from(sections)):
            node = node[key]
        keys = sorted(node) + ["extra"]
        key = data.draw(st.sampled_from(keys))
        if data.draw(st.booleans()) and key in node:
            del node[key]
        else:
            node[key] = data.draw(_JSON_VALUES)
    try:
        parse_config(json.dumps(doc).encode())
    except Exception as exc:
        assert type(exc) is ConfigError, repr(exc)


def test_sanitize_nonfinite():
    doc = sanitize_json({"a": float("nan"), "b": float("inf"),
                         "c": float("-inf"), "d": 1.5, "e": np.float64(2.0)})
    assert doc == {"a": "nan", "b": "inf", "c": "-inf", "d": 1.5, "e": 2.0}
    json.dumps(doc, allow_nan=False)  # strict JSON


# --------------------------------------------------------------------- CLI

def test_cli_solve_writes_artifacts_and_stable_hash(tmp_path):
    cfg = write_config(tmp_path)
    out1 = tmp_path / "run1"
    assert main(["solve", "--config", str(cfg), "--out", str(out1)]) == 0
    for name in ("u.f64", "u.f64.meta.json", "report.json", "manifest.json",
                 "config.json"):
        assert (out1 / name).exists(), name
    manifest = json.loads((out1 / "manifest.json").read_text())
    stored = (out1 / "config.json").read_bytes()
    assert manifest["config_hash"] == hashlib.sha256(stored).hexdigest()
    assert set(manifest["artifacts"]) >= {"config.json", "u.f64", "report.json"}
    report = json.loads((out1 / "report.json").read_text())
    assert report["converged"] is True

    out2 = tmp_path / "run2"
    assert main(["solve", "--config", str(cfg), "--out", str(out2)]) == 0
    manifest2 = json.loads((out2 / "manifest.json").read_text())
    assert manifest2["config_hash"] == manifest["config_hash"]


def test_cli_solve_warns_on_invalid_penalization(tmp_path, capsys):
    # the base config ends with |u| outside the region above the threshold:
    # exit 0, a warning on stderr and in the report, calibration inputs kept
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["valid_penalization"] is False
    assert any(w.startswith("invalid penalization") for w in report["warnings"])
    assert "invalid penalization" in capsys.readouterr().err
    cal = report["calibration"]
    assert cal["C0"] > 0 and report["spectrum_clip"] == 0.0
    assert cal["samples_used"] + cal["samples_skipped"] == 50
    trials = sum(backtracks + 1 for _, _, backtracks, _, _ in report["steps"])
    assert trials >= report["iterations"]
    assert 0 < report["nehari_projections"] <= trials + 1


def test_descent_histories_roundtrip_report_and_sweep(tmp_path):
    # report.json and sweep.json hold the histories of the in-process solves
    # at the same seed, one entry per step (J also at the start)
    from choquard import solve_penalized, sweep_epsilon
    cfg = write_config(tmp_path)
    parsed = parse_config(cfg)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
                 "--eps-list", "0.5,0.25"]) == 0
    _, rep = solve_penalized(parsed.cfg, parsed.pot, parsed.grid, parsed.opts)
    reps = sweep_epsilon(parsed.cfg, parsed.pot, parsed.grid, [0.5, 0.25], parsed.opts)
    written = [json.loads((tmp_path / "run" / "report.json").read_text())]
    written += json.loads((tmp_path / "sw" / "sweep.json").read_text())["reports"]
    for doc, r in zip(written, [rep, *reps], strict=True):
        assert doc["energy_history"] == list(r.energy_history)
        assert doc["steps"] == [list(step) for step in r.steps]
        assert len(doc["energy_history"]) == doc["iterations"] + 1
        assert len(doc["steps"]) == doc["iterations"]


def test_readme_names_every_report_key(tmp_path):
    # every key of the 1-D base solve's report.json, the fields of its
    # calibration and of a steps row, and the work counts that follow from
    # the steps are named in README
    from choquard.solver import Step
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert len(report) == 27
    names = [*report, *report["timings"], *report["calibration"],
             *report["calibration"]["pen"], *Step._fields,
             "line_search_trials", "operator_passes", "short_steps"]
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert [name for name in names if f"`{name}`" not in readme] == []


def test_readme_library_example_runs(capsys):
    # README's one python block, run as written, so that a renamed export or
    # a changed signature fails here: it prints V(eps x_eps) per swept eps
    # and c_eps / c_V0 at the last
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [block] = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    V_at_max, ratio = capsys.readouterr().out.rsplit("] ", 1)
    assert len(json.loads(V_at_max + "]")) == 3 and float(ratio) > 0


def test_cli_mu_at_2s_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, mu=1.2)  # mu == 2s
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "mu must lie in (0, 2s)" in err


def test_cli_solve_warns_once_per_warning(tmp_path, capsys):
    # N = 1 <= 2s: the q upper bound is skipped and the theory does not apply,
    # each said once, with the eps of the solve
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    err = capsys.readouterr().err
    assert err.count("outside theory hypotheses") == 1
    assert "warning: eps=0.5: q upper bound skipped (N <= 2s)\n" in err


def test_cli_sweep_and_limit_check_only_what_they_solve(tmp_path, capsys):
    # at problem.eps = 0.05 the region leaves the box, but the sweep never
    # solves that eps and the limit problem reads no region
    cfg = write_config(tmp_path, eps=0.05)
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw"),
                 "--eps-list", "0.5,0.25"]) == 0
    assert main(["limit", "--config", str(cfg), "--out", str(tmp_path / "lim")]) == 0
    assert "config invalid" not in capsys.readouterr().err


def test_cli_limit_ignores_magnetic_potential(tmp_path, capsys, monkeypatch):
    # the magnetic grid that `solve` refuses (pair weights past the storage
    # limit): the limit problem has A = 0 and runs on the spectral backend
    def assembled(self):
        raise AssertionError("the operator was assembled")
    monkeypatch.setattr(QuadratureOperator, "__post_init__", assembled)
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["problem"].update(N=3, s=0.75)
    doc["grid"] = {"L": 12.0, "M": 32}
    doc["potential"]["A"] = {"kind": "sine", "amplitude": 0.5, "wavelength": 4.0}
    assert main(["limit", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(tmp_path / "lim")]) == 0
    assert json.loads(capsys.readouterr().out)["c_V0"] > 0


def test_cli_sweep_refuses_scalar_fault_before_writing(tmp_path, capsys):
    cfg = write_config(tmp_path, mu=1.2)  # mu == 2s
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--eps-list", "0.5,0.25"]) == 1
    assert capsys.readouterr().err.startswith("config invalid: mu must lie in (0, 2s)\n")
    assert not out.exists()


def test_cli_sweep_refused_eps_is_a_failed_entry(tmp_path, capsys):
    # eps = 0.05 blows the region out of the box: that entry fails, exit 2
    cfg = write_config(tmp_path)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--eps-list", "0.5,0.05"]) == 2
    reports = json.loads((out / "sweep.json").read_text())["reports"]
    assert reports[0]["converged"] and not reports[1]["converged"]
    assert "penalization region leaves domain" in reports[1]["error"]


def test_cli_check_diamagnetic_and_decay(tmp_path, capsys):
    grid = GridSpec(L=20.0, M=128, dim=1)
    r = np.abs(grid.axis())
    u = Field(1.0 / (1.0 + r ** 2.2), grid)
    path = tmp_path / "u.f64"
    save_field(path, u, s=0.6, mu=0.5, eps=0.25)
    assert main(["check", "--field", str(path), "--name", "diamagnetic"]) == 0
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert doc["name"] == "diamagnetic" and doc["passed"] is True
    assert doc["context"]["A"] == "zero" and "warning" in captured.err
    assert main(["check", "--field", str(path), "--name", "decay"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["name"] == "decay"


def test_cli_check_diamagnetic_uses_run_potential(tmp_path, capsys):
    grid = GridSpec(L=8.0, M=64, dim=1)
    x = grid.axis()
    u = Field(np.exp(-x ** 2 / 4) * np.exp(1j * 0.7 * x), grid)
    eps = 0.5
    save_field(tmp_path / "u.f64", u, s=0.6, mu=0.5, eps=eps)
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["potential"]["A"] = {"kind": "sine", "amplitude": 0.8, "wavelength": 3.0}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["check", "--field", str(tmp_path / "u.f64"),
                 "--name", "diamagnetic"]) == 0
    out = json.loads(capsys.readouterr().out)
    A = sine_A(0.8, 3.0, 1)
    expected = QuadratureOperator(grid, 0.6, lambda p: A(eps * np.asarray(p))
                                  ).seminorm_sq(u.values)
    assert out["passed"] is True and out["context"]["A"] == "sine"
    assert out["rhs"] == expected
    assert abs(out["rhs"] - QuadratureOperator(grid, 0.6, None).seminorm_sq(u.values)) \
        > 1e-6 * expected


def test_cli_check_refuses_run_config_of_another_dimension(tmp_path, capsys):
    grid = GridSpec(L=8.0, M=16, dim=2)
    save_field(tmp_path / "u.f64", Field(np.ones(grid.shape), grid), s=0.6, mu=0.5,
               eps=0.5)
    (tmp_path / "config.json").write_text(json.dumps(BASE_CONFIG))
    assert main(["check", "--field", str(tmp_path / "u.f64"),
                 "--name", "diamagnetic"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"config invalid: {tmp_path / 'config.json'} has N = 1, "
                            "the field has 2 dimensions\n")
    assert captured.out == ""


def test_cli_check_unknown_name(tmp_path, capsys):
    grid = GridSpec(L=8.0, M=16, dim=1)
    path = tmp_path / "u.f64"
    save_field(path, Field(np.ones(16), grid), s=0.5, mu=0.4, eps=1.0)
    cfg = str(write_config(tmp_path))
    assert main(["check", "--field", str(path), "--name", "bogus"]) == 1
    assert main(["check", "--field", str(path), "--name", "hls"]) == 1
    assert main(["check", "--field", str(path), "--name", "hls", "--config", cfg]) == 1
    assert main(["check", "--field", str(path), "--name", "decay", "--config", cfg]) == 1
    assert capsys.readouterr().out == ""


def test_cli_export_axis_csv(tmp_path):
    # a complex 2-D field peaked off the centre: row i holds x_i and |u| at
    # (i, argmax[1]), each sample's abs taken alone, byte for byte
    grid = GridSpec(L=6.0, M=24, dim=2)
    x, y = grid.axis()[:, None], grid.axis()[None, :]
    vals = np.exp(-(x - 1.0) ** 2 - (y + 2.0) ** 2 / 2 + 1j * (0.3 * x - 0.7 * y))
    path = tmp_path / "u.f64"
    save_field(path, Field(vals, grid), s=0.5, mu=0.4, eps=1.0)
    out = tmp_path / "u.csv"
    assert main(["export", "--field", str(path), "--out", str(out)]) == 0
    u, _ = load_field(path)
    j = u.argmax_index()[1]
    assert j != grid.M // 2
    rows = [f"{-grid.L + i * grid.h:.17g},{abs(u.values[i, j]):.17g}\r\n"
            for i in range(grid.M)]
    assert out.read_bytes() == ("x,abs_u\r\n" + "".join(rows)).encode()


def test_cli_export_radial_rows(tmp_path):
    # h = 1/2 and the radii are exact: bin k holds the two samples at
    # distance kh from the peak, one at k = 0 and at k = M/2, the far edge
    # x = -L, whose distance is the largest
    grid = GridSpec(L=4.0, M=16, dim=1)
    vals = np.exp(-grid.axis() ** 2 / 4)
    path = tmp_path / "u.f64"
    save_field(path, Field(vals, grid), s=0.5, mu=0.4, eps=1.0)
    out = tmp_path / "rad.csv"
    assert main(["export", "--field", str(path), "--out", str(out),
                 "--mode", "radial"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r_mid,mean_abs_u,count"
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    assert len(rows) == grid.M // 2 + 1
    for k, (r_mid, mean_abs_u, count) in enumerate(rows):
        assert r_mid == (k + 0.5) * grid.h
        assert count == (1 if k in (0, grid.M // 2) else 2)
        assert mean_abs_u == vals[grid.M // 2 + k if k < grid.M // 2 else 0]


def test_cli_export_modes_read_one_modulus(tmp_path):
    # a complex 1-D field whose peak is a sample where numpy's array abs of
    # the field differs from the scalar abs in the last bit: the peak's shell
    # (its one sample) in the radial CSV reads as the axis CSV at the peak
    grid = GridSpec(L=8.0, M=64, dim=1)
    rng = np.random.default_rng(5)
    vals = 0.5 * (rng.uniform(-1, 1, grid.M) + 1j * rng.uniform(-1, 1, grid.M))
    peak = 23
    for x, y in rng.uniform(1.0, 2.0, (1000, 2)):
        vals[peak] = complex(x, y)
        if np.abs(vals)[peak] != abs(vals[peak]):
            break
    else:
        pytest.skip("numpy's array abs agrees with the scalar abs here")
    path = tmp_path / "u.f64"
    save_field(path, Field(vals, grid), s=0.5, mu=0.4, eps=1.0)
    csvs = {}
    for mode in ("axis", "radial"):
        out = tmp_path / f"{mode}.csv"
        assert main(["export", "--field", str(path), "--out", str(out),
                     "--mode", mode]) == 0
        csvs[mode] = [line.split(",") for line in out.read_text().splitlines()[1:]]
    r_mid, mean_abs_u, count = csvs["radial"][0]
    assert float(r_mid) == grid.h / 2 and count == "1"
    assert mean_abs_u == csvs["axis"][peak][1] == f"{abs(vals[peak]):.17g}"


def test_cli_limit_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "lim"
    assert main(["limit", "--config", str(cfg), "--out", str(out)]) == 0
    doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert doc["c_V0"] > 0
    assert (out / "u.f64").exists() and (out / "manifest.json").exists()


def test_cli_sweep_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--eps-list", "0.5,0.25"]) == 0
    summary = json.loads((out / "sweep.json").read_text())
    assert list(summary) == ["eps_list", "reports", "concentration"]
    assert summary["concentration"] is None  # the check needs three entries
    assert summary["eps_list"] == [0.5, 0.25]
    assert len(summary["reports"]) == 2
    assert all(r["converged"] for r in summary["reports"])
    assert (out / "u_eps_0.25.f64").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == [
        "config.json", "sweep.json", "u_eps_0.25.f64", "u_eps_0.25.f64.meta.json",
        "u_eps_0.5.f64", "u_eps_0.5.f64.meta.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(
        manifest["artifacts"] + ["manifest.json"])
    assert manifest["tool_version"] == choquard.__version__


def test_cli_sweep_names_each_field_by_its_eps(tmp_path):
    # 0.2500001 and 0.25 share their `g` form: each field keeps its own file
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(write_config(tmp_path)), "--out", str(out),
                 "--eps-list", "0.5,0.2500001,0.25"]) == 0
    fields = sorted(out.glob("u_eps_*.f64"))
    assert sorted(load_field(f)[1]["eps"] for f in fields) == [0.25, 0.2500001, 0.5]
    artifacts = json.loads((out / "manifest.json").read_text())["artifacts"]
    assert len(artifacts) == len(set(artifacts)) == 2 + 2 * len(fields)


def test_cli_sweep_records_its_concentration_verdict(tmp_path):
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(write_config(tmp_path)), "--out", str(out),
                 "--eps-list", "0.5,0.25,0.125"]) == 0
    verdict = json.loads((out / "sweep.json").read_text())["concentration"]
    assert verdict["name"] == "concentration"
    assert len(verdict["context"]["gaps"]) == 3


def test_cli_stdout_is_strict_json(tmp_path, capsys):
    # every command prints one line of strict JSON; a limit on 10 points has
    # fewer than four samples on its slope shell, so its decay exponent is -inf
    cfg = str(write_config(tmp_path))
    run = tmp_path / "run"
    commands = [["limit", "--config", cfg, "--out", str(tmp_path / "coarse"), "--grid", "10"],
                ["solve", "--config", cfg, "--out", str(run)],
                ["limit", "--config", cfg, "--out", str(tmp_path / "lim")],
                ["sweep", "--config", cfg, "--out", str(tmp_path / "sw"),
                 "--eps-list", "0.5,0.25"],
                ["check", "--field", str(run / "u.f64"), "--name", "decay"]]
    lines = []
    for argv in commands:
        assert main(argv) == 0
        lines.append(capsys.readouterr().out)
        assert lines[-1].count("\n") == 1
        decode_json(lines[-1].encode(), argv[0])
    assert '"decay_exponent": "-inf"' in lines[0]


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    return err


@pytest.mark.parametrize("verb", ["solve", "limit"])
def test_cli_config_that_is_a_directory_exits_1(tmp_path, capsys, verb):
    assert main([verb, "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
    assert _one_line_error(capsys).startswith("file error: ")
    assert not (tmp_path / "o").exists()


def test_cli_export_below_a_file_exits_1(tmp_path, capsys):
    grid = GridSpec(L=8.0, M=16, dim=1)
    path = tmp_path / "u.f64"
    save_field(path, Field(np.ones(16), grid), s=0.5, mu=0.4, eps=1.0)
    out = tmp_path / "u.f64" / "u.csv"
    assert main(["export", "--field", str(path), "--out", str(out)]) == 1
    assert _one_line_error(capsys).startswith("file error: ")


@pytest.mark.parametrize("verb", ["solve", "limit", "sweep"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
def test_cli_out_that_is_a_file_is_refused_before_solving(tmp_path, capsys, monkeypatch,
                                                          verb, below):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved")
    for name in ("solve_penalized", "solve_limit", "sweep_epsilon"):
        monkeypatch.setattr(cli, name, no_solve)
    cfg = write_config(tmp_path)
    blocker = tmp_path / "taken"
    blocker.write_text("x")
    out = blocker / "run" if below else blocker
    argv = [verb, "--config", str(cfg), "--out", str(out)]
    if verb == "sweep":
        argv += ["--eps-list", "0.5,0.25"]
    before = sorted(tmp_path.rglob("*"))
    assert main(argv) == 1
    assert _one_line_error(capsys).startswith("file error: ")
    assert sorted(tmp_path.rglob("*")) == before and blocker.read_text() == "x"


@pytest.mark.parametrize("flag, value", [("--grid", "97"), ("--tol", "0"),
                                         ("--tol", "inf"), ("--tol", "nan")])
def test_cli_malformed_override_exits_1(tmp_path, capsys, flag, value):
    cfg = write_config(tmp_path)
    code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 flag, value])
    assert code == 1
    err = _one_line_error(capsys)
    assert err.startswith("config invalid:")
    if value in ("inf", "nan"):  # the override is named, not the config file
        assert flag in err and "not valid JSON" not in err


@pytest.mark.parametrize("eps_list", ["0.5,inf", "nan,0.25"])
def test_cli_sweep_non_finite_eps_list_exits_1(tmp_path, capsys, eps_list):
    cfg = write_config(tmp_path)
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--eps-list", eps_list])
    assert code == 1
    err = _one_line_error(capsys)
    assert err.startswith("config invalid: bad --eps-list:") and "not valid JSON" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("path, value", [
    (("problem", "q"), float("nan")),
    (("solver", "grad_tol"), float("inf")),
    (("potential", "A"), {"kind": "sine", "amplitude": 0.5, "wavelength": 0}),
], ids=["q_nan", "grad_tol_inf", "wavelength_zero"])
def test_cli_refuses_non_finite_numbers_and_zero_wavelength(tmp_path, capsys, path, value):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc[path[0]][path[1]] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))  # NaN and Infinity, as Python writes them
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config invalid:")
    assert not out.exists()


@pytest.mark.parametrize("verb, payload, extra", [
    ("solve", b'{"problem": ', ()),
    ("solve", b"\xff{}", ()),
    ("solve", b"[1, 2]", ("--grid", "64")),
    ("sweep", None, ("--eps-list", "a,b")),
    ("sweep", None, ("--eps-list", "0.25,0.5")),
    ("sweep", None, ("--eps-list", "0.5,0.5")),
    ("sweep", None, ("--eps-list", "0.5,-0.25")),
], ids=["malformed_json", "not_utf8", "list_with_grid", "eps_text", "eps_ascending",
        "eps_repeated", "eps_negative"])
def test_cli_input_errors_exit_1(tmp_path, capsys, verb, payload, extra):
    cfg = write_config(tmp_path)
    if payload is not None:
        cfg.write_bytes(payload)
    code = main([verb, "--config", str(cfg), "--out", str(tmp_path / "o"), *extra])
    assert code == 1
    assert capsys.readouterr().err.startswith("config invalid:")


@pytest.mark.parametrize("edit", [
    lambda meta: "{not json",
    lambda meta: "[1, 2]",
    lambda meta: json.dumps({k: v for k, v in meta.items() if k != "eps"}),
    lambda meta: json.dumps({k: v for k, v in meta.items() if k != "dims"}),
    lambda meta: json.dumps({**meta, "L": -1}),
    lambda meta: json.dumps({**meta, "dims": [16.5]}),
    lambda meta: json.dumps({**meta, "s": 1.5}),
    lambda meta: json.dumps({**meta, "s": 0.0}),
    lambda meta: json.dumps({**meta, "eps": 0.0}),
    lambda meta: json.dumps({**meta, "eps": -0.5}),
    lambda meta: json.dumps({**meta, "eps": float("inf")}),
    lambda meta: json.dumps({**meta, "mu": float("nan")}),
], ids=["not_json", "list", "no_eps", "no_dims", "L_negative", "dims_fractional",
        "s_above_1", "s_zero", "eps_zero", "eps_negative", "eps_inf", "mu_nan"])
def test_cli_check_malformed_sidecar_exits_1(tmp_path, capsys, edit):
    grid = GridSpec(L=8.0, M=16, dim=1)
    path = tmp_path / "u.f64"
    save_field(path, Field(np.exp(-grid.axis() ** 2), grid), s=0.6, mu=0.5, eps=0.5)
    meta_path = tmp_path / "u.f64.meta.json"
    meta_path.write_text(edit(json.loads(meta_path.read_text())))
    assert main(["check", "--field", str(path), "--name", "decay"]) == 1
    assert capsys.readouterr().err.startswith("config invalid:")


def test_cli_refuses_magnetic_grid_past_pair_storage_limit(tmp_path, capsys, monkeypatch):
    # 3-D M=32 with A: 32768 points, whose pair weights could need 8 GiB
    def assembled(self):
        raise AssertionError("the operator was assembled")
    monkeypatch.setattr(QuadratureOperator, "__post_init__", assembled)
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["problem"].update(N=3, s=0.75)
    doc["grid"] = {"L": 12.0, "M": 32}
    doc["potential"]["A"] = {"kind": "sine", "amplitude": 0.5, "wavelength": 4.0}
    out = tmp_path / "o"
    assert main(["solve", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(
        "config invalid: magnetic pair weights need up to 8192 MB, over the 1024 MB limit\n")
    assert err.count("magnetic pair weights need") == 1
    assert not out.exists()


def test_cli_check_refuses_magnetic_grid_past_pair_storage_limit(tmp_path, capsys,
                                                                monkeypatch):
    # the run of the test above, stored: check --name diamagnetic would
    # assemble the same 32768-point magnetic operator that solve refuses
    def assembled(self):
        raise AssertionError("the operator was assembled")
    monkeypatch.setattr(QuadratureOperator, "__post_init__", assembled)
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["problem"].update(N=3, s=0.75)
    doc["grid"] = {"L": 12.0, "M": 32}
    doc["potential"]["A"] = {"kind": "sine", "amplitude": 0.5, "wavelength": 4.0}
    (tmp_path / "config.json").write_text(json.dumps(doc))
    grid = GridSpec(L=12.0, M=32, dim=3)
    save_field(tmp_path / "u.f64", Field(np.ones(grid.shape), grid), s=0.75, mu=0.5,
               eps=0.5)
    assert main(["check", "--field", str(tmp_path / "u.f64"),
                 "--name", "diamagnetic"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("config invalid: magnetic pair weights need up to 8192 MB, "
                            "over the 1024 MB limit\n")
    assert captured.out == ""


@pytest.mark.parametrize("A", [{"kind": "zero"},
                               {"kind": "sine", "amplitude": 0.5, "wavelength": 4.0}],
                         ids=["spectral", "magnetic"])
def test_cli_report_records_pair_weight_storage(tmp_path, A):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["potential"]["A"] = A
    out = tmp_path / "o"
    assert main(["solve", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out)]) == 0
    rep = json.loads((out / "report.json").read_text())
    expected = 0.0
    if A["kind"] == "sine":
        op = QuadratureOperator(GridSpec(L=12.0, M=96, dim=1), 0.6, sine_A(0.5, 4.0, 1))
        expected = op.pair_weights_mb
        assert expected > 0
    assert rep["pair_weights_mb"] == expected


def test_cli_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1


def test_report_to_dict_json_safe():
    from choquard.solver import SolveReport
    rep = SolveReport(c_eps=float("nan"), x_eps=(), x_eps_index=(),
                      V_at_max=float("inf"), valid_penalization=False,
                      decay_exponent=float("-inf"), Cfit=1.0, iterations=0,
                      residual=0.0, converged=False, nehari_residual=0.0,
                      sup_norm=0.0, boundary_ratio=0.0, eps=0.1, seed=0,
                      backend="")
    doc = sanitize_json(rep)
    assert doc["c_eps"] == "nan" and doc["V_at_max"] == "inf"
    assert doc["decay_exponent"] == "-inf"
    json.dumps(doc, allow_nan=False)


def test_cli_reports_carry_phase_timings(tmp_path):
    from choquard.solver import PHASES
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["sweep"] = {"eps_list": [0.5, 0.25]}
    cfg = write_config(tmp_path, doc)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "solve")]) == 0
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sweep")]) == 0
    report = json.loads((tmp_path / "solve" / "report.json").read_text())
    summary = json.loads((tmp_path / "sweep" / "sweep.json").read_text())
    for rep in [report] + summary["reports"]:
        assert list(rep["timings"]) == list(PHASES)
        assert all(t >= 0 for t in rep["timings"].values())


def test_cli_solve_blow_up_exits_2(tmp_path, capsys, monkeypatch):
    # an operator image with an inf, and the seminorm the calibration takes
    # without an image (Parseval on the spectral backend) blown up the same
    # way, fail the calibration's projection
    from choquard import SpectralOperator, quadratic_form
    apply = SpectralOperator.apply

    def blown(self, u):
        out = apply(self, u)
        out[np.unravel_index(np.argmax(np.abs(u)), u.shape)] = np.inf
        return out
    monkeypatch.setattr(SpectralOperator, "apply", blown)
    monkeypatch.setattr(SpectralOperator, "seminorm_sq",
                        lambda self, u: quadratic_form(self.grid, u, blown(self, u)))
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "solver failed: calibration" in capsys.readouterr().err


def test_cli_failure_without_an_iterate_writes_its_report(tmp_path, capsys, monkeypatch):
    # a calibration whose bump ray has no Nehari point fails before any
    # iterate exists: the run still leaves its report and manifest, no field
    import choquard.solver as solver
    from choquard import NehariError

    def no_point(ctx, **kwargs):
        raise NehariError("ray has no Nehari point")
    monkeypatch.setattr(solver, "calibrate_penalization", no_point)
    out = tmp_path / "run"
    cfg = write_config(tmp_path)
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert "solver failed: calibration: ray has no Nehari point" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["error"] == "calibration: ray has no Nehari point"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["config.json", "report.json"]
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "manifest.json",
                                                     "report.json"]


def _assert_three_steps_kept(report):
    """A failed record keeps what its descent did, as a converged one does:
    its 3 steps, J at the start and after each, and every projection."""
    assert report["iterations"] == len(report["steps"]) == 3
    assert len(report["energy_history"]) == 4
    assert report["nehari_projections"] >= 4


@pytest.mark.parametrize("verb", ["solve", "limit"])
def test_cli_unconverged_solve_writes_iterate(tmp_path, capsys, verb):
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["solver"]["max_iters"] = 3
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert main([verb, "--config", str(cfg), "--out", str(out)]) == 2
    assert "solver failed: no convergence in 3 iterations" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["converged"] is False
    assert report["error"].startswith("no convergence")
    assert report["decay_status"] == "inconclusive"  # no tail was fitted
    assert report["c_eps"] == "nan" and report["timings"] == {}
    _assert_three_steps_kept(report)
    u, meta = load_field(out / "u.f64")  # the checksum of the sidecar holds
    assert u.sup_norm() > 0
    assert meta["eps"] == (BASE_CONFIG["problem"]["eps"] if verb == "solve" else 1.0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["artifacts"]) >= {"u.f64", "u.f64.meta.json", "report.json"}


def test_cli_unconverged_sweep_writes_every_iterate(tmp_path, capsys):
    # no entry converges in 3 iterations: each writes its last iterate, as a
    # failed solve writes u.f64, and none claims a decay fit
    doc = json.loads(json.dumps(BASE_CONFIG))
    doc["solver"]["max_iters"] = 3
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--eps-list", "0.5,0.25"]) == 2
    assert "sweep finished with failed entries" in capsys.readouterr().err
    reports = json.loads((out / "sweep.json").read_text())["reports"]
    assert [r["converged"] for r in reports] == [False, False]
    assert [r["decay_status"] for r in reports] == ["inconclusive"] * 2
    assert all(r["error"].startswith("no convergence in 3") for r in reports)
    for r in reports:
        _assert_three_steps_kept(r)
    for eps in (0.5, 0.25):
        u, meta = load_field(out / f"u_eps_{eps:g}.f64")
        assert meta["eps"] == eps
        peak = u.values[u.argmax_index()]
        assert peak.imag == 0 and peak.real > 0  # phase-gauged
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["artifacts"] == ["config.json", "sweep.json",
                                     "u_eps_0.25.f64", "u_eps_0.25.f64.meta.json",
                                     "u_eps_0.5.f64", "u_eps_0.5.f64.meta.json"]
