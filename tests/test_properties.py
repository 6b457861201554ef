"""Property-based tests for the pure-math pieces."""

import json

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from choquard import Field, GridSpec, PowerNonlinearity, load_field, save_field
from choquard.io import sanitize_json
from choquard.nonlinearity import PenalizationParams, threshold_for, G_eval, g_eval


@settings(max_examples=60, deadline=None)
@given(q=st.floats(2.05, 8.0), ell0=st.floats(0.1, 1e3), V0=st.floats(1e-3, 1e2))
def test_threshold_closed_form(q, ell0, V0):
    # f(a) = V0/ell0 exactly for the power model
    nl = PowerNonlinearity(q)
    a = threshold_for(ell0, V0, q)
    assert float(nl.f(a)) == np.float64(V0 / ell0) or \
        abs(float(nl.f(a)) - V0 / ell0) < 1e-12 * (V0 / ell0)


@settings(max_examples=60, deadline=None)
@given(q=st.floats(2.05, 8.0), t=st.floats(0.0, 1e4), inside=st.booleans())
def test_G_between_zero_and_gt(q, t, inside):
    nl = PowerNonlinearity(q)
    pen = PenalizationParams(ell0=8.0, a=threshold_for(8.0, 1.0, q), V0=1.0)
    G = float(G_eval(t, inside, nl, pen))
    g = float(g_eval(t, inside, nl, pen))
    assert G >= 0
    assert G <= g * t * (1 + 1e-12) + 1e-300


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_field_roundtrip_random_arrays(tmp_path_factory, data):
    M = data.draw(st.sampled_from([8, 12, 16]))
    dim = data.draw(st.sampled_from([1, 2]))
    grid = GridSpec(L=4.0, M=M, dim=dim)
    re = data.draw(hnp.arrays(np.float64, grid.shape,
                              elements=st.floats(-1e12, 1e12, allow_nan=False)))
    im = data.draw(hnp.arrays(np.float64, grid.shape,
                              elements=st.floats(-1e12, 1e12, allow_nan=False)))
    u = Field(re + 1j * im, grid)
    path = tmp_path_factory.mktemp("fields") / "u.f64"
    save_field(path, u, s=0.5, mu=0.3, eps=1.0)
    back, _ = load_field(path)
    assert np.array_equal(back.values, u.values)


@settings(max_examples=60, deadline=None)
@given(x=st.floats(allow_nan=True, allow_infinity=True))
def test_sanitize_always_json_serializable(x):
    doc = sanitize_json({"v": x, "nested": [x, {"y": x}]})
    json.dumps(doc, allow_nan=False)
    if np.isnan(x):
        assert doc["v"] == "nan"
    elif np.isinf(x):
        assert doc["v"] in ("inf", "-inf")
