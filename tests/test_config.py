from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choquard import (BallRegion, BoxRegion, ConfigError, GridSpec, PotentialSpec,
                      ProblemConfig, check_problem, clipped_quadratic_V, constant_A,
                      constant_V, sine_A, validate_config)
from choquard.config import sampled_well
from choquard.operators import magnetic_on

from conftest import (mesh_magnetic_on, mesh_sampled_well, random_smooth_A, region_mask,
                      traced_peak)


def make_pot(dim, V=None, radius=1.0):
    return PotentialSpec(V=V or clipped_quadratic_V(1.0), A=None,
                         region=BallRegion((0.0,) * dim, radius))


def test_admissible_3d_example():
    cfg = ProblemConfig(dim=3, s=0.75, mu=1.0, q=2.5, eps=0.5, V0=1.0)
    grid = GridSpec(L=8.0, M=8, dim=3)
    rep = validate_config(cfg, make_pot(3), grid)
    assert rep.ok, rep.violations
    # direct arithmetic of the bound: 2(N-mu)/(N-2s) = 2*2/1.5
    assert cfg.q_upper_bound == pytest.approx(2 * (3 - 1.0) / (3 - 1.5))
    assert 2 < cfg.q < cfg.q_upper_bound


def test_mu_exceeds_2s_violation():
    cfg = ProblemConfig(dim=3, s=0.75, mu=1.6, q=2.5, eps=0.5, V0=1.0)
    grid = GridSpec(L=8.0, M=8, dim=3)
    rep = validate_config(cfg, make_pot(3), grid)
    assert any("mu must lie in (0, 2s)" in v for v in rep.violations)


def test_constant_potential_violates_well_structure():
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    grid = GridSpec(L=8.0, M=64, dim=1)
    rep = validate_config(cfg, make_pot(1, V=constant_V(1.0)), grid)
    assert any("strictly lower minimum" in v for v in rep.violations)


@pytest.mark.parametrize("change, dim, violation", [
    ({"s": 1.2}, 1, "s must lie in (0, 1)"),
    ({"eps": 0.0}, 1, "eps must be positive"),
    ({"eps": float("nan")}, 1, "eps must be positive"),
    ({"V0": 0.0}, 1, "V0 must be positive"),
    ({}, 2, "grid dimension does not match problem dimension"),
    ({"q": 2.0}, 1, "q must exceed 2"),
    ({"q": float("nan")}, 1, "q must exceed 2"),
], ids=["s_above_1", "eps_zero", "eps_nan", "V0_zero", "grid_dim", "q_2", "q_nan"])
def test_check_problem_names_each_scalar_violation(change, dim, violation):
    cfg = ProblemConfig(**{"dim": 1, "s": 0.6, "mu": 0.5, "q": 3.0, "eps": 0.5,
                           "V0": 1.0, **change})
    rep = check_problem(cfg, GridSpec(L=8.0, M=64, dim=dim))
    assert rep.violations == (violation,)


@pytest.mark.parametrize("pot, violation", [
    (make_pot(1, V=clipped_quadratic_V(0.5)),
     "V falls below the stated floor V0 on the grid"),
    (PotentialSpec(V=clipped_quadratic_V(1.0), A=None, region=BallRegion((0.05,), 0.01)),
     "penalization region contains no grid point"),
], ids=["V_below_floor", "empty_region"])
def test_validate_config_names_each_potential_violation(pot, violation):
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    rep = validate_config(cfg, pot, GridSpec(L=8.0, M=64, dim=1))
    assert rep.violations == (violation,)


def test_desk_scale_warning_flags():
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    grid = GridSpec(L=8.0, M=64, dim=1)
    rep = validate_config(cfg, make_pot(1), grid)
    assert rep.ok
    assert any("outside theory hypotheses" in w for w in rep.warnings)


def test_rescaled_grid_ball_blowup():
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    grid = GridSpec(L=8.0, M=64, dim=1)
    mask = region_mask(cfg, grid, make_pot(1))
    x = grid.axis()
    # Lambda_eps = ball of radius 1/eps = 2
    assert np.array_equal(mask, np.abs(x) < 2.0)


def test_rescaled_grid_identity_at_eps_one():
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=1.0, V0=1.0)
    grid = GridSpec(L=8.0, M=64, dim=1)
    mask = region_mask(cfg, grid, make_pot(1))
    assert np.array_equal(mask, np.abs(grid.axis()) < 1.0)


def test_rescaled_grid_region_leaves_domain():
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.1, V0=1.0)
    grid = GridSpec(L=5.0, M=64, dim=1)
    with pytest.raises(ConfigError, match="penalization region leaves domain"):
        region_mask(cfg, grid, make_pot(1))


def test_box_region_and_origin_requirement():
    cfg = ProblemConfig(dim=2, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    grid = GridSpec(L=8.0, M=16, dim=2)
    good = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                         region=BoxRegion((-1.0, -1.0), (1.0, 1.0)))
    assert validate_config(cfg, good, grid).ok
    off = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                        region=BoxRegion((0.5, 0.5), (1.5, 1.5)))
    rep = validate_config(cfg, off, grid)
    assert not rep.ok


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from([1, 2, 3]), s=st.floats(0.3, 0.95),
       mu_frac=st.floats(0.05, 0.95), q_frac=st.floats(0.05, 0.95))
def test_hls_exponent_inside_open_interval(N, s, mu_frac, q_frac):
    # For every admissible (s, mu, q) with N > 2s the pairing exponent tq
    # with t = 2N/(2N - mu) lies in (2, 2*_s), so the q range of
    # validate_config is the only HLS condition needed.
    if N <= 2 * s:
        return
    mu = mu_frac * min(2 * s, N)
    cfg = ProblemConfig(dim=N, s=s, mu=mu, q=2.0, eps=1.0, V0=1.0)
    qhi = cfg.q_upper_bound
    q = 2 + q_frac * (qhi - 2)
    if not (2 < q < qhi):
        return
    t = 2 * N / (2 * N - mu)
    assert 2 < t * q < 2 * N / (N - 2 * s)


def test_q_past_the_pairing_bound_refused_by_q_range():
    # q above (2N - mu)/(N - 2s) puts tq past 2*_s; the q range refuses it
    # with its own message and nothing else
    cfg = ProblemConfig(dim=3, s=0.75, mu=1.0, q=3.5, eps=0.5, V0=1.0)
    assert cfg.q > (2 * 3 - 1.0) / (3 - 1.5)
    rep = validate_config(cfg, make_pot(3), GridSpec(L=8.0, M=8, dim=3))
    assert not rep.ok
    assert rep.violations == ("q must lie in (2, 2(N-mu)/(N-2s)) = (2, 2.66667)",)


@settings(max_examples=40, deadline=None)
@given(e1=st.floats(0.05, 1.0), e2=st.floats(0.05, 1.0),
       data=st.data())
def test_region_mask_monotone_in_eps(e1, e2, data):
    if e1 == e2:
        return
    lo, hi = min(e1, e2), max(e1, e2)
    kind = data.draw(st.sampled_from(["ball", "box"]))
    if kind == "ball":
        region = BallRegion((0.2,), 0.7)
    else:
        region = BoxRegion((-0.4,), (0.9,))
    grid = GridSpec(L=40.0, M=64, dim=1)
    pts = grid.points()
    m_lo = region.contains(lo * pts)
    m_hi = region.contains(hi * pts)
    # smaller eps blows the region up: mask at hi is contained in mask at lo
    assert np.all(~m_hi | m_lo)


def test_region_leaves_domain_one_predicate():
    # validation and the rescaled grid flag the same boundary case
    from choquard.config import region_leaves_domain
    grid = GridSpec(L=4.0, M=32, dim=1)
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.25, V0=1.0)
    for radius, leaves in ((1.0, True), (0.99, False)):
        pot = PotentialSpec(V=clipped_quadratic_V(1.0), A=None,
                            region=BallRegion((0.0,), radius))
        assert region_leaves_domain(cfg, grid, pot) is leaves
        flagged = "penalization region leaves domain" in \
            validate_config(cfg, grid=grid, pot=pot).violations
        assert flagged is leaves
        if leaves:
            with pytest.raises(ConfigError, match="leaves domain"):
                region_mask(cfg, grid, pot)
        else:
            assert region_mask(cfg, grid, pot).any()


def _last_row_A(grid, eps):
    """A(eps x) nonzero only on the grid's last first-axis row: only the last
    chunk sees it."""
    edge = eps * (grid.L - 1.5 * grid.h)
    return lambda p: np.where(np.asarray(p)[..., :1] > edge, 1.0, 0.0) * np.ones(grid.dim)


@pytest.mark.parametrize("dim, M", [(1, 256), (1, 6000), (2, 28), (2, 96), (3, 24),
                                    (3, 32), (3, 80)],
                         ids=["1d", "1d-two-chunks", "2d", "2d-ragged", "3d-ragged",
                              "3d", "3d-row-per-chunk"])
def test_chunked_grid_callables_match_the_mesh_formula(dim, M):
    # V(eps x), the region, the boundary minimum and whether A is on: bit for
    # bit the values of the formula on the whole coordinate mesh
    grid = GridSpec(L=8.0, M=M, dim=dim)
    eps = 0.5

    def twin(p):
        p = np.asarray(p)
        return 1.0 + np.minimum(np.minimum(np.sum(p ** 2, axis=-1),
                                           np.sum((p - 1.5) ** 2, axis=-1)), 4.0)
    pots = [PotentialSpec(clipped_quadratic_V(1.0, 0.7, 3.0), None,
                          BallRegion((0.3,) * dim, 1.2)),
            PotentialSpec(twin, None, BoxRegion((-1.0,) * dim, (0.8,) * dim))]
    for pot in pots:
        got, ref = sampled_well(pot, eps, grid), mesh_sampled_well(pot, eps, grid)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        assert got[2] == ref[2]
    for A in (None, constant_A([0.0] * dim), sine_A(0.5, 4.0, dim),
              random_smooth_A(dim, grid.L, 0.4, seed=2), _last_row_A(grid, 1.0)):
        assert magnetic_on(A, grid) == mesh_magnetic_on(A, grid)
    assert magnetic_on(_last_row_A(grid, 1.0), grid)


NOT_ATTAINED = ("V is lower outside the penalization region than inside it, "
                "so the floor V0 is not attained in the region")


def test_floor_attained_only_outside_the_region_is_refused():
    # paper1d's grid: V0 = 0.6 is attained at x = 3 only, outside Lambda =
    # B(0, 1), where V >= 1; the well itself is admissible
    def twin(p):
        x = np.asarray(p)[..., 0]
        return np.minimum(np.minimum(1.0 + x ** 2, 0.6 + (x - 3.0) ** 2), 5.0)
    cfg = ProblemConfig(dim=1, s=0.75, mu=0.5, q=4.0, eps=0.5, V0=0.6)
    rep = validate_config(cfg, make_pot(1, V=twin), GridSpec(L=64.0, M=1024, dim=1))
    assert rep.violations == (NOT_ATTAINED,)


def test_floor_attained_in_the_region_is_accepted(monkeypatch):
    # the benchmark's configs at every eps they solve, and a constant V (which
    # fails only the well condition)
    import importlib.util
    import sys
    from pathlib import Path
    from choquard.io import parse_config
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    assert len(workloads.WORKLOADS) == 4
    for work in workloads.WORKLOADS.values():
        parsed = parse_config(work.config)
        for eps in parsed.eps_list or (parsed.cfg.eps,):
            cfg = replace(parsed.cfg, eps=eps)
            assert validate_config(cfg, parsed.pot, parsed.grid).ok, work.name
    cfg = ProblemConfig(dim=1, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    rep = validate_config(cfg, make_pot(1, V=constant_V(1.0)), GridSpec(L=8.0, M=64, dim=1))
    assert NOT_ATTAINED not in rep.violations and not rep.ok


def test_floor_below_every_sample_is_refused():
    # paper1d's grid: V >= 1 everywhere, so the stated V0 = 0.5 is no floor
    # of V; the least sample, V = 1 at the origin, exceeds it by far more
    # than its rise to a neighbour (3.9e-3)
    cfg = ProblemConfig(dim=1, s=0.75, mu=0.5, q=4.0, eps=0.5, V0=0.5)
    rep = validate_config(cfg, make_pot(1), GridSpec(L=64.0, M=1024, dim=1))
    assert rep.violations == ("V stays above the stated floor V0 on the grid",)


@pytest.mark.parametrize("dim", [1, 2])
def test_floor_between_samples_is_accepted(dim):
    # the well of test_V_at_max_is_V_at_the_maximum at x = 0.3 on each axis,
    # in the region between samples: no sample is V0, the least is inside,
    # and it exceeds V0 by less than its largest rise to a neighbour
    def V(p):
        return 1.0 + np.minimum(np.sum((np.asarray(p) - 0.3) ** 2, axis=-1), 4.0)
    cfg = ProblemConfig(dim=dim, s=0.6, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    grid = GridSpec(L=10.0, M=96, dim=dim)
    assert np.min(sampled_well(make_pot(dim, V=V), cfg.eps, grid)[0]) > cfg.V0 + 1e-5
    assert validate_config(cfg, make_pot(dim, V=V), grid).ok


def test_validate_config_peaks_below_a_few_fields():
    # solve3d's grid: V and the region on chunks, the mask and the boundary as
    # bytes; measured 2.5 field sizes, 12.0 with the coordinate mesh
    cfg = ProblemConfig(dim=3, s=0.75, mu=0.5, q=3.0, eps=0.5, V0=1.0)
    grid = GridSpec(L=12.0, M=32, dim=3)
    pot = make_pot(3)
    assert traced_peak(lambda: validate_config(cfg, pot, grid), 8 * grid.size) < 4
