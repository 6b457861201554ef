from dataclasses import replace

import numpy as np
import pytest

from choquard import (Field, GridSpec, ProblemConfig, QuadratureOperator,
                      SpectralOperator, build_hartree_cache, build_limit_context,
                      constant_A, frac_lap_constant, riesz_convolve, sine_A)
from choquard import operators
from choquard.operators import fourier_multiply, quadratic_form

from conftest import (brute_force_riesz, gaussian_frac_lap, gaussian_seminorm_sq,
                      random_smooth_A, riesz_kernel_table, weighted_seminorm_sq)


@pytest.fixture(scope="module")
def g128():
    return GridSpec(L=16.0, M=128, dim=1)


def random_complex_field(grid, seed, decay=True):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    if decay:
        mesh = grid.mesh()
        vals = vals * np.exp(-np.sum(mesh ** 2, axis=-1) / (grid.L / 2) ** 2)
    return Field(vals, grid)


# ------------------------------------------------------------- spectral path

def test_spectral_plane_wave_exact(g128):
    xi0 = g128.wavenumbers()[5]
    u = Field(np.exp(1j * xi0 * g128.axis()), g128)
    out = SpectralOperator(g128, 0.6).apply(u.values)
    assert np.allclose(out, np.abs(xi0) ** 1.2 * u.values, rtol=1e-12)


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 16), (3, 8)], ids=["1d", "2d", "3d"])
def test_spectral_seminorm_by_parseval_matches_quadratic_form(dim, M):
    # real and complex fields, one and a stack of three; a real field of
    # (-1)^n on the last axis puts its energy in the Nyquist column (with the
    # zero column on the leading axes), which pins the half-spectrum weights
    grid = GridSpec(L=5.0, M=M, dim=dim)
    op = SpectralOperator(grid, 0.6)
    rng = np.random.default_rng(21)
    real = rng.normal(size=(3,) + grid.shape)
    nyquist = (-1.0) ** np.arange(M) * (1.0 + rng.normal(size=grid.shape))
    for u in (real, real[0], real + 1j * rng.normal(size=real.shape),
              real[1] + 1j * real[2], nyquist, np.stack([nyquist, real[0]])):
        want = operators.quadratic_form(grid, u, op.apply(u))
        got = op.seminorm_sq(u)
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 16), (3, 8)], ids=["1d", "2d", "3d"])
def test_spectral_seminorm_bits_match_the_weighted_form(dim, M):
    # doubling |u^|^2 on the interior columns is exact, so the product with
    # |xi|^(2s) has the bits of the weighted table's product; real, complex
    # and stacked fields, with energy in the zero and Nyquist columns too
    grid = GridSpec(L=5.0, M=M, dim=dim)
    op = SpectralOperator(grid, 0.6)
    rng = np.random.default_rng(dim)
    real = rng.normal(size=(3,) + grid.shape)
    nyquist = (-1.0) ** np.arange(M) * (1.0 + rng.normal(size=grid.shape))
    for u in (real, real[0], real + 1j * rng.normal(size=real.shape),
              real[1] + 1j * real[2], nyquist, 1e-150 * real[0]):
        np.testing.assert_array_equal(op.seminorm_sq(u), weighted_seminorm_sq(op, u))


def test_spectral_constant_is_zero(g128):
    out = SpectralOperator(g128, 0.7).apply(np.ones(g128.M))
    assert np.max(np.abs(out)) < 1e-12


def test_spectral_s1_matches_five_point():
    grid = GridSpec(L=16.0, M=256, dim=1)
    x = grid.axis()
    u = np.exp(-x ** 2 / 2)
    spec = SpectralOperator(grid, 1.0).apply(u)
    fd = -(np.roll(u, -1) - 2 * u + np.roll(u, 1)) / grid.h ** 2
    assert np.max(np.abs(spec - fd)) / np.max(np.abs(spec)) < 1e-2


# ----------------------------------------------------------- quadrature path

def test_constant_A_plane_wave_factorization(g128):
    # u = e^{i c x} v with A == c: the midpoint phase cancels exactly
    c = 0.8
    x = g128.axis()
    v = np.exp(-x ** 2 / 3) * (1 + 0.2 * np.cos(x))
    w = np.exp(1j * c * x) * v
    lhs = QuadratureOperator(g128, 0.55, constant_A([c])).apply(w)
    rhs = QuadratureOperator(g128, 0.55, None).apply(v)
    assert np.max(np.abs(lhs - np.exp(1j * c * x) * rhs)) \
        < 1e-12 * np.max(np.abs(rhs))


@pytest.mark.parametrize("dim, M", [(1, 128), (2, 20), (3, 10)])
def test_affine_A_gauge_oracle(dim, M):
    # A = a + S x with S symmetric is the gradient of phi = a.x + x.S x / 2,
    # which the midpoint phases and the links difference exactly, so
    # L_A u = e^{i phi} L_0 (e^{-i phi} u)
    rng = np.random.default_rng(dim)
    grid = GridSpec(L=6.0, M=M, dim=dim)
    a = rng.normal(size=dim)
    S = rng.normal(size=(dim, dim))
    S = 0.1 * (S + S.T)
    x = grid.mesh()
    gauge = np.exp(1j * (x @ a + 0.5 * np.einsum("...i,ij,...j->...", x, S, x)))
    u = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    lhs = QuadratureOperator(grid, 0.75, lambda p: a + np.asarray(p) @ S).apply(u)
    rhs = gauge * QuadratureOperator(grid, 0.75, None).apply(gauge.conj() * u)
    assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))


def test_s_out_of_range_rejected(g128):
    with pytest.raises(ValueError):
        QuadratureOperator(g128, 1.0, None)
    with pytest.raises(ValueError):
        QuadratureOperator(g128, 0.0, None)


# ----------------------------------------------------------- gagliardo forms

def test_gagliardo_zero_field(g128):
    assert QuadratureOperator(g128, 0.5, None).seminorm_sq(np.zeros(g128.M)) == 0.0


def test_gagliardo_real_field_A_zero_equals_plain(g128):
    u = np.exp(-g128.axis() ** 2 / 4)
    val_A = QuadratureOperator(g128, 0.6, random_smooth_A(1, g128.L, 0.0, seed=0)
                               ).seminorm_sq(u.astype(complex))
    val_0 = QuadratureOperator(g128, 0.6, None).seminorm_sq(u)
    assert val_A == pytest.approx(val_0, rel=1e-14)


def test_diamagnetic_inequality_random_fields(g128):
    op_A = QuadratureOperator(g128, 0.6, random_smooth_A(1, g128.L, 0.5, seed=4))
    op_0 = QuadratureOperator(g128, 0.6, None)
    for seed in range(8):
        u = random_complex_field(g128, seed).values
        sem_A, sem_mod = op_A.seminorm_sq(u), op_0.seminorm_sq(np.abs(u))
        assert sem_mod <= sem_A * (1 + 1e-10)


def test_gauge_covariance_constant_shift(g128):
    A = random_smooth_A(1, g128.L, 0.5, seed=5)
    u = random_complex_field(g128, 3, decay=False).values
    c = 0.73
    shifted = np.exp(1j * c * g128.axis()) * u
    base = QuadratureOperator(g128, 0.6, A).seminorm_sq(u)
    moved = QuadratureOperator(g128, 0.6, lambda p, A=A: A(p) + np.array([c])
                               ).seminorm_sq(shifted)
    assert abs(base - moved) <= 1e-12 * base


@pytest.mark.parametrize("make_op", [
    lambda g: QuadratureOperator(g, 0.6, random_smooth_A(1, g.L, 0.5, seed=6)),
    lambda g: SpectralOperator(g, 0.6),
], ids=["quadrature", "spectral"])
def test_quadratic_form_consistency_and_self_adjointness(g128, make_op):
    # both operators the energy context may hold obey the same contract
    op = make_op(g128)
    u = random_complex_field(g128, 7)
    v = random_complex_field(g128, 8)
    h = g128.cell_volume()
    opu = op.apply(u.values)
    opv = op.apply(v.values)
    lhs = float(np.real(np.sum(opu * np.conj(v.values))) * h)
    rhs = float(np.real(np.sum(u.values * np.conj(opv))) * h)
    assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("make_op", [
    lambda g: QuadratureOperator(g, 0.6, random_smooth_A(1, g.L, 0.5, seed=6)),
    lambda g: QuadratureOperator(g, 0.6),
    lambda g: SpectralOperator(g, 0.6),
], ids=["magnetic", "quadrature", "spectral"])
def test_operator_interface(g128, make_op):
    # the attributes EnergyContext, the shell sampler and the report read
    op = make_op(g128)
    u = random_complex_field(g128, 9).values
    assert op.apply(u).shape == u.shape
    assert op.seminorm_sq(u) == pytest.approx(quadratic_form(g128, u, op.apply(u)),
                                              rel=1e-12)
    assert op.backend in ("quadrature", "spectral")
    assert op.pair_weights_mb >= 0.0
    assert op.A is None or callable(op.A)


def test_zero_A_stores_no_pair_weights(g128):
    # a vector potential that is zero on the grid is no magnetic potential
    op = QuadratureOperator(g128, 0.6, constant_A([0.0]))
    assert op.A is None and op.blocks == [] and op.pair_weights_mb == 0.0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the diagonal sums the kernel "
                   "only over the box, so the error off the centre does not fall with M")
def test_free_quadrature_matches_closed_form_inside():
    # (-Delta)^s e^{-x^2/4} on R over |x| <= L/2, and its seminorm
    L = 20.0
    for s in (0.3, 0.5, 0.7):
        errs = []
        for M in (256, 512):
            grid = GridSpec(L=L, M=M, dim=1)
            x = grid.axis()
            u = np.exp(-x ** 2 / 4)
            op = QuadratureOperator(grid, s, None)
            exact = gaussian_frac_lap(1, s, x ** 2)
            inner = np.abs(x) <= L / 2
            errs.append(np.max(np.abs(op.apply(u) - exact)[inner]) / np.max(np.abs(exact)))
            assert op.seminorm_sq(u) == pytest.approx(gaussian_seminorm_sq(1, s), rel=1e-3)
        assert errs[0] < 1e-3, f"s={s}: inner rel Linf {errs[0]:.2e} >= 1e-3"
        assert errs[1] < errs[0], f"s={s}: inner error did not decrease under M->2M"


# ------------------------------------------------------------------ 2D / 3D

def test_2d_identities_small():
    grid = GridSpec(L=6.0, M=16, dim=2)
    rng = np.random.default_rng(2)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    A = random_smooth_A(2, grid.L, 0.4, seed=9)
    op = QuadratureOperator(grid, 0.6, A)
    sn = op.seminorm_sq(vals)
    c = np.array([0.5, -0.3])
    mesh = grid.mesh()
    phase = np.exp(1j * np.tensordot(mesh, c, axes=([-1], [0])))
    moved = QuadratureOperator(grid, 0.6, lambda p, A=A: A(p) + c
                               ).seminorm_sq(phase * vals)
    assert abs(moved - sn) <= 1e-12 * sn


@pytest.mark.parametrize("dim, L, Ms, bound", [(2, 10.0, (48, 96), 5e-2),
                                               (3, 6.0, (8, 16), 0.15)],  # very coarse
                         ids=["2d", "3d"])
def test_free_quadrature_matches_closed_form_at_centre(dim, L, Ms, bound):
    # (-Delta)^s e^{-|x|^2/4} at x = 0 on R^N, where every pair inside the
    # cutoff lies in the box
    exact = gaussian_frac_lap(dim, 0.5, 0.0)
    errs = []
    for M in Ms:
        grid = GridSpec(L=L, M=M, dim=dim)
        u = np.exp(-np.sum(grid.mesh() ** 2, axis=-1) / 4)
        centre = QuadratureOperator(grid, 0.5, None).apply(u)[(M // 2,) * dim]
        errs.append(abs(centre - exact) / exact)
    assert max(errs) < bound
    assert errs[1] < errs[0]


def _literal_pair_weights(grid, s, A):
    """W_ij = k(x_i - x_j) e^{i A((x_i + x_j)/2).(x_i - x_j)} over all pairs,
    with k(z) = |z|^(-N-2s) for 0 < |z| <= L - h/2 and 0 elsewhere, plus the
    near-zone stencil: W2/(2N h^(N+2)) more at |z| = h, and -N W2/h^(N+2) at
    z = 0."""
    N, h = grid.dim, grid.h
    pts = grid.points()
    z = pts[:, None, :] - pts[None, :, :]
    r = np.linalg.norm(z, axis=-1)
    K = np.zeros_like(r)
    inside = (r > 0) & (r <= grid.L - h / 2)
    K[inside] = r[inside] ** (-N - 2 * s)
    w = operators.near_zone_weight(N, s, h, operators.NEAR_RADIUS[N]) / (2 * N * h ** (N + 2))
    K[np.isclose(r, h, rtol=1e-9, atol=0.0)] += w
    K[r == 0] = -2 * N * w
    mid = (pts[:, None, :] + pts[None, :, :]) / 2
    A_mid = np.asarray(A(mid.reshape(-1, N))).reshape(z.shape)
    return K * np.exp(1j * np.sum(A_mid * z, axis=-1))


@pytest.mark.parametrize("grid", [GridSpec(L=6.0, M=24, dim=2),  # 576 points
                                  GridSpec(L=4.0, M=8, dim=3)],  # 512 points
                         ids=["2d", "3d"])
def test_pair_blocks_match_literal_weights(grid, monkeypatch):
    A = random_smooth_A(grid.dim, grid.L, 0.4, seed=14)
    rng = np.random.default_rng(15)
    vals = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    expected = (_literal_pair_weights(grid, 0.6, A) @ vals.reshape(-1)).reshape(grid.shape)
    # one block holding every row, then blocks of 7 rows (the last one short)
    for budget, n_blocks in ((grid.size ** 2, 1), (7 * grid.size, -(-grid.size // 7))):
        monkeypatch.setattr(operators, "PAIR_BLOCK_PAIRS", budget)
        op = QuadratureOperator(grid, 0.6, A)
        assert len(op.blocks) == n_blocks
        got = op._pair_data(vals)
        assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("grid", [GridSpec(L=4.0, M=16, dim=1),
                                  GridSpec(L=5.0, M=12, dim=2)], ids=["1d", "2d"])
def test_kernel_evaluated_once_per_operator(grid, monkeypatch):
    # one evaluation on offsets -M..M-1 serves the row sums, and with the
    # near-zone stencil added, the spectrum of the doubled box (A = 0) and the
    # magnetic pair table on -(M-1)..M-1
    free_kernel, calls = operators._free_kernel, []

    def counted(*args):
        calls.append(1)
        return free_kernel(*args)
    monkeypatch.setattr(operators, "_free_kernel", counted)
    N, M, h = grid.dim, grid.M, grid.h
    table = free_kernel(grid, 0.6, grid.L - h / 2, np.arange(-(M - 1), M))
    # w at the 2N unit displacements, -2N w at 0
    w = operators.near_zone_weight(N, 0.6, h, operators.NEAR_RADIUS[N]) / (2 * N * h ** (N + 2))
    stencilled = table.copy()
    centre = (M - 1,) * N
    stencilled[centre] = -2 * N * w
    for a in range(N):
        for step in (-1, 1):
            stencilled[centre[:a] + (M - 1 + step,) + centre[a + 1:]] += w
    assert abs(stencilled.sum() - table.sum()) <= 1e-12 * table.sum()
    doubled = np.zeros((2 * M,) * N)
    doubled[(slice(1, None),) * N] = stencilled
    # the table the pair blocks are built from, which the operator drops
    pair_blocks, tables = QuadratureOperator._pair_blocks, []

    def captured(op, ktab):
        tables.append(ktab)
        return pair_blocks(op, ktab)
    monkeypatch.setattr(QuadratureOperator, "_pair_blocks", captured)
    for A in (None, sine_A(0.5, 4.0, N)):
        calls.clear()
        op = QuadratureOperator(grid, 0.6, A)
        assert len(calls) == 1
        if A is None:
            spectrum = operators.even_spectrum(np.fft.ifftshift(doubled))
            assert np.array_equal(op.kernel_fft, spectrum)
            assert tables == []
        else:
            [ktab] = tables
            assert np.array_equal(ktab, stencilled.reshape(-1))


def test_stored_pair_blocks_are_cut_at_the_cutoff():
    # the benchmark's magnetic2d grid: the columns past the kernel cutoff are
    # not stored, so the blocks hold well under the Hermitian upper triangle
    grid = GridSpec(L=8.0, M=28, dim=2)
    op = QuadratureOperator(grid, 0.75, sine_A(0.5, 4.0, 2))
    n = grid.size
    stored = sum(B.nbytes for _, B in op.blocks)
    assert stored <= 0.8 * 16 * n * (n + 1) / 2
    assert op.pair_weights_mb == stored / 2 ** 20


def test_quadrature_keeps_only_what_apply_reads():
    # the kernel table, A on the half-step lattice, the flat multi-indices and
    # the coordinates live only while the pair blocks are built
    for A in (None, sine_A(0.5, 4.0, 2)):
        op = QuadratureOperator(GridSpec(L=5.0, M=12, dim=2), 0.6, A)
        assert sorted(vars(op)) == ["A", "blocks", "c", "cutoff", "diag", "grid",
                                    "kernel_fft", "pair_weights_mb", "rowsums", "s"]


def _many_blocks(g):
    """The magnetic operator with five rows in each stored pair block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "PAIR_BLOCK_PAIRS", 5 * g.size)
        return QuadratureOperator(g, 0.6, random_smooth_A(2, g.L, 0.4, seed=3))


@pytest.mark.parametrize("make_op", [
    _many_blocks,
    lambda g: QuadratureOperator(g, 0.6, random_smooth_A(2, g.L, 0.4, seed=3)),
    lambda g: QuadratureOperator(g, 0.6, None),
    lambda g: SpectralOperator(g, 0.6),
], ids=["many_blocks", "dense", "free", "spectral"])
def test_stacked_pass_matches_one_pass_per_field(make_op):
    grid = GridSpec(L=6.0, M=16, dim=2)
    op = make_op(grid)
    rng = np.random.default_rng(16)
    U = rng.normal(size=(3,) + grid.shape) + 1j * rng.normal(size=(3,) + grid.shape)
    stacked = op.apply(U)
    for u, out in zip(U, stacked):
        single = op.apply(u)
        assert np.max(np.abs(out - single)) <= 1e-12 * np.max(np.abs(single))
    # the quadratic form keeps the stack axis: one value per field
    cfg = ProblemConfig(dim=2, s=0.6, mu=0.5, q=4.0, eps=1.0, V0=1.0)
    ctx = replace(build_limit_context(cfg, grid), op=op)
    for forms in (op.seminorm_sq(U), ctx.seminorm_sq(U), ctx.seminorm_sq(U, stacked)):
        assert np.shape(forms) == (3,)
        for u, form in zip(U, forms):
            assert form == pytest.approx(op.seminorm_sq(u), rel=1e-12)


def test_apply_builds_nothing(monkeypatch):
    # every constant part is assembled once: applying a magnetic operator
    # takes no exponential, however many blocks hold its pair weights
    grid = GridSpec(L=6.0, M=16, dim=2)
    A = random_smooth_A(2, grid.L, 0.4, seed=3)
    ops = [QuadratureOperator(grid, 0.6, A), _many_blocks(grid)]
    assert len(ops[1].blocks) > len(ops[0].blocks) > 1
    calls = []
    exp = np.exp

    def counted(*args, **kwargs):
        calls.append(1)
        return exp(*args, **kwargs)
    monkeypatch.setattr(np, "exp", counted)
    u = np.random.default_rng(18).normal(size=grid.shape) + 0j
    for op in ops:
        calls.clear()
        op.apply(u)
        assert len(calls) == 0


@pytest.mark.parametrize("make_op", [
    _many_blocks,
    lambda g: QuadratureOperator(g, 0.6, random_smooth_A(2, g.L, 0.4, seed=3)),
    lambda g: QuadratureOperator(g, 0.6, None),
], ids=["many_blocks", "dense", "free"])
def test_apply_bits_match_diag_minus_the_scaled_pair_sum(make_op):
    # the pair sum, with the rows below conjugated in place, is scaled and
    # subtracted in place: diag u - c h^N W u bit for bit, real and complex u,
    # single and stacked; W u from the blocks' literal products
    grid = GridSpec(L=6.0, M=16, dim=2)
    op = make_op(grid)
    rng = np.random.default_rng(19)
    for u in (rng.normal(size=grid.shape), rng.normal(size=(2,) + grid.shape)
              + 1j * rng.normal(size=(2,) + grid.shape)):
        if op.A is None:
            Wu = op._box_convolve(u)
        else:
            flat = u.reshape(-1, grid.size).T
            Wu, below = np.empty(flat.shape, dtype=complex), np.zeros(flat.shape, dtype=complex)
            for rows, B in op.blocks:
                stop = rows.start + B.shape[1]
                Wu[rows] = B @ flat[rows.start:stop]
                below[rows.stop:stop] += B[:, rows.stop - rows.start:].T @ flat[rows].conj()
            Wu = (Wu + below.conj()).T.reshape(u.shape)
        ref = op.diag * u - op.c * grid.cell_volume() * Wu
        got = op.apply(u)
        assert got.dtype == ref.dtype and got.flags.c_contiguous
        np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("A", [None, random_smooth_A(3, 4.0, 0.5, seed=3)],
                         ids=["A0", "magnetic"])
@pytest.mark.parametrize("s", [0.05, 0.1, 0.15])
def test_operator_matrix_hermitian_positive_definite(s, A):
    # for small s the near-zone weight, and so the link weight beta, is
    # negative; the assembled operator must still be a positive form
    grid = GridSpec(L=4.0, M=8, dim=3)
    n = grid.size
    # one stacked pass over the unit vectors: field k is column k
    Lmat = QuadratureOperator(grid, s, A).apply(np.eye(n).reshape((n,) + grid.shape))
    Lmat = Lmat.reshape(n, n).T
    assert np.max(np.abs(Lmat - Lmat.conj().T)) <= 1e-14 * np.max(np.abs(Lmat))
    assert np.linalg.eigvalsh(Lmat).min() > 0


@pytest.mark.parametrize("grid", [GridSpec(L=4.0, M=16, dim=1),
                                  GridSpec(L=5.0, M=12, dim=2),
                                  GridSpec(L=3.0, M=8, dim=3)],
                         ids=["1d", "2d", "3d"])
def test_fft_rowsums_match_literal_pair_sums(grid):
    # row sums sum_j k(x_i - x_j) over the cut ball, by FFT, against the pairs
    s = 0.6
    A = random_smooth_A(grid.dim, grid.L, 0.4, seed=17)
    for op in (QuadratureOperator(grid, s, None), QuadratureOperator(grid, s, A)):
        pts = grid.points()
        rr = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1)
        K = np.zeros_like(rr)
        near = (rr > 0) & (rr <= op.cutoff)
        K[near] = rr[near] ** (-grid.dim - 2 * s)
        expected = K.sum(axis=1).reshape(grid.shape)
        got = op.rowsums
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(expected)


# ------------------------------------------------- real transforms, real fields

def _multipliers(grid):
    """The three multipliers of a solve: the spectral symbol, the Riesz
    kernel spectrum and the preconditioner."""
    cfg = ProblemConfig(dim=grid.dim, s=0.75, mu=0.5, q=4.0, eps=1.0, V0=1.0)
    ctx = build_limit_context(cfg, grid)
    return {"symbol": ctx.op.mult, "riesz": ctx.hartree.kernel_spectrum,
            "precond": ctx.precond_multiplier()}


def _full_spectrum(half, M):
    """A half-spectrum multiplier that is even in each axis on the full
    spectrum: column k > M/2 is column M - k."""
    return np.concatenate([half, half[..., M // 2 - 1:0:-1]], axis=-1)


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("stack", [(), (3,)])
def test_real_route_matches_complex_transform(dim, M, stack):
    # oracle: the full complex transform of the stored half multiplier,
    # expanded by even reflection; real part kept for a real field
    grid = GridSpec(L=6.0, M=M, dim=dim)
    rng = np.random.default_rng(dim)
    u = rng.normal(size=stack + grid.shape)
    z = u + 1j * rng.normal(size=u.shape)
    axes = tuple(range(-dim, 0))
    for name, mult in _multipliers(grid).items():
        assert mult.shape == grid.shape[:-1] + (M // 2 + 1,), name
        full = _full_spectrum(mult, M)
        ref = np.real(np.fft.ifftn(full * np.fft.fftn(u, axes=axes), axes=axes))
        out = fourier_multiply(mult, u)
        assert out.dtype == np.float64 and out.shape == u.shape, name
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref)), name
        ref = np.fft.ifftn(full * np.fft.fftn(z, axes=axes), axes=axes)
        out = fourier_multiply(mult, z)
        assert out.dtype == np.complex128 and out.shape == z.shape, name
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref)), name


@pytest.mark.parametrize("dim, M", [(1, 64), (2, 16), (3, 8)])
def test_product_into_its_input_is_bit_identical(dim, M):
    # out= may be the input itself, which the forward transform reads last;
    # real and complex fields, a stack of fields, and riesz_convolve alike
    grid = GridSpec(L=6.0, M=M, dim=dim)
    rng = np.random.default_rng(dim)
    u = rng.normal(size=(2,) + grid.shape)
    z = u + 1j * rng.normal(size=u.shape)
    for name, mult in _multipliers(grid).items():
        for v in (u, u[0], z):
            ref, w = fourier_multiply(mult, v), v.copy()
            assert fourier_multiply(mult, w, out=w) is w, name
            np.testing.assert_array_equal(w, ref)
    cache = build_hartree_cache(grid, 0.5)
    ref, w = riesz_convolve(u[0], cache), u[0].copy()
    assert riesz_convolve(w, cache, out=w) is w
    np.testing.assert_array_equal(w, ref)


# ------------------------------------------------------------ Riesz potential

def test_riesz_zero_input(g128):
    cache = build_hartree_cache(g128, 0.5)
    out = riesz_convolve(np.zeros(g128.shape), cache)
    assert np.all(out == 0)


def test_riesz_point_mass_reproduces_kernel(g128):
    cache = build_hartree_cache(g128, 0.5)
    h = np.zeros(g128.shape)
    h[g128.M // 2] = 1.0 / g128.cell_volume()  # discrete delta at x = 0
    out = riesz_convolve(h, cache)
    x = g128.axis()
    far = np.abs(x) > 1.0
    assert np.max(np.abs(out[far] - np.abs(x[far]) ** -0.5)
                  / np.abs(x[far]) ** -0.5) < 1e-2


def test_riesz_fast_matches_direct_summation(g128):
    cache = build_hartree_cache(g128, 0.5)
    f = np.exp(-g128.axis() ** 2)
    fast = riesz_convolve(f, cache)
    direct = brute_force_riesz(f, riesz_kernel_table(g128, 0.5), g128.cell_volume())
    assert np.max(np.abs(fast - direct)) < 1e-12 * np.max(np.abs(direct))


def test_riesz_positivity_preserved(g128):
    cache = build_hartree_cache(g128, 0.8)
    rng = np.random.default_rng(0)
    f = rng.uniform(0, 1, size=g128.shape)
    out = riesz_convolve(f, cache)
    assert np.min(out) > -1e-12


def test_riesz_spectrum_real_nonnegative():
    for dim, M, mu in ((1, 128, 0.5), (2, 32, 0.8)):
        cache = build_hartree_cache(GridSpec(L=8.0, M=M, dim=dim), mu)
        assert np.min(cache.kernel_spectrum) >= 0.0
        assert cache.spectrum_clip == 0.0


def test_riesz_mu_out_of_range(g128):
    with pytest.raises(ValueError, match="not locally integrable"):
        build_hartree_cache(g128, 1.0)


def test_frac_lap_constant_limits():
    # the normalization matches the |xi|^{2s} symbol: sanity at s=1/2, N=1
    assert frac_lap_constant(1, 0.5) == pytest.approx(1 / np.pi, rel=1e-12)


@pytest.mark.parametrize("grid, A", [
    (GridSpec(L=4.0, M=16, dim=1), random_smooth_A(1, 4.0, 0.5, seed=44)),
    (GridSpec(L=3.0, M=8, dim=2), random_smooth_A(2, 3.0, 0.5, seed=47)),
], ids=["1d", "2d"])
def test_free_mode_matches_literal_formula(grid, A):
    # independent oracle: evaluate the quadrature definition point by point
    N, M, h = grid.dim, grid.M, grid.h
    s = 0.6
    rng = np.random.default_rng(45)
    u = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    c = frac_lap_constant(N, s)
    rc = grid.L - h / 2

    def A_at(x):
        return np.asarray(A(np.asarray(x, dtype=float).reshape(1, N)))[0]

    idx = list(np.ndindex(grid.shape))
    pts = [grid.index_to_point(i) for i in idx]
    expected = np.zeros(grid.shape, dtype=complex)
    for i, xi in zip(idx, pts):
        acc = 0.0 + 0.0j
        for j, xj in zip(idx, pts):
            z = xi - xj
            r = np.sqrt(np.sum(z ** 2))
            if j == i or r > rc:
                continue
            theta = float(A_at((xi + xj) / 2) @ z)
            acc += (u[i] - u[j] * np.exp(1j * theta)) * r ** (-N - 2 * s)
        expected[i] = c * h ** N * acc
    # far tail under zero extension; the unit sphere has area 2 (N=1), 2 pi (N=2)
    expected += c * ({1: 2.0, 2: 2 * np.pi}[N] / (2 * s * rc ** (2 * s))) * u
    # covariant second-difference correction over the near zone; the link
    # x -> x + h e_a carries e^{-i A_a(x + (h/2) e_a) h}
    from choquard.operators import near_zone_weight
    W2 = near_zone_weight(N, s, h, {1: 8, 2: 2}[N])
    lap = np.zeros(grid.shape, dtype=complex)
    for i, xi in zip(idx, pts):
        for a in range(N):
            e = np.eye(N, dtype=int)[a]
            up = tuple(np.add(i, e))
            dn = tuple(np.subtract(i, e))
            if i[a] + 1 < M:
                lap[i] += u[up] * np.exp(-1j * A_at(xi + h / 2 * e)[a] * h)
            if i[a] >= 1:
                x_dn = grid.index_to_point(dn)
                lap[i] += u[dn] * np.exp(1j * A_at(x_dn + h / 2 * e)[a] * h)
            lap[i] -= 2 * u[i]
    expected += -c * (W2 / (2 * N)) * lap / h ** 2
    got = QuadratureOperator(grid, s, A).apply(u)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("A", [None, random_smooth_A(3, 3.0, 0.5, seed=47)],
                         ids=["A0", "magnetic"])
def test_operator_matches_literal_formula_3d(A):
    # independent oracle in 3-D over all 512^2 pairs at once: the pair sum
    # with midpoint phases, the far tail and the covariant second difference
    grid = GridSpec(L=3.0, M=8, dim=3)
    N, h, s = grid.dim, grid.h, 0.6
    rng = np.random.default_rng(48)
    u = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    c = frac_lap_constant(N, s)
    rc = grid.L - h / 2

    def A_at(x):
        """A at the points x (last axis the components); zero when A is None."""
        if A is None:
            return np.zeros(x.shape)
        return np.asarray(A(x.reshape(-1, N))).reshape(x.shape)

    pts = grid.points()
    z = pts[:, None, :] - pts[None, :, :]
    r = np.linalg.norm(z, axis=-1)
    K = np.zeros_like(r)
    inside = (r > 0) & (r <= rc)
    K[inside] = r[inside] ** (-N - 2 * s)
    phase = np.exp(1j * np.sum(A_at((pts[:, None, :] + pts[None, :, :]) / 2) * z, axis=-1))
    flat = u.reshape(-1)
    expected = c * h ** N * (K.sum(axis=1) * flat - (K * phase) @ flat)
    # far tail under zero extension; the unit sphere of R^3 has area 4 pi
    expected += c * (4 * np.pi / (2 * s * rc ** (2 * s))) * flat
    # the near zone has 2 cells in 3-D; the link x -> x + h e_a carries
    # e^{-i A_a(x + (h/2) e_a) h}, and the field is zero outside the box
    W2 = operators.near_zone_weight(N, s, h, 2)
    x = grid.mesh()
    lap = -2 * N * u
    for a in range(N):
        tails = tuple(slice(None, -1) if b == a else slice(None) for b in range(N))
        heads = tuple(slice(1, None) if b == a else slice(None) for b in range(N))
        link = np.exp(-1j * h * A_at(x + 0.5 * h * np.eye(N)[a])[..., a])[tails]
        lap[tails] += link * u[heads]
        lap[heads] += link.conj() * u[tails]
    expected += -c * (W2 / (2 * N)) * lap.reshape(-1) / h ** 2
    got = QuadratureOperator(grid, s, A).apply(u).reshape(-1)
    assert np.max(np.abs(got - expected)) < 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("A", [None, random_smooth_A(1, 4.0, 0.5, seed=44)],
                         ids=["A0", "magnetic"])
def test_gagliardo_matches_literal_double_sum(A):
    # independent oracle for [u]^2 = Re<Lu, u> h: the Gagliardo double sum
    grid = GridSpec(L=4.0, M=16, dim=1)
    s = 0.55
    rng = np.random.default_rng(46)
    u = rng.normal(size=16) + 1j * rng.normal(size=16)
    if A is None:
        u[0] = 0.0  # a zero boundary; the magnetic case has none
    x = grid.axis()
    h = grid.h
    c = frac_lap_constant(1, s)
    rc = grid.L - h / 2

    def phase(a, b):
        """e^{i A((a+b)/2).(a-b)}, the midpoint phase of the pair (a, b)."""
        if A is None:
            return 1.0
        return np.exp(1j * float(A(np.array([[(a + b) / 2]]))[0, 0]) * (a - b))

    total = 0.0
    for i in range(16):
        for j in range(16):
            z = x[i] - x[j]
            if j == i or abs(z) > rc:
                continue
            total += abs(u[i] - phase(x[i], x[j]) * u[j]) ** 2 * abs(z) ** (-1 - 2 * s)
    val = 0.5 * c * h * h * total
    from choquard.operators import near_zone_weight
    W2 = near_zone_weight(1, s, h, 8)
    # link i -> i+1 carries e^{-i phi_i}, phi_i = A(x_i + h/2) h
    links = sum(abs((phase(x[i], x[i] + h) * u[i + 1] if i + 1 < 16 else 0.0) - u[i]) ** 2
                for i in range(16)) + abs(u[0]) ** 2
    val += c * (W2 / 2) * links / h ** 2 * h
    val += c * (2.0 / (2 * s * rc ** (2 * s))) * np.sum(np.abs(u) ** 2) * h
    got = QuadratureOperator(grid, s, A).seminorm_sq(u)
    assert got == pytest.approx(val, rel=1e-12)


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(L=0.0, M=16, dim=1)
    with pytest.raises(ValueError):
        GridSpec(L=4.0, M=15, dim=1)
    with pytest.raises(ValueError):
        GridSpec(L=4.0, M=4, dim=1)
    with pytest.raises(ValueError):
        GridSpec(L=4.0, M=16, dim=4)


def test_field_validation(g128):
    with pytest.raises(ValueError):
        Field(np.zeros(5), g128)
    bad = np.zeros(g128.shape)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        Field(bad, g128)
