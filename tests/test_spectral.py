import ast
import pathlib
from types import SimpleNamespace

import numpy as np
import pytest

from bolab import spectral as sp
import lattice_order
from linear_flow import propagator_symbol


def random_real_field(grid, rng, decay=2.0):
    """Random real zero-mean field with mildly decaying spectrum."""
    half = grid.n // 2 - 1  # positive wavenumbers 1 .. n/2-1
    mags = (1.0 + np.arange(1, half + 1)) ** (-decay)
    vals = mags * (rng.standard_normal(half) + 1j * rng.standard_normal(half))
    coeffs = np.zeros(grid.n, dtype=np.complex128)
    kpos = grid.k >= 1
    coeffs[kpos] = vals
    coeffs[1 : grid.n // 2] = np.conj(vals[::-1])  # k = -(n/2-1) .. -1
    return sp.SpectralField(grid, coeffs)


def test_make_grid_small():
    g = sp.Grid(8, np.pi)
    assert g.dxi == 1.0
    assert list(g.k) == [-4, -3, -2, -1, 0, 1, 2, 3]
    np.testing.assert_allclose(g.xi, np.arange(-4, 4, dtype=float))
    assert g.dx == pytest.approx(np.pi / 4)


def test_make_grid_desk_scale():
    g = sp.Grid(1024, 64 * np.pi)
    assert g.dxi == pytest.approx(1.0 / 64)
    assert g.xi.max() == pytest.approx(511.0 / 64)  # just below 8


@pytest.mark.parametrize("n,L", [(12, np.pi), (7, np.pi), (8, 3.0), (4, np.pi)])
def test_make_grid_rejects(n, L):
    with pytest.raises(ValueError):
        sp.Grid(n, L)


@pytest.mark.parametrize("n, L, name", [
    (64.5, np.pi, "n_points"), (np.inf, np.pi, "n_points"),
    (np.nan, np.pi, "n_points"), (64, np.inf, "half_length"),
    (64, np.nan, "half_length")])
def test_grid_refuses_what_it_would_coerce(n, L, name):
    # a fractional size is not truncated, and an infinite box does not
    # build a NaN lattice
    with pytest.raises(sp.ArgumentError, match=f"^{name} ") as err:
        sp.Grid(n, L)
    assert err.value.argument == name


def test_grid_takes_an_integral_float_size():
    assert sp.Grid(64.0, np.pi) == sp.Grid(64, np.pi)


def test_cosine_hand_dft():
    # int cos(x) exp(-i xi x) dx over [-pi, pi) = pi at xi = +-1, else 0
    g = sp.Grid(8, np.pi)
    f = sp.to_spectral(np.cos(g.x), g)
    expected = np.zeros(8, dtype=complex)
    expected[g.k == 1] = np.pi
    expected[g.k == -1] = np.pi
    np.testing.assert_allclose(f.coeffs, expected, atol=1e-13)


def test_zero_array_zero_field():
    g = sp.Grid(16, np.pi)
    f = sp.to_spectral(np.zeros(16), g)
    assert np.all(f.coeffs == 0)


@pytest.mark.parametrize("n,L", [(8, np.pi), (64, 4 * np.pi), (256, 32 * np.pi)])
def test_round_trip_and_plancherel(n, L):
    rng = np.random.default_rng(7)
    g = sp.Grid(n, L)
    for _ in range(20):
        f = random_real_field(g, rng)
        samples = sp.to_physical(f)
        back = sp.to_spectral(samples.real, g)
        np.testing.assert_allclose(back.coeffs, f.coeffs, rtol=0, atol=1e-12 * np.max(np.abs(f.coeffs)))
        phys = np.sum(np.abs(samples) ** 2) * g.dx
        spec = np.sum(np.abs(f.coeffs) ** 2) * g.dxi / (2 * np.pi)
        assert abs(phys - spec) <= 1e-12 * spec


def test_length_mismatch():
    g = sp.Grid(8, np.pi)
    with pytest.raises(ValueError):
        sp.to_spectral(np.zeros(9), g)
    with pytest.raises(ValueError):
        sp.SpectralField(g, np.zeros(16, dtype=complex))


def test_hilbert_cos_is_sin():
    g = sp.Grid(32, np.pi)
    f = sp.to_spectral(np.cos(g.x), g)
    hf = sp.hilbert(f)
    np.testing.assert_allclose(sp.to_physical(hf).real, np.sin(g.x), atol=1e-12)


def test_derivative_sin_is_cos():
    g = sp.Grid(32, np.pi)
    f = sp.to_spectral(np.sin(g.x), g)
    df = sp.derivative(f)
    np.testing.assert_allclose(sp.to_physical(df).real, np.cos(g.x), atol=1e-12)


def test_antiderivative_sin():
    g = sp.Grid(32, np.pi)
    f = sp.to_spectral(np.sin(g.x), g)
    F = sp.apply_multiplier(f, sp.antiderivative_symbol(g))
    np.testing.assert_allclose(sp.to_physical(F).real, -np.cos(g.x), atol=1e-12)
    assert F.coeffs[g.k == 0] == 0.0  # zero mode untouched


def test_hilbert_isometry_and_square():
    rng = np.random.default_rng(11)
    g = sp.Grid(128, 8 * np.pi)
    for _ in range(25):
        f = random_real_field(g, rng)
        hf = sp.hilbert(f)
        assert sp.sobolev_norm(hf, 0) == pytest.approx(sp.sobolev_norm(f, 0), rel=1e-12)
        hhf = sp.hilbert(hf)
        np.testing.assert_allclose(hhf.coeffs, -f.coeffs, atol=1e-12 * np.max(np.abs(f.coeffs)))


def test_antiderivative_derivative_inverse_pair():
    rng = np.random.default_rng(3)
    g = sp.Grid(64, 4 * np.pi)
    for _ in range(25):
        f = random_real_field(g, rng)
        F = sp.apply_multiplier(f, sp.antiderivative_symbol(g))
        back = sp.derivative(F)
        np.testing.assert_allclose(
            back.coeffs, sp.zero_mean_project(f).coeffs,
            atol=1e-12 * np.max(np.abs(f.coeffs)))


def test_hardy_bound_on_lattice():
    rng = np.random.default_rng(5)
    g = sp.Grid(128, 16 * np.pi)
    C = np.sqrt(1 + g.dxi**2) / g.dxi  # max over nonzero xi of <xi>/|xi|
    for s in (0.0, 0.5, 1.0):
        f = random_real_field(g, rng)
        F = sp.apply_multiplier(f, sp.antiderivative_symbol(g))
        assert sp.sobolev_norm(F, s + 1) <= C * sp.sobolev_norm(f, s) * (1 + 1e-12)


def test_project_cos_plus():
    g = sp.Grid(8, np.pi)
    f = sp.to_spectral(np.cos(g.x), g)
    p = sp.project(f, "+")
    expected = np.zeros(8, dtype=complex)
    expected[g.k == 1] = np.pi  # the half e^{ix} part
    np.testing.assert_allclose(p.coeffs, expected, atol=1e-13)


def test_project_disjoint_and_partition():
    rng = np.random.default_rng(23)
    g = sp.Grid(64, 2 * np.pi)
    f = random_real_field(g, rng)
    for hi in ("+hi", "-hi"):
        assert np.all(sp.project(sp.project(f, "lo"), hi).coeffs == 0)
    assert np.all(sp.project(sp.project(f, "+hi"), "-hi").coeffs == 0)
    total = sp.project(f, "+hi") + sp.project(f, "-hi") + sp.project(f, "lo")
    np.testing.assert_allclose(total.coeffs, f.coeffs, atol=1e-15)
    halves = sp.project(f, "+") + sp.project(f, "-")
    np.testing.assert_allclose(halves.coeffs, sp.zero_mean_project(f).coeffs, atol=1e-15)


def test_project_rejects_unknown_region():
    g = sp.Grid(8, np.pi)
    f = sp.to_spectral(np.cos(g.x), g)
    with pytest.raises(ValueError):
        sp.project(f, "mid")


def test_sobolev_norm_basics():
    g = sp.Grid(8, np.pi)
    zero = sp.SpectralField(g, np.zeros(8, dtype=complex))
    assert sp.sobolev_norm(zero, 1.5) == 0.0
    coeffs = np.zeros(8, dtype=complex)
    coeffs[g.k == 1] = 2 * np.pi  # e^{ix}
    f = sp.SpectralField(g, coeffs)
    ratio = sp.sobolev_norm(f, 1) / sp.sobolev_norm(f, 0)
    assert ratio == pytest.approx(np.sqrt(2.0), rel=1e-13)


def test_sobolev_monotone_in_s():
    rng = np.random.default_rng(17)
    g = sp.Grid(64, 4 * np.pi)
    for _ in range(10):
        f = random_real_field(g, rng)
        n0 = sp.sobolev_norm(f, 0)
        n1 = sp.sobolev_norm(f, 1)
        n2 = sp.sobolev_norm(f, 2)
        assert n0 <= n1 <= n2


def test_zero_mean_project_examples():
    g = sp.Grid(16, np.pi)
    const = sp.to_spectral(np.ones(16), g)
    assert np.all(sp.zero_mean_project(const).coeffs == 0)
    f = sp.to_spectral(1.0 + np.sin(g.x), g)
    np.testing.assert_allclose(
        sp.to_physical(sp.zero_mean_project(f)).real, np.sin(g.x), atol=1e-12)


def test_nyquist_forced_to_zero():
    g = sp.Grid(8, np.pi)
    coeffs = np.ones(8, dtype=complex)
    f = sp.SpectralField(g, coeffs)
    assert f.coeffs[0] == 0.0  # k = -4 is the unpaired mode
    # sampling the Nyquist-saturating oscillation also yields no k=-n/2 content
    f2 = sp.to_spectral(np.cos(4 * g.x), g)
    assert f2.coeffs[0] == 0.0


def test_field_immutability_and_arithmetic():
    g = sp.Grid(16, np.pi)
    rng = np.random.default_rng(1)
    f = random_real_field(g, rng)
    with pytest.raises(ValueError):
        f.coeffs[3] = 1.0
    h = 2.0 * f - f
    np.testing.assert_allclose(h.coeffs, f.coeffs, atol=1e-15)
    g2 = sp.Grid(32, np.pi)
    f2 = random_real_field(g2, rng)
    with pytest.raises(ValueError):
        _ = f + f2


def product_field(f, g):
    """Dealiased pointwise product of two fields (exact convolution on the band)."""
    f._same_grid(g)
    base = f.grid
    prod = sp.dealiased_product(f.coeffs, g.coeffs, sp.padded_grid(base))
    return sp.SpectralField(base, prod)


def brute_convolution(f, g_field):
    """Direct lattice convolution (dxi/2pi) sum f(xi1) g(xi - xi1)."""
    grid = f.grid
    n = grid.n
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for j in range(n):
            ks = grid.k[i] + grid.k[j]
            idx = ks + n // 2
            if 0 <= idx < n:
                out[idx] += f.coeffs[i] * g_field.coeffs[j]
    out *= grid.dxi / (2 * np.pi)
    out[0] = 0.0
    return out


def test_product_matches_brute_convolution():
    rng = np.random.default_rng(29)
    g = sp.Grid(16, np.pi)
    for _ in range(5):
        f1 = random_real_field(g, rng)
        f2 = random_real_field(g, rng)
        prod = product_field(f1, f2)
        ref = brute_convolution(f1, f2)
        np.testing.assert_allclose(prod.coeffs, ref, atol=1e-13 * max(1.0, np.max(np.abs(ref))))


def test_product_cos_squared():
    g = sp.Grid(16, np.pi)
    f = sp.to_spectral(np.cos(g.x), g)
    p = product_field(f, f)
    # cos^2 = 1/2 + cos(2x)/2: coefficients pi at 0 and pi/2 at +-2
    assert p.coeffs[g.k == 0][0] == pytest.approx(np.pi, rel=1e-13)
    assert p.coeffs[g.k == 2][0] == pytest.approx(np.pi / 2, rel=1e-13)
    assert p.coeffs[g.k == -2][0] == pytest.approx(np.pi / 2, rel=1e-13)


def test_propagator_symbol_is_unimodular():
    g = sp.Grid(64, 2 * np.pi)
    sym = propagator_symbol(g, 0.37)
    np.testing.assert_allclose(np.abs(sym), 1.0, atol=1e-14)
    assert sym[g.k == 0] == 1.0


def test_snapshot_round_trip(tmp_path):
    rng = np.random.default_rng(41)
    g = sp.Grid(64, 4 * np.pi)
    f = random_real_field(g, rng)
    path = tmp_path / "field.bosf"
    sp.write_snapshot(f, 0.625, path)
    raw = path.read_bytes()
    assert raw[:4] == b"BOSF"
    assert len(raw) == 28 + 16 * g.n  # 4s + u32 + u32 + f64 + f64 header
    back, t = sp.read_snapshot(path)
    assert t == 0.625
    assert back.grid == g
    np.testing.assert_array_equal(back.coeffs, f.coeffs)


def test_snapshot_rejects_garbage(tmp_path):
    path = tmp_path / "junk.bosf"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(ValueError):
        sp.read_snapshot(path)


def test_snapshot_truncated_header_is_value_error(tmp_path):
    path = tmp_path / "short.bosf"
    path.write_bytes(b"BOSF" + b"\x00" * 6)
    with pytest.raises(ValueError, match="truncated snapshot header: 10 of 28 bytes"):
        sp.read_snapshot(path)


@pytest.mark.parametrize("edit, want", [
    (lambda raw: raw[:-16], "truncated snapshot payload: 1008 of 1024 bytes"),
    (lambda raw: raw[:-5], "truncated snapshot payload: 1019 of 1024 bytes"),
    (lambda raw: raw[:28], "truncated snapshot payload: 0 of 1024 bytes"),
    (lambda raw: raw + b"\x00",
     "trailing bytes after the snapshot payload: 1025 of 1024 bytes"),
])
def test_snapshot_payload_of_wrong_size_is_value_error(tmp_path, edit, want):
    # one coefficient short, a part of one, no payload, one byte too many
    g = sp.Grid(64, np.pi)
    path = tmp_path / "field.bosf"
    sp.write_snapshot(random_real_field(g, np.random.default_rng(2)), 0.5, path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(ValueError, match=want):
        sp.read_snapshot(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_field_rejects_non_finite_coefficients(bad):
    g = sp.Grid(8, np.pi)
    with pytest.raises(ValueError, match="non-finite"):
        sp.SpectralField(g, [bad] * 8)


def test_arithmetic_to_non_finite_raises():
    # scalar arithmetic goes through the same check as construction, so it
    # cannot build an all-NaN field
    f = random_real_field(sp.Grid(16, np.pi), np.random.default_rng(5))
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            f * np.inf


def test_conj_reflect_is_the_conjugate_field():
    rng = np.random.default_rng(43)
    g = sp.Grid(32, np.pi)
    c = rng.standard_normal(g.n) + 1j * rng.standard_normal(g.n)
    f = sp.SpectralField(g, c)
    r = sp.conj_reflect(f.coeffs)
    assert r[0] == 0.0
    # the transform of conj(f(x)) in physical space
    want = sp.to_spectral(np.conj(sp.to_physical(f)), g).coeffs
    np.testing.assert_allclose(r, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [8, 64, 256])
def test_transforms_on_last_axis_equal_row_calls(n):
    # a (B, 2n) batch transforms row by row, bit for bit; this is what lets
    # the gauged stepper integrate several fields in one array
    g = sp.Grid(n, np.pi)
    pg = sp.padded_grid(g)
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((3, 2 * n)) + 1j * rng.standard_normal((3, 2 * n))
    base = rows[:, :n]
    for fn, arg, grid in ((sp.coeffs_to_samples, rows, pg),
                          (sp.samples_to_coeffs, rows, pg),
                          (sp.to_padded, base, pg),
                          (sp.from_padded, rows, pg)):
        out = fn(arg, grid)
        for k in range(len(arg)):
            assert np.array_equal(out[k], fn(arg[k].copy(), grid)), fn.__name__


@pytest.mark.parametrize("n", [64, 128, 256, 512, 1024, 2048])
@pytest.mark.parametrize("L", [np.pi, 8 * np.pi])
def test_padded_pair_equals_lattice_order_oracle(n, L):
    # the doubled lattice is held in FFT order and sampled from x = 0;
    # padding into it and gathering the base band out of it give the values
    # of the lattice-order path, whose samples start at x = -L, rolled by
    # half the 2n samples
    g = sp.Grid(n, L)
    pg = sp.padded_grid(g)
    rng = np.random.default_rng(n)
    for shape in ((n,), (3, n)):
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        wide = shape[:-1] + (2 * n,)
        s = rng.standard_normal(wide) + 1j * rng.standard_normal(wide)
        got = sp.to_padded(c, pg)
        want = np.roll(lattice_order.to_padded(c, pg), n, axis=-1)
        assert got.shape == want.shape and np.array_equal(got, want)
        got = sp.from_padded(s, pg)
        want = lattice_order.from_padded(np.roll(s, n, axis=-1), pg)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("n", [2**p for p in range(3, 13)])
@pytest.mark.parametrize("L", [np.pi, 8 * np.pi, 10.0])
def test_base_pair_equals_lattice_order_oracle(n, L):
    # the base-grid pair, whose samples start at x = -L, gives the values
    # of the lattice-order path, for one field and for a batch
    g = sp.Grid(n, L)
    rng = np.random.default_rng(n)
    for shape in ((n,), (3, n)):
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got, want = sp.coeffs_to_samples(c, g), lattice_order.coeffs_to_samples(c, g)
        assert got.shape == want.shape and np.array_equal(got, want)
        got, want = sp.samples_to_coeffs(c, g), lattice_order.samples_to_coeffs(c, g)
        assert got.shape == want.shape and np.array_equal(got, want)


@pytest.mark.parametrize("n", [8, 64, 512, 4096])
@pytest.mark.parametrize("L", [np.pi, 8 * np.pi, 10.0])
def test_sample_scale_equals_the_quotient(n, L):
    # fft_order_to_samples scales by the product with 1/dx: numpy's complex
    # division by a real is that product, so the samples equal the quotient
    # value for value
    pg = sp.padded_grid(sp.Grid(n, L))
    rng = np.random.default_rng(n)
    cf = rng.standard_normal((2, 2 * n)) + 1j * rng.standard_normal((2, 2 * n))
    want = np.fft.ifft(cf, axis=-1) / pg.dx
    assert np.array_equal(sp.fft_order_to_samples(cf, pg), want)


# ---------------------------------------------------------------------------
# the FFT-order pair calls pocketfft's gufuncs: np.fft's bits, one owner
# ---------------------------------------------------------------------------

def _pair_inputs(n, rng):
    """Input forms the pair receives on the doubled lattice of a base grid
    of n points: 1-D, a batch, the stacked V/V_x of gauge._v_samples, a
    strided view, a Fortran-ordered batch, real samples and an empty batch."""
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    m = 2 * n
    wide = cplx(3, 2 * m)
    return {
        "1-D": cplx(m),
        "batch": cplx(3, m),
        "stacked": cplx(2, 3, m),
        "strided": wide[:, ::2],
        "fortran": np.asfortranarray(cplx(m, 3).T),
        "real": rng.standard_normal((3, m)),
        "empty": np.zeros((0, m), dtype=np.complex128),
    }


@pytest.mark.parametrize("n", [8, 128, 1024])
@pytest.mark.parametrize("L", [np.pi, 10.0])
def test_pair_equals_the_public_fft(n, L):
    # a numpy whose private gufuncs change meaning fails here by name, not
    # as a golden diff
    pg = sp.padded_grid(sp.Grid(n, L))
    for form, a in _pair_inputs(n, np.random.default_rng(n)).items():
        got = sp.fft_order_to_samples(a, pg)
        want = np.fft.ifft(a, axis=-1) * (1.0 / pg.dx)
        assert got.dtype == np.complex128 and got.shape == a.shape, form
        assert np.array_equal(got, want), form
        got = sp.samples_to_fft_order(a, 1.0)
        assert got.dtype == np.complex128 and got.shape == a.shape, form
        assert np.array_equal(got, np.fft.fft(a, axis=-1)), form


@pytest.mark.parametrize("n", [8, 1024])
def test_pair_writes_into_out(n):
    # given ``out``, the pair writes its result there, as the gauge stages'
    # reused buffers need, byte for byte as a fresh call
    pg = sp.padded_grid(sp.Grid(n, np.pi))
    for form, a in _pair_inputs(n, np.random.default_rng(n)).items():
        for fn, arg in ((sp.fft_order_to_samples, pg), (sp.samples_to_fft_order, pg.dx)):
            out = np.full(a.shape, np.nan, dtype=np.complex128)
            assert fn(a, arg, out=out) is out, form
            assert out.tobytes() == fn(a, arg).tobytes(), form


@pytest.mark.parametrize("n", [2**p for p in range(3, 12)])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_runs_are_views_of_the_fft_order_halves(n, batch):
    # the runs k = 0 .. n/2-1 and k = -n/2 .. -1 are the halves of
    # np.fft.ifftshift, taken as views: a base-lattice array's, and the base
    # band's of its padded FFT-order array
    h = n // 2
    rng = np.random.default_rng(n)
    c = rng.standard_normal(batch + (n,)) + 1j * rng.standard_normal(batch + (n,))
    a = np.zeros(batch + (2 * n,), dtype=complex)
    a[..., n // 2 : 3 * n // 2] = c  # lattice order on the doubled lattice
    a = np.fft.ifftshift(a, axes=-1)
    want = np.fft.ifftshift(c, axes=-1)
    for whole, runs in ((c, sp.lattice_runs(c)), (a, sp.band_runs(a))):
        assert all(np.shares_memory(run, whole) for run in runs)
        assert [r.shape for r in runs] == [batch + (h,)] * 2
        assert np.array_equal(runs[0], want[..., :h])
        assert np.array_equal(runs[1], want[..., h:])


@pytest.mark.parametrize("m", [2**p for p in range(3, 13)])
@pytest.mark.parametrize("L", [np.pi, 8 * np.pi])
def test_folded_scales_equal_the_two_step_products(m, L):
    # pocketfft's factor carries the scales: dx for the forward pair, and
    # (1/m) (1/dx) for the inverse; the bytes equal those of np.fft's
    # transform followed by the product with the scale, zero signs included
    grid = sp.Grid(m, L)
    for form, a in _pair_inputs(m // 2, np.random.default_rng(m)).items():
        got = sp.samples_to_fft_order(a, grid.dx)
        assert got.tobytes() == (np.fft.fft(a, axis=-1) * grid.dx).tobytes(), form
        got = sp.fft_order_to_samples(a, grid)
        want = np.fft.ifft(a, axis=-1) * (1.0 / grid.dx)
        assert got.tobytes() == want.tobytes(), form


def test_folded_inverse_scale_needs_a_power_of_two():
    # at m = 96, 1/m is not a power of two and the folded factor rounds
    # unlike the two-step product, so the test above is not vacuous; Grid
    # refuses that size, which is what keeps the fold exact
    m, L = 96, np.pi
    stand_in = SimpleNamespace(dx=2.0 * L / m)
    rng = np.random.default_rng(m)
    a = rng.standard_normal((3, m)) + 1j * rng.standard_normal((3, m))
    got = sp.fft_order_to_samples(a, stand_in)
    assert not np.array_equal(got, np.fft.ifft(a, axis=-1) * (1.0 / stand_in.dx))
    with pytest.raises(sp.ArgumentError, match="^n_points "):
        sp.Grid(m, L)


_PUBLIC_FFT = {"fft", "ifft"}
_GUFUNCS = "_pocketfft_umath"


def _fft_calls(source):
    """Places in ``source`` that transform outside the FFT-order pair: a
    call of ``<x>.fft.fft``/``<x>.fft.ifft``, an import of fft or ifft from
    numpy.fft, and any naming of numpy's private pocketfft module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _PUBLIC_FFT \
                and getattr(node.func.value, "attr", None) == "fft":
            found.append(f"line {node.lineno}: calls fft.{node.func.attr}")
        elif isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names}
            if node.module == "numpy.fft" and names & _PUBLIC_FFT:
                found.append(f"line {node.lineno}: imports numpy.fft's fft")
            if _GUFUNCS in (node.module or "") or _GUFUNCS in names:
                found.append(f"line {node.lineno}: imports {_GUFUNCS}")
        elif isinstance(node, ast.Import):
            if any(_GUFUNCS in alias.name for alias in node.names):
                found.append(f"line {node.lineno}: imports {_GUFUNCS}")
        elif _GUFUNCS in (getattr(node, "id", None), getattr(node, "attr", None)):
            found.append(f"line {node.lineno}: names {_GUFUNCS}")
    return found


def test_fft_detector_finds_each_kind():
    # a scan that finds nothing would pass vacuously
    source = """
import numpy.fft._pocketfft_umath
from numpy.fft import _pocketfft_umath as pfu
from numpy.fft._pocketfft_umath import ifft
from numpy.fft import fft
np.fft.fft(a, axis=-1)
numpy.fft.ifft(a)
pfu = np.fft._pocketfft_umath
np.fft.ifftshift(a)
np.fft.fftfreq(8)
"""
    assert len(_fft_calls(source)) == 7


def test_the_pair_owns_every_transform():
    # every transform goes through fft_order_to_samples/samples_to_fft_order,
    # so the pair is the one place where np.fft's bits are kept
    for path in sorted(pathlib.Path(sp.__file__).parent.glob("*.py")):
        found = _fft_calls(path.read_text())
        if path.name == "spectral.py":
            assert found and all(_GUFUNCS in f for f in found), found
        else:
            assert found == [], (path.name, found)
