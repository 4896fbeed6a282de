"""Gauge transform tests.

The quadratic/cubic band pieces are checked against hand convolutions and a
brute-force direct summation before anything dynamical uses them, and the
full right side is checked against the chain rule of the gauge map itself.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest

import lattice_order
from bolab import gauge, spectral
from bolab.dynamics import evolve_gauged, evolve_gauged_batch
from bolab.gauge import (
    GAUGE_FLOOR,
    antiderivative,
    gauge_forward,
    gauge_inverse,
    profile_time_derivative_sup,
    rhs_cubic,
    rhs_exact_coeffs,
    rhs_quadratic,
    rhs_terms_total_coeffs,
)
from bolab.spectral import (
    Grid,
    SpectralField,
    coeffs_to_samples,
    derivative,
    hilbert_symbol,
    padded_grid,
    project,
    region_mask,
    samples_to_coeffs,
    sobolev_norm,
    to_padded,
    to_spectral,
)
from lattice_order import pad_coeffs, unpad_coeffs


def field_from_modes(grid, modes):
    """SpectralField with prescribed coefficients {k: value}."""
    c = np.zeros(grid.n, dtype=np.complex128)
    for k, val in modes.items():
        c[k + grid.n // 2] = val
    return SpectralField(grid, c)


def random_real_field(grid, rng, decay=2.0, kmax=None):
    n = grid.n
    c = np.zeros(n, dtype=np.complex128)
    kmax = kmax or n // 2 - 1
    for k in range(1, kmax + 1):
        val = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + k) ** decay
        c[k + n // 2] = val
        c[-k + n // 2] = np.conj(val)
    return SpectralField(grid, c)


def random_complex_field(grid, rng, decay=2.0, kmax=None, amp=1.0):
    n = grid.n
    c = np.zeros(n, dtype=np.complex128)
    kmax = kmax or n // 2 - 1
    ks = [k for k in range(-kmax, kmax + 1) if k != 0]
    for k in ks:
        c[k + n // 2] = (
            amp
            * (rng.standard_normal() + 1j * rng.standard_normal())
            / (1 + abs(k)) ** decay
        )
    return SpectralField(grid, c)


# -- antiderivative -----------------------------------------------------------

def test_antiderivative_sin():
    g = Grid(32, np.pi)
    u = to_spectral(np.sin(g.x), g)
    F = antiderivative(u)
    s = coeffs_to_samples(F.coeffs, g)
    assert np.allclose(s.real, -np.cos(g.x), atol=1e-13)
    assert np.max(np.abs(s.imag)) < 1e-13


def test_antiderivative_inverts_derivative():
    g = Grid(64, 2 * np.pi)
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = random_real_field(g, rng)
        back = derivative(antiderivative(u))
        assert np.max(np.abs(back.coeffs - u.coeffs)) < 1e-12


def test_antiderivative_refuses_mean():
    g = Grid(32, np.pi)
    u = to_spectral(1.0 + np.sin(g.x), g)
    with pytest.raises(spectral.ArgumentError, match="zero mean") as err:
        antiderivative(u)
    assert err.value.argument == "u"
    # a zero mode at rounding level (1e-13 of the L2 norm) is still dropped
    sin = to_spectral(np.sin(g.x), g)
    c = sin.coeffs.copy()
    c[g.n // 2] = 0.9e-13 * sobolev_norm(sin, 0)
    back = derivative(antiderivative(SpectralField(g, c)))
    assert np.allclose(coeffs_to_samples(back.coeffs, g).real, np.sin(g.x), atol=1e-13)
    c[g.n // 2] = 1.1e-13 * sobolev_norm(sin, 0)
    with pytest.raises(spectral.ArgumentError):
        antiderivative(SpectralField(g, c))


def test_gauge_forward_refuses_gaussian_data_with_a_mean():
    # gaussian-derivative data has a zero mean only once it decays inside
    # the box: |u_hat(0)| / ||u|| is 8.8e-10 at L = 2 pi, 3.4e-17 at 3 pi
    def data(L):
        g = Grid(256, L)
        return to_spectral(0.3 * -g.x * np.exp(-g.x**2 / 2.0), g)

    with pytest.raises(spectral.ArgumentError, match="zero mean") as err:
        gauge_forward(data(2 * np.pi))
    assert err.value.argument == "u"
    gauge_forward(data(3 * np.pi))


# -- forward map --------------------------------------------------------------

def test_gauge_forward_zero():
    g = Grid(32, np.pi)
    u = SpectralField(g, np.zeros(g.n, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        V = gauge_forward(u)
        back = gauge_inverse(V)
    assert np.all(V.coeffs == 0)
    assert sobolev_norm(u - back, 0.0) == 0.0


def test_gauge_forward_small_amplitude_expansion():
    # ||exp(-i lam F / 2) - 1 + i lam F / 2||_L2 <= C lam^2 with an explicit C
    g = Grid(256, np.pi)
    rng = np.random.default_rng(3)
    u = random_real_field(g, rng, kmax=8)
    F = antiderivative(u)
    f_samp = coeffs_to_samples(F.coeffs, g).real
    f_inf = np.max(np.abs(f_samp))
    f_l2 = sobolev_norm(F, 0)
    C = 2.0 * f_inf * f_l2 * np.exp(f_inf / 2.0) / 8.0
    for lam in (1e-2, 1e-3):
        lin = (-0.5j * lam) * F
        err = sobolev_norm(gauge_forward(lam * u) - lin, 0)
        assert err <= C * lam**2


def test_gauge_forward_silent_and_reconstruction():
    # perturbative data: neither map warns, and the inverse recovers u to
    # rounding, above the floor
    g = Grid(512, 8 * np.pi)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = 0.5 * random_real_field(g, rng, kmax=40)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            V = gauge_forward(u)
            back = gauge_inverse(V)
        assert sobolev_norm(u - back, 0.0) <= 1e-10 * max(sobolev_norm(u, 0), 1e-30)
        margin = np.min(np.abs(1.0 + to_padded(V.coeffs, padded_grid(g))))
        assert margin > GAUGE_FLOOR


# -- inverse map --------------------------------------------------------------

def test_round_trip_smooth_data():
    g = Grid(256, 8 * np.pi)
    u = to_spectral(-g.x * np.exp(-g.x**2 / 2.0), g)
    back = gauge_inverse(gauge_forward(u))
    rel = sobolev_norm(back - u, 0) / sobolev_norm(u, 0)
    assert rel <= 1e-10


def test_inverse_rejects_vanishing_one_plus_v():
    g = Grid(32, np.pi)
    c = np.zeros(g.n, dtype=complex)
    c[g.n // 2] = -0.95 * 2 * g.half_length  # V == -0.95 pointwise
    V = SpectralField(g, c)
    with pytest.raises(ValueError, match="not invertible"):
        gauge_inverse(V)


# -- quadratic band piece -----------------------------------------------------

def test_rhs_quadratic_hand_convolution():
    # V_hat(3) = a, V_hat(-1) = b; the only surviving pair is (3, -1), so
    # out(2) = -(dxi/2pi) * a * (-(-1)^2) * b = a b / (2 pi).
    g = Grid(16, np.pi)
    a = 0.4 + 0.2j
    b = 0.1 - 0.3j
    V = field_from_modes(g, {3: a, -1: b})
    out = rhs_quadratic(V, "+")
    expected = np.zeros(g.n, dtype=complex)
    expected[2 + g.n // 2] = a * b / (2 * np.pi)
    assert np.max(np.abs(out.coeffs - expected)) < 1e-15


def test_rhs_quadratic_mirror_sign():
    g = Grid(16, np.pi)
    a = -0.2 + 0.5j
    b = 0.3 + 0.1j
    V = field_from_modes(g, {-3: a, 1: b})
    out = rhs_quadratic(V, "-")
    expected = np.zeros(g.n, dtype=complex)
    expected[-2 + g.n // 2] = a * b / (2 * np.pi)
    assert np.max(np.abs(out.coeffs - expected)) < 1e-15


def test_rhs_quadratic_bilinear_homogeneity():
    g = Grid(64, np.pi)
    rng = np.random.default_rng(2)
    V = random_complex_field(g, rng, kmax=20)
    out1 = rhs_quadratic(V, "+")
    out3 = rhs_quadratic(3.0 * V, "+")
    assert np.max(np.abs(out3.coeffs - 9.0 * out1.coeffs)) < 1e-12


def test_rhs_quadratic_output_support():
    g = Grid(64, np.pi)
    rng = np.random.default_rng(4)
    V = random_complex_field(g, rng)
    for sign, region in (("+", "+hi"), ("-", "-hi")):
        out = rhs_quadratic(V, sign)
        off = out.coeffs * ~region_mask(g.xi, region)
        assert np.max(np.abs(off)) == 0.0


# -- cubic band piece ---------------------------------------------------------

def brute_cubic(V, sign):
    """Direct summation oracle for the cubic band piece.

    out(xi) = (dxi/2pi)^2 sum over xi1+xi2+xi3 = xi of
              (xi2+xi3) xi3 V(xi1) conj(V(-xi2)) V(xi3)
    restricted to xi1 in the hi band of the sign, xi2+xi3 on the opposite
    side, and the output on the hi band.
    """
    g = V.grid
    n = g.n
    c = V.coeffs
    out = np.zeros(n, dtype=complex)
    ks = np.nonzero(np.abs(c) > 0)[0] - n // 2
    weight = (g.dxi / (2 * np.pi)) ** 2
    for k1 in ks:
        xi1 = k1 * g.dxi
        if sign == "+" and not xi1 > 1:
            continue
        if sign == "-" and not xi1 < -1:
            continue
        for k2m in ks:  # -k2 runs over the support of V
            k2 = -k2m
            v2 = np.conj(c[k2m + n // 2])
            for k3 in ks:
                xi2, xi3 = k2 * g.dxi, k3 * g.dxi
                eta = xi2 + xi3
                if sign == "+" and not eta < 0:
                    continue
                if sign == "-" and not eta > 0:
                    continue
                k = k1 + k2 + k3
                if not -n // 2 <= k < n // 2:
                    continue
                xi = k * g.dxi
                if sign == "+" and not xi > 1:
                    continue
                if sign == "-" and not xi < -1:
                    continue
                out[k + n // 2] += (
                    weight * eta * xi3 * c[k1 + n // 2] * v2 * c[k3 + n // 2]
                )
    out[0] = 0.0
    return out


def test_rhs_cubic_hand_value():
    # V_hat(4) = 0.3, V_hat(-1) = 0.2j, V_hat(-2) = -0.1.  The only surviving
    # tuple for the "+" piece is (xi1, xi2, xi3) = (4, 1, -2): eta = -1,
    # multiplier eta*xi3 = 2, conj slot value conj(V_hat(-1)) = -0.2j, so
    # out(3) = (1/2pi)^2 * 2 * 0.3 * (-0.2j) * (-0.1) = 0.012j / (4 pi^2).
    g = Grid(16, np.pi)
    V = field_from_modes(g, {4: 0.3, -1: 0.2j, -2: -0.1})
    out = rhs_cubic(V, "+")
    expected = np.zeros(g.n, dtype=complex)
    expected[3 + g.n // 2] = 0.012j / (4 * np.pi**2)
    assert np.max(np.abs(out.coeffs - expected)) < 1e-15


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rhs_cubic_matches_brute_force(sign, seed):
    g = Grid(32, np.pi)
    rng = np.random.default_rng(seed)
    c = np.zeros(g.n, dtype=complex)
    ks = rng.choice([k for k in range(-10, 11) if k != 0], size=5, replace=False)
    for k in ks:
        c[k + g.n // 2] = rng.standard_normal() + 1j * rng.standard_normal()
    V = SpectralField(g, c)
    out = rhs_cubic(V, sign)
    oracle = brute_cubic(V, sign)
    assert np.max(np.abs(out.coeffs - oracle)) < 1e-12


def test_rhs_cubic_homogeneity():
    g = Grid(64, np.pi)
    rng = np.random.default_rng(9)
    V = random_complex_field(g, rng, kmax=20)
    out1 = rhs_cubic(V, "-")
    out2 = rhs_cubic(2.0 * V, "-")
    assert np.max(np.abs(out2.coeffs - 8.0 * out1.coeffs)) < 1e-12


# -- exact right side ---------------------------------------------------------

def test_rhs_exact_chain_rule_identity():
    # V_t computed through the chain rule V_t = -(i/2)(1+V) F_t, with
    # F_t = -H F_xx + (u^2 - mean u^2)/2, must match rhs_exact - (-H V_xx).
    g = Grid(256, np.pi)
    rng = np.random.default_rng(21)
    for _ in range(5):
        u = 0.8 * random_real_field(g, rng, kmax=8)
        V = gauge_forward(u)
        pg = padded_grid(g)
        us = coeffs_to_samples(pad_coeffs(u.coeffs, g.n), pg)
        hu = u.coeffs * hilbert_symbol(g) * (1j * g.xi)  # H u_x
        hus = coeffs_to_samples(pad_coeffs(hu, g.n), pg)
        m = np.mean(us * us)
        ft_s = -hus + 0.5 * (us * us - m)
        vs = coeffs_to_samples(pad_coeffs(V.coeffs, g.n), pg)
        vt = unpad_coeffs(samples_to_coeffs(-0.5j * (1.0 + vs) * ft_s, pg), g.n)
        hvxx = hilbert_symbol(g) * (-(g.xi**2)) * V.coeffs
        lhs = vt + hvxx
        rhs = rhs_exact_coeffs(V.coeffs, g)
        scale = max(np.max(np.abs(rhs)), 1e-30)
        # the only defect is the band-edge truncation tail of V (~1e-13 here)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def mean_w_squared(V):
    """Complex mean over the torus of W^2, W = (1 + conj V) V_x, with the
    samples taken through the lattice-order path of `lattice_order`."""
    pg = padded_grid(V.grid)
    vs = lattice_order.to_padded(V.coeffs, pg)
    dvs = lattice_order.to_padded(V.coeffs * (1j * V.grid.xi), pg)
    ws = (1.0 + np.conj(vs)) * dvs
    return complex(np.mean(ws * ws))


def test_rhs_exact_plus_band_is_quadratic_plus_cubic():
    # P_{+hi} of the exact right side == 2i(Q_+ + C_+) - i mean(W^2) V_+
    g = Grid(128, np.pi)
    rng = np.random.default_rng(33)
    for _ in range(5):
        V = random_complex_field(g, rng, kmax=40, amp=0.2)
        full = SpectralField(g, rhs_exact_coeffs(V.coeffs, g))
        mw2 = mean_w_squared(V)
        band = project(full, "+hi").coeffs
        expected = (
            2j * (rhs_quadratic(V, "+").coeffs + rhs_cubic(V, "+").coeffs)
            - 1j * mw2 * project(V, "+hi").coeffs
        )
        scale = max(np.max(np.abs(band)), 1e-30)
        assert np.max(np.abs(band - expected)) <= 1e-12 * scale


def test_rhs_terms_total_band_structure():
    g = Grid(64, np.pi)
    rng = np.random.default_rng(40)
    V = random_complex_field(g, rng, kmax=20, amp=0.1)
    total = SpectralField(g, rhs_terms_total_coeffs(V.coeffs, g))
    full = SpectralField(g, rhs_exact_coeffs(V.coeffs, g))
    # low band comes from the exact right side
    assert (
        np.max(np.abs(project(total, "lo").coeffs - project(full, "lo").coeffs))
        < 1e-15
    )
    # hi bands are exactly the four paraproduct pieces
    hi = (
        2j * (rhs_quadratic(V, "+").coeffs + rhs_cubic(V, "+").coeffs)
        + 2j * (rhs_quadratic(V, "-").coeffs + rhs_cubic(V, "-").coeffs)
    )
    total_hi = project(total, "+hi") + project(total, "-hi")
    assert np.max(np.abs(total_hi.coeffs - hi)) < 1e-15


def _band_oracle(V):
    """The band system assembled piece by piece: the exact right side on the
    low band, 2i (Q_+ + C_+ + Q_- + C_-) on the high bands."""
    g = V.grid
    hi = 2j * sum(rhs_quadratic(V, s).coeffs + rhs_cubic(V, s).coeffs for s in "+-")
    return np.where(region_mask(g.xi, "lo"), rhs_exact_coeffs(V.coeffs, g), hi)


@pytest.mark.parametrize("n", [64, 512, 2048])
def test_rhs_terms_total_fused_matches_piecewise_oracle(n):
    # the bound is relative to the output; a high band taken from the
    # transform of (1 + V) . Pm dx W would carry rounding of the unit term,
    # about eps / amp relative, and fail it at small amp
    rng = np.random.default_rng(n)
    for L, amp in itertools.product((np.pi, 8 * np.pi, 10.0), (1e-3, 0.05, 1.0)):
        g = Grid(n, L)
        V = random_complex_field(g, rng, amp=amp)
        got = rhs_terms_total_coeffs(V.coeffs, g)
        want = _band_oracle(V)
        lo = region_mask(g.xi, "lo")
        # the low band is the exact right side, operation for operation
        np.testing.assert_array_equal(got[lo], want[lo])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _count_transforms(monkeypatch):
    # every transform goes through the FFT-order pair, the base-lattice
    # `coeffs_to_samples`/`samples_to_coeffs` included; a call on an
    # (..., m) stack counts one per transformed row, in "n" and under its
    # row length m, and one gufunc call in "calls", whatever ``out`` it
    # writes to
    counts = {"n": 0, "calls": 0}

    def counted(fn):
        def wrapper(a, *args, **kwargs):
            rows = a.size // a.shape[-1]
            counts["n"] += rows
            counts["calls"] += 1
            counts[a.shape[-1]] = counts.get(a.shape[-1], 0) + rows
            return fn(a, *args, **kwargs)

        return wrapper

    for module in (gauge, spectral):
        for name in ("fft_order_to_samples", "samples_to_fft_order"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    return counts


def test_transforms_per_right_side(monkeypatch):
    # 7 and 5 padded transform rows per field, in 4 gufunc calls whatever
    # the batch: V and V_x stacked, dx W, the stacked halves (Pm dx W, and
    # Pp dx W for the band side) and their products with V
    g = Grid(128, np.pi)
    rng = np.random.default_rng(3)
    V = random_complex_field(g, rng, amp=0.2)
    batch = np.array([random_complex_field(g, rng, amp=0.2).coeffs
                      for _ in range(3)])
    counts = _count_transforms(monkeypatch)
    for fn, rows in ((gauge.rhs_terms_total_coeffs, 7), (gauge.rhs_exact_coeffs, 5)):
        for c in (V.coeffs, batch):
            counts.update(n=0, calls=0)
            fn(c, g)
            assert counts["n"] == rows * (c.size // g.n), fn.__name__
            assert counts["calls"] == 4, fn.__name__


@pytest.mark.parametrize("rhs_mode, per_rhs", [("exact", 5), ("terms", 7)])
@pytest.mark.parametrize("members", [1, 3])
def test_transforms_per_gauged_run(monkeypatch, rhs_mode, per_rhs, members):
    # the min |1 + V| watch reads each state's samples from its right side,
    # so a run takes no base-lattice transform; a run of S steps takes 4 S
    # right sides and one for the final state, and the probe's 8 steps take
    # 4 each, all of per_rhs padded transforms per member in 4 calls
    g = Grid(64, np.pi)
    rng = np.random.default_rng(4)
    fields = [gauge_forward(0.2 * random_real_field(g, rng))
              for _ in range(members)]
    counts = _count_transforms(monkeypatch)
    steps = 5
    if members == 1:
        evolve_gauged(fields[0], T=steps * 1e-4, dt=1e-4, rhs_mode=rhs_mode)
    else:
        evolve_gauged_batch(fields, T=steps * 1e-4, dt=1e-4, rhs_mode=rhs_mode)
    assert counts.get(g.n, 0) == 0
    assert counts.get(2 * g.n) == members * per_rhs * (4 * steps + 1 + 4 * 8)
    assert counts["calls"] == 4 * (4 * steps + 1 + 4 * 8)


@pytest.mark.parametrize("fn", ["rhs_exact_coeffs", "rhs_terms_total_coeffs"])
def test_rows_equal_single_calls_at_trajectory_size(fn):
    # the right sides take (..., n) batches, and each row must equal its
    # single-field call at any batch size: (801, 128), the snapshots of a
    # default `bolab nfe` run, is past numpy's 256 KiB temporary-elision
    # size, where `a * temp` runs as `temp *= a`, and a complex product can
    # round differently with its operands swapped
    g = Grid(128, np.pi)
    rng = np.random.default_rng(801)
    shape = (801, g.n)
    c = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    c /= (1.0 + np.abs(g.k)) ** 1.2
    c[..., 0] = 0.0
    rhs = getattr(gauge, fn)
    got = rhs(c, g)
    for k in range(len(c)):
        assert np.array_equal(got[k], rhs(c[k].copy(), g)), k


@pytest.mark.parametrize("n", [64, 128, 256, 512, 1024, 2048])
@pytest.mark.parametrize("L", [np.pi, 8 * np.pi])
def test_right_sides_equal_lattice_order_oracle(n, L):
    # the FFT-order stages give the values of the lattice-order path, for one
    # field and for a batch; (5, n) is the lemma21 batch, past numpy's
    # 256 KiB temporary-elision size on the doubled lattice at n = 2048
    g = Grid(n, L)
    rng = np.random.default_rng(n)
    for shape in ((n,), (3, n), (5, n)):
        c = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        c /= (1.0 + np.abs(g.k)) ** 1.2
        c[..., 0] = 0.0
        for fn in ("rhs_exact_coeffs", "rhs_terms_total_coeffs"):
            got = getattr(gauge, fn)(c, g)
            want = getattr(lattice_order, fn)(c, g)
            assert got.shape == want.shape and np.array_equal(got, want), fn


def _rough(shape, g, rng):
    c = 0.3 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    c /= (1.0 + np.abs(g.k)) ** 1.2
    c[..., 0] = 0.0
    return c


@pytest.mark.parametrize("n, L", [(8, 8 * np.pi), (16, 8 * np.pi), (32, 8 * np.pi),
                                  (64, np.pi), (128, 2.2 * np.pi)])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_band_side_on_and_off_the_low_band(n, L, batch):
    # on the low band the band side is the exact side, byte for byte; off
    # it, the values of the lattice-order oracle; its Nyquist slot is +0+0j,
    # also where the low band reaches it (the whole lattice at n = 8 and 16
    # with L = 8 pi)
    g = Grid(n, L)
    c = _rough(batch + (n,), g, np.random.default_rng(n))
    got = rhs_terms_total_coeffs(c, g)
    lo = region_mask(g.xi, "lo")
    assert got[..., lo].tobytes() == rhs_exact_coeffs(c, g)[..., lo].tobytes()
    want = lattice_order.rhs_terms_total_coeffs(c, g)
    assert np.array_equal(got[..., ~lo], want[..., ~lo])
    assert got[..., 0].tobytes() == np.zeros(batch, dtype=complex).tobytes()


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_band_side_sums_over_the_whole_lattice(n):
    # the band side is -2i times the pieces plus the masked exact side, as
    # one sum over the whole lattice, byte for byte.  At the edge slots
    # k = -(n/2 - 1) and n/2 - 1, V . Pp dx W and V . Pm dx W vanish up to
    # rounding, so a piece there often has a component that is exactly
    # zero, and the sum gives it the sign of zero of the masked exact side:
    # a sum on the low band alone would move those bits
    g = Grid(n, np.pi)
    rng = np.random.default_rng(n)
    lo = gauge._bands(g).lo
    edge_zeros = 0
    for _ in range(12):
        V = gauge_forward(0.3 * random_real_field(g, rng, decay=1.0))
        pieces = gauge._workspace(g, (n,)).right_side(V.coeffs, None, True)[1]
        edge_zeros += np.count_nonzero(pieces[[1, -1]].view(np.float64) == 0.0)
        want = pieces * -2j + rhs_exact_coeffs(V.coeffs, g) * lo
        assert rhs_terms_total_coeffs(V.coeffs, g).tobytes() == want.tobytes()
    assert edge_zeros  # the data reach the case
    # zero data give +0 in every component of both right sides
    for shape in ((n,), (3, n)):
        zero = np.zeros(shape, dtype=complex)
        for fn in (rhs_exact_coeffs, rhs_terms_total_coeffs):
            assert fn(zero, g).tobytes() == zero.tobytes(), fn.__name__


@pytest.mark.parametrize("fn", ["rhs_exact_coeffs", "rhs_terms_total_coeffs"])
@pytest.mark.parametrize("n", [64, 2048])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_right_sides_return_fresh_arrays(fn, n, batch):
    # the stages write the reused buffers of `_workspace`, but a right side
    # returns an array of its own: the stepper updates k2..k4 in place and
    # keeps k1, and the march stores the right sides it keeps
    g = Grid(n, np.pi)
    rng = np.random.default_rng(n)
    rhs = getattr(gauge, fn)
    c1, c2 = _rough(batch + (n,), g, rng), _rough(batch + (n,), g, rng)
    first = rhs(c1, g)
    kept = first.copy()
    second = rhs(c2, g)
    assert not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    ws = gauge._workspace(g, c1.shape)
    for buf in (ws.pad, ws.samples, ws.halves, ws.work, ws.total, ws.terms):
        assert not np.shares_memory(first, buf)
        assert not np.shares_memory(second, buf)


@pytest.mark.parametrize("fn", ["rhs_exact_coeffs", "rhs_terms_total_coeffs"])
def test_right_side_allocates_less_than_one_doubled_lattice_array(fn):
    # once its buffers exist, a right side at n = 2048 allocates less than
    # one doubled-lattice array (4096 complex values, 64 KiB): only the
    # (n,) array it returns is new
    g = Grid(2048, np.pi)
    c = _rough((g.n,), g, np.random.default_rng(2048))
    rhs = getattr(gauge, fn)
    rhs(c, g)
    tracemalloc.start()
    try:
        rhs(c, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * g.n * 16, peak


def test_workspaces_held_are_bounded():
    # right sides at more batch shapes than the cache holds keep only the
    # buffers of the last WORKSPACES shapes alive
    g = Grid(64, np.pi)
    held_max = gauge.WORKSPACES
    shapes = [(b, g.n) for b in range(1, 3 * held_max + 1)]
    per_field = (4 * 2 * 2 * g.n + 3 * g.n) * 16
    gauge._workspace.cache_clear()
    tracemalloc.start()
    try:
        for shape in shapes:
            gauge.rhs_terms_total_coeffs(np.zeros(shape, dtype=complex), g)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert gauge._workspace.cache_info().currsize == held_max
    last = sum(b for b, _ in shapes[-held_max:]) * per_field
    assert last <= held < last + 256 * 1024, (held, last)
    # every shape's buffers together would not fit that bound
    assert sum(b for b, _ in shapes) * per_field > last + 256 * 1024


@pytest.mark.parametrize("n", [8, 64, 256])
def test_doubled_lattice_constants_in_fft_order(n):
    # each FFT-order constant is its lattice-order array with the halves
    # swapped, and the unpaired Nyquist slot k = -n (FFT index n) is empty
    g = Grid(n, np.pi)
    b = gauge._bands(g)
    for name, want in lattice_order.doubled_masks(g).items():
        want = np.fft.ifftshift(want)
        want[n] = 0.0
        got = getattr(b, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert got[n] == 0.0 and not got.flags.writeable


# -- band derivative size -----------------------------------------------------

def test_profile_time_derivative_sup_matches_piecewise_oracle():
    rng = np.random.default_rng(17)
    for n in (64, 512):
        g = Grid(n, np.pi)
        V = random_complex_field(g, rng, amp=0.3)
        want = max(
            float(np.max(np.abs(rhs_quadratic(V, s).coeffs + rhs_cubic(V, s).coeffs)))
            for s in "+-"
        )
        assert abs(profile_time_derivative_sup(V) - want) <= 1e-14 * want


def test_profile_time_derivative_sup_zero_and_scaling():
    g = Grid(128, np.pi)
    assert profile_time_derivative_sup(
        SpectralField(g, np.zeros(g.n, dtype=complex))
    ) == 0.0
    rng = np.random.default_rng(8)
    u = random_real_field(g, rng, kmax=30)
    lam = 1e-3
    s1 = profile_time_derivative_sup(gauge_forward(lam * u))
    s2 = profile_time_derivative_sup(gauge_forward(2 * lam * u))
    assert 3.5 <= s2 / s1 <= 4.5  # quadratic leading order
