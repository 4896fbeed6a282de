"""Window-restricted scaling integrals: window algebra, the cubic array
form against its per-xi oracle (`integrals_oracle`), scaling laws,
mesh/cutoff convergence, frozen regression pins."""

import warnings

import numpy as np
import pytest

import bolab.integrals as integrals
import integrals_oracle
from bolab.integrals import (
    _cubic_inner,
    _cubic_window,
    _quad_inner,
    _sup_over_xi,
    cubic_integral_I,
    quad_integral_J,
)


def jap(x):
    return np.sqrt(1.0 + x * x)


def _cubic_phase(xi, x1, xi2):
    """Phi at fixed output xi, high slot x1, and middle frequency xi2."""
    xi3 = xi - x1 - xi2
    return (np.abs(xi) * xi - np.abs(x1) * x1
            + np.abs(xi2) * xi2 - np.abs(xi3) * xi3)


def fitted_slope(xs, ys):
    return float(np.polyfit(np.log(xs), np.log(ys), 1)[0])


def test_validation():
    with pytest.raises(ValueError, match="positive"):
        quad_integral_J(0.0, 0.0, 0.5, 0.0, 64.0)
    with pytest.raises(ValueError, match="positive"):
        cubic_integral_I(0.0, -1.0, 0.5, 0.0, 48.0)
    with pytest.raises(ValueError, match="cutoff"):
        quad_integral_J(0.0, 2.0, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError, match="mesh"):
        cubic_integral_I(0.0, 2.0, 0.5, 0.0, 48.0, mesh=4)


def test_cubic_phase_inverse_roundtrip():
    """The closed-form window edge must invert the literal phase formula."""
    rng = np.random.default_rng(7)
    for _ in range(300):
        xi = rng.uniform(1.05, 30.0)
        x1 = xi + rng.uniform(0.01, 40.0)
        t = rng.uniform(-3000.0, 3000.0)
        xi2 = float(_cubic_window(xi, np.array([x1]), np.array([t]))[0])
        xi3 = xi - x1 - xi2
        phi = abs(xi) * xi - abs(x1) * x1 + abs(xi2) * xi2 - abs(xi3) * xi3
        assert phi == pytest.approx(t, rel=1e-10, abs=1e-8)

    # strictly increasing in xi2 at fixed (xi, x1)
    xi, x1 = 3.0, 7.5
    ts = np.linspace(-500.0, 500.0, 101)
    edges = _cubic_window(xi, np.full_like(ts, x1), ts)
    assert np.all(np.diff(edges) > 0)
    # and the forward map agrees on a sign-crossing sweep of xi2
    xi2 = np.linspace(-12.0, 12.0, 97)
    phis = _cubic_phase(xi, x1, xi2)
    assert np.all(np.diff(phis) > 0)


def test_quad_inner_against_dense_mask():
    """Exact-window midpoint vs a dense masked Riemann sum (independent)."""
    s, eps, cutoff = 0.5, 0.0, 64.0
    n_dense = 400_000
    v = (np.arange(n_dense) + 0.5) * (cutoff / n_dense)
    dv = cutoff / n_dense
    for xi, alpha, M in [(2.3, 0.0, 8.0), (5.0, 16.0, 2.0), (11.7, 4.0, 4.0)]:
        mask = np.abs(2.0 * xi * v - alpha) < M
        x1 = xi + v
        wt = (jap(xi) ** (2 * s + 2 * eps + 2) * v ** 2
              / (x1 ** 2 * jap(x1) ** (2 * s) * jap(v) ** (2 * s)))
        dense = float((wt * mask).sum() * dv)
        windowed = float(_quad_inner(np.array([xi]), alpha, M, s, eps,
                                     cutoff, 4096)[0])
        print(f"quad xi={xi} dense={dense:.8f} windowed={windowed:.8f}")
        assert windowed == pytest.approx(dense, rel=5e-3)


def test_cubic_window_against_dense_mask():
    """The masked set is one contiguous interval matching the closed form."""
    cutoff = 32.0
    n_dense = 800_000
    xi2 = -cutoff + (np.arange(n_dense) + 0.5) * (2 * cutoff / n_dense)
    step = 2 * cutoff / n_dense
    for xi, x1, alpha, M in [(2.5, 6.0, 0.0, 4.0), (4.0, 9.5, -12.0, 2.0),
                             (1.8, 20.0, 30.0, 6.0)]:
        xi3 = xi - x1 - xi2
        phi = abs(xi) * xi - abs(x1) * x1 + np.abs(xi2) * xi2 - np.abs(xi3) * xi3
        mask = np.abs(phi - alpha) < M
        idx = np.nonzero(mask)[0]
        assert idx.size > 0
        assert np.all(np.diff(idx) == 1)  # single interval
        lo = float(_cubic_window(xi, np.array([x1]), np.array([alpha - M]))[0])
        hi = float(_cubic_window(xi, np.array([x1]), np.array([alpha + M]))[0])
        assert lo == pytest.approx(xi2[idx[0]], abs=2 * step)
        assert hi == pytest.approx(xi2[idx[-1]], abs=2 * step)


def test_cubic_inner_against_dense_2d():
    """Graded window quadrature vs an independent uniform masked 2-D sum."""
    xi, alpha, M, s, eps, cutoff = 2.5, 0.0, 4.0, 0.5, 0.0, 16.0
    n1, n2 = 2500, 5000
    x1 = xi + (np.arange(n1) + 0.5) * ((cutoff - xi) / n1)
    d1 = (cutoff - xi) / n1
    xi2 = -cutoff + (np.arange(n2) + 0.5) * (2 * cutoff / n2)
    d2 = 2 * cutoff / n2
    total = 0.0
    for a, da in zip(x1, np.full(n1, d1)):
        xi3 = xi - a - xi2
        phi = xi * xi - a * a + np.abs(xi2) * xi2 - np.abs(xi3) * xi3
        mask = np.abs(phi - alpha) < M
        eta = xi - a
        wt = (jap(xi) ** (2 * s + 2 * eps + 2) * eta ** 2
              / (a ** 2 * jap(a) ** (2 * s)
                 * jap(xi2) ** (2 * s + 2) * jap(xi3) ** (2 * s)))
        total += float((wt * mask).sum()) * d2 * da
    windowed = float(_cubic_inner(np.array([xi]), alpha, M, s, eps, cutoff,
                                  512)[0])
    print(f"cubic 2d dense={total:.6f} windowed={windowed:.6f}")
    assert windowed == pytest.approx(total, rel=2e-2)


# (s, eps) pairs, windows (alpha, M) with alpha of both signs, and cutoffs
# of the array-form checks against the per-xi oracle
_CUBIC_PARAMS = [(0.5, 0.0), (0.6, 0.05), (0.75, 0.1)]
_CUBIC_WINDOWS = [(0.0, 8.0), (8.0, 4.0), (-8.0, 4.0), (32.0, 2.0),
                  (-64.0, 16.0)]
_CUBIC_CUTOFFS = [10.0, 48.0, 96.0]


def _cubic_xis(cutoff):
    """37 log-spaced xi up to the cutoff, whose span is empty."""
    return np.geomspace(1.001, cutoff, 37)


@pytest.mark.parametrize("cutoff", _CUBIC_CUTOFFS)
@pytest.mark.parametrize("s,eps", _CUBIC_PARAMS)
def test_cubic_inner_matches_per_xi_oracle(s, eps, cutoff):
    """The array form, one power per node, is the oracle's function at the
    same nodes: equal per xi to 1e-14 relative, and exactly 0.0 where the
    oracle's window is empty."""
    xis = _cubic_xis(cutoff)
    for alpha, M in _CUBIC_WINDOWS:
        got = _cubic_inner(xis, alpha, M, s, eps, cutoff, 64)
        want = np.array([integrals_oracle.cubic_inner(x, alpha, M, s, eps,
                                                      cutoff, 64)
                         for x in xis])
        assert got.shape == xis.shape
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (alpha, M)


@pytest.mark.parametrize("mesh,cutoff", [(64, 48.0), (40, 96.0), (96, 10.0)])
def test_cubic_integral_chunks_match_per_xi_oracle(monkeypatch, mesh, cutoff):
    """cubic_integral_I hands _cubic_inner the mesh pass and the zoom pass
    in chunks of CUBIC_CHUNK_NODES nodes, the last one short where a pass
    is no multiple of the chunk, and finds the oracle's sup to 1e-14
    relative."""
    chunk = integrals.CUBIC_CHUNK_NODES // (mesh * mesh)
    n = max(mesh, int(round(mesh * np.log2(cutoff) / 4.0)))
    split = [min(chunk, m - i) for m in (n, mesh) for i in range(0, m, chunk)]
    sizes = []

    def spy(xi, *args):
        sizes.append(len(xi))
        return _cubic_inner(xi, *args)

    monkeypatch.setattr(integrals, "_cubic_inner", spy)
    for (s, eps), (alpha, M) in zip(_CUBIC_PARAMS, _CUBIC_WINDOWS[1:]):
        sizes.clear()
        got = cubic_integral_I(alpha, M, s, eps, cutoff, mesh=mesh)
        want = _sup_over_xi(
            lambda xis: np.array([integrals_oracle.cubic_inner(
                x, alpha, M, s, eps, cutoff, mesh) for x in xis]),
            cutoff, mesh)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)
        assert sizes == split


def test_cubic_inner_at_the_cutoff_is_exact_zero():
    """An xi with no span below the cutoff integrates to exactly 0.0, alone
    or beside live xi, with no floating-point warning."""
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        assert _cubic_inner(np.array([48.0]), 0.0, 8.0, 0.5, 0.0, 48.0,
                            64).tolist() == [0.0]
        mixed = _cubic_inner(np.array([48.0, 2.0, 50.0]), 0.0, 8.0, 0.5, 0.0,
                             48.0, 64)
    assert mixed[0] == 0.0 and mixed[2] == 0.0
    assert mixed[1] == pytest.approx(
        integrals_oracle.cubic_inner(2.0, 0.0, 8.0, 0.5, 0.0, 48.0, 64),
        rel=1e-14)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="np.longdouble is no wider than float here")
def test_cubic_inner_rounds_no_worse_than_per_xi_oracle():
    """Against the same nodes weighed in np.longdouble, the array form's
    largest and mean relative errors are no larger than the oracle's."""
    old, new = [], []
    for s, eps in _CUBIC_PARAMS:
        for cutoff in _CUBIC_CUTOFFS:
            xis = _cubic_xis(cutoff)[:-1:3]
            for alpha, M in _CUBIC_WINDOWS:
                got = _cubic_inner(xis, alpha, M, s, eps, cutoff, 64)
                for x, g in zip(xis, got):
                    ref = integrals_oracle.cubic_inner_longdouble(
                        x, alpha, M, s, eps, cutoff, 64)
                    if ref == 0.0:
                        continue
                    o = integrals_oracle.cubic_inner(x, alpha, M, s, eps,
                                                     cutoff, 64)
                    old.append(float(abs((o - ref) / ref)))
                    new.append(float(abs((g - ref) / ref)))
    print(f"relative error, {len(new)} xi: oracle max {max(old):.3g} mean "
          f"{np.mean(old):.3g}; array form max {max(new):.3g} mean "
          f"{np.mean(new):.3g}")
    assert len(new) > 400
    assert max(new) <= max(old)
    assert np.mean(new) <= np.mean(old)


def test_empty_windows_are_zero():
    # attainable |phase| is bounded by the box, so a huge alpha sees nothing
    assert quad_integral_J(1e6, 1.0, 0.5, 0.0, 64.0) == 0.0
    assert cubic_integral_I(1e6, 1.0, 0.5, 0.0, 48.0) == 0.0
    assert quad_integral_J(2 * 64.0 ** 2 + 10.0, 5.0, 0.5, 0.0, 64.0) == 0.0


def test_quad_alpha_uses_magnitude():
    a = quad_integral_J(16.0, 2.0, 0.5, 0.0, 64.0)
    b = quad_integral_J(-16.0, 2.0, 0.5, 0.0, 64.0)
    assert a == b


def test_cubic_alpha_is_signed():
    """The cubic phase is mostly negative on its support, so the window at
    -alpha carries far more mass than at +alpha."""
    plus = cubic_integral_I(8.0, 4.0, 0.5, 0.0, 48.0)
    minus = cubic_integral_I(-8.0, 4.0, 0.5, 0.0, 48.0)
    print(f"cubic alpha sign: I(+8)={plus:.6f} I(-8)={minus:.6f}")
    assert minus > 5.0 * plus


def test_quad_scaling_and_stability():
    """Growth in M near slope 1, flat in alpha, stable under refinement."""
    s, eps, cutoff = 0.5, 0.0, 64.0
    Ms = [2.0, 4.0, 8.0, 16.0, 32.0]
    vals = [quad_integral_J(0.0, M, s, eps, cutoff) for M in Ms]
    m_slope = fitted_slope(Ms, vals)
    alphas = [4.0, 8.0, 16.0, 32.0]
    avals = [quad_integral_J(a, 2.0, s, eps, cutoff) for a in alphas]
    a_slope = fitted_slope(alphas, avals)
    print(f"J slopes: M {m_slope:.3f} (<=1.15)  alpha {a_slope:.3f} (<=0.15)")
    assert 0.3 < m_slope <= 1.15
    assert a_slope <= 0.15

    base = quad_integral_J(0.0, 8.0, s, eps, cutoff)
    half = quad_integral_J(0.0, 8.0, s, eps, cutoff, mesh=48)
    wide = quad_integral_J(0.0, 8.0, s, eps, 2 * cutoff)
    assert abs(half - base) / base < 0.05
    assert abs(wide - base) / base < 0.05


@pytest.mark.parametrize("eps,m_cap,a_cap", [(0.0, 1.15, 0.15),
                                             (0.4, 1.55, 0.55)])
def test_cubic_scaling_and_stability(eps, m_cap, a_cap):
    """Exponent caps are 1 + 2*gamma and 2*gamma plus 0.15 of slack."""
    s, cutoff = 0.5, 48.0
    Ms = [2.0, 4.0, 8.0, 16.0, 32.0]
    vals = [cubic_integral_I(0.0, M, s, eps, cutoff) for M in Ms]
    m_slope = fitted_slope(Ms, vals)
    alphas = [4.0, 8.0, 16.0, 32.0]
    avals = [cubic_integral_I(a, 2.0, s, eps, cutoff) for a in alphas]
    a_slope = fitted_slope(alphas, avals)
    print(f"I(eps={eps}) slopes: M {m_slope:.3f} (<={m_cap})  "
          f"alpha {a_slope:.3f} (<={a_cap})")
    assert 0.3 < m_slope <= m_cap
    assert a_slope <= a_cap

    base = cubic_integral_I(0.0, 8.0, s, eps, cutoff)
    half = cubic_integral_I(0.0, 8.0, s, eps, cutoff, mesh=32)
    wide = cubic_integral_I(0.0, 8.0, s, eps, 2 * cutoff)
    assert abs(half - base) / base < 0.05
    assert abs(wide - base) / base < 0.05


def test_monotone_in_window_width():
    assert (quad_integral_J(0.0, 32.0, 0.5, 0.0, 64.0)
            > quad_integral_J(0.0, 2.0, 0.5, 0.0, 64.0))
    assert (cubic_integral_I(0.0, 32.0, 0.5, 0.0, 48.0)
            > cubic_integral_I(0.0, 2.0, 0.5, 0.0, 48.0))


def test_regression_pins():
    """Values frozen from a mesh-convergence study of this quadrature."""
    pins = [
        (quad_integral_J(0.0, 8.0, 0.5, 0.0, 64.0), 0.5933478518626716),
        (quad_integral_J(16.0, 2.0, 0.5, 0.0, 64.0), 0.29290119160773226),
        (quad_integral_J(0.0, 32.0, 0.5, 0.0, 64.0), 1.8459190111405486),
        (cubic_integral_I(0.0, 8.0, 0.5, 0.0, 48.0), 1.0268555361021439),
        (cubic_integral_I(8.0, 4.0, 0.5, 0.0, 48.0), 0.07035320000633985),
        (cubic_integral_I(0.0, 8.0, 0.5, 0.4, 48.0), 1.7931998527964303),
        (cubic_integral_I(-8.0, 4.0, 0.5, 0.0, 48.0), 1.022994918947424),
    ]
    for got, want in pins:
        assert got == pytest.approx(want, rel=1e-12)
