"""Gauge transform for u_t + H u_xx = u u_x and the pieces of its evolution.

The gauge variable is V = exp(-i F / 2) - 1, where F is the zero-mean
antiderivative of u.  The map has the exact pointwise inverse

    u = 2i (1 + conj(V)) V_x.

`gauge_forward(u)` returns the field V, e.g. ``V0 = gauge_forward(u0)``,
and refuses a ``u`` with a mean; `gauge_inverse(V)` applies the inverse,
realifies it with no warning and refuses a V with min |1 + V| below
GAUGE_FLOOR (`require_invertible`).  Along the flow V satisfies (with
W = (1 + conj(V)) V_x and Pm / Pp the negative / positive frequency
projections)

    V_t + H V_xx = -2i (1 + V) Pm dx W + 2i Pm dx^2 V - i mean(W^2) (1 + V).

Restricted to frequencies xi > 1 the right side collapses to a paraproduct
pair: a quadratic piece -P_{+hi}(V_+ . Pm dx^2 V) and a cubic piece
-P_{+hi}(V_+ . Pm dx (conj(V) V_x)), each coupled with coefficient 2i, plus
the mean correction.  Those band pieces (`rhs_quadratic`, `rhs_cubic`) are
the objects the normal form machinery expands; `rhs_exact_coeffs` is the full
right side and is what the reference solver integrates.

Since Pm dx^2 V + Pm dx (conj(V) V_x) = Pm dx W, the two pieces of one sign
fuse into a single product,

    Q_+ + C_+ = -P_{+hi}(V_{+hi} . Pm dx W),
    Q_- + C_- = -P_{-hi}(V_{-hi} . Pp dx W),

which is the exact nonlinearity with (1 + V) replaced by a band projection
of V.  The projection can be dropped: Pm dx W holds only frequencies < 0
and 1 + V_lo + V_{-hi} only frequencies <= 1, so their product never
reaches xi > 1, and on the doubled lattice the aliases of V . Pm dx W land
outside the base band.  Hence, with the mirror statement for the -hi band,

    Q_+ + C_+ = -P_{+hi}(V . Pm dx W) = -P_{+hi}((1 + V) . Pm dx W),
    Q_- + C_- = -P_{-hi}(V . Pp dx W).

So both right sides start from `_w_stage`: the samples of V and V_x, and
the coefficients of W and of dx W (3 padded transforms).  `_exact` takes
the base band of (1 + V) Pm dx W as Pm dx W, read off its padded
coefficients with no transform, plus V . Pm dx W (samples of Pm dx W and
one forward transform, 2).  It sums the two in FFT order and gathers the
base band once, with the factor -2i (-1)^k, which carries the -2i of the
right side: 5 transforms for the exact right side.  `_band_terms` takes the
+hi band from that V term alone and adds V . Pp dx W for the -hi band (2):
7 transforms.  The unit term stays out of the high-band pieces: carried
through a transform with them, its rounding would be relative to Pm dx W,
about eps / amp relative to the band pieces at amplitude amp.
`rhs_quadratic` and `rhs_cubic` keep the piece-by-piece form as the oracles
of these identities.

The samples of V and V_x on the doubled lattice are taken in one place,
`_v_samples` (2 transforms, in one stacked inverse call).  The first stage
of both right sides, the inverse map and `rhs_cubic` all start from it.
So does the min |1 + V| watch of `dynamics`: both right sides take an
optional ``watch``, called with the even entries of those samples of V,
which sit at the base-lattice points.

The stages build their arrays in place, and each complex product keeps one
operand order (``np.multiply(vs, s, out=s)``, not ``s *= vs``): numpy may
round ``a * b`` and ``b * a`` differently in the last bit, and it evaluates
``a * temp`` as ``temp *= a`` once the temporary reaches 256 KiB, so a large
batch would otherwise round its rows unlike the single fields.

All products are dealiased on the doubled lattice.  Base-band products go
through `spectral.to_padded`/`from_padded`/`dealiased_product`; cascaded
products keep their intermediates on the doubled lattice so the restriction
to the base band is exact.  Every doubled-lattice array here is in FFT order
with (-1)^k applied (see `spectral`): the padded coefficients of V and of
dx W in the stages, the `rhs_cubic` intermediate, and the derivative symbol
and half-line masks of `_bands`.  They pass through the FFT-order pair
`spectral.fft_order_to_samples`/`samples_to_fft_order`, so no padded
transform swaps halves or applies (-1)^k, and each scale rides on the
transform as pocketfft's factor (dx forward, (1/2n) (1/dx) inverse), so no
scale takes a pass of its own.  Base-band coefficient arrays (inputs,
outputs and the base masks of `_bands`) stay in lattice order.  `_bands`
holds every per-grid constant that a right side reads, so a right side
makes one cache lookup.

The coefficient-array right sides (`rhs_exact_coeffs`,
`rhs_terms_total_coeffs` and their stages) act on the last axis, so an
(..., n) batch of fields on one grid is one call; each row equals the
single-field result bit for bit.
"""

from functools import lru_cache
from types import SimpleNamespace

import numpy as np

from .spectral import (
    ArgumentError,
    SpectralField,
    antiderivative_symbol,
    conj_reflect,
    dealiased_product,
    fft_order_to_samples,
    from_padded,
    gather_fft_order,
    pad_fft_order,
    padded_grid,
    region_mask,
    samples_to_fft_order,
    sobolev_norm,
    to_padded,
)

# Smallest allowed min_x |1 + V| before the inverse map is refused.
GAUGE_FLOOR = 0.1


@lru_cache(maxsize=64)
def _bands(grid):
    """Every per-grid constant that a right side reads, built once, so that
    a right side makes one cache lookup.

    On the doubled lattice pg (FFT order, with the unpaired Nyquist slot
    k = -n, FFT index n, zeroed): the derivative symbol ``ixi2`` and the
    half-line masks ``minus2``/``plus2``.  On the base lattice (lattice
    order): the band masks ``lo``, ``plus_hi``, ``minus_hi`` and ``linear``,
    the symbol of 2i Pm dx^2.  Masks are complex 0/1 arrays, the values
    numpy casts a boolean mask to in a complex product, so products are
    unchanged.  ``sign`` and ``gather`` are the factors (-1)^k and
    -2i (-1)^k (the gather factor of the exact right side) as the halves
    over k = 0 .. n/2-1 and k = -n/2 .. -1 that `spectral.pad_fft_order`
    and `gather_fft_order` take.  Also m = 2n, mid = n/2 (the lattice index
    of k = 0) and two_l = 2L.
    """
    pg = padded_grid(grid)
    n = grid.n
    xi, xi2 = grid.xi, np.fft.ifftshift(pg.xi)
    masks = {"minus2": xi2 < 0.0, "plus2": xi2 > 0.0}
    arrays = {name: m.astype(np.complex128) for name, m in masks.items()}
    arrays["ixi2"] = 1j * xi2
    for a in arrays.values():
        a[n] = 0.0
    for name, region in (("lo", "lo"), ("plus_hi", "+hi"), ("minus_hi", "-hi")):
        arrays[name] = region_mask(xi, region).astype(np.complex128)
    arrays["linear"] = 2j * (-(xi**2)) * (xi < 0.0)
    mid, phase = n // 2, grid._phase
    factor = -2j * phase
    halves = {"sign": (phase[mid:], phase[:mid]),
              "gather": (factor[mid:], factor[:mid])}
    for a in (*arrays.values(), *halves["sign"], *halves["gather"]):
        a.setflags(write=False)
    return SimpleNamespace(pg=pg, m=2 * n, mid=mid,
                           two_l=2.0 * grid.half_length, **arrays, **halves)


def antiderivative(u):
    """Zero-mean antiderivative F (the zero mode of F is fixed to 0).

    A nonzero mean has no periodic antiderivative: a zero mode above 1e-13
    of the L2 norm is an ArgumentError naming ``u``; one below it is
    rounding, and the symbol drops it.
    """
    g = u.grid
    ratio = abs(u.coeffs[g.n // 2]) / max(sobolev_norm(u, 0), 1e-300)
    if ratio > 1e-13:
        raise ArgumentError("u", f"must have zero mean to have a periodic "
                            f"antiderivative, got |u_hat(0)| / ||u|| = {ratio:.2g}")
    return SpectralField(g, u.coeffs * antiderivative_symbol(g))


def gauge_forward(u):
    """Gauge a real zero-mean field: V = exp(-i F / 2) - 1, F = dx^{-1} u.

    The exponential is evaluated pointwise on the doubled lattice and then
    restricted to the base band, so the returned V is the band-limited gauge
    variable.  Data with a nonzero mean is refused (see `antiderivative`).
    """
    g = u.grid
    F = antiderivative(u)
    pg = padded_grid(g)
    v_samples = np.exp(-0.5j * to_padded(F.coeffs, pg)) - 1.0
    return SpectralField(g, from_padded(v_samples, pg))


def _v_samples(c, b):
    """Samples of V and V_x on the doubled lattice b.pg, a (2, ..., 2n) array.
    V is padded straight into one buffer, and V_x is its whole-buffer product
    with i xi (zero off the base band, as the padding is); one inverse call:
    two padded transforms."""
    buf = np.zeros((2,) + c.shape[:-1] + (b.m,), dtype=np.complex128)
    np.multiply(pad_fft_order(c, b.sign, buf[0]), b.ixi2, out=buf[1])
    return fft_order_to_samples(buf, b.pg)


def require_invertible(vs, at=None):
    """Refuse samples vs of V (rows on the last axis) with min |1 + V| below
    GAUGE_FLOOR; ``at(margin)``, given the per-row minima, places the error."""
    margin = np.min(np.abs(1.0 + vs), axis=-1)
    if margin.min() < GAUGE_FLOOR:
        where = f" at {at(margin)}" if at else ""
        raise ValueError(f"gauge not invertible at this amplitude: min |1 + V| "
                         f"= {margin.min():.3g} < {GAUGE_FLOOR}{where}")


def gauge_inverse(V):
    """Invert the gauge: u = 2i (1 + conj V) V_x, realified.

    Raises ValueError when min |1 + V| < GAUGE_FLOOR (the phase F = 2i log(1+V)
    is no longer well defined on the lattice at that amplitude).
    """
    g = V.grid
    b = _bands(g)
    vs, dvs = _v_samples(V.coeffs, b)
    require_invertible(vs)
    uc = from_padded(2j * (1.0 + np.conj(vs)) * dvs, b.pg)
    return SpectralField(g, 0.5 * (uc + conj_reflect(uc)))


def _signs(sign):
    if sign == "+":
        return "+hi", "-"
    if sign == "-":
        return "-hi", "+"
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


def rhs_quadratic(V, sign):
    """Quadratic band piece -P_{hi}(V_hi . P_opp dx^2 V) for the given sign."""
    g = V.grid
    hi, opp = _signs(sign)
    a = V.coeffs * region_mask(g.xi, hi)
    b = V.coeffs * (-(g.xi**2)) * region_mask(g.xi, opp)
    out = -dealiased_product(a, b, padded_grid(g)) * region_mask(g.xi, hi)
    return SpectralField(g, out)


def rhs_cubic(V, sign):
    """Cubic band piece -P_{hi}(V_hi . P_opp dx (conj(V) V_x))."""
    g = V.grid
    b = _bands(g)
    pg = b.pg
    hi, opp = _signs(sign)
    vs, dvs = _v_samples(V.coeffs, b)
    # stays on the doubled lattice, in FFT order
    inner = samples_to_fft_order(np.conj(vs) * dvs, pg.dx) * b.ixi2
    inner *= b.plus2 if opp == "+" else b.minus2
    s_hi = to_padded(V.coeffs * region_mask(g.xi, hi), pg)
    out = -from_padded(s_hi * fft_order_to_samples(inner, pg), pg)
    out *= region_mask(g.xi, hi)
    return SpectralField(g, out)


def _w_stage(c, b, watch=None):
    """First stage shared by the exact and band right sides.

    Returns the samples of V, the padded coefficients dwc of dx W with
    W = (1 + conj V) V_x (FFT order), and mean(W^2) over the last axis (one
    value per field).  Three padded transforms.  ``watch``, if given, is
    called first with the even entries of the samples of V, its values at
    the base-lattice points.
    """
    vs, dvs = _v_samples(c, b)
    if watch is not None:
        watch(vs[..., ::2])
    ws = np.conj(vs)
    ws += 1.0
    np.multiply(ws, dvs, out=ws)
    dwc = samples_to_fft_order(ws, b.pg.dx)
    np.multiply(dwc, b.ixi2, out=dwc)
    np.multiply(ws, ws, out=ws)
    return vs, dwc, np.add.reduce(ws, axis=-1) / b.m


def _v_times(vs, half, b):
    """dx FFT(V . g) in FFT order, where g has the padded coefficients `half`
    (FFT order): the samples of g, times those of V, transformed back.  Two
    padded transforms."""
    s = fft_order_to_samples(half, b.pg)
    return samples_to_fft_order(np.multiply(vs, s, out=s), b.pg.dx)


def _exact(c, b, watch):
    """Exact right side of c, and what the band side reads of its stages.

    The base band of (1 + V) Pm dx W is the unit term Pm dx W, read off dwc
    with no transform, plus the V term V . Pm dx W (two padded transforms).
    The two are summed in FFT order and gathered once, the gather factor
    carrying the -2i of the right side.  The mean term has one value per
    field, taken as a (..., 1) column so that a scalar and a batch both
    broadcast.  Returns the right side, the samples of V, dwc and the V term
    v_minus (FFT order, dx times its transform).  Five padded transforms.
    """
    vs, dwc, mean_w2 = _w_stage(c, b, watch)
    pm = np.multiply(dwc, b.minus2)
    v_minus = _v_times(vs, pm, b)
    pm += v_minus
    out = gather_fft_order(pm, b.gather)
    out += b.linear * c
    mean_term = -1j * mean_w2
    out += np.multiply(mean_term[..., None], c)
    out[..., b.mid] += mean_term * b.two_l
    out[..., 0] = 0.0
    return out, vs, dwc, v_minus


def _band_terms(c, b, watch):
    """The exact right side, and P_{+hi}(V . Pm dx W) + P_{-hi}(V . Pp dx W),
    the high-band pieces before their factor -2i: the V term of `_exact`
    on the xi > 1 band, and V . Pp dx W, taken here (two padded transforms),
    on the xi < -1 band.  Seven padded transforms."""
    out, vs, dwc, v_minus = _exact(c, b, watch)
    v_plus = _v_times(vs, np.multiply(dwc, b.plus2, out=dwc), b)
    pieces = gather_fft_order(v_minus, b.sign)
    np.multiply(pieces, b.plus_hi, out=pieces)
    v_plus = gather_fft_order(v_plus, b.sign)
    pieces += np.multiply(v_plus, b.minus_hi, out=v_plus)
    return out, pieces


def rhs_exact_coeffs(c, g, watch=None):
    """Coefficient array of the full gauged right side (everything but -H V_xx).

    V_t + H V_xx = -2i (1 + V) Pm dx W + 2i Pm dx^2 V - i mean(W^2) (1 + V).
    Valid for any complex band-limited V, not only gauge images.  ``c`` may
    be an (..., n) batch of fields on the grid g, one per row.  Five padded
    transforms.  ``watch``, if given, is called with the samples of V on the
    base lattice, which the first stage takes anyway (see `_w_stage`).
    """
    return _exact(c, _bands(g), watch)[0]


def rhs_terms_total_coeffs(c, g, watch=None):
    """Right side of the truncated band system used by the normal form layer:

        2i (Q_+ + Q_- + C_+ + C_-)  +  P_lo(full right side).

    The high bands keep only the four paraproduct pieces (the mean correction
    is dropped there); the low band keeps the exact forcing, which is never
    expanded.  The +hi band is -2i P_{+hi}(V . Pm dx W), the V term the
    exact right side computes anyway, and the -hi band its mirror: seven
    padded transforms (see the module docstring).  ``c`` may be an (..., n)
    batch and ``watch`` is called as in `rhs_exact_coeffs`.
    """
    b = _bands(g)
    total, pieces = _band_terms(c, b, watch)
    total *= b.lo
    total += np.multiply(pieces, -2j, out=pieces)
    return total


def profile_time_derivative_sup(V):
    """sup_xi |Q_hat + C_hat| over both signs (the band time-derivative size).

    The evolution couples these pieces with coefficient 2i; the returned
    value carries no such constant.  The two signs live on disjoint bands,
    so this is the sup of P_{+hi}(V . Pm dx W) and P_{-hi}(V . Pp dx W),
    the two V terms of the band system (seven padded transforms).
    """
    _, pieces = _band_terms(V.coeffs, _bands(V.grid), None)
    return float(np.max(np.abs(pieces)))
