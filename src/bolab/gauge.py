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

So both right sides are one body, `_right_side`, in four transform calls.
Its first stage takes the samples of V and V_x (one stacked inverse call,
2 padded transforms) and the coefficients of dx W, W = (1 + conj V) V_x
(one forward call, 1).  The exact side takes the base band of
(1 + V) Pm dx W as Pm dx W, read off its padded coefficients with no
transform, plus V . Pm dx W (samples of Pm dx W, one inverse call, and one
forward call, 2).  It sums the two in FFT order and gathers the base band
once, with the factor -2i (-1)^k, which carries the -2i of the right side:
5 transform rows in 4 calls.  The band side stacks Pp dx W under Pm dx W in
those two calls, so they transform two rows each: it takes the +hi band
from the V term of the exact side alone and the -hi band from V . Pp dx W,
7 rows in 4 calls.  The unit term stays out of the high-band pieces:
carried through a transform with them, its rounding would be relative to
Pm dx W, about eps / amp relative to the band pieces at amplitude amp.
`rhs_quadratic` and `rhs_cubic` keep the piece-by-piece form as the oracles
of these identities.

The samples of V and V_x on the doubled lattice are taken in one place,
`_v_samples`.  Both right sides, the inverse map and `rhs_cubic` all start
from it.  So does the min |1 + V| watch of `dynamics`: both right sides
take an optional ``watch``, called with the even entries of those samples
of V, which sit at the base-lattice points.

The stages build their arrays in place, and each complex product keeps one
operand order (``np.multiply(vs, row, out=row)``, not ``row *= vs``): numpy
may round ``a * b`` and ``b * a`` differently in the last bit, and it
evaluates ``a * temp`` as ``temp *= a`` once the temporary reaches 256 KiB,
so a large batch would otherwise round its rows unlike the single fields.

Buffers: a right side writes every doubled-lattice array and every
base-lattice intermediate with ``out=`` into the buffers of `_workspace`, one
set per (grid, batch shape), made on first use and reused by each later
call; the last `WORKSPACES` sets are kept.  So after its first call a right
side allocates only what it returns, which is always a fresh array: the
IF-RK4 step updates its stages in place, and the march keeps the right
sides of its snapshots.  Without the buffers, a (2, 2n) array at
n = 2048 is 128 KiB, glibc's mmap threshold: freed, it goes back to the
system, and the next call faults it in again.  Each entry also holds the
right side bound to its buffers (`_right_side`): every view, run and
factor that a call reads is resolved once, when the entry is made, so a
call makes one cache lookup and no slice of a buffer.  The buffers make the
right sides not re-entrant: a ``watch`` must not call one, nor may two
threads run one at one grid and batch shape at once (bolab starts no
thread).

The band side forms the exact right side on the whole lattice and masks it
with P_lo, although only the low band keeps it.  Formed on the low band
alone, it would move bits: the masked exact side is a signed zero off the
low band, and where a piece has a component that is exactly zero the sum
takes that zero's sign from it.  That happens at the edge slots
k = -(n/2 - 1) and n/2 - 1, where V . Pp dx W and V . Pm dx W vanish up to
rounding, in about a third of the calls on rough data.  Telling those calls
apart costs about what the low band saves at n <= 1024.

All products are dealiased on the doubled lattice.  Base-band products go
through `spectral.to_padded`/`from_padded`/`dealiased_product`; cascaded
products keep their intermediates on the doubled lattice so the restriction
to the base band is exact.  Every doubled-lattice array here is in FFT order
with (-1)^k applied (see `spectral`): the padded coefficients of V and of
dx W in the stages, the `rhs_cubic` intermediate, and the derivative symbol
and half-line masks of `_bands`.  The base band sits in each as two runs,
which this module takes from `spectral.band_runs`, `lattice_runs` and
`band_signs` and never slices out itself.  They pass through the FFT-order
pair `spectral.fft_order_to_samples`/`samples_to_fft_order`, so no padded
transform swaps halves or applies (-1)^k, and each scale rides on the
transform as pocketfft's factor (dx forward, (1/2n) (1/dx) inverse), so no
scale takes a pass of its own.  Base-band coefficient arrays (inputs,
outputs and the base masks of `_bands`) stay in lattice order.  `_bands`
holds every per-grid constant that a right side reads, and `_workspace`
holds them beside the buffers, so a right side makes one cache lookup.

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
    band_runs,
    band_signs,
    conj_reflect,
    dealiased_product,
    fft_order_to_samples,
    from_padded,
    lattice_runs,
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
    """Every per-grid constant that a right side reads, built once and held
    by each `_workspace` of the grid beside its buffers.  The right sides
    write only the buffers; every array here is read-only.

    On the doubled lattice pg (FFT order, with the unpaired Nyquist slot
    k = -n, FFT index n, zeroed): the derivative symbol ``ixi2`` and the
    half-line masks ``minus2``/``plus2``.  On the base lattice (lattice
    order): the band masks ``lo``, ``plus_hi``, ``minus_hi`` and ``linear``,
    the symbol of 2i Pm dx^2.  Masks are complex 0/1 arrays, the values
    numpy casts a boolean mask to in a complex product, so products are
    unchanged.  ``sign`` and ``gather`` are the factors (-1)^k and
    -2i (-1)^k (the gather factor of the exact right side) over the two
    runs of the base band, k = 0 .. n/2-1 and k = -n/2 .. -1, that
    `spectral.band_signs` gives.  Also mid = n/2 (the lattice index of
    k = 0) and two_l = 2L.
    """
    pg = padded_grid(grid)
    n = grid.n
    xi, xi2 = grid.xi, np.concatenate(lattice_runs(pg.xi))
    masks = {"minus2": xi2 < 0.0, "plus2": xi2 > 0.0}
    arrays = {name: m.astype(np.complex128) for name, m in masks.items()}
    arrays["ixi2"] = 1j * xi2
    for a in arrays.values():
        a[n] = 0.0
    for name, region in (("lo", "lo"), ("plus_hi", "+hi"), ("minus_hi", "-hi")):
        arrays[name] = region_mask(xi, region).astype(np.complex128)
    arrays["linear"] = 2j * (-(xi**2)) * (xi < 0.0)
    sign = band_signs(pg)
    gather = tuple(-2j * run for run in sign)
    for a in (*arrays.values(), *gather):
        a.setflags(write=False)
    return SimpleNamespace(pg=pg, mid=n // 2, two_l=2.0 * grid.half_length,
                           sign=sign, gather=gather, **arrays)


# Workspaces held at once, the last used kept: one per (grid, batch shape)
# that a right side runs at.
WORKSPACES = 8


@lru_cache(maxsize=WORKSPACES)
def _workspace(grid, shape):
    """The constants `_bands(grid)` as ``b``, the buffers that a right side
    of a ``shape`` = (..., n) array writes with ``out=``, and the right
    side bound to them, ``right_side`` (see `_right_side`), so that a call
    allocates no doubled-lattice array and makes one cache lookup.

    Four (2, ..., 2n) doubled-lattice buffers: ``pad`` (V and V_x padded;
    no call writes its entries off the base band, which stay zero from its
    creation on), ``samples`` (their samples; later the V terms), ``halves``
    (dwc in row 1; then the halves Pm dx W and Pp dx W) and ``work`` (W in
    row 0; then the samples of the halves and their products with V).  A
    call writes each entry of the last three before it reads it.  Two
    base-lattice buffers: ``total`` (..., n), the gathered V term (the exact
    right side inside the band side), and ``terms`` (2, ..., n), whose row 0
    holds one product of the exact side at a time and whose two rows then
    hold the base band of the V terms of the band side.  ``pad_runs`` are
    the runs of the base band of V's padded row (`spectral.band_runs`).  No
    right side returns any of these.
    """
    b = _bands(grid)
    doubled = (2,) + shape[:-1] + (2 * grid.n,)
    pad = np.zeros(doubled, dtype=np.complex128)
    samples, halves, work = (np.empty(doubled, dtype=np.complex128)
                             for _ in range(3))
    ws = SimpleNamespace(b=b, pad=pad, samples=samples, halves=halves,
                         work=work, total=np.empty(shape, dtype=np.complex128),
                         terms=np.empty((2,) + shape, dtype=np.complex128),
                         pad_runs=band_runs(pad[0]))
    # the entry holds the right side, which holds a namespace of its own: no
    # reference cycle, so an entry the cache drops is freed at once
    return SimpleNamespace(**vars(ws), right_side=_right_side(ws))


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


def _v_samples(c, ws):
    """Samples of V and V_x on the doubled lattice, a (2, ..., 2n) array:
    ``ws.samples`` of the workspace ws (see `_workspace`).  V is padded
    straight into ``ws.pad``, each run of c times (-1)^k into its run
    ``ws.pad_runs``, as `spectral.to_padded` pads, and V_x is its
    whole-buffer product with i xi (zero off the base band, as the padding
    is); one inverse call: two padded transforms."""
    (sign_lo, sign_hi), pad = ws.b.sign, ws.pad
    (pad_lo, pad_hi), (c_lo, c_hi) = ws.pad_runs, lattice_runs(c)
    np.multiply(c_lo, sign_lo, out=pad_lo)
    np.multiply(c_hi, sign_hi, out=pad_hi)
    np.multiply(pad[0], ws.b.ixi2, out=pad[1])
    return fft_order_to_samples(pad, ws.b.pg, out=ws.samples)


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
    ws = _workspace(g, V.coeffs.shape)
    vs, dvs = _v_samples(V.coeffs, ws)
    require_invertible(vs)
    uc = from_padded(2j * (1.0 + np.conj(vs)) * dvs, ws.b.pg)
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
    ws = _workspace(g, V.coeffs.shape)
    b, pg = ws.b, ws.b.pg
    hi, opp = _signs(sign)
    vs, dvs = _v_samples(V.coeffs, ws)
    # stays on the doubled lattice, in FFT order
    inner = samples_to_fft_order(np.conj(vs) * dvs, pg.dx) * b.ixi2
    inner *= b.plus2 if opp == "+" else b.minus2
    s_hi = to_padded(V.coeffs * region_mask(g.xi, hi), pg)
    out = -from_padded(s_hi * fft_order_to_samples(inner, pg), pg)
    out *= region_mask(g.xi, hi)
    return SpectralField(g, out)


def _right_side(ws):
    """The right side bound to the buffers of the workspace ws, with every
    view, run and factor that it reads resolved here, once per workspace:
    ``right_side(c, watch, band)`` returns the exact right side of c, and
    with `band` the high-band pieces P_{+hi}(V . Pm dx W) + P_{-hi}(V . Pp dx W)
    before their factor -2i (else None), in the four transform calls that
    the module docstring describes.

    The first stage takes the samples of V and V_x, W = (1 + conj V) V_x,
    the padded coefficients dwc of dx W and sum(W^2) over the last axis,
    one value per field.  Its mean term is the one product sum(W^2) (-i/2n),
    exact because 2n is a power of two, taken as a (..., 1) column so that
    a scalar and a batch both broadcast.  ``watch``, if given, is called
    first with the even entries of the samples of V, its values at the
    base-lattice points.  The exact right side is fresh without `band`;
    with it, it is the workspace's ``total`` times the ``lo`` mask.  The
    band side gathers its two V terms as one stacked pair into ``terms``.
    The pieces are fresh.  The transforms are looked up at call time, so a
    wrapper of `spectral`'s pair sees them.
    """
    b, samples, work, total, terms = ws.b, ws.samples, ws.work, ws.total, ws.terms
    pg, dx, h, two_l = b.pg, b.pg.dx, b.mid, b.two_l
    ixi2, minus2, plus2, linear, lo, plus_hi, minus_hi = (
        b.ixi2, b.minus2, b.plus2, b.linear, b.lo, b.plus_hi, b.minus_hi)
    vs, dvs, vs_even = samples[0], samples[1], samples[0][..., ::2]
    # after the last transform: V . Pm dx W, and V . Pp dx W under it
    v_minus, (term, term_plus) = samples[0], terms
    w, pm, dwc = work[0], ws.halves[0], ws.halves[1]
    mean_scale = -1j / pg.n
    # by `band`: the halves transformed, their samples and products with V,
    # and the V terms
    halves = (ws.halves[:1], ws.halves)
    products = (work[:1], work)
    rows = (tuple(work[:1]), tuple(work))
    v_terms = (samples[:1], samples)
    # the runs k >= 0 (first) and k < 0 of the base band, and their factors
    (sign_lo, sign_hi), (gather_lo, gather_hi) = b.sign, b.gather
    (pm_lo, pm_hi), (v_lo, v_hi) = band_runs(pm), band_runs(samples)
    (total_lo, total_hi), (terms_lo, terms_hi) = map(lattice_runs, (total, terms))

    def right_side(c, watch, band):
        _v_samples(c, ws)
        if watch is not None:
            watch(vs_even)
        np.conjugate(vs, out=w)
        np.add(w, 1.0, out=w)
        np.multiply(w, dvs, out=w)
        samples_to_fft_order(w, dx, out=dwc)
        np.multiply(dwc, ixi2, out=dwc)
        np.multiply(w, w, out=w)
        mean_term = np.add.reduce(w, axis=-1) * mean_scale
        np.multiply(dwc, minus2, out=pm)
        if band:
            np.multiply(dwc, plus2, out=dwc)
        fft_order_to_samples(halves[band], pg, out=products[band])
        for row in rows[band]:  # row by row: numpy buffers a broadcast operand
            np.multiply(vs, row, out=row)
        samples_to_fft_order(products[band], dx, out=v_terms[band])
        np.add(pm, v_minus, out=pm)
        np.multiply(gather_lo, pm_lo, out=total_lo)
        np.multiply(gather_hi, pm_hi, out=total_hi)
        out = np.add(total, np.multiply(linear, c, out=term),
                     out=total if band else None)
        out += np.multiply(mean_term[..., None], c, out=term)
        out[..., h] += mean_term * two_l
        out[..., 0] = 0.0
        if not band:
            return out, None
        np.multiply(out, lo, out=out)
        np.multiply(sign_lo, v_lo, out=terms_lo)
        np.multiply(sign_hi, v_hi, out=terms_hi)
        terms[..., 0] = 0.0
        pieces = np.multiply(term, plus_hi)
        pieces += np.multiply(term_plus, minus_hi, out=term_plus)
        return out, pieces

    return right_side


def rhs_exact_coeffs(c, g, watch=None):
    """Coefficient array of the full gauged right side (everything but -H V_xx).

    V_t + H V_xx = -2i (1 + V) Pm dx W + 2i Pm dx^2 V - i mean(W^2) (1 + V).
    Valid for any complex band-limited V, not only gauge images.  ``c`` may
    be an (..., n) batch of fields on the grid g, one per row.  Five padded
    transforms in four calls; the array returned is fresh.  ``watch``, if
    given, is called with the samples of V on the base lattice, which the
    first stage takes anyway (see `_right_side`).
    """
    return _workspace(g, c.shape).right_side(c, watch, False)[0]


def rhs_terms_total_coeffs(c, g, watch=None):
    """Right side of the truncated band system used by the normal form layer:

        2i (Q_+ + Q_- + C_+ + C_-)  +  P_lo(full right side).

    The high bands keep only the four paraproduct pieces (the mean correction
    is dropped there); the low band keeps the exact forcing, which is never
    expanded.  The +hi band is -2i P_{+hi}(V . Pm dx W), the V term the
    exact right side computes anyway, and the -hi band its mirror: seven
    padded transforms in four calls (see the module docstring).  ``c`` may
    be an (..., n) batch and ``watch`` is called as in `rhs_exact_coeffs`.
    The sum is taken into the fresh pieces (addition commutes, bit for bit),
    so the array returned is fresh.
    """
    total, pieces = _workspace(g, c.shape).right_side(c, watch, True)
    pieces *= -2j
    pieces += total
    return pieces


def profile_time_derivative_sup(V):
    """sup_xi |Q_hat + C_hat| over both signs (the band time-derivative size).

    The evolution couples these pieces with coefficient 2i; the returned
    value carries no such constant.  The two signs live on disjoint bands,
    so this is the sup of P_{+hi}(V . Pm dx W) and P_{-hi}(V . Pp dx W),
    the two V terms of the band system (seven padded transforms).
    """
    ws = _workspace(V.grid, V.coeffs.shape)
    return float(np.max(np.abs(ws.right_side(V.coeffs, None, True)[1])))
