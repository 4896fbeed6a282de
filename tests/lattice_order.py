"""The doubled lattice in lattice order: the oracle of the FFT-order stages.

`spectral` and `gauge` hold the doubled lattice only in FFT order, and take
its samples from x = 0.  This module keeps the path they replaced:
base-band coefficients are padded into the doubled lattice in increasing-k
order and transformed by the pair below, which swaps halves and applies
(-1)^k on every call, so that its samples start at x = -L.  The pair is
written on `np.fft` here, from the conventions of `bolab.spectral` (the
integral weights dx and 1/dx), and shares no code with the library's
transforms, so a change to their scale or origin shows.  On the base grid,
whose samples start at x = -L in both, the library's pair must equal it
value for value (`np.array_equal`).  On the doubled lattice, the samples
of `spectral.to_padded` are those of `to_padded` below rolled by half their
2n points, and `from_padded` takes them back the same way.  The right sides
below are the same stages, operation for operation, and pointwise products
commute with the roll, so the FFT-order results must equal them value for
value.  The one sum, of the mean term over 2n samples, does too from
2n = 128 on, where numpy adds two halves that the roll only swaps; below
that its unrolled loop adds in an order the roll changes.
"""

import numpy as np

from bolab.spectral import padded_grid, region_mask


def _signs(grid):
    """(-1)^k over the lattice k = -n/2 .. n/2-1."""
    return np.where(np.arange(-grid.n // 2, grid.n // 2) % 2 == 0, 1.0, -1.0)


def coeffs_to_samples(coeffs, grid):
    """Samples at x_j = -L + j dx of lattice-order coefficients (last axis):
    the inverse FFT of (-1)^k c in FFT order, times 1/dx."""
    shifted = np.fft.ifftshift(coeffs * _signs(grid), axes=-1)
    return np.fft.ifft(shifted, axis=-1) * (1.0 / (2.0 * grid.half_length / grid.n))


def samples_to_coeffs(samples, grid):
    """Lattice-order coefficients of samples (last axis): dx (-1)^k times
    the forward FFT in lattice order, with the Nyquist slot zeroed."""
    dx = 2.0 * grid.half_length / grid.n
    c = dx * _signs(grid) * np.fft.fftshift(np.fft.fft(samples, axis=-1), axes=-1)
    c[..., 0] = 0.0
    return c


def pad_coeffs(coeffs, n):
    """Embed base-lattice coefficients (last axis) into the doubled lattice
    (zero-fill)."""
    out = np.zeros(coeffs.shape[:-1] + (2 * n,), dtype=np.complex128)
    out[..., n // 2 : n // 2 + n] = coeffs
    return out


def unpad_coeffs(coeffs2, n):
    """Restrict doubled-lattice coefficients to the base band (and zero Nyquist)."""
    out = coeffs2[..., n // 2 : n // 2 + n].copy()
    out[..., 0] = 0.0
    return out


def to_padded(coeffs, pgrid):
    return coeffs_to_samples(pad_coeffs(coeffs, pgrid.n // 2), pgrid)


def from_padded(samples, pgrid):
    return unpad_coeffs(samples_to_coeffs(samples, pgrid), pgrid.n // 2)


def doubled_masks(grid):
    """The doubled-lattice constants of `gauge._bands`, in lattice order."""
    xi2 = padded_grid(grid).xi
    masks = {"minus2": xi2 < 0.0, "plus2": xi2 > 0.0}
    arrays = {name: m.astype(np.complex128) for name, m in masks.items()}
    arrays["ixi2"] = 1j * xi2
    return arrays


def _rhs(c, g, terms):
    pg = padded_grid(g)
    n = g.n
    xi = g.xi
    m = doubled_masks(g)
    cpad = pad_coeffs(c, n)
    vs = coeffs_to_samples(cpad, pg)
    dvs = coeffs_to_samples(cpad * m["ixi2"], pg)
    ws = (1.0 + np.conj(vs)) * dvs
    dwc = samples_to_coeffs(ws, pg) * m["ixi2"]
    pm = dwc * m["minus2"]
    # np.multiply keeps V first: ``vs * temp`` runs as ``temp *= vs`` past
    # numpy's 256 KiB temporary-elision size, and a complex product can round
    # differently with its operands swapped, so batch rows would not equal
    # single calls
    v_minus = from_padded(np.multiply(vs, coeffs_to_samples(pm, pg)), pg)
    mean_term = -1j * np.mean(ws * ws, axis=-1)
    out = -2j * (unpad_coeffs(pm, n) + v_minus)
    out += 2j * (-(xi**2)) * (xi < 0.0) * c
    out += (mean_term * c.T).T
    out.T[n // 2] += mean_term * (2.0 * g.half_length)
    out[..., 0] = 0.0
    if not terms:
        return out
    total = out * region_mask(xi, "lo").astype(np.complex128)
    v_plus = from_padded(np.multiply(vs, coeffs_to_samples(dwc * m["plus2"], pg)), pg)
    total += 2j * -(
        v_minus * region_mask(xi, "+hi").astype(np.complex128)
        + v_plus * region_mask(xi, "-hi").astype(np.complex128)
    )
    return total


def rhs_exact_coeffs(c, g):
    return _rhs(c, g, terms=False)


def rhs_terms_total_coeffs(c, g):
    return _rhs(c, g, terms=True)
