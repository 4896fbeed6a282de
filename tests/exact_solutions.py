"""Exact solutions of u_t + H u_xx = u u_x on [-L, L), as test oracles.

The periodic travelling wave (Benjamin, JFM 1967; Ono, JPSJ 1975), in this
package's signs, where H has the symbol -i sgn(xi): with kappa = pi / L,
0 < q < 1 and z = q exp(i kappa (x - c kappa t)),

    u = 2 kappa (z / (1 - z) + c.c.)
      = 2 kappa sum_{k != 0} q^|k| exp(i k kappa (x - c kappa t)),
    c = (1 - 3 q^2) / (1 - q^2).

Its gauge V = exp(-i F / 2) - 1, with F the zero-mean antiderivative of u,
has the closed form

    V = (1 - z) / (1 - conj(z)) - 1,

so |1 + V| = 1.  Both are sampled on the grid and transformed; the
spectra decay like q^|k|, so the aliasing of the sampled fields is below
rounding once q^(n/2) is.
"""

import numpy as np

from bolab.spectral import to_spectral


def _z(grid, q, t):
    kappa = np.pi / grid.half_length
    c = (1.0 - 3.0 * q * q) / (1.0 - q * q)
    return q * np.exp(1j * kappa * (grid.x - c * kappa * t))


def wave(grid, q, t=0.0):
    """The travelling wave u at time t, as a real SpectralField."""
    z = _z(grid, q, t)
    kappa = np.pi / grid.half_length
    return to_spectral(4.0 * kappa * (z / (1.0 - z)).real, grid)


def wave_gauge(grid, q, t=0.0):
    """The closed-form gauge V of the wave at time t."""
    z = _z(grid, q, t)
    return to_spectral((1.0 - z) / (1.0 - np.conj(z)) - 1.0, grid)
