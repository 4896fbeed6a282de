"""Periodic spectral substrate: grids, transforms, multipliers, projections, norms.

Conventions
-----------
The domain is [-L, L) with periodic boundary, sampled at x_j = -L + j*dx,
dx = 2L/n.  The frequency lattice is xi_k = (pi/L)*k for integer
k = -n/2 .. n/2-1 (stored in this increasing order).  Coefficients follow the
integral convention

    u_hat(xi) = int u(x) exp(-i xi x) dx   ~   dx * sum_j u_j exp(-i xi x_j),

so that norms and convolutions approximate their continuum counterparts:

    sum_j |u_j|^2 dx = sum_k |u_hat_k|^2 dxi / (2 pi)          (Plancherel)
    (fg)_hat(xi)     = (dxi / 2 pi) sum_{xi1+xi2=xi} f_hat g_hat

The unpaired Nyquist mode k = -n/2 is always forced to zero.
"""

import os
import struct
import tempfile
from functools import lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

BOSF_MAGIC = b"BOSF"
BOSF_VERSION = 1
_HEADER = struct.Struct("<4sIIdd")


class ArgumentError(ValueError):
    """A public function refuses the value of its argument ``argument``; the
    message reads "<argument> <requirement>"."""

    def __init__(self, argument, requirement):
        super().__init__(f"{argument} {requirement}")
        self.argument = argument


def dispersion(xi):
    """Dispersion symbol omega(xi) = |xi| xi of the linearized equation."""
    return np.abs(xi) * xi


class Grid:
    """Spatial lattice on [-L, L) and its frequency lattice.

    Immutable after construction; safe to share between threads.  Sizes
    are taken as given: ``n_points`` an integral power of two >= 8 and
    ``half_length`` finite and >= pi, or an ArgumentError.
    """

    __slots__ = ("n", "half_length", "dx", "dxi", "x", "k", "xi", "_phase")

    def __init__(self, n_points, half_length):
        n = int(n_points) if n_points % 1 == 0 else 0
        if n < 8 or (n & (n - 1)) != 0:
            raise ArgumentError(
                "n_points", f"must be a power of two >= 8, got {n_points}")
        L = float(half_length)
        if not np.pi <= L < np.inf:
            raise ArgumentError(
                "half_length", f"must be finite and >= pi so that the frequency "
                f"spacing pi/L <= 1 resolves the band |xi| <= 1, got {half_length}")
        self.n = n
        self.half_length = L
        self.dx = 2.0 * L / n
        self.dxi = np.pi / L
        self.x = -L + self.dx * np.arange(n)
        self.k = np.arange(-n // 2, n // 2)
        self.xi = self.dxi * self.k
        # (-1)^k on the shifted lattice; relates FFT order to samples at x=-L.
        # Complex, the dtype of every array it multiplies, so that no product
        # casts it per call (the values are those of the cast).
        self._phase = np.where(self.k % 2 == 0, 1.0 + 0j, -1.0 + 0j)
        for a in (self.x, self.k, self.xi, self._phase):
            a.setflags(write=False)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and self.n == other.n
            and self.half_length == other.half_length
        )

    def __hash__(self):
        return hash((self.n, self.half_length))

    def __repr__(self):
        return f"Grid(n_points={self.n}, half_length={self.half_length!r})"


class SpectralField:
    """Fourier coefficients of a function on a Grid.

    Immutable value type: the coefficient array is read-only, and all
    operations return new fields.  Supports +, - and scalar *.

    Every instance holds ``grid.n`` finite coefficients with a zero Nyquist
    slot (index 0, k = -n/2).  The constructor is the one place enforcing
    this: non-finite input raises ValueError, and the Nyquist slot is zeroed.
    """

    __slots__ = ("grid", "coeffs")

    def __init__(self, grid, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != (grid.n,):
            raise ValueError(
                f"coefficient array has length {coeffs.shape}, grid expects {grid.n}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficient array holds non-finite values (nan or inf)")
        if coeffs[0] != 0.0:
            coeffs = coeffs.copy()
            coeffs[0] = 0.0  # Nyquist has no conjugate partner; hard-zeroed
        if coeffs.flags.writeable:
            coeffs = coeffs.copy()
            coeffs.setflags(write=False)
        self.grid = grid
        self.coeffs = coeffs

    # -- arithmetic ---------------------------------------------------------
    def _same_grid(self, other):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")

    def __add__(self, other):
        self._same_grid(other)
        return SpectralField(self.grid, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._same_grid(other)
        return SpectralField(self.grid, self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return SpectralField(self.grid, self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __repr__(self):
        return f"SpectralField(grid={self.grid!r}, ||.||={sobolev_norm(self, 0):.3e})"


def conj_reflect(c):
    """Coefficients conj(c(-xi)); the unpaired Nyquist slot is zero.

    These are the coefficients of the complex conjugate of the
    physical-space function, so a real-valued function is its own image.
    """
    out = np.zeros_like(c)
    out[1:] = np.conj(c[1:][::-1])
    return out


def to_spectral(samples, grid):
    """Forward transform of physical samples (rectangle-rule integral weights)."""
    samples = np.asarray(samples)
    if samples.shape != (grid.n,):
        raise ValueError(
            f"sample array has length {samples.shape}, grid expects {grid.n}"
        )
    return SpectralField(grid, samples_to_coeffs(samples, grid))


def to_physical(field):
    """Inverse transform; returns complex samples (imag ~ rounding for real data)."""
    return coeffs_to_samples(field.coeffs, field.grid)


# Array-level transform cores (no SpectralField wrapping) for solver hot loops.
# They act on the last axis of an (..., n) array, so a batch of fields on one
# grid is transformed row by row in one call.
#
# Two layouts share one transform pair.  FFT order is the layout of np.fft:
# k = 0 .. n/2-1 then k = -n/2 .. -1, with (-1)^k already applied to the
# coefficients (it relates FFT order to samples taken from x = -L).
# `fft_order_to_samples` is the inverse transform with its 1/dx scale;
# `samples_to_fft_order` is the forward FFT times the caller's scale (dx for
# coefficients), whose caller applies (-1)^k.  Lattice order (increasing k)
# is the layout of SpectralField; `coeffs_to_samples`/`samples_to_coeffs`
# convert it through the same pair.  n is even, so fftshift and ifftshift
# are the same swap of the two halves, the join of the two runs that
# `lattice_runs` gives; one concatenate does it at a fraction of np.roll's
# per-call cost.
#
# The pair calls numpy's pocketfft gufuncs (numpy.fft._pocketfft_umath,
# numpy >= 2.0) directly: np.fft.ifft/fft spend about 4-5 us of Python per
# call before the gufunc runs, a large share of a right side at n <= 256.
# Each call passes the last axis as core axis and a complex128 out, which
# also makes a real float64 input come out complex128.  The out is fresh
# unless the caller passes ``out``, a complex128 array of the input's shape
# apart from it (the gauge stages pass buffers they reuse from call to
# call); each row transforms the same either way.  The gufunc multiplies
# each output by its normalisation factor after the transform, component by
# component, so the factor carries the scale with no pass of its own: the
# forward factor is the scale itself, and the inverse factor is
# (1/n) (1/dx).  That fold gives the bits of np.fft.ifft followed by a
# product with 1/dx only because `Grid` takes n a power of two: 1/n is then
# a power of two, and scaling by it is exact in either order (at n = 96 the
# two differ).  These are the only FFT calls in bolab.

_CORE_AXES = [(-1,), (), (-1,)]


def fft_order_to_samples(cf, grid, out=None):
    """Samples of coefficients in FFT order with (-1)^k applied, written
    into ``out`` if given.

    The 1/dx scale is a product with the reciprocal: numpy divides a complex
    array by a real as (a + i b) * (1 / dx), by Smith's formula, so this is
    the quotient value for value, at a fraction of its cost."""
    if out is None:
        out = np.empty(cf.shape, dtype=np.complex128)
    return _pocketfft.ifft(cf, 1.0 / cf.shape[-1] * (1.0 / grid.dx),
                           axes=_CORE_AXES, out=out)


def samples_to_fft_order(samples, scale, out=None):
    """FFT of samples times ``scale``, written into ``out`` if given; with
    scale dx, the coefficients in FFT order with (-1)^k applied."""
    if out is None:
        out = np.empty(samples.shape, dtype=np.complex128)
    return _pocketfft.fft(samples, scale, axes=_CORE_AXES, out=out)


def _swap_halves(a):
    return np.concatenate(lattice_runs(a), axis=-1)


def coeffs_to_samples(coeffs, grid):
    return fft_order_to_samples(_swap_halves(coeffs * grid._phase), grid)


def samples_to_coeffs(samples, grid):
    c = grid._phase * _swap_halves(samples_to_fft_order(samples, grid.dx))
    c[..., 0] = 0.0
    return c


def apply_multiplier(field, symbol):
    """Pointwise Fourier multiplier; `symbol` is an array over grid.xi."""
    return SpectralField(field.grid, field.coeffs * symbol)


# -- standard multiplier symbols ---------------------------------------------

def hilbert_symbol(grid):
    return -1j * np.sign(grid.xi)


def derivative_symbol(grid):
    return 1j * grid.xi


def antiderivative_symbol(grid):
    """1/(i xi) away from xi = 0; the zero mode is annihilated, not divided."""
    sym = np.zeros(grid.n, dtype=np.complex128)
    nz = grid.xi != 0
    sym[nz] = 1.0 / (1j * grid.xi[nz])
    return sym


def hilbert(field):
    return apply_multiplier(field, hilbert_symbol(field.grid))


def derivative(field):
    return apply_multiplier(field, derivative_symbol(field.grid))


REGIONS = ("+", "-", "lo", "+hi", "-hi")


def region_mask(xi, region):
    """Boolean indicator of a frequency region.

    "lo" is |xi| <= 1 (ties at |xi| = 1 belong to lo), "+hi"/"-hi" are
    xi > 1 and xi < -1, "+"/"-" are the open half-lines.
    """
    if region == "+":
        return xi > 0
    if region == "-":
        return xi < 0
    if region == "lo":
        return np.abs(xi) <= 1
    if region == "+hi":
        return xi > 1
    if region == "-hi":
        return xi < -1
    raise ValueError(f"unknown region {region!r}; expected one of {REGIONS}")


def project(field, region):
    return SpectralField(field.grid, field.coeffs * region_mask(field.grid.xi, region))


def zero_mean_project(field):
    c = field.coeffs.copy()
    c[field.grid.k == 0] = 0.0
    return SpectralField(field.grid, c)


def sobolev_norm(field, s):
    """H^s norm: (sum <xi>^(2s) |u_hat|^2 dxi/(2 pi))^(1/2)."""
    g = field.grid
    w = (1.0 + g.xi**2) ** s
    return float(np.sqrt(np.sum(w * np.abs(field.coeffs) ** 2) * g.dxi / (2 * np.pi)))


# -- dealiased products -------------------------------------------------------
#
# Quadratic products of base-band fields are computed on the doubled lattice
# (2n points, same L), where they are alias-free: the sum of two base
# wavenumbers stays inside the doubled band.  `to_padded`, `from_padded` and
# `dealiased_product` are the one pad -> transform -> multiply -> transform ->
# unpad path.  Cascaded (cubic) products must stay on the doubled lattice
# between stages -- truncating the intermediate product back to the base band
# would drop interactions whose intermediate frequency leaves the band but
# whose final output returns to it.  So the gauge stages that keep a
# doubled-lattice intermediate (the samples of V and V_x, of Pm/Pp dx W, the
# band pieces and the `rhs_cubic` cascade) work on it directly, through the
# FFT-order pair.  A single factor-2 padding is exact for the
# quadratic-of-quadratic cascades used here, because aliased images of the
# final product land outside the retained band.
#
# The doubled lattice is only held in FFT order, and the base band sits in
# it as two runs, k = 0 .. n/2-1 at its head and k = -n/2 .. -1 at its
# tail.  The layout has one owner here: `lattice_runs` splits a
# base-lattice array into the same two runs, `band_runs` finds them in a
# doubled-lattice array and `band_signs` gives (-1)^k over them.  Each
# returns views, so a caller that binds them once (as the gauge workspaces
# do) pads and gathers with plain `np.multiply` calls and no slicing of its
# own, and no padded transform swaps halves.  A pad multiplies coefficient
# by factor and a gather factor by coefficient, each in one operand order.
# Lattice order is for base-grid transforms only (`to_physical`,
# `to_spectral`), whose swap of halves is the join of the two runs.

@lru_cache(maxsize=64)
def padded_grid(grid):
    return Grid(2 * grid.n, grid.half_length)


def lattice_runs(c):
    """Views of the runs k = 0 .. n/2-1 and k = -n/2 .. -1 of the base-lattice
    array c (lattice order, last axis)."""
    h = c.shape[-1] // 2
    return c[..., h:], c[..., :h]


def band_runs(a):
    """Views of the same two runs of the base band of a, a doubled-lattice
    array in FFT order (last axis)."""
    h = a.shape[-1] // 4
    return a[..., :h], a[..., 3 * h :]


def band_signs(pgrid):
    """(-1)^k over the two runs of the base band of the doubled lattice
    pgrid, as views of pgrid's read-only array."""
    h = pgrid.n // 4
    return lattice_runs(pgrid._phase[h : 3 * h])


def to_padded(coeffs, pgrid):
    """Samples on the doubled lattice `pgrid` of base-lattice coefficients."""
    cf = np.zeros(coeffs.shape[:-1] + (pgrid.n,), dtype=np.complex128)
    for run, c, sign in zip(band_runs(cf), lattice_runs(coeffs), band_signs(pgrid)):
        np.multiply(c, sign, out=run)
    return fft_order_to_samples(cf, pgrid)


def from_padded(samples, pgrid):
    """Base-band coefficients of samples on the doubled lattice `pgrid`."""
    a = samples_to_fft_order(samples, pgrid.dx)
    out = np.empty(a.shape[:-1] + (pgrid.n // 2,), dtype=np.complex128)
    for run, b, sign in zip(lattice_runs(out), band_runs(a), band_signs(pgrid)):
        np.multiply(sign, b, out=run)
    out[..., 0] = 0.0
    return out


def dealiased_product(c1, c2, pgrid):
    """Dealiased product of two base-band coefficient arrays."""
    return from_padded(to_padded(c1, pgrid) * to_padded(c2, pgrid), pgrid)


# -- files ---------------------------------------------------------------------

def atomic_write(path, data):
    """Write the bytes `data` to path through a temporary tmp*.tmp file in the
    same directory and os.replace, so a reader sees the old file or the whole
    new one, never a part."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_snapshot(field, time, path):
    """Binary field snapshot: header + complex coefficients in lattice order,
    written atomically."""
    payload = np.ascontiguousarray(field.coeffs, dtype="<c16").tobytes()
    header = _HEADER.pack(
        BOSF_MAGIC, BOSF_VERSION, field.grid.n, field.grid.half_length, float(time)
    )
    atomic_write(path, header + payload)


def read_snapshot(path):
    """Read a snapshot written by write_snapshot; returns (field, time).

    A file whose payload is shorter or longer than the header's n complex
    coefficients raises ValueError naming the byte counts."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise ValueError(
                f"truncated snapshot header: {len(raw)} of {_HEADER.size} bytes"
            )
        magic, version, n, half_length, time = _HEADER.unpack(raw)
        if magic != BOSF_MAGIC:
            raise ValueError(f"not a field snapshot: bad magic {magic!r}")
        if version != BOSF_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        grid = Grid(n, half_length)
        size = 16 * n
        have = os.fstat(fh.fileno()).st_size - _HEADER.size
        if have < size:
            raise ValueError(f"truncated snapshot payload: {have} of {size} bytes")
        if have > size:
            raise ValueError(
                f"trailing bytes after the snapshot payload: {have} of {size} bytes"
            )
        payload = fh.read(size)
    coeffs = np.frombuffer(payload, dtype="<c16").astype(np.complex128)
    return SpectralField(grid, coeffs), time
