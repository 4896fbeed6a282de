"""Quadrature oracles for the window-restricted scaling integrals.

Two brute-force integrals control the frequency-restricted operator bounds:
a quadratic one (1-D window integral) and a cubic one (2-D inner integral).
Both live on the support geometry of the downward cascade: the high input
slot sits *above* the output frequency (xi_1 > xi > 1; the pair of remaining
cubic frequencies sums to xi - xi_1 < 0).  Reading the regions the other way
round places a near-resonant corner at xi_1 -> 1 inside the window and the
sup over xi diverges like xi^3, so no scaling law would be visible.

Quadratic.  With xi = xi_1 + xi_2 and xi_2 < 0 on the support, the phase is
Psi = 2 xi xi_2, of a single sign; the mirrored term realises the other sign,
so only |alpha| matters and the window is taken on the magnitude:

    J(alpha, M) = sup_{xi > 1}  int  <xi>^(2s+2eps+2) xi2^2
                  / (xi1^2 <xi1>^(2s) <xi2>^(2s))  dxi2
                  over { | 2 xi |xi2| - |alpha| | < M }.

Cubic.  With xi = xi_1 + xi_2 + xi_3 and a conjugated middle slot, the
windowed phase is

    Phi = |xi| xi - |xi1| xi1 + |xi2| xi2 - |xi3| xi3 ,

which at fixed (xi, xi_1) is strictly increasing in xi_2 (three smooth
pieces, knots where xi_2 or xi_3 changes sign), so {|Phi - alpha| < M} is a
single interval with closed-form endpoints:

    I(alpha, M) = sup_{xi > 1}  int dxi1  int_window dxi2
                  <xi>^(2s+2eps+2) |xi2+xi3|^2
                  / (xi1^2 <xi1>^(2s) <xi2>^(2s+2) <xi3>^(2s)).

Phi spans all of R in xi_2, so alpha of either sign is meaningful here and
is used as given.

Quadrature: midpoint rule inside the exact window; the xi_1 direction uses a
quadratically graded mesh (dense near xi_1 = xi, where the resonant curve
enters and the integrand peaks); the sup runs over a log-spaced xi mesh with
fixed per-octave density plus a linear zoom pass around the coarse argmax.
The cubic search takes its xi in chunks of CUBIC_CHUNK_NODES nodes (16 xi
at the default mesh), one array call per chunk, and weighs each node with
one power: <xi2>^(2s+2) <xi3>^(2s) = q2 (q2 q3)^s with q = 1 + x^2, which
at s = 1/2 is a square root.  Empty windows, and an xi at the cutoff,
integrate to zero exactly.  Deterministic given (mesh, cutoff).
"""

import numpy as np

from .spectral import ArgumentError

__all__ = ["quad_integral_J", "cubic_integral_I"]


def _jap(x):
    """Japanese bracket <x> = sqrt(1 + x^2)."""
    return np.sqrt(1.0 + x * x)


def _validate(M, cutoff, mesh):
    """ArgumentError naming the first unusable argument of an integral."""
    if not M > 0:
        raise ArgumentError("M", f"must be positive, got {M}")
    if not cutoff > 1:
        raise ArgumentError("cutoff", f"must exceed 1, got {cutoff}")
    if mesh < 8:
        raise ArgumentError("mesh", f"must be at least 8, got {mesh}")


def _sup_over_xi(inner, cutoff, mesh):
    """Sup of ``inner`` (values at an array of xi) by the mesh-and-zoom search."""
    n = max(mesh, int(round(mesh * np.log2(cutoff) / 4.0)))
    xis = np.geomspace(1.001, cutoff, n)
    vals = inner(xis)
    i = int(vals.argmax())
    zoom = np.linspace(xis[max(i - 1, 0)], xis[min(i + 1, len(xis) - 1)], mesh)
    return float(max(vals[i], inner(zoom).max()))


# ---------------------------------------------------------------------------
# quadratic


def _quad_inner(xi, alpha, M, s, eps, cutoff, mesh):
    """Window integral at each output frequency in the array `xi`."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    a = abs(alpha)
    vlo = np.maximum(a - M, 0.0) / (2.0 * xi)
    vhi = np.minimum((a + M) / (2.0 * xi), cutoff)
    w = np.maximum(vhi - vlo, 0.0)
    t = (np.arange(mesh) + 0.5) / mesh
    v = vlo[:, None] + t[None, :] * w[:, None]        # |xi_2|
    x1 = xi[:, None] + v
    wt = (_jap(xi)[:, None] ** (2 * s + 2 * eps + 2) * v ** 2
          / (x1 ** 2 * _jap(x1) ** (2 * s) * _jap(v) ** (2 * s)))
    return (w / mesh) * wt.sum(axis=1)


def quad_integral_J(alpha, M, s, eps, cutoff, mesh=96):
    """Sup over the output frequency of the quadratic window integral."""
    _validate(M, cutoff, mesh)
    return _sup_over_xi(lambda xis: _quad_inner(xis, alpha, M, s, eps, cutoff, mesh),
                        cutoff, mesh)


# ---------------------------------------------------------------------------
# cubic

# nodes per _cubic_inner call: 16 xi at the default mesh of 64, so that each
# (chunk, mesh, mesh) float temporary is 512 KB and stays in cache
CUBIC_CHUNK_NODES = 16 * 64 * 64


def _cubic_window(xi, x1, t):
    """The xi2 with Phi(xi2) = t, for x1 > xi > 1 (Phi strictly increasing).

    Piecewise inverse: two parabolic pieces where xi2 and xi3 = xi - x1 - xi2
    have equal signs, a linear piece between the knots.
    """
    eta = xi - x1                       # = xi2 + xi3 < 0 on the support
    c0 = xi * xi - x1 * x1
    T1 = c0 - eta * eta                 # Phi at the knot xi2 = eta
    T2 = c0 + eta * eta                 # Phi at the knot xi2 = 0
    low = (eta - np.sqrt(np.maximum(2.0 * (c0 - t) - eta * eta, 0.0))) / 2.0
    mid = (c0 + eta * eta - t) / (2.0 * eta)
    high = (eta + np.sqrt(np.maximum(2.0 * (t - c0) - eta * eta, 0.0))) / 2.0
    return np.where(t < T1, low, np.where(t > T2, high, mid))


def _cubic_inner(xi, alpha, M, s, eps, cutoff, mesh):
    """Inner 2-D integral over (xi_1, xi_2) at each output frequency in the
    array `xi`; an xi with no span below the cutoff integrates to 0.0."""
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    out = np.zeros(xi.shape)
    live = xi < cutoff
    xi = xi[live, None]
    span = cutoff - xi
    t = (np.arange(mesh) + 0.5) / mesh
    x1 = xi + span * t ** 2             # graded: dense near x1 = xi
    dx1 = 2.0 * span * t / mesh
    eta = xi - x1
    lo = np.clip(_cubic_window(xi, x1, alpha - M), -cutoff, cutoff)
    hi = np.clip(_cubic_window(xi, x1, alpha + M), -cutoff, cutoff)
    w = np.maximum(hi - lo, 0.0)
    # The two (xi, x1, xi2) node arrays are one allocation, updated in
    # place.  Freed as one block it stays in the allocator's heap from chunk
    # to chunk; separate temporaries were handed back to the system and
    # faulted in again, about 2,200 page faults per cubic_integral_I call.
    xi2, den = np.empty((2,) + w.shape + (mesh,))
    np.multiply(t, w[..., None], out=xi2)
    xi2 += lo[..., None]
    np.subtract(eta[..., None], xi2, out=den)   # xi3
    den *= den
    den += 1.0                          # q3 = <xi3>^2
    q2 = np.multiply(xi2, xi2, out=xi2)
    q2 += 1.0                           # q2 = <xi2>^2
    # <xi2>^(2s+2) <xi3>^(2s) = q2 (q2 q3)^s: one power per node
    den *= q2
    den **= s
    den *= q2
    kernel = np.divide(1.0, den, out=den)
    row = ((1.0 + xi * xi) ** (s + eps + 1.0) * eta ** 2
           / (x1 ** 2 * (1.0 + x1 * x1) ** s))
    out[live] = (dx1 * (w / mesh) * row * kernel.sum(axis=-1)).sum(axis=-1)
    return out


def cubic_integral_I(alpha, M, s, eps, cutoff, mesh=64):
    """Sup over the output frequency of the cubic window integral."""
    _validate(M, cutoff, mesh)
    chunk = max(1, CUBIC_CHUNK_NODES // (mesh * mesh))

    def inner(xis):
        return np.concatenate([_cubic_inner(xis[i:i + chunk], alpha, M, s, eps,
                                            cutoff, mesh)
                               for i in range(0, len(xis), chunk)])

    return _sup_over_xi(inner, cutoff, mesh)
