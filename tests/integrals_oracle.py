"""The cubic window integral at one output frequency: the oracle of
`bolab.integrals._cubic_inner`.

`_cubic_inner` takes an array of xi and weighs each node with one power,
<xi2>^(2s+2) <xi3>^(2s) = q2 (q2 q3)^s with q = 1 + x^2.  This module
keeps the per-xi form it replaced, which takes two square roots and two
non-integer powers per node and multiplies the row factors in before the
inner sum.  Its nodes come from the same steps as the library's, so the two
evaluate one function at the same points and differ only in rounding;
`cubic_inner_longdouble` evaluates those nodes in extended precision, to
tell which rounding is closer.
"""

import numpy as np

from bolab.integrals import _cubic_window


def _jap(x):
    return np.sqrt(1.0 + x * x)


def cubic_nodes(xi, alpha, M, cutoff, mesh):
    """(x1, dx1, eta, w, xi2, xi3) of the graded window quadrature at one
    xi below the cutoff: the x1 rows, their widths, eta = xi - x1, the
    window widths, and the (row, node) arrays of xi2 and xi3."""
    span = cutoff - xi
    t = (np.arange(mesh) + 0.5) / mesh
    x1 = xi + span * t ** 2             # graded: dense near x1 = xi
    dx1 = 2.0 * span * t / mesh
    eta = xi - x1
    lo = np.clip(_cubic_window(xi, x1, alpha - M), -cutoff, cutoff)
    hi = np.clip(_cubic_window(xi, x1, alpha + M), -cutoff, cutoff)
    w = np.maximum(hi - lo, 0.0)
    xi2 = lo[:, None] + t[None, :] * w[:, None]
    xi3 = eta[:, None] - xi2
    return x1, dx1, eta, w, xi2, xi3


def cubic_inner(xi, alpha, M, s, eps, cutoff, mesh):
    """Inner 2-D integral over (xi_1, xi_2) at one output frequency."""
    if cutoff - xi <= 0.0:
        return 0.0
    x1, dx1, eta, w, xi2, xi3 = cubic_nodes(xi, alpha, M, cutoff, mesh)
    wt = (_jap(xi) ** (2 * s + 2 * eps + 2) * (eta ** 2)[:, None]
          / ((x1 ** 2 * _jap(x1) ** (2 * s))[:, None]
             * _jap(xi2) ** (2 * s + 2) * _jap(xi3) ** (2 * s)))
    return float((dx1 * (w / mesh) * wt.sum(axis=1)).sum())


def cubic_inner_longdouble(xi, alpha, M, s, eps, cutoff, mesh):
    """`cubic_inner` on the same float nodes, weighed and summed in
    np.longdouble."""
    if cutoff - xi <= 0.0:
        return np.longdouble(0.0)
    x1, dx1, eta, w, xi2, xi3 = (
        a.astype(np.longdouble) for a in cubic_nodes(xi, alpha, M, cutoff, mesh))
    xi, s, eps = np.longdouble(xi), np.longdouble(s), np.longdouble(eps)
    wt = ((1 + xi * xi) ** (s + eps + 1) * (eta ** 2)[:, None]
          / ((x1 ** 2 * (1 + x1 * x1) ** s)[:, None]
             * (1 + xi2 * xi2) ** (s + 1) * (1 + xi3 * xi3) ** s))
    return (dx1 * (w / mesh) * wt.sum(axis=1)).sum()
