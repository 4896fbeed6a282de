"""The per-snapshot integration-by-parts quadrature: the oracle of
``nfe._ibp_trapz``.

``nfe._ibp_trapz`` contracts whole time series, one dense product per
pair-momentum group, on the factorized phase e^{i t omega(out)}.  This module
keeps the loop it replaced: at every snapshot it gathers the rotated
profiles W = e^{i t omega} V_hat and their derivatives at each tuple's reads,
conjugates the flagged slots, multiplies out the product rule, and rotates by
the tuple's own phase e^{i t Phi} (by repeated multiplication when the
snapshots are uniform).  The two must agree to rounding.

The oracle takes only the columns, flags, outputs and coefficients of a
batch.  It works out what a tuple reads (n - col on a conjugated column) and
its phase Phi = omega(out) - sum_j omega(cols_j) on its own.
"""

import numpy as np

from bolab.nfe import _trapz_weights


def ibp_trapz_loop(batches, Vt, Nt, times, xi):
    """Trapezoid in time of the integration-by-parts remainder integrand.

    For every batch tuple this accumulates
        sum_i w_i e^{i t_i phase} (-coef/(i phase)) d/dt prod_cols
    with the differentiated column read from the exact right-side profiles
    ``Nt``, and adds the result at the tuple's output index.  ``xi`` holds
    the lattice frequencies.
    """
    n = Vt.shape[1]
    omega = np.abs(xi) * xi
    total = np.zeros(n, dtype=complex)
    if not batches:
        return total
    w = _trapz_weights(times)
    steps = np.diff(times)
    uniform = bool(np.allclose(steps, steps[0], rtol=1e-9, atol=0.0))
    for b in batches:
        if len(b) == 0:
            continue
        reads = np.array([n - col if cflag else col
                          for col, cflag in zip(b.cols, b.conj)])
        phase = omega[b.out_idx] - omega[b.cols].sum(axis=0)
        damp = -b.coef / (1j * phase)
        rot = np.exp(1j * times[0] * phase)
        step = np.exp(1j * steps[0] * phase) if uniform else None
        acc = np.zeros(len(b), dtype=complex)
        k = len(b.conj)
        for i in range(times.size):
            vals = Vt[i][reads]
            dvals = Nt[i][reads]
            for j, cflag in enumerate(b.conj):
                if cflag:
                    np.conj(vals[j], out=vals[j])
                    np.conj(dvals[j], out=dvals[j])
            dprod = np.zeros(len(b), dtype=complex)
            for j in range(k):
                piece = dvals[j]
                for l in range(k):
                    if l != j:
                        piece = piece * vals[l]
                dprod += piece
            acc += (w[i] * rot) * dprod
            if i + 1 < times.size:
                rot = rot * step if uniform else np.exp(1j * times[i + 1] * phase)
        np.add.at(total, b.out_idx, damp * acc)
    return total
