"""Truncation residuals of the normal form expansion of the gauged flow.

The profile W(t) = e^{it omega} V_hat(t) of the truncated band system
(:func:`bolab.gauge.rhs_terms_total_coeffs`) satisfies, tuple by tuple on the
frequency lattice,

    d/dt W(t, xi) = sum_tuples e^{i t Phi} * 2i * K * prod_slots W(t, xi_j)
                    + (low-band forcing),

with Phi = omega(xi) - sum_j omega(xi_j) the oscillation phase of the tuple
(``_oscillation_phase``).  A conjugated slot reads conj(V_hat(-xi_j)), at
lattice index n - col (``_reads``), and oscillates like a plain slot
because omega is odd, so Phi has no sign flip.  The resonance function
``TermValues.phase`` of :mod:`bolab.infr`, which the frequency-restricted
operator estimates use, flips omega on conjugated slots: the two agree on
the quadratic pieces and differ by 2 omega(xi_2) on the cubic ones.  The
infinite normal form reduction splits the tuples at |Phi| = N, integrates
the nonresonant part by parts (boundary terms plus a remainder in which the
time derivative falls on one slot), substitutes the equation back into the
differentiated slot, and repeats with thresholds c_J |Phi_1|^delta at depth
J.  :func:`nfe_residual` measures, on a stored trajectory of the band system
(it refuses any other), how much of W(T) - W(0) the depth-J truncation
explains.  It reads dW/dt from the right sides the stepper took at the
snapshots (``Trajectory.right_sides``) and takes none of its own.

Depth 1 is measured.  Its nonresonant tuples, the frontier, are read block
by block (:func:`bolab.infr.term_blocks` on a support envelope of the
trajectory); each block leaves only its nonresonant tuples, held as one flat
batch per term (``_Batch``).  A deeper depth is never substituted.  It is
empty, because depth 1 left no frontier or because its smallest threshold
exceeds the largest phase the lattice can reach, or ``nfe_residual``
refuses J_max.  :func:`bolab.infr.infr_params` fixes sigma = 3/4, so
c_2 >= 3^8 = 6561.

The residual rests on a telescoping identity: with every kept integral
and boundary term evaluated through the same integration-by-parts identity
used to define it, the depth-J truncation collapses to

    trunc_J = trapz(full integrand) - trapz(I_{J+1}),

where I_{J+1} is the remainder integrand over the depth-J nonresonant tuple
set, with the differentiated slot read from the exact right side.  Boundary
terms cancel exactly, and the reported residual

    residual_J = || W(T) - W(0) - trunc_J ||_{H^{s+1}}

equals the norm of (quadrature defect) + trapz(I_{J+1}).  At depth 1 that
is the remainder over the frontier; at an empty depth the residual equals
the measured quadrature defect exactly, which the report exposes as
``quadrature_error``.

The remainder is summed in time without rotating any tuple.  Every batch
phase is omega(out) - sum_j omega(cols_j), so e^{i t Phi} prod_j W_j =
e^{i t omega(out)} prod_j V_hat_j: the oscillation rides on the output, and
the slots read the stored coefficients and the stored raw right side.  With a
tuple split into a row (its head slots and its output) and a column (its
last two slots), the time sum is sum_t R_row(t) C_col(t), and any row and
column of one pair momentum (the sum of the last two slot frequencies) make
a momentum-conserving tuple.  ``_ibp_trapz`` therefore takes one dense
contraction over time per block of pair columns of one momentum, and each
tuple reads its entry.

Low-band slots are never expanded: the differentiated slot reads the full
right side, and the low-band part of that read stays inside the kept
integrand.
"""

from dataclasses import dataclass

import numpy as np

from .spectral import ArgumentError, SpectralField, dispersion, sobolev_norm
from .infr import COUPLING, add_by_output, bo_terms, term_blocks

# Cap on the tuples of one depth-1 term lattice, the only lattice nfe_residual
# enumerates; it raises above it.
MAX_LATTICE_TUPLES = 2_000_000


@dataclass
class _Batch:
    """Flattened nonresonant depth-1 tuples of one term.

    Represents the integrand sum_p e^{i s phase_p} coef_p prod_cols(slot
    value); ``conj`` fixes which columns read conjugated coefficients (see
    ``_reads``).
    """

    conj: tuple
    out_idx: np.ndarray
    cols: np.ndarray
    phase: np.ndarray
    coef: np.ndarray

    def __len__(self):
        return self.out_idx.size


def _oscillation_phase(grid, out_idx, cols):
    """Oscillation phase omega(out) - sum_j omega(cols_j) of each tuple."""
    om = dispersion(grid.xi)
    ph = om[out_idx]
    for col in cols:
        ph = ph - om[col]
    return ph


def _reads(conj, cols, n):
    """Lattice index each column reads: n - col on a conjugated column (the
    reflection of its frequency; col 0 never occurs), col otherwise."""
    return np.where(np.array(conj)[:, None], n - cols, cols)


def _trapz_weights(times):
    t = np.asarray(times, dtype=float)
    if t.size < 2 or np.any(np.diff(t) <= 0):
        raise ValueError("need at least two snapshots, at strictly increasing times")
    w = np.zeros(t.size)
    w[:-1] += 0.5 * np.diff(t)
    w[1:] += 0.5 * np.diff(t)
    return w


def _unique_columns(keys):
    """Distinct columns of an integer (j, m) array in lexicographic order,
    and the position of each input column among them.

    ``np.unique(keys, axis=1)`` gives the same, but sorts rows as opaque
    records and took about 0.07 s per cubic batch of the default ``nfe``.
    """
    order = np.lexsort(keys[::-1])
    ordered = keys[:, order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.any(ordered[:, 1:] != ordered[:, :-1], axis=0)
    inverse = np.empty(order.size, dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return ordered[:, new], inverse


def _product_rule(reads, conj, V, D):
    """(prod_j x_j, sum_j d_j prod_{l != j} x_l) over the slots ``reads``,
    one row per tuple and one column per snapshot; x_j and d_j are rows of
    ``V`` and ``D``, conjugated on flagged slots."""
    prod = dprod = None
    for idx, cflag in zip(reads, conj):
        x, d = V[idx], D[idx]
        if cflag:
            x, d = np.conj(x, out=x), np.conj(d, out=d)
        prod, dprod = (x, d) if prod is None else (prod * x, dprod * x + prod * d)
    return prod, dprod


_PAIR_CHUNK = 16  # pair columns per dense contraction block


def _contract(b, V, D, W):
    """sum_t W(t, out) d/dt prod_j V_hat_j(t) for every tuple of one batch.

    Rows are (head reads, output), columns the last two reads.  Each block
    of at most ``_PAIR_CHUNK`` columns of one pair momentum is one dense
    contraction over time with the rows its tuples use, and each tuple reads
    its own entry; grouping by momentum only keeps the blocks dense.
    """
    k = len(b.conj)
    head, pair = b.conj[:k - 2], b.conj[k - 2:]
    reads = _reads(b.conj, b.cols, V.shape[0])
    momentum = b.cols[k - 2] + b.cols[k - 1]
    cols, cpos = _unique_columns(np.vstack([momentum, reads[k - 2:]]))
    rows, rpos = _unique_columns(np.vstack([reads[:k - 2], b.out_idx]))
    edges = np.flatnonzero(np.diff(cols[0])) + 1
    blocks = [(c0, min(c0 + _PAIR_CHUNK, stop))
              for start, stop in zip(np.r_[0, edges], np.r_[edges, cols.shape[1]])
              for c0 in range(start, stop, _PAIR_CHUNK)]
    order = np.argsort(cpos, kind="stable")
    cuts = np.searchsorted(cpos[order], [c0 for c0, _ in blocks] + [cols.shape[1]])
    acc = np.empty(len(b), dtype=complex)
    for (c0, c1), t0, t1 in zip(blocks, cuts[:-1], cuts[1:]):
        t = order[t0:t1]
        used, row = np.unique(rpos[t], return_inverse=True)
        w = W[rows[-1, used]]
        pprod, dpprod = _product_rule(cols[1:, c0:c1], pair, V, D)
        if head:
            hprod, dhprod = _product_rule(rows[:-1, used], head, V, D)
            R = np.concatenate([w * dhprod, w * hprod], axis=1)
            C = np.concatenate([pprod, dpprod], axis=1)
        else:
            R, C = w, dpprod
        # einsum without optimize makes no BLAS call: its sums do not depend
        # on the BLAS build, core type or thread count
        acc[t] = np.einsum("rk,ck->rc", R, C)[row, cpos[t] - c0]
    return acc


def _time_series(traj, w):
    """The quadrature defect W(T) - W(0) - trapz(dW/dt) of the stored
    trajectory, and the three series ``_ibp_trapz`` sums over, one row per
    lattice index and one column per snapshot: V_hat, the raw right side
    e^{-i t omega} dW/dt, and w_i e^{i t_i omega}.  The right side is the
    one the stepper took at each snapshot, ``traj.right_sides``."""
    grid, times, data, rhs = (traj.grid, np.asarray(traj.times, dtype=float),
                              traj.data, traj.right_sides)
    carriers = np.exp(1j * times[:, None] * dispersion(grid.xi)[None, :])
    vdelta = carriers[-1] * data[-1] - carriers[0] * data[0]
    qvec = vdelta - np.einsum("i,ij->j", w, carriers * rhs)
    return qvec, tuple(np.ascontiguousarray(a.T)
                       for a in (data, rhs, w[:, None] * carriers))


def _ibp_trapz(batches, V, D, W):
    """Trapezoid in time of the integration-by-parts remainder integrand.

    For every batch tuple this is
        (-coef/(i phase)) sum_i w_i e^{i t_i phase} d/dt prod_j W_j(t_i),
    added at the tuple's output index, with the differentiated slot read
    from the exact right side.  The phase factorizes onto the output (see
    the module docstring), so the sum runs on the (n, T) series of
    ``_time_series``: ``V`` = V_hat, ``D`` = e^{-i t omega} dW/dt and
    ``W`` = w_i e^{i t_i omega}; ``_contract`` takes it per batch, and the
    batches add into one running sum, each output in batch order.
    """
    acc = np.zeros(V.shape[0], dtype=complex)
    for b in batches:
        add_by_output(acc, b.out_idx,
                      -b.coef / (1j * b.phase) * _contract(b, V, D, W))
    return acc


def _level_one(blocks, N):
    """Nonresonant depth-1 batches (|Phi| >= N in the oscillation convention).

    ``blocks`` maps each term name to an iterable of its TermValues blocks,
    which are read one at a time: only their nonresonant tuples are kept,
    as one batch per term in tuple order.  Also returns the depth-1 census
    per term.
    """
    batches, counts = [], {}
    for name in sorted(blocks):
        parts, total, term = [], 0, None
        for tv in blocks[name]:
            term = tv.term
            phase = _oscillation_phase(tv.grid, tv.out_idx, tv.slot_idx)
            mask = np.abs(phase) >= N
            total += len(tv)
            parts.append((tv.out_idx[mask], tv.slot_idx[:, mask], phase[mask],
                          tv.kernel[mask]))
        kept = sum(p[0].size for p in parts)
        counts[name] = {"tuples": total, "nonresonant": kept}
        if not kept:
            continue
        out_idx, cols, phase, kernel = (np.concatenate(a, axis=-1)
                                        for a in zip(*parts))
        batches.append(_Batch(conj=term.conj, out_idx=out_idx, cols=cols,
                              phase=phase, coef=COUPLING * kernel))
    return batches, counts


def _lattice_phase_cap(grid):
    """Largest |oscillation phase| any single term tuple can produce."""
    xi_max = float(np.abs(grid.xi).max())
    caps = [(t.arity + 1) * xi_max * xi_max for t in bo_terms().values()]
    return max(caps)


@dataclass
class NfeReport:
    """Result of :func:`nfe_residual`.

    ``residuals`` maps depth J to ||W(T) - W(0) - trunc_J||_{H^{s+1}};
    ``quadrature_error`` is the measured trapezoid defect
    ||W(T) - W(0) - trapz(dW/dt)|| in the same norm, the exact value of any
    residual whose remainder set is empty.  ``counts`` reports the depth-1
    tuple census per term, ``composed`` why each deeper depth is empty
    ("empty-by-phase-bound", with the smallest threshold and the largest
    reachable phase, or "empty-frontier").
    """

    residuals: dict
    quadrature_error: float
    norm_index: float
    counts: dict
    composed: dict
    h_max: float
    phase_cap: float
    warnings: list

    def summary(self):
        bits = ", ".join(f"J={j}: {self.residuals[j]:.3e}"
                         for j in sorted(self.residuals))
        return (f"nfe residuals in H^{self.norm_index:g}: {bits}; "
                f"quadrature floor {self.quadrature_error:.3e}")


def nfe_residual(traj, J_max, params):
    """Truncation residuals of the depth-J normal form on a stored trajectory.

    ``traj`` must hold the gauged coefficients V_hat(t) of the truncated
    band system and the right sides the stepper took at them, as
    ``evolve_gauged(..., rhs_mode="terms")`` returns it: dW/dt = e^{it omega}
    (right side) exactly, so the residuals measure only the unexpanded
    remainder plus the trapezoid defect.  Depth 1 splits tuples at |Phi| =
    N_threshold and is measured.  A deeper depth J splits at c_J
    |Phi_1|^delta and is never expanded: it is empty when depth 1 left no
    nonresonant tuple or when its smallest threshold exceeds the largest
    phase the lattice can reach, and its residual is then the quadrature
    defect.  When depth 2 is not provably empty, J_max >= 2 is an
    ArgumentError that gives both numbers; J_max = 1 runs.

    Snapshot cadence matters: the trapezoid rule must resolve e^{it Phi} for
    the largest retained |Phi|, so keep max_step * phase_cap below about 0.5
    (the report carries both numbers and warns when the product is large).

    Costs are guarded: a depth-1 term lattice with more than
    ``MAX_LATTICE_TUPLES`` tuples raises ValueError.  A J_max outside 1..3
    and a trajectory that is zero throughout, not of the band system (its
    metadata "rhs" other than "terms") or without right sides (as
    `Trajectory.load` returns it) are ArgumentErrors.
    """
    if not isinstance(J_max, int) or not 1 <= J_max <= 3:
        raise ArgumentError(
            "J_max", f"must be a positive integer no larger than 3, got "
            f"{J_max!r}")
    if not np.any(traj.data):
        raise ArgumentError("traj", "must not be zero throughout: zero data "
                                    "has no residual to measure")
    mode = traj.metadata.get("rhs")
    if mode != "terms" or traj.right_sides is None:
        got = "no right sides" if traj.right_sides is None else "right sides"
        raise ArgumentError("traj", "must be a run of the band system with its "
                            "right sides, as evolve_gauged(..., rhs_mode='terms') "
                            f"returns it; got rhs {mode!r} and {got}")

    grid = traj.grid
    times = np.asarray(traj.times, dtype=float)
    w = _trapz_weights(times)  # rejects fewer than two snapshots
    warnings = []

    env_field = SpectralField(grid, np.abs(traj.data).max(axis=0))
    frontier, counts = _level_one(
        {name: term_blocks(term, env_field, max_tuples=MAX_LATTICE_TUPLES)
         for name, term in bo_terms().items()},
        params.level_threshold(1))
    phase_cap = _lattice_phase_cap(grid)
    h_max = float(np.diff(times).max())
    if h_max * phase_cap > 0.75:
        warnings.append(
            f"snapshot cadence is coarse for this lattice: max_step x "
            f"phase_cap = {h_max * phase_cap:.2f} (aim for < 0.5)")

    # depth 2 is proved empty or refused, and every depth after an empty
    # one is empty
    composed = {}
    if J_max >= 2 and frontier:
        phi1_min = min(float(np.abs(b.phase).min()) for b in frontier)
        reachable = (max(float(np.abs(b.phase).max()) for b in frontier)
                     + phase_cap)
        # raises with the assumption message if infeasible
        threshold_min = float(params.level_threshold(2, phi1_min))
        if threshold_min <= reachable:
            raise ArgumentError(
                "J_max", f"must be 1 here: the lattice does not prove depth 2 "
                f"empty (smallest depth-2 threshold {threshold_min:.6g}, "
                f"largest reachable phase {reachable:.6g}), got {J_max}")
        composed[2] = {"status": "empty-by-phase-bound",
                       "threshold_min": threshold_min,
                       "phase_reachable": reachable}
    for J in range(2 + len(composed), J_max + 1):
        composed[J] = {"status": "empty-frontier"}

    qvec, series = _time_series(traj, w)
    norm_index = params.s + 1.0

    def norm_of(vec):
        return float(sobolev_norm(SpectralField(grid, vec), norm_index))

    quadrature_error = norm_of(qvec)
    residuals = {1: norm_of(qvec + _ibp_trapz(frontier, *series))}
    residuals.update((J, quadrature_error) for J in composed)

    return NfeReport(
        residuals=residuals,
        quadrature_error=quadrature_error,
        norm_index=norm_index,
        counts=counts,
        composed=composed,
        h_max=h_max,
        phase_cap=phase_cap,
        warnings=warnings,
    )
