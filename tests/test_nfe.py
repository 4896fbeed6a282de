"""Tests for the normal form residual engine.

The engine is checked four ways: a closed-form single-tuple evaluation of the
integration-by-parts quadrature, the grouped quadrature against the
per-snapshot loop it replaced (``tests/ibp_oracle.py``), hand-composed tuples
(indices, phases, coefficients) for the substitution step, and a full
independent evaluation of the depth-1 truncation by the plain route
(trapezoid of the nonresonant integrand plus explicit boundary endpoints).
The composition rule (a conjugated slot flips the child's conjugation flags)
lives only in ``_compose``, and the conjugated-slot hand values check it
there.  The quadrature relies on every batch phase being omega(out) minus
the omegas of its columns, which ``test_batch_phase_is_output_minus_columns``
checks on every batch the engine builds.
"""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bolab import infr, nfe
from bolab.dynamics import Trajectory, evolve_gauged
from bolab.experiments import rough_real_data
from bolab.gauge import gauge_forward, rhs_terms_total_coeffs
from bolab.infr import COUPLING, bo_terms, infr_params, term_values_on_lattice
from bolab.nfe import (
    _Batch,
    _child_index,
    _compose,
    _compose_estimate,
    _ibp_trapz,
    _lattice_phase_cap,
    _level_one,
    _reads,
    _time_series,
    _trapz_weights,
    nfe_residual,
)
from bolab.spectral import (ArgumentError, Grid, SpectralField, dispersion,
                            sobolev_norm)
from ibp_oracle import ibp_trapz_loop


def field_from_modes(grid, modes):
    c = np.zeros(grid.n, dtype=complex)
    for k, val in modes.items():
        c[int(k) + grid.n // 2] = val
    return SpectralField(grid, c)


def band_field(grid, rng, kmin, kmax, amplitude, decay=1.0):
    """Random complex field supported on kmin <= |k| <= kmax."""
    half = grid.n // 2
    assert kmax < half
    c = np.zeros(grid.n, dtype=complex)
    for k in range(-kmax, kmax + 1):
        if abs(k) < kmin:
            continue
        z = rng.standard_normal() + 1j * rng.standard_normal()
        c[half + k] = amplitude * z / (1.0 + abs(k)) ** decay
    return SpectralField(grid, c)


# ---------------------------------------------------------------------------
# quadrature helpers


def test_trapz_weights():
    w = _trapz_weights(np.array([0.0, 0.1, 0.3]))
    assert np.allclose(w, [0.05, 0.15, 0.1], atol=1e-15)
    assert abs(w.sum() - 0.3) < 1e-15
    with pytest.raises(ValueError):
        _trapz_weights(np.array([0.0, 0.0, 0.1]))
    with pytest.raises(ValueError):
        _trapz_weights(np.array([0.0]))


def test_ibp_evaluator_single_tuple():
    """Closed-form check of the integration-by-parts quadrature, with one
    plain and one conjugated column; the phase is omega(out) minus the
    omegas of the columns, as on every batch the engine builds."""
    g = Grid(8, np.pi)
    n = g.n
    times = np.linspace(0.0, 0.5, 11)
    rng = np.random.default_rng(7)
    data = rng.standard_normal((11, n)) + 1j * rng.standard_normal((11, n))
    rhs = rng.standard_normal((11, n)) + 1j * rng.standard_normal((11, n))
    om = dispersion(g.xi)
    carriers = np.exp(1j * times[:, None] * om[None, :])
    w = _trapz_weights(times)
    out, read0, read1 = 3, 5, 6
    cols = np.array([[read0], [n - read1]])
    phi = om[out] - om[cols[:, 0]].sum()
    assert phi == pytest.approx(2.0)  # omega(-1) - omega(1) - omega(-2)
    coef = 0.3 - 0.2j
    batch = _Batch(conj=(False, True), out_idx=np.array([out]), cols=cols,
                   phase=np.array([phi]), phase1=np.array([abs(phi)]),
                   coef=np.array([complex(coef)]))
    got = _ibp_trapz([batch], data.T.copy(), rhs.T.copy(),
                     (w[:, None] * carriers).T.copy())

    # the rotated profiles W = e^{i t omega} V_hat, rotated by the tuple phase
    Vt, Nt = carriers * data, carriers * rhs
    expect = 0.0
    for i, t in enumerate(times):
        a, da = Vt[i][read0], Nt[i][read0]
        b, db = np.conj(Vt[i][read1]), np.conj(Nt[i][read1])
        expect += w[i] * np.exp(1j * t * phi) * (da * b + a * db)
    expect *= -coef / (1j * phi)
    assert abs(got[out] - expect) < 1e-14 * abs(expect)
    assert np.all(got[np.arange(n) != out] == 0)


def _default_trajectory(T):
    """The flow of the default ``bolab nfe`` config (n = 128, rough data of
    seed 42, amplitude 0.05, dt = 2.5e-5), stopped at ``T``."""
    g = Grid(128, np.pi)
    u0 = rough_real_data(g, 0.5, 42, 0.05)
    return evolve_gauged(gauge_forward(u0), T=T, dt=2.5e-5, rhs_mode="terms")


def _composition_setup(T, half_length=np.pi):
    """The flow of ``test_sigma_override_exercises_composition`` on a grid of
    ``half_length``, with thresholds that compose every arity.

    That test's own depth-2 threshold (about 115) keeps only cubic-in-cubic
    tuples (arity 5); a fixed 100 dxi^2 keeps arities 3, 4 and 5.
    """
    g = Grid(32, np.pi)
    V0 = band_field(g, np.random.default_rng(5), 2, 14, 0.05, decay=1.0)
    traj = evolve_gauged(V0, T=T, dt=1e-4, rhs_mode="terms")
    g = Grid(32, half_length)
    traj = Trajectory(g, traj.times, traj.data, "V", traj.metadata)
    scale = g.dxi ** 2
    params = SimpleNamespace(
        N_threshold=1.3 * scale,
        level_threshold=lambda level, phi1: np.full(np.shape(phi1), 100 * scale))
    return traj, params


def _frontiers(traj, params, depth):
    """The depth-1 .. ``depth`` frontiers that ``nfe_residual`` builds."""
    env_field = SpectralField(traj.grid, np.abs(traj.data).max(axis=0))
    tvs = {name: term_values_on_lattice(t, env_field)
           for name, t in bo_terms().items()}
    frontier, _, _ = _level_one({name: [tv] for name, tv in tvs.items()},
                                params.N_threshold, traj.grid.n)
    out = [frontier]
    for level in range(2, depth + 1):
        frontier = _compose(frontier, tvs, _child_index(tvs), level, params,
                            traj.grid.n)
        out.append(frontier)
    return out


def _against_oracle(frontier, traj):
    """(grouped quadrature, per-snapshot oracle) of one frontier."""
    g, times = traj.grid, np.asarray(traj.times)
    _, series = _time_series(traj, _trapz_weights(times))
    carriers = np.exp(1j * times[:, None] * dispersion(g.xi)[None, :])
    rhs = np.array([rhs_terms_total_coeffs(v, g) for v in traj.data])
    return (_ibp_trapz(frontier, *series),
            ibp_trapz_loop(frontier, carriers * traj.data, carriers * rhs, times,
                           g.xi))


def _assert_oracle_agrees(frontier, traj):
    got, oracle = _against_oracle(frontier, traj)
    scale = np.abs(oracle).max()
    assert scale > 0
    assert np.abs(got - oracle).max() <= 1e-13 * scale


def test_ibp_matches_oracle_on_default_frontier():
    traj = _default_trajectory(1e-3)
    (frontier,) = _frontiers(traj, infr_params(0.5, 0.0, N_threshold=1000.0), 1)
    assert sorted(len(b.conj) for b in frontier) == [2, 2, 3, 3]
    _assert_oracle_agrees(frontier, traj)


def test_ibp_matches_oracle_on_composed_frontier():
    traj, p = _composition_setup(2e-3)
    _, frontier = _frontiers(traj, p, 2)
    assert {len(b.conj) for b in frontier} == {3, 4, 5}
    _assert_oracle_agrees(frontier, traj)


def test_ibp_matches_oracle_at_nonuniform_times():
    full = _default_trajectory(1e-3)
    pick = np.r_[0, np.sort(np.random.default_rng(2).choice(
        np.arange(1, len(full) - 1), 17, replace=False)), len(full) - 1]
    traj = Trajectory(full.grid, full.times[pick], full.data[pick], "V",
                      full.metadata)
    steps = np.diff(traj.times)
    assert steps.max() > 1.5 * steps.min()
    (frontier,) = _frontiers(traj, infr_params(0.5, 0.0, N_threshold=1000.0), 1)
    _assert_oracle_agrees(frontier, traj)


def test_ibp_of_no_batches_is_zero():
    traj = _default_trajectory(1e-4)
    got, oracle = _against_oracle([], traj)
    assert np.all(got == 0) and np.all(oracle == 0)
    assert got.shape == oracle.shape == (traj.grid.n,)


@pytest.mark.parametrize("half_length", [np.pi, 1.5 * np.pi, 2.2 * np.pi],
                         ids=["pi", "1.5pi", "2.2pi"])
def test_batch_phase_is_output_minus_columns(half_length):
    """Every batch of ``_level_one`` and ``_compose`` has phase
    omega(out) - sum_j omega(cols_j), the identity the quadrature factorizes
    on.  A depth-J phase is a sum of J tuple phases, each at most
    ``_lattice_phase_cap`` in size, so rounding stays within 64 ulp of
    J x phase_cap (at half_length pi the phases are integers and exact)."""
    traj, p = _composition_setup(2e-3, half_length)
    g = traj.grid
    om = dispersion(g.xi)
    frontiers = _frontiers(traj, p, 2)
    for depth, frontier in enumerate(frontiers, start=1):
        assert frontier
        tol = 64 * np.finfo(float).eps * depth * _lattice_phase_cap(g)
        for b in frontier:
            gap = b.phase - (om[b.out_idx] - om[b.cols].sum(axis=0))
            assert np.abs(gap).max() <= tol
    assert {len(b.conj) for b in frontiers[1]} == {3, 4, 5}


# ---------------------------------------------------------------------------
# composition


def _envelope_tvs(grid, kmax):
    env = field_from_modes(grid, {k: 1.0 for k in range(-kmax, kmax + 1) if k})
    return {name: term_values_on_lattice(t, env)
            for name, t in bo_terms().items()}


def _single_parent_batch(tvs, name, slot_indices):
    tv = tvs[name]
    pick = np.ones(len(tv), dtype=bool)
    for j, idx in enumerate(slot_indices):
        pick &= tv.slot_idx[j] == idx
    assert pick.sum() == 1
    sel = tv.restrict(pick)
    om = dispersion(tv.grid.xi)
    phi = om[sel.out_idx] - om[sel.slot_idx].sum(axis=0)
    return _Batch(conj=sel.term.conj, out_idx=sel.out_idx, cols=sel.slot_idx,
                  phase=phi, phase1=np.abs(phi), coef=COUPLING * sel.kernel)


def test_compose_quadratic_parent_hand_values():
    """One Q+ parent (xi1, xi2) = (5, -2), threshold forced to zero: the
    composed set must carry the right indices, phases and coefficients."""
    g = Grid(16, np.pi)
    n, half = g.n, g.n // 2
    tvs = _envelope_tvs(g, 6)
    batch = _single_parent_batch(tvs, "Q+", (half + 5, half - 2))
    assert batch.phase[0] == pytest.approx(-12.0)  # omega(3)-omega(5)-omega(-2)

    free = SimpleNamespace(level_threshold=lambda level, phi1: 0.0)
    comp = _compose([batch], tvs, _child_index(tvs), 2, free, n)

    om = dispersion(g.xi)
    total = 0
    for b in comp:
        total += len(b)
        assert np.all(b.out_idx == half + 3)
        assert np.allclose(b.phase1, 12.0)
        # convolution frequencies of the composed columns sum to the output
        assert np.allclose(g.xi[b.cols].sum(axis=0), g.xi[half + 3])
        # oscillation phase of the composed leaves, no flips
        assert np.allclose(b.phase, om[half + 3] - om[b.cols].sum(axis=0))
        reads = _reads(b.conj, b.cols, n)
        for j, cflag in enumerate(b.conj):
            expect_reads = (n - b.cols[j]) if cflag else b.cols[j]
            assert np.array_equal(reads[j], expect_reads)
    # every child tuple whose output matches a parent read appears exactly once
    expect_total = sum(int((tvs[t].out_idx == read).sum())
                       for t in tvs for read in (half + 5, half - 2))
    assert total == expect_total
    per_output = sum(np.bincount(tv.out_idx, minlength=n) for tv in tvs.values())
    assert _compose_estimate([batch], per_output) == expect_total

    # hand case: slot 0 substituted by the Q+ child (6, -1); coefficient
    # (-2i K1 / (i Phi1)) * 2i K' with K1 = 4/(2pi), K' = 1/(2pi), Phi1 = -12
    found = 0
    for b in comp:
        if b.conj != (False, False, False):
            continue
        hit = ((b.cols[0] == half - 2) & (b.cols[1] == half + 6)
               & (b.cols[2] == half - 1))
        if hit.any():
            (i,) = np.nonzero(hit)
            assert b.phase[i[0]] == pytest.approx(-22.0)  # -12 + (25 - 36 + 1)
            assert b.coef[i[0]] == pytest.approx(1j / (3 * np.pi ** 2))
            found += hit.sum()
    assert found == 1


def test_compose_conjugated_slot_hand_values():
    """A C+ parent (5, -2, 1): substitution into the conjugated slot must
    reflect the child frequencies, flip its flags and conjugate the
    coupling; the composed phase is the parent's minus the child's."""
    g = Grid(16, np.pi)
    n, half = g.n, g.n // 2
    tvs = _envelope_tvs(g, 6)
    batch = _single_parent_batch(tvs, "C+", (half + 5, half - 2, half + 1))
    assert batch.phase[0] == pytest.approx(-6.0)  # 16 - 25 + 4 - 1

    free = SimpleNamespace(level_threshold=lambda level, phi1: 0.0)
    comp = _compose([batch], tvs, _child_index(tvs), 2, free, n)

    om = dispersion(g.xi)
    for b in comp:
        assert np.allclose(b.phase, om[half + 4] - om[b.cols].sum(axis=0))
    # hand case: conjugated slot (read +2) substituted by the Q+ child
    # (4, -2); transformed columns are (-4, +2) with both flags set
    found = 0
    for b in comp:
        if b.conj != (False, False, True, True):
            continue
        hit = ((b.cols[0] == half + 5) & (b.cols[1] == half + 1)
               & (b.cols[2] == half - 4) & (b.cols[3] == half + 2))
        if hit.any():
            (i,) = np.nonzero(hit)
            # Phi = -6 - Phi_child, Phi_child = omega(2)-omega(4)-omega(-2) = -8
            assert b.phase[i[0]] == pytest.approx(2.0)
            # (-2i K1/(i Phi1)) * conj(2i) K'; the cubic parent kernel
            # carries the squared measure: K1 = -1/(4 pi^2), K' = 4/(2 pi)
            assert b.coef[i[0]] == pytest.approx(1j / (3 * np.pi ** 3))
            found += hit.sum()
    assert found == 1


# ---------------------------------------------------------------------------
# residuals on trajectories


def test_zero_trajectory():
    # zero data has nothing to expand: refused, naming the trajectory,
    # rather than reporting residuals of 0.0 that no check can tell apart
    g = Grid(32, np.pi)
    data = np.zeros((3, g.n), dtype=complex)
    traj = Trajectory(g, [0.0, 0.01, 0.02], data, "V", {"rhs": "terms"})
    with pytest.raises(ArgumentError, match="^traj must not be zero") as err:
        nfe_residual(traj, 2, infr_params(0.5, 0.0, N_threshold=40.0))
    assert err.value.argument == "traj"


def test_residual_ordering_small_lattice():
    """Depth-2 nonresonance is provably empty on this lattice, so the depth-2
    residual equals the measured quadrature defect and must sit far below the
    depth-1 residual."""
    g = Grid(32, np.pi)
    rng = np.random.default_rng(11)
    V0 = band_field(g, rng, 2, 14, 0.05, decay=1.0)
    traj = evolve_gauged(V0, T=0.02, dt=1e-4, rhs_mode="terms")
    p = infr_params(0.5, 0.0, N_threshold=40.0)
    rep = nfe_residual(traj, 3, p)
    print(rep.summary())
    print("counts:", rep.counts, "| composed:", rep.composed)

    assert sum(v["nonresonant"] for v in rep.counts.values()) > 0
    assert rep.composed[2]["status"] == "empty-by-phase-bound"
    assert rep.composed[3]["status"] == "empty-frontier"
    assert rep.residuals[2] == rep.quadrature_error
    assert rep.residuals[3] == rep.residuals[2]
    assert rep.residuals[2] < 0.2 * rep.residuals[1]
    assert not rep.warnings
    assert rep.norm_index == pytest.approx(1.5)
    assert rep.phase_cap == pytest.approx(4.0 * 16.0 ** 2)
    assert "J=1" in rep.summary()


def test_residual_matches_independent_formula():
    """Engine route (boundary terms cancelled analytically) against the plain
    route (trapezoid of the nonresonant integrand plus explicit boundary
    endpoints).  Both approximate the same depth-1 residual."""
    g = Grid(32, np.pi)
    rng = np.random.default_rng(3)
    V0 = band_field(g, rng, 2, 14, 0.05, decay=1.0)
    traj = evolve_gauged(V0, T=0.02, dt=1e-4, rhs_mode="terms")
    N = 40.0
    p = infr_params(0.5, 0.0, N_threshold=N)
    rep = nfe_residual(traj, 1, p)

    om = dispersion(g.xi)
    times = traj.times
    carriers = np.exp(1j * times[:, None] * om[None, :])
    Vt = carriers * traj.data
    Nt = np.array([carriers[i] * rhs_terms_total_coeffs(traj.data[i], g)
                   for i in range(len(traj))])
    w = _trapz_weights(times)
    qvec = (Vt[-1] - Vt[0]) - np.einsum("i,ij->j", w, Nt)

    env = np.abs(traj.data).max(axis=0).astype(complex)
    env[0] = 0.0
    env_field = SpectralField(g, env)
    nonres = np.zeros((len(traj), g.n), dtype=complex)
    bdry0 = np.zeros(g.n, dtype=complex)
    bdry1 = np.zeros(g.n, dtype=complex)
    for name, term in bo_terms().items():
        tv = term_values_on_lattice(term, env_field)
        # time-integrand phase (no flip on conjugated slots) and reads, here
        osc = om[tv.out_idx] - om[tv.slot_idx].sum(axis=0)
        keep = np.abs(osc) >= N
        if not keep.any():
            continue
        out_idx, cols, osc = tv.out_idx[keep], tv.slot_idx[:, keep], osc[keep]
        for i in range(len(traj)):
            vals = tv.kernel[keep].astype(complex)
            for col, cflag in zip(cols, term.conj):
                vals *= (np.conj(traj.data[i][g.n - col]) if cflag
                         else traj.data[i][col])
            acc = np.zeros(g.n, dtype=complex)
            np.add.at(acc, out_idx, vals)
            nonres[i] += COUPLING * carriers[i] * acc
            if i in (0, len(traj) - 1):
                accb = np.zeros(g.n, dtype=complex)
                np.add.at(accb, out_idx, vals / (1j * osc))
                target = bdry0 if i == 0 else bdry1
                target += COUPLING * carriers[i] * accb
    plain = qvec + np.einsum("i,ij->j", w, nonres) - (bdry1 - bdry0)
    res_plain = sobolev_norm(SpectralField(g, plain), 1.5)
    print(f"engine {rep.residuals[1]:.6e}  plain {res_plain:.6e}  "
          f"floor {rep.quadrature_error:.3e}")
    assert rep.residuals[1] > 5.0 * rep.quadrature_error
    assert res_plain == pytest.approx(rep.residuals[1], rel=2e-2)


def test_sigma_override_exercises_composition(monkeypatch):
    """A sigma close to gamma + beta shrinks c_2 enough for genuine depth-2
    nonresonant tuples; the composed machinery must run and improve on
    depth 1.

    Lattice phases are even integers, so with N barely above 1 the smallest
    nonresonant parent phase is 2 and the depth-2 threshold is about
    c_2 * 2^delta ~ 115; cubic child phases reach 130 on modes up to 14,
    which keeps the composed nonresonant set nonempty.
    """
    g = Grid(32, np.pi)
    rng = np.random.default_rng(5)
    V0 = band_field(g, rng, 2, 14, 0.05, decay=1.0)
    traj = evolve_gauged(V0, T=0.005, dt=1e-4, rhs_mode="terms")
    # theta = 1 - max(gamma + beta, sigma + gamma) at gamma = 0, and
    # delta = theta / (2 beta) = theta
    theta = 1.0 - 0.501
    p = dataclasses.replace(infr_params(0.5, 0.0, N_threshold=1.3),
                            sigma=0.501, theta=theta, delta=theta)
    monkeypatch.setattr(nfe, "MAX_COMPOSED", 4_000_000)
    rep = nfe_residual(traj, 2, p)
    print(rep.summary())
    print("composed:", rep.composed)
    assert rep.composed[2]["status"] == "expanded"
    assert rep.composed[2]["nonresonant"] > 0
    assert rep.residuals[2] < rep.residuals[1]
    # the same cap also guards the per-term lattices, tripped first when tiny
    monkeypatch.setattr(nfe, "MAX_COMPOSED", 50_000)
    with pytest.raises(ValueError, match="composed tuples"):
        nfe_residual(traj, 2, p)
    monkeypatch.setattr(nfe, "MAX_COMPOSED", 100)
    with pytest.raises(ValueError, match="term lattice too large"):
        nfe_residual(traj, 2, p)


def test_residuals_do_not_depend_on_the_block_budget(monkeypatch):
    # the depth-1 batches are cut from the blocks in tuple order, so one
    # tuple per block and one block in all give the same report, and the
    # expanded depth of the composition setup as well
    traj = _default_trajectory(1e-3)
    p = infr_params(0.5, 0.0, N_threshold=1000.0)
    comp, pc = _composition_setup(2e-3)
    pc = dataclasses.replace(infr_params(0.5, 0.0, N_threshold=pc.N_threshold),
                             sigma=0.501, theta=0.499, delta=0.499)
    reports = []
    for budget in (1, 1 << 40):
        monkeypatch.setattr(infr, "BLOCK_TUPLES", budget)
        reports.append([nfe_residual(traj, 2, p), nfe_residual(comp, 2, pc)])
    for one, whole in zip(*reports):
        assert one.residuals == whole.residuals
        assert one.counts == whole.counts and one.composed == whole.composed
    assert reports[0][1].composed[2]["status"] == "expanded"


# tracemalloc peak of the default ``bolab nfe`` residual: 18.9 MB measured
# with only the depth-1 frontier kept, 44.5 MB when the four term lattices
# (two cubic ones of 198,555 tuples) were held
NFE_PEAK_BOUND = 28e6


def test_default_residual_memory_is_bounded():
    traj = _default_trajectory(0.02)
    p = infr_params(0.5, 0.0, N_threshold=1000.0)
    tracemalloc.start()
    try:
        rep = nfe_residual(traj, 2, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.counts["C+"]["tuples"] == 198_555
    assert peak < NFE_PEAK_BOUND, f"traced peak {peak / 1e6:.1f} MB"


def test_validation_and_warnings():
    g = Grid(16, np.pi)
    rng = np.random.default_rng(1)
    V0 = band_field(g, rng, 2, 5, 0.1)
    data = np.vstack([V0.coeffs, V0.coeffs])
    traj = Trajectory(g, [0.0, 1e-3], data, "V", {"rhs": "terms"})
    p = infr_params(0.5, 0.0, N_threshold=2.0)

    with pytest.raises(ValueError, match="positive integer"):
        nfe_residual(traj, 0, p)
    with pytest.raises(ValueError, match="J_max"):
        nfe_residual(traj, 4, p)
    with pytest.raises(ValueError, match="two snapshots"):
        nfe_residual(Trajectory(g, [0.0], data[:1], "V"), 1, p)

    # depth 1 never needs c_J, deeper levels refuse infeasible parameters
    bad = infr_params(0.5, 0.4, N_threshold=2.0)
    assert 1 in nfe_residual(traj, 1, bad).residuals
    with pytest.raises(ValueError, match="Assumption 1"):
        nfe_residual(traj, 2, bad)

    # a trajectory of the full right side is refused: the identity the
    # residual rests on holds for the band system only
    exact = evolve_gauged(V0, T=1e-3, dt=1e-4, rhs_mode="exact")
    with pytest.raises(ArgumentError, match="band system") as err:
        nfe_residual(exact, 1, p)
    assert err.value.argument == "traj"

    # coarse cadence relative to the lattice phases is flagged too
    coarse = Trajectory(g, [0.0, 1.0], data, "V", {"rhs": "terms"})
    rep = nfe_residual(coarse, 1, p)
    assert any("cadence" in msg for msg in rep.warnings)
