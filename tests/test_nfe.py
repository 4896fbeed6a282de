"""Tests for the normal form residual engine.

The engine is checked three ways: a closed-form single-tuple evaluation of
the integration-by-parts quadrature, the grouped quadrature against the
per-snapshot loop it replaced (``tests/ibp_oracle.py``), and a full
independent evaluation of the depth-1 truncation by the plain route
(trapezoid of the nonresonant integrand plus explicit boundary endpoints).
The quadrature relies on every batch phase being omega(out) minus the
omegas of its columns, which ``test_batch_phase_is_output_minus_columns``
checks on every batch the engine builds.  Depths beyond 1 are proved empty
or refused, never expanded, and the premise of that rule (c_2 >= 3^8 for
every parameter set of ``infr_params``) has a test of its own.
"""

import tracemalloc

import numpy as np
import pytest

from bolab import infr, nfe
from bolab.dynamics import Trajectory, evolve_gauged
from bolab.experiments import rough_real_data
from bolab.gauge import gauge_forward, rhs_terms_total_coeffs
from bolab.infr import COUPLING, bo_terms, infr_params, term_values_on_lattice
from bolab.nfe import (
    _Batch,
    _ibp_trapz,
    _lattice_phase_cap,
    _level_one,
    _time_series,
    _trapz_weights,
    nfe_residual,
)
from bolab.spectral import (ArgumentError, Grid, SpectralField, dispersion,
                            sobolev_norm)
from ibp_oracle import ibp_trapz_loop


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
                   phase=np.array([phi]), coef=np.array([complex(coef)]))
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


def _small_flow(T, half_length=np.pi):
    """A flow of band data on modes 2..14 at n = 32, read on a grid of
    ``half_length``, and a depth-1 threshold of 1.3 dxi^2, just above the
    smallest nonzero lattice phase, so the frontier holds nearly every
    tuple."""
    g = Grid(32, np.pi)
    V0 = band_field(g, np.random.default_rng(5), 2, 14, 0.05, decay=1.0)
    traj = evolve_gauged(V0, T=T, dt=1e-4, rhs_mode="terms")
    g = Grid(32, half_length)
    traj = Trajectory(g, traj.times, traj.data, "V", traj.metadata)
    return traj, 1.3 * g.dxi ** 2


def _frontier(traj, N):
    """The depth-1 frontier that ``nfe_residual`` builds at threshold N."""
    env_field = SpectralField(traj.grid, np.abs(traj.data).max(axis=0))
    frontier, _ = _level_one(
        {name: [term_values_on_lattice(t, env_field)]
         for name, t in bo_terms().items()}, N)
    return frontier


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
    frontier = _frontier(traj, 1000.0)
    assert sorted(len(b.conj) for b in frontier) == [2, 2, 3, 3]
    _assert_oracle_agrees(frontier, traj)


def test_ibp_matches_oracle_at_nonuniform_times():
    full = _default_trajectory(1e-3)
    pick = np.r_[0, np.sort(np.random.default_rng(2).choice(
        np.arange(1, len(full) - 1), 17, replace=False)), len(full) - 1]
    traj = Trajectory(full.grid, full.times[pick], full.data[pick], "V",
                      full.metadata, full.right_sides[pick])
    steps = np.diff(traj.times)
    assert steps.max() > 1.5 * steps.min()
    frontier = _frontier(traj, 1000.0)
    _assert_oracle_agrees(frontier, traj)


def test_ibp_of_no_batches_is_zero():
    traj = _default_trajectory(1e-4)
    got, oracle = _against_oracle([], traj)
    assert np.all(got == 0) and np.all(oracle == 0)
    assert got.shape == oracle.shape == (traj.grid.n,)


@pytest.mark.parametrize("half_length", [np.pi, 1.5 * np.pi, 2.2 * np.pi],
                         ids=["pi", "1.5pi", "2.2pi"])
def test_batch_phase_is_output_minus_columns(half_length):
    """Every batch of ``_level_one`` has phase omega(out) - sum_j
    omega(cols_j), the identity the quadrature factorizes on.  A tuple phase
    is at most ``_lattice_phase_cap`` in size, so rounding stays within
    64 ulp of it (at half_length pi the phases are integers and exact)."""
    traj, N = _small_flow(2e-3, half_length)
    g = traj.grid
    om = dispersion(g.xi)
    frontier = _frontier(traj, N)
    assert {len(b.conj) for b in frontier} == {2, 3}
    tol = 64 * np.finfo(float).eps * _lattice_phase_cap(g)
    for b in frontier:
        gap = b.phase - (om[b.out_idx] - om[b.cols].sum(axis=0))
        assert np.abs(gap).max() <= tol


# ---------------------------------------------------------------------------
# residuals on trajectories


def test_zero_trajectory():
    # zero data has nothing to expand: refused, naming the trajectory,
    # rather than reporting residuals of 0.0 that no check can tell apart
    g = Grid(32, np.pi)
    data = np.zeros((3, g.n), dtype=complex)
    traj = Trajectory(g, [0.0, 0.01, 0.02], data, "V", {"rhs": "terms"},
                      rhs_terms_total_coeffs(data, g))
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


def test_depth_two_premise_of_every_parameter_set():
    """``infr_params`` fixes sigma = 3/4, so theta <= 1/4 and the depth-2
    coefficient c_2 = 3^(2/theta) is at least 3^8 at every feasible
    (s, eps).  ``nfe_residual`` only ever proves depth 2 empty or refuses
    it; a change of the exponent rule that lowers c_2 fails here first."""
    feasible = []
    for s in np.linspace(0.05, 3.0, 60):
        for eps in np.linspace(0.0, min(s, 0.75), 16, endpoint=False):
            p = infr_params(s, eps)
            if p.feasible:
                feasible.append(p)
                assert p.c(2) >= 3 ** 8, (s, eps, p.c(2))
    assert len(feasible) > 500


def test_depth_two_not_proved_empty_is_refused():
    """At N_threshold = 10 the default flow leaves a frontier whose depth-2
    threshold lies below the largest phase the lattice can reach: J_max = 2
    is refused with both numbers, and J_max = 1 runs."""
    traj = _default_trajectory(1e-3)
    p = infr_params(0.5, 0.0, N_threshold=10.0)
    with pytest.raises(ArgumentError, match="does not prove depth 2 empty "
                       r"\(smallest depth-2 threshold [0-9.e+]+, largest "
                       r"reachable phase [0-9.e+]+\)") as err:
        nfe_residual(traj, 2, p)
    assert err.value.argument == "J_max"
    rep = nfe_residual(traj, 1, p)
    assert list(rep.residuals) == [1] and rep.composed == {}
    assert sum(c["nonresonant"] for c in rep.counts.values()) > 0


def test_residuals_do_not_depend_on_the_block_budget(monkeypatch):
    # the depth-1 batches are cut from the blocks in tuple order, so one
    # tuple per block and one block in all give the same report
    traj = _default_trajectory(1e-3)
    p = infr_params(0.5, 0.0, N_threshold=1000.0)
    reports = []
    for budget in (1, 1 << 40):
        monkeypatch.setattr(infr, "BLOCK_TUPLES", budget)
        reports.append(nfe_residual(traj, 2, p))
    one, whole = reports
    assert one.residuals == whole.residuals
    assert one.counts == whole.counts and one.composed == whole.composed


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


def test_validation_and_warnings(monkeypatch):
    g = Grid(16, np.pi)
    rng = np.random.default_rng(1)
    V0 = band_field(g, rng, 2, 5, 0.1)
    data = np.vstack([V0.coeffs, V0.coeffs])
    rhs = rhs_terms_total_coeffs(data, g)
    traj = Trajectory(g, [0.0, 1e-3], data, "V", {"rhs": "terms"}, rhs)
    p = infr_params(0.5, 0.0, N_threshold=2.0)

    with pytest.raises(ValueError, match="positive integer"):
        nfe_residual(traj, 0, p)
    with pytest.raises(ValueError, match="J_max"):
        nfe_residual(traj, 4, p)
    with pytest.raises(ValueError, match="two snapshots"):
        nfe_residual(Trajectory(g, [0.0], data[:1], "V", {"rhs": "terms"},
                                rhs[:1]), 1, p)

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

    # the residual reads the right sides the stepper took: a trajectory
    # without them, as `Trajectory.load` returns, or without the band
    # system's metadata, is refused with the same message
    for bare in (Trajectory(g, [0.0, 1e-3], data, "V", {"rhs": "terms"}),
                 Trajectory(g, [0.0, 1e-3], data, "V", right_sides=rhs)):
        with pytest.raises(ArgumentError, match="^traj must be a run of the "
                           "band system with its right sides") as err:
            nfe_residual(bare, 1, p)
        assert err.value.argument == "traj"

    # coarse cadence relative to the lattice phases is flagged too
    coarse = Trajectory(g, [0.0, 1.0], data, "V", {"rhs": "terms"}, rhs)
    rep = nfe_residual(coarse, 1, p)
    assert any("cadence" in msg for msg in rep.warnings)

    # the cap on a depth-1 term lattice
    monkeypatch.setattr(nfe, "MAX_LATTICE_TUPLES", 10)
    with pytest.raises(ValueError, match="term lattice too large"):
        nfe_residual(traj, 1, p)
