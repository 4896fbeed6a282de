"""Solver tests: exact linear propagation, conservation, convergence order,
reversibility, and consistency between the direct and gauged flows."""

import fnmatch
import json
import os
import tracemalloc

import numpy as np
import pytest

from bolab import gauge
from bolab.dynamics import (
    MAX_STEPS,
    Trajectory,
    _ifrk4,
    _probe_dt,
    evolve_bo,
    evolve_gauged,
    evolve_gauged_batch,
    step_count,
)
from bolab.gauge import gauge_forward, rhs_exact_coeffs, rhs_terms_total_coeffs
from bolab.spectral import (
    ArgumentError,
    Grid,
    SpectralField,
    conj_reflect,
    from_padded,
    padded_grid,
    sobolev_norm,
    to_padded,
    to_physical,
    to_spectral,
)
from linear_flow import linear_propagator


def random_real_field(grid, rng, decay=2.0, kmax=None):
    n = grid.n
    c = np.zeros(n, dtype=np.complex128)
    kmax = kmax or n // 2 - 1
    for k in range(1, kmax + 1):
        val = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + k) ** decay
        c[k + n // 2] = val
        c[-k + n // 2] = np.conj(val)
    return SpectralField(grid, c)


def reality_residual(field):
    """Max deviation from conjugate symmetry (0 for real-valued fields)."""
    return float(np.max(np.abs(field.coeffs - conj_reflect(field.coeffs))))


def reflect(field):
    """x -> -x in physical space: u_hat(xi) -> u_hat(-xi)."""
    c = np.zeros_like(field.coeffs)
    c[1:] = field.coeffs[1:][::-1]
    return SpectralField(field.grid, c)


# -- linear propagator --------------------------------------------------------

def test_propagator_single_mode_hand_value():
    # omega(1) = 1, so e^{ix} evolves to e^{i(x - t)}
    g = Grid(32, np.pi)
    u = to_spectral(np.exp(1j * g.x), g)
    t = 0.7
    moved = linear_propagator(u, t)
    assert np.allclose(to_physical(moved), np.exp(1j * (g.x - t)), atol=1e-13)


def test_propagator_group_law_and_isometry():
    g = Grid(64, 2 * np.pi)
    rng = np.random.default_rng(1)
    u = random_real_field(g, rng)
    a = linear_propagator(linear_propagator(u, 0.3), 1.1)
    b = linear_propagator(u, 1.4)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12
    for s in (0.0, 0.5, 1.5):
        assert abs(sobolev_norm(linear_propagator(u, 2.2), s) - sobolev_norm(u, s)) < 1e-12


def test_solver_is_exact_on_linear_scale():
    # at tiny amplitude the nonlinearity is negligible and IF-RK4 reproduces
    # the propagator to rounding
    g = Grid(128, 4 * np.pi)
    rng = np.random.default_rng(2)
    u0 = 1e-10 * random_real_field(g, rng)
    traj = evolve_bo(u0, T=1.0, dt=0.05)
    exact = linear_propagator(u0, 1.0)
    rel = sobolev_norm(traj.final - exact, 0) / sobolev_norm(u0, 0)
    assert rel < 1e-9


# -- direct flow --------------------------------------------------------------

def test_bo_conservation_reality_zero_mode():
    g = Grid(256, 8 * np.pi)
    rng = np.random.default_rng(3)
    u0 = 0.5 * random_real_field(g, rng, kmax=40)
    traj = evolve_bo(u0, T=0.5, dt=1e-3)
    final = traj.final
    # L2 is conserved by the flow; the scheme drift is O(dt^4)
    drift = abs(sobolev_norm(final, 0) - sobolev_norm(u0, 0)) / sobolev_norm(u0, 0)
    assert drift <= 1e-9
    # reality is preserved to rounding accumulation
    assert reality_residual(final) <= 1e-11
    # the zero mode never moves at all
    assert np.all(traj.data[:, g.n // 2] == 0.0)


def test_bo_convergence_order():
    # needs data strong enough that the O(dt^4) error sits above rounding
    g = Grid(128, 4 * np.pi)
    rng = np.random.default_rng(4)
    u0 = 3.0 * random_real_field(g, rng, decay=1.2, kmax=30)
    T = 0.5
    ref = evolve_bo(u0, T, dt=5e-4, snapshot_every=10**9).final
    dts = [1.6e-2, 8e-3, 4e-3]
    errs = [
        sobolev_norm(evolve_bo(u0, T, dt=dt, snapshot_every=10**9).final - ref, 0)
        for dt in dts
    ]
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    print(f"dt-convergence slope: {slope:.3f}")
    assert 3.7 <= slope <= 4.3


def test_bo_reversibility_under_reflection():
    # u(x,t) -> u(-x,-t) is a symmetry of the flow, so evolving the reflected
    # final state recovers the initial data up to scheme error
    g = Grid(128, 4 * np.pi)
    rng = np.random.default_rng(5)
    u0 = 0.4 * random_real_field(g, rng, kmax=10)
    T, dt = 0.25, 1e-3
    fwd = evolve_bo(u0, T, dt, snapshot_every=10**9)
    back = evolve_bo(reflect(fwd.final), T, dt, snapshot_every=10**9)
    rel = sobolev_norm(reflect(back.final) - u0, 0) / sobolev_norm(u0, 0)
    assert rel <= 1e-8


def test_snapshot_cadence():
    g = Grid(64, np.pi)
    rng = np.random.default_rng(6)
    u0 = 0.1 * random_real_field(g, rng)
    traj = evolve_bo(u0, T=0.02, dt=1e-3, snapshot_every=7)
    assert len(traj) == 4  # t=0, steps 7 and 14, and the final step 20
    assert traj.times[-1] == pytest.approx(0.02)


def test_unstable_dt_is_rejected_with_bound():
    g = Grid(256, 4 * np.pi)
    rng = np.random.default_rng(7)
    u0 = random_real_field(g, rng, decay=1.0)
    with pytest.raises(ValueError, match="stability bound"):
        evolve_bo(u0, T=100.0, dt=50.0)


def test_probe_growth_bound_is_four():
    # The probe takes 8 trial steps and refuses a norm that grows more than
    # 4x.  On the right side lam c the growth is exp(8 lam h) up to RK4
    # error: 10x at dt fails, and its square root (3.2x) at dt / 2 passes,
    # so the named bound is dt / 2; 3x at dt passes outright.
    g = Grid(16, np.pi)
    c0 = np.ones(g.n, dtype=complex)
    dt = 0.01

    def growing(factor):
        lam = np.log(factor) / (8 * dt)
        return lambda c: lam * c

    with pytest.raises(ValueError, match=r"stability bound is about 0\.005$"):
        _probe_dt(c0, g, dt, growing(10.0))
    _probe_dt(c0, g, dt, growing(3.0))


def test_nan_abort_names_step():
    # the direct-flow stepper at a step far past the stability bound, without
    # the startup probe that evolve_bo runs first
    g = Grid(256, 4 * np.pi)
    rng = np.random.default_rng(8)
    u0 = random_real_field(g, rng, decay=1.0)
    pg = padded_grid(g)

    def rhs(c):
        s = to_padded(c, pg)
        return 0.5j * g.xi * from_padded(s * s, pg)

    with pytest.raises(RuntimeError, match=r"finiteness at step \d+ of 100 "):
        _ifrk4(u0.coeffs, g, 100.0, 1.0, rhs, snapshot_every=1)


def test_nan_abort_names_the_batch_member():
    # the same stepper on a batch in which only member 1 blows up
    g = Grid(256, 4 * np.pi)
    rng = np.random.default_rng(8)
    u0 = random_real_field(g, rng, decay=1.0)
    pg = padded_grid(g)

    def rhs(c):
        s = to_padded(c, pg)
        return 0.5j * g.xi * from_padded(s * s, pg)

    c0 = np.stack([1e-6 * u0.coeffs, u0.coeffs])
    with pytest.raises(RuntimeError,
                       match=r"finiteness at step \d+ of 100 \(member 1, t = "):
        _ifrk4(c0, g, 100.0, 1.0, rhs, snapshot_every=1)


# -- time grid ----------------------------------------------------------------

def test_step_count_rounds_and_lands_on_T():
    assert step_count(0.25, 1e-3) == 250
    assert step_count(0.01, 0.003) == 3  # nearest whole number
    assert step_count(1e-4, 1.0) == 1  # at least one step


@pytest.mark.parametrize("T, dt, name", [
    (0.0, 1e-3, "T"), (-0.01, 1e-3, "T"), (float("nan"), 1e-3, "T"),
    (0.01, 0.0, "dt"), (0.01, -0.001, "dt"), (0.01, float("nan"), "dt"),
    # an infinite T would overflow round(T / dt), and an infinite dt would
    # give one step of size T
    (float("inf"), 1e-3, "T"), (0.01, float("inf"), "dt"),
    (0.01, float("-inf"), "dt"),
])
def test_step_count_rejects_nonpositive(T, dt, name):
    with pytest.raises(ArgumentError, match=rf"^{name} must be positive") as err:
        step_count(T, dt)
    assert err.value.argument == name


@pytest.mark.parametrize("T, dt", [
    (1.0, 1e-300), (0.25, 1e-300), (1.0, 0.99 / MAX_STEPS),
    # T / dt overflows to inf, which round() could not convert
    (1e300, 1e-300),
])
def test_step_count_refuses_steps_past_the_ceiling(T, dt):
    with pytest.raises(ArgumentError, match=rf"^dt must be large enough for "
                                            rf"at most {MAX_STEPS} steps") as err:
        step_count(T, dt)
    assert err.value.argument == "dt"


def test_step_count_ceiling_sits_far_above_the_gates():
    assert step_count(1.0, 1.0 / MAX_STEPS) == MAX_STEPS
    # gate 9's longest run: 40,000 steps to T = 0.5
    assert 100 * step_count(0.5, 0.5 / 40_000) < MAX_STEPS


@pytest.mark.parametrize("kwargs, name", [
    ({"T": 0.01, "dt": -0.001}, "dt"),
    ({"T": 0.01, "dt": 0.0}, "dt"),
    ({"T": -0.01, "dt": 1e-3}, "T"),
    ({"T": 0.01, "dt": 1e-3, "snapshot_every": 0}, "snapshot_every"),
    # a kept step's slot is step // snapshot_every, an index
    ({"T": 0.01, "dt": 1e-3, "snapshot_every": 2.0}, "snapshot_every"),
    # more steps than MAX_STEPS
    ({"T": 0.01, "dt": 1e-300}, "dt"),
])
def test_evolutions_reject_bad_time_arguments(monkeypatch, kwargs, name):
    # rejected before the stability probe takes a single step
    import bolab.dynamics as dynamics

    monkeypatch.setattr(dynamics, "_probe_dt", None)
    g = Grid(32, np.pi)
    u0 = to_spectral(0.1 * np.sin(g.x), g)
    for evolve, field in ((evolve_bo, u0), (evolve_gauged, gauge_forward(u0))):
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            evolve(field, **kwargs)


# -- gauged flow --------------------------------------------------------------

def test_gauged_matches_gauge_of_direct_flow():
    # evolve u directly and V through the gauged equation; the gauge of the
    # evolved u must match the evolved V
    g = Grid(256, 8 * np.pi)
    u0 = to_spectral(0.4 * -g.x * np.exp(-g.x**2 / 2.0), g)
    T, dt = 0.25, 1e-3
    traj_u = evolve_bo(u0, T, dt, snapshot_every=10**9)
    traj_v = evolve_gauged(gauge_forward(u0), T, dt, snapshot_every=10**9)
    V_of_u = gauge_forward(traj_u.final)
    err = sobolev_norm(traj_v.final - V_of_u, 1.5)
    print(f"gauged-vs-direct H^1.5 error: {err:.3e}")
    assert err <= 1e-8


def test_gauged_terms_mode_runs():
    g = Grid(64, np.pi)
    rng = np.random.default_rng(9)
    u0 = 0.2 * random_real_field(g, rng, kmax=20)
    traj = evolve_gauged(gauge_forward(u0), T=0.05, dt=1e-3, rhs_mode="terms")
    assert np.all(np.isfinite(traj.data))
    assert traj.metadata["rhs"] == "terms"


def test_gauged_margin_guard():
    # the state after step 1 is refused at its own time: in a longer run
    # step 2's k1 stage reads it, in a one-step run the final-state transform
    g = Grid(32, np.pi)
    c = np.zeros(g.n, dtype=complex)
    c[g.n // 2] = -0.95 * 2 * g.half_length  # V == -0.95, margin 0.05
    V0 = SpectralField(g, c)
    for T in (0.01, 1e-3):
        with pytest.raises(ValueError,
                           match=r"not invertible.* at t = 0\.001$"):
            evolve_gauged(V0, T=T, dt=1e-3)


def test_gauged_margin_guard_names_the_batch_member():
    g = Grid(32, np.pi)
    c = np.zeros(g.n, dtype=complex)
    c[g.n // 2] = -0.95 * 2 * g.half_length
    fields = [SpectralField(g, np.zeros(g.n, dtype=complex)), SpectralField(g, c)]
    for T in (0.01, 1e-3):
        with pytest.raises(ValueError,
                           match=r"not invertible.* at member 1, t = 0\.001$"):
            evolve_gauged_batch(fields, T=T, dt=1e-3)


def test_unstable_dt_names_the_batch_member():
    # the failed batch trial falls back to one probe per member, which names
    # the member and the bound its field alone gets
    g = Grid(64, np.pi)
    stable = gauge_forward(to_spectral(0.01 * np.sin(g.x), g))
    unstable = gauge_forward(to_spectral(np.sin(10 * g.x), g))
    evolve_gauged(stable, T=0.5, dt=0.5)
    with pytest.raises(ValueError, match="stability bound") as alone:
        evolve_gauged(unstable, T=0.5, dt=0.5)
    with pytest.raises(ValueError) as batch:
        evolve_gauged_batch([stable, unstable, stable], T=0.5, dt=0.5)
    assert str(batch.value) == f"member 1: {alone.value}"


@pytest.mark.parametrize("rhs_mode", ["exact", "terms"])
def test_unstable_member_probed_at_a_new_shape_is_named(rhs_mode):
    # with no workspace held, the per-member fallback of a failed (3, n)
    # trial makes the first right-side call at (n,): its workspace and bound
    # right side are built mid-probe, and the error still names the member
    g = Grid(64, np.pi)
    stable = gauge_forward(to_spectral(0.01 * np.sin(g.x), g))
    unstable = gauge_forward(to_spectral(2.0 * (np.sin(g.x) + np.sin(10 * g.x)), g))
    gauge._workspace.cache_clear()
    with pytest.raises(ValueError) as batch:
        evolve_gauged_batch([stable, unstable, stable], T=0.5, dt=0.5,
                            rhs_mode=rhs_mode)
    assert gauge._workspace.cache_info().currsize == 2
    with pytest.raises(ValueError, match="stability bound") as alone:
        evolve_gauged(unstable, T=0.5, dt=0.5, rhs_mode=rhs_mode)
    assert str(batch.value) == f"member 1: {alone.value}"


def test_stable_batch_takes_one_probe_trial(monkeypatch):
    # the probe of a stable batch marches the whole (B, n) array once
    import bolab.dynamics as dynamics

    march, trials = dynamics._march, []

    def spy(c0, grid, h, steps, rhs, every=None, watch=None):
        if every is None:
            trials.append(np.shape(c0))
        return march(c0, grid, h, steps, rhs, every, watch)

    monkeypatch.setattr(dynamics, "_march", spy)
    g = Grid(64, np.pi)
    rng = np.random.default_rng(12)
    fields = [gauge_forward(0.1 * random_real_field(g, rng)) for _ in range(3)]
    evolve_gauged_batch(fields, T=1e-3, dt=1e-4)
    assert trials == [(3, g.n)]


@pytest.mark.parametrize("snapshot_every", [1, 6, 7, 10**9])
def test_stored_right_sides_equal_fresh_calls(snapshot_every):
    # each snapshot carries the right side the stepper took at it, the k1
    # stage of the next step or the final state's own, bit for bit; a step
    # that wrote into its k1 would change the stored one.  The cadence
    # divides the 30 steps, does not, or exceeds them.
    g = Grid(64, np.pi)
    rng = np.random.default_rng(21)
    pg = padded_grid(g)
    half_ixi = 0.5j * g.xi

    def bo(c, grid):
        s = to_padded(c, pg)
        return half_ixi * from_padded(s * s, pg)

    T, dt = 30 * 1e-4, 1e-4
    u0 = 0.3 * random_real_field(g, rng)
    runs = [(evolve_bo(u0, T=T, dt=dt, snapshot_every=snapshot_every), bo)]
    fields = [gauge_forward(0.3 * random_real_field(g, rng)) for _ in range(3)]
    for rhs_mode, fn in (("exact", rhs_exact_coeffs),
                         ("terms", rhs_terms_total_coeffs)):
        kw = dict(T=T, dt=dt, rhs_mode=rhs_mode, snapshot_every=snapshot_every)
        runs.append((evolve_gauged(fields[0], **kw), fn))
        runs += [(traj, fn) for traj in evolve_gauged_batch(fields, **kw)]
    for traj, fn in runs:
        assert len(traj) == 30 // snapshot_every + 1 + (30 % snapshot_every > 0)
        assert np.array_equal(traj.times,
                              np.r_[0:30:snapshot_every, 30] * (T / 30))
        assert traj.times[-1] == T
        assert traj.right_sides.shape == traj.data.shape
        for c, k in zip(traj.data, traj.right_sides):
            assert np.array_equal(k, fn(c.copy(), g))


@pytest.mark.parametrize("members", [1, 3])
def test_right_side_calls_per_run(monkeypatch, members):
    # one right side per state: 4 per step and one for the final state, plus
    # the probe's trial of 8 steps, which takes none for its final state; a
    # batch takes one call per evaluation
    import bolab.dynamics as dynamics

    calls = []
    real = dynamics.rhs_terms_total_coeffs

    def counted(c, g, watch=None):
        calls.append(np.shape(c))
        return real(c, g, watch)

    monkeypatch.setattr(dynamics, "rhs_terms_total_coeffs", counted)
    g = Grid(64, np.pi)
    rng = np.random.default_rng(22)
    fields = [gauge_forward(0.1 * random_real_field(g, rng))
              for _ in range(members)]
    steps = 9
    evolve_gauged_batch(fields, T=steps * 1e-4, dt=1e-4, rhs_mode="terms",
                        snapshot_every=4)
    assert len(calls) == 4 * steps + 1 + 4 * 8
    assert set(calls) == {(members, g.n)}


@pytest.mark.parametrize("members", [1, 3])
def test_kept_snapshots_are_held_once(members):
    # the march writes each kept state and its right side into arrays sized
    # before the first step, and a batch member gets views of them, so a run
    # that keeps every state peaks near what it keeps; lists of per-state
    # arrays stacked at the end hold it all twice
    g = Grid(32, np.pi)
    rng = np.random.default_rng(23)
    fields = [gauge_forward(0.1 * random_real_field(g, rng))
              for _ in range(members)]
    kw = dict(T=400 * 1e-4, dt=1e-4, snapshot_every=1)
    tracemalloc.start()
    try:
        trajs = (evolve_gauged_batch(fields, **kw) if members > 1
                 else [evolve_gauged(fields[0], **kw)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(t.data.nbytes + t.right_sides.nbytes for t in trajs)
    assert kept == members * 2 * 401 * g.n * 16
    assert peak <= 1.25 * kept


def test_trajectory_refuses_right_sides_of_another_shape():
    g = Grid(16, np.pi)
    data = np.zeros((2, g.n), dtype=complex)
    Trajectory(g, [0.0, 0.1], data, "V", right_sides=data)
    with pytest.raises(ValueError, match="right-side shapes"):
        Trajectory(g, [0.0, 0.1], data, "V", right_sides=data[0])


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("rhs_mode", ["exact", "terms"])
def test_batch_rows_equal_single_runs(n, rhs_mode):
    g = Grid(n, np.pi)
    rng = np.random.default_rng(n)
    fields = [gauge_forward(0.3 * random_real_field(g, rng)) for _ in range(3)]
    batch = evolve_gauged_batch(fields, T=0.004, dt=1e-4, rhs_mode=rhs_mode,
                                snapshot_every=7)
    assert len(batch) == len(fields)
    for field, traj in zip(fields, batch):
        one = evolve_gauged(field, T=0.004, dt=1e-4, rhs_mode=rhs_mode,
                            snapshot_every=7)
        assert np.array_equal(traj.times, one.times)
        assert np.array_equal(traj.data, one.data)
        assert traj.data.flags.c_contiguous
        assert traj.metadata == one.metadata


@pytest.mark.parametrize("fields", [
    [],
    [SpectralField(Grid(32, np.pi), np.zeros(32)),
     SpectralField(Grid(32, 4 * np.pi), np.zeros(32))],
])
def test_batch_refuses_empty_or_mixed_grids(monkeypatch, fields):
    # refused before the stability probe or the stepper runs
    import bolab.dynamics as dynamics

    monkeypatch.setattr(dynamics, "_probe_dt", None)
    monkeypatch.setattr(dynamics, "_ifrk4", None)
    with pytest.raises(ValueError, match="at least one field|on one grid"):
        evolve_gauged_batch(fields, T=0.01, dt=1e-3)


def test_bad_rhs_mode():
    g = Grid(32, np.pi)
    V0 = SpectralField(g, np.zeros(g.n, dtype=complex))
    with pytest.raises(ValueError, match="rhs_mode"):
        evolve_gauged(V0, T=0.01, dt=1e-3, rhs_mode="bogus")


# -- trajectory container -----------------------------------------------------

def test_trajectory_save_load_round_trip(tmp_path):
    g = Grid(64, 2 * np.pi)
    rng = np.random.default_rng(10)
    u0 = 0.3 * random_real_field(g, rng)
    traj = evolve_bo(u0, T=0.01, dt=1e-3, snapshot_every=2)
    d = tmp_path / "traj"
    traj.save(d)
    back = Trajectory.load(d)
    assert back.tag == traj.tag
    assert np.array_equal(back.times, traj.times)
    assert np.array_equal(back.data, traj.data)
    assert back.metadata["scheme"] == "ifrk4"
    # the right sides are not saved
    assert traj.right_sides is not None and back.right_sides is None


def test_trajectory_save_is_atomic(tmp_path, monkeypatch):
    # every file is moved into place from a temporary name beside it that no
    # snap_*.bosf glob matches; a save that fails part way leaves the earlier
    # save readable and no temporary file behind
    g = Grid(32, np.pi)
    traj = evolve_bo(to_spectral(0.1 * np.sin(g.x), g), T=0.004, dt=1e-3)
    d = tmp_path / "traj"
    files = sorted([f"snap_{i:06d}.bosf" for i in range(len(traj))]
                   + ["manifest.json"])
    moves = []
    real_replace = os.replace

    def recording_replace(src, dst):
        moves.append((src, dst))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", recording_replace)
    traj.save(d)
    assert sorted(p.name for p in d.iterdir()) == files
    assert sorted(os.path.basename(dst) for _, dst in moves) == files
    for src, dst in moves:
        assert os.path.dirname(src) == os.path.dirname(dst)
        assert not fnmatch.fnmatch(os.path.basename(src), "snap_*.bosf")

    def crash(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="disk full"):
        evolve_bo(to_spectral(0.2 * np.sin(g.x), g), T=0.004, dt=1e-3).save(d)
    assert sorted(p.name for p in d.iterdir()) == files
    assert np.array_equal(Trajectory.load(d).data, traj.data)


@pytest.mark.parametrize("fmt", [None, 2])
def test_trajectory_load_refuses_unknown_format(tmp_path, fmt):
    g = Grid(32, np.pi)
    d = tmp_path / "traj"
    evolve_bo(to_spectral(0.1 * np.sin(g.x), g), T=0.002, dt=1e-3).save(d)
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["format"] == 1
    if fmt is None:
        del manifest["format"]
    else:
        manifest["format"] = fmt
    (d / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"unknown trajectory format {fmt}"):
        Trajectory.load(d)


@pytest.mark.parametrize("extra", [-2, 2])
def test_trajectory_load_refuses_a_snapshot_count_unlike_times(
        tmp_path, monkeypatch, extra):
    # refused before any snapshot is read: two fewer names would leave rows
    # of the data unset, two more would read past the times
    import bolab.dynamics as dynamics

    g = Grid(32, np.pi)
    d = tmp_path / "traj"
    evolve_bo(to_spectral(0.1 * np.sin(g.x), g), T=0.004, dt=1e-3).save(d)
    manifest = json.loads((d / "manifest.json").read_text())
    names = manifest["snapshots"]
    assert len(names) == len(manifest["times"]) == 5
    manifest["snapshots"] = names[:extra] if extra < 0 else names + names[:extra]
    (d / "manifest.json").write_text(json.dumps(manifest))
    monkeypatch.setattr(dynamics, "read_snapshot", None)
    with pytest.raises(ValueError, match=rf"names {5 + extra} snapshots for 5 times$"):
        Trajectory.load(d)
