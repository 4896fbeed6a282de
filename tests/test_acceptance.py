"""End-to-end acceptance gates, one verdict line per run.

Each test prints ``gate NN: PASS/FAIL - detail`` before asserting, so a
``pytest tests/test_acceptance.py -v -s`` run reads as a checklist.  The last
three gates evolve production-scale trajectories and take several minutes
each; everything else is seconds.

Gates 9, 10 and 11 also compare the numbers they decide on with
``tests/data/golden/gates.json``, by ``repr``, after their verdict
assertions: they run the right sides at sizes the golden reports do not
reach (the band side at n = 1024 and 2048, the exact side at (3, 512),
(3, 1024) and (5, 256)), so a change that claims the same bits proves it
there.  A change that moves rounding regenerates the pins from the
repository root with

    PYTHONPATH=src python tests/test_acceptance.py

and records the largest change in CHANGES.md.
"""

import json
import pathlib
import time

import numpy as np
import pytest

from bolab.dynamics import evolve_bo, evolve_gauged
from bolab.experiments import (
    lemma21_experiment,
    lipschitz_experiment,
    smoothing_experiment,
    verify_operator_estimate,
)
from bolab.gauge import gauge_forward, gauge_inverse, rhs_cubic, rhs_quadratic
from bolab.infr import (
    apply_T_sigma,
    bo_terms,
    dyadic_sigma_from_restricted,
    gamma_cubic,
    infr_params,
    split_resonant,
    term_values_on_lattice,
)
from bolab.integrals import cubic_integral_I, quad_integral_J
from bolab.nfe import nfe_residual
from bolab.reports import fit_power
from bolab.spectral import (
    Grid,
    SpectralField,
    antiderivative_symbol,
    apply_multiplier,
    derivative,
    hilbert,
    sobolev_norm,
    to_physical,
    to_spectral,
    zero_mean_project,
)


PINS = pathlib.Path(__file__).parent / "data" / "golden" / "gates.json"

# {gate: pins} while the pins are regenerated, else None
_RECORDED = None


def verdict(num, ok, detail):
    print(f"gate {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def check_pins(gate, numbers):
    """Compare the numbers a gate decides on, {name: float or list of
    floats}, with their pins in PINS by ``repr``, or record them while the
    pins are regenerated."""
    got = {name: [repr(float(v)) for v in value] if isinstance(value, list)
           else repr(float(value)) for name, value in numbers.items()}
    if _RECORDED is not None:
        _RECORDED[gate] = got
        return
    want = json.loads(PINS.read_text())[gate]
    for name in sorted(set(got) | set(want)):
        assert got.get(name) == want.get(name), f"{gate}.{name} moved"


def random_real_field(grid, rng, decay=2.0, kmax=None):
    n = grid.n
    c = np.zeros(n, dtype=np.complex128)
    kmax = kmax or n // 2 - 1
    for k in range(1, kmax + 1):
        val = (rng.standard_normal() + 1j * rng.standard_normal()) / (1 + k) ** decay
        c[k + n // 2] = val
        c[-k + n // 2] = np.conj(val)
    return SpectralField(grid, c)


def band_field(grid, rng, kmin, kmax, amplitude, decay=1.0):
    half = grid.n // 2
    c = np.zeros(grid.n, dtype=complex)
    for k in range(-kmax, kmax + 1):
        if abs(k) < kmin:
            continue
        z = rng.standard_normal() + 1j * rng.standard_normal()
        c[half + k] = amplitude * z / (1.0 + abs(k)) ** decay
    return SpectralField(grid, c)


def test_gate_01_spectral_substrate():
    """Plancherel, Hilbert isometry, H^2 = -Id, antiderivative/derivative
    inverse pair: 1e-12 relative on 100 random zero-mean fields, < 10 s."""
    t0 = time.perf_counter()
    grids = [Grid(64, np.pi), Grid(128, 4 * np.pi),
             Grid(256, 8 * np.pi), Grid(512, 2 * np.pi)]
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(100):
        g = grids[i % len(grids)]
        f = random_real_field(g, rng)
        scale = np.max(np.abs(f.coeffs))

        samples = to_physical(f)
        phys = np.sum(np.abs(samples) ** 2) * g.dx
        spec = np.sum(np.abs(f.coeffs) ** 2) * g.dxi / (2 * np.pi)
        worst = max(worst, abs(phys - spec) / spec)

        hf = hilbert(f)
        worst = max(worst, abs(sobolev_norm(hf, 0) - sobolev_norm(f, 0))
                    / sobolev_norm(f, 0))
        worst = max(worst, np.max(np.abs(hilbert(hf).coeffs + f.coeffs)) / scale)

        F = apply_multiplier(f, antiderivative_symbol(g))
        worst = max(worst, np.max(np.abs(
            derivative(F).coeffs - zero_mean_project(f).coeffs)) / scale)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-12 and dt < 10.0
    assert verdict(1, ok, f"spectral substrate: worst rel err {worst:.2e} "
                          f"on 100 fields in {dt:.1f}s")


def test_gate_02_gauge_round_trip():
    """Round trip through the gauge at N = 1024, relative L2 <= 1e-10, < 1 s."""
    t0 = time.perf_counter()
    g = Grid(1024, 8 * np.pi)
    u = to_spectral(-g.x * np.exp(-g.x**2 / 2.0), g)
    back = gauge_inverse(gauge_forward(u))
    rel = sobolev_norm(back - u, 0) / sobolev_norm(u, 0)
    dt = time.perf_counter() - t0
    ok = rel <= 1e-10 and dt < 1.0
    assert verdict(2, ok, f"gauge round trip at N=1024: rel {rel:.2e} in {dt:.2f}s")


def test_gate_03_reference_solver():
    """L2 drift <= 1e-8 over T = 1, temporal order 4.0 +- 0.3, zero mode
    bitwise preserved, < 2 min."""
    t0 = time.perf_counter()
    g = Grid(256, 8 * np.pi)
    u0 = 0.5 * random_real_field(g, np.random.default_rng(3), kmax=40)
    traj = evolve_bo(u0, T=1.0, dt=1e-3)
    drift = abs(sobolev_norm(traj.final, 0) - sobolev_norm(u0, 0)) \
        / sobolev_norm(u0, 0)
    zero_mode = bool(np.all(traj.data[:, g.n // 2] == 0.0))

    g2 = Grid(128, 4 * np.pi)
    v0 = 3.0 * random_real_field(g2, np.random.default_rng(4), decay=1.2,
                                 kmax=30)
    ref = evolve_bo(v0, 0.5, dt=5e-4, snapshot_every=10**9).final
    dts = [1.6e-2, 8e-3, 4e-3]
    errs = [sobolev_norm(evolve_bo(v0, 0.5, dt=h, snapshot_every=10**9).final
                         - ref, 0) for h in dts]
    slope = fit_power(dts, errs).exponent
    dt = time.perf_counter() - t0
    ok = drift <= 1e-8 and zero_mode and abs(slope - 4.0) <= 0.3 and dt < 120
    assert verdict(3, ok, f"solver: L2 drift {drift:.2e} over T=1, dt-order "
                          f"{slope:.2f}, zero mode exact={zero_mode}, {dt:.0f}s")


def test_gate_04_gauge_consistency():
    """Gauged evolution against gauge of the direct evolution in H^{s+1} at
    s = 1/2, T = 0.5, N = 1024: <= 1e-6, < 5 min."""
    t0 = time.perf_counter()
    g = Grid(1024, 8 * np.pi)
    u0 = to_spectral(0.4 * -g.x * np.exp(-g.x**2 / 2.0), g)
    T, step, s = 0.5, 1e-3, 0.5
    traj_u = evolve_bo(u0, T, step, snapshot_every=10**9)
    traj_v = evolve_gauged(gauge_forward(u0), T, step, snapshot_every=10**9)
    err = sobolev_norm(traj_v.final - gauge_forward(traj_u.final), s + 1.0)
    dt = time.perf_counter() - t0
    ok = err <= 1e-6 and dt < 300
    assert verdict(4, ok, f"gauge/direct consistency at N=1024, T=0.5: "
                          f"H^1.5 err {err:.2e} in {dt:.0f}s")


def test_gate_05_quadratic_integral_scaling():
    """Brute-force J^{alpha,M} at (s, eps) = (1/2, 0): M-exponent <= 1.15,
    alpha-exponent <= 0.15, mesh/width stability < 5%, < 10 min."""
    t0 = time.perf_counter()
    s, eps, cutoff = 0.5, 0.0, 64.0
    Ms = [2.0, 4.0, 8.0, 16.0, 32.0]
    m_fit = fit_power(Ms, [quad_integral_J(0.0, M, s, eps, cutoff) for M in Ms])
    alphas = [4.0, 8.0, 16.0, 32.0]
    a_fit = fit_power(alphas, [quad_integral_J(a, 2.0, s, eps, cutoff)
                               for a in alphas])
    base = quad_integral_J(0.0, 8.0, s, eps, cutoff)
    mesh_shift = abs(quad_integral_J(0.0, 8.0, s, eps, cutoff, mesh=48)
                     - base) / base
    width_shift = abs(quad_integral_J(0.0, 8.0, s, eps, 2 * cutoff)
                      - base) / base
    dt = time.perf_counter() - t0
    ok = (m_fit.exponent <= 1.15 and a_fit.exponent <= 0.15
          and mesh_shift < 0.05 and width_shift < 0.05 and dt < 600)
    assert verdict(5, ok, f"J scaling: M-exp {m_fit.exponent:.3f} (<=1.15), "
                          f"alpha-exp {a_fit.exponent:.3f} (<=0.15), "
                          f"mesh {mesh_shift:.1%}, width {width_shift:.1%}, "
                          f"{dt:.0f}s")


def test_gate_06_cubic_integral_scaling():
    """Same protocol for I^{alpha,M}_eps at (1/2, 0) and (1/2, 0.4) with the
    cubic gamma(eps), < 30 min."""
    t0 = time.perf_counter()
    s, cutoff = 0.5, 48.0
    Ms = [2.0, 4.0, 8.0, 16.0, 32.0]
    alphas = [4.0, 8.0, 16.0, 32.0]
    details, ok = [], True
    for eps in (0.0, 0.4):
        gam = gamma_cubic(s, eps)
        m_cap, a_cap = 1.0 + 2 * gam + 0.15, 2 * gam + 0.15
        m_fit = fit_power(Ms, [cubic_integral_I(0.0, M, s, eps, cutoff)
                               for M in Ms])
        a_fit = fit_power(alphas, [cubic_integral_I(a, 2.0, s, eps, cutoff)
                                   for a in alphas])
        base = cubic_integral_I(0.0, 8.0, s, eps, cutoff)
        mesh_shift = abs(cubic_integral_I(0.0, 8.0, s, eps, cutoff, mesh=32)
                         - base) / base
        width_shift = abs(cubic_integral_I(0.0, 8.0, s, eps, 2 * cutoff)
                          - base) / base
        ok = ok and (m_fit.exponent <= m_cap and a_fit.exponent <= a_cap
                     and mesh_shift < 0.05 and width_shift < 0.05)
        details.append(f"eps={eps:g}: M {m_fit.exponent:.3f}<={m_cap:.2f}, "
                       f"alpha {a_fit.exponent:.3f}<={a_cap:.2f}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 1800
    assert verdict(6, ok, "I scaling: " + "; ".join(details) + f", {dt:.0f}s")


def test_gate_07_operator_estimates():
    """Measured operator exponents within 0.1 of (gamma(eps), 1/2) for all
    four terms at (1/2, 0.4) and (1/2, 0), monotone in s, < 15 min."""
    t0 = time.perf_counter()
    terms = ("Q+", "Q-", "C+", "C-")
    reports = {(term, s, eps): verify_operator_estimate(term, s, eps)
               for term in terms
               for (s, eps) in ((0.5, 0.4), (0.5, 0.0), (1.0, 0.4))}
    ok, details = True, []
    for (term, s, eps), rep in reports.items():
        ok = ok and all(v is True for v in rep.checks.values())
        if (s, eps) != (1.0, 0.4):
            details.append(f"{term}@({s:g},{eps:g}): "
                           f"a={rep.fits['alpha_strong'].exponent:+.2f}"
                           f"<={rep.params['gamma_target'] + 0.1:.1f} "
                           f"m={rep.params['m_exponent_mean']:.2f}<=0.6")
    # smoother data must not scale worse: s = 1 exponents sit below s = 1/2
    mono = all(reports[(t, 1.0, 0.4)].fits["alpha_strong"].exponent
               < reports[(t, 0.5, 0.4)].fits["alpha_strong"].exponent
               for t in terms)
    dt = time.perf_counter() - t0
    ok = ok and mono and dt < 900
    assert verdict(7, ok, f"operator exponents: {'; '.join(details)}; "
                          f"s-monotone={mono}; {dt:.0f}s")


def test_gate_08_infr_mechanics():
    """Exact partition and dyadic reconstruction, T_{sigma=0} against the
    gauge right-hand-side oracles to 1e-12, and a depth-2 truncation residual
    strictly below depth-1 at threshold 1e3; < 10 min."""
    t0 = time.perf_counter()
    terms = bo_terms()

    g32 = Grid(32, np.pi)
    rng = np.random.default_rng(29)
    V32 = random_real_field(g32, rng, decay=1.0, kmax=10)
    tv = term_values_on_lattice(terms["Q+"], (V32, V32))
    near, non = split_resonant(tv, 25.0)
    whole = tv.field().coeffs
    part_ok = (len(near) + len(non) == len(tv)
               and np.all(np.abs(near.phase) < 25.0)
               and np.all(np.abs(non.phase) >= 25.0)
               and np.abs(near.field().coeffs + non.field().coeffs
                          - whole).max() <= 1e-14 * np.abs(whole).max())

    g64 = Grid(64, np.pi)
    V = band_field(g64, np.random.default_rng(7), 1, 28, 1.0, decay=0.0)
    dyadic_ok = all(
        np.array_equal(
            dyadic_sigma_from_restricted(terms[nm], (V,) * terms[nm].arity,
                                         0.75).coeffs,
            apply_T_sigma(terms[nm], (V,) * terms[nm].arity, 0.75).coeffs)
        for nm in ("Q+", "Q-", "C+"))

    oracle_err = 0.0
    for sign in "+-":
        got = apply_T_sigma(terms["Q" + sign], (V, V), 0.0)
        want = rhs_quadratic(V, sign)
        oracle_err = max(oracle_err, np.abs(got.coeffs - want.coeffs).max()
                         / np.abs(want.coeffs).max())
        got = apply_T_sigma(terms["C" + sign], (V, V, V), 0.0)
        want = rhs_cubic(V, sign)
        oracle_err = max(oracle_err, np.abs(got.coeffs - want.coeffs).max()
                         / np.abs(want.coeffs).max())

    g128 = Grid(128, np.pi)
    V0 = band_field(g128, np.random.default_rng(23), 20, 60, 0.05)
    traj = evolve_gauged(V0, T=0.02, dt=2.5e-5, rhs_mode="terms")
    nr = nfe_residual(traj, 2, infr_params(0.5, 0.0, N_threshold=1000.0))
    depth_ok = nr.residuals[2] < nr.residuals[1]

    dt = time.perf_counter() - t0
    ok = part_ok and dyadic_ok and oracle_err <= 1e-12 and depth_ok and dt < 600
    assert verdict(8, ok, f"infr mechanics: partition={part_ok}, "
                          f"dyadic bitwise={dyadic_ok}, oracle {oracle_err:.1e}, "
                          f"J2/J1={nr.residuals[2] / nr.residuals[1]:.3f}, "
                          f"{dt:.0f}s")


def test_gate_09_nonlinear_smoothing():
    """At (s, eps) = (1/2, 0.4), T = 0.5: profile remainder sup stable within
    10% across N in {512, 1024, 2048} while the data norm grows like
    N^{0.4 +- 0.1}; remainder tail steeper by >= 0.3; < 30 min."""
    t0 = time.perf_counter()
    rep = smoothing_experiment(seed=42, s=0.5, eps=0.4, T=0.5,
                               resolutions=[512, 1024, 2048])
    sups = [r["value"] for r in rep.samples if r["kind"] == "remainder_sup"]
    rate = rep.fits["v0_growth_eps0.4"].exponent
    gap = rep.params["tail_gap_eps0.4"]
    checks_ok = all(v is True for v in rep.checks.values())
    dt = time.perf_counter() - t0
    ok = checks_ok and dt < 1800
    assert verdict(9, ok, f"smoothing: sups {', '.join(f'{v:.5f}' for v in sups)}"
                          f" (spread {max(sups) / min(sups) - 1:.1%}), "
                          f"data growth {rate:.2f}, tail gap {gap:.2f}, "
                          f"{dt:.0f}s")
    assert rep.verdict == "pass"
    check_pins("gate_09", {"sups": sups, "rate": rate, "gap": gap})


def test_gate_10_lipschitz_continuity():
    """Gauged-flow distance over initial distance stays <= 10 at s = 1/2 up
    to T = 0.5, stable under perturbation halving and resolution doubling;
    < 20 min."""
    t0 = time.perf_counter()
    rep = lipschitz_experiment(seed=42, s=0.5, T=0.5, perturbation_size=1e-3,
                               resolutions=[512, 1024])
    sups = {}
    for r in rep.samples:
        if r["kind"] == "ratio":
            cell = f"n={r['n']} size={r['size']!r}"
            sups[cell] = max(sups.get(cell, r["value"]), r["value"])
    sup = max(sups.values())
    checks_ok = all(v is True for v in rep.checks.values())
    dt = time.perf_counter() - t0
    ok = checks_ok and dt < 1200
    assert verdict(10, ok, f"lipschitz: sup ratio {sup:.4f} (<=10), "
                           f"halving+resolution stable={checks_ok}, {dt:.0f}s")
    assert rep.verdict == "pass"
    check_pins("gate_10", {f"sup_ratio {cell}": v for cell, v in sups.items()})


def test_gate_11_small_amplitude_quadratic_rate():
    """Profile time-derivative sup scales like h^{2.0 +- 0.3}; one constant
    covers h <= 0.5 within a factor 1.5 of C (-33% to +50%); < 10 min."""
    t0 = time.perf_counter()
    rep = lemma21_experiment([0.05, 0.1, 0.2, 0.35, 0.5], T=0.25)
    power = rep.fits["small_h_power"].exponent
    cstar = rep.params["fitted_constant"]
    checks_ok = all(v is True for v in rep.checks.values())
    dt = time.perf_counter() - t0
    ok = checks_ok and abs(power - 2.0) <= 0.3 and dt < 600
    assert verdict(11, ok, f"small-amplitude rate: power {power:.2f} "
                           f"(2.0 +- 0.3), constant {cstar:.2f} covers all "
                           f"amplitudes within a factor 1.5 (-33% to +50%), "
                           f"{dt:.0f}s")
    assert rep.verdict == "pass"
    check_pins("gate_11", {
        "fitted_constant": cstar, "power": power,
        "ratios": [r["c_ratio"] for r in rep.samples
                   if r["kind"] == "derivative_sup"]})


if __name__ == "__main__":
    _RECORDED = {}
    test_gate_09_nonlinear_smoothing()
    test_gate_10_lipschitz_continuity()
    test_gate_11_small_amplitude_quadratic_rate()
    PINS.write_text(json.dumps(_RECORDED, indent=2, sort_keys=True) + "\n")
