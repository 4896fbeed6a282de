"""Quantitative experiments on the gauged flow, and the report of every
``bolab`` command.

Each driver returns a self-contained :class:`~bolab.reports.EstimateReport`
and decides its checks here, so the command line only builds inputs:

* :func:`verify_operator_estimate` — growth exponents of ``T^{alpha,M}``;
* :func:`smoothing_experiment` — the profile remainder stays stable in
  ``H^{s+1+eps}`` under resolution doubling while the data norm diverges;
* :func:`lipschitz_experiment` — separation ratio of two gauged flows;
* :func:`lemma21_experiment` — amplitude scaling of the profile derivative;
* :func:`simulate_experiment`, :func:`gauge_check_experiment`,
  :func:`params_report`, :func:`integral_scaling_experiment` and
  :func:`nfe_report` — the reports of the other commands.

Each measurement runs on its input as given or refuses it: an argument it
cannot use (no trials, an unfittable window list, a perturbation that is
zero or whose calibrated gap is rounding noise, a zero amplitude or
``u0``, a ``u`` with a mean, no grid size, resolutions out of order, a
seed numpy's generator refuses, a ``c_max`` below 1) is an
:class:`~bolab.spectral.ArgumentError` carrying its name; a window list
with no alpha fit or M-sweep anchor, or a remainder sup of zero, leaves
its check "inconclusive".  Every driver that reads ``eps`` takes its
(s, eps) through :func:`~bolab.infr.infr_params`, the one owner of the
rule s > 0, 0 <= eps < min(s, 3/4), and of the gammas.

All randomness flows through seeded generators recorded in the report, so
reports are bit-reproducible.  Every check read off a power-law fit goes
through ``EstimateReport.check_fit``, so an inconclusive fit never passes.
"""

import numpy as np

from .spectral import (ArgumentError, Grid, SpectralField, dispersion,
                       sobolev_norm, to_physical)
from .dynamics import evolve_bo, evolve_gauged, evolve_gauged_batch, step_count
from .gauge import gauge_forward, gauge_inverse, profile_time_derivative_sup
from .infr import _replay, bo_terms, infr_params, window_indicator
from .integrals import cubic_integral_I, quad_integral_J
from .reports import EstimateReport, PowerFit, fit_power

__all__ = ["rough_profile_data", "rough_real_data", "unit_rough_field",
           "bump_shape", "verify_operator_estimate", "smoothing_experiment",
           "lipschitz_experiment", "lemma21_experiment", "simulate_experiment",
           "gauge_check_experiment", "params_report",
           "integral_scaling_experiment", "nfe_report"]

EXPONENT_TOL = 0.1  # slack added to every exponent cap
ROUND_TRIP_BOUND = 1e-10  # relative L2 error of the gauge round trip
CONSISTENCY_BOUND = 1e-6  # H^{s+1} gap of the gauged and direct flows at T
NFE_FLOOR_FACTOR = 1e-6  # nfe residual floor, in units of quadrature_error
# largest factor between a calibrated Lipschitz gap and its requested size
GAP_FACTOR = 2.0
BUMP_WIDTH = 6.0  # Gaussian width of the bump_shape spectrum, in lattice modes


# ---------------------------------------------------------------------------
# data generators
# ---------------------------------------------------------------------------

def _generator(seed):
    """numpy Generator of ``seed``; a seed numpy refuses (a negative
    integer, say) is an ArgumentError naming ``seed``."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError):
        raise ArgumentError(
            "seed", f"must be a non-negative integer, got {seed!r}") from None


def _random_phase_field(grid, seed, mag):
    """Real field with |c(k)| = mag(k) and one uniform phase drawn per
    positive mode k in index order (so the low modes agree across
    resolutions for a fixed seed); zero mean, Nyquist empty."""
    rng = _generator(seed)
    half = grid.n // 2
    c = np.zeros(grid.n, dtype=complex)
    for k in range(1, half):
        c[half + k] = mag(k) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        c[half - k] = np.conj(c[half + k])
    return SpectralField(grid, c)


def rough_profile_data(grid, s, seed, amplitude=0.5):
    """Random conjugate-symmetric data with |c(k)| = amplitude * <xi_k>^-(s+1.51).

    The tail exponent -(s + 1) - 1/2 - 0.01 puts the field in H^{s+1} and in
    no better Sobolev space once the lattice truncation is removed: the
    H^{s+1+eps} norm of the truncated field grows like N^(eps - 0.01) under
    resolution doubling, which is the divergence the smoothing experiment
    plays against.
    """
    return rough_real_data(grid, s + 1.0, seed, amplitude)


def rough_real_data(grid, s, seed, amplitude=1.0):
    """Real-valued rough data with |c(k)| ~ <xi_k>^-(s+0.51) (H^s regularity)."""
    def mag(k):
        xi = grid.dxi * k
        return amplitude * (1.0 + xi * xi) ** (-0.5 * (s + 0.51))

    return _random_phase_field(grid, seed, mag)


def unit_rough_field(grid, s, rng):
    """Random complex field, unit H^{s+1} norm, tail just inside H^{s+1}.

    Operator-estimate inputs: both halves of the lattice drawn
    independently (no conjugate symmetry — the restricted operators act on
    complex band fields).
    """
    n = grid.n
    half = n // 2
    c = np.zeros(n, dtype=complex)
    k = np.arange(1, half)
    xi = grid.dxi * k
    mag = (1.0 + xi * xi) ** (-0.5 * (s + 1.0 + 0.51))
    c[half + k] = mag * np.exp(2j * np.pi * rng.random(half - 1))
    c[half - k] = mag * np.exp(2j * np.pi * rng.random(half - 1))
    f = SpectralField(grid, c)
    return f * (1.0 / sobolev_norm(f, s + 1.0))


def bump_shape(grid, seed=7):
    """Smooth real bump (Gaussian spectrum, random phases, unit sup-norm).

    The amplitude-sweep experiment scales this fixed shape, so the sweep
    isolates the dependence on amplitude rather than on regularity.
    """
    f = _random_phase_field(grid, seed, lambda k: np.exp(-((k / BUMP_WIDTH) ** 2)))
    return f * (1.0 / np.max(np.abs(to_physical(f))))


def _dyadic_tail_slope(grid, coeffs):
    """Fitted log-log slope of dyadic band energies (top octave excluded)."""
    half = grid.n // 2
    centers, energies = [], []
    j = 2
    while 2 ** (j + 1) <= half // 2:
        lo, hi = 2 ** j, 2 ** (j + 1)
        kk = np.arange(lo, hi)
        e2 = np.sum(np.abs(coeffs[half + kk]) ** 2
                    + np.abs(coeffs[half - kk]) ** 2) * grid.dxi / (2.0 * np.pi)
        centers.append(np.sqrt(lo * hi))
        energies.append(np.sqrt(e2))
        j += 1
    if len(centers) < 2:  # fit_power needs two samples
        return np.nan
    return fit_power(centers, energies).exponent


# ---------------------------------------------------------------------------
# operator estimates
# ---------------------------------------------------------------------------

def verify_operator_estimate(term, s, eps,
                             alpha_list=(128.0, 256.0, 512.0, 1024.0),
                             M_list=(16.0, 32.0, 64.0, 128.0),
                             trials=8, grid_n=128, half_length=np.pi, seed=7):
    """Measure the growth of ||T^{alpha,M}(inputs)||_{H^{s+eps+1}} in alpha and M.

    ``term`` is one of the term names "Q+", "Q-", "C+", "C-".  The sweep
    draws ``trials`` ensembles of random unit-H^{s+1} inputs and averages
    the output norms per cell (the ensemble mean; a max statistic
    overweights single extreme draws at desk scale).

    Window placement: on this lattice the interaction phase of a "+"-output
    term is negative and that of a "-"-output term positive, so the alpha
    sweep runs over the signed side where the windows are populated; the
    reported alpha values are the magnitudes.  The alpha fit uses only
    windows with |alpha| >= 2 xi_max (all resolved output frequencies are
    reachable there; closer to zero the value still grows because the
    window is unrolling across the lattice corner, which measures geometry,
    not the exponent); with fewer than two such windows both alpha checks
    are inconclusive.  The M exponent is fitted per anchor alpha and
    averaged over anchors, the fitted alphas >= 2 max(M) (so (|alpha|+M)^gamma
    stays flat across the M sweep); with no anchor it is inconclusive.

    Checks (upper bounds, tolerance 0.1): strong alpha exponent vs
    gamma(eps); mean M exponent vs 1/2; weak-form (Fourier-sup) alpha
    exponent vs gamma(0), the gammas of ``infr_params`` at (s, eps) and
    (s, 0).  ``trials`` must be at least 1, ``alpha_list`` must hold two
    distinct values and ``M_list`` two distinct positive ones.
    """
    if trials < 1:
        raise ArgumentError("trials", f"must be at least 1, got {trials!r}")
    terms = bo_terms()
    if term not in terms:
        raise ArgumentError("term",
                            f"must be one of {sorted(terms)}, got {term!r}")
    term = terms[term]
    alpha_list = sorted(float(a) for a in alpha_list)
    M_list = sorted(float(m) for m in M_list)
    if len(set(alpha_list)) < 2:
        raise ArgumentError("alpha_list",
                            f"needs two distinct values, got {alpha_list}")
    if len(set(M_list)) < 2 or M_list[0] <= 0.0:
        raise ArgumentError("M_list",
                            f"needs two distinct positive widths, got {M_list}")
    arity = term.arity
    gamma, gamma0 = (p.gamma_quad if arity == 2 else p.gamma_cubic
                     for p in (infr_params(s, eps), infr_params(s, 0.0)))
    rep = EstimateReport("operator_estimate", params={
        "term": term.name, "s": s, "eps": eps, "trials": trials,
        "n_points": grid_n, "half_length": half_length, "seed": seed,
        "alpha_list": alpha_list, "M_list": M_list,
        "gamma_target": gamma, "gamma_weak_target": gamma0,
        "m_target": 0.5, "tolerance": EXPONENT_TOL})
    grid = Grid(grid_n, half_length)
    rng = _generator(seed)
    sign = -1.0 if term.name.endswith("+") else 1.0
    m_ref = M_list[0]
    unroll = 2.0 * grid.dxi * (grid.n // 2)
    fit_alphas = [a for a in alpha_list if a >= unroll]
    anchors = [a for a in fit_alphas if a >= 2.0 * M_list[-1]]
    # window cells (alpha, M) -> [strong, weak] sums over the ensemble; each
    # member's tuples are enumerated once and replayed into every cell
    cells = {cell: [0.0, 0.0] for cell in
             [(a, m_ref) for a in fit_alphas]
             + [(a, M) for a in anchors for M in M_list]}
    windows = [lambda tv, a=a, M=M: window_indicator(tv.phase, sign * a, M)
               for a, M in cells]
    for _ in range(trials):
        inputs = [unit_rough_field(grid, s, rng) for _ in range(arity)]
        outs = _replay(term, inputs, windows)
        floor = min(np.max(np.abs(f.coeffs)) for f in inputs)
        for sums, out in zip(cells.values(), outs):
            sums[0] += sobolev_norm(out, s + eps + 1.0)
            sums[1] += np.max(np.abs(out.coeffs)) / floor

    for a in fit_alphas:
        strong, weak = (v / trials for v in cells[(a, m_ref)])
        rep.add_sample(strong, fit="alpha_strong", alpha=a, m=m_ref,
                       alpha_plus_m=a + m_ref, kind="strong")
        rep.add_sample(weak, fit="alpha_weak", alpha=a, m=m_ref,
                       alpha_plus_m=a + m_ref, kind="weak")
    m_fits = []
    for a in anchors:
        tag = f"m_sweep_alpha{a:g}"
        for M in M_list:
            rep.add_sample(cells[(a, M)][0] / trials, fit=tag, alpha=a, m=M,
                           alpha_plus_m=a + M, kind="strong")
        m_fits.append(rep.fit_samples(tag, "m"))
    if len(fit_alphas) >= 2:
        fit_alpha = rep.fit_samples("alpha_strong", "alpha_plus_m")
        fit_weak = rep.fit_samples("alpha_weak", "alpha_plus_m")
    else:
        fit_alpha = fit_weak = PowerFit(np.nan, np.nan, np.inf, False)
        rep.notes.append(f"fewer than two alphas >= {unroll:g}: no alpha fit")

    rep.check_fit("alpha_exponent_le_gamma", fit_alpha,
                  lambda p: p <= gamma + EXPONENT_TOL)
    rep.check_fit("weak_alpha_exponent_le_gamma0", fit_weak,
                  lambda p: p <= gamma0 + EXPONENT_TOL)
    if m_fits and all(f.conclusive for f in m_fits):
        m_mean = float(np.mean([f.exponent for f in m_fits]))
        rep.params["m_exponent_mean"] = m_mean
        rep.checks["m_exponent_le_half"] = bool(m_mean <= 0.5 + EXPONENT_TOL)
    else:
        rep.checks["m_exponent_le_half"] = "inconclusive"
        if not anchors:
            rep.notes.append(f"no alpha >= {unroll:g} and 2 max(M): no M fit")
    rep.notes.append(
        f"{term.name}: alpha exp {fit_alpha.exponent:+.3f} (cap "
        f"{gamma + EXPONENT_TOL:.2f}), mean M exp "
        f"{rep.params.get('m_exponent_mean', float('nan')):.3f} (cap "
        f"{0.5 + EXPONENT_TOL:.2f}), weak alpha exp {fit_weak.exponent:+.3f} "
        f"(cap {gamma0 + EXPONENT_TOL:.2f})")
    return rep


# ---------------------------------------------------------------------------
# nonlinear smoothing
# ---------------------------------------------------------------------------

def _resolution_grids(resolutions, half_length):
    """The Grid of every resolution, built before any evolution; an empty
    list, a size Grid refuses or a list that is not strictly increasing is
    an ArgumentError naming ``resolutions``."""
    if not resolutions:
        raise ArgumentError("resolutions", "must not be empty")
    try:
        grids = [Grid(N, half_length) for N in resolutions]
    except ArgumentError as e:
        if e.argument != "n_points":
            raise
        raise ArgumentError("resolutions",
                            f"entries are grid sizes: {e}") from None
    if any(a.n >= b.n for a, b in zip(grids, grids[1:])):
        raise ArgumentError("resolutions",
                            f"must be strictly increasing, got {resolutions}")
    return grids


def smoothing_experiment(seed, s, eps, T, resolutions, amplitude=0.5,
                         base_dt=1e-4, half_length=np.pi):
    """Remainder-norm stability under resolution doubling.

    For each resolution N the same seeded rough data (tail exactly
    H^{s+1}) is evolved once, and the profile remainder
    R(t) = e^{it omega} V(t) - V(0) is measured in H^{s+1+eps} at ~10
    snapshots.  The time step follows base_dt * (512/N)^{3/2}, which keeps
    the integrator noise in the top bands (weighted by <k>^{s+1+eps}) below
    a percent of the remainder at every N tested.

    The evolution runs the band system ("terms"): the measurement
    targets the high-band profile equations, whose restricted nonlinearity
    is exactly what the remainder bound is made of.  Checks, each named
    with its eps: remainder sup stable within 10% across consecutive
    resolutions (inconclusive where a sup is zero, as when T is too short
    to move the data); fitted growth of ||V0||_{H^{s+1+eps}} vs N within
    0.1 of the construction rate eps - 0.01; remainder tail slope steeper
    than the data tail slope by at least 0.3 (slopes from the largest
    resolution).  ``infr_params`` refuses an (s, eps) outside its rule.
    ``amplitude`` must not be zero: zero data has no remainder to measure.
    ``resolutions`` must be a strictly increasing list of grid sizes (see
    ``_resolution_grids``).  Every resolution's step count is taken before
    any evolution, and a step that `step_count` refuses is an ArgumentError
    naming ``base_dt``, with the value passed and the resolution.
    """
    eps = infr_params(s, eps).eps
    tag = f"eps{eps:g}"
    if amplitude == 0.0:
        raise ArgumentError("amplitude", f"must not be zero, got {amplitude!r}")
    grids = _resolution_grids(resolutions, half_length)
    resolutions = [g.n for g in grids]
    steps = {}
    for N in resolutions:
        dt = base_dt * (512.0 / N) ** 1.5
        try:
            steps[N] = dt, step_count(T, dt)
        except ArgumentError as e:
            if e.argument != "dt":
                raise
            raise ArgumentError("base_dt", f"= {base_dt!r} gives the step "
                                f"{dt:.3g} at N = {N}: {e}") from None
    rep = EstimateReport("smoothing", params={
        "seed": seed, "s": s, "eps": eps, "T": T,
        "resolutions": resolutions, "amplitude": amplitude,
        "base_dt": base_dt, "rhs": "terms", "half_length": half_length})
    sups, slopes_r, slopes_v0 = [], [], []
    for N, grid in zip(resolutions, grids):
        v0 = rough_profile_data(grid, s, seed, amplitude)
        dt, count = steps[N]
        traj = evolve_gauged(v0, T=T, dt=dt, rhs_mode="terms",
                             snapshot_every=max(1, count // 10))
        omega = dispersion(grid.xi)
        c0 = traj.data[0]
        remainders = [np.exp(1j * omega * t) * traj.data[i] - c0
                      for i, t in enumerate(traj.times)]
        norms = [sobolev_norm(SpectralField(grid, r), s + 1.0 + eps)
                 for r in remainders]
        i_sup = int(np.argmax(norms))
        sups.append(norms[i_sup])
        slopes_r.append(_dyadic_tail_slope(grid, remainders[i_sup]))
        slopes_v0.append(_dyadic_tail_slope(grid, c0))
        rep.add_sample(sups[-1], kind="remainder_sup", eps=eps, n=N, dt=dt,
                       tail_slope=slopes_r[-1])
        rep.add_sample(sobolev_norm(v0, s + 1.0 + eps), fit=f"v0_growth_{tag}",
                       kind="initial_norm", eps=eps, n=N, dt=dt,
                       tail_slope=slopes_v0[-1])
    zeros = [N for N, v in zip(resolutions, sups) if v == 0.0]
    if zeros:
        rep.checks[f"remainder_stable_{tag}"] = "inconclusive"
        rep.notes.append(f"remainder sup is 0 at eps={eps:g}, n = "
                         f"{', '.join(map(str, zeros))}: no ratio to test")
    else:
        rep.checks[f"remainder_stable_{tag}"] = all(
            abs(b / a - 1.0) <= 0.10 for a, b in zip(sups, sups[1:]))
    if len(resolutions) > 1 and eps > 0.02:
        rep.check_fit(f"v0_rate_{tag}", rep.fit_samples(f"v0_growth_{tag}", "n"),
                      lambda p: abs(p - (eps - 0.01)) <= EXPONENT_TOL)
    gap = slopes_v0[-1] - slopes_r[-1]
    if np.isfinite(gap):
        rep.checks[f"tail_gap_{tag}"] = bool(gap >= 0.3)
        rep.params[f"tail_gap_{tag}"] = float(gap)
    else:
        rep.checks[f"tail_gap_{tag}"] = "inconclusive"
    if rep.checks[f"remainder_stable_{tag}"] is True and \
            rep.checks.get(f"v0_rate_{tag}") in (True, None):
        rep.notes.append(f"smoothing observed at eps={eps:g}: remainder "
                         f"sup {max(sups):.6g} stable while data norm "
                         f"diverges")
    return rep


# ---------------------------------------------------------------------------
# Lipschitz continuity of the gauged flow
# ---------------------------------------------------------------------------

def lipschitz_experiment(seed, s, T, perturbation_size, resolutions,
                         amplitude=0.6, dt=4e-4, c_max=10.0,
                         half_length=np.pi):
    """Separation growth of two gauged evolutions with calibrated initial gap.

    Both initial fields are gauge images of real rough data: the base field
    is G(u0) and the perturbed one G(u0 + delta * w) with w a fixed rough
    direction and delta calibrated (one secant step on the linearized
    response) so the gauged initial separation in H^{s+1} matches
    ``perturbation_size``; the measured separation is the denominator, so
    ratio(0) = 1 exactly.  Staying on the gauge manifold matters: the
    evolution is the full conjugated flow ("exact" mode), which is only
    well-posed along it.

    The sweep runs the requested size and its half at every resolution.
    The calibration needs no evolution, so the base field and both
    perturbed fields of a resolution are evolved in one
    `evolve_gauged_batch` call.  Checks: every sup ratio at most
    ``c_max``; sups within a factor 2 across resolution doubling at fixed
    size and across size halving at fixed resolution.
    ``c_max`` must be at least 1: every ratio starts at exactly 1, so a
    smaller bound could only fail.  ``perturbation_size`` must be positive
    and large enough for the gauge map to resolve: every calibrated gap, at
    every resolution, within a factor GAP_FACTOR of its requested size,
    checked before any evolution (a gap made of rounding noise is not the
    requested perturbation).
    ``resolutions`` must be a strictly increasing list of grid sizes (see
    ``_resolution_grids``).
    """
    if not c_max >= 1.0:
        raise ArgumentError("c_max", f"must be at least 1: every ratio starts at "
                            f"exactly 1, so a smaller bound cannot pass, got {c_max!r}")
    if not perturbation_size > 0.0:
        raise ArgumentError(
            "perturbation_size", f"must be positive, got {perturbation_size!r}")
    grids = _resolution_grids(resolutions, half_length)
    resolutions = [g.n for g in grids]
    rep = EstimateReport("lipschitz", params={
        "seed": seed, "s": s, "T": T,
        "perturbation_size": perturbation_size,
        "resolutions": resolutions, "amplitude": amplitude, "dt": dt,
        "c_max": c_max, "half_length": half_length})
    sizes = [perturbation_size, perturbation_size / 2.0]
    calibrated = []
    for N, grid in zip(resolutions, grids):
        u0 = rough_real_data(grid, s, seed, amplitude)
        w = rough_real_data(grid, s, seed + 77777, 1.0)
        w = w * (1.0 / sobolev_norm(w, s))
        v_base = gauge_forward(u0)
        v_perts, gaps0 = [], []
        for size in sizes:
            # one secant step: the gauge response is linear to O(size); a
            # size the map cannot resolve leaves no response (delta = 0)
            probe = gauge_forward(u0 + w * size)
            response = sobolev_norm(
                SpectralField(grid, probe.coeffs - v_base.coeffs), s + 1.0)
            delta = size * (size / response) if response > 0.0 else 0.0
            v_perts.append(gauge_forward(u0 + w * delta))
            gaps0.append(sobolev_norm(
                SpectralField(grid, v_perts[-1].coeffs - v_base.coeffs), s + 1.0))
            if not 1.0 / GAP_FACTOR <= gaps0[-1] / size <= GAP_FACTOR:
                raise ArgumentError(
                    "perturbation_size", f"{size:g} is below what the gauge "
                    f"map resolves at n = {N}: the calibrated initial gap is "
                    f"{gaps0[-1]:.3g}, {gaps0[-1] / size:.3g} times the size, "
                    f"outside [1/{GAP_FACTOR:g}, {GAP_FACTOR:g}]")
        calibrated.append((N, grid, v_base, v_perts, gaps0))
    sup_by_cell = {}
    for N, grid, v_base, v_perts, gaps0 in calibrated:
        base, *perts = evolve_gauged_batch(
            [v_base, *v_perts], T=T, dt=dt, rhs_mode="exact",
            snapshot_every=max(1, step_count(T, dt) // 20))
        for size, pert, gap0 in zip(sizes, perts, gaps0):
            ratios = []
            for i, t in enumerate(base.times):
                diff = SpectralField(grid, pert.data[i] - base.data[i])
                ratios.append(sobolev_norm(diff, s + 1.0) / gap0)
                rep.add_sample(ratios[-1], kind="ratio", n=N, size=size,
                               t=float(t))
            sup_by_cell[(N, size)] = max(ratios)
            rep.notes.append(f"n={N} size={size:g}: measured initial gap "
                             f"{gap0:.6g}, sup ratio {max(ratios):.4f}")
    starts = [r["value"] for r in rep.samples
              if r["kind"] == "ratio" and r["t"] == 0.0]
    rep.checks["ratio_starts_at_one"] = bool(
        starts and all(v == 1.0 for v in starts))
    rep.checks["sup_ratio_le_cmax"] = bool(
        all(v <= c_max for v in sup_by_cell.values()))

    def within_2x(a, b):
        return max(a, b) <= 2.0 * min(a, b)

    rep.checks["stable_under_resolution"] = all(
        within_2x(sup_by_cell[(a, sz)], sup_by_cell[(b, sz)])
        for sz in sizes for a, b in zip(resolutions, resolutions[1:]))
    rep.checks["stable_under_halving"] = all(
        within_2x(sup_by_cell[(N, sizes[0])], sup_by_cell[(N, sizes[1])])
        for N in resolutions)
    return rep


# ---------------------------------------------------------------------------
# amplitude scaling of the profile time derivative
# ---------------------------------------------------------------------------

def lemma21_experiment(amplitudes, T, n_points=256, dt=5e-5, seed=7,
                       half_length=np.pi):
    """Amplitude sweep of sup_t sup_xi |profile time derivative|.

    A fixed smooth bump shape (unit sup norm) is scaled by each amplitude h
    and evolved; the sweep measures sup over snapshots of
    ``profile_time_derivative_sup``.  Expected behaviour: plain h^2 scaling
    for small h (the quadratic terms dominate), and a uniform bound
    C (h^2 + h^3) with a single constant C over the whole sweep — C is
    fitted as the geometric midpoint of the extreme per-h ratios and every
    ratio must lie within a factor 1.5 of C (-33% to +50%).  The small-h
    power is fitted over the amplitudes at most 0.2.  The sup is pointwise in
    xi and the bump is smooth, so the sweep takes no regularity index.  All
    amplitudes are evolved in one `evolve_gauged_batch` call.
    ``amplitudes`` must be nonempty and all positive.
    """
    amplitudes = [float(h) for h in amplitudes]
    if not amplitudes or not all(h > 0.0 for h in amplitudes):
        raise ArgumentError(
            "amplitudes", f"must be nonempty and all positive, got {amplitudes!r}")
    rep = EstimateReport("lemma21", params={
        "amplitudes": amplitudes, "T": T, "n_points": n_points,
        "dt": dt, "seed": seed, "half_length": half_length})
    grid = Grid(n_points, half_length)
    shape = bump_shape(grid, seed=seed)
    every = max(1, step_count(T, dt) // 20)
    trajs = evolve_gauged_batch([shape * h for h in amplitudes], T=T, dt=dt,
                                rhs_mode="exact", snapshot_every=every)
    ratios = {}
    for h, traj in zip(amplitudes, trajs):
        sup = max(profile_time_derivative_sup(traj.field(i))
                  for i in range(len(traj)))
        v_h1 = max(sobolev_norm(traj.field(i), 1.0) for i in range(len(traj)))
        ratios[h] = sup / (h * h + h ** 3)
        rep.add_sample(sup, fit="small_h_power" if h <= 0.2 else None,
                       kind="derivative_sup", h=h, c_ratio=ratios[h],
                       v_sup_h1=v_h1)
    small = [r for r in rep.samples if r.get("fit") == "small_h_power"]
    if len(small) >= 2:
        rep.check_fit("small_h_power_near_2",
                      rep.fit_samples("small_h_power", "h"),
                      lambda p: abs(p - 2.0) <= 0.3)
    else:
        rep.checks["small_h_power_near_2"] = "inconclusive"
        rep.notes.append("fewer than two amplitudes <= 0.2: no small-h fit")
    c_star = float(np.sqrt(min(ratios.values()) * max(ratios.values())))
    rep.params["fitted_constant"] = c_star
    rep.checks["constant_uniform_pm50"] = bool(
        all(c_star / 1.5 <= c <= 1.5 * c_star for c in ratios.values()))
    rep.notes.append(
        f"fitted C = {c_star:.4g}; per-amplitude ratios "
        + ", ".join(f"h={h:g}: {c:.4g}" for h, c in sorted(ratios.items())))
    return rep


# ---------------------------------------------------------------------------
# reports of the other commands
# ---------------------------------------------------------------------------

def simulate_experiment(u0, T, dt, snapshot_every):
    """(trajectory, report) of the direct flow of ``u0``; the report has no
    checks: the L2 norm at each snapshot, its drift, the largest |zero mode|."""
    traj = evolve_bo(u0, T=T, dt=dt, snapshot_every=snapshot_every)
    norms = [sobolev_norm(traj.field(i), 0.0) for i in range(len(traj))]
    rep = EstimateReport("simulate", params={
        "metadata": traj.metadata, "l2_drift": float(max(norms) - min(norms)),
        "zero_mode_max": float(np.max(np.abs(traj.data[:, u0.grid.n // 2])))})
    for l2, ti in zip(norms, traj.times):
        rep.add_sample(l2, kind="l2_norm", t=float(ti))
    return traj, rep


def gauge_check_experiment(u0, T, dt, s):
    """Checks: the relative L2 error of the gauge round trip of ``u0`` is at
    most ROUND_TRIP_BOUND, and at time T the gauged flow lies within
    CONSISTENCY_BOUND in H^{s+1} of the gauge of the direct flow.  ``u0``
    must not be zero: its norm divides the round-trip error."""
    u_norm = sobolev_norm(u0, 0.0)
    if u_norm == 0.0:
        raise ArgumentError("u0", "must not be zero, its norm divides the round trip")
    V0 = gauge_forward(u0)
    rt = sobolev_norm(gauge_inverse(V0) - u0, 0.0) / u_norm
    traj_u = evolve_bo(u0, T=T, dt=dt, snapshot_every=10 ** 9)
    traj_v = evolve_gauged(V0, T=T, dt=dt, snapshot_every=10 ** 9)
    err = sobolev_norm(traj_v.final - gauge_forward(traj_u.final), s + 1.0)
    rep = EstimateReport("gauge_check", params={})
    rep.add_sample(rt, kind="round_trip_rel_error")
    rep.add_sample(err, kind="consistency_error")
    rep.checks["round_trip_le_1e-10"] = bool(rt <= ROUND_TRIP_BOUND)
    rep.checks["consistency_le_1e-6"] = bool(err <= CONSISTENCY_BOUND)
    return rep


def params_report(p):
    """Report of the InfrParams table; an infeasible ``p`` fails it."""
    rep = EstimateReport("params", params={"table": dict(p.table())})
    for name, value in p.table():
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            rep.add_sample(float(value), kind="parameter", name=name)
    if not p.feasible:
        rep.checks["feasible"] = False
    return rep


def integral_scaling_experiment(s, eps, cutoff):
    """M- and alpha-sweeps of the quadrature oracles with exponent caps.

    The integrals are the squared dual quantities, so the caps double the
    operator exponents: M-slope <= 1 + 2 gamma + 0.15, alpha-slope <=
    2 gamma + 0.15, with the gammas of ``infr_params(s, eps)``.  A
    cutoff-doubling cell guards tail convergence.
    """
    p = infr_params(s, eps)
    rep = EstimateReport("integral_scaling", params={
        "s": s, "eps": eps, "cutoff": cutoff,
        "gamma_quad": p.gamma_quad, "gamma_cubic": p.gamma_cubic})
    kinds = (("quad", quad_integral_J, p.gamma_quad),
             ("cubic", cubic_integral_I, p.gamma_cubic))
    # (fit key, alpha, M): the M-sweep at alpha = 0, the alpha-sweep at M = 2
    cells = ([("m", 0.0, M) for M in (2.0, 4.0, 8.0, 16.0, 32.0)]
             + [("alpha", a, 2.0) for a in (4.0, 8.0, 16.0, 32.0)])
    values = {}
    for key, alpha, M in cells:
        for kind, integral, _ in kinds:
            values[kind, alpha, M] = integral(alpha, M, s, eps, cutoff)
            rep.add_sample(values[kind, alpha, M],
                           fit=f"{kind}_{key}", m=M, alpha=alpha, kind=kind)
    for kind, integral, gamma in kinds:
        for key, cap in (("m", 1.0 + 2.0 * gamma + 0.15),
                         ("alpha", 2.0 * gamma + 0.15)):
            rep.check_fit(f"{kind}_{key}_exponent_le_cap",
                          rep.fit_samples(f"{kind}_{key}", key),
                          lambda p: p <= cap)
            rep.params[f"{kind}_{key}_cap"] = cap
        base = values[kind, 0.0, 8.0]          # the M-sweep's cell
        wide = integral(0.0, 8.0, s, eps, 2.0 * cutoff)
        rep.checks[f"{kind}_cutoff_converged"] = bool(
            abs(wide - base) <= 0.05 * base)
    return rep


def nfe_report(nr):
    """Report of the NfeReport ``nr``, one sample per depth.  Checks: each
    residual at most the one before (``residual_monotone``), and the deepest
    strictly below depth 1 (``deepest_below_depth1``, from J_max = 2 on).
    A pair closer than NFE_FLOOR_FACTOR x ``quadrature_error`` is
    "inconclusive"; equal residuals are still monotone."""
    rep = EstimateReport("nfe", params={
        "quadrature_error": nr.quadrature_error,
        "norm_index": nr.norm_index, "counts": nr.counts,
        "phase_cap": nr.phase_cap, "h_max": nr.h_max}, notes=list(nr.warnings))
    vals = [nr.residuals[j] for j in sorted(nr.residuals)]
    for j, value in sorted(nr.residuals.items()):
        rep.add_sample(value, kind="residual", j=j)
    floor = NFE_FLOOR_FACTOR * nr.quadrature_error
    rep.check_order("residual_monotone", list(zip(vals, vals[1:])), floor)
    if len(vals) >= 2:
        rep.check_order("deepest_below_depth1", [(vals[0], vals[-1])], floor,
                        strict=True)
    return rep
