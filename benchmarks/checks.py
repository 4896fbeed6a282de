"""Output checks that do not depend on today's numbers.

Each check compares the program against an independent computation or a
property of the method, never against a stored copy of an earlier output.
A check returns a list of failure messages; an empty list is a pass.

Report-level checks read the JSON/CSV reports a command wrote.  Library
checks call bolab functions on small inputs made from the seed and compare
them with direct frequency sums written here.
"""

import functools
import glob
import json
import math
import os
import struct

import numpy as np

# tolerances, stated once
REL_TOL_EXACT = 1e-12      # closed forms and direct sums, float64 rounding
QUAD_TOL = 1e-3            # quadrature cell against scipy (mesh 96 midpoint + sup mesh)
MASS_TOL = 1e-12           # zero mode of the direct flow (kept exactly zero)
L2_DRIFT_TOL = 1e-10       # relative L2 drift along the saved trajectory
HAMILTONIAN_DRIFT_TOL = 1e-8  # relative drift of E[u] = int u^3/6 - 1/2 int u H u_x

_BOSF = struct.Struct("<4sIIdd")  # magic, version, n, half_length, time


def _rel_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return float(np.max(np.abs(got - want))) / (scale or 1.0)


def load_report(outdir, stem):
    with open(os.path.join(outdir, f"{stem}.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# every workload


def verdicts_pass(outdir):
    fails = []
    for path in sorted(glob.glob(os.path.join(outdir, "*.json"))):
        with open(path) as fh:
            verdict = json.load(fh).get("verdict")
        if verdict != "pass":
            fails.append(f"{os.path.basename(path)}: verdict {verdict}")
    return fails


def csv_bytes(outdir):
    out = {}
    for path in sorted(glob.glob(os.path.join(outdir, "*.csv"))):
        with open(path, "rb") as fh:
            out[os.path.basename(path)] = fh.read()
    return out


def same_csv(first, now):
    if first.keys() != now.keys():
        return [f"report set changed: {sorted(first)} -> {sorted(now)}"]
    return [f"{name}: bytes differ from the first round of this seed"
            for name in first if first[name] != now[name]]


# ---------------------------------------------------------------------------
# smoothing


def smoothing_initial_norms(outdir):
    """initial_norm == closed-form H^{s+1+eps} norm of a <xi>^-(s+1.51)."""
    rep = load_report(outdir, "smoothing")
    p = rep["params"]
    s, a, L = p["s"], p["amplitude"], p["half_length"]
    fails, seen = [], 0
    for row in rep["samples"]:
        if row["kind"] != "initial_norm":
            continue
        seen += 1
        n, eps = row["n"], row["eps"]
        xi = (math.pi / L) * np.arange(1, n // 2)
        jap2 = 1.0 + xi * xi
        # both signs of every nonzero mode; dxi / 2pi = 1 / (2L)
        sq = 2.0 * a * a * np.sum(jap2 ** (s + 1.0 + eps) * jap2 ** -(s + 1.51))
        want = math.sqrt(sq / (2.0 * L))
        if abs(row["value"] - want) > REL_TOL_EXACT * want:
            fails.append(f"initial_norm n={n} eps={eps}: {row['value']!r} "
                         f"!= closed form {want!r}")
    if not seen:
        fails.append("smoothing report has no initial_norm samples")
    return fails


def _lattice(n, L):
    k = np.arange(-n // 2, n // 2)
    return k, (math.pi / L) * k


def _seeded_band_field(n, seed):
    """Complex band-limited coefficients with a <xi>^-1.5 envelope."""
    rng = np.random.default_rng(seed)
    k, xi = _lattice(n, math.pi)
    c = 0.2 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    c *= (1.0 + xi * xi) ** -0.75
    c[0] = 0.0  # the unpaired end mode is kept at zero
    return c


def _direct_band_pieces(c, L):
    """2i (Q+ + Q- + C+ + C-) by explicit sums over frequency tuples.

    With W = conj(V) V_x and measure dxi/2pi = 1/(2L) per convolution:
        Q±(xi) = -P_{±hi} sum V_{±hi}(xi1) (-xi2^2) V(xi2) [xi2 ∓< 0]
        C±(xi) = -P_{±hi} sum V_{±hi}(xi1) conj(V(-xi2)) (i xi3) V(xi3)
                          (i (xi2 + xi3)) [xi2 + xi3 ∓< 0]
    summed over xi1 + xi2 (+ xi3) = xi, all slot frequencies on the lattice.
    """
    n = c.size
    k, xi = _lattice(n, L)
    half = n // 2
    w = 1.0 / (2.0 * L)
    # conj(V(-xi)): the mirror of k = -n/2 is off the lattice, so it reads 0
    conj_ref = np.zeros_like(c)
    conj_ref[1:] = np.conj(c[1:][::-1])
    out = np.zeros(n, dtype=complex)

    def accumulate(total, lo_k, piece):
        # place sums indexed from lo_k onto the base band
        for j, val in enumerate(piece):
            kk = lo_k + j
            if -half <= kk < half:
                total[kk + half] += val

    for sgn in (1, -1):
        hi = c * (sgn * xi > 1)
        opp = sgn * xi < 0
        # quadratic: every (k1, k2) pair
        q = np.zeros(2 * n - 1, dtype=complex)
        b = -(xi ** 2) * c * opp
        np.add.at(q, (k[:, None] + k[None, :]).ravel() + n,
                  np.outer(hi, b).ravel())
        quad = np.zeros(n, dtype=complex)
        accumulate(quad, -n, -w * q)
        # cubic: every (k1, k2, k3) triple
        pair = xi[:, None] + xi[None, :]
        inner = (conj_ref[:, None] * (1j * xi[None, :] * c[None, :])
                 * (1j * pair) * (sgn * pair < 0))
        t = hi[:, None, None] * inner[None, :, :]
        idx = k[:, None, None] + k[None, :, None] + k[None, None, :]
        cub = np.zeros(3 * n, dtype=complex)
        np.add.at(cub, (idx + 3 * half).ravel(), t.ravel())
        cubic = np.zeros(n, dtype=complex)
        accumulate(cubic, -3 * half, -w * w * cub)
        band = sgn * xi > 1
        out += 2j * (quad + cubic) * band
    return out


def band_rhs_direct_sum(seed, n=32):
    """rhs_terms_total_coeffs on the high bands == 2i (Q+ + Q- + C+ + C-)."""
    from bolab.gauge import rhs_terms_total_coeffs
    from bolab.spectral import Grid

    grid = Grid(n, math.pi)
    c = _seeded_band_field(n, seed)
    want = _direct_band_pieces(c, math.pi)
    got = rhs_terms_total_coeffs(c, grid)
    high = np.abs(grid.xi) > 1
    err = _rel_err(got[high], want[high])
    if err > REL_TOL_EXACT:
        return [f"band right side vs direct sum: relative error {err:.3e} "
                f"> {REL_TOL_EXACT:g} at n={n}"]
    return []


# ---------------------------------------------------------------------------
# lattice


def window_covers_all_phases(seed, n=64):
    """apply_T_alpha_M with a window holding every phase == the band pieces."""
    from bolab.gauge import rhs_cubic, rhs_quadratic
    from bolab.infr import apply_T_alpha_M, bo_terms
    from bolab.spectral import Grid, SpectralField

    grid = Grid(n, math.pi)
    V = SpectralField(grid, _seeded_band_field(n, seed))
    xi_max = float(np.max(np.abs(grid.xi)))
    # |Phi| <= |xi|^2 + sum_j |xi_j|^2 <= 4 xi_max^2 for up to three slots
    M = 4.0 * xi_max * xi_max + 1.0
    fails = []
    for name, term in bo_terms().items():
        oracle = rhs_quadratic if term.arity == 2 else rhs_cubic
        want = oracle(V, name[-1]).coeffs
        got = apply_T_alpha_M(term, V, 0.0, M).coeffs
        err = _rel_err(got, want)
        if err > REL_TOL_EXACT:
            fails.append(f"{name}: full-window T^(alpha,M) vs band piece: "
                         f"relative error {err:.3e}")
    return fails


@functools.lru_cache(maxsize=None)
def _scipy_J(alpha, M, s, eps, cutoff):
    """sup_{xi>1} of the quadratic window integral by adaptive quadrature."""
    from scipy import integrate, optimize

    a = abs(alpha)

    def jap(x):
        return math.sqrt(1.0 + x * x)

    def inner(xi):
        lo = max(a - M, 0.0) / (2.0 * xi)
        hi = min((a + M) / (2.0 * xi), cutoff)
        if hi <= lo:
            return 0.0

        def f(v):
            x1 = xi + v
            return (jap(xi) ** (2 * s + 2 * eps + 2) * v * v
                    / (x1 * x1 * jap(x1) ** (2 * s) * jap(v) ** (2 * s)))

        return integrate.quad(f, lo, hi, epsabs=0.0, epsrel=1e-11)[0]

    xs = np.geomspace(1.0 + 1e-9, cutoff, 400)
    vals = np.array([inner(x) for x in xs])
    i = int(vals.argmax())
    lo, hi = xs[max(i - 1, 0)], xs[min(i + 1, xs.size - 1)]
    res = optimize.minimize_scalar(lambda x: -inner(x), bounds=(lo, hi),
                                   method="bounded",
                                   options={"xatol": 1e-10 * hi})
    return max(float(vals[i]), -float(res.fun))


def quadrature_cell(outdir, alpha=8.0, m=2.0):
    """One quad_integral_J cell of the estimates report vs scipy.integrate."""
    rep = load_report(outdir, "integral_scaling")
    p = rep["params"]
    rows = [r for r in rep["samples"] if r["kind"] == "quad"
            and r["alpha"] == alpha and r["m"] == m]
    if len(rows) != 1:
        return [f"integral_scaling has {len(rows)} quad cells at "
                f"alpha={alpha:g}, M={m:g}"]
    want = _scipy_J(alpha, m, p["s"], p["eps"], p["cutoff"])
    err = abs(rows[0]["value"] - want) / want
    if err > QUAD_TOL:
        return [f"J(alpha={alpha:g}, M={m:g}) = {rows[0]['value']!r} vs "
                f"scipy {want!r}: relative error {err:.2e} > {QUAD_TOL:g}"]
    return []


def _c_and_delta(s, eps):
    """c_J coefficients and delta of the iteration (Assumption 1, sigma at
    the midpoint (1 + beta)/2 of its window, beta = 1/2)."""
    beta = 0.5
    gamma = max(0.5 + eps - s, 0.0, 0.25 + 0.5 * (eps - s), eps - 0.5)
    sigma = 0.5 * (1.0 + beta)
    theta = 1.0 - max(gamma + beta, sigma + gamma)
    return (lambda J: (J + 1.0) ** (2.0 / theta)), theta / (2.0 * beta)


def nfe_empty_depths(outdir):
    """Residual == quadrature_error exactly at every provably empty depth.

    Depth 1 is empty when no tuple is nonresonant.  A depth J >= 2 is empty
    when its smallest threshold c_J N^delta exceeds J x phase_cap, the
    largest phase a depth-J composition can reach; every deeper depth is
    then empty too.
    """
    rep = load_report(outdir, "nfe")
    p = rep["params"]
    cfg = p["config"]
    n, L = cfg["grid"]["n_points"], cfg["grid"]["half_length"]
    infr = cfg["infr"]
    qerr = p["quadrature_error"]
    fails = []
    xi_max = (math.pi / L) * (n // 2)
    cap = 4.0 * xi_max * xi_max
    if abs(p["phase_cap"] - cap) > REL_TOL_EXACT * cap:
        fails.append(f"phase_cap {p['phase_cap']!r} != 4 xi_max^2 = {cap!r}")
    residual = {r["j"]: r["value"] for r in rep["samples"]
                if r["kind"] == "residual"}
    c, delta = _c_and_delta(infr["s"], infr["eps"])
    N = infr["N_threshold"]
    empty = sum(v["nonresonant"] for v in p["counts"].values()) == 0
    checked = 0
    for J in sorted(residual):
        empty = empty or (J >= 2 and c(J) * N ** delta > J * cap)
        if empty:
            checked += 1
            if residual[J] != qerr:
                fails.append(f"depth {J} is empty but its residual "
                             f"{residual[J]!r} != quadrature_error {qerr!r}")
    return fails, checked


# ---------------------------------------------------------------------------
# exact-flow


def read_bosf(path):
    """(n, half_length, time, coeffs) of one .bosf snapshot."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _BOSF.size:
        raise ValueError(f"{path}: {len(raw)} bytes, shorter than the header")
    magic, version, n, L, t = _BOSF.unpack_from(raw)
    if magic != b"BOSF" or version != 1:
        raise ValueError(f"{path}: bad magic {magic!r} or version {version}")
    if len(raw) != _BOSF.size + 16 * n:
        raise ValueError(f"{path}: {len(raw)} bytes for n={n}")
    coeffs = np.frombuffer(raw, dtype="<c16", offset=_BOSF.size)
    return n, L, t, coeffs.astype(np.complex128)


def invariants(coeffs, L):
    """Mass, L^2 norm squared and Hamiltonian of a real field.

    u(x_j) on 2n points is exact for the cubic term (degree 3n/2 < 2n);
    int u H u_x = (1/2L) sum |xi| |u_hat|^2 since H dx has symbol |xi|.
    """
    n = coeffs.size
    k, xi = _lattice(n, L)
    mass = coeffs[n // 2].real
    l2 = float(np.sum(np.abs(coeffs) ** 2)) / (2.0 * L)
    m = 2 * n
    arr = np.zeros(m, dtype=complex)
    arr[k % m] = coeffs * np.where(k % 2 == 0, 1.0, -1.0)  # e^{-i xi L} = (-1)^k
    u = (m / (2.0 * L)) * np.fft.ifft(arr)
    cube = (2.0 * L / m) * float(np.sum(u.real ** 3))
    uhux = float(np.sum(np.abs(xi) * np.abs(coeffs) ** 2)) / (2.0 * L)
    return mass, l2, cube / 6.0 - 0.5 * uhux


def trajectory_invariants(outdir):
    """Mass, L2 and the Hamiltonian stay within the stated drifts."""
    paths = sorted(glob.glob(os.path.join(outdir, "trajectory", "snap_*.bosf")))
    if len(paths) < 2:
        return [f"trajectory has {len(paths)} snapshots"]
    rows, times = [], []
    for path in paths:
        n, L, t, c = read_bosf(path)
        rows.append(invariants(c, L))
        times.append(t)
    if any(b <= a for a, b in zip(times, times[1:])):
        return ["snapshot times are not increasing"]
    mass, l2, ham = (np.array(col) for col in zip(*rows))
    fails = []
    scale = math.sqrt(l2[0])
    if np.max(np.abs(mass - mass[0])) > MASS_TOL * scale:
        fails.append(f"mass drift {np.max(np.abs(mass - mass[0])):.3e}")
    for name, vals, tol in (("L2", l2, L2_DRIFT_TOL),
                            ("Hamiltonian", ham, HAMILTONIAN_DRIFT_TOL)):
        drift = float(np.max(np.abs(vals - vals[0])) / abs(vals[0]))
        if drift > tol:
            fails.append(f"{name} relative drift {drift:.3e} > {tol:g}")
    return fails


def lipschitz_starts_at_one(outdir):
    rep = load_report(outdir, "lipschitz")
    starts = [r["value"] for r in rep["samples"]
              if r["kind"] == "ratio" and r["t"] == 0.0]
    if not starts:
        return ["lipschitz report has no t = 0 ratio"]
    return [f"ratio at t = 0 is {v!r}, not exactly 1" for v in starts
            if v != 1.0]
