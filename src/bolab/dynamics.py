"""Time integration for the direct and gauged flows.

Integrating-factor RK4: the linear part u_t + H u_xx = 0 is solved exactly by
the propagator exp(-i t |xi| xi); the nonlinearity is advanced by classical
RK4 in the moving frame.  The direct flow integrates u_t + H u_xx = u u_x
with the nonlinearity written as (u^2)_x / 2, which keeps the zero mode
exactly zero.  The gauged flow integrates the full right side (rhs_mode
"exact") or the truncated band system fed to the normal form machinery
(rhs_mode "terms").
"""

import json
import os

import numpy as np

from .gauge import GAUGE_FLOOR, rhs_exact_coeffs, rhs_terms_total_coeffs
from .spectral import (
    SpectralField,
    apply_multiplier,
    coeffs_to_samples,
    dispersion,
    from_padded,
    make_grid,
    padded_grid,
    propagator_symbol,
    read_snapshot,
    to_padded,
    write_snapshot,
)


def linear_propagator(field, t):
    """Exact solution of the linear flow after time t."""
    return apply_multiplier(field, propagator_symbol(field.grid, t))


class Trajectory:
    """Snapshots of a spectral evolution.

    `data` is an (n_snapshots, n) complex matrix of coefficients in lattice
    order, `times` the matching sample times.  `tag` is "u" for the direct
    flow and "V" for the gauged flow.
    """

    def __init__(self, grid, times, data, tag, metadata=None):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.data = np.asarray(data, dtype=np.complex128)
        if self.data.shape != (self.times.size, grid.n):
            raise ValueError(
                f"data shape {self.data.shape} does not match "
                f"{self.times.size} times on an n={grid.n} grid"
            )
        self.tag = tag
        self.metadata = dict(metadata or {})

    def __len__(self):
        return self.times.size

    def field(self, i):
        return SpectralField(self.grid, self.data[i])

    @property
    def final(self):
        return self.field(len(self) - 1)

    def save(self, directory):
        os.makedirs(directory, exist_ok=True)
        names = []
        for i, t in enumerate(self.times):
            name = f"snap_{i:06d}.bosf"
            write_snapshot(self.field(i), t, os.path.join(directory, name))
            names.append(name)
        manifest = {
            "tag": self.tag,
            "n_points": self.grid.n,
            "half_length": self.grid.half_length,
            "times": [float(t) for t in self.times],
            "snapshots": names,
            "metadata": self.metadata,
        }
        with open(os.path.join(directory, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, indent=1, sort_keys=True)

    @classmethod
    def load(cls, directory):
        with open(os.path.join(directory, "manifest.json")) as fh:
            manifest = json.load(fh)
        grid = make_grid(manifest["n_points"], manifest["half_length"])
        times = np.asarray(manifest["times"], dtype=float)
        data = np.empty((times.size, grid.n), dtype=np.complex128)
        for i, name in enumerate(manifest["snapshots"]):
            field, t = read_snapshot(os.path.join(directory, name))
            if field.grid != grid or abs(t - times[i]) > 1e-12 * max(1.0, abs(t)):
                raise ValueError(f"snapshot {name} disagrees with the manifest")
            data[i] = field.coeffs
        return cls(grid, times, data, manifest["tag"], manifest["metadata"])


def _ifrk4_step(c, E, E2, h, rhs):
    """One integrating-factor RK4 step of size h; E = exp(-i omega h / 2), E2 = E^2."""
    k1 = rhs(c)
    k2 = rhs(E * (c + (h / 2) * k1))
    k3 = rhs(E * c + (h / 2) * k2)
    k4 = rhs(E2 * c + h * (E * k3))
    return E2 * c + (h / 6) * (E2 * k1 + 2 * E * (k2 + k3) + k4)


def _march(c0, grid, h, steps, rhs, on_step=None):
    """Up to `steps` IF-RK4 steps of size h from c0, calling on_step(i, c) after
    step i.  Stops before the first step whose result is not finite; returns
    the number of finite steps taken and the last finite coefficients."""
    E = np.exp(-1j * dispersion(grid.xi) * (h / 2))
    E2 = E * E
    c = np.array(c0, dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            nxt = _ifrk4_step(c, E, E2, h, rhs)
            if not np.all(np.isfinite(nxt)):
                return i - 1, c
            c = nxt
            if on_step is not None:
                on_step(i, c)
    return steps, c


def step_count(T, dt):
    """Number of steps of a run to time T at a step of about dt: T / dt
    rounded, and at least one; the step T / steps then lands exactly on T."""
    if not T > 0:
        raise ValueError(f"T must be positive, got {T!r}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    return max(1, int(round(T / dt)))


def _check_schedule(T, dt, snapshot_every):
    """ValueError naming the first unusable time argument of an evolution."""
    step_count(T, dt)
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be at least 1, got {snapshot_every!r}")


def _ifrk4(c0, grid, T, dt, rhs, snapshot_every, step_hook=None):
    steps = step_count(T, dt)
    h = T / steps
    times = [0.0]
    snaps = [np.array(c0, dtype=np.complex128)]

    def on_step(i, c):
        t = i * h
        if step_hook is not None:
            step_hook(c, t)
        if i % snapshot_every == 0 or i == steps:
            times.append(t)
            snaps.append(c)

    done, _ = _march(c0, grid, h, steps, rhs, on_step)
    if done < steps:
        raise RuntimeError(
            f"solution lost finiteness at step {done + 1} of {steps} "
            f"(t = {(done + 1) * h:.6g}); reduce dt or the data amplitude"
        )
    return np.asarray(times), np.vstack(snaps), h


def _probe_dt(c0, grid, dt, rhs):
    """Empirical startup stability check: a few trial steps at dt must stay
    finite and not grow wildly.  On failure the bound found by halving is
    named in the error."""
    norm0 = float(np.sqrt(np.sum(np.abs(c0) ** 2)))

    def trial(h):
        done, c = _march(c0, grid, h, 8, rhs)
        with np.errstate(over="ignore"):
            return done == 8 and float(np.sqrt(np.sum(np.abs(c) ** 2))) <= 4.0 * max(norm0, 1e-300)

    if trial(dt):
        return
    bound = dt
    for _ in range(40):
        bound /= 2.0
        if trial(bound):
            raise ValueError(
                f"dt = {dt:g} is unstable for this data; the empirical "
                f"stability bound is about {bound:g}"
            )
    raise ValueError(f"dt = {dt:g} is unstable for this data at any tried step size")


def evolve_bo(u0, T, dt, snapshot_every=1):
    """Integrate the direct flow u_t + H u_xx = u u_x from real data."""
    g = u0.grid
    pg = padded_grid(g)
    half_ixi = 0.5j * g.xi

    def rhs(c):
        s = to_padded(c, pg)
        return half_ixi * from_padded(s * s, pg)

    _check_schedule(T, dt, snapshot_every)
    _probe_dt(u0.coeffs, g, dt, rhs)
    times, data, h = _ifrk4(u0.coeffs, g, T, dt, rhs, snapshot_every)
    meta = {"dt": h, "scheme": "ifrk4", "dealiasing": "pad2", "rhs": "bo"}
    return Trajectory(g, times, data, "u", meta)


def evolve_gauged(V0, T, dt, rhs_mode="exact", snapshot_every=1):
    """Integrate the gauged flow from the field V0 (``gauge_forward(u).V``).

    rhs_mode "exact" uses the full gauged right side; "terms" uses the
    truncated band system (four paraproduct pieces + exact low band).  The
    invertibility margin min |1 + V| is watched every step.
    """
    g = V0.grid

    if rhs_mode == "exact":
        core = rhs_exact_coeffs
    elif rhs_mode == "terms":
        core = rhs_terms_total_coeffs
    else:
        raise ValueError(f"rhs_mode must be 'exact' or 'terms', got {rhs_mode!r}")

    def rhs(c):
        return core(c, g)

    def hook(c, t):
        margin = float(np.min(np.abs(1.0 + coeffs_to_samples(c, g))))
        if margin < GAUGE_FLOOR:
            raise ValueError(
                f"gauge not invertible at this amplitude: min |1 + V| = "
                f"{margin:.3g} at t = {t:.6g}"
            )

    _check_schedule(T, dt, snapshot_every)
    _probe_dt(V0.coeffs, g, dt, rhs)
    times, data, h = _ifrk4(V0.coeffs, g, T, dt, rhs, snapshot_every, step_hook=hook)
    meta = {"dt": h, "scheme": "ifrk4", "dealiasing": "pad2", "rhs": rhs_mode}
    return Trajectory(g, times, data, "V", meta)


def weighted_norm_diagnostic(u, t):
    """L2 norm of d/dxi of the profile e^{i t omega} u_hat.

    By Plancherel this mirrors the weighted norm ||(x - 2 t H dx) u||_{L2}
    used to control the moving spatial weight along the flow; it is computed
    with centered differences (one-sided at the lattice ends).
    """
    g = u.grid
    prof = np.exp(1j * t * dispersion(g.xi)) * u.coeffs
    d = np.gradient(prof, g.dxi)
    return float(np.sqrt(np.sum(np.abs(d) ** 2) * g.dxi / (2 * np.pi)))
