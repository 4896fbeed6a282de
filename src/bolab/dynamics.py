"""Time integration for the direct and gauged flows.

Integrating-factor RK4: the linear part u_t + H u_xx = 0 is solved exactly by
the propagator exp(-i t |xi| xi); the nonlinearity is advanced by classical
RK4 in the moving frame.  The direct flow integrates u_t + H u_xx = u u_x
with the nonlinearity written as (u^2)_x / 2, which keeps the zero mode
exactly zero.  The gauged flow integrates the full right side (rhs_mode
"exact") or the truncated band system fed to the normal form machinery
(rhs_mode "terms").

`evolve_gauged` integrates one field and `evolve_gauged_batch` several
fields on one grid with one schedule.  Both run one body over an (..., n)
coefficient array, a single field staying 1-D: the right sides and the
stepper act on the last axis, so a batch of B fields costs one call per
right-side evaluation instead of B.  The startup probe, finiteness and the
min |1 + V| floor are checked per member, and an error names the member;
the probe takes one batched trial and goes member by member only when
that trial fails.

Each state's right side is taken once, in `_march`: it is the k1 stage of
the next step, and at every step time after t = 0 it watches the min |1 + V|
floor with no base-lattice transform, since the gauged right sides call the
watch with the even entries of their doubled-lattice samples of V (the
base-lattice points) before any other work.  The final state takes its own
right side, so it is watched the same way.  The error names the member and
the time of the state.  The startup probe is not watched.  `_march` also
keeps the snapshots and their right sides (`Trajectory.right_sides`, which
`nfe` reads) in (..., n_snapshots, n) arrays sized before the first step;
a batch member's are views of the batch's.
"""

import json
import numbers
import os

import numpy as np

from .gauge import require_invertible, rhs_exact_coeffs, rhs_terms_total_coeffs
from .spectral import (
    ArgumentError,
    Grid,
    SpectralField,
    atomic_write,
    dispersion,
    from_padded,
    padded_grid,
    read_snapshot,
    to_padded,
    write_snapshot,
)


# Version of the manifest.json that Trajectory.save writes and load reads.
TRAJECTORY_FORMAT = 1


class Trajectory:
    """Snapshots of a spectral evolution.

    `data` is an (n_snapshots, n) complex matrix of coefficients in lattice
    order, `times` the matching sample times.  `tag` is "u" for the direct
    flow and "V" for the gauged flow.  `right_sides`, laid out as `data`,
    holds the right side the stepper took at each snapshot, or None: `save`
    does not write them, so `load` gives None.
    """

    def __init__(self, grid, times, data, tag, metadata=None, right_sides=None):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.data = np.asarray(data, dtype=np.complex128)
        self.right_sides = (None if right_sides is None
                            else np.asarray(right_sides, dtype=np.complex128))
        shapes = {a.shape for a in (self.data, self.right_sides) if a is not None}
        if shapes != {(self.times.size, grid.n)}:
            raise ValueError(f"data and right-side shapes {sorted(shapes)} do not "
                             f"match {self.times.size} times on an n={grid.n} grid")
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
        """Write one snap_*.bosf per snapshot and manifest.json (format
        TRAJECTORY_FORMAT), each through `spectral.atomic_write`, so a
        reader never sees a partial file."""
        os.makedirs(directory, exist_ok=True)
        names = []
        for i, t in enumerate(self.times):
            name = f"snap_{i:06d}.bosf"
            write_snapshot(self.field(i), t, os.path.join(directory, name))
            names.append(name)
        manifest = {
            "format": TRAJECTORY_FORMAT,
            "tag": self.tag,
            "n_points": self.grid.n,
            "half_length": self.grid.half_length,
            "times": [float(t) for t in self.times],
            "snapshots": names,
            "metadata": self.metadata,
        }
        atomic_write(os.path.join(directory, "manifest.json"),
                     json.dumps(manifest, indent=1, sort_keys=True).encode())

    @classmethod
    def load(cls, directory):
        with open(os.path.join(directory, "manifest.json")) as fh:
            manifest = json.load(fh)
        fmt = manifest.get("format")
        if fmt != TRAJECTORY_FORMAT:
            raise ValueError(
                f"unknown trajectory format {fmt!r} in {directory}; "
                f"this version reads format {TRAJECTORY_FORMAT}")
        grid = Grid(manifest["n_points"], manifest["half_length"])
        times = np.asarray(manifest["times"], dtype=float)
        names = manifest["snapshots"]
        if len(names) != times.size:
            raise ValueError(f"manifest in {directory} names {len(names)} "
                             f"snapshots for {times.size} times")
        data = np.empty((times.size, grid.n), dtype=np.complex128)
        for i, name in enumerate(names):
            field, t = read_snapshot(os.path.join(directory, name))
            if field.grid != grid or abs(t - times[i]) > 1e-12 * max(1.0, abs(t)):
                raise ValueError(f"snapshot {name} disagrees with the manifest")
            data[i] = field.coeffs
        return cls(grid, times, data, manifest["tag"], manifest["metadata"])


def _ifrk4_step(c, k1, E, E2, twoE, h, rhs):
    """One integrating-factor RK4 step of size h from c, whose right side k1
    = rhs(c) the caller has taken; E = exp(-i omega h / 2), E2 = E^2, twoE =
    2 E.  The step never writes into k1 or c.  rhs returns a new array,
    which the step may update in place.  Each complex product keeps the
    operand order of E2 c + (h/6) (E2 k1 + 2 E (k2 + k3) + k4): numpy may
    round a b and b a differently in the last bit."""
    a = (h / 2) * k1
    a += c
    k2 = rhs(np.multiply(E, a, out=a))
    a = E * c
    a += (h / 2) * k2
    k3 = rhs(a)
    E2c = E2 * c
    a = E * k3
    a *= h
    a += E2c
    k4 = rhs(a)
    k2 += k3
    acc = E2 * k1
    acc += np.multiply(twoE, k2, out=k2)
    acc += k4
    acc *= h / 6
    acc += E2c
    return acc


def _march(c0, grid, h, steps, rhs, every=None, watch=None):
    """Up to `steps` IF-RK4 steps of size h from the (..., n) array c0.

    Each state's right side is taken here, once: k = rhs(c), the k1 stage of
    the next step.  Given `every`, state i and its k are kept at slot
    i // every of (..., n_kept, n) arrays sized before the first step, for
    the kept steps ``np.r_[0:steps:every, steps]`` (the final state at slot
    -1); without it (the probe) nothing is kept and the final state takes no
    right side.  At t = i h > 0 the right side also takes ``watch(samples,
    t)``, if given, as its second argument, to call with the state's
    base-lattice samples.  Stops at the first step whose result is not
    finite.  Returns the number of finite steps taken, the last state
    computed (the non-finite one if the march stopped early), and the kept
    steps, snapshots and right sides (None without `every`)."""
    E = np.exp(-1j * dispersion(grid.xi) * (h / 2))
    E2 = E * E
    twoE = 2 * E
    c = np.array(c0, dtype=np.complex128)
    kept = data = right_sides = None
    if every is not None:
        kept = np.r_[0:steps:every, steps]
        data = np.empty(c.shape[:-1] + (kept.size, c.shape[-1]), np.complex128)
        right_sides = np.empty_like(data)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps + 1):
            if i:
                c = _ifrk4_step(c, k, E, E2, twoE, h, rhs)
                if not np.all(np.isfinite(c)):
                    return i - 1, c, kept, data, right_sides
            if every is None and i == steps:
                break
            k = rhs(c, lambda s: watch(s, i * h)) if i and watch else rhs(c)
            if every is not None and (i % every == 0 or i == steps):
                slot = -1 if i == steps else i // every
                data[..., slot, :] = c
                right_sides[..., slot, :] = k
    return steps, c, kept, data, right_sides


# The most steps one run may take (see `step_count`).
MAX_STEPS = 10**7


def step_count(T, dt):
    """Number of steps of a run to time T at a step of about dt: T / dt
    rounded, and at least one; the step T / steps then lands exactly on T.
    A T or dt that is not positive and finite is an ArgumentError.

    So is a dt that asks for more than MAX_STEPS = 10^7 steps, named
    ``dt``.  Such a run takes 4 x 10^7 right sides or more: over ten
    minutes even at n = 8, where a gauged right side still takes about
    20 us, and hours at the gate sizes.  The longest run of the gates,
    gate 9's at n = 2048, takes 40,000 steps, 250 times fewer.  Past the
    ceiling a step count is a slip of dt (dt = 1e-300 asks for about 1e298
    steps), which would start a march that never ends or fail to size its
    snapshot arrays."""
    for name, value in (("T", T), ("dt", dt)):
        if not 0 < value < np.inf:
            raise ArgumentError(name, f"must be positive and finite, got {value!r}")
    steps = T / dt
    if not steps < MAX_STEPS + 0.5:
        raise ArgumentError(
            "dt", f"must be large enough for at most {MAX_STEPS} steps to "
            f"T = {T!r}, got {dt!r}, which asks for {steps:.3g}")
    return max(1, int(round(steps)))


def _at(t, score):
    """"t = ..." for an error message, led by "member k, " when score holds
    one value per batch member: k has the smallest score (the first False of
    a flag array).  A single field's score is a scalar."""
    if np.ndim(score) == 0:
        return f"t = {t:.6g}"
    return f"member {int(np.argmin(score))}, t = {t:.6g}"


def _ifrk4(c0, grid, T, dt, rhs, snapshot_every, watch=None):
    """Snapshot times, snapshots (..., n_snapshots, n), the right sides that
    `_march` took at them, in the same layout, and step of an IF-RK4 run of
    the (..., n) array c0 to time T.  ``watch(samples, t)``, if given, checks
    the state at each step time t > 0, as the module docstring describes."""
    steps = step_count(T, dt)
    h = T / steps
    done, c, kept, data, right_sides = _march(c0, grid, h, steps, rhs,
                                              snapshot_every, watch)
    if done < steps:
        finite = np.all(np.isfinite(c), axis=-1)
        raise RuntimeError(
            f"solution lost finiteness at step {done + 1} of {steps} "
            f"({_at((done + 1) * h, finite)}); reduce dt or the data amplitude"
        )
    return kept * h, data, right_sides, h


def _probe_dt(c0, grid, dt, rhs):
    """Empirical startup stability check of the coefficients c0, one field or
    a (B, n) batch: a few trial steps at dt must stay finite and not grow any
    field's norm wildly.  On failure the bound found by halving is named in
    the error.  A batch takes one trial; only if it fails is each member
    probed alone, and the error names the first unstable member.  A batch
    row steps as its field alone, bit for bit, so a batch passes exactly
    when every member does."""
    norm0 = np.sqrt(np.sum(np.abs(c0) ** 2, axis=-1))

    def trial(h):
        done, c, *_ = _march(c0, grid, h, 8, rhs)
        with np.errstate(over="ignore"):
            norm = np.sqrt(np.sum(np.abs(c) ** 2, axis=-1))
        return done == 8 and bool(np.all(norm <= 4.0 * np.maximum(norm0, 1e-300)))

    if trial(dt):
        return
    if c0.ndim > 1:
        for k, row in enumerate(c0):
            try:
                _probe_dt(row, grid, dt, rhs)
            except ValueError as exc:
                raise ValueError(f"member {k}: {exc}") from None
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


def _run(c0, grid, T, dt, rhs, snapshot_every, tag, rhs_name, watch=None):
    """The one prologue of every evolution: an unusable T, dt or
    snapshot_every is an ArgumentError before any work, then `_probe_dt` and
    `_ifrk4` run on the (..., n) array c0.  Returns the Trajectory of an (n,)
    c0, or of each row of a (B, n) batch, holding views of the batch's."""
    step_count(T, dt)
    if not isinstance(snapshot_every, numbers.Integral) or snapshot_every < 1:
        raise ArgumentError("snapshot_every", "must be an integer of at least 1, "
                            f"got {snapshot_every!r}")
    _probe_dt(c0, grid, dt, rhs)
    times, data, right_sides, h = _ifrk4(c0, grid, T, dt, rhs, snapshot_every, watch)
    meta = {"dt": h, "scheme": "ifrk4", "dealiasing": "pad2", "rhs": rhs_name}
    if c0.ndim == 1:
        return Trajectory(grid, times, data, tag, meta, right_sides)
    return [Trajectory(grid, times, d, tag, meta, k) for d, k in zip(data, right_sides)]


def evolve_bo(u0, T, dt, snapshot_every=1):
    """Integrate the direct flow u_t + H u_xx = u u_x from real data."""
    g = u0.grid
    pg = padded_grid(g)
    half_ixi = 0.5j * g.xi

    def rhs(c):
        s = to_padded(c, pg)
        return half_ixi * from_padded(s * s, pg)

    return _run(u0.coeffs, g, T, dt, rhs, snapshot_every, "u", "bo")


def _evolve_gauged(c0, g, T, dt, rhs_mode, snapshot_every):
    """The one body of both gauged evolutions: c0 is an (n,) field or a
    (B, n) batch on the grid g.  Returns what `_run` returns."""
    if rhs_mode == "exact":
        core = rhs_exact_coeffs
    elif rhs_mode == "terms":
        core = rhs_terms_total_coeffs
    else:
        raise ValueError(f"rhs_mode must be 'exact' or 'terms', got {rhs_mode!r}")

    def rhs(c, watch=None):
        return core(c, g, watch)

    def watch(samples, t):
        require_invertible(samples, lambda m: _at(t, m))

    return _run(c0, g, T, dt, rhs, snapshot_every, "V", rhs_mode, watch)


def evolve_gauged(V0, T, dt, rhs_mode="exact", snapshot_every=1):
    """Integrate the gauged flow from the field V0 (``gauge_forward(u)``).

    rhs_mode "exact" uses the full gauged right side; "terms" uses the
    truncated band system (four paraproduct pieces + exact low band).  The
    invertibility margin min |1 + V| is watched every step (see the module
    docstring).
    """
    return _evolve_gauged(V0.coeffs, V0.grid, T, dt, rhs_mode, snapshot_every)


def evolve_gauged_batch(fields, T, dt, rhs_mode="exact", snapshot_every=1):
    """Integrate the gauged flow from several fields on one grid at once.

    Returns one Trajectory per field, in order, each equal to what
    `evolve_gauged` returns for that field alone; its arrays are views of
    the batch's, uncopied.  A field that fails (unstable dt, lost
    finiteness, min |1 + V| below the floor) stops the whole batch, and the
    error names its index.  An empty list or fields on two grids raise
    ValueError before any work.
    """
    fields = list(fields)
    if not fields:
        raise ValueError("evolve_gauged_batch takes at least one field, got none")
    g = fields[0].grid
    if any(f.grid != g for f in fields):
        raise ValueError(f"evolve_gauged_batch takes fields on one grid, {g!r}")
    return _evolve_gauged(np.array([f.coeffs for f in fields]), g, T, dt,
                          rhs_mode, snapshot_every)
