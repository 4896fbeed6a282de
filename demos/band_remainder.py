"""Why the smoothing experiment evolves the band system, not the full flow.

The profile remainder e^{it omega} V_hat(t) - V_hat(0) is the object whose
size should not track the roughness of the data.  This demo evolves the same
rough profile two ways on one grid:

  * ``exact``  -- the full conjugated equation, and
  * ``terms``  -- its high/low band truncation (the four restricted
                  quadratic/cubic pieces driving the |xi| > 1 bands, with the
                  low band forced exactly).

Under the full flow the remainder picks up an order-one piece supported on
the lowest negative modes: the hi x lo corner of the quadratic nonlinearity
oscillates with phase 2 xi xi_2, which at |xi_2| = 1 grows only linearly in
xi, so on a lattice whose lowest mode never leaves |xi_2| = 1 it cannot
average away and its size rides the (diverging) data norm.  The band system
drops that corner; what is left decays at high frequency and the remainder
collapses by two orders of magnitude.

    python3 demos/band_remainder.py        (~1 min)
"""

import numpy as np

from bolab.dynamics import evolve_gauged
from bolab.experiments import rough_profile_data
from bolab.spectral import SpectralField, dispersion, project, sobolev_norm

N, S, EPS, T, DT = 512, 0.5, 0.4, 0.5, 1e-4


def remainder_sups(traj, grid, norm_index):
    omega = dispersion(grid.xi)
    v0 = traj.data[0]
    sups, final = 0.0, None
    for i, t in enumerate(traj.times):
        r = np.exp(1j * omega * t) * traj.data[i] - v0
        field = SpectralField(grid, r)
        size = sobolev_norm(field, norm_index)
        if size >= sups:
            sups, final = size, field
    return sups, final


def main():
    from bolab.spectral import Grid

    g = Grid(N, np.pi)
    V0 = rough_profile_data(g, S, seed=42)
    norm_index = S + 1 + EPS
    print(f"rough profile on n={N}: ||V0||_H{norm_index:g} = "
          f"{sobolev_norm(V0, norm_index):.4f}\n")

    rows = []
    for mode in ("exact", "terms"):
        traj = evolve_gauged(V0, T=T, dt=DT, rhs_mode=mode,
                             snapshot_every=500)
        sup, worst = remainder_sups(traj, g, norm_index)
        bands = {nm: sobolev_norm(project(worst, reg), norm_index)
                 for nm, reg in (("xi>1", "+hi"), ("xi<-1", "-hi"),
                                 ("|xi|<=1", "lo"))}
        rows.append((mode, sup, bands))

    print(f"{'rhs mode':<8} {'sup_t ||R||':>12}   band split of the worst snapshot")
    for mode, sup, bands in rows:
        split = "  ".join(f"{nm}: {val:.4f}" for nm, val in bands.items())
        print(f"{mode:<8} {sup:>12.3e}   {split}")

    ratio = rows[0][1] / rows[1][1]
    print(f"\nfull-flow remainder is {ratio:.0f}x the band-system remainder;")
    print("its weight sits on the negative band near the lattice infrared,")
    print("exactly where the 2 xi xi_2 phase of the dropped corner degenerates.")


if __name__ == "__main__":
    main()
