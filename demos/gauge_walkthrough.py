"""A guided tour of the gauge variable V = e^{-iF/2} - 1.

Builds a smooth bump, walks through the forward transform (antiderivative,
exponential, band split), checks that the inverse recovers the data to
rounding, then evolves u and V side by side and confirms that gauging the
evolved u lands on the evolved V.  Run it directly:

    python3 demos/gauge_walkthrough.py
"""

import numpy as np

from bolab.dynamics import evolve_bo, evolve_gauged
from bolab.gauge import antiderivative, gauge_forward, gauge_inverse
from bolab.spectral import (Grid, padded_grid, project, sobolev_norm,
                            to_padded, to_spectral)


def main():
    g = Grid(1024, 8 * np.pi)
    u = to_spectral(0.4 * -g.x * np.exp(-g.x**2 / 2.0), g)
    print(f"grid: n={g.n}, x in [-{g.half_length:.3f}, {g.half_length:.3f})")
    print(f"data: ||u||_L2 = {sobolev_norm(u, 0):.6f} (zero-mean bump)\n")

    F = antiderivative(u)
    V = gauge_forward(u)
    back = gauge_inverse(V)
    # min_x |1 + V| over the doubled lattice the inverse map samples V on
    margin = np.min(np.abs(1.0 + to_padded(V.coeffs, padded_grid(g))))
    print("forward transform")
    print(f"  ||F||_H1          = {sobolev_norm(F, 1.0):.6f}   "
          "(zero-mean antiderivative of u)")
    print(f"  ||V||_H1.5        = {sobolev_norm(V, 1.5):.6f}")
    print(f"  min_x |1 + V|     = {margin:.6f}   (invertibility margin)")
    print(f"  reconstruction    = {sobolev_norm(u - back, 0.0):.3e}   "
          "(L2 defect of u = 2i(1+conj V)V_x)")
    for name, region in (("V_+", "+hi"), ("V_-", "-hi"), ("V_lo", "lo")):
        part = project(V, region)
        print(f"  ||{name:<4}||_L2      = {sobolev_norm(part, 0):.6f}")

    rel = sobolev_norm(back - u, 0) / sobolev_norm(u, 0)
    print(f"\ninverse transform: relative L2 error {rel:.3e}")

    T, dt = 0.25, 1e-3
    print(f"\nevolving both sides to T={T} (dt={dt:g}) ...")
    traj_u = evolve_bo(u, T, dt, snapshot_every=10**9)
    traj_v = evolve_gauged(V, T, dt, snapshot_every=10**9)
    err = sobolev_norm(traj_v.final - gauge_forward(traj_u.final), 1.5)
    print(f"  ||V(T) - G(u(T))||_H1.5 = {err:.3e}")
    print("  the gauged equation and the gauge of the direct flow agree "
          "to scheme accuracy")


if __name__ == "__main__":
    main()
