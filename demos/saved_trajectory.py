"""Reading a saved run back: the trajectory that ``bolab simulate`` writes.

``bolab simulate`` saves its trajectory as one ``.bosf`` snapshot per
stored time plus a ``manifest.json``.  This demo runs the command at a
small config into a temporary directory, reads the trajectory back with
``Trajectory.load``, and analyses the loaded snapshots:

  * the L2 norm of every loaded snapshot equals the ``l2_norm`` sample the
    command reported for it, bit for bit (a snapshot stores the
    coefficients as little-endian complex128, so nothing is rounded);
  * the flow moves the loaded states, which the sup norm of u shows, while
    the L2 norm, a conserved quantity of the Benjamin-Ono flow, stays put.

    python3 demos/saved_trajectory.py        (~1 s)
"""

import json
import os
import sys
import tempfile

from bolab.cli import main
from bolab.dynamics import Trajectory
from bolab.spectral import sobolev_norm, to_physical


def run():
    with tempfile.TemporaryDirectory() as outdir:
        code = main(["simulate", "--n-points", "128", "--T", "0.1",
                     "--snapshot-every", "20", "--output-dir", outdir])
        if code != 0:
            return code
        traj = Trajectory.load(os.path.join(outdir, "trajectory"))
        with open(os.path.join(outdir, "simulate.json")) as fh:
            reported = [row["value"] for row in json.load(fh)["samples"]]

    print(f"\nloaded {len(traj)} snapshots of '{traj.tag}' on {traj.grid!r}, "
          f"t = {traj.times[0]:g} .. {traj.times[-1]:g}")
    print(f"{'t':>8} {'L2 (loaded)':>14} {'= reported':>11} {'max|u|':>9}")
    same = True
    for i, t in enumerate(traj.times):
        u = traj.field(i)
        l2 = sobolev_norm(u, 0.0)
        sup = abs(to_physical(u)).max()
        same &= l2 == reported[i]
        print(f"{t:8.3f} {l2:14.10f} {str(l2 == reported[i]):>11} {sup:9.6f}")
    print("every loaded norm equals its reported sample" if same
          else "a loaded norm differs from its reported sample")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(run())
