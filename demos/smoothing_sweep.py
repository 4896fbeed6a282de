"""A small resolution sweep of the profile-remainder experiment.

The point being tested: data drawn exactly at H^{s+1} regularity has an
H^{s+1+eps} norm that grows like N^eps with the resolution, while the
profile remainder measured in the *same* norm stays put.  The full-scale
run (N up to 2048, T = 0.5) lives in the acceptance tests; this is the
ten-second version.

    python3 demos/smoothing_sweep.py
"""

from bolab.experiments import smoothing_experiment


def main():
    rep = smoothing_experiment(seed=42, s=0.5, eps=0.4, T=0.25,
                               resolutions=[256, 512])
    sups = {r["n"]: r["value"] for r in rep.samples
            if r["kind"] == "remainder_sup"}
    norms = {r["n"]: r["value"] for r in rep.samples
             if r["kind"] == "initial_norm"}

    print(f"{'N':>6} {'||V0||_H1.9':>12} {'sup_t ||R||_H1.9':>18}")
    for n in sorted(sups):
        print(f"{n:>6} {norms[n]:>12.4f} {sups[n]:>18.6f}")

    growth = rep.fits["v0_growth_eps0.4"]
    spread = max(sups.values()) / min(sups.values()) - 1.0
    print(f"\ndata norm grows like N^{growth.exponent:.2f} "
          f"(fit residual {growth.residual:.3f})")
    print(f"remainder sup moves {spread:.1%} across the doubling")
    print(f"checks: { {k: v for k, v in rep.checks.items()} }")


if __name__ == "__main__":
    main()
