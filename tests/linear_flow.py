"""The exact linear flow u_t + H u_xx = 0: the oracle of the IF-RK4 stepper.

`dynamics` solves the linear part inside each step through the same factor
exp(-i t |xi| xi); the functions here apply it over a whole interval, so a
tiny-amplitude run must land on them to rounding.
"""

import numpy as np

from bolab.spectral import apply_multiplier, dispersion


def propagator_symbol(grid, t):
    """Solution propagator exp(-i t |xi| xi) of u_t + H u_xx = 0."""
    return np.exp(-1j * t * dispersion(grid.xi))


def linear_propagator(field, t):
    """Exact solution of the linear flow after time t."""
    return apply_multiplier(field, propagator_symbol(field.grid, t))
