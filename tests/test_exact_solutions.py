"""The flows against a true solution: the periodic travelling wave of
``exact_solutions``.

Every other flow test compares the solver with itself, with the other flow
or with stored goldens; here the direct flow and the exact gauged flow
(read back through the inverse map) meet the closed form.  Bounds are about
twice the errors measured at n = 128, q = 0.3, L = pi, T = 1.
"""

import warnings

import numpy as np
import pytest

from bolab.dynamics import evolve_bo, evolve_gauged
from bolab.gauge import gauge_forward, gauge_inverse
from bolab.spectral import ArgumentError, Grid, sobolev_norm
from exact_solutions import wave, wave_gauge


def rel_error(got, want):
    return sobolev_norm(got - want, 0.0) / sobolev_norm(want, 0.0)


@pytest.mark.parametrize("n, q", [(64, 0.3), (128, 0.3), (128, 0.5),
                                  (256, 0.5), (256, 0.7)])
@pytest.mark.parametrize("L", [np.pi, 4 * np.pi], ids=["pi", "4pi"])
def test_gauge_forward_matches_closed_form(n, q, L):
    # measured at most 5.6e-16 (q^(n/2), the aliasing of the samples, is
    # below rounding for each pair)
    g = Grid(n, L)
    assert rel_error(gauge_forward(wave(g, q)), wave_gauge(g, q)) <= 2e-15


def test_aliased_wave_has_a_mean_and_is_refused():
    # at n = 64 the aliases of a q = 0.7 wave (q^32 = 1.1e-5) leave the
    # samples a zero mode of 4.4e-10 of the L2 norm: no periodic gauge
    with pytest.raises(ArgumentError) as err:
        gauge_forward(wave(Grid(64, np.pi), 0.7))
    assert err.value.argument == "u"


# (dt, bound) per flow; measured 4.69e-11 and 2.89e-12 (direct), 9.36e-11
# and 5.80e-12 (gauged)
_FLOWS = {
    "direct": ((2e-3, 1e-10), (1e-3, 6e-12)),
    "gauged": ((2e-3, 2e-10), (1e-3, 1.2e-11)),
}


def _flow_at(kind, g, q, T, dt):
    if kind == "direct":
        return evolve_bo(wave(g, q), T=T, dt=dt, snapshot_every=10 ** 9).final
    traj = evolve_gauged(gauge_forward(wave(g, q)), T=T, dt=dt,
                         rhs_mode="exact", snapshot_every=10 ** 9)
    return gauge_inverse(traj.final)


@pytest.mark.parametrize("kind", sorted(_FLOWS))
def test_flow_matches_wave_at_fourth_order(kind):
    g, q, T = Grid(128, np.pi), 0.3, 1.0
    errors = []
    for dt, bound in _FLOWS[kind]:
        errors.append(rel_error(_flow_at(kind, g, q, T, dt), wave(g, q, T)))
        assert errors[-1] <= bound
    # halving dt divides the error by about 16 (measured slopes 4.02, 4.01)
    assert abs(np.log2(errors[0] / errors[1]) - 4.0) <= 0.3


def test_steep_wave_gauged_run_is_silent():
    # at q = 0.5 the inverse map drops an imaginary part of 1e-8 relative
    # (time-stepping error); healthy, so nothing warns.  Error measured
    # 3.7e-9.
    g, q, T = Grid(128, np.pi), 0.5, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = _flow_at("gauged", g, q, T, 1e-3)
    assert rel_error(back, wave(g, q, T)) <= 1e-8
