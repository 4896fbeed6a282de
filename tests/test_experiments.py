"""Smoke-scale runs of the scaling experiments.

Full-scale parameter sweeps live in the acceptance suite; here each
campaign runs at reduced resolution/time and the tests pin the report
structure, the refusal of arguments that leave nothing to measure, and the
data-generator contracts.
"""

import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import bolab.experiments as experiments
from bolab import infr
from bolab.experiments import (bump_shape, gauge_check_experiment,
                               integral_scaling_experiment, lemma21_experiment,
                               lipschitz_experiment, rough_profile_data,
                               rough_real_data, smoothing_experiment,
                               unit_rough_field, verify_operator_estimate)
from bolab.dynamics import evolve_gauged_batch
from bolab.infr import bo_terms
from bolab.spectral import (ArgumentError, Grid, dispersion, sobolev_norm,
                            to_physical)
from test_reports import report_from_dict


# ---------------------------------------------------------------------------
# data generators
# ---------------------------------------------------------------------------

def test_rough_profile_growth_rate_matches_tail():
    # the prescribed tail forces ||V0||_{H^{s+1+eps}} ~ N^(eps-0.01)
    s, eps = 0.5, 0.4
    norms = {}
    for n in (128, 256, 512):
        f = rough_profile_data(Grid(n, np.pi), s, seed=42)
        norms[n] = sobolev_norm(f, s + 1.0 + eps)
    rate = np.log(norms[512] / norms[128]) / np.log(4.0)
    print(f"growth rate {rate:.3f}")
    assert abs(rate - (eps - 0.01)) < 0.1


def test_rough_profile_nested_across_resolutions():
    # fixed seed: the coarse field is exactly the truncation of the fine one
    coarse = rough_profile_data(Grid(128, np.pi), 0.5, seed=9)
    fine = rough_profile_data(Grid(256, np.pi), 0.5, seed=9)
    lo = np.arange(-60, 61)
    np.testing.assert_allclose(coarse.coeffs[64 + lo], fine.coeffs[128 + lo],
                               rtol=0, atol=0)


def test_rough_profile_zero_mean_and_real():
    f = rough_profile_data(Grid(256, np.pi), 0.5, seed=3)
    assert f.coeffs[128] == 0.0 and f.coeffs[0] == 0.0
    assert np.max(np.abs(np.imag(to_physical(f)))) < 1e-13


def test_rough_real_data_is_real():
    u = rough_real_data(Grid(128, np.pi), 0.5, seed=11, amplitude=0.6)
    assert np.max(np.abs(np.imag(to_physical(u)))) < 1e-13


def test_unit_rough_field_norm():
    rng = np.random.default_rng(0)
    f = unit_rough_field(Grid(64, np.pi), 0.5, rng)
    assert abs(sobolev_norm(f, 1.5) - 1.0) < 1e-12


def test_bump_shape_unit_sup():
    f = bump_shape(Grid(128, np.pi))
    w = to_physical(f)
    assert np.max(np.abs(np.imag(w))) < 1e-12
    assert abs(np.max(np.abs(w)) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# operator estimates
# ---------------------------------------------------------------------------

def test_operator_report_structure():
    rep = verify_operator_estimate("Q-", 0.5, 0.4,
                                   alpha_list=[64, 128, 256],
                                   M_list=[8, 16, 32], trials=2, grid_n=64)
    print(rep.summary())
    assert rep.experiment == "operator_estimate"
    assert rep.params["term"] == "Q-"
    assert {"alpha_exponent_le_gamma", "m_exponent_le_half",
            "weak_alpha_exponent_le_gamma0"} <= set(rep.checks)
    assert "alpha_strong" in rep.fits and "alpha_weak" in rep.fits
    # windows on the signed side are populated: strong values nonzero
    strong = [r["value"] for r in rep.samples if r["kind"] == "strong"]
    assert all(v > 0 for v in strong)
    for f in rep.fits.values():
        assert np.isfinite(f.residual) or not f.conclusive


def test_operator_zero_trials_raises(monkeypatch):
    # no ensemble measures nothing: refused before any lattice work
    monkeypatch.setattr(experiments, "_replay", None)
    for trials in (0, -1):
        with pytest.raises(ValueError, match="trials"):
            verify_operator_estimate("C+", 0.5, 0.0, trials=trials)


@pytest.mark.parametrize("seed", [-1, 2.5])
@pytest.mark.parametrize("owner", [
    lambda seed: verify_operator_estimate("Q+", 0.5, 0.0, seed=seed),
    lambda seed: rough_real_data(Grid(64, np.pi), 0.5, seed)],
    ids=["verify_operator_estimate", "random_phase_field"])
def test_generator_owners_refuse_an_unusable_seed(monkeypatch, owner, seed):
    # numpy's generator takes non-negative integers only; its refusal names
    # the seed, and comes before any lattice work
    monkeypatch.setattr(experiments, "_replay", None)
    with pytest.raises(ArgumentError, match="^seed must be a non-negative "
                       "integer") as refused:
        owner(seed)
    assert refused.value.argument == "seed"


@pytest.mark.parametrize("term", ["X+", bo_terms()["Q+"]],
                         ids=["unknown-name", "descriptor"])
def test_operator_term_must_be_a_name(monkeypatch, term):
    # the term is named, never passed as a descriptor: refused before any
    # lattice work
    monkeypatch.setattr(experiments, "_replay", None)
    with pytest.raises(ValueError, match="term must be one of"):
        verify_operator_estimate(term, 0.5, 0.0)


@pytest.mark.parametrize("lists, name", [
    ({"M_list": [0, 16]}, "M_list"), ({"M_list": [16]}, "M_list"),
    ({"M_list": [16, 16]}, "M_list"), ({"alpha_list": [128]}, "alpha_list")])
def test_operator_unfittable_window_lists_raise(monkeypatch, lists, name):
    # a non-positive width or fewer than two values cannot be fitted:
    # refused before any lattice work
    monkeypatch.setattr(experiments, "_replay", None)
    with pytest.raises(ValueError, match=name):
        verify_operator_estimate("Q+", 0.5, 0.0, **lists)


def test_operator_empty_windows_never_pass():
    # windows far beyond the lattice phases: all outputs vanish and the
    # fits come back inconclusive rather than passing on zeros
    rep = verify_operator_estimate("Q+", 0.5, 0.0,
                                   alpha_list=[1 << 20, 1 << 21],
                                   M_list=[2, 4], trials=1, grid_n=16)
    assert rep.verdict == "inconclusive"


@pytest.mark.parametrize("name", ["Q+", "C-"])
def test_operator_enumerates_once_per_member(name, monkeypatch):
    # every window cell replays the member's tuples; none enumerates again
    calls = []
    real = infr.term_blocks

    def counting(*args, **kwargs):
        calls.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(infr, "term_blocks", counting)
    verify_operator_estimate(name, 0.5, 0.4, alpha_list=[64, 128],
                             M_list=[8, 16], trials=3, grid_n=32)
    assert calls == [name] * 3


def test_operator_samples_do_not_depend_on_the_block_budget(monkeypatch):
    # every cell adds block after block into its running output, so one
    # tuple per block and one block in all give the same report bits
    samples = []
    for budget in (1, 1 << 40):
        monkeypatch.setattr(infr, "BLOCK_TUPLES", budget)
        samples.append(verify_operator_estimate(
            "C-", 0.5, 0.4, alpha_list=[64, 128], M_list=[8, 16], trials=2,
            grid_n=32).samples)
    assert samples[0] == samples[1]


# tracemalloc peak of C+ at n = 128, one trial: 4.0 MB measured with the
# window cells replayed block by block, 22-23 MB when the whole lattice of
# 196,664 tuples was held
OPERATOR_PEAK_BOUND = 8e6


def test_operator_estimate_memory_is_bounded():
    tracemalloc.start()
    try:
        verify_operator_estimate("C+", 0.5, 0.0, grid_n=128, trials=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < OPERATOR_PEAK_BOUND, f"traced peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("name,arity_cells", [("Q+", 2), ("C-", 3)])
def test_operator_sample_table_shape(name, arity_cells):
    alphas, Ms = [64, 128], [8, 16]
    rep = verify_operator_estimate(name, 0.5, 0.4, alpha_list=alphas,
                                   M_list=Ms, trials=1, grid_n=64)
    # alpha sweep contributes strong+weak rows, each anchor an M sweep
    n_alpha = sum(1 for r in rep.samples if r["fit"] in ("alpha_strong",
                                                         "alpha_weak"))
    assert n_alpha == 2 * len(alphas)
    anchors = {r["alpha"] for r in rep.samples
               if str(r.get("fit", "")).startswith("m_sweep")}
    assert anchors == {64.0, 128.0}  # every alpha at least twice max(M)


def test_operator_without_an_anchor_has_no_m_fit():
    # no fitted alpha reaches 2 max(M) = 2048: the M sweep is not run at
    # the largest alpha instead, where (|alpha| + M)^gamma is not flat
    rep = verify_operator_estimate("Q+", 0.5, 0.4, M_list=[16, 1024],
                                   trials=1, grid_n=32)
    assert rep.checks["m_exponent_le_half"] == "inconclusive"
    assert not any(str(r.get("fit", "")).startswith("m_sweep")
                   for r in rep.samples)
    assert any(note.endswith("no M fit") for note in rep.notes)


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------

def test_smoothing_report_smoke():
    rep = smoothing_experiment(seed=42, s=0.5, eps=0.4, T=0.05,
                               resolutions=[128, 256])
    print(rep.summary())
    assert rep.checks["remainder_stable_eps0.4"] is True
    assert rep.checks["v0_rate_eps0.4"] is True
    fit = rep.fits["v0_growth_eps0.4"]
    assert fit.conclusive and abs(fit.exponent - 0.39) < 0.1
    kinds = [r["kind"] for r in rep.samples]
    assert kinds.count("remainder_sup") == 2 and kinds.count("initial_norm") == 2
    # serialization round-trip keeps the verdict computable from stored data
    back = report_from_dict(json.loads(rep.json_text()))
    assert back.verdict == rep.verdict


def test_smoothing_zero_remainder_sup_is_inconclusive():
    # at T = 1e-300 the flow leaves the data as it is: no remainder, so no
    # stability ratio, and the note names the zero sups
    rep = smoothing_experiment(seed=42, s=0.5, eps=0.4, T=1e-300,
                               resolutions=[128, 256])
    assert rep.checks["remainder_stable_eps0.4"] == "inconclusive"
    assert "remainder sup is 0 at eps=0.4, n = 128, 256: no ratio to test" \
        in rep.notes
    assert rep.verdict != "pass"


def test_smoothing_zero_amplitude_raises(monkeypatch):
    # zero data has no remainder to measure: refused before any run
    monkeypatch.setattr(experiments, "evolve_gauged", None)
    with pytest.raises(ValueError, match="amplitude"):
        smoothing_experiment(seed=1, s=0.5, eps=0.4, T=0.02,
                             resolutions=[128, 256], amplitude=0.0)


@pytest.mark.parametrize("base_dt, N", [(1e-8, 2048), (1e-9, 128), (0.0, 128)])
def test_smoothing_refuses_a_step_before_any_run(monkeypatch, base_dt, N):
    # base_dt (512/N)^{3/2} is each resolution's step, so a base_dt that N =
    # 128 accepts (3.1e6 steps at 1e-8) can ask for more than MAX_STEPS at
    # N = 2048: every step count is taken before the first evolution, and
    # the refusal names base_dt, the value passed and the resolution
    monkeypatch.setattr(experiments, "evolve_gauged", None)
    with pytest.raises(ArgumentError, match=f"^base_dt = {base_dt!r} gives "
                       f"the step .* at N = {N}: dt must be ") as err:
        smoothing_experiment(seed=1, s=0.5, eps=0.4, T=0.25,
                             resolutions=[128, 2048], base_dt=base_dt)
    assert err.value.argument == "base_dt"
    # a refused T keeps its own name
    with pytest.raises(ArgumentError, match="^T ") as err:
        smoothing_experiment(seed=1, s=0.5, eps=0.4, T=-1.0,
                             resolutions=[128, 2048])


def test_gauge_check_zero_data_raises(monkeypatch):
    # zero data makes the relative round trip 0/0: refused before any run
    monkeypatch.setattr(experiments, "evolve_bo", None)
    monkeypatch.setattr(experiments, "gauge_forward", None)
    u0 = rough_real_data(Grid(64, np.pi), 0.5, 1, 0.0)
    with pytest.raises(ValueError, match="u0"):
        gauge_check_experiment(u0, T=0.01, dt=1e-3, s=0.5)


@pytest.mark.parametrize("p, passes", [(0.25, False), (0.35, True)])
def test_smoothing_tail_gap_bound_is_0_3(monkeypatch, p, passes):
    # a stub flow whose remainder at T is c0 <xi>^{-p}: the remainder tail
    # is steeper than the data tail by about p (0.256 and 0.358 here)
    def flow(v0, T, dt, rhs_mode, snapshot_every):
        c0, xi = v0.coeffs, v0.grid.xi
        later = np.exp(-1j * dispersion(xi) * T) * (
            c0 + c0 * (1.0 + xi * xi) ** (-0.5 * p))
        return SimpleNamespace(times=np.array([0.0, T]),
                               data=np.array([c0, later]))

    monkeypatch.setattr(experiments, "evolve_gauged", flow)
    rep = smoothing_experiment(seed=42, s=0.5, eps=0.4, T=0.05,
                               resolutions=[256, 512])
    assert rep.params["tail_gap_eps0.4"] == pytest.approx(p, abs=0.01)
    assert rep.checks["tail_gap_eps0.4"] is passes


def test_smoothing_csv_has_fixed_schema():
    rep = smoothing_experiment(seed=42, s=0.5, eps=0.2, T=0.02,
                               resolutions=[128])
    header = rep.csv_text().splitlines()[0].split(",")
    assert header[0] == "experiment"
    assert header[-4:] == ["value", "fit_exponent", "fit_residual", "verdict"]


# every driver that reads eps takes (s, eps) through infr_params: a pair it
# refuses is refused by each of them with the same error, before any run
_EPS_READERS = {
    "smoothing": lambda s, eps: smoothing_experiment(
        seed=1, s=s, eps=eps, T=0.02, resolutions=[128, 256]),
    "operator": lambda s, eps: verify_operator_estimate(
        "Q+", s, eps, trials=1, grid_n=32),
    "integrals": lambda s, eps: integral_scaling_experiment(s, eps, 48.0),
}


@pytest.mark.parametrize("reader", sorted(_EPS_READERS))
@pytest.mark.parametrize("s, eps", [(0.5, -1.0), (0.5, 0.5), (1.0, 0.75),
                                    (0.5, np.nan), (0.0, 0.0)])
def test_eps_readers_refuse_what_infr_params_refuses(monkeypatch, reader, s,
                                                     eps):
    for run in ("evolve_gauged", "_replay", "quad_integral_J",
                "cubic_integral_I"):
        monkeypatch.setattr(experiments, run, None)
    with pytest.raises(ArgumentError) as owner:
        infr.infr_params(s, eps)
    with pytest.raises(ArgumentError) as refused:
        _EPS_READERS[reader](s, eps)
    assert refused.value.argument == owner.value.argument
    assert str(refused.value) == str(owner.value)


# ---------------------------------------------------------------------------
# Lipschitz
# ---------------------------------------------------------------------------

def test_lipschitz_smoke():
    rep = lipschitz_experiment(seed=42, s=0.5, T=0.05,
                               perturbation_size=1e-3, resolutions=[128, 256])
    print(rep.summary())
    assert rep.verdict == "pass"
    assert rep.checks["ratio_starts_at_one"] is True
    assert rep.checks["sup_ratio_le_cmax"] is True
    assert rep.checks["stable_under_resolution"] is True
    assert rep.checks["stable_under_halving"] is True
    starts = [r["value"] for r in rep.samples if r["t"] == 0.0]
    assert starts and all(v == 1.0 for v in starts)
    # measured initial gaps hit the requested size (secant calibration)
    for note in rep.notes:
        gap = float(note.split("initial gap ")[1].split(",")[0])
        target = float(note.split("size=")[1].split(":")[0])
        assert abs(gap / target - 1.0) < 1e-3


def test_lipschitz_and_lemma21_evolve_once_per_grid(monkeypatch):
    # every run of a grid goes into one batched call
    calls = []

    def counting(fields, *args, **kwargs):
        calls.append(len(fields))
        return evolve_gauged_batch(fields, *args, **kwargs)

    monkeypatch.setattr(experiments, "evolve_gauged", None)
    monkeypatch.setattr(experiments, "evolve_gauged_batch", counting)
    lipschitz_experiment(seed=42, s=0.5, T=0.004, perturbation_size=1e-3,
                         resolutions=[64, 128])
    lemma21_experiment([0.05, 0.1, 0.2], T=0.002, n_points=64, dt=2e-4)
    assert calls == [3, 3, 3]


@pytest.mark.parametrize("factor, stable", [(1.9, True), (2.1, False)])
def test_lipschitz_within_2x_bound(monkeypatch, factor, stable):
    # a stub flow that leaves the separation alone at n = 32 and scales it
    # by ``factor`` at n = 64: the sup ratios differ by that factor across
    # the doubling and agree across the halving
    def flow(fields, T, dt, rhs_mode, snapshot_every):
        base = fields[0].coeffs
        scale = {32: 1.0, 64: factor}[fields[0].grid.n]
        return [SimpleNamespace(times=np.array([0.0, T]), data=np.array(
                    [f.coeffs, base + scale * (f.coeffs - base)]))
                for f in fields]

    monkeypatch.setattr(experiments, "evolve_gauged_batch", flow)
    rep = lipschitz_experiment(seed=42, s=0.5, T=0.05, perturbation_size=1e-3,
                               resolutions=[32, 64])
    sups = {(r["n"], r["size"]): r["value"] for r in rep.samples
            if r["t"] > 0.0}
    assert sorted(set(round(v, 9) for v in sups.values())) == [1.0, factor]
    assert rep.checks["stable_under_halving"] is True
    assert rep.checks["stable_under_resolution"] is stable


def test_lipschitz_zero_perturbation_raises(monkeypatch):
    # identical data have no separation to track: refused before any run,
    # as is a size so small that the gauge map returns the base field (no
    # response to calibrate on)
    monkeypatch.setattr(experiments, "evolve_gauged", None)
    monkeypatch.setattr(experiments, "evolve_gauged_batch", None)
    for size in (0.0, -1e-3, 1e-20):
        with pytest.raises(ValueError, match="perturbation_size"):
            lipschitz_experiment(seed=5, s=0.5, T=0.02,
                                 perturbation_size=size, resolutions=[128])


@pytest.mark.parametrize("c_max", [0.0, -1.0, np.nan])
def test_lipschitz_refuses_a_bound_that_is_not_positive(monkeypatch, c_max):
    # a sup ratio is positive, so such a bound could only fail: refused
    # before any run
    monkeypatch.setattr(experiments, "evolve_gauged_batch", None)
    monkeypatch.setattr(experiments, "gauge_forward", None)
    with pytest.raises(ArgumentError, match="^c_max must be positive") as err:
        lipschitz_experiment(seed=5, s=0.5, T=0.02, perturbation_size=1e-3,
                             resolutions=[128], c_max=c_max)
    assert err.value.argument == "c_max"


def test_lipschitz_refuses_a_gap_of_rounding_noise(monkeypatch):
    # at 1e-14 an n = 256 gap calibrates to over twice its size: rounding,
    # not the requested perturbation, so the size is refused before any run;
    # at 1e-13 every gap lies within GAP_FACTOR and the runs start
    class Started(Exception):
        pass

    def flow(*args, **kwargs):
        raise Started

    monkeypatch.setattr(experiments, "evolve_gauged_batch", flow)
    noise = r"at n = 256: .* times the size, outside \[1/2, 2\]$"
    with pytest.raises(ArgumentError, match=noise) as refused:
        lipschitz_experiment(seed=42, s=0.5, T=0.01, perturbation_size=1e-14,
                             resolutions=[128, 256], amplitude=0.3)
    assert refused.value.argument == "perturbation_size"
    with pytest.raises(Started):
        lipschitz_experiment(seed=42, s=0.5, T=0.01, perturbation_size=1e-13,
                             resolutions=[128, 256], amplitude=0.3)


_RESOLUTION_SWEEPS = {
    "smoothing": lambda **kw: smoothing_experiment(
        seed=1, s=0.5, eps=0.4, T=0.02, **kw),
    "lipschitz": lambda **kw: lipschitz_experiment(
        seed=5, s=0.5, T=0.02, perturbation_size=1e-3, **kw),
}


@pytest.mark.parametrize("sweep", sorted(_RESOLUTION_SWEEPS))
@pytest.mark.parametrize("kwargs, name", [
    ({"resolutions": []}, "resolutions"),
    ({"resolutions": [100]}, "resolutions"),
    ({"resolutions": [128, 100]}, "resolutions"),
    ({"resolutions": [128], "half_length": 1.0}, "half_length"),
    ({"resolutions": [64.5]}, "resolutions"),
    ({"resolutions": [128], "half_length": np.inf}, "half_length"),
    ({"resolutions": [256, 128]}, "resolutions"),
    ({"resolutions": [128, 128]}, "resolutions"),
], ids=["empty", "not-a-power-of-two", "second-refused", "half-length",
        "fractional", "infinite-half-length", "decreasing", "repeated"])
def test_resolution_sweeps_refuse_unusable_grids(monkeypatch, sweep, kwargs,
                                                 name):
    # no resolution leaves nothing to compare (lipschitz would report a
    # vacuous stable_under_resolution); every grid is built before any run
    for evolve in ("evolve_gauged", "evolve_gauged_batch", "gauge_forward"):
        monkeypatch.setattr(experiments, evolve, None)
    with pytest.raises(ArgumentError, match=f"^{name} ") as err:
        _RESOLUTION_SWEEPS[sweep](**kwargs)
    assert err.value.argument == name


# ---------------------------------------------------------------------------
# amplitude scaling of the profile time derivative
# ---------------------------------------------------------------------------

def test_lemma21_smoke():
    rep = lemma21_experiment([0.05, 0.1, 0.2], T=0.05,
                             n_points=64, dt=2e-4)
    print(rep.summary())
    assert rep.checks["small_h_power_near_2"] is True
    assert rep.checks["constant_uniform_pm50"] is True
    assert rep.params["fitted_constant"] > 0
    for r in rep.samples:
        assert r["c_ratio"] == pytest.approx(
            r["value"] / (r["h"] ** 2 + r["h"] ** 3))


@pytest.mark.parametrize("amplitudes", [[], [0.0, 0.1], [0.1, -0.05]])
def test_lemma21_unusable_amplitudes_raise(monkeypatch, amplitudes):
    # a zero amplitude has no ratio to C (h^2 + h^3): refused before any run
    monkeypatch.setattr(experiments, "evolve_gauged", None)
    monkeypatch.setattr(experiments, "evolve_gauged_batch", None)
    with pytest.raises(ValueError, match="amplitudes"):
        lemma21_experiment(amplitudes, T=0.05, n_points=64, dt=2e-4)


def test_lemma21_no_small_amplitudes_inconclusive():
    rep = lemma21_experiment([0.35], T=0.02, n_points=64, dt=2e-4)
    assert rep.checks["small_h_power_near_2"] == "inconclusive"
    assert rep.verdict == "inconclusive"
