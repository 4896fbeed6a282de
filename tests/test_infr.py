"""Tests for phase-weighted operators, tuple bookkeeping and iteration params.

The brute-force oracle below enumerates every lattice tuple with plain python
index arithmetic, independently of the vectorized summation kernels.
``phase`` and ``oscillation_phase`` evaluate the two phases of one tuple from
its frequencies: the oracle of ``TermValues.phase``, and the time-integrand
phase of ``bolab.nfe``.
"""

import numpy as np
import pytest

from bolab import infr
from bolab.gauge import rhs_cubic, rhs_quadratic
from bolab.infr import (
    COUPLING,
    add_by_output,
    apply_T_alpha_M,
    apply_T_sigma,
    bo_terms,
    dyadic_sigma_from_restricted,
    gamma_cubic,
    gamma_quadratic,
    infr_params,
    split_resonant,
    term_blocks,
    term_values_on_lattice,
)
from bolab.spectral import ArgumentError, Grid, SpectralField, dispersion, region_mask


def field_from_modes(grid, modes):
    c = np.zeros(grid.n, dtype=complex)
    for k, val in modes.items():
        c[int(k) + grid.n // 2] = val
    return SpectralField(grid, c)


def random_complex_field(grid, rng, kmax):
    c = np.zeros(grid.n, dtype=complex)
    half = grid.n // 2
    for k in range(-kmax, kmax + 1):
        c[half + k] = rng.standard_normal() + 1j * rng.standard_normal()
    return SpectralField(grid, c)


def omega(x):
    return abs(x) * x


def phase(term, output_xi, slot_xis):
    """Resonance function, restricted-operator parameterization.

    Phi = omega(xi) - sum_j s_j omega(xi_j) with s_j = -1 on conjugated
    slots and +1 otherwise, over convolution frequencies summing to xi.
    Scalars or broadcastable arrays.
    """
    slot_xis = [np.asarray(x, dtype=float) for x in slot_xis]
    if len(slot_xis) != term.arity:
        raise ValueError(f"{term.name} takes {term.arity} slot frequencies, got {len(slot_xis)}")
    out = np.asarray(output_xi, dtype=float)
    total = sum(slot_xis)
    if not np.allclose(total, out, rtol=0.0, atol=1e-9 * max(1.0, float(np.max(np.abs(out))))):
        raise ValueError("slot frequencies must sum to the output frequency")
    ph = dispersion(out)
    for s, x in zip(term.phase_signs(), slot_xis):
        ph = ph - s * dispersion(x)
    return float(ph) if np.ndim(ph) == 0 else ph


def oscillation_phase(term, output_xi, slot_xis):
    """Phase of the e^{i s Phi} factor in the profile time integrand (no flip)."""
    slot_xis = [np.asarray(x, dtype=float) for x in slot_xis]
    if len(slot_xis) != term.arity:
        raise ValueError(f"{term.name} takes {term.arity} slot frequencies, got {len(slot_xis)}")
    ph = dispersion(np.asarray(output_xi, dtype=float))
    for x in slot_xis:
        ph = ph - dispersion(x)
    return float(ph) if np.ndim(ph) == 0 else ph


def brute_slot_value(term, inputs, j, i):
    """Value read by slot j at lattice index i (conjugation and region applied)."""
    n = inputs[0].grid.n
    if term.conj[j]:
        ir = n - i
        if not 0 <= ir < n:
            return 0.0
        v = np.conj(inputs[j].coeffs[ir])
    else:
        v = inputs[j].coeffs[i]
    reg = term.slot_regions[j]
    if reg is not None and not region_mask(np.array([inputs[0].grid.xi[i]]), reg)[0]:
        return 0.0
    return v


def brute_weighted(term, inputs, weight_fn):
    """Direct tuple-by-tuple evaluation of a weighted term application."""
    g = inputs[0].grid
    n = g.n
    half = n // 2
    xi = g.xi

    def slot_value(j, i):
        return brute_slot_value(term, inputs, j, i)

    signs = term.phase_signs()
    out = np.zeros(n, dtype=complex)
    for io in range(1, n):
        if not region_mask(np.array([xi[io]]), term.out_region)[0]:
            continue
        acc = 0.0
        if term.arity == 2:
            for i1 in range(n):
                i2 = io - i1 + half
                if not 0 <= i2 < n:
                    continue
                v = slot_value(0, i1) * slot_value(1, i2)
                if v == 0.0:
                    continue
                ph = omega(xi[io]) - signs[0] * omega(xi[i1]) - signs[1] * omega(xi[i2])
                acc += v * xi[i2] ** 2 * weight_fn(ph)
        else:
            for i1 in range(n):
                v1 = slot_value(0, i1)
                if v1 == 0.0:
                    continue
                for i2 in range(n):
                    v2 = slot_value(1, i2)
                    if v2 == 0.0:
                        continue
                    i3 = io - i1 - i2 + n
                    if not 0 <= i3 < n:
                        continue
                    pair = xi[i2] + xi[i3]
                    if term.pair_sign == "-" and not pair < 0:
                        continue
                    if term.pair_sign == "+" and not pair > 0:
                        continue
                    v = v1 * v2 * slot_value(2, i3)
                    if v == 0.0:
                        continue
                    ph = (
                        omega(xi[io])
                        - signs[0] * omega(xi[i1])
                        - signs[1] * omega(xi[i2])
                        - signs[2] * omega(xi[i3])
                    )
                    acc += v * pair * xi[i3] * weight_fn(ph)
        out[io] = acc * (g.dxi / (2 * np.pi)) ** (term.arity - 1)
    return out


# ---------------------------------------------------------------------------
# term registry and phases


def test_terms_registry():
    terms = bo_terms()
    assert set(terms) == {"Q+", "Q-", "C+", "C-"}
    assert terms["Q+"].arity == 2 and terms["C+"].arity == 3
    assert terms["Q+"].conj == (False, False)
    assert terms["C+"].conj == (False, True, False)
    assert terms["Q+"].out_region == "+hi" and terms["Q-"].out_region == "-hi"
    assert terms["Q+"].slot_regions == ("+hi", "-")
    assert terms["C-"].pair_sign == "+"
    assert COUPLING == 2j
    # multiplier hand values
    assert terms["Q+"].multiplier((5.0, -3.0)) == 9.0
    assert terms["C+"].multiplier((9.0, -1.0, -2.0)) == 6.0
    # region membership
    assert terms["Q+"].in_region(2.0, (3.0, -1.0))
    assert not terms["Q+"].in_region(2.0, (0.5, 1.5))  # slot 1 not hi
    assert not terms["C+"].in_region(2.0, (1.5, 0.3, 0.2))  # xi_2 + xi_3 > 0


def test_phase_pinned_examples():
    terms = bo_terms()
    # quadratic: omega(2) - omega(5) - omega(-3) = 4 - 25 + 9
    assert phase(terms["Q+"], 2.0, (5.0, -3.0)) == -12.0
    # cubic flips the conjugated slot: 4 - 16 - 9 - 1
    assert phase(terms["C+"], 2.0, (4.0, -3.0, 1.0)) == -22.0
    # the time-integrand phase does not flip: 4 - 16 + 9 - 1
    assert oscillation_phase(terms["C+"], 2.0, (4.0, -3.0, 1.0)) == -4.0
    # they differ by 2 omega(xi_2) on the cubic pieces, agree on the quadratic
    assert phase(terms["C+"], 2.0, (4.0, -3.0, 1.0)) == -4.0 + 2 * omega(-3.0)
    assert oscillation_phase(terms["Q+"], 2.0, (5.0, -3.0)) == -12.0


def test_phase_rejects_bad_tuples():
    terms = bo_terms()
    with pytest.raises(ValueError, match="sum"):
        phase(terms["Q+"], 2.0, (5.0, -2.0))
    with pytest.raises(ValueError, match="slot"):
        phase(terms["C+"], 2.0, (5.0, -3.0))


def test_phase_identity_on_quadratic_region():
    # on xi_1 > xi > 1 (so xi_2 < 0) the quadratic phase is exactly 2 xi xi_2
    terms = bo_terms()
    for k in range(2, 21):
        for k1 in range(k + 1, 41):
            k2 = k - k1
            assert phase(terms["Q+"], float(k), (float(k1), float(k2))) == 2.0 * k * k2


# ---------------------------------------------------------------------------
# parameter bookkeeping


def test_params_pinned_table():
    p = infr_params(0.5, 0.0)
    assert p.gamma_quad == 0.0 and p.gamma_cubic == 0.0 and p.gamma == 0.0
    assert p.beta == 0.5
    assert p.sigma == 0.75
    assert p.theta == pytest.approx(0.25, rel=1e-14)
    assert p.delta == pytest.approx(0.25, rel=1e-14)
    assert p.mu == 0.0
    assert p.feasible and p.message == ""
    assert p.c(1) == pytest.approx(256.0, rel=1e-12)
    assert p.c(2) == pytest.approx(6561.0, rel=1e-12)
    assert p.level_threshold(1) == 1000.0
    assert p.level_threshold(2, 256.0) == pytest.approx(26244.0, rel=1e-12)
    assert infr_params(0.5, 0.0, N_threshold=50.0).level_threshold(1) == 50.0
    # array phases match the scalar calls elementwise
    phi1 = np.array([256.0, -256.0, 3.5, 0.0])
    assert np.array_equal(p.level_threshold(2, phi1),
                          [p.level_threshold(2, v) for v in phi1])
    names = [row[0] for row in p.table()]
    assert "sigma" in names and "quadratic.theta" in names


def test_params_reports_infeasible_instead_of_refusing():
    p = infr_params(0.5, 0.4)
    assert p.gamma_quad == pytest.approx(0.4)
    assert p.gamma_cubic == pytest.approx(0.2)
    assert not p.feasible
    assert "Assumption 1" in p.message
    per = {tp.name: tp for tp in p.per_term}
    assert not per["quadratic"].feasible
    assert per["cubic"].feasible
    assert per["cubic"].theta == pytest.approx(0.05, abs=1e-12)
    with pytest.raises(ArgumentError, match="^s = 0.5 and eps = 0.4 violate "
                                            "Assumption 1") as err:
        p.c(1)
    assert err.value.argument == "s"
    assert p.message == str(err.value)  # one text, printed by `bolab params`
    with pytest.raises(ArgumentError, match="Assumption 1"):
        p.level_threshold(2, 100.0)
    assert p.level_threshold(1) == p.N_threshold


def test_params_domain_errors():
    with pytest.raises(ValueError, match="s must"):
        infr_params(0.0, 0.0)
    with pytest.raises(ValueError, match="eps"):
        infr_params(0.5, -0.1)
    with pytest.raises(ValueError, match="eps"):
        infr_params(0.5, 0.5)
    with pytest.raises(ValueError, match="eps"):
        infr_params(2.0, 0.75)
    infr_params(2.0, 0.74)  # just inside
    with pytest.raises(ValueError, match="N_threshold"):
        infr_params(0.5, 0.0, N_threshold=1.0)


def test_gamma_formulas():
    assert gamma_quadratic(0.5, 0.4) == pytest.approx(0.4)
    assert gamma_cubic(0.5, 0.4) == pytest.approx(0.2)
    assert gamma_cubic(0.3, 0.25) == pytest.approx(max(0.25 - 0.025, -0.25, 0.0))


# ---------------------------------------------------------------------------
# operators vs the band right-hand sides and the brute-force oracle


def test_sigma_zero_matches_band_rhs():
    g = Grid(64, np.pi)
    rng = np.random.default_rng(7)
    V = random_complex_field(g, rng, 28)
    terms = bo_terms()
    for sign in "+-":
        got = apply_T_sigma(terms["Q" + sign], (V, V), 0.0)
        want = rhs_quadratic(V, sign)
        scale = np.abs(want.coeffs).max()
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-12 * scale
        got = apply_T_sigma(terms["C" + sign], (V, V, V), 0.0)
        want = rhs_cubic(V, sign)
        scale = np.abs(want.coeffs).max()
        assert np.abs(got.coeffs - want.coeffs).max() <= 1e-12 * scale


def test_sigma_weight_hand_tuple():
    # single active pair: V(3) = a, V(-1) = b feeds only xi = 2 with Phi = -4
    g = Grid(32, np.pi)
    a, b = 0.4 + 0.2j, 0.1 - 0.3j
    V = field_from_modes(g, {3: a, -1: b})
    out = apply_T_sigma(bo_terms()["Q+"], (V, V), 0.7)
    expected = a * b * 1.0 * (1.0 + 16.0) ** (-0.35) / (2 * np.pi)
    io = g.n // 2 + 2
    assert out.coeffs[io] == pytest.approx(expected, rel=1e-13)
    mask = np.ones(g.n, dtype=bool)
    mask[io] = False
    assert np.abs(out.coeffs[mask]).max() == 0.0


def test_alpha_window_selects_single_tuple():
    g = Grid(32, np.pi)
    a, b = 0.4 + 0.2j, 0.1 - 0.3j
    V = field_from_modes(g, {3: a, -1: b, -2: 0.2j})
    term = bo_terms()["Q+"]
    # tuples: (3,-1) -> xi=2, Phi=-4; (3,-2) -> xi=1 (not hi); nothing else
    hit = apply_T_alpha_M(term, (V, V), alpha=-4.0, M=0.5)
    io = g.n // 2 + 2
    assert hit.coeffs[io] == pytest.approx(a * b / (2 * np.pi), rel=1e-13)
    # huge window == unweighted application
    wide = apply_T_alpha_M(term, (V, V), alpha=0.0, M=1e9)
    plain = apply_T_sigma(term, (V, V), 0.0)
    assert np.abs(wide.coeffs - plain.coeffs).max() <= 1e-15
    # empty window
    empty = apply_T_alpha_M(term, (V, V), alpha=1e6, M=1.0)
    assert np.abs(empty.coeffs).max() == 0.0
    with pytest.raises(ValueError, match="M"):
        apply_T_alpha_M(term, (V, V), alpha=0.0, M=0.0)


def test_alpha_window_is_strict():
    g = Grid(32, np.pi)
    V = field_from_modes(g, {3: 1.0, -1: 1.0})
    term = bo_terms()["Q+"]
    # Phi = -4; |Phi - (-2)| = 2 must NOT pass a window of width 2
    out = apply_T_alpha_M(term, (V, V), alpha=-2.0, M=2.0)
    assert np.abs(out.coeffs).max() == 0.0
    out = apply_T_alpha_M(term, (V, V), alpha=-2.0, M=2.0 + 1e-9)
    assert np.abs(out.coeffs).max() > 0.0


def test_operator_is_multilinear():
    g = Grid(32, np.pi)
    rng = np.random.default_rng(11)
    V1 = random_complex_field(g, rng, 10)
    V2 = random_complex_field(g, rng, 10)
    W = random_complex_field(g, rng, 10)
    term = bo_terms()["Q+"]
    left = apply_T_sigma(term, (V1 + V2, W), 0.75).coeffs
    right = apply_T_sigma(term, (V1, W), 0.75).coeffs + apply_T_sigma(term, (V2, W), 0.75).coeffs
    assert np.abs(left - right).max() <= 1e-13 * max(1.0, np.abs(right).max())
    lam = 0.7 - 0.3j
    scaled = apply_T_sigma(term, (V1, W * lam), 0.75).coeffs
    assert np.abs(scaled - lam * apply_T_sigma(term, (V1, W), 0.75).coeffs).max() <= 1e-13


def test_brute_force_quadratic():
    g = Grid(32, np.pi)
    rng = np.random.default_rng(3)
    terms = bo_terms()
    for trial in range(3):
        V1 = random_complex_field(g, rng, 9)
        V2 = random_complex_field(g, rng, 9)
        for name in ("Q+", "Q-"):
            want = brute_weighted(
                terms[name], (V1, V2), lambda ph: (1.0 + np.asarray(ph) ** 2) ** (-0.375)
            )
            got = apply_T_sigma(terms[name], (V1, V2), 0.75)
            scale = max(np.abs(want).max(), 1e-30)
            assert np.abs(got.coeffs - want).max() <= 1e-12 * scale

            want = brute_weighted(
                terms[name], (V1, V2), lambda ph: float(np.abs(ph - 8.0) < 20.0)
            )
            got = apply_T_alpha_M(terms[name], (V1, V2), 8.0, 20.0)
            scale = max(np.abs(want).max(), 1e-30)
            assert np.abs(got.coeffs - want).max() <= 1e-12 * scale


def test_brute_force_cubic():
    g = Grid(32, np.pi)
    rng = np.random.default_rng(5)
    terms = bo_terms()
    V1 = random_complex_field(g, rng, 8)
    V2 = random_complex_field(g, rng, 8)
    V3 = random_complex_field(g, rng, 8)
    for name in ("C+", "C-"):
        want = brute_weighted(
            terms[name], (V1, V2, V3), lambda ph: (1.0 + np.asarray(ph) ** 2) ** (-0.375)
        )
        got = apply_T_sigma(terms[name], (V1, V2, V3), 0.75)
        scale = max(np.abs(want).max(), 1e-30)
        assert np.abs(got.coeffs - want).max() <= 1e-12 * scale
        want = brute_weighted(
            terms[name], (V1, V2, V3), lambda ph: float(np.abs(ph + 6.0) < 30.0)
        )
        got = apply_T_alpha_M(terms[name], (V1, V2, V3), -6.0, 30.0)
        scale = max(np.abs(want).max(), 1e-30)
        assert np.abs(got.coeffs - want).max() <= 1e-12 * scale


def test_active_mode_cutoff_keeps_a_small_tail():
    # A 1e-12 tail at |k| = 9 sits above the 1e-14 relative cutoff of the
    # enumerated slots, so the outputs it alone reaches must be there too.
    # Each output is compared relative to its own size: a cutoff that drops
    # the tail loses those outputs whole (relative error 1).
    g = Grid(32, np.pi)
    rng = np.random.default_rng(17)
    modes = {k: rng.standard_normal() + 1j * rng.standard_normal()
             for k in (-5, -3, 3, 5)}
    for k in (-9, 9):
        modes[k] = 1e-12 * (rng.standard_normal() + 1j * rng.standard_normal())
    V = field_from_modes(g, modes)
    for name, term in bo_terms().items():
        want = brute_weighted(term, (V,) * term.arity,
                              lambda ph: (1.0 + np.asarray(ph) ** 2) ** (-0.375))
        got = apply_T_sigma(term, V, 0.75).coeffs
        lit = want != 0.0
        assert np.any(lit & (np.abs(want) < 1e-6 * np.abs(want).max())), name
        rel = np.abs(got[lit] - want[lit]) / np.abs(want[lit])
        assert rel.max() <= 1e-12, name


def test_zero_inputs_give_zero():
    g = Grid(32, np.pi)
    zero = SpectralField(g, np.zeros(g.n, dtype=complex))
    for term in bo_terms().values():
        inputs = (zero,) * term.arity
        assert np.abs(apply_T_sigma(term, inputs, 0.75).coeffs).max() == 0.0
        assert np.abs(apply_T_alpha_M(term, inputs, 0.0, 5.0).coeffs).max() == 0.0
        assert len(term_values_on_lattice(term, inputs)) == 0


# ---------------------------------------------------------------------------
# dyadic reconstruction and the resonant split


def test_dyadic_rebuild_is_bitwise():
    g = Grid(64, np.pi)
    rng = np.random.default_rng(17)
    V = random_complex_field(g, rng, 24)
    terms = bo_terms()
    for name in ("Q+", "Q-"):
        d = dyadic_sigma_from_restricted(terms[name], (V, V), 0.75)
        t = apply_T_sigma(terms[name], (V, V), 0.75)
        assert np.array_equal(d.coeffs, t.coeffs)
    g_small = Grid(32, np.pi)
    W = random_complex_field(g_small, rng, 10)
    d = dyadic_sigma_from_restricted(terms["C+"], (W, W, W), 0.6)
    t = apply_T_sigma(terms["C+"], (W, W, W), 0.6)
    assert np.array_equal(d.coeffs, t.coeffs)


def test_term_values_roundtrip():
    g = Grid(32, np.pi)
    rng = np.random.default_rng(23)
    V = random_complex_field(g, rng, 10)
    terms = bo_terms()
    for name in ("Q+", "C-"):
        term = terms[name]
        inputs = (V,) * term.arity
        tv = term_values_on_lattice(term, inputs)
        assert len(tv) > 0
        plain = apply_T_sigma(term, inputs, 0.0)
        scale = np.abs(plain.coeffs).max()
        assert np.abs(tv.field().coeffs - plain.coeffs).max() <= 1e-13 * scale
        # phases recomputed from the stored indices agree with the phase op
        for col in rng.choice(len(tv), size=min(20, len(tv)), replace=False):
            slot_xis = [g.xi[tv.slot_idx[j, col]] for j in range(term.arity)]
            assert tv.phase[col] == pytest.approx(
                phase(term, g.xi[tv.out_idx[col]], slot_xis), abs=1e-12
            )
        # doubled inputs keep the tuples and scale every value multilinearly
        doubled = term_values_on_lattice(
            term, tuple(SpectralField(g, 2.0 * V.coeffs) for _ in range(term.arity)))
        assert np.array_equal(doubled.out_idx, tv.out_idx)
        assert np.array_equal(doubled.slot_idx, tv.slot_idx)
        assert np.allclose(doubled.value, 2.0**term.arity * tv.value, rtol=1e-13, atol=0.0)


# the two input forms: one shared field, or term.arity fields on one grid
@pytest.mark.parametrize("call", ["term_values_on_lattice", "apply_T_sigma"])
@pytest.mark.parametrize("form", ["two grids", "raw array", "1-tuple",
                                  "wrong length"])
def test_lattice_inputs_outside_the_two_forms_raise(form, call):
    rng = np.random.default_rng(37)
    a = random_complex_field(Grid(32, np.pi), rng, 10)
    b = random_complex_field(Grid(32, 4 * np.pi), rng, 10)  # same n, other L
    term = bo_terms()["Q+"]
    inputs = {"two grids": (a, b), "raw array": a.coeffs, "1-tuple": (a,),
              "wrong length": (a, a, a)}[form]
    fn = {"term_values_on_lattice": lambda x: term_values_on_lattice(term, x),
          "apply_T_sigma": lambda x: apply_T_sigma(term, x, 0.5)}[call]
    with pytest.raises(ValueError, match="one grid" if form == "two grids"
                       else "takes one SpectralField"):
        fn(inputs)


def test_lattice_grid_is_compared_by_value():
    rng = np.random.default_rng(43)
    a = random_complex_field(Grid(32, np.pi), rng, 10)
    twin = SpectralField(Grid(32, np.pi), a.coeffs)  # equal grid, new object
    term = bo_terms()["Q+"]
    tv = term_values_on_lattice(term, a)
    assert np.array_equal(term_values_on_lattice(term, (a, twin)).value, tv.value)


def brute_tuples(term, inputs):
    """Rows (out, slot_1, ..., slot_k) of every contributing index tuple.

    The rules of brute_weighted, in the order i1, then i2, then output.
    """
    n = inputs[0].grid.n
    half = n // 2
    xi = inputs[0].grid.xi
    table = [[brute_slot_value(term, inputs, j, i) for i in range(n)]
             for j in range(term.arity)]
    out_ok = [io > 0 and bool(region_mask(np.array([xi[io]]), term.out_region)[0])
              for io in range(n)]
    rows = []
    inner = range(n) if term.arity == 3 else [None]
    for i1 in range(n):
        for i2 in inner:
            for io in range(n):
                if term.arity == 2:
                    slots = (i1, io - i1 + half)
                else:
                    slots = (i1, i2, io - i1 - i2 + n)
                if not (out_ok[io] and 0 <= slots[-1] < n):
                    continue
                if any(table[j][i] == 0.0 for j, i in enumerate(slots)):
                    continue
                if term.arity == 2:
                    m = xi[slots[1]] ** 2
                else:
                    pair = xi[slots[1]] + xi[slots[2]]
                    if not (pair < 0 if term.pair_sign == "-" else pair > 0):
                        continue
                    m = pair * xi[slots[2]]
                if m != 0.0:
                    rows.append((io, *slots))
    return np.array(rows, dtype=int).reshape(-1, term.arity + 1)


def test_enumeration_matches_brute_force_order():
    g = Grid(32, np.pi)
    rng = np.random.default_rng(37)
    for term in bo_terms().values():
        inputs = tuple(random_complex_field(g, rng, 15) for _ in range(term.arity))
        tv = term_values_on_lattice(term, inputs)
        want = brute_tuples(term, inputs)
        assert len(want) > 0
        got = np.vstack([tv.out_idx, tv.slot_idx]).T
        assert np.array_equal(got, want), term.name


def test_field_replays_T_sigma_bitwise():
    g = Grid(64, np.pi)
    rng = np.random.default_rng(41)
    for term in bo_terms().values():
        inputs = tuple(random_complex_field(g, rng, 24) for _ in range(term.arity))
        tv = term_values_on_lattice(term, inputs)
        assert np.array_equal(tv.field().coeffs,
                              apply_T_sigma(term, inputs, 0.0).coeffs), term.name


def test_split_resonant_partition():
    g = Grid(32, np.pi)
    rng = np.random.default_rng(29)
    V = random_complex_field(g, rng, 10)
    term = bo_terms()["Q+"]
    tv = term_values_on_lattice(term, (V, V))
    near, non = split_resonant(tv, 25.0)
    assert len(near) + len(non) == len(tv)
    assert np.all(np.abs(near.phase) < 25.0)
    assert np.all(np.abs(non.phase) >= 25.0)
    # the value arrays are partitioned, not recomputed
    mask = np.abs(tv.phase) < 25.0
    assert np.array_equal(near.value, tv.value[mask])
    assert np.array_equal(non.value, tv.value[~mask])
    whole = tv.field().coeffs
    back = near.field().coeffs + non.field().coeffs
    assert np.abs(back - whole).max() <= 1e-14 * max(1.0, np.abs(whole).max())
    with pytest.raises(ValueError, match="threshold"):
        split_resonant(tv, 0.0)


def test_split_resonant_tie_goes_nonresonant():
    g = Grid(32, np.pi)
    V = field_from_modes(g, {3: 1.0, -1: 0.5})
    tv = term_values_on_lattice(bo_terms()["Q+"], (V, V))
    assert len(tv) == 1 and tv.phase[0] == -4.0
    near, non = split_resonant(tv, 4.0)
    assert len(near) == 0 and len(non) == 1


def test_term_values_cost_guard():
    g = Grid(64, np.pi)
    rng = np.random.default_rng(31)
    V = random_complex_field(g, rng, 30)
    with pytest.raises(ValueError, match="max_tuples"):
        term_values_on_lattice(bo_terms()["C+"], (V, V, V), max_tuples=100)


# ---------------------------------------------------------------------------
# blocks


_WHOLE = 1 << 40  # a budget above every lattice here: one block


def _replays(term, inputs):
    """Every replay of the term: the materialized field and the three
    weighted operators."""
    return {
        "field": term_values_on_lattice(term, inputs).field().coeffs,
        "T_sigma": apply_T_sigma(term, inputs, 0.75).coeffs,
        "T_alpha_M": apply_T_alpha_M(
            term, inputs, -40.0 if term.name.endswith("+") else 40.0, 30.0).coeffs,
        "dyadic": dyadic_sigma_from_restricted(term, inputs, 0.75).coeffs,
    }


def test_running_sum_equals_one_bincount():
    """Blocks added one after another with add_by_output, and one
    add_by_output of the whole on zeros, give the bits of one bincount per
    part in entry order."""
    rng = np.random.default_rng(61)
    n, m = 64, 20_000
    out_idx = rng.integers(1, n, m)
    values = rng.standard_normal(m) * 10.0 ** rng.integers(-8, 8, m) \
        + 1j * rng.standard_normal(m)
    want = np.empty(n, dtype=complex)
    want.real = np.bincount(out_idx, values.real, minlength=n)
    want.imag = np.bincount(out_idx, values.imag, minlength=n)
    acc = np.zeros(n, dtype=complex)
    cuts = np.sort(rng.choice(np.arange(1, m), 40, replace=False))
    for idx, vals in zip(np.split(out_idx, cuts), np.split(values, cuts)):
        add_by_output(acc, idx, vals)
    assert np.array_equal(acc, want)
    whole = np.zeros(n, dtype=complex)
    assert np.array_equal(add_by_output(whole, out_idx, values), want)


@pytest.mark.parametrize("name", ["Q+", "Q-", "C+", "C-"])
def test_blocks_change_no_bit(name, monkeypatch):
    """At a budget of one tuple, of one i1 row and above the total, the
    blocks hold whole consecutive i1 rows within the budget, concatenate to
    the whole lattice, and every replay equals the one-block replay bit for
    bit."""
    g = Grid(64, np.pi)
    rng = np.random.default_rng(53)
    term = bo_terms()[name]
    inputs = tuple(random_complex_field(g, rng, 24) for _ in range(term.arity))
    monkeypatch.setattr(infr, "BLOCK_TUPLES", _WHOLE)
    (whole,) = list(term_blocks(term, inputs))
    want = _replays(term, inputs)
    rows = np.unique(whole.slot_idx[0], return_counts=True)[1]
    assert rows.size > 2
    for budget, count in ((1, rows.size), (int(rows.max()), None),
                          (len(whole) + 1, 1)):
        monkeypatch.setattr(infr, "BLOCK_TUPLES", budget)
        blocks = list(term_blocks(term, inputs))
        assert len(blocks) == count if count else 1 < len(blocks) < rows.size
        i1s = [b.slot_idx[0] for b in blocks]
        assert all(0 < i1.size <= budget or i1.min() == i1.max() for i1 in i1s)
        assert all(a.max() < b.min() for a, b in zip(i1s, i1s[1:]))
        for key in ("out_idx", "slot_idx", "phase", "kernel", "value"):
            got = np.concatenate([getattr(b, key) for b in blocks], axis=-1)
            assert np.array_equal(got, getattr(whole, key)), (budget, key)
        for key, coeffs in _replays(term, inputs).items():
            assert np.array_equal(coeffs, want[key]), (budget, key)


def test_block_size_does_not_round_values(monkeypatch):
    """C+ at n = 128: one block of 196,664 tuples, past the 256 KiB at which
    numpy reuses a temporary operand and swaps a complex product's operand
    order, against one i1 row per block.  Every value has the same bits."""
    g = Grid(128, np.pi)
    rng = np.random.default_rng(7)
    term = bo_terms()["C+"]
    inputs = tuple(random_complex_field(g, rng, 63) for _ in range(3))
    values = []
    for budget in (1, _WHOLE):
        monkeypatch.setattr(infr, "BLOCK_TUPLES", budget)
        values.append(np.concatenate([b.value for b in term_blocks(term, inputs)]))
    assert values[1].size > 1 << 15
    assert np.array_equal(values[0], values[1])


def test_rows_without_tuples_make_no_block(monkeypatch):
    """Inputs whose active i1 rows keep no tuple, or only some of them: no
    block is empty, and an input with no tuple at all has no block, an
    empty materialization and zero replays."""
    monkeypatch.setattr(infr, "BLOCK_TUPLES", 1)
    g = Grid(32, np.pi)
    term = bo_terms()["Q+"]
    # the active i1 = 2 pairs only with -1, into output 1, outside "+hi"
    sparse = field_from_modes(g, {2: 0.7, 3: 1.0, -1: 0.5, 9: 0.1})
    blocks = list(term_blocks(term, sparse))
    assert [b.slot_idx[0].tolist() for b in blocks] == [[19], [25]]
    assert sum(len(b) for b in blocks) == len(term_values_on_lattice(term, sparse))
    # only positive modes: no Q+ tuple has a second slot in "-"
    none = field_from_modes(g, {3: 1.0, 5: 0.5})
    assert list(term_blocks(term, none)) == []
    tv = term_values_on_lattice(term, none)
    assert len(tv) == 0 and tv.slot_idx.shape == (2, 0)
    for coeffs in _replays(term, none).values():
        assert np.all(coeffs == 0.0)


def test_cost_guard_counts_across_blocks(monkeypatch):
    """max_tuples bounds the count over all blocks: at one row per block it
    lets the first block through and raises, with its message, in the
    iteration that passes the bound."""
    monkeypatch.setattr(infr, "BLOCK_TUPLES", 1)
    g = Grid(32, np.pi)
    rng = np.random.default_rng(59)
    term = bo_terms()["C+"]
    V = random_complex_field(g, rng, 10)
    sizes = [len(b) for b in term_blocks(term, V)]
    assert len(sizes) > 3
    cap = sizes[0] + sizes[1]
    blocks = term_blocks(term, V, max_tuples=cap)
    assert len(next(blocks)) == sizes[0]
    with pytest.raises(ValueError, match=rf"^term lattice too large: more than "
                       rf"{cap} active tuples for C\+; raise max_tuples or "
                       rf"restrict the inputs$"):
        next(blocks)
    with pytest.raises(ValueError, match=f"more than {cap} active tuples"):
        term_values_on_lattice(term, V, max_tuples=cap)
    # a bound equal to the total count is not exceeded
    assert len(term_values_on_lattice(term, V, max_tuples=sum(sizes))) == sum(sizes)
