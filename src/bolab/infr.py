"""Phase-weighted multilinear operators and normal-form parameter bookkeeping.

The gauged high-band evolution is driven by four paraproduct pieces, two
quadratic and two cubic (see :mod:`bolab.gauge`).  Written out on the
frequency lattice, each piece is a sum over tuples (xi_1, ..., xi_k) with
xi_1 + ... + xi_k = xi, and each tuple carries a resonance function built
from the dispersion omega(xi) = |xi| xi.  This module exposes that lattice
structure directly:

* ``bo_terms`` describes the four pieces (arity, conjugation pattern,
  frequency regions, multiplier) in normalized form -- the evolution
  equation couples each piece with an overall factor 2i, which is *not*
  included here.
* ``term_blocks`` enumerates the individual lattice tuples of one term
  application (indices, phases, kernels, values) as blocks of consecutive
  i1 values, each capped by the tuple budget ``BLOCK_TUPLES``; it is the
  only place that enumerates tuples.  The cubic tuple count grows about 8x
  per doubling of n, so a caller that sums over the tuples consumes the
  blocks as they come and never holds a whole cubic lattice.
  ``term_values_on_lattice`` concatenates the blocks for the callers that
  need every tuple at once, and ``split_resonant`` partitions them by a
  threshold on |Phi|.  ``phase`` is the resonance function in the
  parameterization of the frequency-restricted operator estimates: the sign
  of omega is flipped on conjugated slots.  The phase of the time integrand
  belongs to :mod:`bolab.nfe`.
* ``apply_T_sigma``, ``apply_T_alpha_M`` and ``dyadic_sigma_from_restricted``
  apply a term with a weight on the resonance function: <Phi>^{-sigma}, the
  window indicator |Phi - alpha| < M, and the dyadic-shell reconstruction of
  the sigma weight.  Each replays the blocks one at a time,
  ``TermValues.add_to(acc, weight(phase))``, into one running output.
  ``_replay`` takes a sequence of weights, so a caller that needs many
  weights on the same inputs enumerates once and replays every block per
  weight.  sigma = 0 reproduces the plain right-hand-side pieces.
* ``infr_params`` fixes the exponent bookkeeping (gamma, beta, sigma, theta,
  delta, the thresholds c_j) for the normal-form iteration at a given
  regularity (s, eps).

Every operator takes one ``SpectralField``, shared by every slot, or a
sequence of ``term.arity`` fields on one grid; anything else raises
ValueError.  No tuple cap applies unless the caller passes ``max_tuples``
to ``term_blocks`` or ``term_values_on_lattice``.

All operators sum the lattice directly (no FFT), with modes below
1e-14 x max|coefficient| dropped per slot (except the last, which the
output fixes).  Results are deterministic: each output frequency sums its
tuples in enumeration order (i1, then i2, then output index), which
``term_blocks`` fixes.  ``add_by_output`` adds a block into a running
output in that order, so the sum over the blocks, block after block, equals
one sum over the whole lattice bit for bit, whatever the budget.  Every
per-tuple quantity is computed element by element, by operations that round
one element of a block as they round it in the whole lattice.
"""

import itertools
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .spectral import (ArgumentError, SpectralField, conj_reflect, dispersion,
                       region_mask)

COUPLING = 2j  # factor multiplying every term in the evolution equation

_TRUNC = 1e-14  # relative active-mode cutoff per slot


@dataclass(frozen=True)
class NonlinearTerm:
    """One multilinear lattice piece of the gauged evolution.

    ``conj`` marks slots whose value is conj(V_hat(-xi_j)) rather than
    V_hat(xi_j); ``slot_regions`` restrict individual slot frequencies,
    ``pair_sign`` (cubic only) the sign of xi_2 + xi_3.
    """

    name: str
    arity: int
    conj: tuple
    out_region: str
    slot_regions: tuple
    pair_sign: str = ""

    def multiplier(self, slot_xis):
        """m(Xi): xi_2^2 for the quadratic pieces, (xi_2 + xi_3) xi_3 cubic."""
        if self.arity == 2:
            xi2 = slot_xis[1]
            return xi2 * xi2
        xi2, xi3 = slot_xis[1], slot_xis[2]
        return (xi2 + xi3) * xi3

    def phase_signs(self):
        return tuple(-1.0 if c else 1.0 for c in self.conj)

    def in_region(self, out_xi, slot_xis):
        """Boolean indicator of the term's frequency constraints."""
        ok = region_mask(np.asarray(out_xi, dtype=float), self.out_region)
        for reg, x in zip(self.slot_regions, slot_xis):
            if reg is not None:
                ok = ok & region_mask(np.asarray(x, dtype=float), reg)
        if self.pair_sign:
            pair = np.asarray(slot_xis[1], dtype=float) + slot_xis[2]
            ok = ok & (pair < 0 if self.pair_sign == "-" else pair > 0)
        return ok


def bo_terms():
    """The four normalized high-band pieces keyed by name.

    Q+ collects tuples xi = xi_1 + xi_2 with xi > 1, xi_1 > 1, xi_2 < 0 and
    multiplier xi_2^2; C+ collects xi = xi_1 + xi_2 + xi_3 with xi > 1,
    xi_1 > 1, xi_2 + xi_3 < 0, multiplier (xi_2 + xi_3) xi_3, and the second
    slot conjugated.  Q-/C- are the sign mirrors.  The evolution right-hand
    side on the high bands is 2i (Q_pm + C_pm) plus a mean-product correction
    (see gauge.rhs_exact_coeffs).
    """
    return {
        "Q+": NonlinearTerm("Q+", 2, (False, False), "+hi", ("+hi", "-")),
        "Q-": NonlinearTerm("Q-", 2, (False, False), "-hi", ("-hi", "+")),
        "C+": NonlinearTerm("C+", 3, (False, True, False), "+hi", ("+hi", None, None), "-"),
        "C-": NonlinearTerm("C-", 3, (False, True, False), "-hi", ("-hi", None, None), "+"),
    }


# ---------------------------------------------------------------------------
# parameter bookkeeping


BETA = 0.5


def gamma_quadratic(s, eps):
    return max(0.5 + eps - s, 0.0)


def gamma_cubic(s, eps):
    return max(0.25 + 0.5 * (eps - s), eps - 0.5, 0.0)


@dataclass(frozen=True)
class TermParams:
    name: str
    gamma: float
    theta: float
    feasible: bool


@dataclass(frozen=True)
class InfrParams:
    """Exponent bookkeeping for the normal-form iteration.

    theta = 1 - max{gamma + beta, sigma + gamma} must be positive for the
    iteration gains; delta in (0, theta/beta) is fixed at the midpoint
    theta/(2 beta); the level thresholds are N at level 1 and
    c_j |Phi_1|^delta afterwards with c_j = (j+1)^{2/theta}.  ``mu`` is the
    weight exponent of the time-derivative bound and is 0 for this system
    (the band time derivatives are uniformly bounded; see
    gauge.profile_time_derivative_sup).

    When no admissible sigma exists the instance is still constructed with
    ``feasible = False`` and the per-term table filled, so callers can see
    which pieces keep a positive theta; the threshold accessors past level
    1 raise an ArgumentError naming ``s``, whose text is ``message``.
    """

    s: float
    eps: float
    gamma_quad: float
    gamma_cubic: float
    gamma: float
    beta: float
    sigma: float
    theta: float
    delta: float
    N_threshold: float
    feasible: bool
    mu: float = 0.0
    per_term: tuple = dataclass_field(default=())

    def c(self, j):
        """Nonresonance threshold coefficient c_j = (j+1)^(2/theta), j >= 1.

        Infeasible parameters have no c_j: an ArgumentError naming ``s``."""
        if not self.feasible:
            raise self._violation()
        if j < 1:
            raise ValueError(f"level index must be >= 1, got {j}")
        return float(j + 1) ** (2.0 / self.theta)

    def _violation(self):
        return ArgumentError(
            "s", f"= {self.s} and eps = {self.eps} violate Assumption 1: "
            f"theta = {self.theta:.4g} <= 0 at sigma = {self.sigma}")

    @property
    def message(self):
        """Why the parameters are infeasible, "" when they are feasible."""
        return "" if self.feasible else str(self._violation())

    def level_threshold(self, j, phi1=None):
        """Splitting threshold at level j: N at level 1, c_j |Phi_1|^delta after.

        ``phi1`` is the level-1 phase of the branch (a number or an array;
        required for j >= 2).
        """
        if j == 1:
            return float(self.N_threshold)
        if phi1 is None:
            raise ValueError("levels >= 2 need the level-1 phase of the branch")
        return self.c(j) * np.abs(phi1) ** self.delta

    def table(self):
        """Rows of (name, value) pairs for report printing."""
        rows = [
            ("s", self.s), ("eps", self.eps),
            ("gamma_quad", self.gamma_quad), ("gamma_cubic", self.gamma_cubic),
            ("gamma", self.gamma), ("beta", self.beta), ("sigma", self.sigma),
            ("theta", self.theta), ("delta", self.delta), ("mu", self.mu),
            ("N_threshold", self.N_threshold), ("feasible", self.feasible),
        ]
        if self.feasible:
            rows += [("c_1", self.c(1)), ("c_2", self.c(2))]
        for tp in self.per_term:
            rows += [
                (f"{tp.name}.gamma", tp.gamma),
                (f"{tp.name}.theta", tp.theta),
                (f"{tp.name}.feasible", tp.feasible),
            ]
        return rows


def infr_params(s, eps, N_threshold=1000.0):
    """Fix the iteration exponents at regularity (s, eps).

    gamma_quad = max{1/2 + eps - s, 0}, gamma_cubic = max{1/4 + (eps - s)/2,
    eps - 1/2, 0}, beta = 1/2.  sigma sits at the midpoint of the admissible
    window (gamma + beta, 1 - gamma), which works out to (1 + beta)/2 = 3/4
    independent of gamma.

    Requires s > 0, 0 <= eps < min{s, 3/4} and N_threshold > 1, else an
    ArgumentError names the argument.  If theta ends up nonpositive the
    result is reported infeasible rather than rejected (the per-term table
    shows which pieces survive); the threshold accessors past level 1 then
    raise an ArgumentError naming ``s``.
    """
    if not s > 0:
        raise ArgumentError("s", f"must be positive, got {s}")
    if not eps >= 0:
        raise ArgumentError("eps", f"must be nonnegative, got {eps}")
    if eps >= min(s, 0.75):
        raise ArgumentError(
            "eps", f"must satisfy eps < min(s, 3/4); got eps={eps}, s={s}")
    if not N_threshold > 1:
        raise ArgumentError("N_threshold", f"must exceed 1, got {N_threshold}")

    gq = gamma_quadratic(s, eps)
    gc = gamma_cubic(s, eps)
    gamma = max(gq, gc)
    sigma = gamma + BETA + 0.5 * (1.0 - 2.0 * gamma - BETA)  # = (1 + beta)/2

    def _theta(g):
        return 1.0 - max(g + BETA, sigma + g)

    theta = _theta(gamma)
    feasible = theta > 0
    delta = 0.5 * theta / BETA if feasible else 0.0

    per_term = []
    for name, g in (("quadratic", gq), ("cubic", gc)):
        th = _theta(g)
        per_term.append(TermParams(name, g, th, th > 0))

    return InfrParams(
        s=float(s), eps=float(eps), gamma_quad=gq, gamma_cubic=gc, gamma=gamma,
        beta=BETA, sigma=sigma, theta=theta, delta=delta,
        N_threshold=float(N_threshold), feasible=feasible,
        per_term=tuple(per_term),
    )


# ---------------------------------------------------------------------------
# lattice summation core


def _slot_fields(term, inputs):
    """The field of each slot: one SpectralField shared by every slot, or a
    sequence of ``term.arity`` fields; all on one grid."""
    if isinstance(inputs, SpectralField):
        inputs = (inputs,) * term.arity
    fields = tuple(inputs)
    if len(fields) != term.arity or not all(isinstance(f, SpectralField) for f in fields):
        raise ValueError(
            f"{term.name} takes one SpectralField or a sequence of "
            f"{term.arity}, got a {type(inputs).__name__} of length {len(fields)}")
    grid = fields[0].grid
    if any(f.grid != grid for f in fields):
        raise ValueError(f"{term.name} takes fields on one grid, {grid!r}")
    return fields


def _slot_values(term, inputs):
    """The grid of ``inputs`` (see ``_slot_fields``), and value arrays
    indexed by each slot's convolution frequency.

    Conjugated slots hold conj(c[-xi]) (zero at the unpaired end mode);
    slot-region masks are applied here.
    """
    fields = _slot_fields(term, inputs)
    out = []
    for j, f in enumerate(fields):
        c = f.coeffs
        if term.conj[j]:
            c = conj_reflect(c)
        reg = term.slot_regions[j]
        if reg is not None:
            c = c * region_mask(f.grid.xi, reg)
        out.append(c)
    return fields[0].grid, out


def _active(values):
    m = np.abs(values)
    top = m.max()
    if top == 0.0:
        return np.empty(0, dtype=int)
    return np.nonzero(m > _TRUNC * top)[0]


def window_indicator(ph, alpha, M):
    """Weight of T^{alpha,M}: 1 where |Phi - alpha| < M (strict), else 0."""
    if M <= 0:
        raise ValueError(f"window width M must be positive, got {M}")
    return (np.abs(ph - float(alpha)) < float(M)).astype(float)


def _replay(term, inputs, weights):
    """One field per weight of ``weights``: the sum of value x
    ``weight(block)`` per output over the term's blocks.  The tuples are
    enumerated once, and each block is replayed per weight into that
    weight's running output."""
    fields = _slot_fields(term, inputs)
    grid = fields[0].grid
    accs = [np.zeros(grid.n, dtype=complex) for _ in weights]
    for tv in term_blocks(term, fields):
        for acc, weight in zip(accs, weights):
            tv.add_to(acc, weight(tv))
    return [SpectralField(grid, acc) for acc in accs]


def _sigma_weight(phase, sigma):
    return (1.0 + phase * phase) ** (-0.5 * sigma)


def apply_T_sigma(term, inputs, sigma):
    """Apply the term with the phase weight <Phi>^(-sigma).

    sigma = 0 gives weight exactly 1 and reproduces the plain band piece
    (gauge.rhs_quadratic / gauge.rhs_cubic).
    """
    sigma = float(sigma)
    (out,) = _replay(term, inputs,
                     [lambda tv: _sigma_weight(tv.phase, sigma)])
    return out


def apply_T_alpha_M(term, inputs, alpha, M):
    """Apply the term restricted to the phase window |Phi - alpha| < M (strict)."""
    window_indicator(np.empty(0), alpha, M)  # refuses M <= 0 before any work
    (out,) = _replay(term, inputs,
                     [lambda tv: window_indicator(tv.phase, alpha, M)])
    return out


def _shell_index(abs_ph):
    """Dyadic shell of |Phi|: 0 for |Phi| <= 1, r for 2^(r-1) < |Phi| <= 2^r."""
    r = np.zeros(abs_ph.shape, dtype=int)
    pos = abs_ph > 1.0
    r[pos] = np.ceil(np.log2(abs_ph[pos])).astype(int)
    return r


def dyadic_sigma_from_restricted(term, inputs, sigma):
    """Rebuild T_sigma from its dyadic phase-shell restrictions.

    The shells S_0 = {|Phi| <= 1}, S_r = {2^(r-1) < |Phi| <= 2^r} partition
    the lattice phases, so summing the shell-restricted weighted pieces
    recovers apply_T_sigma exactly: per tuple, exactly one shell indicator
    is nonzero and the weight values are computed by the same expression,
    so the accumulated sums agree bit for bit.
    """
    sigma = float(sigma)

    def weight(tv):
        base = _sigma_weight(tv.phase, sigma)
        r = _shell_index(np.abs(tv.phase))
        total = np.zeros_like(base)
        for shell in range(int(r.max(initial=0)) + 1):
            total = total + np.where(r == shell, base, 0.0)
        return total

    (out,) = _replay(term, inputs, [weight])
    return out


# ---------------------------------------------------------------------------
# materialized tuples


def add_by_output(acc, out_idx, values):
    """Add complex ``values`` into ``acc`` at their output indices, each
    output in the order given; returns ``acc``.

    A running sum: adding consecutive blocks of one tuple sequence, block
    after block, equals one sum over the whole sequence bit for bit.
    """
    np.add.at(acc, out_idx, values)
    return acc


@dataclass
class TermValues:
    """Flattened lattice tuples of one term application, or of one block
    of them.

    Arrays over tuples: ``out_idx`` (output lattice index), ``slot_idx``
    (arity x m, slot convolution-frequency indices), ``phase`` (the
    resonance function, sign of omega flipped on conjugated slots),
    ``kernel`` (multiplier x convolution measure, no slot values) and
    ``value`` (kernel x slot values).
    """

    term: NonlinearTerm
    grid: object
    out_idx: np.ndarray
    slot_idx: np.ndarray
    phase: np.ndarray
    kernel: np.ndarray
    value: np.ndarray

    def __len__(self):
        return self.out_idx.shape[0]

    def add_to(self, acc, weight=None):
        """Add value (x ``weight`` per tuple) into the length-n array
        ``acc``, each output in tuple order."""
        v = self.value if weight is None else self.value * weight
        add_by_output(acc, self.out_idx, v)

    def field(self, weight=None):
        """Accumulate value (x ``weight`` per tuple) into a spectral field,
        each output in tuple order."""
        acc = np.zeros(self.grid.n, dtype=complex)
        self.add_to(acc, weight)
        return SpectralField(self.grid, acc)

    def restrict(self, mask):
        mask = np.asarray(mask)
        return TermValues(
            self.term, self.grid, self.out_idx[mask], self.slot_idx[:, mask],
            self.phase[mask], self.kernel[mask], self.value[mask],
        )


# Tuple budget of one block of term_blocks.  A block holds whole i1 rows,
# so one row larger than the budget is a block of its own.
BLOCK_TUPLES = 1 << 14


def _index_blocks(term, grid, vals, max_tuples):
    """Index rows (output, slot 1, ..., slot k) of the kept tuples, one
    (k + 1, m) array per block of consecutive i1 values.  Empty blocks are
    never yielded.  The running tuple count is checked against
    ``max_tuples`` after every i1 value."""
    n, k = grid.n, term.arity
    xi = grid.xi
    io = np.arange(n)
    # inner slots 2..k-1 (none when k = 2): rows of active index combinations
    combos = list(itertools.product(*map(_active, vals[1:-1])))
    inner = np.array(combos, dtype=int).reshape(len(combos), k - 2)
    inner_xis = [xi[col][:, None] for col in inner.T]
    # xi_k = xi - xi_1 - ... - xi_{k-1}, with index i - half <-> xi_i
    offset = (k - 1) * (n // 2) - inner.sum(axis=1)[:, None]
    rows, size, count = [], 0, 0
    for i1 in _active(vals[0]):
        last = io + (offset - i1)
        inside = (last >= 0) & (last < n)
        last = np.where(inside, last, 0)
        slot_xis = [xi[i1], *inner_xis, xi[last]]
        keep = (inside & (io > 0) & term.in_region(xi, slot_xis)
                & (term.multiplier(slot_xis) != 0.0)
                & (np.abs(vals[-1][last]) > 0.0))
        r, c = np.nonzero(keep)
        count += r.size
        if max_tuples is not None and count > max_tuples:
            raise ValueError(
                f"term lattice too large: more than {max_tuples} active tuples "
                f"for {term.name}; raise max_tuples or restrict the inputs"
            )
        if not r.size:
            continue
        if rows and size + r.size > BLOCK_TUPLES:
            yield np.concatenate(rows, axis=1)
            rows, size = [], 0
        rows.append(np.vstack([c, np.full(r.size, i1), inner[r].T, last[r, c]]))
        size += r.size
    if rows:
        yield np.concatenate(rows, axis=1)


def _tuples(term, grid, vals, idx):
    """The TermValues of the index rows ``idx`` of ``_index_blocks``."""
    out_idx, slot_idx = idx[0], idx[1:]
    xi = grid.xi
    om = dispersion(xi)
    ph = om[out_idx]
    for s, col in zip(term.phase_signs(), slot_idx):
        ph = ph - s * om[col]
    kernel = (term.multiplier([xi[col] for col in slot_idx])
              * (grid.dxi / (2.0 * np.pi)) ** (term.arity - 1))
    # np.multiply, out of place: numpy rounds an in-place complex product of
    # one element unlike the same element of a longer array, and evaluates
    # ``value * v[col]`` on a large temporary with the operands swapped;
    # either would make the bits depend on the block size
    value = kernel.astype(complex)
    for v, col in zip(vals, slot_idx):
        value = np.multiply(value, v[col])
    return TermValues(term, grid, out_idx, slot_idx, ph, kernel, value)


def term_blocks(term, inputs, max_tuples=None):
    """The active lattice tuples of one term application, as an iterator
    of TermValues blocks.

    The one enumeration of the module: every operator replays its blocks.
    Slots 1..k-1 run over their active modes (1e-14 relative cutoff per
    slot) and the last slot is fixed by the output frequency.  Tuples
    outside ``term.in_region``, with zero multiplier, a zero last slot or
    an output on the end mode are dropped.  Tuples come in the order i1,
    then i2, then output index; each block holds the tuples of consecutive
    i1 values, at most ``BLOCK_TUPLES`` of them unless one i1 value alone
    has more, and no block is empty.  ``inputs`` is one SpectralField or
    ``term.arity`` fields on one grid, checked before the first block.  A
    number ``max_tuples`` is a cost guard on the count across all blocks:
    more kept tuples raise ValueError when the iteration reaches them.
    None, the default, enumerates every tuple.
    """
    grid, vals = _slot_values(term, inputs)
    return (_tuples(term, grid, vals, idx)
            for idx in _index_blocks(term, grid, vals, max_tuples))


def term_values_on_lattice(term, inputs, max_tuples=None):
    """Materialize the active lattice tuples of one term application: the
    blocks of :func:`term_blocks` (same ``inputs`` and ``max_tuples``) as
    one TermValues.

    ``field()`` sums them in enumeration order and equals
    ``apply_T_sigma(term, inputs, 0)`` bit for bit.  Every tuple is held
    at once, so a caller that only sums over the tuples replays the blocks
    instead.
    """
    grid, vals = _slot_values(term, inputs)
    idx = np.concatenate(
        [np.empty((term.arity + 1, 0), dtype=int),
         *_index_blocks(term, grid, vals, max_tuples)], axis=1)
    return _tuples(term, grid, vals, idx)


def split_resonant(term_values, threshold):
    """Partition tuples by the phase indicator: (near, non).

    near holds |Phi| < threshold strictly, non the rest (ties are
    nonresonant, which keeps 1/Phi bounded on that side).  The two parts
    carry disjoint slices of the same value arrays, so the partition is
    exact at the tuple level.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    near = np.abs(term_values.phase) < threshold
    return term_values.restrict(near), term_values.restrict(~near)
