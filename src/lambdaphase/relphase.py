"""Relative phase between the field modes and the atomic dipoles.

Dressing the atomic ladder operators with the matching mode operator
(annihilation for raising, creation for lowering) produces operators that
close a polynomially deformed algebra instead of su(3).  Their polar
decomposition, taken inside one invariant block, gives a unitary
relative-phase exponential with the same three-point spectrum as the bare
atomic one, {0, +pi/2, -pi/2}, and eigenstates built from the block
members.  This module holds those eigenstates, the phase distributions
of an evolved state over a time grid, and brute-force verifications of
the deformed algebra on a truncated product space.

Labels for the 1<->2 pair are defined analogously even though that
transition is dynamically forbidden; its "0" outcome is the upper-level
population, which makes it the natural witness for coherent population
trapping.

Label convention, shared with :mod:`.algebra`: the "+" eigenstate is
(upper - i partner)/sqrt(2), on which the phase exponential has
eigenvalue exp(+i pi/2).

Edge convention: in a block with a missing member, the eigenstates keep
only the entries of the members that exist, without renormalizing.  A
lone surviving partner then contributes half of its weight to each of
the "+" and "-" outcomes, which keeps the three outcomes complete in
every block.  The padded state representation of :mod:`.dynamics` gives
this for free: the missing member's slot holds zero amplitude.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .algebra import (ALL_TRANSITIONS, POLAR_TRANSITIONS, phase_eigensystem,
                      phase_exponential, verify_polar_identity)
from .dynamics import BlockDiagonalPropagator, SystemParams, block_members


# Relative-phase eigenstates of a full block in level order, one column per
# (transition, label): "0", "+", "-" of 13, then of 23, then of 12.  In the
# basis of the block members they are the bare atomic eigenvectors.
PHASE_VECTORS = np.hstack([phase_eigensystem(t).eigenvectors for t in ALL_TRANSITIONS])


def rel_phase_eigenstates(transition: str, index) -> np.ndarray:
    """Relative-phase eigenstates of one transition in every block.

    Returns shape (B, 3, 3): ``states[b, :, k]`` is the eigenstate with
    label ("0", "+", "-")[k] in block ``index[b]``, in level order.  These
    are the transition's columns of :data:`PHASE_VECTORS` with the entries
    of missing members set to zero, without renormalizing (see the module
    docstring); in a full block they are orthonormal and complete.
    """
    vectors = phase_eigensystem(transition).eigenvectors
    n_a, n_b = block_members(index)
    present = (n_a >= 0) & (n_b >= 0)
    return present[:, :, None] * vectors


@dataclass(frozen=True)
class PhaseDistribution:
    """The three relative-phase probabilities of one transition."""

    transition: str
    p0: float
    p_plus: float
    p_minus: float

    @property
    def total(self) -> float:
        return self.p0 + self.p_plus + self.p_minus


def marginal_distribution(index, amplitudes: np.ndarray,
                          transition: str) -> PhaseDistribution:
    """Relative-phase distribution of a block state, by direct projection.

    ``index`` and ``amplitudes`` are a padded block state as returned by
    :meth:`BlockDiagonalPropagator.amplitudes_at` (with the propagator's
    ``index``).  Outcome probabilities are the squared overlaps
    |<state_label | psi_b>|^2 summed over the blocks b.  This is the
    cross-check of :func:`time_series`, which reduces the same state
    through the block-summed matrix R instead.
    """
    states = rel_phase_eigenstates(transition, index)
    overlaps = np.einsum("bik,bi->bk", states.conj(), amplitudes)
    p0, p_plus, p_minus = np.sum(np.abs(overlaps) ** 2, axis=0)
    return PhaseDistribution(str(transition), float(p0), float(p_plus), float(p_minus))


# Column names of the quantities produced per time sample.
SERIES_KEYS = ("p13_0", "p13_p", "p13_m", "p23_0", "p23_p", "p23_m",
               "p12_0", "p12_p", "p12_m", "pop1", "pop2", "pop3", "norm")

# Samples per segment of a uniform grid: each segment starts from an exact
# eigenphase twist and steps the samples after it by one fixed factor.
SEGMENT = 64

# Largest distance, in ulp of the grid's largest |t|, between a sample and
# its nominal position t_0 + k dt on a grid taken as uniform.
UNIFORM_ULPS = 4

# Largest number of blocks in one dot product of :func:`block_sums`.
# OpenBLAS splits a dot product over its threads above 10000 elements, at
# points that depend on the thread count, which would make the bytes of a
# run depend on it; chunks this short stay on one thread and are summed in
# a fixed order.  It also bounds a batch of :func:`time_series` to about
# REDUCE_CHUNK block-samples.
REDUCE_CHUNK = 8192

# Phase vectors, then the three level unit vectors: <v|R|v> over these
# columns gives the nine phase probabilities and the three populations.
_READOUT = np.hstack([PHASE_VECTORS, np.eye(3)])


def grid_segments(times: np.ndarray) -> tuple[float, list[tuple[int, int]]]:
    """Step and [start, stop) sample ranges of the segments of a time grid.

    A grid is uniform when every t_k lies within UNIFORM_ULPS ulp (of the
    largest |t|) of t_0 + k dt, with dt = (t_last - t_0) / (n - 1); it is
    cut into runs of SEGMENT samples.  On any other grid every sample is
    a segment of its own and the step is 0.
    """
    n = len(times)
    if n > 1:
        dt = (times[-1] - times[0]) / (n - 1)
        nominal = times[0] + dt * np.arange(n)
        spacing = np.spacing(np.max(np.abs(times)))
        if np.all(np.abs(times - nominal) <= UNIFORM_ULPS * spacing):
            return float(dt), [(s, min(s + SEGMENT, n)) for s in range(0, n, SEGMENT)]
    return 0.0, [(k, k + 1) for k in range(n)]


def block_sums(levels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """R_s = sum_b a_b a_b^dagger of a batch of level-major amplitudes (S, 3, B).

    Writes the (S, 3, 3) matrices R_s[i, j] = sum_b a_sib conj(a_sjb) into
    ``out``, summed over chunks of REDUCE_CHUNK blocks in block order: one
    ``vecdot`` per chunk for the whole batch.  Each R_s is bitwise the same
    whatever S is.  Returns ``out``.
    """
    for start in range(0, levels.shape[2], REDUCE_CHUNK):
        chunk = levels[:, :, start:start + REDUCE_CHUNK]
        if start == 0:
            np.vecdot(chunk[:, None], chunk[:, :, None], out=out)
        else:
            out += np.vecdot(chunk[:, None], chunk[:, :, None])
    return out


def series_rows(r: np.ndarray) -> np.ndarray:
    """The 13 output columns of a stack of block-summed matrices R, shape (T, 13)."""
    rows = np.empty((len(r), len(SERIES_KEYS)))
    rows[:, :12] = np.einsum("ik,tij,jk->tk", _READOUT.conj(), r, _READOUT).real
    rows[:, 12] = rows[:, 9] + rows[:, 10] + rows[:, 11]
    return rows


def time_series(params: SystemParams, times: np.ndarray) -> dict[str, np.ndarray]:
    """Phase distributions and populations of all three transitions over a grid.

    This is the production path: every block is eigendecomposed once, and
    each time sample costs one eigenphase twist and one real 3x3
    contraction per block (:meth:`BlockDiagonalPropagator.amplitudes_at`).
    All 13 columns are linear in the block-summed matrix
    R = sum_b a_b a_b^dagger of the member amplitudes a_b: each phase
    probability is <phi|R|phi> for a column phi of :data:`PHASE_VECTORS`,
    the populations are diag R and the norm is tr R.

    The grid is walked in the segments of :func:`grid_segments`.  Each
    segment starts from the exact twist exp(-i w t_s) coeff0 and, on a
    uniform grid, multiplies it by exp(-i w dt) for each later sample, so
    the complex exponential runs once per segment instead of once per
    sample.  A segment's samples go through a reused buffer in batches of
    S = min(SEGMENT, max(1, REDUCE_CHUNK // B)) samples for B blocks;
    :func:`block_sums` reduces each batch at once, and the rows of a
    segment come from one reduction over its R matrices.  The bytes do
    not depend on S.

    Returns a dict with key "t" (the input grid) plus one array per entry
    of ``SERIES_KEYS``.  Raises ValueError for a grid with a non-finite
    time.
    """
    times = np.asarray(times, dtype=float)
    bad = np.flatnonzero(~np.isfinite(times))
    if len(bad):
        raise ValueError(f"times must be finite, got {times[bad[0]]} at "
                         f"position {bad[0]}")
    prop = BlockDiagonalPropagator(params)
    dt, segments = grid_segments(times)
    step = prop.phases(dt) if len(segments) < len(times) else None
    blocks = prop.coeff0.shape[1]
    batch = min(SEGMENT, max(1, REDUCE_CHUNK // blocks))
    levels = np.empty((batch, 3, blocks), dtype=complex)
    r = np.empty((SEGMENT, 3, 3), dtype=complex)
    rows = np.empty((len(times), len(SERIES_KEYS)))
    for start, stop in segments:
        twisted = None  # drop the last segment's twist before the next is formed
        twisted = prop.twist(times[start])
        for first in range(start, stop, batch):
            last = min(first + batch, stop)
            for k in range(first, last):
                if k > start:
                    twisted *= step
                prop.amplitudes_at(times[k], twisted, out=levels[k - first])
            block_sums(levels[:last - first], r[first - start:last - start])
        rows[start:stop] = series_rows(r[:stop - start])

    out = {"t": times.copy()}
    out.update(zip(SERIES_KEYS, rows.T))
    return out


def trapping_config(phi: float, nbar: float, g: float = 1.0,
                    epsilon: float = 1e-10) -> SystemParams:
    """Parameters preparing a lower-level superposition against equal fields.

    The atom starts in (|1> + e^{i phi} |2>)/sqrt(2) with both modes in
    coherent states of mean photon number ``nbar``, equal couplings and
    zero detunings.  With zero-phase fields the superposition decouples
    from the dynamics exactly when phi = +-pi; any other phi gives a
    control case that does absorb.
    """
    c = (1.0 / math.sqrt(2.0), np.exp(1j * phi) / math.sqrt(2.0), 0.0)
    return SystemParams(g_a=g, g_b=g, nbar_a=nbar, nbar_b=nbar, c=c,
                        delta_a=0.0, delta_b=0.0, epsilon=epsilon)


# ---------------------------------------------------------------------------
# Brute-force verification of the deformed algebra on a truncated space.
# The space, basis order and dressed ladder operators are those of
# :mod:`.oracle`, unrelated to the block machinery above; these operators
# exist only to check operator identities and are desk-scale by design.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeformedGenerators:
    """Mode-dressed ladder operators on a truncated atom x Fock x Fock space.

    ``raise_13`` is (mode-a annihilation) x (atomic 1->3 raising) and so
    on; ``raise_12`` is the cross operator (a annihilation, b creation)
    times atomic 1->2 raising.  ``exc_a``/``exc_b`` are the conserved
    excitation-number operators.  ``cutoff`` is the highest Fock state
    kept in each mode.
    """

    cutoff: int
    dim: int
    raise_13: np.ndarray
    lower_13: np.ndarray
    raise_23: np.ndarray
    lower_23: np.ndarray
    raise_12: np.ndarray
    lower_12: np.ndarray
    exc_a: np.ndarray
    exc_b: np.ndarray
    proj: tuple[np.ndarray, np.ndarray, np.ndarray]


def _deformed_basis(cutoff: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    return oracle.basis_states(cutoff, cutoff)


def deformed_generators(cutoff: int) -> DeformedGenerators:
    """Build the dressed generators with Fock spaces truncated at ``cutoff``."""
    level = _deformed_basis(cutoff)[0]
    dim = len(level)
    raising = {name: np.zeros((dim, dim), dtype=complex) for name in ("13", "23", "12")}
    for name, (rows, cols, values) in oracle.dressed_ladders(cutoff, cutoff).items():
        raising[name][rows, cols] = values
    exc_a, exc_b = (np.diag(diag).astype(complex)
                    for diag in oracle.excitation_diagonals(cutoff, cutoff))
    return DeformedGenerators(
        cutoff=cutoff, dim=dim,
        raise_13=raising["13"], lower_13=raising["13"].conj().T,
        raise_23=raising["23"], lower_23=raising["23"].conj().T,
        raise_12=raising["12"], lower_12=raising["12"].conj().T,
        exc_a=exc_a, exc_b=exc_b,
        proj=tuple(np.diag((level == i).astype(complex)) for i in (1, 2, 3)),
    )


def _interior_mask(gen: DeformedGenerators) -> np.ndarray:
    """Basis states at least one excitation below the Fock cutoff per mode."""
    _, n_a, n_b = oracle.basis_states(gen.cutoff, gen.cutoff)
    return (n_a < gen.cutoff) & (n_b < gen.cutoff)


def verify_deformed_algebra(cutoff: int) -> float:
    """Largest residual of the deformed-algebra brackets, edge excluded.

    Checks, away from the truncation edge:

        [raise_13, lower_13] = exc_a (1 - 2 P1 - P2)
        [raise_23, lower_23] = exc_b (1 - 2 P2 - P1)
        [raise_13, lower_23] = -raise_12
        [raise_13, raise_23] = 0
        [raise_12, lower_12] = exc_a exc_b (P2 - P1)

    where P_i projects on atomic level i.  The first two brackets close on
    polynomials of the conserved excitation numbers rather than on the
    generators themselves, which is what deforms the algebra.
    """
    gen = deformed_generators(cutoff)
    one = np.eye(gen.dim, dtype=complex)
    p1, p2, _ = gen.proj

    def comm(a, b):
        return a @ b - b @ a

    residuals = [
        comm(gen.raise_13, gen.lower_13) - gen.exc_a @ (one - 2 * p1 - p2),
        comm(gen.raise_23, gen.lower_23) - gen.exc_b @ (one - 2 * p2 - p1),
        comm(gen.raise_13, gen.lower_23) + gen.raise_12,
        comm(gen.raise_13, gen.raise_23),
        comm(gen.raise_12, gen.lower_12) - gen.exc_a @ gen.exc_b @ (p2 - p1),
    ]
    keep = _interior_mask(gen)
    return max(float(np.max(np.abs(res[np.ix_(keep, keep)]))) for res in residuals)


def global_phase_exponential(transition: str, cutoff: int) -> np.ndarray:
    """Relative-phase exponential assembled over a whole truncated space.

    The operator acts as the block form on every block whose three
    members fit under the Fock cutoffs and as the identity elsewhere, so
    it is unitary and commutes with both excitation numbers exactly.
    Basis ordering matches :func:`deformed_generators`.
    """
    dim = len(_deformed_basis(cutoff)[0])
    na, nb = np.meshgrid(np.arange(1, cutoff + 1), np.arange(1, cutoff + 1), indexing="ij")
    n_a, n_b = block_members(np.column_stack([na.ravel(), nb.ravel()]))
    flat = oracle.flat_index(np.arange(1, 4), n_a, n_b, cutoff, cutoff)

    op = np.eye(dim, dtype=complex)
    block = phase_exponential(transition)
    for idx in flat:
        op[np.ix_(idx, idx)] = block
    return op


def verify_deformed_polar(index: tuple[int, int], transition: str = "13") -> float:
    """Residual of the in-block polar decomposition of the dressed lowering.

    Within a full block the dressed lowering operator of the 1<->3
    transition sends the level-3 member to sqrt(N_a) times the level-1
    member (sqrt(N_b) and the level-2 member for 2<->3): it is the bare
    lowering operator scaled by that root, its modulus is diagonal, and
    dividing the modulus out leaves exactly the bare phase exponential
    in the basis of the block members.  Returns the max-entry residual of
    :func:`.algebra.verify_polar_identity` at that scale.
    """
    if transition not in POLAR_TRANSITIONS:
        raise ValueError("the dressed polar decomposition is defined for the "
                         f"allowed transitions 13 and 23, not {transition!r}")
    na, nb = index
    if na < 1 or nb < 1:
        raise ValueError(f"block {tuple(index)} is degenerate; the polar "
                         "decomposition needs a full block")
    photons = na if transition == "13" else nb
    return verify_polar_identity(transition, math.sqrt(photons))
