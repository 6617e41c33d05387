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

import numpy as np

from . import oracle
from .algebra import (ALL_TRANSITIONS, POLAR_TRANSITIONS, commutator, lowering,
                      phase_eigensystem, phase_exponential, verify_polar_identity)
from .dynamics import BlockDiagonalPropagator, SystemParams, block_members


# Relative-phase eigenstates of a full block in level order, one column per
# (transition, label): "0", "+", "-" of 13, then of 23, then of 12.  In the
# basis of the block members they are the bare atomic eigenvectors.
PHASE_VECTORS = np.hstack([phase_eigensystem(t)[1] for t in ALL_TRANSITIONS])


def rel_phase_eigenstates(transition: str, index) -> np.ndarray:
    """Relative-phase eigenstates of one transition in every block.

    Returns shape (B, 3, 3): ``states[b, :, k]`` is the eigenstate with
    label ("0", "+", "-")[k] in block ``index[b]``, in level order.  These
    are the transition's columns of :data:`PHASE_VECTORS` with the entries
    of missing members set to zero, without renormalizing (see the module
    docstring); in a full block they are orthonormal and complete.
    """
    _, vectors = phase_eigensystem(transition)
    n_a, n_b = block_members(index)
    present = (n_a >= 0) & (n_b >= 0)
    return present[:, :, None] * vectors


def marginal_distribution(index, amplitudes: np.ndarray, transition: str) -> np.ndarray:
    """Relative-phase distribution of a block state, by direct projection.

    ``index`` and ``amplitudes`` are a padded block state as returned by
    :meth:`BlockDiagonalPropagator.amplitudes_at` (with the propagator's
    ``index``).  Outcome probabilities are the squared overlaps
    |<state_label | psi_b>|^2 summed over the blocks b, returned as a (3,)
    array in label order ("0", "+", "-"), the order of
    ``PHASE_KEYS[transition]``.  This is the cross-check of
    :func:`time_series`, which reduces the same state through the
    block-summed matrix R instead.
    """
    states = rel_phase_eigenstates(transition, index)
    overlaps = np.einsum("bik,bi->bk", states.conj(), amplitudes)
    return np.sum(np.abs(overlaps) ** 2, axis=0)


# Column names of each transition's phase outcomes, in label order.
PHASE_KEYS = {t: (f"p{t}_0", f"p{t}_p", f"p{t}_m") for t in ALL_TRANSITIONS}

# Column names of the quantities produced per time sample.
SERIES_KEYS = (*(key for keys in PHASE_KEYS.values() for key in keys),
               "pop1", "pop2", "pop3", "norm")

# Samples per segment of a uniform grid: each segment starts from an exact
# eigenphase twist and steps the samples after it by one fixed factor.
SEGMENT = 64

# Largest distance, in ulp of the grid's largest |t|, between a sample and
# its nominal position t_0 + k dt on a grid taken as uniform.
UNIFORM_ULPS = 4

# Largest number of blocks in one tile of :func:`block_tiles`, so in one
# dot product of the reduction.  OpenBLAS splits a dot product over its
# threads above 10000 elements, at points that depend on the thread count,
# which would make the bytes of a run depend on it; tiles this short stay
# on one thread and are summed in a fixed order.  It also bounds a batch
# of :func:`time_series` to about REDUCE_CHUNK block-samples.
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


def block_tiles(blocks: int) -> list[tuple[int, int]]:
    """[start, stop) ranges of the fewest equal tiles of at most REDUCE_CHUNK blocks.

    The tiles cover blocks 0..blocks-1 in order and differ in size by at
    most one block; up to REDUCE_CHUNK blocks are one tile.  This is the
    one partition of every block reduction: :func:`block_sums` and the
    tile loop of :func:`time_series` both sum over it, in this order.
    """
    count = max(1, -(-blocks // REDUCE_CHUNK))
    bounds = [blocks * k // count for k in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _add_tile_sums(levels: np.ndarray, out: np.ndarray, first: bool) -> None:
    """Write (``first``) or add the R_s of one tile's batch (S, 3, b) into ``out`` (S, 3, 3).

    One ``vecdot`` for the whole batch: R_s[i, j] = sum_b a_sib conj(a_sjb).
    """
    if first:
        np.vecdot(levels[:, None], levels[:, :, None], out=out)
    else:
        out += np.vecdot(levels[:, None], levels[:, :, None])


def block_sums(levels: np.ndarray, out: np.ndarray) -> np.ndarray:
    """R_s = sum_b a_b a_b^dagger of a batch of level-major amplitudes (S, 3, B).

    Writes the (S, 3, 3) matrices R_s[i, j] = sum_b a_sib conj(a_sjb) into
    ``out``, summed tile by tile over :func:`block_tiles` in block order,
    as :func:`time_series` sums them.  Each R_s is bitwise the same
    whatever S is.  Returns ``out``.
    """
    for start, stop in block_tiles(levels.shape[2]):
        _add_tile_sums(levels[:, :, start:stop], out, start == 0)
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

    The grid is walked in the segments of :func:`grid_segments`, and each
    segment in the tiles of :func:`block_tiles`, one
    ``BlockDiagonalPropagator[a:b]`` each.  A tile starts from the exact
    twist exp(-i w t_s) coeff0 and, on a uniform grid, multiplies it by
    exp(-i w dt) for each later sample, so the complex exponential runs
    once per segment and tile instead of once per sample.  Its samples go
    through a reused buffer in batches of S = min(SEGMENT, max(1,
    REDUCE_CHUNK // b)) samples for the widest tile's b blocks, and
    :func:`_add_tile_sums` reduces each batch at once into the segment's R
    matrices: the first tile writes them, later tiles add.  So a tile's
    eigenvectors, twist, step and amplitudes, about 290 bytes a block,
    stay in cache over the segment's samples instead of the whole state
    streaming through it once per sample.  The rows of a segment come from
    one reduction over its R matrices.  Every R is summed over the tiles
    in block order, as :func:`block_sums` sums it, so the bytes depend
    neither on S nor on the loop order.

    Returns a dict with one array per entry of ``SERIES_KEYS``.  Raises
    ValueError for a grid that is not one-dimensional or holds a
    non-finite time.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a one-dimensional grid, got shape {times.shape}")
    bad = np.flatnonzero(~np.isfinite(times))
    if len(bad):
        raise ValueError(f"times must be finite, got {times[bad[0]]} at "
                         f"position {bad[0]}")
    prop = BlockDiagonalPropagator(params)
    dt, segments = grid_segments(times)
    tiles = [prop[start:stop] for start, stop in block_tiles(len(prop.index))]
    uniform = len(segments) < len(times)
    steps = [tile.phases(dt) if uniform else None for tile in tiles]
    widest = max(len(tile.index) for tile in tiles)
    batch = min(SEGMENT, max(1, REDUCE_CHUNK // widest))
    buffer = np.empty((batch, 3, widest), dtype=complex)
    r = np.empty((SEGMENT, 3, 3), dtype=complex)
    rows = np.empty((len(times), len(SERIES_KEYS)))
    for start, stop in segments:
        for tile, step in zip(tiles, steps):
            levels = buffer[:, :, :len(tile.index)]
            twisted = None  # drop the last tile's twist before the next is formed
            twisted = tile.twist(times[start])
            for first in range(start, stop, batch):
                last = min(first + batch, stop)
                for k in range(first, last):
                    if k > start:
                        twisted *= step
                    tile.amplitudes_at(times[k], twisted, out=levels[k - first])
                _add_tile_sums(levels[:last - first], r[first - start:last - start],
                              tile is tiles[0])
        rows[start:stop] = series_rows(r[:stop - start])

    return dict(zip(SERIES_KEYS, rows.T))


def trapping_config(phi: float, nbar: float) -> SystemParams:
    """Parameters preparing a lower-level superposition against equal fields.

    The atom starts in (|1> + e^{i phi} |2>)/sqrt(2) with both modes in
    coherent states of mean photon number ``nbar``, unit couplings and
    zero detunings.  With zero-phase fields the superposition decouples
    from the dynamics exactly when phi = +-pi; any other phi gives a
    control case that does absorb.
    """
    c = (1.0 / math.sqrt(2.0), np.exp(1j * phi) / math.sqrt(2.0), 0.0)
    return SystemParams(g_a=1.0, g_b=1.0, nbar_a=nbar, nbar_b=nbar, c=c)


# ---------------------------------------------------------------------------
# Brute-force verification of the deformed algebra on a truncated space.
# The space, basis order and dressed ladder operators are those of
# :mod:`.oracle`, unrelated to the block machinery above; the dense matrices
# built here exist only to check operator identities and are desk-scale.
# ---------------------------------------------------------------------------


def verify_deformed_algebra(cutoff: int) -> float:
    """Largest residual of the deformed-algebra brackets, edge excluded.

    Checks, away from the truncation edge:

        [raise_13, lower_13] = exc_a (1 - 2 P1 - P2)
        [raise_23, lower_23] = exc_b (1 - 2 P2 - P1)
        [raise_13, lower_23] = -raise_12
        [raise_13, raise_23] = 0
        [raise_12, lower_12] = exc_a exc_b (P2 - P1)

    on the oracle's space with both Fock cutoffs at ``cutoff``: the
    raising operators are its real dressed ladders, the lowering ones
    their transposes, and P_i projects on atomic level i.  The first two
    brackets close on polynomials of the conserved excitation numbers
    rather than on the generators, which is what deforms the algebra.
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    level, n_a, n_b = oracle.basis_states(cutoff, cutoff)
    dim = len(level)
    raising = {}
    for name, (rows, cols, values) in oracle.dressed_ladders(cutoff, cutoff).items():
        raising[name] = np.zeros((dim, dim))
        raising[name][rows, cols] = values
    r13, r23, r12 = (raising[name] for name in ALL_TRANSITIONS)
    exc_a, exc_b = oracle.excitation_diagonals(cutoff, cutoff)
    p1, p2 = ((level == i).astype(float) for i in (1, 2))

    residuals = [
        commutator(r13, r13.T) - np.diag(exc_a * (1 - 2 * p1 - p2)),
        commutator(r23, r23.T) - np.diag(exc_b * (1 - 2 * p2 - p1)),
        commutator(r13, r23.T) + r12,
        commutator(r13, r23),
        commutator(r12, r12.T) - np.diag(exc_a * exc_b * (p2 - p1)),
    ]
    keep = (n_a < cutoff) & (n_b < cutoff)
    return max(float(np.max(np.abs(res[np.ix_(keep, keep)]))) for res in residuals)


def global_phase_exponential(transition: str, cutoff: int) -> np.ndarray:
    """Relative-phase exponential assembled over a whole truncated space.

    The operator acts as the block form on every block whose three
    members fit under the Fock cutoffs and as the identity elsewhere, so
    it is unitary and commutes with both excitation numbers exactly.
    Basis ordering is the oracle's flat index.
    """
    if cutoff < 2:
        raise ValueError(f"cutoff must be >= 2, got {cutoff}")
    na, nb = np.meshgrid(np.arange(1, cutoff + 1), np.arange(1, cutoff + 1), indexing="ij")
    n_a, n_b = block_members(np.column_stack([na.ravel(), nb.ravel()]))
    flat = oracle.flat_index(np.arange(1, 4), n_a, n_b, cutoff, cutoff)

    op = np.eye(len(oracle.basis_states(cutoff, cutoff)[0]), dtype=complex)
    block = phase_exponential(transition)
    for idx in flat:
        op[np.ix_(idx, idx)] = block
    return op


def _dressed_block_lowering(index: tuple[int, int], transition: str) -> np.ndarray:
    """The oracle's dressed lowering operator on the members of one block, in level order."""
    na, nb = index
    rows, cols, values = oracle.dressed_ladders(na, nb)[transition]
    dim = len(oracle.basis_states(na, nb)[0])
    dense = np.zeros((dim, dim))
    dense[cols, rows] = values
    members = oracle.flat_index(np.arange(1, 4), *block_members(index), na, nb)[0]
    return dense[np.ix_(members, members)]


def verify_deformed_polar(index: tuple[int, int], transition: str = "13") -> float:
    """Residual of the in-block polar decomposition of the dressed lowering.

    Within a full block the dressed lowering operator of the 1<->3
    transition sends the level-3 member to sqrt(N_a) times the level-1
    member (sqrt(N_b) and the level-2 member for 2<->3): it is the bare
    lowering operator scaled by that root, its modulus is diagonal, and
    dividing the modulus out leaves exactly the bare phase exponential
    in the basis of the block members.  Returns the larger of the
    :func:`.algebra.verify_polar_identity` residual of the oracle's
    operator on the block and its distance from that scaled bare one.
    """
    if transition not in POLAR_TRANSITIONS:
        raise ValueError("the dressed polar decomposition is defined for the "
                         f"allowed transitions 13 and 23, not {transition!r}")
    na, nb = index
    if na < 1 or nb < 1:
        raise ValueError(f"block {tuple(index)} is degenerate; the polar "
                         "decomposition needs a full block")
    low = _dressed_block_lowering(index, transition)
    photons = na if transition == "13" else nb
    scaled = float(np.max(np.abs(low - math.sqrt(photons) * lowering(transition))))
    return max(verify_polar_identity(transition, low), scaled)
