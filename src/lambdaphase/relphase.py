"""Relative phase between the field modes and the atomic dipoles.

Dressing the atomic ladder operators with the matching mode operator
(annihilation for raising, creation for lowering) produces operators that
close a polynomially deformed algebra instead of su(3).  Their polar
decomposition, taken inside one invariant block, gives a unitary
relative-phase exponential with the same three-point spectrum as the bare
atomic one, {0, +pi/2, -pi/2}, and eigenstates built from the block
members.  This module holds those eigenstates and the phase
distributions of an evolved state over a time grid.

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

from .algebra import ALL_TRANSITIONS, phase_eigensystem
from .dynamics import BlockDiagonalPropagator, SystemParams, block_members


def rel_phase_eigenstates(transition: str, index) -> np.ndarray:
    """Relative-phase eigenstates of one transition in every block.

    Returns shape (B, 3, 3): ``states[b, :, k]`` is the eigenstate with
    label ("0", "+", "-")[k] in block ``index[b]``, in level order.  These
    are the transition's bare atomic eigenvectors with the entries of
    missing members set to zero, without renormalizing (see the module
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
# on one thread and are summed in a fixed order.  It also bounds the group
# of segments that :func:`time_series` walks at once to about REDUCE_CHUNK
# block-samples a sample position.
REDUCE_CHUNK = 8192

# Full-block phase eigenstates in PHASE_KEYS order, then the level unit vectors:
# <v|R|v> over these columns gives the nine phase probabilities and three populations.
_READOUT = np.hstack([*(phase_eigensystem(t)[1] for t in ALL_TRANSITIONS), np.eye(3)])

# <v|R|v> = sum_ij conj(v_i) v_j R_ij as a real (18, 12) map of R's float view:
# row 2(3i + j) holds Re(conj(v_i) v_j) and row 2(3i + j) + 1 holds -Im of it.
_PRODUCTS = (_READOUT.conj()[:, None, :] * _READOUT[None, :, :]).reshape(9, 12)
_READOUT_REAL = np.stack([_PRODUCTS.real, -_PRODUCTS.imag], axis=1).reshape(18, 12)


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
    one partition of every block reduction: :func:`time_series` keeps one
    R per tile and :func:`series_rows` adds them in this order.
    """
    count = max(1, -(-blocks // REDUCE_CHUNK))
    bounds = [blocks * k // count for k in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def series_rows(r: np.ndarray) -> np.ndarray:
    """The 13 output columns, shape (T, 13), of the per-tile matrices R (tiles, T, 3, 3).

    The tiles' R are added in tile order, the one order of the block sum
    R = sum_b a_b a_b^dagger; with one tile its R is used as it is.  The
    twelve <v|R|v> columns are one real two-operand ``einsum`` of R's 18
    floats per sample with the (18, 12) map ``_READOUT_REAL``.  Unlike a
    BLAS ``matmul``, whose kernel can change with the number of rows, it
    gives each row the bits of a one-row call, so the rows do not depend
    on how many samples a segment reads at once.
    """
    r = np.add.reduce(r, axis=0)
    rows = np.empty((len(r), len(SERIES_KEYS)))
    rows[:, :12] = np.einsum("tm,mk->tk", r.reshape(len(r), 9).view(float), _READOUT_REAL)
    rows[:, 12] = rows[:, 9] + rows[:, 10] + rows[:, 11]
    return rows


def time_series(params: SystemParams, times: np.ndarray) -> dict[str, np.ndarray]:
    """Phase distributions and populations of all three transitions over a grid.

    This is the production path: every block is eigendecomposed once, and
    each time sample costs one eigenphase twist and one real 3x3
    contraction per block (:meth:`BlockDiagonalPropagator.amplitudes_at`).
    All 13 columns are linear in the block-summed matrix
    R = sum_b a_b a_b^dagger of the member amplitudes a_b: each phase
    probability is <phi|R|phi> for a relative-phase eigenstate phi of a
    full block, the populations are diag R and the norm is tr R.

    The grid is walked in the segments of :func:`grid_segments`, G =
    min(segments, SEGMENT, max(1, REDUCE_CHUNK // b)) segments at a time
    for the widest tile's b blocks, and each group in the tiles of
    :func:`block_tiles`, one ``BlockDiagonalPropagator[a:b]`` each.  In a
    tile each segment starts from the exact twist exp(-i w t_s) coeff0
    and, on a uniform grid, multiplies it by exp(-i w dt) for each later
    sample, so the complex exponential runs once per segment and tile
    instead of once per sample.  The group's twists sit in one reused
    (G, 3, b) buffer: at each sample position one in-place multiply steps
    the segments that reach it, one stacked ``amplitudes_at`` applies
    them and one ``vecdot`` reduces them into the tile's own slot of the
    group's R matrices.  So a position costs one call for all G samples,
    and a tile's eigenvectors and step with the group's twists and
    amplitudes, at most about REDUCE_CHUNK block-samples, stay in cache
    over the group's samples instead of the whole state streaming through
    it once per sample.  On a non-uniform grid every segment is one
    sample, so a group is G samples with exact twists.  The rows of a
    group come from :func:`series_rows`, which adds the tiles' R in tile
    order.  Each sample keeps its exact twist and its own steps, and each
    reduction and row is formed on its own, so the bytes depend neither
    on G nor on the loop order.  G at most SEGMENT keeps a group's R at
    SEGMENT**2 samples per tile, so the memory beside the (T, 13) table
    does not grow with the grid.

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
    steps = [tile.phases(dt) for tile in tiles]  # 1 on a non-uniform grid, never applied
    widest = max(len(tile.index) for tile in tiles)
    group = max(1, min(len(segments), SEGMENT, REDUCE_CHUNK // widest))
    twists = np.empty((group, 3, widest), dtype=complex)
    levels = np.empty((group, 3, widest), dtype=complex)
    r = np.empty((len(tiles), group * SEGMENT, 3, 3), dtype=complex)
    rows = np.empty((len(times), len(SERIES_KEYS)))
    for g in range(0, len(segments), group):
        part = segments[g:g + group]
        first, last = part[0][0], part[-1][1]
        span = part[0][1] - first  # every segment but the grid's last is this long
        short = part[-1][1] - part[-1][0]
        for i, (tile, step) in enumerate(zip(tiles, steps)):
            twisted = twists[:len(part), :, :len(tile.index)]
            applied = levels[:len(part), :, :len(tile.index)]
            for s, (start, _) in enumerate(part):
                np.multiply(tile.phases(times[start]), tile.coeff0, out=twisted[s])
            slots = r[i, :len(part) * span].reshape(len(part), span, 3, 3)
            for j in range(span):
                live = len(part) if j < short else len(part) - 1
                if j:
                    twisted[:live] *= step
                tile.amplitudes_at(times[first + j], twisted[:live], out=applied[:live])
                np.vecdot(applied[:live, None], applied[:live, :, None], out=slots[:live, j])
        rows[first:last] = series_rows(r[:, :last - first])

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
