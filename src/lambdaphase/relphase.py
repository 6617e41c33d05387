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
from typing import Optional

import numpy as np

from .algebra import ALL_TRANSITIONS, phase_eigensystem
from .dynamics import BlockDiagonalPropagator, SystemParams, block_members, photon_window


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
    block-summed matrix R, or its spectral lines, instead.
    """
    states = rel_phase_eigenstates(transition, index)
    overlaps = np.einsum("bik,bi->bk", states.conj(), amplitudes)
    return np.sum(np.abs(overlaps) ** 2, axis=0)


# Column names of each transition's phase outcomes, in label order.
PHASE_KEYS = {t: (f"p{t}_0", f"p{t}_p", f"p{t}_m") for t in ALL_TRANSITIONS}

# Column names of the quantities produced per time sample.
SERIES_KEYS = (*(key for keys in PHASE_KEYS.values() for key in keys),
               "pop1", "pop2", "pop3", "norm")

# Most samples that :func:`walk_rows` walks: one segment of a uniform grid,
# which starts from exact eigenphases and steps the samples after it
# by one fixed factor.  The merged lines are summed over tiles of as many
# samples, each from an exact anchor times a power table of SEGMENT entries.
SEGMENT = 64

# Largest distance, in ulp of the grid's largest |t|, between a sample and
# its nominal position t_0 + k dt on a grid taken as uniform.
UNIFORM_ULPS = 4

# Largest number of blocks in one tile of :func:`block_tiles`, so in one
# dot product of the reduction.  OpenBLAS splits a dot product over its
# threads above 10000 elements, at points that depend on the thread count,
# which would make the bytes of a run depend on it; tiles this short stay
# on one thread and are summed in a fixed order.
REDUCE_CHUNK = 8192

# Blocks whose pairs :func:`spectral_lines` forms and merges at once, which
# bounds its (3 PAIR_CHUNK, 6) pair entries to 0.28 MiB.
PAIR_CHUNK = 1024

# Largest number of lines in one GEMM of :func:`line_rows`.  OpenBLAS runs a
# GEMM of m n k <= 2**18 multiply-adds (65536 times its default
# GEMM_MULTITHREAD_THRESHOLD of 4) on one thread, and splits a larger one over
# its threads at points that can change the bits of a row, so a tile of
# SEGMENT samples against 2 LINE_CHUNK floats of 12 columns stays below it.
LINE_CHUNK = 2**18 // (24 * SEGMENT)

# Oversampling ratio of the grid of :func:`spread_rows` over its window's
# samples, and the half-width, in grid points, of its Gaussian kernel.
SPREAD_RATIO = 2
SPREAD_HALF_WIDTH = 16

# Samples per window of :func:`spread_rows`, which sizes its grid; a longer
# grid runs window by window.
SPREAD_WINDOW = 1024

# Blocks whose lines :func:`spread_rows` forms and spreads at once.
SPREAD_CHUNK = 256

# Lines per GEMM of :func:`spread_rows`: a group of SPREAD_HALF_WIDTH grid
# points takes its lines' weights on 3 SPREAD_HALF_WIDTH points against their
# 12 floats of entries, below the 2**18 multiply-adds of one OpenBLAS thread.
SPREAD_LINES = 2**18 // (12 * 3 * SPREAD_HALF_WIDTH)

# Largest phase rounding allowance A of :func:`phase_rounding` that a grid
# may carry: the 1e-8 gate on the columns' agreement with the dense oracle.
MAX_PHASE_ROUNDING = 1e-8

# Full-block phase eigenstates in PHASE_KEYS order, then the level unit vectors:
# <v|R|v> over these columns gives the nine phase probabilities and three populations.
_READOUT = np.hstack([*(phase_eigensystem(t)[1] for t in ALL_TRANSITIONS), np.eye(3)])

# conj(v_i) v_j of every readout column v, row 3i + j.
_PRODUCTS = (_READOUT.conj()[:, None, :] * _READOUT[None, :, :]).reshape(9, 12)

# <v|R|v> = sum_i |v_i|^2 R_ii + sum_{i>j} 2 Re(conj(v_i) v_j R_ij) as a real
# (12, 12) map of the float view of the six entries of R that the time series
# keeps, R_00, R_11, R_22, R_10, R_21, R_20 (rows 0, 4, 8, 3, 7, 6 of
# _PRODUCTS): row 2e holds Re and row 2e + 1 holds Im of entry e.  Every
# readout column has real |v_i|^2 and purely imaginary conj(v_i) v_j for
# i != j, so the Im rows of the populations and the Re rows of the coherences
# are zero, and a coherence's Im row is -2 Im(conj(v_i) v_j).
_READOUT_REAL = np.zeros((12, 12))
_READOUT_REAL[0:6:2] = _PRODUCTS[[0, 4, 8]].real
_READOUT_REAL[7::2] = -2.0 * _PRODUCTS[[3, 7, 6]].imag


# A pair k < l of a block's eigenmode amplitudes a_k (entries a_ik) adds
# a_ik conj(a_jl) P + conj(a_jk conj(a_il) P) to R_ij, P = exp(-i (w_k - w_l) t):
# to the diagonal 2 Re d_i P, d_i = a_ik conj(a_il), and to Im R_ij, i > j,
# Im a_ij P, a_ij = a_ik conj(a_jl) - a_jk conj(a_il).  So _READOUT_REAL with
# its population rows doubled reads the columns off the float view of a
# pair's six entries (d_0, d_1, d_2, a_10, a_21, a_20) times P, in the order
# of R's kept entries.
_PAIR_READOUT = _READOUT_REAL * np.repeat([2.0, 2.0, 2.0, 1.0, 1.0, 1.0], 2)[:, None]


def uniform_step(times: np.ndarray) -> float:
    """Step dt of a uniform time grid, or 0.0 when the grid is not uniform.

    A grid is uniform when it has at least two samples and every t_k lies
    within UNIFORM_ULPS ulp (of the largest |t|) of t_0 + k dt, with
    dt = (t_last - t_0) / (n - 1).
    """
    n = len(times)
    if n > 1:
        dt = (times[-1] - times[0]) / (n - 1)
        nominal = times[0] + dt * np.arange(n)
        spacing = np.spacing(np.max(np.abs(times)))
        if np.all(np.abs(times - nominal) <= UNIFORM_ULPS * spacing):
            return float(dt)
    return 0.0


def block_tiles(blocks: int) -> list[tuple[int, int]]:
    """[start, stop) ranges of the fewest equal tiles of at most REDUCE_CHUNK blocks.

    The tiles cover blocks 0..blocks-1 in order and differ in size by at
    most one block; up to REDUCE_CHUNK blocks are one tile.  This is the
    one partition of the walk's block reduction: :func:`walk_rows` keeps
    one R per tile and :func:`series_rows` adds them in this order.
    """
    count = max(1, -(-blocks // REDUCE_CHUNK))
    bounds = [blocks * k // count for k in range(count + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def series_rows(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The 13 output columns, shape (T, 13), of the per-tile entries R (tiles, T, 6).

    Each sample's R = sum_b a_b a_b^dagger is given by its six complex
    entries R_00, R_11, R_22, R_10, R_21, R_20, one set per tile of
    :func:`block_tiles`.  The tiles are added in tile order, the one order
    of the block sum; with one tile its entries are used as they are.  The
    twelve <v|R|v> columns are one real two-operand ``einsum`` of the
    entries' 12 floats per sample with the (12, 12) map ``_READOUT_REAL``.
    Unlike a BLAS ``matmul``, whose kernel can change with the number of
    rows, it gives each row the bits of a one-row call, so the rows do not
    depend on how many samples a segment reads at once.  The rows are
    written into ``out``, a (T, 13) float array, which is returned.
    """
    total = r[0] if len(r) == 1 else np.add.reduce(r, axis=0)
    np.einsum("tm,mk->tk", total.view(float), _READOUT_REAL, out=out[:, :12])
    out[:, 12] = out[:, 9] + out[:, 10] + out[:, 11]
    return out


def phase_rounding(params: SystemParams, t_max: float, source: str = "the grid") -> float:
    """Rounding allowance A = eps r t_max of the eigenphases w t up to |t| = t_max.

    r = max(|delta_a|, |delta_b|) + g_a sqrt(N_a + 1) + g_b sqrt(N_b + 1),
    with N_a and N_b the upper edges of :func:`photon_window`, bounds every
    block frequency |w|: the kept blocks reach the excitation numbers
    N + 1, and a block Hamiltonian is a diagonal of norm at most
    max(|delta_a|, |delta_b|) plus couplings of norm hypot(x, y) <= x + y,
    x = g_a sqrt(N_a) and y = g_b sqrt(N_b).  Every engine forms one line
    exp(-i w t) of the spectrum from a double w, which the eigensolver
    returns within a few eps r, and a double t, and their product rounds
    by up to eps |w t| / 2 more.  So the phase of each line is off by a
    small multiple of eps r |t| <= A, however exact the method is.  A phase
    error f moves the line, so each eigenbasis coefficient, by at most |f|
    times its modulus; the eigenvectors are orthonormal and the state has
    unit norm, so each column, a sum of squared overlaps, moves by at most
    about 2 |f|.  The merged lines of :func:`line_rows` turn at the pair
    frequencies W = w_k - w_l instead: |W| <= 2 r, the difference of two
    such doubles is off by a few eps r, and W t rounds by up to
    eps |W t| / 2 <= eps r |t| more.  So each line's phase is still off by
    a small multiple of A.  A column is a sum of Re G exp(-i W t) with
    |G| = 2 |q_k| |q_l| <= |q_k|^2 + |q_l|^2, and each mode is in two
    pairs, so the |G| add up to at most 2 sum |q_k|^2 <= 2: a phase error f
    on every line again moves each column by at most about 2 |f|.

    Returns A.  Raises ValueError naming ``source``, t_max and A when A
    exceeds MAX_PHASE_ROUNDING, before any block is built.
    """
    edges = [photon_window(nbar, params.epsilon)[1] for nbar in (params.nbar_a, params.nbar_b)]
    r = (max(abs(params.delta_a), abs(params.delta_b)) + params.g_a * math.sqrt(edges[0] + 1)
         + params.g_b * math.sqrt(edges[1] + 1))
    allowance = float(np.finfo(float).eps * r * t_max)
    if allowance > MAX_PHASE_ROUNDING:
        raise ValueError(f"{source} reaches |t| = {t_max:.6g}, where the eigenphases w t "
                         f"round by up to A = {allowance:.3g}, above {MAX_PHASE_ROUNDING:g}")
    return allowance


def pair_frequencies(prop: BlockDiagonalPropagator) -> np.ndarray:
    """The ascending distinct pair frequencies w_k - w_l, k < l, of ``prop``'s blocks.

    Pairs whose frequencies are bitwise equal make one line of
    :func:`spectral_lines`, so its table has one row for each of these.
    A sort and a comparison of neighbours find them: ``np.unique`` would
    import ``numpy.ma``, 1.5 MB of resident memory in every resonant run.
    """
    w = prop.frequencies
    pairs = np.sort(np.concatenate([w[0] - w[1], w[0] - w[2], w[1] - w[2]]))
    return pairs[np.concatenate([[True], pairs[1:] != pairs[:-1]])]


def spectral_lines(prop: BlockDiagonalPropagator,
                   frequencies: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 12 readout columns of ``prop``'s state as a static term and merged lines.

    With a_k the amplitudes of eigenmode k of a block, ``prop.modes``, a
    readout column v reads |sum_k q_k exp(-i w_k t)|^2, q_k = v^dagger a_k,
    summed over the blocks: the static part sum |q_k|^2 plus, for each pair
    k < l, Re G exp(-i (w_k - w_l) t) with G = 2 q_k conj(q_l).  Every
    readout vector has real |v_i|^2 and imaginary conj(v_i) v_j, i != j, so
    G is the fixed real map ``_PAIR_READOUT`` of the pair's six complex
    entries of :func:`_chunk_pairs`, and a line is kept as these entries
    summed over its pairs.  ``frequencies`` are the blocks'
    :func:`pair_frequencies`.  Returns ``(static, frequencies, entries)``:
    the (12,) static term, the (L,) ascending pair frequencies and the
    (L, 6) complex entries.  A line at frequency 0 never moves, so its Re G
    is added to the static term instead, which makes that term each
    column's infinite-time mean.

    The blocks are read PAIR_CHUNK at a time, in block order: a stable
    sort of the chunk's 3 x PAIR_CHUNK pair frequencies, ``np.add.reduceat``
    over each run of equal ones, and an in-place sum into the table's
    rows.  Every line is thus summed in one fixed order, and no (3B, 6)
    array is formed: beside the propagator and the table, the build holds
    one chunk's pairs.
    """
    static = np.zeros(_READOUT.shape[1])
    entries = np.zeros((len(frequencies), 6), dtype=complex)
    for start in range(0, len(prop.index), PAIR_CHUNK):
        part, w, e = _chunk_pairs(prop[start:min(start + PAIR_CHUNK, len(prop.index))])
        static += part
        order = np.argsort(w, kind="stable")
        w = w[order]
        runs = np.flatnonzero(np.concatenate([[True], w[1:] != w[:-1]]))
        entries[np.searchsorted(frequencies, w[runs])] += np.add.reduceat(e[order], runs)
    zero = np.flatnonzero(frequencies == 0.0)  # the frequencies are distinct
    if len(zero):  # copies the table only when it has a line at 0
        static += entries[zero[0]].view(float) @ _PAIR_READOUT
        frequencies, entries = np.delete(frequencies, zero), np.delete(entries, zero, axis=0)
    return static, frequencies, entries


def _chunk_pairs(chunk: BlockDiagonalPropagator,
                 anchor: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Static part, and frequency and six entries of every pair, of a chunk of blocks.

    Returns the (12,) sum of |q_k|^2 over ``chunk``'s blocks, the (3c,) pair
    frequencies W = w_k - w_l and their (3c, 6) entries (d_0, d_1, d_2,
    a_10, a_21, a_20) of ``_PAIR_READOUT``, pair (0, 1), (0, 2), (1, 2), each
    in block order: d_i = a_ik conj(a_il) and a_ij = a_ik conj(a_jl) -
    a_jk conj(a_il) of the modes a_k, times exp(-i W ``anchor``), the factor
    left out at anchor 0.  |q_k|^2 = sum_i |v_i|^2 |a_ik|^2, as a_ik conj(a_jk)
    is real and symmetric and the imaginary conj(v_i) v_j cancel.
    """
    k, l = [0, 0, 1], [1, 2, 2]  # the pairs (0, 1), (0, 2), (1, 2)
    modes = chunk.modes
    w = chunk.frequencies[k] - chunk.frequencies[l]
    ak, al = modes[:, k], modes[:, l].conj()  # [i, pair, b]
    if anchor:
        ak *= np.exp((-1j * anchor) * w)
    e = np.empty((3, modes.shape[2], 6), dtype=complex)  # [pair, b, entry]
    entries = e.transpose(2, 0, 1)
    np.multiply(ak, al, out=entries[:3])
    np.multiply(ak[[1, 2, 2]], al[[0, 1, 0]], out=entries[3:])
    entries[3:] -= ak[[0, 1, 0]] * al[[1, 2, 2]]
    populations = np.sum(np.square(modes.view(float)), axis=(1, 2))
    return populations @ _READOUT_REAL[0:6:2], w.ravel(), e.reshape(-1, 6)


def line_rows(static: np.ndarray, frequencies: np.ndarray, entries: np.ndarray,
              times: np.ndarray, dt: Optional[float] = None) -> np.ndarray:
    """The (T, 13) rows static + Re sum_l G_l exp(-i W_l t) of :func:`spectral_lines`.

    The lines run in chunks of LINE_CHUNK, and the samples of each chunk
    in tiles of SEGMENT.  On a uniform grid of step ``dt``, by default
    :func:`uniform_step` of ``times``, a tile starting at t_s takes the
    exact anchor exp(-i W t_s) times a power table exp(-i W j dt),
    j < SEGMENT, made once per chunk with an exact ``exp``; on any other
    grid (``dt`` 0) every sample takes an exact ``exp``.
    Re(G P) = Re G Re P - Im G Im P, so each chunk and tile is one real
    GEMM of the phases' float view (n, 2L) with the gains as rows Re G and
    -Im G = Re(i G), (2L, 12), which ``_PAIR_READOUT`` reads off the
    chunk's entries e and i e, added to the static term in chunk order.
    The norm is pop1 + pop2 + pop3.  Beside the rows, a chunk's gains, a
    power table and a tile's phases of SEGMENT x LINE_CHUNK complex
    numbers are held, whatever L and T are.
    """
    if dt is None:
        dt = uniform_step(times)
    rows = np.empty((len(times), len(SERIES_KEYS)))
    rows[:, :12] = static
    for c in range(0, len(frequencies), LINE_CHUNK):
        w, e = frequencies[c:c + LINE_CHUNK], entries[c:c + LINE_CHUNK]
        # 2 LINE_CHUNK x 12 x 12 multiply-adds, on one OpenBLAS thread
        operand = np.stack([e, 1j * e], axis=1).view(float).reshape(-1, 12) @ _PAIR_READOUT
        powers = np.exp(np.multiply.outer(-1j * dt * np.arange(SEGMENT), w)) if dt else None
        for start in range(0, len(times), SEGMENT):
            span = times[start:start + SEGMENT]
            if dt:
                phases = powers[:len(span)] * np.exp((-1j * span[0]) * w)
            else:
                phases = np.exp(np.multiply.outer(-1j * span, w))
            rows[start:start + len(span), :12] += phases.view(float) @ operand
    np.add(rows[:, 9], rows[:, 10], out=rows[:, 12])
    rows[:, 12] += rows[:, 11]
    return rows


def spread_points(samples: int) -> int:
    """Points n of the grid of a :func:`spread_rows` window of ``samples`` samples.

    n is the least multiple of SPREAD_HALF_WIDTH that is at least
    SPREAD_RATIO x 2h, h = samples // 2 the window's largest |k|.
    """
    return SPREAD_HALF_WIDTH * max(1, -(-SPREAD_RATIO * 2 * (samples // 2) // SPREAD_HALF_WIDTH))


def spread_rows(prop: BlockDiagonalPropagator, times: np.ndarray,
                dt: Optional[float] = None) -> np.ndarray:
    """The (T, 13) rows of ``prop``'s state on a uniform grid, from its gridded pair lines.

    Each column is static + Re sum_l G_l exp(-i W_l t) over every pair
    of every block, as in :func:`spectral_lines`, but no pair is merged
    and no line table is formed.  G_l is the fixed map ``_PAIR_READOUT``
    of the pair's six complex entries e_l, so the entries are summed and
    the map is applied to their sums.  The grid runs in windows of
    SPREAD_WINDOW samples.  On a window of samples t_c + k dt, |k| <= h,
    anchored at its centre t_c, each entry's sum is f_k = sum_l c_l
    exp(-i k x_l) with c_l = e_l exp(-i W_l t_c) and x_l = W_l dt: a
    type-1 non-uniform FFT, summed by Gaussian gridding (Dutt and
    Rokhlin, SIAM J. Sci. Comput. 14, 1368 (1993); Greengard and Lee,
    SIAM Rev. 46, 443 (2004)).  The blocks are read SPREAD_CHUNK at a
    time, with their anchored entries from :func:`_chunk_pairs`.  Each
    line sits at u_l = x_l n / (2 pi) on a periodic grid of n points, n
    the least multiple of SPREAD_HALF_WIDTH = m of at least SPREAD_RATIO
    x 2h, and adds c_l exp(-b (p - u_l)^2) to the points p of its group
    of m points and m more on each side.  So each group is one real GEMM
    of its lines' weights, (3m, lines), with their anchored entries,
    (lines, 12) floats, in block order and SPREAD_LINES lines at a time:
    at most 2**18 multiply-adds, which OpenBLAS runs on one thread.  One
    ``np.fft.fft`` of the grid then gives H_k = sqrt(pi/b)
    exp(-(pi k/n)^2/b) f_k of each entry, and the map reads the columns
    off the corrected f_k.

    Error bound: b = pi (n - h) / (n (m + 1/2)) balances the kernel's
    tails past m + 1/2 points against its aliases past the band |k| <= h,
    so each f_k is off by at most E sum |c_l| with E about
    3 exp(-pi (m + 1/2) (n - 2h) / (n - h)), 3e-15 at n = 4h.  Over the
    lines the |z d_i| add up to at most the mean population of level i,
    and the |z a_ij| to at most those of levels i and j, so through the
    map each column is off by at most 2 E, plus the rounding of the FFT
    times the kernel's largest inverse, about 75.  b comes from the n
    actually used, which exceeds 4h unless h is a multiple of 4.  As on
    the walk, a sample sits at its nominal t_c + k dt, within
    UNIFORM_ULPS ulp of its t.

    Beside the rows, a window holds its grid, (n + 2m, 12) floats
    transformed in place, and one chunk's lines and weights, whatever B
    and T are.  ``dt`` is the grid's step, by default its
    :func:`uniform_step`; ValueError reports a grid that is not uniform.
    """
    # imported here so that runs on the other evaluators do not load it
    from numpy.fft import fft

    if dt is None:
        dt = uniform_step(times)
    if not dt:
        raise ValueError("spread_rows needs a uniform grid of at least two samples")
    half_width = SPREAD_HALF_WIDTH
    rows = np.empty((len(times), len(SERIES_KEYS)))
    # one buffer for every window's grid: the first window is the largest
    buffer = np.empty((spread_points(min(len(times), SPREAD_WINDOW)) + 2 * half_width, 12))
    for first in range(0, len(times), SPREAD_WINDOW):
        last = min(first + SPREAD_WINDOW, len(times))
        centre = first + (last - first - 1) // 2
        h = (last - first) // 2  # the largest |k| of the window
        n = spread_points(last - first)
        b = math.pi * (n - h) / (n * (half_width + 0.5))
        grid = buffer[:n + 2 * half_width]  # points -m .. n + m - 1
        grid.fill(0.0)
        static = np.zeros(_READOUT.shape[1])
        for start in range(0, len(prop.index), SPREAD_CHUNK):
            chunk = prop[start:min(start + SPREAD_CHUNK, len(prop.index))]
            static += _spread_chunk(grid, chunk, times[centre], dt * n / (2.0 * math.pi), b)
        grid[n:n + half_width] += grid[:half_width]  # points -m .. -1 are n - m .. n - 1
        grid[half_width:2 * half_width] += grid[n + half_width:]  # n .. n + m - 1 are 0 .. m - 1
        spectrum = grid[half_width:n + half_width].view(complex)
        fft(spectrum, axis=0, out=spectrum)
        k = np.arange(first - centre, last - centre)
        kernel = np.exp(np.square(math.pi / n * k) / b) / math.sqrt(math.pi / b)
        corrected = spectrum[k] * kernel[:, None]
        window = rows[first:last, :12]
        # SPREAD_WINDOW x 12 x 12 multiply-adds at most, on one OpenBLAS thread
        np.matmul(corrected.view(float), _PAIR_READOUT, out=window)
        window += static
    np.add(rows[:, 9], rows[:, 10], out=rows[:, 12])
    rows[:, 12] += rows[:, 11]
    return rows


def _spread_chunk(grid: np.ndarray, chunk: BlockDiagonalPropagator, anchor: float,
                  scale: float, b: float) -> np.ndarray:
    """Spread the pair lines of ``chunk`` onto ``grid``; return their (12,) static part.

    ``grid`` is the float view, (n + 2m, 12), of the points -m .. n + m - 1
    of a :func:`spread_rows` window anchored at t = ``anchor``; a line of
    frequency W sits at u = W ``scale`` and has kernel exp(-b (p - u)^2).
    The lines are taken in groups of their nearest point's group of m
    points, in ascending order, and each group in block order.
    """
    half_width = SPREAD_HALF_WIDTH
    span = 3 * half_width  # grid points a group's lines reach
    n = len(grid) - 2 * half_width
    static, w, e = _chunk_pairs(chunk, anchor)
    u = w * scale
    nearest = np.rint(u)
    point = np.mod(nearest, n)
    group = point // half_width
    order = np.argsort(group, kind="stable")
    # each line's u from the first of its group's 3m points
    weights = np.subtract.outer((point - half_width * group + half_width + (u - nearest))[order],
                                np.arange(span))
    np.square(weights, out=weights)
    weights *= -b
    np.exp(weights, out=weights)
    entries = e[order].view(float)
    group = group[order]
    bounds = np.flatnonzero(np.concatenate([[True], group[1:] != group[:-1], [True]]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        at = int(group[lo]) * half_width
        for a in range(lo, hi, SPREAD_LINES):
            z = min(a + SPREAD_LINES, hi)
            grid[at:at + span] += weights[a:z].T @ entries[a:z]
    return static


def walk_rows(prop: BlockDiagonalPropagator, times: np.ndarray,
              dt: Optional[float] = None) -> np.ndarray:
    """The (T, 13) rows of ``prop``'s state on one segment of a uniform grid.

    Each readout vector is (upper -+ i partner)/sqrt(2) or a level, so the
    columns read only the populations and Im of the three coherences: R is
    kept as its six entries R_00, R_11, R_22, R_10, R_21, R_20, and the
    three above the diagonal, their conjugates, are never formed.

    The blocks are walked in the tiles of :func:`block_tiles`, one
    ``BlockDiagonalPropagator[a:b]`` each.  A tile starts from the exact
    eigenphases exp(-i w t_0) of :meth:`BlockDiagonalPropagator.phases`
    and multiplies them by exp(-i w dt) for each later sample, so the
    complex exponential runs once per tile instead of once per sample.  At
    each sample one ``amplitudes_at`` call sums the tile's modes with them,
    and three ``vecdot`` calls reduce the amplitudes into the tile's slot
    of the (tiles, T, 6) R: the populations, the coherences R_10 and R_21
    of adjacent levels, and R_20.  Every dot product is a complex one of at
    most REDUCE_CHUNK blocks, below the length at which OpenBLAS splits it
    over threads.  :func:`series_rows` adds the tiles' R in tile order and
    reads the rows off them, each on its own.

    ``dt`` is the grid's step, by default its :func:`uniform_step`; a
    caller walking one segment of a longer grid gives that grid's step, and
    a grid of one sample needs none.  Raises ValueError for any other grid
    that is not uniform or is longer than SEGMENT samples.
    """
    if dt is None:
        dt = uniform_step(times)
    if not 0 < len(times) <= SEGMENT or (len(times) > 1 and not dt):
        raise ValueError(f"walk_rows needs a uniform grid of at most {SEGMENT} samples, got "
                         f"{'a' if dt else 'a non-uniform'} grid of {len(times)}")
    tiles = [prop[start:stop] for start, stop in block_tiles(len(prop.index))]
    r = np.empty((len(tiles), len(times), 6), dtype=complex)
    for tile, slots in zip(tiles, r):
        step = tile.phases(dt)
        phases = tile.phases(times[0])
        for j, t in enumerate(times):
            if j:
                phases *= step
            a = tile.amplitudes_at(t, phases).T
            np.vecdot(a, a, out=slots[j, :3])
            np.vecdot(a[:2], a[1:], out=slots[j, 3:5])
            np.vecdot(a[:1], a[2:], out=slots[j, 5:])
            del a  # the next sample's terms then reuse its memory, warm in cache
    return series_rows(r, np.empty((len(times), len(SERIES_KEYS))))


def evaluator(blocks: int, samples: int, dt: float, lines: Optional[int] = None) -> str:
    """The evaluator, "walk", "lines" or "spread", that :func:`time_series` takes.

    ``samples`` is the run's sample count T and ``dt`` its grid's
    :func:`uniform_step`.  ``lines`` is the run's count of distinct
    :func:`pair_frequencies`, and None when they are not counted.  A grid
    of one sample is walked, and any other grid that is not uniform takes
    the lines.  On a uniform grid each candidate is charged its measured
    cost in microseconds on one CPU, and the cheapest is taken:

    - :func:`walk_rows`, up to SEGMENT samples: 12.1 a call of
      ``amplitudes_at``, one a sample and tile, 0.25 for its three
      reductions and its step, and 0.0132 a block-sample;
    - :func:`line_rows` with :func:`spectral_lines`, when the lines are
      counted: 104, then 0.79 a block, 1.87 a line and 0.0038 a
      line-sample;
    - :func:`spread_rows`, always: 131 a chunk of SPREAD_CHUNK blocks and
      1.39 a block in each window, then 0.27 a point of each window's grid.

    The costs were fitted to the minima of 348 timed runs (35 to 8463
    blocks, 3 to 4001 samples over 2 and 20 units of tau) and pick the
    fastest evaluator in 337; the 11 misses are within 1.33 of it but for
    two, 1.8 and 2.0.  The walk's call is its per-sample overhead, so the
    lines and the spread, whose costs do not grow with the calls, win from
    a few dozen samples at a few hundred blocks.  The lines' and the
    spread's per-block terms predate the six-entry pairs of
    :func:`_chunk_pairs` and now over-charge them: measured again on one
    CPU, the line build costs about 0.36 a block and 0.18 a line, and the
    spread about 1.0 a block a window in all.  They are kept until the
    constants are fitted again.
    """
    if samples == 1:
        return "walk"
    if not dt:
        return "lines"
    costs = {}
    if samples <= SEGMENT:
        costs["walk"] = samples * ((12.1 + 0.25) * len(block_tiles(blocks)) + 0.0132 * blocks)
    if lines is not None:
        costs["lines"] = 104.0 + 0.79 * blocks + 1.87 * lines + 0.0038 * lines * samples
    windows = [min(SPREAD_WINDOW, samples - first) for first in range(0, samples, SPREAD_WINDOW)]
    chunks = -(-blocks // SPREAD_CHUNK)
    costs["spread"] = sum(131.0 * chunks + 1.39 * blocks + 0.27 * spread_points(window)
                          for window in windows)
    return min(costs, key=costs.get)


def time_series(params: SystemParams, times: np.ndarray) -> dict[str, np.ndarray]:
    """Phase distributions and populations of all three transitions over a grid.

    This is the production path: every block is eigendecomposed once.
    All 13 columns are linear in the block-summed matrix
    R = sum_b a_b a_b^dagger of the member amplitudes a_b: each phase
    probability is <phi|R|phi> for a relative-phase eigenstate phi of a
    full block, the populations are diag R and the norm is tr R.

    Three evaluators share this, and :func:`evaluator` takes the one of
    least measured cost.  At two-photon resonance, delta_a == delta_b,
    the rule that already picks the closed-form eigensystems, every
    block's spectrum depends on the block only through its coupling norm
    s = hypot(g_a sqrt(n_a + 1), g_b sqrt(n_b + 1)).  With equal
    couplings s repeats across the blocks, and so do their pair
    frequencies w_k - w_l, bit for bit: weak_long's 507 pairs are 69
    distinct ones and scale_setup's 49923 are 933.  With unequal couplings
    they hardly repeat (g 1/0.8, delta 0.2, nbar 20/20: 6559 of 9075).  So
    a resonant run counts its distinct :func:`pair_frequencies`, and when
    that many lines are the cheapest, the propagator is reduced to
    :func:`spectral_lines`, released, and each row is the static term
    plus the merged lines, summed by :func:`line_rows`; weak_long makes
    no ``amplitudes_at`` call.  Any run on a uniform grid may instead grid
    its unmerged pair lines onto an oversampled FFT grid a window at a
    time (:func:`spread_rows`): detuned_grid's 8463 blocks and 1001
    samples take 34 chunks and one FFT of 2000 points.  A uniform grid of
    at most SEGMENT samples may also be walked, block by block at every
    sample (:func:`walk_rows`), and so is one of one sample.  Any other
    grid that is not uniform sums its lines, counted for a detuned run too,
    with an exact ``exp`` a sample.

    Returns a dict with one array per entry of ``SERIES_KEYS``; an empty
    grid gets empty arrays, and no block is built for it.  Raises
    ValueError for a grid that is not one-dimensional, holds a non-finite
    time or reaches a |t| whose :func:`phase_rounding` is too large.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1:
        raise ValueError(f"times must be a one-dimensional grid, got shape {times.shape}")
    bad = np.flatnonzero(~np.isfinite(times))
    if len(bad):
        raise ValueError(f"times must be finite, got {times[bad[0]]} at "
                         f"position {bad[0]}")
    phase_rounding(params, float(np.max(np.abs(times), initial=0.0)))
    if not len(times):
        return dict(zip(SERIES_KEYS, np.empty((len(SERIES_KEYS), 0))))
    prop = BlockDiagonalPropagator(params)
    dt = uniform_step(times)
    counted = len(times) != 1 and (params.delta_a == params.delta_b or not dt)
    frequencies = pair_frequencies(prop) if counted else None
    choice = evaluator(len(prop.index), len(times), dt,
                       None if frequencies is None else len(frequencies))
    if choice == "lines":
        lines = spectral_lines(prop, frequencies)
        del prop
        rows = line_rows(*lines, times, dt)
    elif choice == "spread":
        rows = spread_rows(prop, times, dt)
    else:
        rows = walk_rows(prop, times, dt)
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
