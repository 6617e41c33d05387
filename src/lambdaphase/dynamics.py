"""Exact dynamics of a lambda atom coupled to two quantized cavity modes.

Mode a drives the 1<->3 transition, mode b drives 2<->3, in the dipole and
rotating-wave approximations.  One excitation number per mode is conserved,
so the state space splits into invariant blocks labelled by the pair
(N_a, N_b).  Each block holds at most three product states, one per atomic
level, with photon numbers fixed by the offsets MU and NU below.

The state is one padded array: row b holds the amplitudes of the level-1,
2 and 3 members of block b, next to a (B, 2) array of excitation pairs.  A
member that would need a negative photon number does not exist and its
slot holds zero amplitude.  This is exact: the slot's coupling to the
surviving member carries a factor sqrt(0), so no amplitude ever enters
it.  Every block Hamiltonian is then a real symmetric 3x3 matrix.  At
two-photon resonance (equal detunings) a closed-form dark/bright split
diagonalizes all of them; otherwise analytic eigenvalues and
cross-product eigenvectors do, vectorized over all blocks, and LAPACK's
``eigh`` takes the few blocks whose eigenvalues nearly meet.  Either
gives the exact propagator of every block, and the state is held as the
three eigenmode amplitudes of each block.

Initial states are an atomic superposition times a two-mode coherent state
with real (zero-phase) Poissonian amplitudes.  The coherent ensemble is
truncated once, up front, to a window of photon numbers per mode that
drops both Poisson tails: because the excitation numbers are conserved,
the truncated set of blocks is closed under the evolution and no amplitude
ever leaks out of it.  Blocks are kept in ascending (N_a, N_b) order.
"""

import cmath
import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

# Photon-number offsets per atomic level: the member for level i in block
# (N_a, N_b) is |i; N_a - MU[i-1], N_b - NU[i-1]>.
MU = (0, 1, 1)
NU = (1, 0, 1)

# Largest Fock cutoff the truncation search considers, per mode.
MAX_PHOTONS = 100_000

# Share of epsilon that the Poisson table of photon_window leaves beyond
# its last entry.  The bound standing in for that weight is added to every
# upper tail in full, so a cutoff is one above the minimal one only when
# the true tail lies within TABLE_TAIL * epsilon of epsilon.
TABLE_TAIL = 1e-12

# Rounding allowance of the captured-weight check in initial_state.
CAPTURE_SLACK = 1e-12

# Cap on the blocks of the grid initial_state allocates.  The heaviest run, a
# detuned one on a grid that is not uniform, peaks at about 540 bytes per
# block (tracemalloc, 34595 blocks): the propagator's 184, the pair
# frequencies and a line table of 104 bytes a line, three lines a block.  So
# the cap keeps a run near 0.56 GB.
MAX_BLOCKS = 2**20


def require_finite(obj, names) -> None:
    """Raise ValueError naming the first attribute that is a bool or not a finite real."""
    for name in names:
        value = getattr(obj, name)
        if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                or not math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


@dataclass(frozen=True)
class SystemParams:
    """Full experiment configuration.

    Couplings and detunings are in the same frequency units; time is their
    inverse.  ``c`` holds the three initial atomic amplitudes and must be
    normalized.  ``epsilon`` is the probability weight allowed in the
    discarded tails of each mode, the lower and the upper together.
    """

    g_a: float
    g_b: float
    nbar_a: float
    nbar_b: float
    c: tuple[complex, complex, complex]
    delta_a: float = 0.0
    delta_b: float = 0.0
    epsilon: float = 1e-10

    def __post_init__(self):
        if any(isinstance(x, (bool, np.bool_)) for x in self.c):
            raise ValueError(f"c must hold numbers, not booleans, got {self.c}")
        object.__setattr__(self, "c", tuple(complex(x) for x in self.c))
        if len(self.c) != 3:
            raise ValueError(f"c must have three amplitudes, got {len(self.c)}")
        require_finite(self, ("g_a", "g_b", "nbar_a", "nbar_b", "delta_a", "delta_b",
                              "epsilon"))
        if not all(cmath.isfinite(x) for x in self.c):
            raise ValueError(f"c must hold finite amplitudes, got {self.c}")
        norm_sq = sum(abs(x) ** 2 for x in self.c)
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValueError(f"c must be normalized, |c|^2 = {norm_sq:.15g}")
        if self.g_a < 0 or self.g_b < 0:
            raise ValueError("couplings g_a, g_b must be >= 0")
        if self.nbar_a < 0 or self.nbar_b < 0:
            raise ValueError("mean photon numbers nbar_a, nbar_b must be >= 0")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")


def _stirlerr(n: int) -> float:
    """log(n!) - log(sqrt(2 pi n) (n / e)^n) for an integer n >= 1.

    Above 15 this is Stirling's series to the n^-9 term, whose next term is
    below 1e-16 there; at most 15, lgamma.
    """
    if n <= 15:
        return math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * math.log(2.0 * math.pi)
    nn = float(n) * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / nn) / nn) / nn) / nn) / n


def _bd0(x: int, mean: float) -> float:
    """x log(x / mean) + mean - x, without its cancellation when x is near mean.

    There, with v = (x - mean) / (x + mean), it is the series
    (x - mean) v + 2 x sum_{j >= 1} v^(2j+1) / (2j + 1), summed until a
    term no longer changes the sum.
    """
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = (x - mean) / (x + mean)
    total, term = (x - mean) * v, 2.0 * x * v
    for odd in range(3, 64, 2):
        term *= v * v
        total, last = total + term / odd, total
        if total == last:
            break
    return total


def poisson_probabilities(nbar: float, top: int) -> np.ndarray:
    """Poisson(nbar) probabilities of the photon numbers 0..top.

    The table is anchored at the mode m = floor(nbar): log p(m) =
    -stirlerr(m) - bd0(m, nbar) - log(2 pi m) / 2 (C. Loader, "Fast and
    accurate computation of binomial probabilities", 2000), free of the
    cancellation in m log(nbar) - nbar - log(m!), and log p(0) = -nbar for
    m = 0.  Cumulative sums of log(nbar / k) run outward from m, up and
    down, so an entry's rounding grows with its distance from the mode and
    not with nbar; no factorial is formed, and nothing passes through the
    subnormal range before the exponential, so probabilities far out in
    either tail underflow to zero.  Only a subnormal nbar makes a quotient
    nbar / k underflow to 0, whose log -inf gives that p(k) = 0 exactly
    and raises no warning.  Raises ValueError for a negative or
    non-finite ``nbar`` and for a ``top`` that is not an integer >= 0.
    """
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be a finite number >= 0, got {nbar}")
    if isinstance(top, bool) or not isinstance(top, (int, np.integer)) or top < 0:
        raise ValueError(f"top must be an integer >= 0, got {top!r}")
    if nbar == 0.0:
        return (np.arange(top + 1) == 0).astype(float)
    m = math.floor(nbar)
    anchor = (-nbar if m == 0 else
              -_stirlerr(m) - _bd0(m, nbar) - 0.5 * math.log(2.0 * math.pi * m))
    with np.errstate(divide="ignore"):  # log 0 = -inf: see the docstring
        steps = np.log(nbar / np.arange(1, max(top, m) + 1))  # log p(k) - log p(k - 1)
    log_p = np.empty(len(steps) + 1)  # log p(k) - log p(m)
    log_p[m] = 0.0
    np.cumsum(steps[m:], out=log_p[m + 1:])
    log_p[:m] = -np.cumsum(steps[:m][::-1])[::-1]
    return np.exp(log_p[:top + 1] + anchor)


def truncation_cutoff(nbar: float, epsilon: float) -> int:
    """Smallest N whose Poisson weight above it, sum(Q_n^2, n > N), is at most epsilon.

    This is ``photon_window(nbar, epsilon)[1]``.  Nothing in the package
    calls it: it stays for the benchmark's work counts
    (``perfbench/run.py``), until the benchmark catch-up of ROADMAP item 1
    reads :func:`photon_window` there.
    """
    return photon_window(nbar, epsilon)[1]


def photon_window(nbar: float, epsilon: float) -> tuple[int, int]:
    """Kept photon numbers [lo, N] of one mode under the epsilon rule.

    N is the smallest photon number whose upper tail is at most epsilon.
    With u the Poisson weight above N, lo is the largest number of leading
    photon numbers whose summed weight, a forward cumulative sum, is at
    most epsilon - u, so the two discarded tails together hold at most
    epsilon.

    Both come from one Poisson table of the photon numbers 0..top, which
    reaches past the Chernoff bound P(n >= nbar + x) <= exp(-x^2 /
    (2 (nbar + x))) for a tail of TABLE_TAIL * epsilon.  The bound at
    top + 1 stands in for the weight beyond the table; each upper tail is
    that bound plus a reverse cumulative sum of the table, never 1 minus a
    sum, so it keeps its accuracy however small it is.  Raises ValueError
    for a negative or non-finite ``nbar``, an epsilon outside (0, 1) and
    a table above MAX_PHOTONS entries.
    """
    if not (math.isfinite(nbar) and nbar >= 0):
        raise ValueError(f"nbar must be a finite number >= 0, got {nbar}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    log_tail = 1.0 - math.log(TABLE_TAIL * epsilon)
    top = math.ceil(nbar + log_tail + math.sqrt(log_tail * (log_tail + 2.0 * nbar)))
    if top > MAX_PHOTONS:
        raise ValueError(f"nbar = {nbar} needs a Fock cutoff near {top}, above "
                         f"the limit of {MAX_PHOTONS} photons")
    probabilities = poisson_probabilities(nbar, top)
    beyond = math.exp(-(top + 1 - nbar) ** 2 / (2.0 * (top + 1)))
    upper = np.cumsum(np.append(beyond, probabilities[:0:-1]))[::-1]
    cutoff = int(np.searchsorted(-upper, -epsilon))
    lower = np.cumsum(probabilities[:cutoff + 1])
    return int(np.searchsorted(lower, epsilon - upper[cutoff], side="right")), cutoff


def block_members(index) -> tuple[np.ndarray, np.ndarray]:
    """Photon numbers (n_a, n_b) of the level-1, 2 and 3 members of each block.

    ``index`` holds one excitation pair (N_a, N_b) per row; both results
    have shape (B, 3), one column per atomic level.  A member with a
    negative photon number does not exist.  Raises ValueError for negative
    excitation numbers and for the pair (0, 0), whose block has no member.
    """
    index = np.asarray(index, dtype=int).reshape(-1, 2)
    if np.any(index < 0):
        raise ValueError("excitation numbers must be >= 0")
    if np.any(np.all(index == 0, axis=1)):
        raise ValueError("block (0, 0) has no members")
    return index[:, :1] - np.array(MU), index[:, 1:] - np.array(NU)


def block_couplings(params: SystemParams, index) -> tuple[np.ndarray, np.ndarray]:
    """Couplings g_a sqrt(N_a) (1<->3) and g_b sqrt(N_b) (2<->3) of every block.

    Each is the sqrt(photon) matrix element of the lower member of its
    transition; validation as in :func:`block_members`.
    """
    n_a, n_b = block_members(index)
    return params.g_a * np.sqrt(n_a[:, 0]), params.g_b * np.sqrt(n_b[:, 1])


def block_hamiltonians(params: SystemParams, index) -> np.ndarray:
    """Interaction Hamiltonian of every block, shape (B, 3, 3), in level order.

    Each block is the real symmetric matrix

        [[-delta_a,        0,  g_a sqrt(N_a)],
         [       0, -delta_b,  g_b sqrt(N_b)],
         [g_a sqrt(N_a), g_b sqrt(N_b),   0]]

    since the detunings weigh the two lower-level projectors and each mode
    couples its lower level to level 3 with the sqrt(photon) matrix
    element of the lower member (:func:`block_couplings`).  Blocks with a
    missing member keep the full 3x3 form: the missing member's slot is
    decoupled from the surviving member, because their coupling carries a
    factor sqrt(0).
    """
    return _arrowheads(params.delta_a, params.delta_b, *block_couplings(params, index))


def _arrowheads(delta_a: float, delta_b: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The blocks [[-delta_a, 0, x], [0, -delta_b, y], [x, y, 0]], shape (B, 3, 3)."""
    h = np.zeros((len(x), 3, 3))
    h[:, 0, 0] = -delta_a
    h[:, 1, 1] = -delta_b
    h[:, 0, 2] = h[:, 2, 0] = x
    h[:, 1, 2] = h[:, 2, 1] = y
    return h


def initial_state(params: SystemParams) -> tuple[np.ndarray, np.ndarray]:
    """Product of the atomic superposition and the two-mode coherent state.

    Each mode keeps the photon numbers of its :func:`photon_window`
    [lo, N], which discards both tails of its Poisson ladder.  The
    amplitude of the level-j member of block (N_a, N_b) is
    Q_a(N_a - MU[j-1]) Q_b(N_b - NU[j-1]) c_j whenever both photon numbers
    fall inside the kept windows, and zero otherwise.

    Returns ``(index, amplitudes)``: the (B, 2) excitation pairs of the
    blocks with nonzero weight, in ascending (N_a, N_b) order, and their
    (B, 3) member amplitudes, a transposed view of a level-major array.
    The captured state is renormalized to exactly 1; its squared norm
    before that must be at least (1 - epsilon)^2, and RuntimeError reports
    a truncation that captured less than 1 - 2 epsilon.  ValueError
    reports windows whose grid would hold more than MAX_BLOCKS blocks,
    before the grid is allocated.
    """
    lo_a, cutoff_a = photon_window(params.nbar_a, params.epsilon)
    lo_b, cutoff_b = photon_window(params.nbar_b, params.epsilon)
    blocks = (cutoff_a - lo_a + 2) * (cutoff_b - lo_b + 2)
    if blocks > MAX_BLOCKS:
        raise ValueError(f"nbar_a = {params.nbar_a} and nbar_b = {params.nbar_b} "
                         f"need {blocks} blocks, above the cap of {MAX_BLOCKS}")
    weights_a = np.sqrt(poisson_probabilities(params.nbar_a, cutoff_a)[lo_a:])
    weights_b = np.sqrt(poisson_probabilities(params.nbar_b, cutoff_b)[lo_b:])
    weights = np.multiply.outer(weights_a, weights_b)

    # grid[j, N_a - lo_a, N_b - lo_b] is the level-j member of block (N_a, N_b):
    # the window's weights shifted by the member's photon offsets.  Blocks
    # past either window's upper edge by one still hold a member inside it.
    rows, cols = weights.shape
    grid = np.zeros((3, rows + 1, cols + 1), dtype=complex)
    for level, (mu, nu) in enumerate(zip(MU, NU)):
        np.multiply(weights, params.c[level], out=grid[level, mu:mu + rows, nu:nu + cols])
    keep = np.any(grid != 0, axis=0)  # (0, 0) has no member, so it is never kept
    index = np.argwhere(keep) + (lo_a, lo_b)
    amplitudes = np.compress(keep.ravel(), grid.reshape(3, -1), axis=1)
    captured = float(np.sum(np.square(amplitudes.view(float))))
    if not captured >= 1.0 - 2.0 * params.epsilon - CAPTURE_SLACK:
        raise RuntimeError(f"truncation at cutoffs {cutoff_a}, {cutoff_b} captured "
                           f"Poisson weight {captured:.17g}, below 1 - 2 epsilon")
    amplitudes /= math.sqrt(captured)
    return index, amplitudes.T


def _jacobi_rotation(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, ...]:
    """tan, cos and sin of the rotation that zeroes a_pq, with d = a_qq - a_pp.

    t = 2 a_pq sgn(d) / (|d| + hypot(d, 2 a_pq)), and t = 0 where the
    denominator is 0.  a_pq and d are first scaled by the power of two that
    brings the larger of them into [1/2, 1).  The scaling is exact and
    leaves t as it is, and hypot is then sqrt(d^2 + 4 a_pq^2): d^2 + 4 a_pq^2
    cannot overflow, and its terms cannot both underflow to 0, which would
    give t = 2 a_pq / |d| instead of the rotation.  The rotation moves a_pp
    to a_pp - t a_pq and a_qq to a_qq + t a_pq.
    """
    exponent = np.frexp(np.maximum(np.abs(a), np.abs(d)))[1]
    a, d = np.ldexp(a, -exponent), np.ldexp(d, -exponent)
    denominator = np.abs(d) + np.sqrt(d * d + 4.0 * a * a)
    t = np.divide(2.0 * a * np.copysign(1.0, d), denominator,
                  out=np.zeros_like(d), where=denominator > 0)
    c = 1.0 / np.sqrt(1.0 + t * t)
    return t, c, t * c


def resonant_eigh(delta: float, x: np.ndarray,
                  y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form eigensystems of the blocks [[-delta, 0, x], [0, -delta, y], [x, y, 0]].

    At two-photon resonance (equal detunings) every block splits into the
    dark state (y, -x, 0)/s at -delta, s = hypot(x, y), and the bright pair
    [[-delta, s], [s, 0]] on (x, y, 0)/s and level 3 (coherent population
    trapping; Arimondo, Prog. Opt. 35, 257 (1996)); s = 0 takes (1, 0, 0)
    for (x, y, 0)/s.  One :func:`_jacobi_rotation` of the bright pair, with
    p its entry of lower diagonal, finishes the job.  Its eigenvalues

        min(-delta, 0) - t s  <=  -delta  <=  max(-delta, 0) + t s

    come out ascending, so nothing is sorted.  Returns what
    ``np.linalg.eigh`` returns: the eigenvalues (B, 3) in ascending order
    and the eigenvectors (B, 3, 3) as matching columns.
    """
    # (x, y) is scaled by a power of two, which is exact: a subnormal
    # (x, y) would lose the norm of (x, y, 0)/s.  _jacobi_rotation scales
    # (s, delta) in the same way.
    exponent = np.frexp(np.maximum(x, y))[1]
    x, y = np.ldexp(x, -exponent), np.ldexp(y, -exponent)
    s = np.hypot(x, y)
    u = np.divide(x, s, out=np.ones_like(s), where=s > 0)
    v = np.divide(y, s, out=np.zeros_like(s), where=s > 0)
    s = np.ldexp(s, exponent)
    t, c, sin = _jacobi_rotation(s, abs(delta))
    t *= s
    values = np.empty((3, len(s)))
    values[0] = min(-delta, 0.0) - t
    values[1] = -delta
    values[2] = max(-delta, 0.0) + t
    # p is (x, y, 0)/s for delta >= 0 and level 3 otherwise; the rotation
    # gives the lower eigenvector c p - sin q and the upper one sin p + c q
    if delta >= 0:
        (bright_low, bright_up), (top_low, top_up) = (c, sin), (-sin, c)
    else:
        (bright_low, bright_up), (top_low, top_up) = (-sin, c), (c, sin)
    vectors = np.array([[bright_low * u, v, bright_up * u],  # [i, j, b] = V_b[i, j]
                        [bright_low * v, -u, bright_up * v],
                        [top_low, np.zeros_like(s), top_up]])
    return values.T, vectors.transpose(2, 0, 1)


# Acceptance bounds of :func:`detuned_eigh`, in units of eps: the largest
# entry of a block's residual H V - V diag(lambda) against its largest
# |eigenvalue|, and the largest entry of V^T V - I.
_DETUNED_RESIDUAL = 5.0
_DETUNED_GRAM = 8.0


def _arrowhead_eigenvalues(a: np.ndarray, b: np.ndarray, x: np.ndarray,
                           y: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues (3, B) of the blocks [[a, 0, x], [0, b, y], [x, y, 0]].

    With m the mean of the diagonal, K = H - m I, p = |K|_F^2 / 6 and
    q = det(K) / 2, they are m + 2 sqrt(p) cos(phi + 2 pi k / 3) for
    k = 1, 2, 0, with phi = arccos(q / p^(3/2)) / 3 in [0, pi / 3] (Smith,
    Commun. ACM 4, 168 (1961)).
    """
    m = (a + b) / 3.0
    ka, kb = a - m, b - m
    x2, y2 = x * x, y * y
    p = (ka * ka + kb * kb + m * m + 2.0 * (x2 + y2)) / 6.0
    q = (ka * (-m * kb - y2) - kb * x2) / 2.0
    root = np.sqrt(p)
    phi = np.arccos(np.clip(q / (p * root), -1.0, 1.0)) / 3.0
    # cos(phi -+ 2 pi / 3) = -(cos(phi) +- sqrt(3) sin(phi)) / 2
    cos, sin = np.cos(phi), math.sqrt(3.0) * np.sin(phi)
    values = np.stack([-(cos + sin), sin - cos, 2.0 * cos])
    values *= root
    values += m
    return values


def _arrowhead_eigenvectors(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray,
                            values: np.ndarray) -> np.ndarray:
    """Eigenvectors (3, 3, B), [i, j, b] = V_b[i, j], of the blocks of
    :func:`_arrowhead_eigenvalues` for their ascending ``values``.

    The lowest and the highest are each the largest of the three cross
    products of the rows (a - lambda, 0, x), (0, b - lambda, y) and
    (x, y, -lambda) of H - lambda I.  The highest is orthogonalized
    against the lowest, and the middle one is their cross product.
    """
    vectors = np.empty((3, 3, len(a)))
    ends = vectors[:, ::2]  # the lowest and the highest, (3, 2, B)
    ends_values = values[::2]
    da, db = a - ends_values, b - ends_values
    xy = x * y

    def cross(k: int, out: np.ndarray) -> None:
        """Cross product k of the rows, up to sign, into ``out`` (3, 2, B)."""
        if k == 0:  # rows 0 and 1
            np.multiply(x, db, out=out[0])
            np.multiply(y, da, out=out[1])
            np.multiply(da, db, out=out[2])
            np.negative(out[2], out=out[2])
        elif k == 1:  # rows 0 and 2
            out[0] = -xy
            np.multiply(ends_values, da, out=out[1])
            out[1] += x * x
            np.multiply(y, da, out=out[2])
        else:  # rows 1 and 2
            np.multiply(ends_values, db, out=out[0])
            out[0] += y * y
            out[1] = -xy
            np.multiply(x, db, out=out[2])

    # the (2, B) and larger arrays are written in place: fresh ones of that
    # size cost more to allocate than to compute
    cross(0, ends)
    size = np.einsum("ijk,ijk->jk", ends, ends)
    candidate, candidate_size = np.empty_like(ends), np.empty_like(size)
    for k in (1, 2):
        cross(k, candidate)
        np.einsum("ijk,ijk->jk", candidate, candidate, out=candidate_size)
        larger = candidate_size > size
        np.copyto(ends, candidate, where=larger)
        np.copyto(size, candidate_size, where=larger)
    ends /= np.sqrt(size, out=size)
    low, high = vectors[:, 0], vectors[:, 2]
    high -= np.einsum("ik,ik->k", low, high) * low
    high /= np.sqrt(np.einsum("ik,ik->k", high, high))
    for i in range(3):  # the middle one, high x low (np.cross is slower)
        j, k = (i + 1) % 3, (i + 2) % 3
        np.multiply(high[j], low[k], out=vectors[i, 1])
        vectors[i, 1] -= high[k] * low[j]
    return vectors


def _rayleigh_quotients(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray,
                        vectors: np.ndarray) -> np.ndarray:
    """v^T H v of the unit eigenvectors ``vectors`` (3, 3, B) of the blocks, shape (3, B).

    a v_0^2 + b v_1^2 + 2 v_2 (x v_0 + y v_1): its error is second order
    in the error of v, so it sharpens the eigenvalues that v was built from.
    """
    values = x * vectors[0]
    values += y * vectors[1]
    values *= 2.0 * vectors[2]
    square = np.square(vectors[0])
    square *= a
    values += square
    np.square(vectors[1], out=square)
    square *= b
    values += square
    return values


def _accepted(a: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray,
              values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Blocks whose eigensystem passes the checks of :func:`detuned_eigh`, shape (B,)."""
    eps = np.finfo(float).eps
    # the rows of the residual H V - V diag(lambda), in place as in
    # _arrowhead_eigenvectors
    row = a - values
    row *= vectors[0]
    row += x * vectors[2]
    residual = np.abs(row)
    np.subtract(b, values, out=row)
    row *= vectors[1]
    row += y * vectors[2]
    np.maximum(residual, np.abs(row, out=row), out=residual)
    np.multiply(x, vectors[0], out=row)
    row += y * vectors[1]
    row -= values * vectors[2]
    np.maximum(residual, np.abs(row, out=row), out=residual)
    gram = np.einsum("ijk,ilk->jlk", vectors, vectors).reshape(9, -1)
    gram[::4] -= 1.0
    return ((np.max(residual, axis=0)
             <= _DETUNED_RESIDUAL * eps * np.max(np.abs(values), axis=0))
            & (np.max(np.abs(gram, out=gram), axis=0) <= _DETUNED_GRAM * eps)
            & (values[0] <= values[1]) & (values[1] <= values[2]))


def detuned_eigh(delta_a: float, delta_b: float, x: np.ndarray,
                 y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystems of the blocks [[-delta_a, 0, x], [0, -delta_b, y], [x, y, 0]].

    The counterpart of :func:`resonant_eigh` for unequal detunings, in a
    fixed number of whole-array passes with no sweeps: analytic
    eigenvalues (:func:`_arrowhead_eigenvalues`), cross-product
    eigenvectors for them (:func:`_arrowhead_eigenvectors`) and the
    vectors' Rayleigh quotients as the final eigenvalues, the hybrid of
    Kopp (Int. J. Mod. Phys. C 19, 523 (2008)).  Each block is first
    scaled by a power of two to a largest entry in [1/2, 1), which is
    exact.  A block is accepted when its eigenvalues ascend, its columns
    are orthonormal to _DETUNED_GRAM eps and its residual is at most
    _DETUNED_RESIDUAL eps times its largest |eigenvalue|; NaN fails.
    Cross products lose their accuracy where two eigenvalues nearly meet,
    and the blocks they fail on go to ``np.linalg.eigh`` in one stack.
    Returns what ``np.linalg.eigh`` returns, as :func:`resonant_eigh` does.
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    exponent = np.frexp(np.maximum(np.maximum(x, y), max(abs(delta_a), abs(delta_b))))[1]
    a, b = np.ldexp(-delta_a, -exponent), np.ldexp(-delta_b, -exponent)
    xs, ys = np.ldexp(x, -exponent), np.ldexp(y, -exponent)
    # a degenerate or zero block makes 0 / 0 on its way to the check, which
    # NaN fails
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _arrowhead_eigenvalues(a, b, xs, ys)
        vectors = _arrowhead_eigenvectors(a, b, xs, ys, values)
        values = _rayleigh_quotients(a, b, xs, ys, vectors)
        rejected = np.flatnonzero(~_accepted(a, b, xs, ys, values, vectors))
    values = np.ldexp(values, exponent)
    if len(rejected):
        fallback_values, fallback_vectors = np.linalg.eigh(
            _arrowheads(delta_a, delta_b, x[rejected], y[rejected]))
        values[:, rejected] = fallback_values.T
        vectors[:, :, rejected] = fallback_vectors.transpose(1, 2, 0)
    return values.T, vectors.transpose(2, 0, 1)


def block_eigensystems(params: SystemParams, index) -> tuple[np.ndarray, np.ndarray]:
    """Eigenfrequencies (3, B) and real eigenvectors (3, 3, B) of the blocks ``index``.

    ``vectors[i, k, b]`` is entry i of the eigenvector of ``frequencies[k, b]``,
    ascending in k.  This is the one choice of eigensolver:
    :func:`resonant_eigh` when delta_a == delta_b, :func:`detuned_eigh` otherwise.
    """
    couplings = block_couplings(params, index)
    if params.delta_a == params.delta_b:
        values, vectors = resonant_eigh(params.delta_a, *couplings)
    else:
        values, vectors = detuned_eigh(params.delta_a, params.delta_b, *couplings)
    return values.T, vectors.transpose(1, 2, 0)


def block_propagators(params: SystemParams, index, t: float) -> np.ndarray:
    """Propagators exp(-i H t) of the blocks ``index``, shape (B, 3, 3); negative t runs back."""
    if not math.isfinite(t):
        raise ValueError(f"t must be a finite time, got {t!r}")
    frequencies, vectors = block_eigensystems(params, index)
    return np.einsum("ikb,kb,jkb->bij", vectors, np.exp((-1j * t) * frequencies), vectors)


class BlockDiagonalPropagator:
    """The initial state held as the eigenmode amplitudes of every block.

    Every block state evolves as a sum of three eigenmodes,
    a(t) = sum_k exp(-i w_k t) a_k, with a_k = V[:, k] c0_k and
    c0 = V^T a(0) for the real eigenvectors V of :func:`block_eigensystems`
    and the amplitudes a(0) of :func:`initial_state`.  Three per-block
    arrays are kept, 184 bytes a block: the excitation pairs ``index``
    (B, 2), the w_k as ``frequencies`` (3, B) and the a_k as ``modes``
    (3, 3, B) complex, ``modes[i, k, b]`` = V_b[i, k] c0_b[k].

    ``prop[a:b]`` is the propagator of the contiguous blocks a..b-1: its
    arrays are views of these, and every method gives the same slice of
    this propagator's result, bit for bit.
    """

    def __init__(self, params: SystemParams):
        self.index, initial = initial_state(params)
        self.frequencies, vectors = block_eigensystems(params, self.index)
        # c0 = V^T a(0) on a(0)'s float view; a(0) goes before the modes exist
        coefficients = np.einsum("ikb,ibr->kbr", vectors,
                                 initial.T.view(float).reshape(3, -1, 2))
        del initial
        self.modes = np.empty(vectors.shape, dtype=complex)
        np.multiply(vectors, coefficients.view(complex)[:, :, 0], out=self.modes)

    def __getitem__(self, blocks: slice) -> "BlockDiagonalPropagator":
        """Propagator of the blocks in ``blocks``, a slice a:b with 0 <= a < b <= B.

        Nothing is copied and ``__init__`` does not run.  Raises ValueError
        naming ``blocks`` for anything but such a slice.
        """
        count = len(self.index)
        if isinstance(blocks, slice) and blocks.step in (None, 1):
            start = 0 if blocks.start is None else blocks.start
            stop = count if blocks.stop is None else blocks.stop
            if 0 <= start < stop <= count:
                tile = object.__new__(BlockDiagonalPropagator)
                tile.index = self.index[start:stop]
                tile.frequencies = self.frequencies[:, start:stop]
                tile.modes = self.modes[:, :, start:stop]
                return tile
        raise ValueError(f"blocks must be a slice a:b with 0 <= a < b <= {count}, "
                         f"got {blocks!r}")

    def phases(self, t: float) -> np.ndarray:
        """Eigenphases exp(-i w t) of every block, shape (3, B); ValueError for a non-finite t."""
        if not math.isfinite(t):
            raise ValueError(f"t must be a finite time, got {t!r}")
        phases = (-1j * t) * self.frequencies
        return np.exp(phases, out=phases)

    def amplitudes_at(self, t: float, phases: Optional[np.ndarray] = None) -> np.ndarray:
        """Member amplitudes sum_k phases_k a_k of every block at time t, shape (B, 3).

        Rows follow ``index``; columns are the atomic levels 1, 2, 3.
        ``phases`` are :meth:`phases` at t, or as a caller walking a uniform
        grid stepped them, and then ``t`` is unused.  ValueError reports
        ``phases`` of another shape or dtype, which would broadcast.  The
        result is a transposed view of the first of the three new level-major
        (3, B) terms phases_k a_k that the sum is formed in.
        """
        if phases is None:
            phases = self.phases(t)
        elif phases.shape != self.frequencies.shape or phases.dtype != self.modes.dtype:
            raise ValueError(f"phases must be a complex128 array of shape "
                             f"{self.frequencies.shape}, got {phases.dtype} {phases.shape}")
        # one broadcast product into mode-major terms summed in place: numpy's
        # per-call cost dominates at a few hundred blocks, so fewer calls pay
        terms = np.empty((3, *phases.shape), dtype=complex)  # [k, i, b] = phases_k a_ik
        np.multiply(self.modes.transpose(1, 0, 2), phases[:, None], out=terms)
        terms[0] += terms[1]
        terms[0] += terms[2]
        return terms[0].T
