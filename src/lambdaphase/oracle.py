"""Brute-force reference dynamics on the full truncated product space.

Builds the interaction Hamiltonian as one dense matrix on
atom x Fock_a x Fock_b and evolves by dense Hermitian eigendecomposition.
This is the independent cross-check of the block-diagonal fast path: the
basis enumeration and the matrix elements here are written directly from
the coupling rules, sharing nothing with :mod:`.dynamics` beyond the
scalar parameters.  Desk scale only; the dense matrix is capped in bytes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams, block_members

# Cap on the dense Hamiltonian; eigh needs a few times this in workspace.
MAX_MATRIX_BYTES = 256 * 2**20


def _dimension(cutoff_a: int, cutoff_b: int) -> int:
    return 3 * (cutoff_a + 1) * (cutoff_b + 1)


@dataclass(frozen=True)
class FullSpaceOperator:
    """Dense operator on the truncated product space.

    Basis states are ordered lexicographically by (level, n_a, n_b) with
    level in 1..3 and photon numbers from 0 to the respective cutoff.
    """

    matrix: np.ndarray
    cutoff_a: int
    cutoff_b: int

    @property
    def dim(self) -> int:
        return _dimension(self.cutoff_a, self.cutoff_b)

    def state_index(self, level: int, n_a: int, n_b: int) -> int:
        """Flat index of the product state |level; n_a, n_b>."""
        if not (1 <= level <= 3 and 0 <= n_a <= self.cutoff_a
                and 0 <= n_b <= self.cutoff_b):
            raise ValueError(f"state ({level}, {n_a}, {n_b}) outside the "
                             "truncated space")
        return ((level - 1) * (self.cutoff_a + 1) + n_a) * (self.cutoff_b + 1) + n_b


def build_full_hamiltonian(params: SystemParams, cutoff_a: int,
                           cutoff_b: int) -> FullSpaceOperator:
    """Interaction Hamiltonian on the full truncated space.

    Detunings weigh the projectors on levels 1 and 2; mode a exchanges one
    photon with the 1<->3 dipole and mode b with 2<->3, with the standard
    bosonic matrix element sqrt(n) for annihilation from |n>.
    """
    if cutoff_a < 1 or cutoff_b < 1:
        raise ValueError("cutoffs must be >= 1")
    dim = _dimension(cutoff_a, cutoff_b)
    size = dim * dim * np.dtype(float).itemsize
    if size > MAX_MATRIX_BYTES:
        raise ValueError(f"full-space dimension {dim} needs a {size} byte matrix, "
                         f"above the desk-scale cap of {MAX_MATRIX_BYTES} bytes")
    # Every matrix element is real, so the matrix and its eigh are real.
    op = FullSpaceOperator(np.zeros((dim, dim)), cutoff_a, cutoff_b)
    h = op.matrix
    for n_a in range(cutoff_a + 1):
        for n_b in range(cutoff_b + 1):
            h[op.state_index(1, n_a, n_b), op.state_index(1, n_a, n_b)] = -params.delta_a
            h[op.state_index(2, n_a, n_b), op.state_index(2, n_a, n_b)] = -params.delta_b
            # |1; n_a, n_b> <-> |3; n_a - 1, n_b>: absorb one a photon.
            if n_a >= 1:
                row = op.state_index(3, n_a - 1, n_b)
                col = op.state_index(1, n_a, n_b)
                h[row, col] = params.g_a * math.sqrt(n_a)
                h[col, row] = params.g_a * math.sqrt(n_a)
            # |2; n_a, n_b> <-> |3; n_a, n_b - 1>: absorb one b photon.
            if n_b >= 1:
                row = op.state_index(3, n_a, n_b - 1)
                col = op.state_index(2, n_a, n_b)
                h[row, col] = params.g_b * math.sqrt(n_b)
                h[col, row] = params.g_b * math.sqrt(n_b)
    return op


def excitation_diagonals(cutoff_a: int, cutoff_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of the two conserved excitation-number operators.

    The a excitation counts a photons plus one unless the atom sits in
    level 1; the b excitation counts b photons plus one unless the atom
    sits in level 2.
    """
    dim = _dimension(cutoff_a, cutoff_b)
    diag_a = np.zeros(dim)
    diag_b = np.zeros(dim)
    k = 0
    for level in (1, 2, 3):
        for n_a in range(cutoff_a + 1):
            for n_b in range(cutoff_b + 1):
                diag_a[k] = n_a - (1 if level == 1 else 0) + 1
                diag_b[k] = n_b - (1 if level == 2 else 0) + 1
                k += 1
    return diag_a, diag_b


def embed_state(index, amplitudes: np.ndarray, cutoff_a: int,
                cutoff_b: int) -> np.ndarray:
    """Write a padded block state as a vector in the full-space basis.

    ``index`` and ``amplitudes`` are the (B, 2) excitation pairs and (B, 3)
    member amplitudes of :mod:`.dynamics`.  Every existing member of every
    block must fit under the cutoffs, which holds when the state was
    truncated at least one Fock level below them; blocks are then exactly
    representable and the full-space evolution of the embedded vector is
    leak free.  Raises ValueError for members outside the space.
    """
    n_a, n_b = block_members(index)
    present = (n_a >= 0) & (n_b >= 0)
    if np.any(present & ((n_a > cutoff_a) | (n_b > cutoff_b))):
        raise ValueError(f"block members lie outside the truncated space with "
                         f"cutoffs {cutoff_a}, {cutoff_b}")
    flat = (np.arange(3) * (cutoff_a + 1) + n_a) * (cutoff_b + 1) + n_b
    vec = np.zeros(_dimension(cutoff_a, cutoff_b), dtype=complex)
    vec[flat[present]] = np.asarray(amplitudes)[present]
    return vec


def full_evolve(op: FullSpaceOperator, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-i H t) psi0 by dense Hermitian eigendecomposition."""
    h = op.matrix
    if np.max(np.abs(h - h.conj().T)) > 1e-12:
        raise ValueError("full-space Hamiltonian is not Hermitian")
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError(f"initial vector norm is {np.linalg.norm(psi0):.12g}, "
                         "expected 1")
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))
