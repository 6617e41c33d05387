"""Brute-force reference on the full truncated product space.

This module owns the space atom x Fock_a x Fock_b: its basis, flat index
and dressed ladder operators, on which it builds the interaction
Hamiltonian as one dense matrix and evolves by dense eigendecomposition.
This is the independent cross-check of the block-diagonal fast path: the
matrix elements are written directly from the coupling rules, sharing
nothing with :mod:`.dynamics` beyond the scalar parameters.  Desk scale
only; the dense matrix is capped in bytes.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import SystemParams, block_members

# Cap on the dense Hamiltonian; eigh needs a few times this in workspace.
MAX_MATRIX_BYTES = 256 * 2**20


def _dimension(cutoff_a: int, cutoff_b: int) -> int:
    return 3 * (cutoff_a + 1) * (cutoff_b + 1)


def flat_index(level, n_a, n_b, cutoff_a: int, cutoff_b: int):
    """Unchecked flat index of |level; n_a, n_b>, elementwise over arrays.

    The basis is ordered lexicographically by (level, n_a, n_b), level in
    1..3 and each photon number from 0 to its cutoff.
    """
    return ((level - 1) * (cutoff_a + 1) + n_a) * (cutoff_b + 1) + n_b


def basis_states(cutoff_a: int, cutoff_b: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Level, n_a and n_b of every basis state, in flat-index order."""
    level, n_a, n_b = np.indices((3, cutoff_a + 1, cutoff_b + 1)).reshape(3, -1)
    return level + 1, n_a, n_b


def dressed_ladders(cutoff_a: int,
                    cutoff_b: int) -> dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Entries (rows, cols, values) of the real dressed raising operators.

    "13" is a x |3><1|, "23" is b x |3><2| and "12" is a b^dagger x |2><1|,
    with sqrt(n) for annihilation from |n> and sqrt(n + 1) for creation.
    Their transposes are the dressed lowering operators.
    """
    level, n_a, n_b = basis_states(cutoff_a, cutoff_b)
    root_a = np.sqrt(n_a)
    # source states, then the target's level and photon numbers and the element
    moves = {
        "13": ((level == 1) & (n_a >= 1), 3, n_a - 1, n_b, root_a),
        "23": ((level == 2) & (n_b >= 1), 3, n_a, n_b - 1, np.sqrt(n_b)),
        "12": ((level == 1) & (n_a >= 1) & (n_b < cutoff_b), 2, n_a - 1, n_b + 1,
               root_a * np.sqrt(n_b + 1)),
    }
    return {name: (flat_index(upper, m_a[src], m_b[src], cutoff_a, cutoff_b),
                   np.flatnonzero(src), value[src])
            for name, (src, upper, m_a, m_b, value) in moves.items()}


@dataclass(frozen=True)
class FullSpaceOperator:
    """Dense operator on the truncated product space, in the basis of :func:`flat_index`."""

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
        return flat_index(level, n_a, n_b, self.cutoff_a, self.cutoff_b)


def build_full_hamiltonian(params: SystemParams, cutoff_a: int,
                           cutoff_b: int) -> FullSpaceOperator:
    """Interaction Hamiltonian on the full truncated space.

    H = -delta_a P1 - delta_b P2 + g_a (A13 + A13^T) + g_b (A23 + A23^T)
    with the dressed raising operators A of :func:`dressed_ladders`.  The
    cap is checked before any allocation; no other array of the matrix's
    size is formed.
    """
    if cutoff_a < 1 or cutoff_b < 1:
        raise ValueError("cutoffs must be >= 1")
    dim = _dimension(cutoff_a, cutoff_b)
    size = dim * dim * np.dtype(float).itemsize
    if size > MAX_MATRIX_BYTES:
        raise ValueError(f"full-space dimension {dim} needs a {size} byte matrix, "
                         f"above the desk-scale cap of {MAX_MATRIX_BYTES} bytes")
    # Every matrix element is real, so the matrix and its eigh are real.
    h = np.zeros((dim, dim))
    level = basis_states(cutoff_a, cutoff_b)[0]
    h[np.diag_indices(dim)] = np.select([level == 1, level == 2],
                                        [-params.delta_a, -params.delta_b])
    ladders = dressed_ladders(cutoff_a, cutoff_b)
    for g, name in ((params.g_a, "13"), (params.g_b, "23")):
        rows, cols, values = ladders[name]
        h[rows, cols] = h[cols, rows] = g * values
    return FullSpaceOperator(h, cutoff_a, cutoff_b)


def excitation_diagonals(cutoff_a: int, cutoff_b: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonals of the two conserved excitation-number operators.

    The a excitation counts a photons plus one unless the atom sits in
    level 1; the b excitation counts b photons plus one unless the atom
    sits in level 2.
    """
    level, n_a, n_b = basis_states(cutoff_a, cutoff_b)
    return (n_a + (level != 1)).astype(float), (n_b + (level != 2)).astype(float)


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
    flat = flat_index(np.arange(1, 4), n_a, n_b, cutoff_a, cutoff_b)
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
