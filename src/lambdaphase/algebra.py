"""Phase operators for a bare three-level atom in the lambda configuration.

Levels are labelled 1, 2, 3 in order of increasing energy.  The dipole
transitions 1<->3 and 2<->3 are allowed, 1<->2 is forbidden.  The nine
transition generators |j><i| span u(3); each allowed transition carries
an su(2)-like triple (raising, lowering, inversion).  Polar decomposition
of a lowering operator yields a unitary "phase exponential" whose
spectrum has exactly three points, so a phase measurement on a single
transition can return only 0 or +-pi/2.

All operators are dense 3x3 complex arrays and all functions are pure,
so values can be shared freely between threads.
"""

import math
from typing import Callable

import numpy as np

LEVELS = (1, 2, 3)

# Transitions with an allowed dipole and hence a bare polar decomposition.
POLAR_TRANSITIONS = ("13", "23")
ALL_TRANSITIONS = ("13", "23", "12")

PHASE_EIGENVALUES = np.array([0.0, np.pi / 2, -np.pi / 2])

# Unitarity leaves one free phase in the polar decomposition.  Requiring
# that complex conjugation of a lower/upper superposition negate the mean
# phase fixes it to -1 for both allowed transitions.
CONVENTION_PHASE = -1.0


def _check_level(i: int) -> int:
    if i not in LEVELS:
        raise ValueError(f"atomic level must be 1, 2 or 3, got {i!r}")
    return i


def transition_levels(transition: str) -> tuple[int, int]:
    """Return the (lower, upper) level pair of a transition label."""
    pairs = {"13": (1, 3), "23": (2, 3), "12": (1, 2)}
    try:
        return pairs[str(transition)]
    except KeyError:
        raise ValueError(f"unknown transition {transition!r}, expected one of "
                         f"{ALL_TRANSITIONS}") from None


def generator(i: int, j: int) -> np.ndarray:
    """u(3) generator |j><i|: transfers level i to level j.

    The matrix has a single unit entry at row j, column i (1-based
    level indices).  Diagonal generators are the level projectors.
    """
    _check_level(i)
    _check_level(j)
    op = np.zeros((3, 3), dtype=complex)
    op[j - 1, i - 1] = 1.0
    return op


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The commutator [a, b] = a b - b a of two square matrices."""
    return a @ b - b @ a


def raising(transition: str) -> np.ndarray:
    """Ladder operator taking the lower level of the transition to the upper."""
    lower, upper = transition_levels(transition)
    return generator(lower, upper)


def lowering(transition: str) -> np.ndarray:
    """Ladder operator taking the upper level of the transition to the lower."""
    lower, upper = transition_levels(transition)
    return generator(upper, lower)


def inversion(transition: str) -> np.ndarray:
    """Traceless population-inversion operator (upper minus lower)/2."""
    lower, upper = transition_levels(transition)
    return (generator(upper, upper) - generator(lower, lower)) / 2.0


def spectator_level(transition: str) -> int:
    """The level not taking part in the transition."""
    lower, upper = transition_levels(transition)
    (spect,) = set(LEVELS) - {lower, upper}
    return spect


def phase_exponential(transition: str) -> np.ndarray:
    """Unitary solution of the polar decomposition of the lowering operator.

    For transition l<->u with spectator s:

        E = |l><u| + c |u><l| - conj(c) |s><s|,    c = CONVENTION_PHASE

    It satisfies  lowering = sqrt(lowering @ raising) @ E  and is unitary.
    The 1<->2 pair has no dipole; its E is the formal operator of the
    same form, which is also the in-block relative-phase exponential of
    the dressed 1<->2 pair.
    """
    lower, upper = transition_levels(transition)
    spect = spectator_level(transition)
    c = complex(CONVENTION_PHASE)
    return (generator(upper, lower) + c * generator(lower, upper)
            - np.conj(c) * generator(spect, spect))


def phase_eigensystem(transition: str) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of the phase exponential of a transition.

    Returns ``(eigenvalues, eigenvectors)``, the pair order of
    ``np.linalg.eigh``: ``eigenvectors[:, k]`` belongs to ``eigenvalues[k]``,
    a copy of PHASE_EIGENVALUES (0, +pi/2, -pi/2) for the labels "0", "+", "-".
    The spectator level carries phase 0.  The "+" and "-" labels are tied
    to the operator: the phase exponential has eigenvalue exp(+i pi/2) on
    the "+" eigenvector (upper - i lower)/sqrt(2) and exp(-i pi/2) on the
    "-" eigenvector (upper + i lower)/sqrt(2).
    """
    lower, upper = transition_levels(transition)
    vectors = np.zeros((3, 3), dtype=complex)
    vectors[spectator_level(transition) - 1, 0] = 1.0
    vectors[upper - 1, 1:] = 1.0 / math.sqrt(2.0)
    vectors[lower - 1, 1] = -1j / math.sqrt(2.0)
    vectors[lower - 1, 2] = 1j / math.sqrt(2.0)
    return PHASE_EIGENVALUES.copy(), vectors


def phase_operator(transition: str) -> np.ndarray:
    """Hermitian phase operator, log of the phase exponential."""
    values, v = phase_eigensystem(transition)
    return (v * values) @ v.conj().T


def verify_polar_identity(transition: str, low: np.ndarray | None = None) -> float:
    """Max-entry residual of L - sqrt(L @ L^dagger) @ E for a 3x3 lowering operator L.

    ``low`` is the operator to decompose, the bare ``lowering(transition)``
    by default; a dressed lowering operator restricted to one invariant
    block checks the dressed decomposition.  The root is taken of the
    diagonal of L @ L^dagger, exact when that matrix is diagonal, so its
    off-diagonal entries are part of the residual.
    """
    if low is None:
        low = lowering(transition)
    modulus_sq = low @ low.conj().T
    diagonal = np.real(np.diag(modulus_sq))
    off_diagonal = modulus_sq - np.diag(diagonal)
    residual = low - np.diag(np.sqrt(diagonal)) @ phase_exponential(transition)
    return float(max(np.max(np.abs(residual)), np.max(np.abs(off_diagonal))))


def phase_distribution(rho: np.ndarray, transition: str) -> np.ndarray:
    """Probabilities of the three phase outcomes (0, +pi/2, -pi/2) in rho.

    Raises ValueError naming the property, within 1e-12, by which rho is
    not a 3x3 density matrix: shape, hermiticity, unit trace or positivity.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError(f"density matrix must be 3x3, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-12:
        raise ValueError(f"density matrix trace is {np.trace(rho).real:.6g}, expected 1")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-12:
        raise ValueError("density matrix has a negative eigenvalue")
    _, vectors = phase_eigensystem(transition)
    probs = np.real(np.einsum("ik,ij,jk->k", vectors.conj(), rho, vectors))
    return probs


def phase_function_mean(func: Callable[[float], float], transition: str,
                        rho: np.ndarray) -> float:
    """Mean of a scalar function of the transition phase in the state rho.

    The operator function is diagonal in the phase eigenbasis, so the mean
    is the probability-weighted sum of the function over the three
    eigenvalues.
    """
    probs = phase_distribution(rho, transition)
    values = PHASE_EIGENVALUES
    return float(sum(func(v) * p for v, p in zip(values, probs)))


def noncomposition_witness() -> float:
    """Distance showing the phase exponentials do not compose across transitions.

    Multiplying the 1<->3 exponential by the adjoint of the 2<->3 one does
    not produce anything of the 1<->2 exponential form
    |1><2| + c|2><1| - conj(c)|3><3|.  Returns the max-entry distance from
    the fixed-convention member of that family; the distance is 1 for any
    choice of the free phase c on the unit circle.
    """
    product = phase_exponential("13") @ phase_exponential("23").conj().T
    return float(np.max(np.abs(product - phase_exponential("12"))))
