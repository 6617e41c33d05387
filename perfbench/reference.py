"""Independent numpy reference for the 13 output columns of a scenario.

Imports nothing from ``lambdaphase``.  It is written from the model's
coupling rules: mode a exchanges one photon with the 1<->3 dipole and
mode b with 2<->3, so the states

    |1; k_a, k_b - 1>,  |2; k_a - 1, k_b>,  |3; k_a - 1, k_b - 1>

span an invariant block for every excitation pair (k_a, k_b).  A member
with a negative photon number does not exist; it is kept here as a padded
slot with zero amplitude, which is exact because its coupling to the
surviving member carries a factor sqrt(0).  Every block is a real
symmetric 3x3 matrix, so one batched ``eigh`` diagonalizes all of them.

Phase probabilities are projections on the labelled eigenstates: "0" is
the spectator level, "+" is (upper - i partner)/sqrt(2) and "-" is
(upper + i partner)/sqrt(2).  Missing members are dropped without
renormalizing, which the padding also does.
"""

import math
from functools import cached_property

import numpy as np

COLUMNS = ("tau", "p13_0", "p13_p", "p13_m", "p23_0", "p23_p", "p23_m",
           "p12_0", "p12_p", "p12_m", "pop1", "pop2", "pop3", "norm")

# transition -> (spectator level, upper level, partner level), 0-based
_TRANSITIONS = (("13", 1, 2, 0), ("23", 0, 2, 1), ("12", 2, 1, 0))


def poisson_cutoff(nbar: float, epsilon: float) -> int:
    """Smallest N whose Poisson(nbar) mass on 0..N is at least 1 - epsilon."""
    top = int(nbar + 40.0 * math.sqrt(nbar) + 60.0)
    mass = poisson_probabilities(nbar, top)
    return int(np.searchsorted(np.cumsum(mass), 1.0 - epsilon))


def poisson_probabilities(nbar: float, cutoff: int) -> np.ndarray:
    """Poisson(nbar) probabilities of 0..cutoff, from cumulative log sums."""
    n = np.arange(cutoff + 1)
    if nbar == 0.0:
        return (n == 0).astype(float)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(n[1:]))))
    return np.exp(-nbar + n * math.log(nbar) - log_factorial)


def time_scale(g_a: float, nbar_a: float) -> float:
    """Interaction time per unit of the rescaled time tau."""
    if g_a > 0 and nbar_a > 0:
        return 2.0 * math.pi * math.sqrt(nbar_a) / g_a
    return 1.0


class Blocks:
    """Truncated initial state of every kept block and its exact evolution.

    ``photons[b, level]`` holds the (n_a, n_b) photon numbers of each member
    of block b; ``present[b, level]`` says whether the member exists.
    """

    def __init__(self, g_a, g_b, nbar_a, nbar_b, c, delta_a=0.0, delta_b=0.0,
                 epsilon=1e-10, cutoff_a=None, cutoff_b=None):
        self.cutoff_a = poisson_cutoff(nbar_a, epsilon) if cutoff_a is None else cutoff_a
        self.cutoff_b = poisson_cutoff(nbar_b, epsilon) if cutoff_b is None else cutoff_b
        amp_a = np.sqrt(poisson_probabilities(nbar_a, self.cutoff_a))
        amp_b = np.sqrt(poisson_probabilities(nbar_b, self.cutoff_b))

        k_a, k_b = np.meshgrid(np.arange(self.cutoff_a + 2),
                               np.arange(self.cutoff_b + 2), indexing="ij")
        k_a, k_b = k_a.ravel(), k_b.ravel()
        n_a = np.stack([k_a, k_a - 1, k_a - 1], axis=1)
        n_b = np.stack([k_b - 1, k_b, k_b - 1], axis=1)
        present = (n_a >= 0) & (n_b >= 0)
        inside = present & (n_a <= self.cutoff_a) & (n_b <= self.cutoff_b)
        amp0 = np.where(inside,
                        amp_a[np.clip(n_a, 0, self.cutoff_a)]
                        * amp_b[np.clip(n_b, 0, self.cutoff_b)]
                        * np.asarray(c, dtype=complex), 0.0)
        keep = np.any(amp0 != 0, axis=1)

        self.k_a, self.k_b = k_a[keep], k_b[keep]
        self.photons = np.stack([n_a[keep], n_b[keep]], axis=2)
        self.present = present[keep]
        amp0 = amp0[keep]
        amp0 /= math.sqrt(float(np.sum(np.abs(amp0) ** 2)))
        self.amp0 = amp0
        self.couplings = (g_a, g_b, delta_a, delta_b)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eigenvalues, eigenvectors and initial eigen-coefficients per block."""
        g_a, g_b, delta_a, delta_b = self.couplings
        h = np.zeros((len(self.k_a), 3, 3))
        h[:, 0, 0] = -delta_a
        h[:, 1, 1] = -delta_b
        h[:, 0, 2] = h[:, 2, 0] = g_a * np.sqrt(self.k_a)
        h[:, 1, 2] = h[:, 2, 1] = g_b * np.sqrt(self.k_b)
        eigvals, eigvecs = np.linalg.eigh(h)
        eigvecs = eigvecs.astype(complex)
        return eigvals, eigvecs, np.einsum("bji,bj->bi", eigvecs.conj(), self.amp0)

    @property
    def blocks_full(self) -> int:
        return int(np.count_nonzero(self.present.all(axis=1)))

    @property
    def blocks_one(self) -> int:
        return len(self.k_a) - self.blocks_full

    def amplitudes(self, t: float) -> np.ndarray:
        """Member amplitudes of every block at time t, shape (blocks, 3)."""
        eigvals, eigvecs, coeff0 = self.spectrum
        return np.einsum("bij,bj->bi", eigvecs, np.exp(-1j * eigvals * t) * coeff0)


def columns(amp: np.ndarray) -> np.ndarray:
    """The 13 probability columns (all but tau) from block amplitudes."""
    values = []
    for _, spectator, upper, partner in _TRANSITIONS:
        eigenstates = np.zeros((3, 3), dtype=complex)
        eigenstates[0, spectator] = 1.0
        eigenstates[1, upper] = eigenstates[2, upper] = 1.0 / math.sqrt(2.0)
        eigenstates[1, partner] = -1j / math.sqrt(2.0)
        eigenstates[2, partner] = 1j / math.sqrt(2.0)
        overlaps = amp @ eigenstates.conj().T
        values.extend(np.sum(np.abs(overlaps) ** 2, axis=0))
    populations = np.sum(np.abs(amp) ** 2, axis=0)
    values.extend(populations)
    values.append(np.sum(populations))
    return np.array(values)


def row(blocks: Blocks, tau: float, scale: float) -> np.ndarray:
    """One 14-column output row at rescaled time tau."""
    return np.concatenate(([tau], columns(blocks.amplitudes(tau * scale))))
