"""Relative-phase dynamics of a three-level lambda atom in a two-mode cavity.

The package provides the bare atomic phase operators (:mod:`.algebra`),
the exact block-diagonal dynamics (:mod:`.dynamics`), relative-phase
eigenstates and distributions (:mod:`.relphase`), a brute-force
full-space reference (:mod:`.oracle`) and a CLI (:mod:`.cli`).
"""

from .algebra import (generator, inversion, lowering, noncomposition_witness,
                      phase_distribution, phase_eigensystem,
                      phase_exponential, phase_function_mean, phase_operator,
                      raising, verify_polar_identity)
from .dynamics import (BlockDiagonalPropagator, SystemParams, block_hamiltonians,
                       block_members, initial_state, photon_window,
                       poisson_probabilities)
from .oracle import (FullSpaceOperator, build_full_hamiltonian, embed_state,
                     excitation_diagonals, full_evolve, verify_deformed_algebra,
                     verify_deformed_polar)
from .relphase import (PHASE_KEYS, marginal_distribution, rel_phase_eigenstates,
                       time_series, trapping_config)

__version__ = "0.1.0"
