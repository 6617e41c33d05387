"""Relative-phase dynamics of a three-level lambda atom in a two-mode cavity.

The package provides the bare atomic phase operators (:mod:`.algebra`),
the exact block-diagonal dynamics (:mod:`.dynamics`), relative-phase
eigenstates and distributions (:mod:`.relphase`), a brute-force
full-space reference (:mod:`.oracle`) and a CLI (:mod:`.cli`).  The
package root exports nothing: import from the modules.
"""

__version__ = "0.1.0"
