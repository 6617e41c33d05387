"""Runtime invariant suites backing the ``verify`` CLI subcommand.

Each suite runs desk-scale checks of the module invariants and reports
the worst residual per check.  These are sanity gates for an installed
build; the full test suite lives under tests/.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from . import algebra, oracle, relphase
from .dynamics import (BlockDiagonalPropagator, SystemParams, block_hamiltonians,
                       block_members, poisson_probabilities, truncation_cutoff)


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _comm(a, b):
    return a @ b - b @ a


def _desk_params() -> SystemParams:
    c = np.array([0.6, 0.48 + 0.36j, 0.4 - 0.34871170611122j])
    c = c / np.linalg.norm(c)
    return SystemParams(g_a=1.0, g_b=0.8, nbar_a=1.0, nbar_b=0.7,
                        c=tuple(c), delta_a=0.15, delta_b=-0.1, epsilon=1e-10)


def suite_algebra() -> list[CheckResult]:
    checks = []

    worst = 0.0
    for i, j, k, l in product((1, 2, 3), repeat=4):
        lhs = _comm(algebra.generator(i, j), algebra.generator(k, l))
        rhs = ((1.0 if i == l else 0.0) * algebra.generator(k, j)
               - (1.0 if k == j else 0.0) * algebra.generator(i, l))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append(CheckResult("u3 commutator table", worst, 0.0))

    res_cross = np.max(np.abs(_comm(algebra.raising("13"), algebra.lowering("23"))
                              + algebra.raising("12")))
    res_zero = np.max(np.abs(_comm(algebra.raising("13"), algebra.raising("23"))))
    checks.append(CheckResult("dipole coupling relations",
                              float(max(res_cross, res_zero)), 0.0))

    for trans in algebra.POLAR_TRANSITIONS:
        checks.append(CheckResult(f"polar identity {trans}",
                                  algebra.verify_polar_identity(trans), 1e-14))
        e_op = algebra.phase_exponential(trans)
        unit = float(np.max(np.abs(e_op @ e_op.conj().T - np.eye(3))))
        checks.append(CheckResult(f"phase exponential unitarity {trans}", unit, 1e-15))
        eig = algebra.phase_eigensystem(trans)
        defining = 0.0
        for k, phi in enumerate(eig.eigenvalues):
            vec = eig.eigenvectors[:, k]
            defining = max(defining, float(np.max(np.abs(
                e_op @ vec - np.exp(1j * phi) * vec))))
        checks.append(CheckResult(f"phase eigensystem {trans}", defining, 1e-12))
        gram = eig.eigenvectors.conj().T @ eig.eigenvectors
        checks.append(CheckResult(f"eigenvector orthonormality {trans}",
                                  float(np.max(np.abs(gram - np.eye(3)))), 1e-12))

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(25):
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        for trans in algebra.POLAR_TRANSITIONS:
            probs = algebra.phase_distribution(rho, trans)
            worst = max(worst, abs(float(np.sum(probs)) - 1.0),
                        max(0.0, -float(np.min(probs))))
    checks.append(CheckResult("distribution normalization", worst, 1e-12))

    worst = 0.0
    for theta, phi in [(0.3, 0.7), (1.1, -2.0), (2.4, 2.9)]:
        psi = np.array([np.sin(theta / 2), 0.0, np.exp(1j * phi) * np.cos(theta / 2)])
        mean = algebra.phase_function_mean(lambda v: v, "13",
                                           np.outer(psi, psi.conj()))
        mean_conj = algebra.phase_function_mean(lambda v: v, "13",
                                                np.outer(psi.conj(), psi))
        worst = max(worst, abs(mean + mean_conj))
    checks.append(CheckResult("conjugation negates mean phase", worst, 1e-12))

    witness = algebra.noncomposition_witness()
    checks.append(CheckResult("non-composition witness > 0.5", 0.5 - witness, 0.0))
    return checks


def suite_dynamics() -> list[CheckResult]:
    checks = []
    params = _desk_params()

    cutoff = truncation_cutoff(1.0, 1e-10)
    total = float(np.sum(poisson_probabilities(1.0, cutoff)))
    checks.append(CheckResult("poisson weight normalization",
                              abs(total - 1.0), 1e-10))

    h = block_hamiltonians(params, [(1, 1), (2, 3), (5, 2), (0, 4), (3, 0)])
    checks.append(CheckResult("block hermiticity", float(np.max(np.abs(
        h - h.conj().transpose(0, 2, 1)))), 0.0))

    prop = BlockDiagonalPropagator(params)
    u1 = prop.propagators(0.9)
    u12 = np.einsum("bij,bjk->bik", u1, prop.propagators(1.7))
    unitarity = np.einsum("bij,bkj->bik", u1, u1.conj()) - np.eye(3)
    checks.append(CheckResult("block unitarity", float(np.max(np.abs(unitarity))), 1e-12))
    checks.append(CheckResult("group property", float(np.max(np.abs(
        u12 - prop.propagators(2.6)))), 1e-10))

    state_t = prop.amplitudes_at(2.3)
    checks.append(CheckResult("norm conservation",
                              abs(float(np.linalg.norm(state_t)) - 1.0), 1e-10))
    back = np.einsum("bij,bj->bi", prop.propagators(-2.3), state_t)
    checks.append(CheckResult("time reversal",
                              float(np.max(np.abs(back - prop.initial))), 1e-10))
    series = relphase.time_series(params, np.array([2.3]))
    pop_sum = series["pop1"][0] + series["pop2"][0] + series["pop3"][0]
    checks.append(CheckResult("population sum", abs(float(pop_sum) - 1.0), 1e-10))
    return checks


def suite_relphase() -> list[CheckResult]:
    checks = []
    params = _desk_params()
    prop = BlockDiagonalPropagator(params)
    state = prop.amplitudes_at(1.9)
    dists = {trans: relphase.marginal_distribution(prop.index, state, trans)
             for trans in algebra.ALL_TRANSITIONS}

    pops = np.sum(np.abs(state) ** 2, axis=0)
    zero_pop = {"13": pops[1], "23": pops[0], "12": pops[2]}
    worst_sum = max(abs(dist.total - 1.0) for dist in dists.values())
    worst_pop = max(abs(dist.p0 - zero_pop[trans]) for trans, dist in dists.items())
    checks.append(CheckResult("marginal completeness", worst_sum, 1e-10))
    checks.append(CheckResult("zero-label population identity", worst_pop, 1e-10))

    series = relphase.time_series(params, np.array([1.9]))
    worst = 0.0
    for trans, dist in dists.items():
        stem = "p" + trans
        worst = max(worst,
                    abs(dist.p0 - series[f"{stem}_0"][0]),
                    abs(dist.p_plus - series[f"{stem}_p"][0]),
                    abs(dist.p_minus - series[f"{stem}_m"][0]))
    checks.append(CheckResult("projection vs closed form", worst, 1e-10))

    checks.append(CheckResult("deformed algebra brackets",
                              relphase.verify_deformed_algebra(4), 1e-12))
    worst = max(relphase.verify_deformed_polar((1, 1)),
                relphase.verify_deformed_polar((2, 3)),
                relphase.verify_deformed_polar((3, 2), "23"))
    checks.append(CheckResult("deformed polar identity", worst, 1e-12))

    exc_a, exc_b = (np.diag(diag) for diag in oracle.excitation_diagonals(3, 3))
    worst = 0.0
    for trans in ("13", "23"):
        e_global = relphase.global_phase_exponential(trans, 3)
        worst = max(worst,
                    float(np.max(np.abs(_comm(e_global, exc_a)))),
                    float(np.max(np.abs(_comm(e_global, exc_b)))))
    checks.append(CheckResult("phase exponential conserves excitations",
                              worst, 1e-12))
    return checks


def suite_oracle() -> list[CheckResult]:
    checks = []
    params = SystemParams(g_a=1.0, g_b=1.0, nbar_a=1.0, nbar_b=1.0,
                          c=(1.0, 0.0, 0.0), epsilon=2e-5)
    prop = BlockDiagonalPropagator(params)
    # one Fock level above the largest photon number the state populates per
    # mode (7 at epsilon 2e-5): every member of a populated block fits
    populated = prop.initial != 0
    cuts = tuple(int(np.max(n[populated])) + 1 for n in block_members(prop.index))
    full = oracle.build_full_hamiltonian(params, *cuts)
    checks.append(CheckResult("full hamiltonian hermiticity",
                              float(np.max(np.abs(full.matrix - full.matrix.conj().T))),
                              1e-14))
    diag_a, diag_b = oracle.excitation_diagonals(*cuts)
    worst = max(float(np.max(np.abs(_comm(full.matrix, np.diag(diag_a))))),
                float(np.max(np.abs(_comm(full.matrix, np.diag(diag_b))))))
    checks.append(CheckResult("excitation conservation (commutators)", worst, 1e-12))

    psi0 = oracle.embed_state(prop.index, prop.initial, *cuts)
    worst_diff = 0.0
    worst_norm = 0.0
    worst_exc = 0.0
    exp_a0 = float(np.sum(np.abs(psi0) ** 2 * diag_a))
    for t in np.linspace(0.0, 4.0, 6):
        block_vec = oracle.embed_state(prop.index, prop.amplitudes_at(t), *cuts)
        full_vec = oracle.full_evolve(full, psi0, t)
        worst_diff = max(worst_diff, float(np.max(np.abs(block_vec - full_vec))))
        worst_norm = max(worst_norm, abs(float(np.linalg.norm(full_vec)) - 1.0))
        exp_a = float(np.sum(np.abs(full_vec) ** 2 * diag_a))
        worst_exc = max(worst_exc, abs(exp_a - exp_a0))
    checks.append(CheckResult("block vs full evolution", worst_diff, 1e-8))
    checks.append(CheckResult("full evolution norm drift", worst_norm, 1e-10))
    checks.append(CheckResult("excitation conservation (dynamics)", worst_exc, 1e-8))
    return checks


_SUITES = {"algebra": suite_algebra, "dynamics": suite_dynamics,
           "relphase": suite_relphase, "oracle": suite_oracle}
SUITES = tuple(_SUITES)


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        return [check for suite in _SUITES.values() for check in suite()]
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}, expected one of "
                         f"{SUITES + ('all',)}")
    return _SUITES[name]()
