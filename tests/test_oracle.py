"""Tests for the full-space brute-force reference."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lambdaphase import dynamics, oracle
from lambdaphase.algebra import ALL_TRANSITIONS, phase_eigensystem
from lambdaphase.dynamics import (MU, NU, BlockDiagonalPropagator, SystemParams,
                                  block_hamiltonians, block_members, initial_state,
                                  photon_window)
from lambdaphase.relphase import SERIES_KEYS, time_series

GROUND = (1.0, 0.0, 0.0)


def make_params(**overrides):
    defaults = dict(g_a=1.0, g_b=1.0, nbar_a=1.0, nbar_b=1.0, c=GROUND,
                    epsilon=1e-10)
    defaults.update(overrides)
    return SystemParams(**defaults)


def oracle_cutoffs(params):
    """Oracle Fock cutoffs one above the upper edges of the state's photon windows.

    Every populated block then fits in the oracle space, members included.
    """
    return tuple(photon_window(nbar, params.epsilon)[1] + 1
                 for nbar in (params.nbar_a, params.nbar_b))


def test_zero_coupling_hamiltonian_is_diagonal():
    params = make_params(g_a=0.0, g_b=0.0, delta_a=0.4, delta_b=0.9)
    full = oracle.build_full_hamiltonian(params, 2, 2)
    h = full.matrix
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0
    for n_a in range(3):
        for n_b in range(3):
            assert h[full.state_index(1, n_a, n_b), full.state_index(1, n_a, n_b)] == -0.4
            assert h[full.state_index(2, n_a, n_b), full.state_index(2, n_a, n_b)] == -0.9
            assert h[full.state_index(3, n_a, n_b), full.state_index(3, n_a, n_b)] == 0.0


def test_hamiltonian_hermitian_and_conserves_excitations():
    params = make_params(delta_a=0.2, delta_b=-0.3, g_b=0.7)
    full = oracle.build_full_hamiltonian(params, 4, 3)
    h = full.matrix
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    diag_a, diag_b = oracle.excitation_diagonals(4, 3)
    for diag in (diag_a, diag_b):
        n_mat = np.diag(diag)
        assert np.max(np.abs(h @ n_mat - n_mat @ h)) < 1e-12


def test_full_hamiltonian_matches_embedded_blocks():
    # restricting the full matrix to each subspace's members reproduces the
    # block Hamiltonian, and no entries connect different subspaces
    params = make_params(delta_a=0.15, delta_b=0.25, g_a=1.3, g_b=0.6)
    cut = 3
    full = oracle.build_full_hamiltonian(params, cut, cut)
    accounted = np.zeros_like(full.matrix, dtype=bool)
    na, nb = np.meshgrid(np.arange(2 * cut + 2), np.arange(2 * cut + 2), indexing="ij")
    index = np.column_stack([na.ravel(), nb.ravel()])[1:]
    blocks = block_hamiltonians(params, index)
    n_a, n_b = block_members(index)
    for b in range(len(index)):
        # members beyond the Fock cutoff fall outside the full space;
        # the full matrix sees the block restricted to the rest
        kept = [level for level in range(3)
                if 0 <= n_a[b, level] <= cut and 0 <= n_b[b, level] <= cut]
        if not kept:
            continue
        idx = [full.state_index(level + 1, n_a[b, level], n_b[b, level])
               for level in kept]
        sub = full.matrix[np.ix_(idx, idx)]
        assert np.max(np.abs(sub - blocks[b][np.ix_(kept, kept)])) == 0.0
        accounted[np.ix_(idx, idx)] = True
    # entries connecting different subspaces must vanish
    assert np.max(np.abs(full.matrix[~accounted])) == 0.0


def test_dimension_guard():
    params = make_params()
    # dimension 30603: a 7.5 GB matrix, refused before anything is allocated
    with pytest.raises(ValueError, match="dimension 30603 needs a 7492348872 byte"):
        oracle.build_full_hamiltonian(params, 100, 100)
    with pytest.raises(ValueError, match="cutoff"):
        oracle.build_full_hamiltonian(params, 0, 4)


def test_full_evolve_identity_at_zero():
    params = make_params()
    full = oracle.build_full_hamiltonian(params, 2, 2)
    psi0 = np.zeros(full.dim, dtype=complex)
    psi0[full.state_index(1, 1, 1)] = 1.0
    assert np.allclose(oracle.full_evolve(full, psi0, 0.0), psi0, atol=1e-14)


def test_full_evolve_validates_inputs():
    params = make_params()
    full = oracle.build_full_hamiltonian(params, 1, 1)
    psi0 = np.zeros(full.dim, dtype=complex)
    psi0[0] = 2.0
    with pytest.raises(ValueError, match="norm"):
        oracle.full_evolve(full, psi0, 1.0)
    broken = oracle.FullSpaceOperator(np.diag([1.0 + 0j] * full.dim), 1, 1)
    broken.matrix[0, 1] = 1j
    with pytest.raises(ValueError, match="Hermitian"):
        oracle.full_evolve(broken, psi0 / 2.0, 1.0)


def test_block_and_full_evolution_agree():
    # the equivalence this reference exists to establish, desk scale
    params = make_params(epsilon=2e-5)
    cuts = oracle_cutoffs(params)
    assert cuts == (8, 8)
    full = oracle.build_full_hamiltonian(params, *cuts)
    prop = BlockDiagonalPropagator(params)
    psi0 = oracle.embed_state(*initial_state(params), *cuts)
    assert abs(np.linalg.norm(psi0) - 1.0) < 1e-12
    worst = 0.0
    for tau in np.linspace(0.0, 2.0, 11):
        t = 2 * np.pi * tau
        block_vec = oracle.embed_state(prop.index, prop.amplitudes_at(t), *cuts)
        full_vec = oracle.full_evolve(full, psi0, t)
        worst = max(worst, float(np.max(np.abs(block_vec - full_vec))))
    assert worst < 1e-8


def coherent_amplitudes(nbar, theta, cutoff):
    """<n|sqrt(nbar) e^{i theta}> for n = 0..cutoff, by lgamma."""
    n = np.arange(cutoff + 1)
    log_q = (n * math.log(nbar) - nbar - np.array([math.lgamma(k + 1) for k in n])) / 2
    return np.exp(log_q + 1j * theta * n)


def oracle_columns(psi, cutoff_a, cutoff_b):
    """The nine phase probabilities and three populations of a full-space state.

    Basis states are grouped into blocks by their excitation numbers, each
    block's members by level; the block-summed R = sum_b a_b a_b^dagger is
    then projected on every transition's phase eigenstates and the levels.
    """
    level = oracle.basis_states(cutoff_a, cutoff_b)[0]
    pairs = np.column_stack(oracle.excitation_diagonals(cutoff_a, cutoff_b))
    blocks, block = np.unique(pairs, axis=0, return_inverse=True)
    members = np.zeros((len(blocks), 3), dtype=complex)
    members[block.ravel(), level - 1] = psi
    r = members.T @ members.conj()
    readout = np.hstack([*(phase_eigensystem(t)[1] for t in ALL_TRANSITIONS), np.eye(3)])
    return np.einsum("ik,ij,jk->k", readout.conj(), r, readout).real


def test_field_phases_shift_the_atomic_amplitudes():
    # coherent fields of phases (theta_a, theta_b) give the level-j member of
    # block (N_a, N_b) the phase e^{i (theta_a (N_a - MU_j) + theta_b (N_b - NU_j))}.
    # The block's common factor e^{i (theta_a N_a + theta_b N_b)} drops out of
    # R, so the columns are those of real fields with c_j shifted by
    # e^{-i (MU_j theta_a + NU_j theta_b)}.  The oracle keeps 0..14 photons
    # per mode against the program's windows [0, 12] and [0, 11], which
    # differ by about epsilon; the unshifted c is 0.3 off.
    c = np.array([0.6, 0.48 + 0.36j, 0.4 - 0.34871170611122j])
    c /= np.linalg.norm(c)
    theta_a, theta_b, cutoff = 0.7, -1.9, 14
    physics = dict(g_a=1.0, g_b=0.8, nbar_a=1.0, nbar_b=0.7, delta_a=0.15, delta_b=-0.1)
    psi0 = np.multiply.outer(c, np.multiply.outer(
        coherent_amplitudes(physics["nbar_a"], theta_a, cutoff),
        coherent_amplitudes(physics["nbar_b"], theta_b, cutoff))).ravel()
    psi0 /= np.linalg.norm(psi0)
    full = oracle.build_full_hamiltonian(make_params(**physics), cutoff, cutoff)
    assert full.dim == 675
    times = np.linspace(0.0, 6.0, 4)
    expected = np.array([oracle_columns(oracle.full_evolve(full, psi0, t), cutoff, cutoff)
                         for t in times])

    def columns(amplitudes):
        series = time_series(make_params(c=tuple(amplitudes), **physics), times)
        return np.column_stack([series[key] for key in SERIES_KEYS[:12]])

    shift = np.exp(-1j * (theta_a * np.array(MU) + theta_b * np.array(NU)))
    assert np.max(np.abs(columns(c * shift) - expected)) <= 1e-9
    assert np.max(np.abs(columns(c) - expected)) > 0.1


unit = st.floats(-1.0, 1.0)


@given(g_a=st.floats(0.0, 2.0), g_b=st.floats(0.0, 2.0),
       delta_a=st.floats(-1.5, 1.5), delta_b=st.floats(-1.5, 1.5),
       nbar_a=st.floats(0.05, 2.0), nbar_b=st.floats(0.05, 2.0),
       epsilon=st.floats(1e-3, 0.5),
       c=st.tuples(unit, unit, unit, unit, unit, unit), t=st.floats(0.0, 10.0))
@settings(max_examples=30, deadline=None)
def test_padded_blocks_match_oracle(g_a, g_b, delta_a, delta_b, nbar_a, nbar_b,
                                    epsilon, c, t):
    # detuned, complex-c states: the padded slots of lone-member blocks must
    # stay empty and each lone member must pick up only its detuning phase;
    # epsilon 1e-3 keeps at most 9 photon numbers per mode, so the oracle
    # stays desk-scale
    amps = np.array([complex(c[0], c[1]), complex(c[2], c[3]), complex(c[4], c[5])])
    norm = np.linalg.norm(amps)
    assume(norm > 0.1)
    params = SystemParams(g_a=g_a, g_b=g_b, nbar_a=nbar_a, nbar_b=nbar_b,
                          c=tuple(amps / norm), delta_a=delta_a, delta_b=delta_b,
                          epsilon=epsilon)
    prop = BlockDiagonalPropagator(params)
    cuts = oracle_cutoffs(params)
    full = oracle.build_full_hamiltonian(params, *cuts)
    psi0 = oracle.embed_state(*initial_state(params), *cuts)
    block_vec = oracle.embed_state(prop.index, prop.amplitudes_at(t), *cuts)
    assert np.max(np.abs(block_vec - oracle.full_evolve(full, psi0, t))) < 1e-8


@pytest.mark.parametrize("delta_b, solver", [(0.37, "resonant_eigh"),
                                             (np.nextafter(0.37, np.inf), "detuned_eigh")],
                         ids=["resonant", "next_float"])
def test_resonant_and_next_float_detunings_match_oracle(monkeypatch, delta_b, solver):
    # delta_a == delta_b takes the closed-form dark/bright eigensystems; one
    # float more takes the detuned closed form, which hands no block to the
    # Jacobi solver here, and both must match the oracle
    calls = []
    for name in ("jacobi_eigh", "resonant_eigh", "detuned_eigh"):
        spied = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *args, name=name, spied=spied:
                            calls.append(name) or spied(*args))
    params = make_params(g_b=0.7, nbar_a=0.9, nbar_b=1.3, delta_a=0.37, delta_b=delta_b,
                         c=(0.6, 0.48j, -0.64), epsilon=1e-3)
    cuts = oracle_cutoffs(params)
    prop = BlockDiagonalPropagator(params)
    assert calls == [solver]
    full = oracle.build_full_hamiltonian(params, *cuts)
    psi0 = oracle.embed_state(*initial_state(params), *cuts)
    for t in (0.7, 5.3, 31.0):
        block_vec = oracle.embed_state(prop.index, prop.amplitudes_at(t), *cuts)
        assert np.max(np.abs(block_vec - oracle.full_evolve(full, psi0, t))) < 1e-8


def test_full_evolution_conserves_norm_and_excitations():
    params = make_params(nbar_a=0.8, nbar_b=0.8, c=(0.6, 0.8, 0.0), epsilon=1e-3)
    cuts = oracle_cutoffs(params)
    assert cuts == (6, 6)
    full = oracle.build_full_hamiltonian(params, *cuts)
    psi0 = oracle.embed_state(*initial_state(params), *cuts)
    diag_a, diag_b = oracle.excitation_diagonals(*cuts)
    exp_a0 = float(np.sum(np.abs(psi0) ** 2 * diag_a))
    exp_b0 = float(np.sum(np.abs(psi0) ** 2 * diag_b))
    for t in np.linspace(0.0, 12.0, 7):
        vec = oracle.full_evolve(full, psi0, t)
        assert abs(np.linalg.norm(vec) - 1.0) < 1e-10
        assert float(np.sum(np.abs(vec) ** 2 * diag_a)) == pytest.approx(exp_a0, abs=1e-8)
        assert float(np.sum(np.abs(vec) ** 2 * diag_b)) == pytest.approx(exp_b0, abs=1e-8)


def test_embed_state_rejects_members_outside_space():
    # the state's own photon windows, [0, 4] per mode, are one Fock level
    # short of its edge blocks' members
    params = make_params(epsilon=0.01)
    cut_a, cut_b = oracle_cutoffs(params)
    with pytest.raises(ValueError, match="outside"):
        oracle.embed_state(*initial_state(params), cut_a - 1, cut_b - 1)


def loop_hamiltonian(params, cutoff_a, cutoff_b):
    """The full-space Hamiltonian element by element, one basis state at a time."""
    def flat(level, n_a, n_b):
        return ((level - 1) * (cutoff_a + 1) + n_a) * (cutoff_b + 1) + n_b

    dim = 3 * (cutoff_a + 1) * (cutoff_b + 1)
    h = np.zeros((dim, dim))
    for n_a in range(cutoff_a + 1):
        for n_b in range(cutoff_b + 1):
            h[flat(1, n_a, n_b), flat(1, n_a, n_b)] = -params.delta_a
            h[flat(2, n_a, n_b), flat(2, n_a, n_b)] = -params.delta_b
            if n_a >= 1:
                row, col = flat(3, n_a - 1, n_b), flat(1, n_a, n_b)
                h[row, col] = h[col, row] = params.g_a * math.sqrt(n_a)
            if n_b >= 1:
                row, col = flat(3, n_a, n_b - 1), flat(2, n_a, n_b)
                h[row, col] = h[col, row] = params.g_b * math.sqrt(n_b)
    return h


@pytest.mark.parametrize("overrides, cuts", [
    (dict(g_a=1.3, g_b=0.6, delta_a=0.15, delta_b=-0.25), (6, 4)),
    (dict(g_a=0.7, g_b=1.1, delta_a=-0.4, delta_b=0.9), (2, 7)),
    (dict(g_a=0.0, g_b=0.8, delta_a=0.3), (5, 5)),
    (dict(g_a=1.0, g_b=0.0), (3, 1)),
], ids=["6-4-detuned", "2-7-detuned", "g_a-zero", "g_b-zero-resonant"])
def test_full_hamiltonian_equals_elementwise_build(overrides, cuts):
    # bitwise, signed zeros of zero detunings included
    params = make_params(**overrides)
    full = oracle.build_full_hamiltonian(params, *cuts)
    expected = loop_hamiltonian(params, *cuts)
    assert np.array_equal(full.matrix, expected)
    assert full.matrix.tobytes() == expected.tobytes()


def test_dressed_ladders_are_kronecker_products():
    cut_a, cut_b = 4, 2
    annihilate_a = np.diag(np.sqrt(np.arange(1, cut_a + 1)), k=1)
    annihilate_b = np.diag(np.sqrt(np.arange(1, cut_b + 1)), k=1)
    eye_a, eye_b = np.eye(cut_a + 1), np.eye(cut_b + 1)

    def atom(i, j):  # |j><i|
        op = np.zeros((3, 3))
        op[j - 1, i - 1] = 1.0
        return op

    expected = {"13": np.kron(np.kron(atom(1, 3), annihilate_a), eye_b),
                "23": np.kron(np.kron(atom(2, 3), eye_a), annihilate_b),
                "12": np.kron(np.kron(atom(1, 2), annihilate_a), annihilate_b.T)}
    ladders = oracle.dressed_ladders(cut_a, cut_b)
    assert sorted(ladders) == sorted(expected)
    dim = 3 * (cut_a + 1) * (cut_b + 1)
    for name, (rows, cols, values) in ladders.items():
        dense = np.zeros((dim, dim))
        dense[rows, cols] = values
        assert np.array_equal(dense, expected[name]), name


def test_basis_states_follow_state_index():
    full = oracle.build_full_hamiltonian(make_params(), 3, 2)
    level, n_a, n_b = oracle.basis_states(3, 2)
    assert len(level) == full.dim
    indices = [full.state_index(*state) for state in zip(level, n_a, n_b)]
    assert indices == list(range(full.dim))


@pytest.mark.parametrize("state", [(0, 1, 1), (4, 1, 1), (1, -1, 0), (2, 0, -1),
                                   (3, 4, 0), (1, 0, 3)])
def test_state_index_rejects_a_state_outside_the_truncated_space(state):
    # levels run 1..3 and photon numbers 0..cutoff (here 3 and 2)
    full = oracle.build_full_hamiltonian(make_params(), 3, 2)
    with pytest.raises(ValueError, match=re.escape(f"state {state} outside the "
                                                   "truncated space")):
        full.state_index(*state)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_embed_state_of_one_member_is_a_kronecker_unit_vector(level):
    cut_a, cut_b = 5, 3
    amplitudes = np.zeros((1, 3), dtype=complex)
    amplitudes[0, level - 1] = 1.0
    # block (3, 2): members |1; 3, 1>, |2; 2, 2>, |3; 2, 1>
    n_a, n_b = {1: (3, 1), 2: (2, 2), 3: (2, 1)}[level]
    expected = np.kron(np.kron(np.eye(3)[level - 1], np.eye(cut_a + 1)[n_a]),
                       np.eye(cut_b + 1)[n_b])
    vec = oracle.embed_state([(3, 2)], amplitudes, cut_a, cut_b)
    assert np.array_equal(vec, expected)


def test_matrix_cap_is_refused_before_allocation():
    params = make_params()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the desk-scale cap"):
            oracle.build_full_hamiltonian(params, 100, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_hamiltonian_build_holds_one_matrix():
    # dimension 3 * 21 * 17 = 1071, an 8.8 MiB matrix
    params = make_params(delta_a=0.2, delta_b=-0.1)
    matrix_bytes = (3 * 21 * 17) ** 2 * 8
    tracemalloc.start()
    try:
        full = oracle.build_full_hamiltonian(params, 20, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert full.matrix.nbytes == matrix_bytes
    assert peak <= 2 * matrix_bytes
