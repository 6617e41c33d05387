"""Tests for the bare atomic phase operators."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambdaphase import algebra


def comm(a, b):
    return a @ b - b @ a


def delta(i, j):
    return 1.0 if i == j else 0.0


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def test_generator_13_single_entry():
    op = algebra.generator(1, 3)
    expected = np.zeros((3, 3), dtype=complex)
    expected[2, 0] = 1.0
    assert np.array_equal(op, expected)


def test_generator_22_is_projector():
    op = algebra.generator(2, 2)
    assert np.array_equal(op, np.diag([0, 1, 0]).astype(complex))
    assert np.array_equal(op @ op, op)


def test_generator_rejects_bad_levels():
    with pytest.raises(ValueError):
        algebra.generator(0, 1)
    with pytest.raises(ValueError):
        algebra.generator(1, 4)


def test_diagonal_generators_sum_to_identity():
    total = sum(algebra.generator(i, i) for i in (1, 2, 3))
    assert np.array_equal(total, np.eye(3, dtype=complex))


def test_commutator_13_31():
    lhs = comm(algebra.generator(1, 3), algebra.generator(3, 1))
    rhs = algebra.generator(3, 3) - algebra.generator(1, 1)
    assert np.array_equal(lhs, rhs)


def test_full_commutator_table_exact():
    # entries are small integers, so float arithmetic is exact
    for i, j, k, l in itertools.product((1, 2, 3), repeat=4):
        lhs = comm(algebra.generator(i, j), algebra.generator(k, l))
        rhs = (delta(i, l) * algebra.generator(k, j)
               - delta(k, j) * algebra.generator(i, l))
        assert np.array_equal(lhs, rhs), (i, j, k, l)


def test_dipole_coupling_relations_exact():
    cross = comm(algebra.raising("13"), algebra.lowering("23"))
    assert np.array_equal(cross, -algebra.raising("12"))
    assert np.array_equal(comm(algebra.raising("13"), algebra.raising("23")),
                          np.zeros((3, 3)))


def test_ladder_and_inversion_shapes():
    assert np.array_equal(algebra.raising("13"), algebra.generator(1, 3))
    assert np.array_equal(algebra.lowering("13"), algebra.generator(3, 1))
    assert np.array_equal(
        algebra.inversion("23"),
        (algebra.generator(3, 3) - algebra.generator(2, 2)) / 2)


# ---------------------------------------------------------------------------
# phase exponential and eigensystem
# ---------------------------------------------------------------------------

def test_phase_exponential_13_matrix():
    e3 = np.array([0, 0, 1.0])
    e2 = np.array([0, 1.0, 0])
    e1 = np.array([1.0, 0, 0])
    op = algebra.phase_exponential("13")
    assert np.allclose(op @ e3, e1)          # upper maps to lower
    assert np.allclose(op @ e2, e2)          # spectator is fixed
    assert np.allclose(op @ e1, -e3)


def test_phase_exponential_rejects_unknown_transition():
    for transition in ("31", "11", ""):
        with pytest.raises(ValueError):
            algebra.phase_exponential(transition)
        with pytest.raises(ValueError):
            algebra.phase_eigensystem(transition)


@pytest.mark.parametrize("transition", ["13", "23", "12"])
def test_phase_exponential_unitary(transition):
    op = algebra.phase_exponential(transition)
    assert np.max(np.abs(op @ op.conj().T - np.eye(3))) < 1e-15
    assert np.max(np.abs(op.conj().T @ op - np.eye(3))) < 1e-15


@pytest.mark.parametrize("transition", ["13", "23", "12"])
def test_phase_exponential_spectrum(transition):
    op = algebra.phase_exponential(transition)
    expected = np.array([-1j, 1.0, 1j])
    # match as multisets; the cube is the adjoint, so it shares the spectrum
    for mat in (op, op @ op @ op):
        eigvals = np.linalg.eigvals(mat)
        assert np.allclose(sorted(eigvals, key=np.angle),
                           sorted(expected, key=np.angle), atol=1e-12)
    assert np.allclose(op @ op @ op, op.conj().T, atol=1e-15)


@pytest.mark.parametrize("transition", ["13", "23", "12"])
def test_phase_eigensystem_defining_property(transition):
    # independent check: apply the exponential to each claimed eigenvector
    op = algebra.phase_exponential(transition)
    values, vectors = algebra.phase_eigensystem(transition)
    assert np.array_equal(values, [0.0, np.pi / 2, -np.pi / 2])
    for k, phi in enumerate(values):
        vec = vectors[:, k]
        assert np.max(np.abs(op @ vec - np.exp(1j * phi) * vec)) < 1e-12


@pytest.mark.parametrize("transition,spectator", [("13", 2), ("23", 1)])
def test_phase_eigensystem_structure(transition, spectator):
    _, vectors = algebra.phase_eigensystem(transition)
    v0 = vectors[:, 0]
    assert abs(v0[spectator - 1]) == 1.0
    lower = 1 if transition == "13" else 2
    for k in (1, 2):
        vec = vectors[:, k]
        assert abs(abs(vec[2]) - 1 / np.sqrt(2)) < 1e-15
        assert abs(abs(vec[lower - 1]) - 1 / np.sqrt(2)) < 1e-15
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12


def test_phase_operator_is_hermitian_log():
    for transition in ("13", "23"):
        phi_op = algebra.phase_operator(transition)
        assert np.max(np.abs(phi_op - phi_op.conj().T)) < 1e-14
        w, v = np.linalg.eigh(phi_op)
        rebuilt = (v * np.exp(1j * w)) @ v.conj().T
        assert np.allclose(rebuilt, algebra.phase_exponential(transition),
                           atol=1e-12)


@pytest.mark.parametrize("transition", ["13", "23", "12"])
def test_polar_identity(transition):
    assert algebra.verify_polar_identity(transition) < 1e-14


def test_polar_identity_of_a_given_lowering_operator():
    scaled = 2.0 * algebra.lowering("23")
    assert algebra.verify_polar_identity("23", scaled) == 0.0
    assert algebra.verify_polar_identity("13", scaled) >= 1
    # L L^dagger of this operator is not diagonal, so no diagonal root fits
    mixed = algebra.lowering("13") + algebra.lowering("23")
    assert algebra.verify_polar_identity("13", mixed) >= 1


# ---------------------------------------------------------------------------
# distributions and means
# ---------------------------------------------------------------------------

def pure_state_density(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def test_phase_function_mean_constant_is_one():
    rho = pure_state_density([0.3, 0.5 - 0.2j, 1.0])
    assert algebra.phase_function_mean(lambda v: 1.0, "13", rho) == pytest.approx(1.0)


def test_mean_phase_vanishes_on_spectator():
    rho = pure_state_density([0, 1, 0])
    assert algebra.phase_function_mean(lambda v: v, "13", rho) == pytest.approx(0.0)


def test_upper_level_splits_evenly():
    # |<v_pm|3>|^2 = 1/2 by direct projection, so the mean phase is zero
    rho = pure_state_density([0, 0, 1])
    probs = algebra.phase_distribution(rho, "13")
    assert probs[0] == pytest.approx(0.0, abs=1e-15)
    assert probs[1] == pytest.approx(0.5)
    assert probs[2] == pytest.approx(0.5)
    assert algebra.phase_function_mean(lambda v: v, "13", rho) == pytest.approx(0.0)


def test_invalid_density_matrix_rejected():
    with pytest.raises(ValueError, match=r"must be 3x3, got shape \(2, 2\)"):
        algebra.phase_distribution(np.eye(2) / 2, "13")
    with pytest.raises(ValueError, match=r"trace is 3, expected 1"):
        algebra.phase_distribution(np.eye(3), "13")
    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        algebra.phase_distribution(bad, "13")
    nonherm = np.diag([1.0, 0.0, 0.0]).astype(complex)
    nonherm[0, 1] = 0.3
    with pytest.raises(ValueError, match="not Hermitian"):
        algebra.phase_distribution(nonherm, "13")


@st.composite
def density_matrices(draw):
    """Random mixtures of a few random pure states."""
    n_terms = draw(st.integers(min_value=1, max_value=3))
    weights = [draw(st.floats(0.05, 1.0)) for _ in range(n_terms)]
    rho = np.zeros((3, 3), dtype=complex)
    for w in weights:
        parts = [draw(st.floats(-1, 1)) for _ in range(6)]
        vec = np.array(parts[:3]) + 1j * np.array(parts[3:])
        if np.linalg.norm(vec) < 1e-3:
            vec = np.array([1.0, 0.0, 0.0])
        rho += w * pure_state_density(vec)
    return rho / np.trace(rho).real


@given(rho=density_matrices(), transition=st.sampled_from(["13", "23"]))
@settings(max_examples=60)
def test_distribution_is_normalized_probability(rho, transition):
    probs = algebra.phase_distribution(rho, transition)
    assert np.all(probs >= -1e-12)
    assert abs(float(np.sum(probs)) - 1.0) < 1e-12


@given(theta=st.floats(0.01, 3.13), phi=st.floats(-3.14, 3.14))
@settings(max_examples=60)
def test_conjugation_negates_mean_phase(theta, phi):
    # superposition of levels 1 and 3 only; conjugating the wavefunction
    # must flip the sign of the mean transition phase
    psi = np.array([np.sin(theta / 2), 0.0, np.exp(1j * phi) * np.cos(theta / 2)])
    mean = algebra.phase_function_mean(lambda v: v, "13", pure_state_density(psi))
    mean_conj = algebra.phase_function_mean(lambda v: v, "13",
                                            pure_state_density(psi.conj()))
    assert mean_conj == pytest.approx(-mean, abs=1e-12)


# ---------------------------------------------------------------------------
# non-composition
# ---------------------------------------------------------------------------

def test_noncomposition_witness_positive():
    assert algebra.noncomposition_witness() > 0.5


def test_noncomposition_product_is_unitary_but_not_identity():
    product = algebra.phase_exponential("13") @ algebra.phase_exponential("23").conj().T
    assert np.max(np.abs(product @ product.conj().T - np.eye(3))) < 1e-15
    assert np.max(np.abs(product - np.eye(3))) > 0.5
