"""Tests for the block-diagonal dynamics."""

import decimal
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import expm

from lambdaphase import dynamics
from lambdaphase.dynamics import (BlockDiagonalPropagator, SystemParams,
                                  block_couplings, block_eigensystems, block_hamiltonians,
                                  block_members, block_propagators, detuned_eigh,
                                  initial_state, jacobi_eigh,
                                  photon_window, poisson_probabilities,
                                  resonant_eigh, truncation_cutoff)
from lambdaphase.relphase import time_series

GROUND = (1.0, 0.0, 0.0)


def desk_params(**overrides):
    defaults = dict(g_a=1.0, g_b=0.7, nbar_a=0.8, nbar_b=1.2,
                    c=(0.6, 0.48j, -0.64), epsilon=1e-10)
    defaults.update(overrides)
    return SystemParams(**defaults)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def test_params_require_normalized_amplitudes():
    with pytest.raises(ValueError, match="normalized"):
        SystemParams(g_a=1, g_b=1, nbar_a=1, nbar_b=1, c=(1.0, 1.0, 0.0))


def test_params_reject_negative_photon_numbers():
    with pytest.raises(ValueError, match="nbar"):
        SystemParams(g_a=1, g_b=1, nbar_a=-1, nbar_b=1, c=GROUND)


def test_params_reject_bad_epsilon():
    with pytest.raises(ValueError, match="epsilon"):
        SystemParams(g_a=1, g_b=1, nbar_a=1, nbar_b=1, c=GROUND, epsilon=0.0)


def test_params_reject_boolean_amplitudes():
    with pytest.raises(ValueError, match="c must hold numbers"):
        SystemParams(g_a=1, g_b=1, nbar_a=1, nbar_b=1, c=(True, False, False))


@pytest.mark.parametrize("c", [(np.True_, np.False_, np.False_), (1.0, np.False_, 0.0)])
def test_params_reject_numpy_boolean_amplitudes(c):
    with pytest.raises(ValueError, match="c must hold numbers"):
        SystemParams(g_a=1, g_b=1, nbar_a=1, nbar_b=1, c=c)


@pytest.mark.parametrize("name", ["g_a", "g_b", "nbar_a", "nbar_b", "delta_a",
                                  "delta_b", "epsilon", "c"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_reject_non_finite_numbers(name, value):
    fields = dict(g_a=1.0, g_b=1.0, nbar_a=1.0, nbar_b=1.0, c=GROUND)
    fields[name] = (value, 0.0, 0.0) if name == "c" else value
    with pytest.raises(ValueError, match=f"{name} must"):
        SystemParams(**fields)


# ---------------------------------------------------------------------------
# Poisson weights and truncation
# ---------------------------------------------------------------------------

def test_truncation_cutoff_vacuum():
    assert truncation_cutoff(0.0, 1e-10) == 0


def test_truncation_cutoff_frozen_values():
    # frozen from the cumulative-Poisson oracle (scipy.stats.poisson.cdf)
    assert truncation_cutoff(1.0, 1e-10) == 12
    assert truncation_cutoff(50.0, 1e-10) == 101


@given(nbar=st.floats(0.01, 80.0), log_eps=st.integers(-12, -2))
@example(nbar=71.92111291145245, log_eps=-3)
@settings(max_examples=40)
def test_truncation_cutoff_is_minimal(nbar, log_eps):
    epsilon = 10.0 ** log_eps
    cut = truncation_cutoff(nbar, epsilon)
    assert stats.poisson.cdf(cut, nbar) >= 1 - epsilon - 1e-13
    if cut > 0:
        assert stats.poisson.cdf(cut - 1, nbar) < 1 - epsilon + 1e-13


def test_truncation_cutoff_large_nbar_keeps_the_tail_bound():
    # exp(-nbar) is subnormal here: a search that starts from it and
    # multiplies up stops at 817 (losing 2.5e-3 of the weight) and at 750
    # (losing 42%); the exact cutoffs are 919 and 925, since
    # scipy.stats.poisson.sf(919, 740) = 9.99e-11 <= 1e-10 < sf(918, 740)
    assert truncation_cutoff(740.0, 1e-10) == 919
    assert truncation_cutoff(745.0, 1e-10) == 925


def test_truncation_cutoff_keeps_the_benchmark_cutoffs():
    cutoffs = [truncation_cutoff(nbar, 1e-10) for nbar in (0.5, 1.0, 50.0, 100.0, 200.0)]
    assert cutoffs == [10, 12, 101, 170, 296]


def test_truncation_cutoff_rejects_a_huge_table():
    with pytest.raises(ValueError, match="nbar"):
        truncation_cutoff(1e9, 1e-10)


def test_poisson_probabilities_match_pmf():
    for nbar in (0.0, 0.5, 50.0, 740.0):
        expected = stats.poisson.pmf(np.arange(1200), nbar)
        got = poisson_probabilities(nbar, 1199)
        assert np.allclose(got, expected, rtol=1e-10, atol=1e-300)


# pi to 40 digits, for the decimal reference of the Poisson table
PI_40 = decimal.Decimal("3.141592653589793238462643383279502884197")

# Stirling's series of ln n! - (n + 1/2) ln n + n - ln(2 pi) / 2 in odd powers of 1/n
STIRLING_SERIES = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360),
                   (1, 156))


def ln_factorial_40(n):
    """ln n! to 40 digits: a sum of logs below 200, Stirling's series from 200 on,
    where its first dropped term, 3617 / (122400 n^15), is below 1e-36."""
    D = decimal.Decimal
    if n < 200:
        return sum((D(k).ln() for k in range(2, n + 1)), D(0))
    n = D(n)
    tail = sum(D(a) / D(b) / n ** (2 * j + 1) for j, (a, b) in enumerate(STIRLING_SERIES))
    return (n + D("0.5")) * n.ln() - n + (2 * PI_40).ln() / 2 + tail


@pytest.mark.parametrize("nbar", [0.3, 12.5, 40.0, 740.0, 2e4, 9e4])
def test_poisson_probabilities_match_a_40_digit_reference(nbar):
    # summing log(nbar / n) from n = 1 was off by 1.4e-10 relative at 2e4,
    # more than the epsilon 1e-10 the windows are cut at; the table anchored
    # at the mode is within about 4e-14 over 41 points of each window, where
    # scipy's pmf is itself off by 5e-11 at 2e4.  12.5 takes lgamma's branch
    # of the anchor.
    lo, top = photon_window(nbar, 1e-10)
    table = poisson_probabilities(nbar, top)
    with decimal.localcontext() as context:
        context.prec = 40
        mean = decimal.Decimal(nbar)
        for n in sorted(set(np.linspace(lo, top, 41).round().astype(int).tolist())):
            exact = n * mean.ln() - mean - ln_factorial_40(n)
            assert abs(float(decimal.Decimal(table[n]).ln() - exact)) <= 1e-13, n


@pytest.mark.parametrize("nbar_a", [5e4, 9e4])
def test_initial_state_takes_the_strongest_fields_the_cap_admits(nbar_a):
    # MAX_PHOTONS admits nbar up to about 96800 at epsilon 1e-10; the table
    # summed from n = 1 lost 3.4e-10 of the weight at 5e4, which the capture
    # check counted as discarded and refused
    params = desk_params(g_b=0.0, nbar_a=nbar_a, nbar_b=0.5, c=GROUND)
    lo, cutoff = photon_window(nbar_a, 1e-10)
    index, amplitudes = initial_state(params)
    assert index[:, 0].min() == lo and index[:, 0].max() == cutoff  # level 1: N_a = n_a
    assert float(np.sum(np.abs(amplitudes) ** 2)) == pytest.approx(1.0, abs=1e-14)


def test_poisson_probabilities_of_a_subnormal_mean():
    # nbar / 2 underflows to 0: its log is -inf, so p(2) = 0, with no
    # RuntimeWarning (an error here and in CI's runtime steps)
    table = poisson_probabilities(5e-324, 10)
    assert table[0] == 1.0 and table[1] == 5e-324 and not np.any(table[2:])


def test_poisson_probabilities_reject_negative_mean():
    with pytest.raises(ValueError, match="nbar"):
        poisson_probabilities(-1.0, 5)


BAD_NBARS = (-1.0, -1e6, math.nan, math.inf)


@pytest.mark.parametrize("function, args, named", [
    *[(f, (nbar, 1e-10), "nbar") for f in (photon_window, truncation_cutoff)
      for nbar in BAD_NBARS],
    *[(poisson_probabilities, (nbar, 5), "nbar") for nbar in BAD_NBARS],
    *[(f, (1.0, epsilon), "epsilon") for f in (photon_window, truncation_cutoff)
      for epsilon in (0.0, 1.0, math.nan)],
    *[(poisson_probabilities, (nbar, top), "top")
      for nbar, top in ((1.0, -1), (0.0, -1), (1.0, 2.5), (1.0, True))],
])
def test_truncation_rejects_a_bad_mean_or_epsilon(function, args, named):
    # -1e6 must be refused before the table size takes its square root,
    # whose argument it makes negative; a table edge ``top`` that is
    # negative, fractional or a bool must not index or size the table
    with pytest.raises(ValueError, match=f"{named} must"):
        function(*args)


def test_initial_state_rejects_a_truncation_that_loses_weight(monkeypatch):
    # a cutoff search that stops early (as the subnormal one did) must not
    # be renormalized away silently
    import lambdaphase.dynamics as dynamics
    params = desk_params(nbar_a=20.0)
    monkeypatch.setattr(dynamics, "photon_window", lambda nbar, eps: (0, 20))
    with pytest.raises(RuntimeError, match="captured"):
        initial_state(params)


@pytest.mark.parametrize("nbar", [0.0, 0.5, 1.0, 20.0, 50.0, 100.0, 200.0, 740.0,
                                  2000.0, 3000.0, 5000.0])
def test_photon_window_discards_at_most_epsilon(nbar):
    lo, cutoff = photon_window(nbar, 1e-10)
    assert cutoff == truncation_cutoff(nbar, 1e-10)
    lower = stats.poisson.cdf(lo - 1, nbar) if lo > 0 else 0.0
    upper = stats.poisson.sf(cutoff, nbar)
    assert lower + upper <= 1e-10


def test_photon_window_lower_edges():
    lower = [photon_window(nbar, 1e-10)[0] for nbar in (0.0, 0.5, 1.0, 20.0, 50.0, 100.0)]
    assert lower == [0, 0, 0, 0, 11, 42]


def test_initial_state_keeps_the_photon_window():
    # both modes of scale_setup's nbar 100 drop photon numbers 0..41
    params = desk_params(nbar_a=100.0, nbar_b=100.0, c=GROUND)
    index, amplitudes = initial_state(params)
    assert len(index) == 129 * 129
    n_a, n_b = block_members(index)
    present = amplitudes != 0
    assert n_a[present].min() == n_b[present].min() == 42
    assert n_a[present].max() == n_b[present].max() == 170
    # nbar 50 drops photon numbers 0..10 of each mode
    params = desk_params(nbar_a=50.0, nbar_b=50.0, c=GROUND)
    assert len(initial_state(params)[0]) == 91 * 91


def test_initial_state_rejects_a_grid_above_the_block_cap():
    # nbar 50000 keeps 2984 photon numbers per mode: about 8.9M blocks and
    # several GB of state, refused before the grid is allocated
    lo, cutoff = photon_window(50000.0, 1e-10)
    blocks = (cutoff - lo + 2) ** 2
    assert blocks > dynamics.MAX_BLOCKS
    params = desk_params(nbar_a=50000.0, nbar_b=50000.0, c=GROUND)
    with pytest.raises(ValueError, match=f"nbar_a = 50000.0 and nbar_b = 50000.0 "
                                         f"need {blocks} blocks"):
        initial_state(params)


def test_poisson_weights_normalized_to_cutoff():
    cut = truncation_cutoff(1.0, 1e-12)
    total = float(np.sum(poisson_probabilities(1.0, cut)))
    assert total == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# block members (padded, one slot per atomic level)
# ---------------------------------------------------------------------------

def members(index):
    """(level, n_a, n_b) of the existing members of one block."""
    n_a, n_b = block_members([index])
    return [(level + 1, int(n_a[0, level]), int(n_b[0, level]))
            for level in range(3) if n_a[0, level] >= 0 and n_b[0, level] >= 0]


def test_subspace_basis_full_block():
    assert members((1, 1)) == [(1, 1, 0), (2, 0, 1), (3, 0, 0)]


def test_subspace_basis_single_member():
    assert members((3, 0)) == [(2, 2, 0)]
    assert members((0, 2)) == [(1, 0, 1)]


def test_subspace_basis_empty():
    with pytest.raises(ValueError, match="no members"):
        block_members([(0, 0)])


def test_subspace_basis_rejects_negative():
    with pytest.raises(ValueError):
        block_members([(-1, 0)])


@given(na=st.integers(0, 40), nb=st.integers(0, 40))
def test_subspace_dimension_rule(na, nb):
    if na == nb == 0:
        return
    found = members((na, nb))
    if na >= 1 and nb >= 1:
        assert len(found) == 3
    else:
        assert len(found) == 1
    assert all(n_a >= 0 and n_b >= 0 for _, n_a, n_b in found)


# ---------------------------------------------------------------------------
# block Hamiltonians
# ---------------------------------------------------------------------------

def test_block_hamiltonian_resonant_full_block():
    params = SystemParams(g_a=0.5, g_b=0.5, nbar_a=1, nbar_b=1, c=GROUND)
    h = block_hamiltonians(params, [(1, 1)])[0]
    g = 0.5
    expected = np.array([[0, 0, g], [0, 0, g], [g, g, 0]])
    assert np.array_equal(h, expected)


def test_block_hamiltonian_couplings_scale_with_excitations():
    params = SystemParams(g_a=2.0, g_b=3.0, nbar_a=1, nbar_b=1, c=GROUND,
                          delta_a=0.25, delta_b=-0.5)
    h = block_hamiltonians(params, [(4, 9)])[0]
    # detunings weigh the two lower-level members; level 3 carries none
    assert h[0, 0] == -0.25
    assert h[1, 1] == 0.5
    assert h[2, 2] == 0.0
    assert h[0, 2] == pytest.approx(2.0 * 2.0)   # g_a sqrt(4)
    assert h[1, 2] == pytest.approx(3.0 * 3.0)   # g_b sqrt(9)
    assert h[0, 1] == 0.0                        # no direct 1<->2 coupling


def test_block_hamiltonian_degenerate_blocks():
    # the lone member keeps its detuning and is decoupled from the padded
    # slots by a factor sqrt(0)
    params = SystemParams(g_a=1, g_b=1, nbar_a=1, nbar_b=1, c=GROUND,
                          delta_a=0.3, delta_b=0.7)
    h01, h10 = block_hamiltonians(params, [(0, 1), (1, 0)])
    assert h01[0, 0] == -0.3
    assert np.array_equal(h01[0, 1:], [0.0, 0.0])
    assert h10[1, 1] == -0.7
    assert np.array_equal(h10[1, [0, 2]], [0.0, 0.0])


def test_block_hamiltonian_rejects_empty_basis():
    with pytest.raises(ValueError):
        block_hamiltonians(desk_params(), [(2, 1), (0, 0)])


@given(na=st.integers(0, 30), nb=st.integers(0, 30),
       ga=st.floats(0, 5), gb=st.floats(0, 5),
       da=st.floats(-3, 3), db=st.floats(-3, 3))
@settings(max_examples=60)
def test_block_hamiltonian_exactly_hermitian(na, nb, ga, gb, da, db):
    if na == 0 and nb == 0:
        return
    params = SystemParams(g_a=ga, g_b=gb, nbar_a=1, nbar_b=1, c=GROUND,
                          delta_a=da, delta_b=db)
    h = block_hamiltonians(params, [(na, nb)])[0]
    assert np.array_equal(h, h.conj().T)


# ---------------------------------------------------------------------------
# block eigensolver
# ---------------------------------------------------------------------------

EPS = np.finfo(float).eps

# Absolute term of every eigensolver bound: a few units of the smallest
# subnormal, the rounding floor of any float result, which an eps-relative
# bound on a block of subnormal norm rounds below.
FLOOR = 4 * np.finfo(float).smallest_subnormal


def window_blocks(params, lo_a, lo_b, width):
    """Block Hamiltonians of a square photon window, (0, 0) left out."""
    na, nb = np.meshgrid(np.arange(lo_a, lo_a + width), np.arange(lo_b, lo_b + width),
                         indexing="ij")
    index = np.column_stack([na.ravel(), nb.ravel()])
    return block_hamiltonians(params, index[np.any(index != 0, axis=1)])


def resonant_solve(h):
    """:func:`resonant_eigh` of blocks with equal detunings, read off ``h``."""
    delta = -h[0, 0, 0]
    assert np.all(h[:, 0, 0] == -delta) and np.all(h[:, 1, 1] == -delta)
    return resonant_eigh(delta, h[:, 0, 2], h[:, 1, 2])


def assert_eigensystems(h, solve=jacobi_eigh):
    """A block eigensolver against eigvalsh and the eigen-equation, at the eps level.

    The solvers are backward stable, so each eigenvalue differs from
    eigvalsh's by a few eps times the block's norm; the bounds leave a
    factor two over the worst of 192000 random blocks for jacobi_eigh.
    Each bound also has the absolute term FLOOR.  eigvalsh gets each block
    with level 3 first, an exact similarity: on blocks whose entries span
    hundreds of decades, LAPACK's reduction in level order was off from
    40-digit arithmetic by up to 4.6e14 eps ||H|| over 20000 random
    blocks, and with level 3 first by at most 5.9 eps ||H||.
    """
    eigenvalues, vectors = solve(h)
    assert eigenvalues.shape == (len(h), 3) and vectors.shape == (len(h), 3, 3)
    assert np.all(np.diff(eigenvalues, axis=1) >= 0.0)
    expected = np.linalg.eigvalsh(h[:, ::-1, ::-1])
    norm = np.max(np.abs(expected), axis=1, keepdims=True)
    assert np.all(np.abs(eigenvalues - expected) <= 16 * EPS * norm + FLOOR)
    residual = h @ vectors - vectors * eigenvalues[:, None, :]
    assert np.all(np.max(np.abs(residual), axis=1) <= 8 * EPS * norm + FLOOR)
    gram = np.einsum("bki,bkj->bij", vectors, vectors)
    assert np.max(np.abs(gram - np.eye(3))) <= 16 * EPS + FLOOR


def detuned_solve(h):
    """:func:`detuned_eigh` of blocks with one pair of detunings, read off ``h``."""
    delta_a, delta_b = -h[0, 0, 0], -h[0, 1, 1]
    assert np.all(h[:, 0, 0] == -delta_a) and np.all(h[:, 1, 1] == -delta_b)
    return detuned_eigh(delta_a, delta_b, h[:, 0, 2], h[:, 1, 2])


def assert_window_eigensystems(solve, ga, gb, da, db, lo_a, lo_b, width):
    # windows at lo 0 hold one-member blocks
    params = SystemParams(g_a=ga, g_b=gb, nbar_a=1, nbar_b=1, c=GROUND,
                          delta_a=da, delta_b=db)
    h = window_blocks(params, lo_a, lo_b, width)
    if len(h):
        assert_eigensystems(h, solve)


WINDOW_CASES = given(ga=st.floats(0, 5), gb=st.floats(0, 5), da=st.floats(-3, 3),
                     db=st.floats(-3, 3), lo_a=st.integers(0, 300),
                     lo_b=st.integers(0, 300), width=st.integers(1, 8))

# a block of subnormal norm leaves a residual of one subnormal unit
SUBNORMAL_BLOCK = dict(ga=0.0, gb=5e-324, da=5e-324, db=5e-324, lo_a=0, lo_b=0, width=2)


@WINDOW_CASES
@settings(max_examples=60)
@example(**SUBNORMAL_BLOCK)
def test_jacobi_matches_eigh(ga, gb, da, db, lo_a, lo_b, width):
    assert_window_eigensystems(jacobi_eigh, ga, gb, da, db, lo_a, lo_b, width)


@WINDOW_CASES
@settings(max_examples=60)
@example(**SUBNORMAL_BLOCK)
# blocks of norm 5.4e-81: test_detuned_eigh_scales_tiny_blocks
@example(ga=3e-81, gb=4e-81, da=5.4e-81, db=-2e-81, lo_a=1, lo_b=1, width=2)
def test_detuned_eigh_matches_eigh(ga, gb, da, db, lo_a, lo_b, width):
    assert_window_eigensystems(detuned_solve, ga, gb, da, db, lo_a, lo_b, width)


EDGE_CASES = [
    dict(g_a=0.0, g_b=0.0),
    dict(g_a=1.0, g_b=0.0, delta_a=0.3, delta_b=0.3),
    dict(g_a=1e-9, g_b=1.0, delta_a=0.2),
    dict(g_a=1.0, g_b=0.5, delta_a=1e6, delta_b=-1e6),
    dict(g_a=1.0, g_b=0.5, delta_a=-1e6, delta_b=-1e6),
    dict(g_a=1e-163, g_b=5.0, delta_a=-1e-318, delta_b=0.3),
]
EDGE_IDS = ["zero", "degenerate_pair", "tiny_coupling", "huge_detuning", "huge_equal_detunings",
            "underflowing_rotation"]


@pytest.mark.parametrize("fields", EDGE_CASES, ids=EDGE_IDS)
def test_jacobi_edge_cases(fields):
    # underflowing_rotation: in block (1, 3) the scaled entry (0, 2) and the
    # subnormal d = a_22 - a_00 both square to 0, which must not make the
    # rotation's tangent 2 a_02 / |d|
    params = SystemParams(nbar_a=1, nbar_b=1, c=GROUND, **fields)
    assert_eigensystems(window_blocks(params, 0, 0, 12))


@pytest.mark.parametrize("fields", EDGE_CASES + [
    dict(g_a=1.0, g_b=0.7, delta_a=0.37, delta_b=np.nextafter(0.37, np.inf)),
    dict(g_a=1.0, g_b=0.7, delta_a=0.35, delta_b=-0.2),
    dict(g_a=1e-9, g_b=0.31, delta_a=1.0),
], ids=EDGE_IDS + ["next_float", "lo0_window", "near_crossing"])
def test_detuned_eigh_edge_cases(fields):
    # the equal detunings of zero, degenerate_pair and huge_equal_detunings
    # give double eigenvalues, which only the Jacobi fallback resolves; in
    # near_crossing the level-1 eigenvalue, about -1, lies within 2% of
    # -0.31 sqrt(10), and the closed form's residual there is 8.7-10.2 eps.
    # The windows start at lo 0, so they hold one-member blocks
    params = SystemParams(nbar_a=1, nbar_b=1, c=GROUND, **fields)
    assert_eigensystems(window_blocks(params, 0, 0, 12), detuned_solve)


def jacobi_spy(monkeypatch):
    """Stacks of blocks that reach :func:`jacobi_eigh`, one per call."""
    sent = []
    monkeypatch.setattr(dynamics, "jacobi_eigh", lambda h: sent.append(h) or jacobi_eigh(h))
    return sent


def rows_of(h, stack):
    """Rows of ``h`` that ``stack`` holds, in the order of ``h``."""
    return np.flatnonzero(np.any(np.all(h[:, None] == stack[None], axis=(2, 3)), axis=1))


def test_detuned_eigh_hands_exactly_its_rejected_blocks_to_jacobi(monkeypatch):
    # a tiny g_a leaves eigenvalues close enough in some blocks for the
    # cross products to lose digits
    params = SystemParams(g_a=1e-9, g_b=0.8, nbar_a=5, nbar_b=5, c=GROUND,
                          delta_a=3.0, delta_b=-0.2)
    index, _ = initial_state(params)
    x, y = block_couplings(params, index)
    h = block_hamiltonians(params, index)
    sent = jacobi_spy(monkeypatch)
    values, vectors = detuned_eigh(params.delta_a, params.delta_b, x, y)
    assert_eigensystems(h, lambda _: (values, vectors))
    (stack,) = sent
    # the closed forms, with bounds that accept every finite ascending
    # result; NaN or unordered ones still reach Jacobi
    monkeypatch.setattr(dynamics, "_DETUNED_RESIDUAL", np.inf)
    monkeypatch.setattr(dynamics, "_DETUNED_GRAM", np.inf)
    closed_values, closed_vectors = detuned_eigh(params.delta_a, params.delta_b, x, y)
    unordered = rows_of(h, np.concatenate(sent[1:]))
    # the documented check, on the closed forms: residual 5 eps, Gram 8 eps
    residual = np.max(np.abs(h @ closed_vectors - closed_vectors * closed_values[:, None]),
                      axis=(1, 2))
    gram = np.einsum("bki,bkj->bij", closed_vectors, closed_vectors) - np.eye(3)
    accepted = ((residual <= 5.0 * EPS * np.max(np.abs(closed_values), axis=1))
                & (np.max(np.abs(gram), axis=(1, 2)) <= 8.0 * EPS))
    accepted[unordered] = False
    rejected = np.flatnonzero(~accepted)
    assert len(h) == 676 and len(rejected) == 26 and len(unordered) == 1
    assert np.array_equal(stack, h[rejected])
    fallback_values, fallback_vectors = jacobi_eigh(stack)
    assert np.array_equal(values[rejected], fallback_values)
    assert np.array_equal(vectors[rejected], fallback_vectors)
    assert np.array_equal(values[accepted], closed_values[accepted])
    assert np.array_equal(vectors[accepted], closed_vectors[accepted])


def test_detuned_eigh_scales_tiny_blocks(monkeypatch):
    # unscaled, these blocks of norm 5.4e-81 would normalize their cross
    # products through subnormal squared norms
    params = SystemParams(g_a=3e-81, g_b=4e-81, nbar_a=1, nbar_b=1, c=GROUND,
                          delta_a=5.4e-81, delta_b=-2e-81)
    h = window_blocks(params, 1, 1, 2)
    sent = jacobi_spy(monkeypatch)
    assert_eigensystems(h, detuned_solve)
    assert sent == []


def test_detuned_eigh_hands_no_benchmark_block_to_jacobi(monkeypatch):
    # seed-1 physics of the benchmark's detuned workload (perfbench/workloads.py)
    c = (-0.1327028917265215 + 0.46604450952279447j, 0.4447022864397816 - 0.5599759365894923j,
         -0.3153352763159929 - 0.392966853637485j)
    params = SystemParams(g_a=1.0, g_b=0.8, nbar_a=50.0, nbar_b=50.0, c=c,
                          delta_a=-0.3487059781103158, delta_b=0.2364209210713588)
    sent = jacobi_spy(monkeypatch)
    prop = BlockDiagonalPropagator(params)
    assert len(prop.index) == 8463 and sent == []


def test_detuned_eigh_rejects_a_block_on_its_gram_bound_alone(monkeypatch):
    # one column of an accepted block scaled by 1 + 8 eps: its Gram error
    # is then 16 eps, past the bound of 8, while its residual only grows by
    # the same factor and stays within its own bound
    params = desk_params(nbar_a=5.0, nbar_b=5.0, delta_a=0.35, delta_b=-0.2)
    index, _ = initial_state(params)
    x, y = block_couplings(params, index)
    sent = jacobi_spy(monkeypatch)
    values, vectors = detuned_eigh(params.delta_a, params.delta_b, x, y)
    assert sent == []
    # the block of least Gram error and residual, so that only the Gram
    # bound can reject it
    h = block_hamiltonians(params, index)
    residual = (np.max(np.abs(h @ vectors - vectors * values[:, None]), axis=(1, 2))
                / np.max(np.abs(values), axis=1))
    gram = np.max(np.abs(vectors.transpose(0, 2, 1) @ vectors - np.eye(3)), axis=(1, 2))
    block = int(np.argmin(np.maximum(residual, gram)))
    assert residual[block] <= 2 * EPS and gram[block] <= 2 * EPS
    a, b = np.full_like(x, -params.delta_a), np.full_like(x, -params.delta_b)
    values, vectors = values.T.copy(), vectors.transpose(1, 2, 0).copy()
    assert np.all(dynamics._accepted(a, b, x, y, values, vectors))
    vectors[:, 1, block] *= 1.0 + 8.0 * EPS
    accepted = dynamics._accepted(a, b, x, y, values, vectors)
    assert np.array_equal(np.flatnonzero(~accepted), [block])


@given(g_a=st.floats(0, 5), g_b=st.floats(0, 5), delta=st.floats(-3, 3),
       lo_a=st.integers(0, 300), lo_b=st.integers(0, 300), width=st.integers(1, 8))
@settings(max_examples=60)
def test_resonant_eigh_matches_eigh(g_a, g_b, delta, lo_a, lo_b, width):
    # windows at lo 0 hold one-member blocks
    params = SystemParams(g_a=g_a, g_b=g_b, nbar_a=1, nbar_b=1, c=GROUND,
                          delta_a=delta, delta_b=delta)
    h = window_blocks(params, lo_a, lo_b, width)
    if len(h):
        assert_eigensystems(h, resonant_solve)


@pytest.mark.parametrize("fields", [
    dict(g_a=0.0, g_b=0.0, delta_a=0.7, delta_b=0.7),
    dict(g_a=0.0, g_b=0.0, delta_a=-0.7, delta_b=-0.7),
    dict(g_a=0.0, g_b=0.0),
    dict(g_a=0.6, g_b=0.8, delta_a=1e6, delta_b=1e6),
    dict(g_a=0.6, g_b=0.8, delta_a=-1e6, delta_b=-1e6),
    dict(g_a=6e-10, g_b=8e-10, delta_a=0.2, delta_b=0.2),
    dict(g_a=6e-10, g_b=8e-10),
    dict(g_a=5e-324, g_b=5e-324, delta_a=1.0, delta_b=1.0),
], ids=["uncoupled_positive", "uncoupled_negative", "uncoupled_zero",
        "huge_positive", "huge_negative", "tiny_coupling", "tiny_coupling_zero",
        "subnormal_coupling"])
def test_resonant_eigh_edge_cases(fields):
    # block (1, 1) has s = hypot(g_a, g_b): 1 for the huge detunings, 1e-9
    # for the tiny couplings
    params = SystemParams(nbar_a=1, nbar_b=1, c=GROUND, **fields)
    assert_eigensystems(window_blocks(params, 0, 0, 12), resonant_solve)


def test_jacobi_sweep_cap_raises(monkeypatch):
    h = window_blocks(desk_params(delta_a=0.4), 1, 1, 3)
    monkeypatch.setattr(dynamics, "_JACOBI_SWEEPS", 1)
    with pytest.raises(RuntimeError, match="residual of .* after 1 sweeps"):
        jacobi_eigh(h)
    # diagonal blocks need no sweep at all
    monkeypatch.setattr(dynamics, "_JACOBI_SWEEPS", 0)
    eigenvalues, _ = jacobi_eigh(np.diag([2.0, -1.0, 0.5])[None])
    assert np.array_equal(eigenvalues, [[-1.0, 0.5, 2.0]])


# ---------------------------------------------------------------------------
# block evolution
# ---------------------------------------------------------------------------

def block_row(prop, index):
    """Row of block ``index`` in the propagator's padded arrays."""
    (row,) = np.flatnonzero(np.all(prop.index == index, axis=1))
    return row


def test_block_evolution_identity_at_zero():
    params = desk_params()
    index, initial = initial_state(params)
    assert np.max(np.abs(block_propagators(params, index, 0.0) - np.eye(3))) < 1e-14
    assert np.max(np.abs(BlockDiagonalPropagator(params).amplitudes_at(0.0) - initial)) < 1e-14


def test_block_evolution_matches_expm():
    # independent oracle: scipy's Pade-based matrix exponential per block,
    # applied to the initial amplitudes, lone-member blocks included
    params = desk_params(delta_a=0.4, delta_b=-0.2)
    prop = BlockDiagonalPropagator(params)
    _, initial = initial_state(params)
    h = block_hamiltonians(params, prop.index)
    for t in (0.3, 1.7, 4.0):
        expected = np.stack([expm(-1j * hb * t) @ a0
                             for hb, a0 in zip(h, initial)])
        assert np.max(np.abs(prop.amplitudes_at(t) - expected)) < 1e-12


@pytest.mark.parametrize("fields", [dict(), dict(delta_a=0.4, delta_b=-0.25)],
                         ids=["resonant", "detuned"])
def test_propagator_holds_the_eigenmode_amplitudes(fields):
    # modes[i, k, b] = V_b[i, k] c0_b[k] with c0 = V^T a(0), next to the
    # frequencies and the index: 16 + 24 + 144 bytes a block and nothing else
    params = desk_params(**fields)
    prop = BlockDiagonalPropagator(params)
    index, initial = initial_state(params)
    frequencies, vectors = block_eigensystems(params, index)
    assert np.array_equal(prop.index, index)
    assert np.array_equal(prop.frequencies, frequencies)
    c0 = np.einsum("ikb,bi->kb", vectors, initial)
    assert np.max(np.abs(prop.modes - vectors * c0)) < 1e-16
    assert sorted(vars(prop)) == ["frequencies", "index", "modes"]
    held = sum(array.nbytes for array in vars(prop).values())
    assert held == 184 * len(index)


def test_propagator_build_peak_stays_at_the_parent_bound():
    # resonant nbar 100/100, 16899 blocks: the build's tracemalloc peak,
    # initial_state and the eigensystems included, read 312 bytes a block
    # with the modes and 352 with the 280 bytes a block that the propagator
    # kept before them (interleaved eigenvectors, coeff0 and a(0))
    params = SystemParams(g_a=1.0, g_b=1.0, nbar_a=100.0, nbar_b=100.0, c=(0.6, 0.48j, -0.64))
    blocks = len(initial_state(params)[0])
    tracemalloc.start()
    try:
        BlockDiagonalPropagator(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 330 * blocks


SHAPE_OR_DTYPE = r"phases must be a complex128 array of shape \(3, 5\), got"


@pytest.mark.parametrize("make_phases", [
    lambda prop, tile, t: prop.phases(t),
    lambda prop, tile, t: tile.phases(t).astype(np.complex64),
    lambda prop, tile, t: np.stack([prop.phases(t)] * 2),
    lambda prop, tile, t: np.stack([tile.phases(t)] * 2).astype(np.complex64),
    lambda prop, tile, t: tile.phases(t)[None, None],
    lambda prop, tile, t: tile.phases(t)[0],
    lambda prop, tile, t: np.stack([np.repeat(tile.phases(t), 2, axis=-1)] * 2)[..., ::2],
], ids=["whole_state_twist", "complex64", "stack_of_whole_state_twists",
        "stack_complex64", "stack_4d", "one_level", "stack_strided_last_axis"])
def test_amplitudes_at_rejects_wrong_coefficients(make_phases):
    # a tile's phases, the twist exp(-i w t) of its modes, are (3, b)
    # complex128, and a stack (S, 3, b) of them is refused; the message
    # names the argument and what it expects instead of broadcasting
    # against the modes
    prop = BlockDiagonalPropagator(desk_params(delta_a=0.4, delta_b=-0.25))
    tile = prop[2:7]
    with pytest.raises(ValueError, match=SHAPE_OR_DTYPE):
        tile.amplitudes_at(0.9, make_phases(prop, tile, 0.9))


def test_tile_is_the_slice_of_the_whole_propagator():
    # a detuned, complex-c config, so every method's result has nonzero
    # imaginary parts
    prop = BlockDiagonalPropagator(desk_params(delta_a=0.4, delta_b=-0.25))
    blocks = len(prop.index)
    start, stop = 3, blocks - 4
    tile = prop[start:stop]
    assert np.array_equal(tile.index, prop.index[start:stop])
    for name in ("frequencies", "modes"):
        assert np.shares_memory(getattr(tile, name), getattr(prop, name))
    assert np.array_equal(tile.modes, prop.modes[:, :, start:stop])
    for t in (0.0, 1.7, -2.3):
        phases = prop.phases(t)
        assert np.array_equal(tile.phases(t), phases[:, start:stop])
        whole = prop.amplitudes_at(t)
        assert np.array_equal(tile.amplitudes_at(t), whole[start:stop])
        assert np.array_equal(tile.amplitudes_at(t, tile.phases(t)), whole[start:stop])
        stepped = tile.phases(t) * tile.phases(0.1)
        assert np.array_equal(tile.amplitudes_at(t, stepped),
                              prop.amplitudes_at(t, phases * prop.phases(0.1))[start:stop])
    # t is unused with phases, whose layout does not matter
    stepped = prop.phases(1.7) * prop.phases(0.1)
    assert np.array_equal(prop.amplitudes_at(0.0, stepped), prop.amplitudes_at(1.8, stepped))
    assert np.array_equal(prop.amplitudes_at(0.0, np.asfortranarray(stepped)),
                          prop.amplitudes_at(1.8, stepped))
    assert np.array_equal(prop[:].amplitudes_at(0.8), prop.amplitudes_at(0.8))


@pytest.mark.parametrize("blocks", [slice(0, 4, 2), slice(5, 5), slice(6, 2),
                                    slice(-1, None), slice(0, 10**6), 3],
                         ids=["step", "empty", "reversed", "negative", "past_the_end",
                              "integer"])
def test_tile_rejects_a_bad_block_range(blocks):
    prop = BlockDiagonalPropagator(desk_params())
    with pytest.raises(ValueError, match="blocks must be a slice"):
        prop[blocks]


def test_block_evolution_resonant_return_amplitude():
    # equal couplings at (1, 1): eigenvalues are 0 and +-sqrt(2) g, and the
    # level-1 member splits evenly between the zero mode and the two bright
    # modes, so <1|U|1> = 1/2 + cos(sqrt(2) g t)/2
    g = 0.8
    params = SystemParams(g_a=g, g_b=g, nbar_a=1, nbar_b=1, c=GROUND)
    prop = BlockDiagonalPropagator(params)
    row = block_row(prop, (1, 1))
    assert np.allclose(prop.frequencies[:, row], [-math.sqrt(2) * g, 0.0, math.sqrt(2) * g],
                       atol=1e-14)
    for t in np.linspace(0.0, 6.0, 7):
        u = block_propagators(params, prop.index, t)[row]
        assert u[0, 0] == pytest.approx(0.5 + 0.5 * math.cos(math.sqrt(2) * g * t),
                                        abs=1e-12)


@pytest.mark.parametrize("index", [(1, 1), (4, 2), (0, 3)])
def test_block_evolution_unitary_group(index):
    params = desk_params(delta_a=0.1)
    u1, u2, u12 = (block_propagators(params, [index], t)[0] for t in (1.3, 2.4, 3.7))
    assert np.max(np.abs(u1 @ u1.conj().T - np.eye(3))) < 1e-12
    assert np.max(np.abs(u1 @ u2 - u12)) < 1e-10


# ---------------------------------------------------------------------------
# initial states
# ---------------------------------------------------------------------------

def test_initial_state_ground_atom_vacuum_fields():
    params = SystemParams(g_a=1, g_b=1, nbar_a=0.0, nbar_b=0.0, c=GROUND)
    index, amplitudes = initial_state(params)
    assert index.tolist() == [[0, 1]]
    assert amplitudes[0, 0] == pytest.approx(1.0)


def test_initial_state_level2_vacuum_fields():
    params = SystemParams(g_a=1, g_b=1, nbar_a=0.0, nbar_b=0.0, c=(0, 1.0, 0))
    index, amplitudes = initial_state(params)
    assert index.tolist() == [[1, 0]]
    assert amplitudes[0, 1] == pytest.approx(1.0)


def test_initial_state_normalized():
    _, amplitudes = initial_state(desk_params())
    assert float(np.sum(np.abs(amplitudes) ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_initial_state_amplitudes_are_weighted_products():
    params = desk_params()
    index, amplitudes = initial_state(params)
    cut_a = truncation_cutoff(params.nbar_a, params.epsilon)
    cut_b = truncation_cutoff(params.nbar_b, params.epsilon)
    assert index.tolist() == sorted(index.tolist())

    def raw_amplitude(block):
        vec = np.zeros(3, dtype=complex)
        for level, n_a, n_b in members(block):
            if n_a <= cut_a and n_b <= cut_b:
                vec[level - 1] = (math.sqrt(stats.poisson.pmf(n_a, params.nbar_a))
                                  * math.sqrt(stats.poisson.pmf(n_b, params.nbar_b))
                                  * params.c[level - 1])
        return vec

    raw = np.array([raw_amplitude(tuple(block)) for block in index])
    captured = float(np.sum(np.abs(raw) ** 2))
    # captured weight is at least (1 - epsilon)^2 before renormalization
    assert captured > (1 - params.epsilon) ** 2 - 1e-12
    assert np.allclose(amplitudes, raw / math.sqrt(captured), atol=1e-14)


def test_initial_state_keeps_every_weighted_block():
    # windows with lower edges (lo_a 11, lo_b 0) and c_2 = 0: a block whose
    # only member inside the windows is its level-2 one has no weight
    params = desk_params(nbar_a=50.0, nbar_b=20.0, c=(0.6, 0.0, 0.8))
    lo_a, cut_a = photon_window(params.nbar_a, params.epsilon)
    lo_b, cut_b = photon_window(params.nbar_b, params.epsilon)
    assert lo_a > 0
    blocks, raw = [], []
    for block in np.ndindex(cut_a + 2, cut_b + 2):
        if block == (0, 0):
            continue
        vec = np.zeros(3, dtype=complex)
        for level, n_a, n_b in members(block):
            if lo_a <= n_a <= cut_a and lo_b <= n_b <= cut_b:
                vec[level - 1] = (math.sqrt(stats.poisson.pmf(n_a, params.nbar_a))
                                  * math.sqrt(stats.poisson.pmf(n_b, params.nbar_b))
                                  * params.c[level - 1])
        if np.any(vec != 0):
            blocks.append(list(block))
            raw.append(vec)
    index, amplitudes = initial_state(params)
    assert index.tolist() == blocks
    raw = np.array(raw)
    assert np.allclose(amplitudes, raw / np.linalg.norm(raw), atol=1e-14)


# ---------------------------------------------------------------------------
# evolution of full states
# ---------------------------------------------------------------------------

def test_evolve_trivial_for_zero_couplings_on_resonance():
    params = SystemParams(g_a=0.0, g_b=0.0, nbar_a=0.6, nbar_b=0.6, c=GROUND)
    prop = BlockDiagonalPropagator(params)
    assert np.allclose(prop.amplitudes_at(3.7), initial_state(params)[1], atol=1e-14)


def test_evolve_degenerate_blocks_only_rotate_phase():
    params = desk_params(delta_a=0.45)
    prop = BlockDiagonalPropagator(params)
    t = 2.1
    row = block_row(prop, (0, 1))  # only the level-1 member exists
    expected = np.exp(1j * params.delta_a * t) * initial_state(params)[1][row]
    assert np.allclose(prop.amplitudes_at(t)[row], expected, atol=1e-12)


def test_evolve_conserves_norm_and_block_weights():
    params = desk_params()
    state_t = BlockDiagonalPropagator(params).amplitudes_at(5.0)
    assert float(np.linalg.norm(state_t)) == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(np.sum(np.abs(state_t) ** 2, axis=1),
                       np.sum(np.abs(initial_state(params)[1]) ** 2, axis=1), atol=1e-12)


def test_evolve_group_property_and_time_reversal():
    params = desk_params()
    prop = BlockDiagonalPropagator(params)

    def apply(t, state):
        return np.einsum("bij,bj->bi", block_propagators(params, prop.index, t), state)

    one_step = prop.amplitudes_at(3.0)
    two_steps = apply(1.75, prop.amplitudes_at(1.25))
    assert np.allclose(one_step, two_steps, atol=1e-10)
    back = apply(-3.0, one_step)
    assert np.allclose(back, initial_state(params)[1], atol=1e-10)


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
def test_propagator_rejects_a_non_finite_time(t):
    params = desk_params()
    prop = BlockDiagonalPropagator(params)
    for evaluate in (prop.phases, prop.amplitudes_at,
                     lambda t: block_propagators(params, prop.index, t)):
        with pytest.raises(ValueError, match="t must be a finite time"):
            evaluate(t)


# ---------------------------------------------------------------------------
# populations
# ---------------------------------------------------------------------------

def populations(params, times):
    series = time_series(params, np.asarray(times, dtype=float))
    return np.column_stack([series["pop1"], series["pop2"], series["pop3"]])


def test_initial_populations_match_amplitudes():
    params = desk_params()
    pops = populations(params, [0.0])[0]
    expected = np.array([abs(x) ** 2 for x in params.c])
    assert np.allclose(pops, expected, atol=1e-10)
    assert float(np.sum(pops)) == pytest.approx(1.0, abs=1e-10)


def test_populations_conserved_without_coupling():
    params = SystemParams(g_a=0.0, g_b=0.0, nbar_a=0.8, nbar_b=0.3,
                          c=(0.6, 0.8j, 0.0), delta_a=0.2, delta_b=0.4)
    pops = populations(params, [0.0, 7.0])
    assert np.allclose(pops[1], pops[0], atol=1e-12)


def test_single_block_rabi_populations():
    # one full block: populations follow the analytic three-level solution
    g = 1.0
    params = SystemParams(g_a=g, g_b=g, nbar_a=1, nbar_b=1, c=GROUND)
    prop = BlockDiagonalPropagator(params)
    row = block_row(prop, (1, 1))
    s = math.sqrt(2) * g
    for t in np.linspace(0, 5, 11):
        # the level-1 member of block (1, 1), evolved on its own
        pops = np.abs(block_propagators(params, prop.index, t)[row][:, 0]) ** 2
        cos_st = math.cos(s * t)
        assert pops[0] == pytest.approx(((1 + cos_st) / 2) ** 2, abs=1e-12)
        assert pops[1] == pytest.approx(((1 - cos_st) / 2) ** 2, abs=1e-12)
        assert pops[2] == pytest.approx(math.sin(s * t) ** 2 / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# packed propagator
# ---------------------------------------------------------------------------

def test_propagator_matches_direct_evolution():
    # amplitudes_at (eigenbasis coefficients) against the block propagators
    # applied to the initial amplitudes, and the R-matrix populations of
    # time_series against the amplitudes summed directly
    params = desk_params()
    prop = BlockDiagonalPropagator(params)
    _, initial = initial_state(params)
    times = (0.0, 1.1, 4.2)
    pops = populations(params, times)
    for k, t in enumerate(times):
        fast = prop.amplitudes_at(t)
        slow = np.einsum("bij,bj->bi", block_propagators(params, prop.index, t), initial)
        assert np.allclose(fast, slow, atol=1e-12)
        assert np.allclose(pops[k], np.sum(np.abs(slow) ** 2, axis=0), atol=1e-12)
