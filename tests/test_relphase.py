"""Tests for the relative-phase eigenstates and distributions."""

import decimal
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lambdaphase import algebra, dynamics, oracle
from lambdaphase.cli import time_scale
from lambdaphase.dynamics import BlockDiagonalPropagator, SystemParams
from lambdaphase.oracle import (_ALGEBRA_MATRICES, _dressed_block_lowering,
                                global_phase_exponential, verify_deformed_algebra,
                                verify_deformed_polar)
from lambdaphase.relphase import (PHASE_KEYS, REDUCE_CHUNK, SEGMENT, SERIES_KEYS,
                                  block_tiles, grid_segments, marginal_distribution,
                                  rel_phase_eigenstates, series_rows, time_series,
                                  trapping_config)

GROUND = (1.0, 0.0, 0.0)
LABELS = ("0", "+", "-")


def desk_params(**overrides):
    defaults = dict(g_a=1.0, g_b=0.9, nbar_a=1.1, nbar_b=0.6,
                    c=(0.6, -0.48j, 0.64), epsilon=1e-10)
    defaults.update(overrides)
    return SystemParams(**defaults)


def eigenstates(transition, index):
    """Labelled eigenstates of one block, as label -> vector in level order."""
    states = rel_phase_eigenstates(transition, [index])[0]
    return dict(zip(LABELS, states.T))


# ---------------------------------------------------------------------------
# eigenstates per block
# ---------------------------------------------------------------------------

def test_eigenstates_13_full_block():
    eig = eigenstates("13", (1, 1))
    # members ordered (1;1,0), (2;0,1), (3;0,0)
    assert np.allclose(eig["0"], [0, 1, 0])
    root_half = 1 / math.sqrt(2)
    assert np.allclose(eig["+"], [-1j * root_half, 0, root_half])
    assert np.allclose(eig["-"], [1j * root_half, 0, root_half])


def test_eigenstates_12_full_block():
    eig = eigenstates("12", (1, 1))
    assert np.allclose(eig["0"], [0, 0, 1.0])
    root_half = 1 / math.sqrt(2)
    assert np.allclose(eig["+"], [-1j * root_half, root_half, 0])
    assert np.allclose(eig["-"], [1j * root_half, root_half, 0])


@pytest.mark.parametrize("transition", ["13", "23", "12"])
@pytest.mark.parametrize("index", [(1, 1), (2, 3), (5, 1)])
def test_eigenstates_orthonormal_complete_in_full_blocks(transition, index):
    vectors = rel_phase_eigenstates(transition, [index])[0]
    gram = vectors.conj().T @ vectors
    assert np.max(np.abs(gram - np.eye(3))) < 1e-12
    completeness = vectors @ vectors.conj().T
    assert np.max(np.abs(completeness - np.eye(3))) < 1e-12


@pytest.mark.parametrize("transition", ["13", "23", "12"])
@pytest.mark.parametrize("index", [(1, 1), (3, 2)])
def test_eigenstates_match_block_exponential(transition, index):
    # defining property: the phase exponential, in the basis of the block
    # members, has eigenvalue exp(i phi_label) on each labelled state
    op = algebra.phase_exponential(transition)
    phases = {"0": 1.0, "+": 1j, "-": -1j}
    for label, vec in eigenstates(transition, index).items():
        assert np.max(np.abs(op @ vec - phases[label] * vec)) < 1e-12


def test_eigenstates_degenerate_level1_member():
    # block (0, nb): only the level-1 member exists; the "0" state of 13
    # (level 2) has no entry left
    eig = eigenstates("13", (0, 2))
    assert np.array_equal(eig["0"], np.zeros(3))
    assert np.allclose(eig["+"], [-1j / math.sqrt(2), 0, 0])
    assert np.allclose(eig["-"], [1j / math.sqrt(2), 0, 0])
    eig = eigenstates("23", (0, 2))
    assert np.allclose(eig["0"], [1.0, 0, 0])
    assert np.array_equal(eig["+"], np.zeros(3))
    assert np.array_equal(eig["-"], np.zeros(3))


def test_eigenstates_degenerate_level2_member():
    # block (na, 0): only the level-2 member exists
    eig = eigenstates("23", (3, 0))
    assert np.array_equal(eig["0"], np.zeros(3))
    assert np.allclose(eig["+"], [0, -1j / math.sqrt(2), 0])
    eig13 = eigenstates("13", (3, 0))
    assert np.allclose(eig13["0"], [0, 1.0, 0])
    assert np.array_equal(eig13["+"], np.zeros(3))


def test_eigenstates_resolve_block_norm_everywhere():
    # sum_r |<state_r|psi>|^2 equals |psi|^2 even in degenerate blocks,
    # with psi supported on the existing members
    rng = np.random.default_rng(3)
    index = [(1, 1), (0, 2), (3, 0), (4, 4)]
    present = np.array([[1, 1, 1], [1, 0, 0], [0, 1, 0], [1, 1, 1]])
    psi = present * (rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3)))
    for transition in ("13", "23", "12"):
        states = rel_phase_eigenstates(transition, index)
        total = np.sum(np.abs(np.einsum("bik,bi->bk", states.conj(), psi)) ** 2, axis=1)
        assert np.allclose(total, np.sum(np.abs(psi) ** 2, axis=1), rtol=1e-12)


def test_eigenstates_reject_empty_subspace():
    with pytest.raises(ValueError):
        rel_phase_eigenstates("13", [(0, 0)])


def test_block_exponential_ladder_action():
    op = algebra.phase_exponential("13")
    e_partner, e_zero, e_upper = np.eye(3)  # levels 1, 2, 3
    assert np.allclose(op @ e_upper, e_partner)   # upper member maps down
    assert np.allclose(op @ e_zero, e_zero)       # zero member is fixed
    assert np.max(np.abs(op @ op.conj().T - np.eye(3))) < 1e-15


# ---------------------------------------------------------------------------
# marginal distributions by projection
# ---------------------------------------------------------------------------

def test_joint_distribution_vacuum_ground_atom():
    params = SystemParams(g_a=1, g_b=1, nbar_a=0.0, nbar_b=0.0, c=GROUND)
    prop = BlockDiagonalPropagator(params)
    assert prop.index.tolist() == [[0, 1]]
    dist = marginal_distribution(prop.index, prop.initial, "13")
    assert dist.shape == (3,)
    assert dist.sum() == pytest.approx(1.0)
    assert dist[1] == pytest.approx(0.5)


def test_joint_distribution_sums_to_one():
    prop = BlockDiagonalPropagator(desk_params())
    state = prop.amplitudes_at(1.3)
    for transition in ("13", "23", "12"):
        total = marginal_distribution(prop.index, state, transition).sum()
        assert total == pytest.approx(1.0, abs=1e-10)


def test_initial_marginals_ground_atom():
    prop = BlockDiagonalPropagator(desk_params(c=GROUND))
    d23 = marginal_distribution(prop.index, prop.initial, "23")
    assert d23[0] == pytest.approx(1.0, abs=1e-12)
    assert d23[1] == pytest.approx(0.0, abs=1e-12)
    d13 = marginal_distribution(prop.index, prop.initial, "13")
    assert d13[0] == pytest.approx(0.0, abs=1e-12)
    assert d13[1] == pytest.approx(0.5, abs=1e-12)
    assert d13[2] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("time", [0.0, 0.9, 2.7])
def test_zero_label_equals_populations(time):
    prop = BlockDiagonalPropagator(desk_params())
    state = prop.amplitudes_at(time)
    pops = np.sum(np.abs(state) ** 2, axis=0)
    for transition, level in (("13", 2), ("23", 1), ("12", 3)):
        dist = marginal_distribution(prop.index, state, transition)
        assert dist[0] == pytest.approx(pops[level - 1], abs=1e-10)


@given(t=st.floats(0.0, 8.0))
@settings(max_examples=15, deadline=None)
def test_marginals_complete_over_time(t):
    prop = BlockDiagonalPropagator(desk_params(nbar_a=0.7, nbar_b=0.4))
    state = prop.amplitudes_at(t)
    for transition in ("13", "23", "12"):
        dist = marginal_distribution(prop.index, state, transition)
        assert dist.sum() == pytest.approx(1.0, abs=1e-10)
        assert min(dist) > -1e-12


def test_projection_agrees_with_closed_form_series():
    # the projection path (explicit per-block eigenstates) and the R-matrix
    # reduction of time_series must agree on every transition and time,
    # with detunings so that the lone-member blocks pick up phases; the
    # nbar 100/100 case has more blocks than one REDUCE_CHUNK
    c = np.array([0.6, 0.48 + 0.36j, 0.4 - 0.34871170611122j])
    large = SystemParams(g_a=1.0, g_b=0.8, nbar_a=100.0, nbar_b=100.0,
                         c=tuple(c / np.linalg.norm(c)), delta_a=0.3, delta_b=-0.45)
    for params, times, blocks in (
            (desk_params(delta_a=0.3, delta_b=-0.45), np.linspace(0.0, 5.0, 9), 179),
            (large, np.linspace(0.0, 5.0, 3), 16899)):
        series = time_series(params, times)
        prop = BlockDiagonalPropagator(params)
        assert len(prop.index) == blocks
        for k, t in enumerate(times):
            state = prop.amplitudes_at(float(t))
            for transition, keys in PHASE_KEYS.items():
                dist = marginal_distribution(prop.index, state, transition)
                for label, key in enumerate(keys):
                    assert dist[label] == pytest.approx(series[key][k], abs=1e-10)


def test_time_series_columns_over_segments():
    # three segments, so the identities hold across segment boundaries
    params = desk_params()
    times = np.linspace(0.0, 2.0, 2 * SEGMENT + 5)
    assert len(grid_segments(times)[1]) == 3
    series = time_series(params, times)
    assert tuple(series) == SERIES_KEYS
    total = series["pop1"] + series["pop2"] + series["pop3"]
    assert np.allclose(total, 1.0, atol=1e-10)
    assert np.allclose(series["norm"], 1.0, atol=1e-10)
    assert np.allclose(series["p13_0"], series["pop2"], atol=1e-12)
    assert np.allclose(series["p23_0"], series["pop1"], atol=1e-12)
    assert np.allclose(series["p12_0"], series["pop3"], atol=1e-12)


def test_photon_window_matches_the_full_rectangle(monkeypatch):
    # nbar 50 drops the 11 lowest photon numbers of each mode; the full
    # rectangle comes from a window with its lower edge moved to 0
    params = desk_params(nbar_a=50.0, nbar_b=50.0, delta_a=0.3, delta_b=-0.2)
    times = np.linspace(0.0, 3.0, 9)
    windowed = series_table(time_series(params, times))
    window = dynamics.photon_window
    monkeypatch.setattr(dynamics, "photon_window", lambda nbar, eps: (0, window(nbar, eps)[1]))
    full = series_table(time_series(params, times))
    assert np.max(np.abs(windowed - full)) <= 1e-10


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_time_series_rejects_a_non_finite_time(bad):
    with pytest.raises(ValueError, match="times must be finite"):
        time_series(desk_params(), np.array([0.0, bad, 1.0]))


@pytest.mark.parametrize("times, shape", [(5.0, r"\(\)"),
                                          (np.zeros((2, 3)), r"\(2, 3\)")])
def test_time_series_rejects_a_grid_that_is_not_one_dimensional(times, shape):
    with pytest.raises(ValueError, match=f"times must be a one-dimensional grid, "
                                         f"got shape {shape}"):
        time_series(desk_params(), times)


# ---------------------------------------------------------------------------
# segment recurrence against the exact per-sample path
# ---------------------------------------------------------------------------

def one_sample_rows(amplitudes):
    """The 13 columns of one (B, 3) state: one R per block tile, added by series_rows."""
    levels = amplitudes.T
    r = [np.vecdot(levels[None, :, start:stop], levels[:, None, start:stop])
         for start, stop in block_tiles(len(amplitudes))]
    return series_rows(np.array(r)[:, None])[0]


def exact_rows(params, times):
    """The 13 columns of each sample from amplitudes_at(t) and its exact exp."""
    prop = BlockDiagonalPropagator(params)
    return np.array([one_sample_rows(prop.amplitudes_at(float(t))) for t in times])


def stepped_rows(prop, times):
    """time_series one sample at a time: the stepped twist of each segment,
    amplitudes_at and a one-sample reduction per sample."""
    dt, segments = grid_segments(times)
    step = prop.phases(dt)
    rows = []
    for start, stop in segments:
        twisted = prop.twist(times[start])
        for k in range(start, stop):
            if k > start:
                twisted *= step
            rows.append(one_sample_rows(prop.amplitudes_at(times[k], twisted)))
    return np.array(rows)


def series_table(series):
    return np.column_stack([series[key] for key in SERIES_KEYS])


def test_recurrence_matches_exact_exp_on_a_long_grid():
    # weak_long's physics over tau 0..40: t reaches 251 and w t about 1300,
    # with 157 segments of stepped phases
    params = SystemParams(g_a=1.0, g_b=1.0, nbar_a=1.0, nbar_b=1.0, c=GROUND)
    times = np.linspace(0.0, 40.0, 10001) * 2.0 * math.pi
    assert len(grid_segments(times)[1]) == 157
    got = series_table(time_series(params, times))
    assert np.max(np.abs(got - exact_rows(params, times))) < 1e-12


@pytest.mark.parametrize("nbar, samples, uniform, blocks, group", [
    (1.0, 2 * SEGMENT + 5, True, 169, 3),  # fig2 physics: one group, last segment short
    (1.0, 49 * SEGMENT + 5, True, 169, 48),  # two groups, the second a full and a short segment
    (1.0, 100, False, 169, 48),  # one-sample segments with exact twists, three groups
    (100.0, SEGMENT + 3, True, 16641, 1),  # three tiles of 5547 blocks, one segment a group
], ids=["fig2", "fig2_two_groups", "fig2_non_uniform", "nbar100"])
def test_time_series_matches_a_per_sample_loop_bitwise(nbar, samples, uniform, blocks, group):
    params = SystemParams(g_a=1.0, g_b=1.0, nbar_a=nbar, nbar_b=nbar, c=GROUND)
    times = np.linspace(0.0, 2.0, samples) * 2.0 * math.pi * math.sqrt(nbar)
    if not uniform:
        times = np.sort(np.random.default_rng(samples).uniform(0.0, times[-1], samples))
    prop = BlockDiagonalPropagator(params)
    assert len(prop.index) == blocks
    widest = max(stop - start for start, stop in block_tiles(blocks))
    segments = grid_segments(times)[1]
    assert max(1, min(len(segments), SEGMENT, REDUCE_CHUNK // widest)) == group
    got = series_table(time_series(params, times))
    assert np.array_equal(got, stepped_rows(prop, times))


def test_time_series_of_an_empty_grid_is_thirteen_empty_columns():
    series = time_series(desk_params(), np.empty(0))
    assert tuple(series) == SERIES_KEYS
    assert all(column.shape == (0,) for column in series.values())


@pytest.mark.parametrize("nbar", [1.0, 0.01], ids=["fig2", "few_blocks"])
def test_time_series_memory_does_not_grow_with_the_grid(nbar):
    # the group buffers and R rows are sized by SEGMENT and REDUCE_CHUNK,
    # never by the grid: at a few blocks the group is capped at SEGMENT
    # segments, so a group's R stays at SEGMENT**2 samples however long the
    # grid is.  Only the (T, 13) table and the segment list grow with T.
    params = SystemParams(g_a=1.0, g_b=1.0, nbar_a=nbar, nbar_b=nbar, c=GROUND)
    beside_table = []
    for samples in (5001, 20001):
        times = np.linspace(0.0, 40.0, samples) * 2.0 * math.pi
        tracemalloc.start()
        try:
            time_series(params, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beside_table.append(peak - samples * len(SERIES_KEYS) * 8)
    assert beside_table[1] - beside_table[0] <= 64 * 1024, beside_table


@pytest.mark.parametrize("nbar, n", [(1.1, 1), (1.1, 2), (1.1, SEGMENT), (1.1, SEGMENT + 1),
                                     (50.0, SEGMENT + 1)],
                         ids=["1", "2", str(SEGMENT), str(SEGMENT + 1), "nbar50"])
def test_recurrence_matches_exact_exp_at_segment_edges(nbar, n):
    # nbar 50/50 has 8463 blocks, two tiles, so the exact twist at the
    # second segment's start is pinned in each tile
    params = desk_params(nbar_a=nbar, nbar_b=nbar, delta_a=0.35, delta_b=-0.2)
    times = np.linspace(0.3, 9.0, n)
    if nbar == 50.0:
        blocks = len(BlockDiagonalPropagator(params).index)
        assert block_tiles(blocks) == [(0, 4231), (4231, 8463)]
    got = series_table(time_series(params, times))
    expected = exact_rows(params, times)
    assert np.max(np.abs(got - expected)) < 1e-12
    # each segment's first sample is the exact twist itself
    assert np.array_equal(got[0], expected[0])
    if n > SEGMENT:
        assert np.array_equal(got[SEGMENT], expected[SEGMENT])


def random_r(rng, tiles, samples):
    """Per-tile matrices R = sum_b a_b a_b^dagger of random amplitudes, total trace 1."""
    a = rng.normal(size=(tiles, samples, 3, 4)) + 1j * rng.normal(size=(tiles, samples, 3, 4))
    r = a @ a.conj().swapaxes(-1, -2)
    return r / np.trace(r.sum(axis=0), axis1=-2, axis2=-1).real[:, None, None]


@pytest.mark.parametrize("tiles, samples", [(1, 1), (1, SEGMENT), (3, 17)])
def test_series_rows_match_the_direct_expectation_values(tiles, samples):
    # <v|R|v> over the full-block phase eigenstates in PHASE_KEYS order,
    # the level populations diag R and the norm tr R, sample by sample
    r = random_r(np.random.default_rng(tiles * samples), tiles, samples)
    vectors = [*(algebra.phase_eigensystem(t)[1].T for t in PHASE_KEYS), np.eye(3)]
    expected = []
    for total in r.sum(axis=0):
        values = [np.vdot(v, total @ v).real for block in vectors for v in block]
        expected.append(values + [np.trace(total).real])
    got = series_rows(r)
    assert got.shape == (samples, len(SERIES_KEYS))
    assert np.max(np.abs(got - np.array(expected))) <= 1e-15


@pytest.mark.parametrize("samples", [1, 2, SEGMENT - 1, SEGMENT, SEGMENT**2])
def test_series_rows_do_not_depend_on_how_many_samples_are_read_together(samples):
    # each row of a T-row call carries the bits of the one-row call, which
    # keeps time_series' bytes independent of its group and segment lengths
    r = random_r(np.random.default_rng(samples), 2, samples)
    got = series_rows(r)
    for t in range(samples):
        assert np.array_equal(got[t], series_rows(r[:, t:t + 1])[0]), t


@pytest.mark.parametrize("blocks", [1, 169, REDUCE_CHUNK, REDUCE_CHUNK + 1, 16641])
def test_block_tiles_are_the_fewest_equal_tiles_in_order(blocks):
    tiles = block_tiles(blocks)
    assert tiles[0][0] == 0 and tiles[-1][1] == blocks
    assert all(stop == start for (_, stop), (start, _) in zip(tiles, tiles[1:]))
    sizes = [stop - start for start, stop in tiles]
    assert max(sizes) <= REDUCE_CHUNK and max(sizes) - min(sizes) <= 1
    assert len(tiles) == -(-blocks // REDUCE_CHUNK)
    if blocks <= REDUCE_CHUNK:
        assert tiles == [(0, blocks)]


def test_non_uniform_grid_is_the_exact_path():
    params = desk_params(delta_a=-0.25, delta_b=0.4)
    times = np.sort(np.random.default_rng(7).uniform(0.0, 12.0, SEGMENT + 9))
    dt, segments = grid_segments(times)
    assert dt == 0.0 and segments == [(k, k + 1) for k in range(len(times))]
    got = series_table(time_series(params, times))
    assert np.array_equal(got, exact_rows(params, times))


def test_grid_segments_tolerate_only_rounding():
    times = np.linspace(0.0, 3.0, 200) * 2.0 * math.pi * math.sqrt(50.0)
    dt, segments = grid_segments(times)
    assert dt > 0.0 and len(segments) == 4 and segments[-1] == (192, 200)
    nudged = times.copy()
    nudged[77] += 1e-9
    assert grid_segments(nudged)[1] == [(k, k + 1) for k in range(200)]


@settings(max_examples=200, deadline=None)
@given(tau_max=st.floats(0.0, 100.0, exclude_min=True), tau_steps=st.integers(2, 20001),
       g_a=st.floats(0.01, 10.0), nbar_a=st.floats(0.0, 1000.0))
def test_scenario_grids_take_the_stepped_path(tau_max, tau_steps, g_a, nbar_a):
    # every grid built as run_scenario builds it must be uniform: were
    # UNIFORM_ULPS too tight for one, that run would fall back to the exact
    # per-sample exp with the same columns, and nothing else would show it.
    # A tau or t grid spaced in subnormals (tau_max near 1e-308) has too few
    # bits to be uniform to a few ulp and takes the exact path; it is left out.
    params = SystemParams(g_a=g_a, g_b=1.0, nbar_a=nbar_a, nbar_b=1.0, c=GROUND)
    taus = np.linspace(0.0, tau_max, tau_steps)
    times = taus * time_scale(params)
    assume(min(taus[1], times[1]) >= np.finfo(float).tiny)
    assert len(grid_segments(times)[1]) == -(-tau_steps // SEGMENT)


# ---------------------------------------------------------------------------
# one-mode (Jaynes-Cummings) limits at scale
# ---------------------------------------------------------------------------

def reference_top(nbar):
    """Last photon number of the reference, past any window the program keeps."""
    return math.ceil(nbar + 20 * math.sqrt(nbar) + 100)


def poisson_amplitudes(nbar):
    """sqrt of the Poisson(nbar) probabilities of 0..reference_top(nbar), by a
    40-digit decimal recurrence."""
    top = reference_top(nbar)
    with decimal.localcontext() as context:
        context.prec = 40
        mean, amplitudes = decimal.Decimal(nbar), []
        p = (-mean).exp()
        for n in range(top + 1):
            if n:
                p = p * mean / n
            amplitudes.append(float(p.sqrt()))
    return np.array(amplitudes)


def one_mode_columns(coupled, g, nbar, nbar_other, delta, delta_other, c, times):
    """The 13 columns of a one-mode limit in SERIES_KEYS order, shape (T, 13).

    Lower level ``coupled`` (1 or 2) is coupled to level 3 by its mode with
    strength g and has detuning ``delta``; the other lower level, with
    ``delta_other``, and the other mode are spectators.  With K photons of
    the coupled mode on the coupled level, the other two members of its
    block hold K - 1; of the spectator mode the coupled level and level 3
    hold m - 1 and the other level m.  The coupled pair follows the Rabi
    formula for [[-delta, k], [k, 0]], k = g sqrt(K), Omega =
    sqrt(delta^2 / 4 + k^2):

        exp(-i H t) = exp(i delta t / 2) (cos(Omega t) - i sin(Omega t) / Omega
                      [[-delta / 2, k], [k, delta / 2]])

    and the other level picks up exp(i delta_other t).  The block sum R then
    factors into the sum over K of the coupled mode's amplitudes times the
    spectator overlaps: 1 between members holding the same spectator
    photons, sum_m Q(m) Q(m + 1) between the others.  Labels as in the
    relphase module docstring: "0" is the spectator level, "+" is
    (upper - i lower) / sqrt(2) and "-" is (upper + i lower) / sqrt(2).
    """
    lower, other = coupled - 1, 2 - coupled
    q = poisson_amplitudes(nbar)
    q_less = np.append(0.0, q[:-1])  # Q(K - 1)
    t = np.asarray(times)[:, None]
    k = g * np.sqrt(np.arange(len(q)))
    omega = np.sqrt(delta * delta / 4 + k * k)
    cos = np.cos(omega * t)
    sin = np.sin(omega * t) / omega  # Omega >= |delta| / 2 > 0
    a_lower, a_upper = c[lower] * q, c[2] * q_less
    amplitudes = np.empty((len(t), 3, len(q)), dtype=complex)
    amplitudes[:, lower] = (cos + 0.5j * delta * sin) * a_lower - 1j * k * sin * a_upper
    amplitudes[:, 2] = -1j * k * sin * a_lower + (cos - 0.5j * delta * sin) * a_upper
    amplitudes[:, [lower, 2]] *= np.exp(0.5j * delta * t)[:, None]
    amplitudes[:, other] = np.exp(1j * delta_other * t) * c[other] * q_less
    spectator = poisson_amplitudes(nbar_other)
    overlaps = np.full((3, 3), np.sum(spectator ** 2))
    shifted = np.sum(spectator[1:] * spectator[:-1])
    overlaps[other, [lower, 2]] = overlaps[[lower, 2], other] = shifted
    r = np.einsum("tik,tjk->tij", amplitudes, amplitudes.conj()) * overlaps

    columns = []
    for lo, up, spect in ((0, 2, 1), (1, 2, 0), (0, 1, 2)):
        for sign in (0, -1, 1):
            v = np.zeros(3, dtype=complex)
            if sign:
                v[up], v[lo] = 1 / math.sqrt(2), sign * 1j / math.sqrt(2)
            else:
                v[spect] = 1.0
            columns.append(np.einsum("i,tij,j->t", v.conj(), r, v).real)
    populations = np.einsum("tii->ti", r).real
    return np.column_stack(columns + list(populations.T) + [populations.sum(axis=1)])


@pytest.mark.parametrize("coupled, g, nbar, nbar_other, delta, delta_other", [
    (1, 1.0, 1000.0, 2.0, 0.3, 0.3),  # g_b = 0, resonant_eigh with y = 0
    (1, 1.0, 1000.0, 2.0, 0.3, -0.2),  # g_b = 0, Jacobi
    (2, 0.8, 1000.0, 0.5, -0.3, -0.3),  # g_a = 0, resonant_eigh with x = 0
    (2, 0.8, 1000.0, 0.5, -0.2, 0.3),  # g_a = 0, Jacobi
], ids=["gb0_resonant", "gb0_detuned", "ga0_resonant", "ga0_detuned"])
def test_one_mode_limits_match_the_rabi_formula(coupled, g, nbar, nbar_other,
                                                delta, delta_other):
    """All 13 columns at nbar 1000 against the Jaynes-Cummings limit, over tau 0-2.

    Tolerance.  Truncation: each mode's window discards at most epsilon of
    its Poisson weight, so the renormalized kept state phi and the exact
    state psi, both evolved by the same unitary, differ by
    |phi - psi|^2 = (1 - sqrt(1 - w))^2 + w <= 2 w, w <= 2 epsilon being the
    weight outside.  Each column is |A psi|^2 for an A of norm at most 1, so
    it moves by at most 2 |phi - psi| <= 4 sqrt(epsilon).  The windows cut
    blocks, so nothing linear in epsilon bounds it; epsilon 1e-30 makes it
    4e-15.  Rounding: each phase w t, |w| <= Omega + |delta|, is off by a few
    eps |w t| in the program (grid point within 4 ulp of its stepped place,
    eigenvalue, product, exp) and in the reference (Omega, product, sin and
    cos), at most 16 eps |w t| together, and a column by twice that.  What
    does not grow with t (the <= 63 stepped products, sums over <= 8192
    blocks a tile, and the program's Poisson table, within about 1e-12
    relative at nbar 1000) stays below 4e-12, under another 16 eps
    max|w t| once max|w t| >= 1200.  So the columns agree within
    4 sqrt(epsilon) + 48 eps max|w t|.
    """
    epsilon = 1e-30
    c = (0.6, 0.48j, 0.64 * complex(math.cos(1.0), math.sin(1.0)))
    couplings = (g, 0.0) if coupled == 1 else (0.0, g)
    nbars = (nbar, nbar_other) if coupled == 1 else (nbar_other, nbar)
    deltas = (delta, delta_other) if coupled == 1 else (delta_other, delta)
    params = SystemParams(g_a=couplings[0], g_b=couplings[1], nbar_a=nbars[0],
                          nbar_b=nbars[1], c=c, delta_a=deltas[0], delta_b=deltas[1],
                          epsilon=epsilon)
    times = np.linspace(0.0, 4.0 * math.pi * math.sqrt(nbar) / g, 41)
    expected = one_mode_columns(coupled, g, nbar, nbar_other, delta, delta_other, c, times)
    got = series_table(time_series(params, times))

    omega = math.sqrt(delta ** 2 / 4 + g ** 2 * reference_top(nbar))
    phase = times[-1] * (omega + abs(delta) + abs(delta_other))
    assert phase >= 1200
    eps = np.finfo(float).eps
    assert np.max(np.abs(got - expected)) <= 4 * math.sqrt(epsilon) + 48 * eps * phase


# ---------------------------------------------------------------------------
# deformed algebra verification
# ---------------------------------------------------------------------------

def test_deformed_algebra_brackets_small_cutoffs():
    assert verify_deformed_algebra(4) < 1e-12
    assert verify_deformed_algebra(2) < 1e-12


def test_deformed_algebra_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        verify_deformed_algebra(1)


@pytest.mark.parametrize("check, itemsize", [
    (verify_deformed_algebra, 8),
    (lambda cutoff: global_phase_exponential("13", cutoff), 16),
], ids=["deformed-algebra", "global-phase-exponential"])
def test_dense_checks_refuse_a_matrix_above_the_cap_before_allocation(check, itemsize):
    # at cutoff 60 the dimension is 3 * 61**2 = 11163, about 1-2 GB a matrix
    size = (3 * 61**2) ** 2 * itemsize
    assert size > oracle.MAX_MATRIX_BYTES
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"needs a {size} byte matrix"):
            check(60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_deformed_algebra_refuses_a_cutoff_whose_matrices_together_pass_the_cap():
    # at cutoff 42 (dimension 5547) one matrix fits under the cap, but the
    # matrices the check holds at once do not
    size = (3 * 43**2) ** 2 * 8
    assert size <= oracle.MAX_MATRIX_BYTES < _ALGEBRA_MATRICES * size
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"needs a {size} byte matrix ({_ALGEBRA_MATRICES} held at once, "
                f"{_ALGEBRA_MATRICES * size} bytes)")):
            verify_deformed_algebra(42)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("cutoff", [8, 16])
def test_deformed_algebra_holds_no_more_matrices_than_it_checks(cutoff):
    dim = 3 * (cutoff + 1) ** 2
    tracemalloc.start()
    try:
        verify_deformed_algebra(cutoff)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the matrices, plus vectors and index arrays of the dimension's length
    assert peak <= _ALGEBRA_MATRICES * dim * dim * 8 + 64 * dim * 8, peak / (dim * dim * 8)


def test_dressed_lowering_annihilates_its_vacuum_member():
    # the level-1 member is killed by the dressed 1<->3 lowering operator,
    # the transpose of the oracle's raising one
    level = oracle.basis_states(3, 3)[0]
    rows, cols, values = oracle.dressed_ladders(3, 3)["13"]
    lowering = np.zeros((len(level), len(level)))
    lowering[cols, rows] = values
    assert np.any(lowering)
    assert not np.any(lowering[:, level == 1])


def test_global_phase_exponential_commutes_with_excitations():
    exc_a, exc_b = (np.diag(diag) for diag in oracle.excitation_diagonals(3, 3))
    for transition in ("13", "23"):
        op = global_phase_exponential(transition, 3)
        assert np.max(np.abs(op @ exc_a - exc_a @ op)) < 1e-12
        assert np.max(np.abs(op @ exc_b - exc_b @ op)) < 1e-12
        assert np.max(np.abs(op @ op.conj().T - np.eye(len(op)))) < 1e-12


def test_deformed_polar_forms_no_full_space_matrix():
    # block (60, 60) spans a space of dimension 3 * 61**2 = 11163, a 1 GB
    # dense matrix; the check reads the block's entries from the ladders
    for transition in algebra.POLAR_TRANSITIONS:
        tracemalloc.start()
        try:
            residual = verify_deformed_polar((60, 60), transition)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residual < 1e-12
        assert peak < 2 * 2**20


@pytest.mark.parametrize("index", [(1, 1), (2, 3), (4, 4)])
def test_deformed_polar_identity(index):
    assert verify_deformed_polar(index) < 1e-12
    assert verify_deformed_polar(index, "23") < 1e-12


def test_deformed_polar_rejects_degenerate_subspace():
    with pytest.raises(ValueError):
        verify_deformed_polar((0, 2))


def test_deformed_polar_refuses_a_block_whose_basis_passes_the_cap():
    # block (836, 836) spans 3 * 837**2 = 2101707 basis states, which pass
    # the cap at the 128 bytes a state the check counts; (835, 835) does not
    assert 3 * 837**2 * 128 > oracle.MAX_MATRIX_BYTES >= 3 * 836**2 * 128
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(
                f"block (836, 836) must be full (N_a, N_b >= 1) and its space's basis "
                f"must fit the cap of {oracle.MAX_MATRIX_BYTES} bytes")):
            verify_deformed_polar((836, 836))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("transition", algebra.POLAR_TRANSITIONS)
@pytest.mark.parametrize("index", [(1, 1), (2, 3), (4, 4)])
def test_dressed_block_lowering_is_the_scaled_bare_one(index, transition):
    photons = index[0] if transition == "13" else index[1]
    expected = math.sqrt(photons) * algebra.lowering(transition)
    assert not np.any(expected.imag)
    assert _dressed_block_lowering(index, transition).tobytes() == expected.real.tobytes()


# (transitions whose check must fail, change to one ladder's entries)
TAMPERED_LADDERS = {
    "sign-flipped 13": (("13",), lambda name, rows, cols, values:
                        (rows, cols, -values if name == "13" else values)),
    # every 2<->3 entry ends on the basis state before its target, which
    # is never a member of the target's block
    "moved 23": (("23",), lambda name, rows, cols, values:
                 (rows - 1 if name == "23" else rows, cols, values)),
    "zeroed": (("13", "23"), lambda name, rows, cols, values:
               (rows, cols, np.zeros_like(values))),
}


@pytest.mark.parametrize("case", sorted(TAMPERED_LADDERS))
@pytest.mark.parametrize("index", [(1, 1), (2, 3), (4, 4)])
def test_deformed_polar_fails_on_a_tampered_dressed_operator(monkeypatch, case, index):
    transitions, change = TAMPERED_LADDERS[case]
    original = oracle.dressed_ladders
    monkeypatch.setattr(oracle, "dressed_ladders", lambda *cutoffs: {
        name: change(name, *entries) for name, entries in original(*cutoffs).items()})
    for transition in transitions:
        assert verify_deformed_polar(index, transition) >= 1


# ---------------------------------------------------------------------------
# trapping configuration
# ---------------------------------------------------------------------------

def test_trapping_config_dark_superposition():
    params = trapping_config(math.pi, 50.0)
    root_half = 1 / math.sqrt(2)
    assert abs(params.c[0] - root_half) < 1e-12
    assert abs(params.c[1] + root_half) < 1e-12
    assert params.c[2] == 0.0
    assert params.g_a == params.g_b
    assert params.delta_a == 0.0 and params.delta_b == 0.0
    assert params.nbar_a == params.nbar_b == 50.0


def test_trapping_config_control_case():
    params = trapping_config(0.0, 50.0)
    assert abs(params.c[0] - params.c[1]) < 1e-12


def test_trapping_suppresses_upper_level_at_desk_scale():
    # the phi = pi superposition is dark in every block, so the upper-level
    # weight stays at the truncation-noise floor; phi = 0 does absorb
    from lambdaphase.cli import time_scale
    dark = trapping_config(math.pi, 4.0)
    times = np.linspace(0.0, 2.0, 41) * time_scale(dark)
    series = time_series(dark, times)
    assert float(np.max(series["p12_0"])) < 1e-8
    control = trapping_config(0.0, 4.0)
    series = time_series(control, times)
    assert float(np.max(series["p12_0"])) > 0.1
