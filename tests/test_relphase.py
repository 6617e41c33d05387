"""Tests for the relative-phase eigenstates and distributions."""

import dataclasses
import decimal
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lambdaphase import algebra, dynamics, oracle, relphase
from lambdaphase.cli import PRESETS, run_scenario, time_scale
from lambdaphase.dynamics import (BlockDiagonalPropagator, SystemParams, block_eigensystems,
                                  initial_state)
from lambdaphase.oracle import (_ALGEBRA_MATRICES, _dressed_block_lowering,
                                global_phase_exponential, verify_deformed_algebra,
                                verify_deformed_polar)
from lambdaphase.relphase import (MAX_PHASE_ROUNDING, PHASE_KEYS, REDUCE_CHUNK, SEGMENT,
                                  SERIES_KEYS, SPREAD_WINDOW, block_tiles, evaluator,
                                  line_rows, marginal_distribution, pair_frequencies,
                                  phase_rounding, rel_phase_eigenstates, series_rows,
                                  spectral_lines, spread_rows, time_series, trapping_config,
                                  uniform_step, walk_rows)

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
    index, initial = initial_state(params)
    assert index.tolist() == [[0, 1]]
    dist = marginal_distribution(index, initial, "13")
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
    index, initial = initial_state(desk_params(c=GROUND))
    d23 = marginal_distribution(index, initial, "23")
    assert d23[0] == pytest.approx(1.0, abs=1e-12)
    assert d23[1] == pytest.approx(0.0, abs=1e-12)
    d13 = marginal_distribution(index, initial, "13")
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
    # three runs of SEGMENT samples, the last one short, so the identities
    # hold across the boundaries of the lines' tiles
    params = desk_params()
    times = np.linspace(0.0, 2.0, 2 * SEGMENT + 5)
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


@pytest.mark.parametrize("params", [
    desk_params(), desk_params(delta_a=0.4, delta_b=-0.7), PRESETS["fig3a"],
    desk_params(nbar_a=100.0, nbar_b=100.0, g_b=0.0, delta_a=-2.0, delta_b=0.0),
], ids=["desk", "detuned", "fig3a", "one-mode-nbar100"])
def test_phase_rounding_bounds_every_block_frequency(params):
    r = phase_rounding(params, 1.0) / np.finfo(float).eps
    assert np.max(np.abs(BlockDiagonalPropagator(params).frequencies)) <= r


def test_time_series_refuses_a_grid_whose_phase_rounding_swamps_its_rows(monkeypatch):
    # fig3a physics at tau 1e6: |t| = 4.4e7 and A = eps r |t| = 1.3e-7, refused
    # before any block is built; the grid's largest |t| may be a negative time
    def fail(params):
        raise AssertionError("initial_state ran")

    monkeypatch.setattr(dynamics, "initial_state", fail)
    t_max = 1e6 * time_scale(PRESETS["fig3a"])
    with pytest.raises(ValueError, match=re.escape(
            f"the grid reaches |t| = {t_max:.6g}, where the eigenphases w t round by up "
            f"to A = 1.32e-07, above 1e-08")):
        time_series(PRESETS["fig3a"], np.linspace(0.0, -t_max, 5))


def test_a_grid_just_under_the_phase_rounding_limit_runs_within_its_allowance():
    # fig3a is refused from tau_max of about 75556, and detuned by 0.3/-0.2
    # from about 73903.  Just under, the columns lie within A = 9.9e-9 of
    # the exact per-sample path: 0.096 A summed over the merged lines, and
    # 0.074 A on the spread.  The walk, which takes one segment at most, is
    # pinned on the detuned grid's last segment, at the same tau_max
    for deltas, tau_max, refused in (((0.0, 0.0), 7.5e4, 7.6e4), ((0.3, -0.2), 7.35e4, 7.4e4)):
        config = dataclasses.replace(PRESETS["fig3a"], delta_a=deltas[0], delta_b=deltas[1],
                                     tau_max=tau_max, tau_steps=4 * SEGMENT + 1)
        data = run_scenario(config)
        times = data["tau"] * time_scale(config)
        assert evaluator_of(config, times) == ("lines" if deltas[0] == deltas[1] else "spread")
        allowance = phase_rounding(config, times[-1])
        assert 0.99 * MAX_PHASE_ROUNDING < allowance <= MAX_PHASE_ROUNDING
        assert uniform_step(times) > 0.0
        exact = exact_rows(config, times)
        assert np.max(np.abs(series_table(data) - exact)) <= allowance
        if deltas[0] != deltas[1]:
            walk = walk_rows(BlockDiagonalPropagator(config), times[-SEGMENT:])
            assert np.max(np.abs(walk - exact[-SEGMENT:])) <= allowance
        with pytest.raises(ValueError, match=f"tau_max = {refused:.6g} reaches"):
            run_scenario(dataclasses.replace(config, tau_max=refused))


# ---------------------------------------------------------------------------
# segment recurrence against the exact per-sample path
# ---------------------------------------------------------------------------

def six_entries(levels):
    """R_00, R_11, R_22, R_10, R_21, R_20 of level-major amplitudes (..., 3, b),
    by the three dot products time_series makes."""
    return np.concatenate([np.vecdot(levels, levels),
                           np.vecdot(levels[..., :2, :], levels[..., 1:, :]),
                           np.vecdot(levels[..., 0, :], levels[..., 2, :])[..., None]], axis=-1)


def table_rows(r):
    """series_rows of the per-tile entries r (tiles, T, 6), written into a new (T, 13) table."""
    return series_rows(r, np.empty((r.shape[1], len(SERIES_KEYS))))


def one_sample_rows(amplitudes):
    """The 13 columns of one (B, 3) state: one R per block tile, added by series_rows."""
    levels = amplitudes.T
    r = [six_entries(levels[:, start:stop]) for start, stop in block_tiles(len(amplitudes))]
    return table_rows(np.array(r)[:, None])[0]


def exact_rows(params, times):
    """The 13 columns of each sample from amplitudes_at(t) and its exact exp."""
    prop = BlockDiagonalPropagator(params)
    return np.array([one_sample_rows(prop.amplitudes_at(float(t))) for t in times])


def stepped_rows(prop, times, dt):
    """The walk one sample at a time: exact eigenphases at the start of each
    run of SEGMENT samples, stepped by exp(-i w dt) after it, amplitudes_at
    and a one-sample reduction per sample."""
    step = prop.phases(dt)
    rows = []
    for start in range(0, len(times), SEGMENT):
        phases = prop.phases(times[start])
        for k in range(start, min(start + SEGMENT, len(times))):
            if k > start:
                phases *= step
            rows.append(one_sample_rows(prop.amplitudes_at(times[k], phases)))
    return np.array(rows)


def walked_rows(prop, times, dt=None):
    """walk_rows on each run of SEGMENT samples of a grid, stepped by ``dt``,
    by default the grid's uniform_step."""
    dt = uniform_step(times) if dt is None else dt
    return np.concatenate([walk_rows(prop, times[start:start + SEGMENT], dt)
                           for start in range(0, len(times), SEGMENT)])


def series_table(series):
    return np.column_stack([series[key] for key in SERIES_KEYS])


def evaluator_of(params, times):
    """The evaluator time_series takes for this run: "walk", "lines" or "spread"."""
    prop = BlockDiagonalPropagator(params)
    dt = uniform_step(times)
    counted = params.delta_a == params.delta_b or not dt
    return evaluator(len(prop.index), len(times), dt,
                     len(pair_frequencies(prop)) if counted else None)


def test_recurrence_matches_exact_exp_on_a_long_grid():
    # weak_long's physics over tau 0..40: t reaches 251 and w t about 1300,
    # over 157 tiles of the merged lines' anchored power table at resonance;
    # when detuned, the spread's ten windows, each anchored at its centre,
    # and the walk's stepped phases over the grid's last segment
    times = np.linspace(0.0, 40.0, 10001) * 2.0 * math.pi
    assert uniform_step(times) > 0.0
    for deltas in ((0.0, 0.0), (0.3, -0.2)):
        params = SystemParams(g_a=1.0, g_b=1.0, nbar_a=1.0, nbar_b=1.0, c=GROUND,
                              delta_a=deltas[0], delta_b=deltas[1])
        resonant = deltas[0] == deltas[1]
        assert evaluator_of(params, times) == ("lines" if resonant else "spread")
        exact = exact_rows(params, times)
        got = series_table(time_series(params, times))
        assert np.max(np.abs(got - exact)) < 1e-12, deltas
        if not resonant:
            walk = walk_rows(BlockDiagonalPropagator(params), times[-SEGMENT:])
            assert np.max(np.abs(walk - exact[-SEGMENT:])) < 1e-12


@pytest.mark.parametrize("nbar, samples, blocks, tiles", [
    (1.0, 2 * SEGMENT + 5, 169, 1),  # fig2's blocks: three segments, the last one short
    (1.0, 49 * SEGMENT + 5, 169, 1),  # 50 segments
    (1.0, 49 * SEGMENT + 1, 169, 1),  # a last segment of one sample
    (100.0, SEGMENT + 3, 16641, 3),  # three tiles of 5547 blocks
], ids=["fig2", "fig2_two_groups", "fig2_one_sample_tail", "nbar100"])
def test_time_series_matches_a_per_sample_loop_bitwise(nbar, samples, blocks, tiles):
    # the walk's rows, pinned on walk_rows itself, one segment at a time with
    # the grid's step: each sample keeps its segment's exact phases and its
    # own steps, and each row is reduced on its own.  time_series spreads
    # these detuned grids, which are longer than one segment
    params = SystemParams(g_a=1.0, g_b=1.0, nbar_a=nbar, nbar_b=nbar, c=GROUND,
                          delta_a=0.3, delta_b=-0.2)
    times = np.linspace(0.0, 2.0, samples) * 2.0 * math.pi * math.sqrt(nbar)
    prop = BlockDiagonalPropagator(params)
    assert len(prop.index) == blocks and len(block_tiles(blocks)) == tiles
    assert np.array_equal(walked_rows(prop, times), stepped_rows(prop, times, uniform_step(times)))


def test_time_series_of_an_empty_grid_is_thirteen_empty_columns():
    series = time_series(desk_params(), np.empty(0))
    assert tuple(series) == SERIES_KEYS
    assert all(column.shape == (0,) for column in series.values())


@pytest.mark.parametrize("nbar, delta, grid, bound", [
    (1.0, 0.0, "uniform", 1.75 * 2**20), (0.01, 0.0, "uniform", 0.875 * 2**20),
    (1.0, 0.3, "uniform", 1.75 * 2**20), (0.01, 0.3, "uniform", 0.875 * 2**20),
    (1.0, 0.3, "walk", 1.75 * 2**20), (0.01, 0.3, "walk", 0.875 * 2**20),
    (1.0, 0.3, "non_uniform", 1.75 * 2**20), (0.01, 0.3, "non_uniform", 0.875 * 2**20),
], ids=["fig2", "few_blocks", "fig2_detuned", "few_blocks_detuned",
        "fig2_detuned_walk", "few_blocks_detuned_walk",
        "fig2_detuned_non_uniform", "few_blocks_detuned_non_uniform"])
def test_time_series_memory_does_not_grow_with_the_grid(nbar, delta, grid, bound):
    # Resonant runs sum lines in tiles of SEGMENT samples and chunks of
    # LINE_CHUNK lines: beside the (T, 13) table sit the line table, one
    # power table and one tile's phases, 0.20 MiB at fig2's 69 lines and
    # 0.07 MiB at 0.01/0.01 in tracemalloc.  Detuned runs this long take
    # the spread, which runs window by window in one grid buffer sized by
    # SPREAD_WINDOW, never by T: beside the table sit the grid and one
    # chunk's pairs and weights, 0.90 MiB at fig2's 169 blocks and 0.63 MiB
    # at 0.01/0.01.  A grid that is not uniform sums its 3 B unmerged lines
    # with an exact exp a sample, in the same tiles and chunks: 0.66 MiB at
    # fig2's 169 blocks and 0.29 MiB at 0.01/0.01.  The walk, traced through
    # walk_rows itself on a quarter and on all of one segment, holds one R of
    # six entries a tile and sample beside its phases, step and amplitudes:
    # 0.11 and 0.02 MiB.  On every path only the table grows with T.
    params = SystemParams(g_a=1.0, g_b=1.0, nbar_a=nbar, nbar_b=nbar, c=GROUND,
                          delta_a=delta, delta_b=-delta)
    beside_table = []
    for samples in (SEGMENT // 4, SEGMENT) if grid == "walk" else (5001, 20001):
        times = np.linspace(0.0, 40.0, samples) * 2.0 * math.pi
        if grid == "non_uniform":
            times = np.sort(np.random.default_rng(samples).uniform(0.0, times[-1], samples))
        tracemalloc.start()
        try:
            if grid == "walk":
                walk_rows(BlockDiagonalPropagator(params), times)
            else:
                time_series(params, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        beside_table.append(peak - samples * len(SERIES_KEYS) * 8)
    assert beside_table[1] - beside_table[0] <= 64 * 1024, beside_table
    assert max(beside_table) <= bound, beside_table


@pytest.mark.parametrize("nbar, n", [(1.1, 1), (1.1, 2), (1.1, SEGMENT), (1.1, SEGMENT + 1),
                                     (50.0, SEGMENT + 1)],
                         ids=["1", "2", str(SEGMENT), str(SEGMENT + 1), "nbar50"])
def test_recurrence_matches_exact_exp_at_segment_edges(nbar, n):
    # the walk's stepped phases, on walk_rows itself, one segment at a time
    # with the grid's step: time_series spreads or sums the lines of some of
    # these grids.  One sample walks whatever the step; here it takes that of
    # a longer grid, as a one-sample last segment would.  nbar 50/50 has 8463
    # blocks, two tiles, so the exact phases at the second segment's start
    # are pinned in each tile
    params = desk_params(nbar_a=nbar, nbar_b=nbar, delta_a=0.35, delta_b=-0.2)
    times = np.linspace(0.3, 9.0, n)
    prop = BlockDiagonalPropagator(params)
    if nbar == 50.0:
        assert block_tiles(len(prop.index)) == [(0, 4231), (4231, 8463)]
    got = walked_rows(prop, times, uniform_step(times) or 0.1)
    expected = exact_rows(params, times)
    assert np.max(np.abs(got - expected)) < 1e-12
    # each segment's first sample takes the exact phases themselves
    assert np.array_equal(got[0], expected[0])
    if n > SEGMENT:
        assert np.array_equal(got[SEGMENT], expected[SEGMENT])


def random_r(rng, tiles, samples, blocks=4):
    """Random level-major amplitudes (tiles, samples, 3, blocks), scaled to a total
    trace of 1 a sample: their six-entry R per tile and the full 3x3 R summed
    over the tiles, R_ij = sum_b a_i conj(a_j), one per sample."""
    shape = (tiles, samples, 3, blocks)
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    a /= np.sqrt(np.sum(np.abs(a) ** 2, axis=(0, 2, 3)))[:, None, None]
    full = np.vecdot(a[..., None, :, :], a[..., :, None, :]).sum(axis=0)
    return six_entries(a), full


def expectation_rows(full):
    """<v|R|v> over the full-block phase eigenstates in PHASE_KEYS order and the
    level unit vectors, then tr R, of each full Hermitian 3x3 R."""
    vectors = [*(algebra.phase_eigensystem(t)[1].T for t in PHASE_KEYS), np.eye(3)]
    return np.array([[np.vdot(v, total @ v).real for block in vectors for v in block]
                     + [np.trace(total).real] for total in full])


@pytest.mark.parametrize("tiles, samples", [(1, 1), (1, SEGMENT), (3, 17)])
def test_series_rows_match_the_direct_expectation_values(tiles, samples):
    # <v|R|v> over the full-block phase eigenstates in PHASE_KEYS order,
    # the level populations diag R and the norm tr R, sample by sample,
    # on the full Hermitian R that the six entries stand for
    r, full = random_r(np.random.default_rng(tiles * samples), tiles, samples)
    got = table_rows(r)
    assert got.shape == (samples, len(SERIES_KEYS))
    assert np.max(np.abs(got - expectation_rows(full))) <= 1e-15


@pytest.mark.parametrize("blocks", [1, 169, 5547])
def test_six_entry_reduction_matches_the_full_matrix(blocks):
    # the independent check of the reduction time_series makes, at a
    # one-member, fig2's and a 5547-block tile: the full 3x3 R of one vecdot
    # per entry pair, read as <v|R|v> directly, against the six entries of
    # three vecdot calls read by series_rows
    r, full = random_r(np.random.default_rng(blocks), 1, SEGMENT, blocks)
    assert np.max(np.abs(table_rows(r) - expectation_rows(full))) <= 1e-15


def test_series_rows_write_into_out():
    r = random_r(np.random.default_rng(5), 2, 7)[0]
    rows = np.full((9, len(SERIES_KEYS)), np.nan)
    assert series_rows(r, out=rows[1:8]).base is rows
    assert np.array_equal(rows[1:8], table_rows(r))
    assert np.isnan(rows[[0, 8]]).all()


@pytest.mark.parametrize("samples", [1, 2, SEGMENT - 1, SEGMENT, SEGMENT**2])
def test_series_rows_do_not_depend_on_how_many_samples_are_read_together(samples):
    # each row of a T-row call carries the bits of the one-row call, which
    # keeps time_series' bytes independent of its group and segment lengths
    r = random_r(np.random.default_rng(samples), 2, samples)[0]
    got = table_rows(r)
    for t in range(samples):
        assert np.array_equal(got[t], table_rows(r[:, t:t + 1])[0]), t


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
    # a detuned run on a grid that is not uniform sums its unmerged pair
    # lines with an exact exp a sample; the walk refuses such a grid
    params = desk_params(delta_a=-0.25, delta_b=0.4)
    times = np.sort(np.random.default_rng(7).uniform(0.0, 12.0, SEGMENT + 9))
    assert uniform_step(times) == 0.0
    assert evaluator_of(params, times) == "lines"
    got = series_table(time_series(params, times))
    assert np.max(np.abs(got - exact_rows(params, times))) <= 1e-12


def test_walk_refuses_a_grid_that_is_not_one_uniform_segment():
    # longer grids spread or sum their lines, and so do grids that are not
    # uniform, none included; given the step of a longer grid, one segment
    # of it walks, and a one-sample grid walks whatever its step
    prop = BlockDiagonalPropagator(DETUNED)
    for times in (np.array([0.0, 1.0, 3.0]), np.empty(0), np.linspace(0.0, 2.0, SEGMENT + 1)):
        with pytest.raises(ValueError, match="walk_rows needs a uniform grid"):
            walk_rows(prop, times)
    one = walk_rows(prop, np.array([2.0]))
    assert one.shape == (1, len(SERIES_KEYS))
    assert np.array_equal(walk_rows(prop, np.array([2.0]), 0.1), one)
    with pytest.raises(ValueError, match="walk_rows needs a uniform grid"):
        walk_rows(prop, np.linspace(0.0, 2.0, SEGMENT + 1), 2.0 / SEGMENT)


def test_uniform_step_tolerates_only_rounding():
    times = np.linspace(0.0, 3.0, 200) * 2.0 * math.pi * math.sqrt(50.0)
    assert uniform_step(times) == (times[-1] - times[0]) / 199
    nudged = times.copy()
    nudged[77] += 1e-9
    assert uniform_step(nudged) == 0.0
    assert uniform_step(times[:1]) == uniform_step(times[:0]) == 0.0


@settings(max_examples=200, deadline=None)
@given(tau_max=st.floats(0.0, 100.0, exclude_min=True), tau_steps=st.integers(2, 20001),
       g_a=st.floats(0.01, 10.0), nbar_a=st.floats(0.0, 1000.0))
def test_scenario_grids_take_the_stepped_path(tau_max, tau_steps, g_a, nbar_a):
    # every grid built as run_scenario builds it must be uniform: were
    # UNIFORM_ULPS too tight for one, that run would sum its pair lines with
    # an exact exp a sample, with the same columns up to rounding, and
    # nothing else would show it.
    # A tau or t grid spaced in subnormals (tau_max near 1e-308) has too few
    # bits to be uniform to a few ulp and takes the exact path; it is left out.
    params = SystemParams(g_a=g_a, g_b=1.0, nbar_a=nbar_a, nbar_b=1.0, c=GROUND)
    taus = np.linspace(0.0, tau_max, tau_steps)
    times = taus * time_scale(params)
    assume(min(taus[1], times[1]) >= np.finfo(float).tiny)
    assert uniform_step(times) > 0.0


# ---------------------------------------------------------------------------
# merged spectral lines of resonant runs
# ---------------------------------------------------------------------------

def scenario_times(config):
    """The interaction times of a scenario's tau grid, as run_scenario makes them."""
    return np.linspace(0.0, config.tau_max, config.tau_steps) * time_scale(config)


# seed-1 grids of the benchmark's resonant workloads (perfbench/workloads.py)
WEAK_LONG = dataclasses.replace(PRESETS["fig2"], tau_max=38.468880632180785, tau_steps=10001)
SCALE_SETUP = dataclasses.replace(PRESETS["fig2"], nbar_a=100.0, nbar_b=100.0,
                                  tau_max=1.9359760525999767, tau_steps=101)

# resonant physics, each with a grid of several tiles of SEGMENT samples
LINE_CASES = {
    **{name: (config, scenario_times(config)) for name, config in PRESETS.items()},
    "weak_long": (WEAK_LONG, scenario_times(WEAK_LONG)),
    "scale_setup": (SCALE_SETUP, scenario_times(SCALE_SETUP)),
    # unequal couplings: hardly any two blocks share a coupling norm
    "g_1_0.8": (desk_params(nbar_a=4.0, nbar_b=3.0, g_b=0.8, delta_a=0.0, delta_b=0.0),
                np.linspace(0.0, 20.0, 2 * SEGMENT + 7)),
    "delta_0.3": (desk_params(delta_a=0.3, delta_b=0.3), np.linspace(0.0, 20.0, 2 * SEGMENT + 7)),
    # the blocks with N_a = 0 have two equal eigenvalues: a pair frequency of 0
    "gb0_delta_0.3": (desk_params(g_b=0.0, delta_a=0.3, delta_b=0.3),
                      np.linspace(0.0, 20.0, 2 * SEGMENT + 7)),
    # a coupled block's zero pair has a missing member, so no gain; with no
    # coupling the 1<->2 coherence is a line at frequency 0 that holds one
    "uncoupled": (desk_params(g_a=0.0, g_b=0.0, delta_a=0.3, delta_b=0.3),
                  np.linspace(0.0, 20.0, 2 * SEGMENT + 7)),
    "empty": (PRESETS["fig2"], np.empty(0)),
    "non_uniform": (desk_params(delta_a=-0.2, delta_b=-0.2),
                    np.sort(np.random.default_rng(3).uniform(0.0, 12.0, SEGMENT + 9))),
}


def lines_of(params):
    """spectral_lines of the resonant run ``params``."""
    prop = BlockDiagonalPropagator(params)
    return spectral_lines(prop, pair_frequencies(prop))


@pytest.mark.parametrize("name", LINE_CASES)
def test_lines_match_the_walk_and_the_exact_rows(name):
    # every sample of a uniform grid against the walk, one segment at a
    # time, and up to about 400 of them against the exact amplitudes_at(t)
    # of each sample; the lines are summed here whichever evaluator
    # time_series would pick
    params, times = LINE_CASES[name]
    assert params.delta_a == params.delta_b
    got = line_rows(*lines_of(params), times)
    assert got.shape == (len(times), len(SERIES_KEYS))
    if uniform_step(times):
        walk = walked_rows(BlockDiagonalPropagator(params), times)
        assert np.max(np.abs(got - walk)) <= 1e-12
    every = max(1, len(times) // 400)
    exact = exact_rows(params, times[::every]).reshape(-1, len(SERIES_KEYS))
    assert np.max(np.abs(got[::every] - exact), initial=0.0) <= 1e-12


@pytest.mark.parametrize("name, blocks, lines", [
    ("fig2", 169, 69), ("fig3a", 1001, 324), ("fig3b", 8281, 629), ("fig4", 8462, 629),
    ("scale_setup", 16641, 933), ("g_1_0.8", 503, 966), ("gb0_delta_0.3", 179, 43),
    ("uncoupled", 179, 1),
])
def test_resonant_pairs_merge_into_few_lines(name, blocks, lines):
    # the 3 B pairs of the closed-form spectra merge into L lines; no line
    # sits at frequency 0, whose pairs are static
    prop = BlockDiagonalPropagator(LINE_CASES[name][0])
    distinct = pair_frequencies(prop)
    static, frequencies, entries = spectral_lines(prop, distinct)
    assert len(prop.index) == blocks
    assert len(distinct) == lines + np.count_nonzero(distinct == 0.0)
    assert len(frequencies) == lines and entries.shape == (lines, 6) and static.shape == (12,)
    assert np.all(np.diff(frequencies) > 0) and np.all(frequencies != 0.0)
    w = prop.frequencies
    zero_pairs = np.count_nonzero([w[0] == w[1], w[0] == w[2], w[1] == w[2]])
    assert (zero_pairs > 0) == (name in ("gb0_delta_0.3", "uncoupled"))


@pytest.mark.parametrize("params, anchor", [
    (PRESETS["fig3a"], 0.0),  # resonant
    (desk_params(delta_a=0.35, delta_b=-0.2), 3.7),  # detuned, complex c
    (PRESETS["fig2"], 0.0),  # 13 blocks with a missing member
    (desk_params(g_b=0.0, delta_a=0.3, delta_b=0.0), -1.3),  # pairs of frequency 0
], ids=["resonant", "detuned", "missing_member", "zero_pairs"])
def test_pair_entries_match_the_projected_pair_products(params, anchor):
    # the six entries of each pair, mapped through the readout's |v_i|^2
    # and Im conj(v_i) v_j, give G = 2 q_k conj(q_l) exp(-i W anchor) with
    # q_k = v^dagger V[:, k] c0_k, c0 = V^T a(0), projected here with complex
    # arithmetic from the eigensystems and the initial amplitudes.
    # That rests on every readout vector, (upper -+ i partner)/sqrt(2) or a
    # level, having conj(v_i) v_j exactly real for i == j and exactly
    # imaginary otherwise
    products = relphase._PRODUCTS.reshape(3, 3, -1)
    diagonal = np.eye(3, dtype=bool)
    assert np.all(products[diagonal].imag == 0.0)
    assert np.all(products[~diagonal].real == 0.0)
    prop = BlockDiagonalPropagator(params)
    static, w, entries = relphase._chunk_pairs(prop, anchor)
    _, vectors = block_eigensystems(params, prop.index)
    _, initial = initial_state(params)
    modes = np.einsum("ikb,jkb,bj->kbi", vectors, vectors, initial)
    q = modes @ relphase._READOUT.conj()  # [k, b, column]
    k, l = [0, 0, 1], [1, 2, 2]
    pair_w = (prop.frequencies[k] - prop.frequencies[l]).ravel()
    expected = 2.0 * (q[k] * q[l].conj()).reshape(-1, 12) * np.exp(-1j * anchor * pair_w)[:, None]
    gains = 2.0 * (entries[:, :3] @ products[diagonal].real
                   + 1j * entries[:, 3:] @ products[[1, 2, 2], [0, 1, 0]].imag)
    assert np.array_equal(w, pair_w)
    assert np.max(np.abs(gains - expected)) <= 1e-15
    read = np.ascontiguousarray(entries).view(float) @ relphase._PAIR_READOUT
    assert np.max(np.abs(read - expected.real)) <= 1e-15
    # the static part is a sum over every block, rounded over as many terms
    assert np.max(np.abs(static - np.sum(np.abs(q) ** 2, axis=(0, 1)))) <= 1e-14
    if params.g_b == 0.0:
        assert np.count_nonzero(w == 0.0) > 0


# equal detunings with unequal couplings: 6559 lines of 3025 blocks
MANY_LINES = SystemParams(g_a=1.0, g_b=0.8, nbar_a=20.0, nbar_b=20.0, c=GROUND,
                          delta_a=0.2, delta_b=0.2)


def evaluators_run(monkeypatch, params, times):
    """The pair count and the evaluators that time_series calls for this run, in order."""
    ran = []
    for name in ("pair_frequencies", "line_rows", "walk_rows", "spread_rows"):
        def record(*args, evaluate=getattr(relphase, name), name=name):
            ran.append(name)
            return evaluate(*args)
        monkeypatch.setattr(relphase, name, record)
    time_series(params, times)
    return ran


@pytest.mark.parametrize("params, samples, expected", [
    (WEAK_LONG, 10001, "line_rows"), (SCALE_SETUP, 101, "line_rows"),
    (PRESETS["fig3b"], 401, "line_rows"), (SCALE_SETUP, 16, "walk_rows"),
    (MANY_LINES, 401, "spread_rows"), (MANY_LINES, 2001, "spread_rows"),
    (PRESETS["fig2"], 0, "line_rows"),
    (dataclasses.replace(PRESETS["fig2"], delta_b=0.1), 401, "spread_rows"),
    (PRESETS["fig2"], 16, "walk_rows"), (PRESETS["fig2"], 64, "line_rows"),
    (PRESETS["fig2"], 101, "line_rows"), (SCALE_SETUP, 1, "walk_rows"),
], ids=["weak_long", "scale_setup", "fig3b", "scale_setup_16", "many_lines_401",
        "many_lines_2001", "empty", "detuned", "fig2_16", "fig2_64", "fig2_101",
        "scale_setup_one_sample"])
def test_time_series_sums_lines_only_where_they_beat_the_walk(monkeypatch, params, samples,
                                                              expected):
    # few lines a block pay for their build within a few dozen samples, once
    # the walk is charged its calls (fig2's 169 blocks took 1.33 and 1.59 ms
    # on the walk over 64 and 101 samples, against 0.68 and 0.70 ms summing
    # their 69 lines); unequal couplings hardly merge, and spread their
    # unmerged lines instead; a short grid walks, an empty one is no uniform
    # grid and sums its lines, and neither a detuned run on a uniform grid
    # nor a one-sample run counts its pairs
    counted = params.delta_a == params.delta_b and samples != 1
    ran = evaluators_run(monkeypatch, params, np.linspace(0.0, 20.0, samples))
    assert ran == ["pair_frequencies"] * counted + [expected]


# the perfbench gate's small detuned physics (perfbench/test_perfbench.py): 377 blocks
SMALL = SystemParams(g_a=1.0, g_b=0.8, nbar_a=3.0, nbar_b=2.0, c=(0.6, 0.64j, 0.48),
                     delta_a=0.3, delta_b=-0.2)


@pytest.mark.parametrize("params, times, expected", [
    (SMALL, np.linspace(0.0, 2.0, 3), "walk_rows"),
    (SMALL, np.linspace(0.0, 2.0, 41), "walk_rows"),
    (SMALL, np.linspace(0.0, 2.0, 65), "spread_rows"),
    (dataclasses.replace(PRESETS["fig2"], delta_b=0.1), np.linspace(0.0, 20.0, 16), "walk_rows"),
    (dataclasses.replace(PRESETS["fig2"], delta_b=0.1),
     np.sort(np.random.default_rng(5).uniform(0.0, 20.0, 401)), "line_rows"),
    (desk_params(nbar_a=50.0, nbar_b=50.0, delta_a=0.3, delta_b=-0.2),
     np.linspace(0.0, 2.0, SEGMENT), "walk_rows"),
    (desk_params(nbar_a=50.0, nbar_b=50.0, delta_a=0.3, delta_b=-0.2),
     np.linspace(0.0, 2.0, 201), "spread_rows"),
    (desk_params(nbar_a=50.0, nbar_b=50.0, delta_a=0.3, delta_b=-0.2), np.array([2.3]),
     "walk_rows"),
], ids=["small_3", "small_41", "small_65", "fig2_detuned_16", "non_uniform", "nbar50_64",
        "nbar50_201", "nbar50_one_sample"])
def test_time_series_spreads_detuned_lines_only_where_they_beat_the_walk(monkeypatch, params,
                                                                         times, expected):
    # the spread pays for its build and its grid per window, about 1.9 us a
    # block, and the walk 12.5 us a call and 14 ns a block-sample: at 377
    # blocks the walk took 0.62 ms over 41 samples against 0.98 ms, and the
    # spread 0.95 ms over 65 against 1.29 ms.  The walk takes one segment at
    # most, so a grid past SEGMENT samples spreads, and one that is not
    # uniform counts its pairs and sums its lines, but for one of one sample,
    # which walks: at 8463 blocks counting, sorting and tabling 3B lines took
    # 14.7 ms, and the walk 4.6 ms with its build.  perfbench's 3-sample
    # SMALL run counts one amplitudes_at call a sample, so it must walk
    counted = ["pair_frequencies"] * (expected == "line_rows")
    assert evaluators_run(monkeypatch, params, times) == counted + [expected]


def traced_peak(run):
    """Peak tracemalloc bytes of one call of ``run``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_line_path_memory_does_not_grow_with_the_blocks():
    # Beside the (T, 13) table and the peak of building the propagator, which
    # every evaluator pays, the line path holds one chunk's pairs while it
    # builds (the propagator is released before the sum), then the line
    # table, one chunk's gains, one power table and one tile's phases.
    # The chunks are of fixed size, so from nbar 100/100 (16641 blocks, 933
    # lines) to 200/200 (34225 blocks, 1316 lines) nothing beside the build
    # grows: tracemalloc read 0.17 MiB at 100/100, and at 200/200 the
    # build's own peak stood above the line path's (-0.01 MiB).
    beside = []
    for nbar in (100.0, 200.0):
        params = SystemParams(g_a=1.0, g_b=1.0, nbar_a=nbar, nbar_b=nbar, c=GROUND)
        times = np.linspace(0.0, 2.0, 101) * time_scale(params)
        build = traced_peak(lambda: BlockDiagonalPropagator(params))
        peak = traced_peak(lambda: time_series(params, times))
        beside.append(peak - build - len(times) * len(SERIES_KEYS) * 8)
    assert beside[1] - beside[0] <= 64 * 1024, beside
    assert max(beside) <= 1.5 * 2**20, beside



def test_line_path_memory_beside_the_line_table_does_not_grow_with_unmerged_lines():
    # With unequal couplings hardly any pair merges, so the line table, 104
    # bytes a line, grows with the blocks itself.  Such runs spread on a
    # uniform grid, so the lines are summed here on a grid that is not.
    # Beside the table, the build's peak and the (T, 13) table, the line
    # path holds the blocks' pair frequencies while it counts them and one
    # chunk's pairs, then one chunk's gains and one tile's phases, and the
    # table is not copied: tracemalloc read 0.84 MiB at nbar 20/20 (3025
    # blocks, 6559 lines) and 0.14 MiB at 80/80 (13225 blocks, 18019 lines)
    beside = []
    for nbar in (20.0, 80.0):
        params = dataclasses.replace(MANY_LINES, nbar_a=nbar, nbar_b=nbar)
        times = np.sort(np.random.default_rng(3).uniform(0.0, 20.0, 2001))
        assert evaluator_of(params, times) == "lines"
        lines = len(pair_frequencies(BlockDiagonalPropagator(params)))
        build = traced_peak(lambda: BlockDiagonalPropagator(params))
        peak = traced_peak(lambda: time_series(params, times))
        beside.append(peak - build - len(times) * len(SERIES_KEYS) * 8 - 104 * lines)
    assert beside[1] - beside[0] <= 64 * 1024, beside
    assert max(beside) <= 2 * 2**20, beside

# ---------------------------------------------------------------------------
# gridded pair lines of detuned runs
# ---------------------------------------------------------------------------

# seed-1 grid of the benchmark's detuned workload (perfbench/workloads.py)
DETUNED_GRID = dataclasses.replace(
    PRESETS["fig2"], g_b=0.8, nbar_a=50.0, nbar_b=50.0,
    c=(-0.1327028917265215 + 0.46604450952279447j, 0.4447022864397816 - 0.5599759365894923j,
       -0.3153352763159929 - 0.392966853637485j),
    delta_a=-0.3487059781103158, delta_b=0.2364209210713588, tau_max=2.0, tau_steps=1001)

DETUNED = desk_params(delta_a=0.35, delta_b=-0.2)

SPREAD_CASES = {
    "detuned_grid": (DETUNED_GRID, scenario_times(DETUNED_GRID)),
    **{f"T{n}": (DETUNED, np.linspace(0.3, 9.0, n)) for n in (2, 3, 41, 65)},
    # three windows, the last one short, on a grid running back in time
    "three_windows": (DETUNED, np.linspace(5.0, -60.0, 2 * SPREAD_WINDOW + 37)),
    # g_b = 0 leaves level 2 of the blocks with N_a = 0 at the energy of
    # another member: 11 pairs of frequency 0, spread like any other
    "zero_pair": (desk_params(g_b=0.0, delta_a=0.3, delta_b=0.0),
                  np.linspace(0.0, 20.0, 2 * SEGMENT + 7)),
}


@pytest.mark.parametrize("name", SPREAD_CASES)
def test_spread_matches_the_walk_and_the_exact_rows(name):
    # every sample against the walk, one segment at a time, and up to about
    # 100 of them against the exact amplitudes_at(t) of each sample; the
    # spread is taken here whichever evaluator time_series would pick
    params, times = SPREAD_CASES[name]
    prop = BlockDiagonalPropagator(params)
    if name == "zero_pair":
        w = prop.frequencies
        assert np.count_nonzero([w[0] == w[1], w[0] == w[2], w[1] == w[2]]) == 11
    got = spread_rows(prop, times)
    assert got.shape == (len(times), len(SERIES_KEYS))
    assert np.max(np.abs(got - walked_rows(prop, times))) <= 1e-12
    every = max(1, len(times) // 100)
    assert np.max(np.abs(got[::every] - exact_rows(params, times[::every]))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(start=st.floats(-20.0, 20.0), span=st.floats(1e-3, 100.0),
       samples=st.integers(2, 2 * SPREAD_WINDOW + 3), nbar_a=st.floats(0.0, 3.0),
       nbar_b=st.floats(0.0, 3.0), delta_a=st.floats(-1.0, 1.0), delta_b=st.floats(-1.0, 1.0))
def test_spread_matches_the_walk_on_drawn_uniform_grids(start, span, samples, nbar_a, nbar_b,
                                                         delta_a, delta_b):
    params = desk_params(nbar_a=nbar_a, nbar_b=nbar_b, delta_a=delta_a, delta_b=delta_b)
    times = np.linspace(start, start + span, samples)
    assume(uniform_step(times) != 0.0)
    prop = BlockDiagonalPropagator(params)
    got = spread_rows(prop, times)
    assert np.max(np.abs(got - walked_rows(prop, times))) <= 1e-12
    ends = [0, samples // 2, samples - 1]
    assert np.max(np.abs(got[ends] - exact_rows(params, times[ends]))) <= 1e-12


@pytest.mark.parametrize("name", ["many_lines", "gb0_delta_0.3"])
def test_resonant_spread_matches_the_lines_and_the_exact_rows(name):
    # spread_rows reads any propagator: at resonance with unequal couplings,
    # whose pairs hardly merge, and with g_b = 0, whose blocks with N_a = 0
    # have pairs of frequency 0, which the lines fold into the static term
    # and the spread grids like any other.  Every sample against the merged
    # lines, and about 100 against the exact amplitudes_at(t) of each sample
    if name == "many_lines":
        params, times = MANY_LINES, np.linspace(0.0, 20.0, 401)
        assert evaluator_of(params, times) == "spread"
    else:
        params, times = LINE_CASES[name]
        w = BlockDiagonalPropagator(params).frequencies
        assert np.count_nonzero([w[0] == w[1], w[0] == w[2], w[1] == w[2]]) > 0
    got = spread_rows(BlockDiagonalPropagator(params), times)
    assert np.max(np.abs(got - line_rows(*lines_of(params), times))) <= 1e-12
    every = max(1, len(times) // 100)
    assert np.max(np.abs(got[::every] - exact_rows(params, times[::every]))) <= 1e-12


def test_spread_refuses_a_grid_that_is_not_uniform():
    prop = BlockDiagonalPropagator(DETUNED)
    for times in (np.array([0.0, 1.0, 3.0]), np.array([2.0]), np.empty(0)):
        with pytest.raises(ValueError, match="spread_rows needs a uniform grid"):
            spread_rows(prop, times)


def test_spread_memory_does_not_grow_with_the_blocks():
    # Beside the propagator and the (T, 13) table, the spread holds one
    # window's grid, (2000 + 32) x 12 floats here, and one chunk of
    # SPREAD_CHUNK blocks' pair entries and weights, whatever the number of
    # blocks; no line table is formed
    beside = []
    for nbar in (20.0, 50.0):
        params = dataclasses.replace(DETUNED_GRID, nbar_a=nbar, nbar_b=nbar)
        times = scenario_times(params)
        assert evaluator_of(params, times) == "spread"
        prop = BlockDiagonalPropagator(params)
        peak = traced_peak(lambda: spread_rows(prop, times))
        beside.append(peak - len(times) * len(SERIES_KEYS) * 8)
    assert beside[1] - beside[0] <= 64 * 1024, beside
    assert max(beside) <= 1.5 * 2**20, beside


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
    (1, 1.0, 2e4, 2.0, 0.3, 0.3),  # nbar_a 2e4, where the table summed from n = 1 failed
    (1, 1.0, 2e4, 2.0, 0.3, -0.2),
], ids=["gb0_resonant", "gb0_detuned", "ga0_resonant", "ga0_detuned",
        "gb0_resonant_2e4", "gb0_detuned_2e4"])
def test_one_mode_limits_match_the_rabi_formula(coupled, g, nbar, nbar_other,
                                                delta, delta_other):
    """All 13 columns at nbar 1000 and 2e4 against the Jaynes-Cummings limit, over tau 0-2.

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
    blocks a tile, and the program's Poisson table, within about 1e-13
    relative at every nbar) stays below 4e-12, under another 16 eps
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
    from lambdaphase.cli import PRESETS, run_scenario, time_scale
    dark = trapping_config(math.pi, 4.0)
    times = np.linspace(0.0, 2.0, 41) * time_scale(dark)
    series = time_series(dark, times)
    assert float(np.max(series["p12_0"])) < 1e-8
    control = trapping_config(0.0, 4.0)
    series = time_series(control, times)
    assert float(np.max(series["p12_0"])) > 0.1
