"""Acceptance criteria, one test per criterion, run with ``pytest -v -s``.

Each test prints a PASS/FAIL line before asserting, so the whole gate can
be read off the captured output.  Scenario data is computed once per
module through the production CLI path.

The strong-field criteria 6 and 7 check the curves against levels derived
in closed form for the lambda layout (level 3 the common upper level, the
atom starting in level 1) by :func:`collapse_levels`, which shares no code
with the package.  An atom in level 1 splits over one dark and two bright
modes of each block; once the blocks dephase, the collapse-window means
of p13_0 and p23_0 are the diagonal-ensemble populations of levels 2 and
1 (0.0427 and 0.4721 for fig3a, 0.3713 and 0.3813 for fig3b), and p13_0
can never exceed the coherent-peak bound 4<x^2 y^2 / s^4> (0.1138 for
fig3a).  Earlier versions of these criteria encoded levels of a variant
in which level 1 couples directly to both other levels: that model gives
collapse-window means 0.2525 and 1/2 on fig3b and keeps p13_0 below 0.03
on fig3a, hence the old targets 1/4 +- 0.05, 1/2 +- 0.05 and a
whole-grid ceiling of 0.05.  The lambda layout stands because the coupling
rules, the dense oracle and the trapping criterion all fix it, and the
oracle spot check below confirms the program at the fig3a layout.
"""

import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest

from lambdaphase import algebra, oracle, verify
from lambdaphase.cli import PRESETS, run_scenario, time_scale
from lambdaphase.dynamics import (BlockDiagonalPropagator, SystemParams, initial_state,
                                  photon_window, truncation_cutoff)
from lambdaphase.relphase import (SERIES_KEYS, pair_frequencies, rel_phase_eigenstates,
                                  spectral_lines, time_series, trapping_config)

WINDOW = (0.3, 0.8)  # rescaled-time collapse window for the strong-field runs
LEVEL_TOL = 5e-3  # windowed mean vs diagonal-ensemble level


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")


@pytest.fixture(scope="module")
def preset_data():
    return {name: run_scenario(config) for name, config in PRESETS.items()}


def window_mask(tau: np.ndarray) -> np.ndarray:
    return (tau >= WINDOW[0]) & (tau <= WINDOW[1])


class CollapseLevels(NamedTuple):
    """Closed-form strong-field levels for an atom starting in level 1."""

    p13_0: float       # diagonal-ensemble mean of p13_0 = pop2
    p23_0: float       # diagonal-ensemble mean of p23_0 = pop1
    p13_0_peak: float  # bound on p13_0 at every time


def _poisson_probabilities(nbar: float) -> np.ndarray:
    """Photon-number distribution of a coherent state, tail below 1e-20."""
    n_max = int(nbar + 12.0 * math.sqrt(nbar) + 40)
    log_p = [n * math.log(nbar) - nbar - math.lgamma(n + 1) for n in range(n_max + 1)]
    probs = np.exp(log_p)
    return probs / probs.sum()


def collapse_levels(config) -> CollapseLevels:
    """Dark/bright-state levels of the lambda atom, independent of the package.

    An atom in level 1 with n_a, n_b photons lives in a block with
    couplings x = g_a sqrt(n_a) (1<->3) and y = g_b sqrt(n_b + 1) (2<->3).
    At zero detuning the block has the dark mode (y, -x, 0)/s at frequency
    0 and the bright modes (x, y, +-s)/(sqrt(2) s) at -+s, s^2 = x^2 + y^2,
    so the level amplitudes are

        a1 = (y^2 + x^2 cos st)/s^2,  a2 = x y (cos st - 1)/s^2,
        a3 = -i x sin(st)/s.

    Averaging over t gives |a2|^2 -> (3/2) x^2 y^2/s^4 and
    |a1|^2 -> (y^4 + x^4/2)/s^4; these Poisson-weighted sums are what the
    windowed means settle to once the blocks have dephased.  Since
    |a2|^2 <= 4 x^2 y^2/s^4 in every block, the weighted sum of the latter
    bounds p13_0 = pop2 at all times; it is nearly reached at the early
    coherent peak, before the blocks dephase.
    """
    assert config.delta_a == 0.0 and config.delta_b == 0.0, "needs zero detuning"
    assert tuple(config.c) == (1.0, 0.0, 0.0), "needs the atom in level 1"
    assert config.g_b > 0.0 and config.nbar_a > 0.0 and config.nbar_b > 0.0
    w_a = _poisson_probabilities(config.nbar_a)
    w_b = _poisson_probabilities(config.nbar_b)
    weight = w_a[:, None] * w_b[None, :]
    x2 = config.g_a ** 2 * np.arange(len(w_a), dtype=float)[:, None]
    y2 = config.g_b ** 2 * np.arange(1, len(w_b) + 1, dtype=float)[None, :]
    s4 = (x2 + y2) ** 2
    return CollapseLevels(
        p13_0=float(np.sum(weight * 1.5 * x2 * y2 / s4)),
        p23_0=float(np.sum(weight * (y2 ** 2 + 0.5 * x2 ** 2) / s4)),
        p13_0_peak=float(np.sum(weight * 4.0 * x2 * y2 / s4)),
    )


# ---------------------------------------------------------------------------
# 1. algebra exactness
# ---------------------------------------------------------------------------

def test_criterion_1_algebra_exactness():
    """Commutator tables exact; polar identities below 1e-12."""
    checks = {check.name: check for check in verify.suite_algebra()}
    worst_table = checks["u3 commutator table"].residual
    worst_coupling = checks["dipole coupling relations"].residual
    worst_polar = max(checks["polar identity 13"].residual,
                      checks["polar identity 23"].residual)
    worst_deformed = max(oracle.verify_deformed_polar((1, 1)),
                         oracle.verify_deformed_polar((2, 3)),
                         oracle.verify_deformed_polar((3, 2), "23"),
                         oracle.verify_deformed_algebra(4))

    suite_passed = all(check.passed for check in checks.values())

    ok = (worst_table == 0.0 and worst_coupling == 0.0
          and worst_polar < 1e-12 and worst_deformed < 1e-12 and suite_passed)
    report(1, ok, f"commutators {worst_table:.1g}, couplings {worst_coupling:.1g}, "
                  f"polar {worst_polar:.2g}, deformed {worst_deformed:.2g}, "
                  f"algebra suite {'passed' if suite_passed else 'FAILED'}")
    assert suite_passed
    assert worst_table == 0.0
    assert worst_coupling == 0.0
    assert worst_polar < 1e-12
    assert worst_deformed < 1e-12


# ---------------------------------------------------------------------------
# 2. three-point phase spectrum
# ---------------------------------------------------------------------------

def test_criterion_2_phase_spectrum():
    """Eigenvalues exactly {0, +pi/2, -pi/2}; orthonormality below 1e-12."""
    expected = np.array([0.0, np.pi / 2, -np.pi / 2])
    worst_defining = 0.0
    worst_gram = 0.0
    for transition in ("13", "23"):
        values, vectors = algebra.phase_eigensystem(transition)
        assert np.array_equal(values, expected)
        op = algebra.phase_exponential(transition)
        for k, phi in enumerate(values):
            vec = vectors[:, k]
            worst_defining = max(worst_defining, float(np.max(np.abs(
                op @ vec - np.exp(1j * phi) * vec))))
        gram = vectors.conj().T @ vectors
        worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(3)))))

    phases = np.array([1.0, 1j, -1j])  # exp(i phi) for phi in {0, +-pi/2}
    for transition in ("13", "23", "12"):
        op = algebra.phase_exponential(transition)
        for vectors in rel_phase_eigenstates(transition, [(1, 1), (2, 3), (5, 1)]):
            worst_defining = max(worst_defining, float(np.max(np.abs(
                op @ vectors - phases * vectors))))
            gram = vectors.conj().T @ vectors
            worst_gram = max(worst_gram, float(np.max(np.abs(gram - np.eye(3)))))

    ok = worst_defining < 1e-12 and worst_gram < 1e-12
    report(2, ok, f"defining residual {worst_defining:.2g}, "
                  f"orthonormality {worst_gram:.2g}")
    assert worst_defining < 1e-12
    assert worst_gram < 1e-12


# ---------------------------------------------------------------------------
# 3. oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_3_oracle_equivalence():
    """Block path vs dense full-space path below 1e-8 over 50 samples."""
    params = SystemParams(g_a=1.0, g_b=1.0, nbar_a=1.0, nbar_b=1.0,
                          c=(1.0, 0.0, 0.0), epsilon=2e-5)
    cutoff = 8
    full = oracle.build_full_hamiltonian(params, cutoff, cutoff)
    # state truncated one Fock level below the oracle space, so that every
    # populated block is exactly representable on both paths
    assert photon_window(params.nbar_a, params.epsilon) == (0, cutoff - 1)
    prop = BlockDiagonalPropagator(params)
    psi0 = oracle.embed_state(*initial_state(params), cutoff, cutoff)
    scale = time_scale(params)
    worst = 0.0
    for tau in np.linspace(0.0, 2.0, 50):
        t = tau * scale
        block_vec = oracle.embed_state(prop.index, prop.amplitudes_at(t), cutoff, cutoff)
        full_vec = oracle.full_evolve(full, psi0, t)
        worst = max(worst, float(np.max(np.abs(block_vec - full_vec))))
    ok = worst < 1e-8
    report(3, ok, f"max amplitude difference {worst:.3g}")
    assert worst < 1e-8


# ---------------------------------------------------------------------------
# 4. normalization and population identities on every scenario
# ---------------------------------------------------------------------------

def test_criterion_4_normalization_and_identities(preset_data):
    """All scenarios: phase probabilities complete, zero labels = populations."""
    worst_sum = 0.0
    worst_identity = 0.0
    for data in preset_data.values():
        for stem in ("p13", "p23", "p12"):
            total = data[f"{stem}_0"] + data[f"{stem}_p"] + data[f"{stem}_m"]
            worst_sum = max(worst_sum, float(np.max(np.abs(total - 1.0))))
        for stem, pop in (("p13", "pop2"), ("p23", "pop1"), ("p12", "pop3")):
            worst_identity = max(worst_identity, float(np.max(np.abs(
                data[f"{stem}_0"] - data[pop]))))
    ok = worst_sum < 1e-9 and worst_identity < 1e-9
    report(4, ok, f"completeness residual {worst_sum:.2g}, "
                  f"population-identity residual {worst_identity:.2g}")
    assert worst_sum < 1e-9
    assert worst_identity < 1e-9


# ---------------------------------------------------------------------------
# 5. weak field: out-of-phase oscillation
# ---------------------------------------------------------------------------

def test_criterion_5_weak_field_anticorrelation(preset_data):
    """fig2: the two +-pi/2 probabilities oscillate out of phase."""
    data = preset_data["fig2"]
    corr13 = float(np.corrcoef(data["p13_p"], data["p13_m"])[0, 1])
    corr23 = float(np.corrcoef(data["p23_p"], data["p23_m"])[0, 1])
    ok = corr13 < 0.0 and corr23 < 0.0
    report(5, ok, f"Pearson correlations {corr13:.3f} (13), {corr23:.3f} (23)")
    assert corr13 < 0.0
    assert corr23 < 0.0


# ---------------------------------------------------------------------------
# 6. strong a field, weak b field
# ---------------------------------------------------------------------------

def test_criterion_6_strong_weak_field(preset_data):
    """fig3a: p13_0 at its derived levels; windowed p23_0 near 1/2.

    Targets come from :func:`collapse_levels`.  The whole-grid maximum of
    p13_0 lies between 0.9 of the coherent-peak bound 4<x^2 y^2/s^4> =
    0.1138 and the bound itself (it peaks at 0.111 near tau = 0.01, before
    the blocks dephase).  In the collapse window p13_0 averages to the
    diagonal-ensemble pop2 = 0.0427 and stays below 0.05, and p23_0
    averages to pop1 = 0.4721, which also lies within 0.1 of 1/2.

    The former clause "p13_0 < 0.05 over the whole grid" belongs to the
    variant in which level 1 couples directly to both other levels, where
    p13_0 never exceeds 0.03; in the lambda layout the 0.05 ceiling only
    holds once the blocks have dephased.
    """
    data = preset_data["fig3a"]
    target = collapse_levels(PRESETS["fig3a"])
    mask = window_mask(data["tau"])
    peak = float(np.max(data["p13_0"]))
    windowed_peak = float(np.max(data["p13_0"][mask]))
    mean13 = float(np.mean(data["p13_0"][mask]))
    mean23 = float(np.mean(data["p23_0"][mask]))
    peak_ok = 0.9 * target.p13_0_peak <= peak <= target.p13_0_peak
    mean13_ok = abs(mean13 - target.p13_0) < LEVEL_TOL
    ceiling_ok = windowed_peak < 0.05
    half_ok = abs(mean23 - 0.5) < 0.1
    mean23_ok = abs(mean23 - target.p23_0) < LEVEL_TOL
    report(6, peak_ok and mean13_ok and ceiling_ok and half_ok and mean23_ok,
           f"max p13_0 {peak:.4f} (bound {target.p13_0_peak:.4f}, at least 0.9 "
           f"of it), windowed p13_0 mean {mean13:.4f} (target "
           f"{target.p13_0:.4f} +- {LEVEL_TOL:g}) and max {windowed_peak:.4f} "
           f"(bound 0.05), windowed mean p23_0 {mean23:.4f} (target "
           f"{target.p23_0:.4f} +- {LEVEL_TOL:g}, and 0.5 +- 0.1)")
    assert peak_ok, f"max p13_0 = {peak:.4f} vs bound {target.p13_0_peak:.4f}"
    assert mean13_ok, f"windowed mean p13_0 = {mean13:.4f} vs {target.p13_0:.4f}"
    assert ceiling_ok, f"windowed max p13_0 = {windowed_peak:.4f} exceeds 0.05"
    assert half_ok, f"windowed mean p23_0 = {mean23:.4f} not within 0.1 of 0.5"
    assert mean23_ok, f"windowed mean p23_0 = {mean23:.4f} vs {target.p23_0:.4f}"


def test_strong_weak_layout_matches_oracle():
    """Block path equals the dense oracle at the fig3a layout, nbar_a = 20.

    Spot check of the program where criterion 6 applies its derived
    targets: the coherent peak (tau = 0.01) and the collapse window.  The
    oracle space is one Fock level larger per mode than the state's
    truncation (dimension 2016), so no block leaks.  The oracle matrix is
    real, so one real eigendecomposition serves every time.
    """
    params = SystemParams(g_a=1.0, g_b=1.0, nbar_a=20.0, nbar_b=0.5,
                          c=(1.0, 0.0, 0.0))
    cut_a = truncation_cutoff(params.nbar_a, params.epsilon)
    cut_b = truncation_cutoff(params.nbar_b, params.epsilon)
    full = oracle.build_full_hamiltonian(params, cut_a + 1, cut_b + 1)
    assert full.matrix.dtype == np.float64
    energies, modes = np.linalg.eigh(full.matrix)
    prop = BlockDiagonalPropagator(params)
    coeff0 = modes.T @ oracle.embed_state(*initial_state(params), cut_a + 1, cut_b + 1)
    worst = 0.0
    for tau in (0.01, 0.3, 0.55, 0.8):
        t = tau * time_scale(params)
        block_vec = oracle.embed_state(prop.index, prop.amplitudes_at(t),
                                       cut_a + 1, cut_b + 1)
        full_vec = modes @ (np.exp(-1j * energies * t) * coeff0)
        worst = max(worst, float(np.max(np.abs(block_vec - full_vec))))
    print(f"fig3a-layout oracle spot check: max amplitude difference {worst:.3g}")
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# 7. both fields strong
# ---------------------------------------------------------------------------

def test_criterion_7_strong_strong_field(preset_data):
    """fig3b: windowed means of p13_0 and p23_0 at their derived levels.

    With equal strong fields, each block has the dark mode (y, -x, 0)/s at
    frequency 0 and two bright modes (x, y, +-s)/(sqrt(2) s) at -+s.  An
    atom starting in level 1 splits as |<dark|1>|^2 = y^2/s^2 and
    |<bright|1>|^2 = x^2/(2 s^2) each.  Once block oscillations dephase
    (the collapse window), the time-averaged populations are

        pop1 = (y^4 + x^4/2)/s^4,   pop2 = (3/2) x^2 y^2/s^4,

    which tend to 3/8 each at x = y.  Weighted over the two coherent
    states by :func:`collapse_levels`, they give p23_0 = pop1 = 0.38125
    and p13_0 = pop2 = 0.37125; each windowed mean must lie within 5e-3.

    The former targets 1/4 +- 0.05 and 1/2 +- 0.05 encode the variant in
    which level 1 couples directly to both other levels (0.2525 and 1/2
    there).  That variant contradicts the lambda coupling layout, the
    full-space oracle and the trapping criterion.
    """
    data = preset_data["fig3b"]
    target = collapse_levels(PRESETS["fig3b"])
    mask = window_mask(data["tau"])
    mean13 = float(np.mean(data["p13_0"][mask]))
    mean23 = float(np.mean(data["p23_0"][mask]))
    clause1 = abs(mean13 - target.p13_0) < LEVEL_TOL
    clause2 = abs(mean23 - target.p23_0) < LEVEL_TOL
    report(7, clause1 and clause2,
           f"windowed mean p13_0 {mean13:.4f} (target {target.p13_0:.4f} "
           f"+- {LEVEL_TOL:g}), p23_0 {mean23:.4f} (target "
           f"{target.p23_0:.4f} +- {LEVEL_TOL:g})")
    assert clause1, f"windowed mean p13_0 = {mean13:.4f} vs {target.p13_0:.4f}"
    assert clause2, f"windowed mean p23_0 = {mean23:.4f} vs {target.p23_0:.4f}"


@pytest.mark.parametrize("name", ["fig3a", "fig3b"])
def test_static_term_is_the_closed_form_collapse_level(name):
    """The static term of the merged lines is the diagonal-ensemble level.

    The windowed means of criteria 6 and 7 approach the levels of
    :func:`collapse_levels`; the lines' static term, each column's
    infinite-time mean, is them.  The presets' epsilon of 1e-10 drops
    Poisson tails that move fig3b's levels by 8.6e-12, so the physics is
    taken at epsilon 1e-14, where that is below 1e-15.
    """
    config = dataclasses.replace(PRESETS[name], epsilon=1e-14)
    prop = BlockDiagonalPropagator(config)
    static = spectral_lines(prop, pair_frequencies(prop))[0]
    target = collapse_levels(config)
    assert abs(static[SERIES_KEYS.index("p13_0")] - target.p13_0) <= 1e-12
    assert abs(static[SERIES_KEYS.index("p23_0")] - target.p23_0) <= 1e-12


# ---------------------------------------------------------------------------
# 8. coherent trapping
# ---------------------------------------------------------------------------

def test_criterion_8_trapping(preset_data):
    """fig4: upper-level probability stays tiny; phi = 0 control absorbs."""
    data = preset_data["fig4"]
    trapped_peak = float(np.max(data["p12_0"]))

    control = trapping_config(0.0, 50.0)
    taus = np.linspace(0.0, 2.0, len(data["tau"]))
    series = time_series(control, taus * time_scale(control))
    control_peak = float(np.max(series["p12_0"]))

    ok = trapped_peak < 0.05 and control_peak >= 0.05
    report(8, ok, f"trapped max p12_0 {trapped_peak:.3g}, "
                  f"control max p12_0 {control_peak:.3f}")
    assert trapped_peak < 0.05
    assert control_peak >= 0.05, "control run must violate the trapping bound"


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------

def test_criterion_9_deterministic_csv(tmp_path):
    """Two runs of a preset produce byte-identical CSV files."""
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    run_scenario(PRESETS["fig2"], csv_path=first)
    run_scenario(PRESETS["fig2"], csv_path=second)
    ok = first.read_bytes() == second.read_bytes()
    report(9, ok, f"{first.stat().st_size} bytes, identical: {ok}")
    assert ok
