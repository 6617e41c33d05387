"""Tests of the benchmark itself: its correctness gate, reference and tracer.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

PROGRAM = run.import_program(run.ROOT)
CLI = PROGRAM["cli"]

SMALL = {"g_a": 1.0, "g_b": 0.8, "nbar_a": 3.0, "nbar_b": 2.0,
         "c": [[0.6, 0.0], [0.0, 0.64], [0.48, 0.0]],
         "delta_a": 0.3, "delta_b": -0.2, "tau_max": 2.0, "tau_steps": 41,
         "epsilon": 1e-10}


def small_gate(rows=(0, 7, 40)) -> run.Gate:
    blocks = reference.Blocks(**workloads.physics(SMALL))
    taus = np.linspace(0.0, SMALL["tau_max"], SMALL["tau_steps"])
    scale = reference.time_scale(SMALL["g_a"], SMALL["nbar_a"])
    return run.Gate({k: reference.row(blocks, taus[k], scale) for k in rows},
                    SMALL["tau_steps"])


def test_perturbed_column_is_a_failed_run(tmp_path):
    config = CLI.config_from_dict(SMALL)
    gate, record = small_gate(), run.Record()
    csv, svg = tmp_path / "out.csv", tmp_path / "out.svg"

    def honest(csv_path, svg_path):
        CLI.run_scenario(config, csv_path, svg_path)

    def perturbed(csv_path, svg_path):
        honest(csv_path, svg_path)
        lines = csv_path.read_text().splitlines()
        col = lines[0].split(",").index("p23_m")
        for k in range(1, len(lines)):
            cells = lines[k].split(",")
            cells[col] = repr(float(cells[col]) + 1e-6)
            lines[k] = ",".join(cells)
        csv_path.write_text("\n".join(lines) + "\n")

    run.attempt(record, "run", honest, gate, csv, svg)
    run.attempt(record, "run", perturbed, gate, csv, svg)
    run.attempt(record, "run", honest, gate, csv, svg)

    assert record.attempted == 3 and record.failed == 1
    assert "p23_m" in record.failures[0]
    assert record.fail_frac == pytest.approx(1 / 3)
    assert 0.0 < gate.worst < 1e-5


def test_failing_program_is_a_failed_run(tmp_path):
    record = run.Record()

    def broken(csv_path, svg_path):
        raise RuntimeError("state norm drifted by nan")

    run.attempt(record, "run", broken, small_gate(), tmp_path / "a.csv", tmp_path / "a.svg")
    assert record.failed == 1 and record.times["run"]


@pytest.mark.parametrize("c", [[1.0, 0.0, 0.0], SMALL["c"], [[0.6, 0.0], [-0.8, 0.0], 0.0]])
def test_reference_matches_program(c):
    doc = dict(SMALL, c=c)
    data = CLI.run_scenario(CLI.config_from_dict(doc))
    blocks = reference.Blocks(**workloads.physics(doc))
    scale = reference.time_scale(doc["g_a"], doc["nbar_a"])
    for k in range(0, doc["tau_steps"], 5):
        got = np.array([data[col][k] for col in reference.COLUMNS])
        assert np.max(np.abs(reference.row(blocks, data["tau"][k], scale) - got)) < 1e-12


def test_work_counts_do_not_depend_on_the_seed():
    for name in workloads.WORKLOADS:
        first = run.structural_counts(PROGRAM, name, 1)
        assert all(run.structural_counts(PROGRAM, name, seed) == first for seed in (2, 3))
    counts = run.structural_counts(PROGRAM, "detuned_grid", 1)
    assert (counts["dynamics.blocks_full"], counts["dynamics.blocks_one"]) == (10404, 204)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [tracing.Span("outer", 0.0, 10.0, None),
                    tracing.Span("inner", 1.0, 4.0, 0),
                    tracing.Span("inner", 3.0, 6.0, 0),
                    tracing.Span("leaf", 1.5, 2.0, 1)]
    summary = tracer.summary()
    assert summary["outer"]["self_s"] == pytest.approx(5.0)
    assert summary["inner"]["s"] == pytest.approx(6.0)
    assert summary["inner"]["self_s"] == pytest.approx(5.5)
    assert summary["inner"]["calls"] == 2


def test_patched_layers_are_restored_and_absent_ones_reported():
    original = CLI.write_csv
    tracer = tracing.Tracer()
    with tracing.patched(tracer, dict(PROGRAM, relphase=None)) as absent:
        assert CLI.write_csv is not original
        CLI.run_scenario(CLI.config_from_dict(dict(SMALL, tau_steps=3)))
    assert CLI.write_csv is original
    assert absent == {"relphase.time_series"}
    assert tracer.summary()["dynamics.amplitudes_at"]["calls"] == 3
