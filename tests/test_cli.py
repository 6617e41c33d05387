"""Tests for the configuration, scenario runner and CLI plumbing."""

import ast
import dataclasses
import importlib.util
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import lambdaphase
from lambdaphase import dynamics, numfmt, relphase, svgplot, verify
from lambdaphase.cli import (COLUMNS, MAX_TABLE_BYTES, PRESETS,
                             RunConfig, _check_rows, build_parser, config_from_dict,
                             load_config, main, run_scenario, time_scale,
                             write_csv, write_svg)
from lambdaphase.numfmt import CHUNK

# rows of one CSV chunk and points of one SVG chunk: CHUNK cells each
CSV_ROWS = CHUNK // len(COLUMNS)
SVG_POINTS = CHUNK // 2

BASE_CONFIG = {
    "g_a": 1.0,
    "g_b": 1.0,
    "nbar_a": 0.8,
    "nbar_b": 0.5,
    "c": [[0.6, 0.0], [0.0, 0.8], [0.0, 0.0]],
    "tau_max": 1.0,
    "tau_steps": 21,
}


def write_config(tmp_path, name="config.json", **overrides):
    raw = dict(BASE_CONFIG)
    raw.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_config_round_trip(tmp_path):
    config = load_config(write_config(tmp_path))
    assert config.tau_steps == 21
    assert config.c[1] == 0.8j
    params = config.system_params()
    assert params.nbar_b == 0.5


def test_config_rejects_unknown_keys(tmp_path):
    path = write_config(tmp_path, coupling=2.0)
    with pytest.raises(ValueError, match="coupling"):
        load_config(path)


def test_config_rejects_missing_required(tmp_path):
    raw = dict(BASE_CONFIG)
    del raw["c"]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="c"):
        load_config(path)


def test_config_reports_field_names():
    with pytest.raises(ValueError, match="tau_steps"):
        config_from_dict({**BASE_CONFIG, "tau_steps": 1})
    with pytest.raises(ValueError, match="tau_max"):
        config_from_dict({**BASE_CONFIG, "tau_max": -1.0})
    with pytest.raises(ValueError, match="transitions"):
        config_from_dict({**BASE_CONFIG, "transitions": ["31"]})
    with pytest.raises(ValueError, match="c\\["):
        config_from_dict({**BASE_CONFIG, "c": ["x", 0, 0]})


def test_presets_available():
    assert set(PRESETS) == {"fig2", "fig3a", "fig3b", "fig4"}
    fig4 = PRESETS["fig4"]
    assert fig4.nbar_a == fig4.nbar_b == 50.0
    # dark superposition of the two lower levels
    assert fig4.c[0] == pytest.approx(1 / math.sqrt(2))
    assert fig4.c[1] == pytest.approx(-1 / math.sqrt(2))
    for preset in PRESETS.values():
        assert preset.delta_a == preset.delta_b == 0.0
        assert preset.tau_max == 2.0


def test_time_scale():
    params = PRESETS["fig3a"].system_params()
    assert time_scale(params) == pytest.approx(2 * math.pi * math.sqrt(50.0))
    degenerate = RunConfig(**{**BASE_CONFIG, "nbar_a": 0.0,
                              "c": (0.6, 0.8j, 0.0)}).system_params()
    assert time_scale(degenerate) == 1.0


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------

def test_run_scenario_writes_csv_and_svg(tmp_path):
    config = load_config(write_config(tmp_path))
    csv_path = tmp_path / "out.csv"
    svg_path = tmp_path / "out.svg"
    data = run_scenario(config, csv_path=csv_path, svg_path=svg_path)

    lines = csv_path.read_text().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert len(lines) == 1 + config.tau_steps
    first = dict(zip(COLUMNS, map(float, lines[1].split(","))))
    assert first["tau"] == 0.0
    assert first["norm"] == pytest.approx(1.0, abs=1e-12)

    for stem in ("p13", "p23", "p12"):
        total = data[f"{stem}_0"] + data[f"{stem}_p"] + data[f"{stem}_m"]
        assert np.allclose(total, 1.0, atol=1e-9)
    assert np.allclose(data["norm"], 1.0, atol=1e-9)
    assert np.allclose(data["p13_0"], data["pop2"], atol=1e-9)
    assert np.allclose(data["p23_0"], data["pop1"], atol=1e-9)
    assert np.allclose(data["p12_0"], data["pop3"], atol=1e-9)

    tree = ET.parse(svg_path)
    polylines = [el for el in tree.iter() if el.tag.endswith("polyline")]
    assert len(polylines) == 3 * len(config.transitions)


def test_run_scenario_writes_only_to_the_paths_it_is_given(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = load_config(write_config(tmp_path))
    run_scenario(config)
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_run_scenario_deterministic(tmp_path):
    config = load_config(write_config(tmp_path))
    path_one = tmp_path / "one.csv"
    path_two = tmp_path / "two.csv"
    run_scenario(config, csv_path=path_one)
    run_scenario(config, csv_path=path_two)
    assert path_one.read_bytes() == path_two.read_bytes()


def test_run_scenario_thread_count_does_not_change_bytes(tmp_path, monkeypatch):
    # a desk config and fig3b's ~8.3k blocks on a shortened grid; the
    # program has no worker threads, so a worker-count variable left in
    # the environment (the benchmark removes LAMBDAPHASE_THREADS from its
    # children's environment, it does not set it) must not change the bytes
    configs = [load_config(write_config(tmp_path)),
               dataclasses.replace(PRESETS["fig3b"], tau_steps=25)]
    unset = tmp_path / "unset.csv"
    threaded = tmp_path / "threaded.csv"
    for config in configs:
        monkeypatch.delenv("LAMBDAPHASE_THREADS", raising=False)
        run_scenario(config, csv_path=unset)
        monkeypatch.setenv("LAMBDAPHASE_THREADS", "3")
        run_scenario(config, csv_path=threaded)
        assert unset.read_bytes() == threaded.read_bytes()


def assert_blas_threads_keep_bytes(tmp_path, raw):
    """Child processes under 1 and 2 BLAS threads write the in-process bytes."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(raw))
    reference = tmp_path / "in_process.csv"
    run_scenario(load_config(config_path), csv_path=reference)

    src = str(Path(lambdaphase.__file__).resolve().parents[1])
    for blas in ("1", "2"):
        out = tmp_path / f"blas{blas}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "lambdaphase.cli", "simulate",
                        "--config", str(config_path), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        assert out.read_bytes() == reference.read_bytes(), blas


def test_runtime_loads_no_test_dependency(tmp_path):
    # numpy is the only runtime dependency: importing the package and
    # running a preset in a fresh process loads no test-only module; and
    # simulate alone loads only the modules it runs, not oracle or verify
    src = str(Path(lambdaphase.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "fig2.csv"

    def loaded(imports, packages):
        script = (f"import sys\n{imports}\n"
                  "status = lambdaphase.cli.main(['simulate', '--preset', 'fig2', "
                  f"'--out', {str(out)!r}, '--svg', {str(tmp_path / 'fig2.svg')!r}])\n"
                  "print(status, sorted(name for name in sys.modules\n"
                  f"                     if name.split('.')[0] in {packages!r}))\n")
        result = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                capture_output=True, text=True, timeout=120)
        return result.stdout.splitlines()[-1]

    assert loaded("import lambdaphase, lambdaphase.cli, lambdaphase.verify",
                  ("scipy", "hypothesis", "pytest")) == "0 []"
    assert out.stat().st_size > 0
    expected = ["lambdaphase"] + [f"lambdaphase.{name}" for name in (
        "algebra", "cli", "dynamics", "numfmt", "relphase", "svgplot")]
    assert loaded("import lambdaphase.cli", ("lambdaphase",)) == f"0 {expected}"
    # fig2 sums its merged lines: only the detuned spread imports numpy.fft
    assert "numpy.fft" not in loaded("import lambdaphase.cli", ("numpy",))


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path):
    # fig3b's 8281 blocks over 67 samples sum their 629 merged lines, in
    # two tiles of samples; child processes under different BLAS thread
    # counts must write the bytes of the in-process run
    raw = {field.name: getattr(PRESETS["fig3b"], field.name)
           for field in dataclasses.fields(RunConfig)}
    raw.update(c=[1.0, 0.0, 0.0], tau_steps=67, transitions=list(raw["transitions"]))
    assert_blas_threads_keep_bytes(tmp_path, raw)


def test_simulate_bytes_do_not_depend_on_blas_threads_above_its_cutoff(tmp_path):
    # OpenBLAS threads a dot product above 10000 elements, at split points
    # that depend on the thread count; nbar 100/100 has 16641 blocks, so
    # an unchunked reduction over the blocks would change the bytes here.
    # The reduction is the detuned walk's, so the detunings differ
    raw = dict(BASE_CONFIG, nbar_a=100.0, nbar_b=100.0, c=[1.0, 0.0, 0.0],
               delta_a=0.3, delta_b=-0.2, tau_max=2.0, tau_steps=5)
    params = config_from_dict(raw).system_params()
    assert len(dynamics.initial_state(params)[0]) == 16641
    assert_blas_threads_keep_bytes(tmp_path, raw)


def test_simulate_bytes_do_not_depend_on_blas_threads_in_the_line_sum(tmp_path):
    # OpenBLAS threads a GEMM above 2**18 multiply-adds, and a 64-sample
    # tile of nbar 100/100's 933 resonant lines, 64 x 1866 x 12, changed
    # the bytes under 2 threads when it was one GEMM; LINE_CHUNK keeps
    # each below the threshold
    raw = dict(BASE_CONFIG, nbar_a=100.0, nbar_b=100.0, c=[1.0, 0.0, 0.0],
               tau_max=2.0, tau_steps=2 * relphase.SEGMENT + 1)
    config = config_from_dict(raw)
    prop = dynamics.BlockDiagonalPropagator(config)
    assert len(relphase.pair_frequencies(prop)) == 933 > relphase.LINE_CHUNK
    times = np.linspace(0.0, raw["tau_max"], raw["tau_steps"]) * time_scale(config)
    assert relphase.evaluator(len(prop.index), len(times), relphase.uniform_step(times),
                              933) == "lines"
    assert_blas_threads_keep_bytes(tmp_path, raw)


def test_simulate_bytes_do_not_depend_on_blas_threads_in_unmerged_lines(tmp_path):
    # equal detunings with unequal couplings hardly merge a pair: 6559
    # lines of 3025 blocks, which over 2001 samples take the spread of their
    # unmerged pairs, at resonance as when detuned
    raw = dict(BASE_CONFIG, g_a=1.0, g_b=0.8, nbar_a=20.0, nbar_b=20.0, c=[1.0, 0.0, 0.0],
               delta_a=0.2, delta_b=0.2, tau_max=2.0, tau_steps=2001)
    config = config_from_dict(raw)
    prop = dynamics.BlockDiagonalPropagator(config)
    lines = len(relphase.pair_frequencies(prop))
    assert (len(prop.index), lines) == (3025, 6559)
    times = np.linspace(0.0, raw["tau_max"], raw["tau_steps"]) * time_scale(config)
    assert relphase.evaluator(len(prop.index), len(times), relphase.uniform_step(times),
                              lines) == "spread"
    assert_blas_threads_keep_bytes(tmp_path, raw)


NON_UNIFORM_ROWS = """\
import sys
import numpy as np
from lambdaphase import relphase
from lambdaphase.dynamics import SystemParams
params = SystemParams(g_a=1.0, g_b=0.8, nbar_a=20.0, nbar_b=20.0, c=(0.6, 0.64j, 0.48),
                      delta_a=0.3, delta_b=-0.2)
times = np.sort(np.random.default_rng(11).uniform(0.0, 2.0, 401))
series = relphase.time_series(params, times)
rows = np.column_stack([series[key] for key in relphase.SERIES_KEYS])
if __name__ == "__main__":
    sys.stdout.buffer.write(rows.tobytes())
"""


def test_time_series_bytes_do_not_depend_on_blas_threads_on_a_non_uniform_grid(tmp_path):
    # a grid that is not uniform, which only the library makes, sums every
    # pair line with an exact exp a sample: detuned nbar 20/20 has 3135
    # blocks and 9405 unmerged lines, far more than one LINE_CHUNK, each
    # chunk mapped to the GEMM operand and summed on its own.  Child
    # processes under 1 and 2 BLAS threads print the in-process rows' bytes
    script = tmp_path / "rows.py"
    script.write_text(NON_UNIFORM_ROWS)
    run = runpy.run_path(str(script))
    prop = dynamics.BlockDiagonalPropagator(run["params"])
    assert relphase.uniform_step(run["times"]) == 0.0
    assert len(relphase.pair_frequencies(prop)) == 3 * len(prop.index) == 9405
    src = str(Path(lambdaphase.__file__).resolve().parents[1])
    for blas in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        done = subprocess.run([sys.executable, str(script)], env=env, check=True,
                              capture_output=True, timeout=120)
        assert done.stdout == run["rows"].tobytes(), blas


def test_simulate_bytes_do_not_depend_on_blas_threads_in_the_spread(tmp_path):
    # detuned nbar 50/50, complex c: 8463 blocks over 201 samples take the
    # spread, whose GEMMs of up to SPREAD_LINES lines against 3 x 16 grid
    # points and 12 floats each stay below OpenBLAS's 2**18 multiply-adds
    raw = dict(BASE_CONFIG, nbar_a=50.0, nbar_b=50.0, c=[[0.6, 0.0], [0.0, 0.48], [0.0, 0.64]],
               delta_a=0.3, delta_b=-0.2, tau_max=2.0, tau_steps=201)
    config = config_from_dict(raw)
    prop = dynamics.BlockDiagonalPropagator(config)
    times = np.linspace(0.0, raw["tau_max"], raw["tau_steps"]) * time_scale(config)
    assert relphase.evaluator(len(prop.index), len(times),
                              relphase.uniform_step(times)) == "spread"
    assert relphase.SPREAD_LINES * 3 * relphase.SPREAD_HALF_WIDTH * 12 <= 2**18
    assert_blas_threads_keep_bytes(tmp_path, raw)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_match_the_full_rectangle(tmp_path, monkeypatch, name):
    # the photon window moves the columns by about the weight it drops;
    # fig2's nbar 1 has no lower cut, so its bytes do not move at all
    windowed_path, full_path = tmp_path / "window.csv", tmp_path / "full.csv"
    windowed = run_scenario(PRESETS[name], csv_path=windowed_path)
    window = dynamics.photon_window
    monkeypatch.setattr(dynamics, "photon_window", lambda nbar, eps: (0, window(nbar, eps)[1]))
    full = run_scenario(PRESETS[name], csv_path=full_path)
    assert max(np.max(np.abs(windowed[col] - full[col])) for col in COLUMNS) <= 1e-10
    if name == "fig2":
        assert windowed_path.read_bytes() == full_path.read_bytes()


def per_cell_csv(data):
    """write_csv's output, one f-string per cell."""
    lines = [",".join(COLUMNS)]
    for k in range(len(data["tau"])):
        lines.append(",".join(f"{float(data[col][k]):.17g}" for col in COLUMNS))
    return "\n".join(lines) + "\n"


def per_point_polylines(x, series):
    """The points attribute of every polyline, one sx/sy call per point."""
    width, height = 900, 480
    plot_w, plot_h = width - 64 - 150, height - 36 - 48
    ymin = min(0.0, min(float(np.min(y)) for _, y in series))
    ymax = max(float(np.max(y)) for _, y in series)
    if ymax <= ymin:
        ymax = ymin + 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    xmin, xmax = float(x[0]), float(x[-1])

    def sx(v):
        return 64 + (v - xmin) / (xmax - xmin) * plot_w

    def sy(v):
        return 36 + (ymax - v) / (ymax - ymin) * plot_h

    return [" ".join(f"{sx(xv):.3f},{sy(yv):.3f}" for xv, yv in zip(x, y))
            for _, y in series]


@pytest.mark.parametrize("config", [
    PRESETS["fig2"],
    config_from_dict({"g_a": 1.0, "g_b": 0.8, "nbar_a": 3.0, "nbar_b": 2.0,
                      "c": [[0.6, 0.0], [0.0, 0.64], [0.48, 0.0]],
                      "delta_a": 0.3, "delta_b": -0.2, "tau_max": 2.0,
                      "tau_steps": 101}),
    dataclasses.replace(PRESETS["fig2"], tau_max=8.0, tau_steps=2 * SVG_POINTS + 3),
], ids=["fig2", "detuned_complex_c", "across_chunk_edges"])
def test_writers_match_per_cell_formatting(tmp_path, config):
    data = run_scenario(config)
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    write_csv(csv_path, data)
    assert csv_path.read_text() == per_cell_csv(data)

    write_svg(svg_path, config, data)
    series = [(f"p{trans}_{suffix}", data[f"p{trans}_{suffix}"])
              for trans in config.transitions for suffix in ("0", "p", "m")]
    points = re.findall(r'points="([^"]*)"', svg_path.read_text())
    assert points == per_point_polylines(data["tau"], series)
    assert len(points) == 3 * len(config.transitions)


def fallback_table():
    """A table of the values the exact route leaves to Python one at a time.

    Zeros, a negative, exponent notation at both ends (1e-30, 3e-5,
    1e17), and an inf and a nan at a CSV chunk edge in a column the plot
    leaves out, over a grid that crosses two SVG chunk edges.
    """
    rows = 2 * SVG_POINTS + 3
    rng = np.random.default_rng(11)
    data = {col: rng.random(rows) for col in COLUMNS}
    data["tau"] = np.linspace(0.0, 2.0, rows)
    special = [0.0, -1e-17, 1e-30, 3e-5, 1e17]
    for j, col in enumerate(COLUMNS[1:]):
        data[col][j::7] = np.resize(special, len(range(j, rows, 7)))
    data["norm"][CSV_ROWS - 1] = math.inf
    data["norm"][CSV_ROWS + 1] = math.nan
    return data


def test_writers_match_per_cell_formatting_on_fallback_values(tmp_path):
    config = PRESETS["fig2"]
    data = fallback_table()
    csv_path, svg_path = tmp_path / "out.csv", tmp_path / "out.svg"
    write_csv(csv_path, data)
    assert csv_path.read_text() == per_cell_csv(data)

    write_svg(svg_path, config, data)
    series = [(f"p{trans}_{suffix}", data[f"p{trans}_{suffix}"])
              for trans in config.transitions for suffix in ("0", "p", "m")]
    points = re.findall(r'points="([^"]*)"', svg_path.read_text())
    assert points == per_point_polylines(data["tau"], series)


@pytest.mark.parametrize("table", ["fig2", "fallback"])
def test_writer_bytes_do_not_depend_on_the_chunk_length(tmp_path, monkeypatch, table):
    # a chunk of 31 cells is 2 CSV rows and 15 SVG points, so the short
    # run crosses hundreds of edges the default chunk does not
    config = PRESETS["fig2"]
    data = run_scenario(config) if table == "fig2" else fallback_table()
    written = []
    for chunk in (31, CHUNK):
        monkeypatch.setattr(numfmt, "CHUNK", chunk)
        csv_path, svg_path = tmp_path / f"{chunk}.csv", tmp_path / f"{chunk}.svg"
        write_csv(csv_path, data)
        write_svg(svg_path, config, data)
        written.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert written[0] == written[1]


@pytest.mark.parametrize("column, value", [("p13_0", math.nan), ("p23_p", math.inf),
                                           ("tau", math.nan), ("tau", math.inf)])
def test_svg_rejects_a_non_finite_series(tmp_path, column, value):
    # one non-finite value would spoil the scale of every polyline, so the
    # plot names its series (or the abscissa x) and writes nothing
    data = run_scenario(PRESETS["fig2"])
    data[column] = data[column].copy()
    data[column][7] = value
    path = tmp_path / "out.svg"
    message = "x" if column == "tau" else f"series {column}"
    with pytest.raises(ValueError, match=f"{message} holds a non-finite"):
        write_svg(path, PRESETS["fig2"], data)
    assert not path.exists()


@pytest.mark.parametrize("x, y, message", [
    ([0.0, 1.0, 2.0], [0.1, 0.5], "series a has shape (2,), not x's (3,)"),
    ([0.0, 1.0, 2.0], [[0.1, 0.5, 0.2]], "series a has shape (1, 3), not x's (3,)"),
    (0.5, [0.1], "x must be 1-D, got shape ()"),
    ([], [], "x holds no point to plot"),
], ids=["short", "2-d", "scalar-x", "empty-x"])
def test_svg_rejects_a_series_not_shaped_like_x(tmp_path, x, y, message):
    path = tmp_path / "out.svg"
    with pytest.raises(ValueError, match=re.escape(message)):
        svgplot.write_line_plot(path, x, [("a", y)])
    assert not path.exists()


def test_writer_memory_does_not_grow_with_rows(tmp_path):
    # both writers stream one chunk of rows or points at a time, so their
    # peak allocation is the same for a short and a ten times longer grid
    config = PRESETS["fig2"]
    peaks = []
    for rows in (5001, 50001):
        rng = np.random.default_rng(rows)
        data = {col: rng.random(rows) for col in COLUMNS}
        data["tau"] = np.linspace(0.0, 1.0, rows)
        tracemalloc.start()
        try:
            write_csv(tmp_path / "out.csv", data)
            write_svg(tmp_path / "out.svg", config, data)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] <= 64 * 1024, peaks


def test_check_rows_rejects_nan():
    data = run_scenario(config_from_dict(BASE_CONFIG))
    _check_rows(data)
    for column, message in (("p23_m", "p23"), ("norm", "norm")):
        bad = dict(data)
        bad[column] = data[column].copy()
        bad[column][5] = math.nan
        with pytest.raises(RuntimeError, match=message):
            _check_rows(bad)


def test_run_scenario_constant_for_zero_couplings(tmp_path):
    config = config_from_dict({**BASE_CONFIG, "g_a": 0.0, "g_b": 0.0})
    data = run_scenario(config)
    for column in COLUMNS[1:]:
        assert np.max(np.abs(data[column] - data[column][0])) < 1e-12


# ---------------------------------------------------------------------------
# command line entry point
# ---------------------------------------------------------------------------

def test_main_simulate_with_config(tmp_path, capsys):
    config_path = write_config(tmp_path)
    out_path = tmp_path / "run.csv"
    code = main(["simulate", "--config", str(config_path), "--out", str(out_path)])
    assert code == 0
    assert out_path.exists()
    assert "21 rows" in capsys.readouterr().out


def test_main_simulate_preset(tmp_path, capsys):
    out_path = tmp_path / "fig2.csv"
    svg_path = tmp_path / "fig2.svg"
    code = main(["simulate", "--preset", "fig2", "--out", str(out_path),
                 "--svg", str(svg_path)])
    assert code == 0
    assert out_path.exists() and svg_path.exists()


@pytest.mark.parametrize("paths, flags, written, printed", [
    (None, [], ["fig2.csv"], ["wrote 401 rows to fig2.csv"]),
    ({}, ["--out", "o.csv", "--svg", "p.svg"],
     ["o.csv", "p.svg"], ["wrote 21 rows to o.csv", "wrote plot to p.svg"]),
    ({}, [], ["x.csv"], ["wrote 21 rows to x.csv"]),
    ({}, ["--svg", "p.svg"], ["p.svg", "x.csv"],
     ["wrote 21 rows to x.csv", "wrote plot to p.svg"]),
])
def test_main_simulate_output_paths(tmp_path, monkeypatch, capsys, paths, flags,
                                    written, printed):
    # the flags alone set the paths: without --out the CSV is named after
    # the preset or the config file and lands in the working directory,
    # and without --svg no SVG is written
    monkeypatch.chdir(tmp_path)
    if paths is None:
        source = ["--preset", "fig2"]
    else:
        (tmp_path / "conf").mkdir()
        write_config(tmp_path / "conf", "x.json", **paths)
        source = ["--config", "conf/x.json"]
    assert main(["simulate", *source, *flags]) == 0
    assert capsys.readouterr().out.splitlines() == printed
    files = sorted(p.name for p in tmp_path.iterdir() if p.is_file())
    assert files == written


def test_main_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BASE_CONFIG, "bogus": 1}))
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, named", [
    ("g_a", True, "g_a"), ("g_b", False, "g_b"), ("nbar_a", True, "nbar_a"),
    ("nbar_b", True, "nbar_b"), ("delta_a", True, "delta_a"),
    ("delta_b", False, "delta_b"), ("epsilon", True, "epsilon"),
    ("tau_max", True, "tau_max"), ("tau_steps", True, "tau_steps"),
    ("c", [True, 0, 0], "c[0]"), ("c", [0, [1, False], 0], "c[1]"),
])
def test_config_rejects_booleans_by_field_name(field, value, named):
    # JSON true and false load as Python bools, which are ints; they must
    # not run as 1 and 0
    with pytest.raises(ValueError, match=re.escape(f"{named} must")):
        config_from_dict({**BASE_CONFIG, field: value})


def test_config_rejects_an_unnormalized_c_and_shows_the_norm():
    # hand-typed amplitudes are rejected, not renormalized
    with pytest.raises(ValueError, match=r"c must be normalized, \|c\|\^2 = 0\.99998"):
        config_from_dict({**BASE_CONFIG, "c": [0.7071, 0.7071, 0]})


def test_main_rejects_an_unnormalized_c(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BASE_CONFIG, "c": [0.7071, 0.7071, 0]}))
    out_path = tmp_path / "x.csv"
    code = main(["simulate", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    assert "|c|^2 = 0.99998" in capsys.readouterr().err
    assert not out_path.exists()


def test_tau_steps_above_the_table_cap_is_rejected(tmp_path, capsys):
    # the cap is checked in RunConfig, before any grid is allocated
    steps = 10**12
    size = steps * len(COLUMNS) * 8
    assert size > MAX_TABLE_BYTES
    with pytest.raises(ValueError, match=f"tau_steps={steps} needs a {size} byte"):
        config_from_dict({**BASE_CONFIG, "tau_steps": steps})
    path = write_config(tmp_path, tau_steps=steps)
    out_path = tmp_path / "x.csv"
    code = main(["simulate", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "tau_steps" in err and str(MAX_TABLE_BYTES) in err
    assert not out_path.exists()


def test_a_grid_whose_phase_rounding_swamps_its_rows_is_refused(tmp_path, monkeypatch,
                                                                 capsys):
    # fig3a physics at tau_max 1e6 reaches |t| = 4.4e7, where the eigenphases
    # round by A = 1.3e-7; refused by name before any block is built
    def fail(params):
        raise AssertionError("initial_state ran")

    monkeypatch.setattr(dynamics, "initial_state", fail)
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"g_a": 1.0, "g_b": 1.0, "nbar_a": 50.0, "nbar_b": 0.5,
                                "c": [1.0, 0.0, 0.0], "tau_max": 1e6}))
    out_path = tmp_path / "x.csv"
    code = main(["simulate", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "tau_max = 1e+06 reaches" in err and "A = 1.32e-07, above 1e-08" in err
    assert not out_path.exists()


# the largest grid of each benchmark workload at any seed (perfbench/workloads.py)
WORKLOAD_EXTREMES = {
    "weak_long": dict(g_a=1.0, g_b=1.0, nbar_a=1.0, nbar_b=1.0, tau_max=42.0),
    "detuned_grid": dict(g_a=1.0, g_b=0.8, nbar_a=50.0, nbar_b=50.0, delta_a=0.5,
                         delta_b=-0.5, tau_max=2.0),
    "scale_setup": dict(g_a=1.0, g_b=1.0, nbar_a=100.0, nbar_b=100.0, tau_max=2.1),
}


@pytest.mark.parametrize("config", [
    *PRESETS.values(),
    *(RunConfig(c=(1.0, 0.0, 0.0), **fields) for fields in WORKLOAD_EXTREMES.values()),
], ids=[*PRESETS, *WORKLOAD_EXTREMES])
def test_presets_and_workloads_lie_far_below_the_phase_rounding_limit(config):
    # max |w t| is at most about 2.3e3 on these grids, and r bounds max |w|
    # from above, so A reads at most 7.1e-13 (scale_setup)
    assert relphase.phase_rounding(config, config.tau_max * time_scale(config)) <= 1e-12


@pytest.mark.parametrize("field", ["nbar_a", "g_a", "tau_max", "tau_steps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, "1"])
def test_main_rejects_non_finite_config(tmp_path, capsys, field, value):
    # Python's json reads NaN and Infinity, so the config must reject them
    # (and non-numbers) by name
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**BASE_CONFIG, field: value}))
    out_path = tmp_path / "x.csv"
    code = main(["simulate", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    assert field in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("value", [5, None, "13", [13]])
def test_main_rejects_transitions_that_are_not_a_list_of_names(tmp_path, capsys, value):
    # a string used to be split into characters and a number list accepted
    path = write_config(tmp_path, transitions=value)
    out_path = tmp_path / "x.csv"
    code = main(["simulate", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    assert "transitions must be a list of transition names" in capsys.readouterr().err
    assert not out_path.exists()


def test_config_rejects_output_path_keys_by_name(tmp_path):
    # the flags alone set the output paths; an old config that still has
    # the keys fails loudly
    for key, value in (("csv", "out.csv"), ("svg", "out.svg")):
        path = write_config(tmp_path, **{key: value})
        with pytest.raises(ValueError, match=f"unknown config key\\(s\\): {key}$"):
            load_config(path)


@pytest.mark.parametrize("value, message", [
    (["13", "13"], "transitions: repeated transition '13'"),
    (["12", "23", "12"], "transitions: repeated transition '12'"),
    (["13", "31"], "transitions: unknown transition '31'"),
], ids=["13-twice", "12-twice", "unknown"])
def test_main_rejects_a_repeated_or_unknown_transition(tmp_path, capsys, value, message):
    # a repeated name used to draw each of its curves twice in the SVG
    path = write_config(tmp_path, transitions=value)
    out_path = tmp_path / "x.csv"
    code = main(["simulate", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out_path.exists()


@pytest.mark.parametrize("flag", ["--out", "--svg"])
def test_main_rejects_an_empty_output_flag(tmp_path, monkeypatch, capsys, flag):
    # an empty path used to skip the writer and still report success
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--preset", "fig2", flag, ""])
    assert code == 2
    assert f"{flag} must be" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_main_rejects_a_grid_above_the_block_cap(tmp_path, capsys):
    path = write_config(tmp_path, nbar_a=50000.0, nbar_b=50000.0)
    out_path = tmp_path / "x.csv"
    code = main(["simulate", "--config", str(path), "--out", str(out_path)])
    assert code == 2
    assert "nbar_a" in capsys.readouterr().err
    assert not out_path.exists()


def test_main_simulate_at_the_strongest_fields_the_cap_admits(tmp_path, capsys):
    # nbar_a 50000 exited 2: the Poisson table summed from n = 1 lost 3.4e-10
    # of the weight, and the capture check counted it as discarded
    path = write_config(tmp_path, g_a=1.0, g_b=0.0, nbar_a=50000.0, nbar_b=0.5,
                        c=[1.0, 0.0, 0.0], tau_steps=11)
    out_path = tmp_path / "x.csv"
    code = main(["simulate", "--config", str(path), "--out", str(out_path)])
    assert code == 0, capsys.readouterr().err
    assert len(out_path.read_text().splitlines()) == 12


def test_main_rejects_unwritable_output(tmp_path):
    config_path = write_config(tmp_path)
    code = main(["simulate", "--config", str(config_path),
                 "--out", str(tmp_path / "missing_dir" / "x.csv")])
    assert code == 2


def test_main_verify(capsys):
    code = main(["verify"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[FAIL]" not in out
    assert out.endswith("31/31 checks passed\n")


def test_verify_poisson_check_sees_a_scaled_table(monkeypatch):
    # a table 3e-11 too heavy everywhere; a sum over the epsilon window of
    # nbar 1 read the true tail above it, 6.4e-11, and passed this table
    table = verify.poisson_probabilities
    monkeypatch.setattr(verify, "poisson_probabilities",
                        lambda nbar, top: table(nbar, top) * (1 + 3e-11))
    checks = {check.name: check for check in verify.suite_dynamics()}
    assert not checks["poisson weight normalization"].passed


@pytest.mark.parametrize("name, fault", [
    ("uniform_step", lambda step: lambda times: step(times) * (1 + 1e-6)),
    ("block_tiles", lambda tiles: lambda blocks: tiles(blocks)[:1]),
], ids=["long-step", "dropped-tile"])
def test_verify_projection_check_covers_the_stepped_walk(monkeypatch, name, fault):
    # a wrong step of the recurrence, or a tile left out of the reduction,
    # moves time_series' columns but not the exact per-sample state
    monkeypatch.setattr(relphase, name, fault(getattr(relphase, name)))
    checks = {check.name: check for check in verify.suite_relphase()}
    assert checks["projection vs closed form"].residual > 1e-8


@pytest.mark.parametrize("name, value", [
    ("SPREAD_HALF_WIDTH", 4),
    ("_spread_chunk", lambda grid, chunk, anchor, scale, b, spread=relphase._spread_chunk:
        spread(grid, chunk, 0.0, scale, b)),
], ids=["narrow-kernel", "unanchored"])
def test_verify_projection_check_covers_the_spread(monkeypatch, name, value):
    # a kernel of 4 points on each side, or lines left at their phase at
    # t = 0, moves the spread's columns but not the exact per-sample state
    monkeypatch.setattr(relphase, name, value)
    checks = {check.name: check for check in verify.suite_relphase()}
    assert checks["projection vs closed form"].residual > 1e-8


def strongest_line(lines, fault):
    """spectral_lines with ``fault(frequencies, gains, k)`` applied at its strongest line k."""
    def faulty(prop, distinct):
        static, frequencies, gains = lines(prop, distinct)
        return (static, *fault(frequencies, gains, np.argmax(np.abs(gains).sum(axis=1))))
    return faulty


@pytest.mark.parametrize("fault", [
    lambda w, g, k: (np.delete(w, k), np.delete(g, k, axis=0)),
    lambda w, g, k: (np.where(np.arange(len(w)) == k, w * (1 + 1e-6), w), g),
], ids=["dropped-line", "perturbed-frequency"])
def test_verify_projection_check_covers_the_merged_lines(monkeypatch, fault):
    # a line left out of the sum, or one frequency a part in 1e6 off, moves
    # time_series' columns on the resonant grid but not the exact state
    monkeypatch.setattr(relphase, "spectral_lines",
                        strongest_line(relphase.spectral_lines, fault))
    checks = {check.name: check for check in verify.suite_relphase()}
    assert checks["projection vs closed form"].residual > 1e-8


def test_readme_config_schema_loads_and_names_every_field():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"### Config schema\n.*?```json\n(.*?)```", readme,
                          flags=re.DOTALL)
    raw = json.loads(block)
    config_from_dict(raw)
    assert set(raw) == {f.name for f in dataclasses.fields(RunConfig)}


def test_readme_cli_block_parses():
    # every command line of the README's CLI block, with its comment and
    # the brackets around optional flags removed, is one the parser takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"## CLI\n\n```\n(.*?)```", readme, flags=re.DOTALL)
    lines = [line.split("#")[0].replace("[", "").replace("]", "").split()
             for line in block.splitlines()]
    assert lines
    parser = build_parser()
    for words in lines:
        assert words[0] == "lambdaphase"
        parser.parse_args(words[1:])


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (example,) = re.findall(r"## Library example\n\n```python\n(.*?)```", readme,
                            flags=re.DOTALL)
    exec(compile(example, "README.md", "exec"), {})
    printed = ast.literal_eval(capsys.readouterr().out.splitlines()[0])
    assert tuple(printed) == relphase.PHASE_KEYS["13"]
    assert sum(printed.values()) == pytest.approx(1.0, abs=1e-10)
    assert min(printed.values()) >= 0.0


def test_readme_column_block_is_the_csv_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"carries the full fixed column set\n\n```\n(.*?)```", readme,
                          flags=re.DOTALL)
    assert tuple(name.strip() for name in block.split(",")) == COLUMNS


def test_reproduce_figures_compares_each_csv_with_a_reference(tmp_path):
    # the value comparison the 2-thread figure run prints against the
    # 1-thread files: largest |difference| and changed cells, by file name
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
    spec = importlib.util.spec_from_file_location("reproduce_figures", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    ours, reference = tmp_path / "ours.csv", tmp_path / "reference.csv"
    reference.write_text("tau,a,b\n0,1,2\n0.5,3,4\n")
    ours.write_text("tau,a,b\n0,1,2.25\n0.5,3,3.5\n")
    assert module.compare_csv(ours, reference) == (
        f"  max |diff| 0.5 in 2 changed cells against {reference}")
    assert module.compare_csv(reference, reference).startswith("  max |diff| 0 in 0 changed")
    ours.write_text("tau,a,b\n0,1,2\n")
    assert module.compare_csv(ours, reference) == (
        f"  (1, 3) cells against (2, 3) in {reference}")
    missing = tmp_path / "missing.csv"
    assert module.compare_csv(ours, missing) == f"  no reference file {missing}"
