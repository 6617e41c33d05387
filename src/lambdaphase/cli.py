"""Command line front end: scenario runs, CSV/SVG emission and verification.

``simulate`` evolves a configured initial state over a grid of rescaled
times and writes one CSV row per grid point; ``verify`` runs the runtime
invariant suites.  Named presets reproduce the weak-field, strong-field
and trapping scenarios at zero detuning.

The rescaled time is tau = g_a t / (2 pi sqrt(nbar_a)), chosen so that
revivals of a strongly driven 1<->3 transition sit near integer tau.
When g_a or nbar_a vanishes the rescaling is degenerate and tau is read
as bare time.

CSV output is deterministic: fixed column order, 17 significant digits,
and a fixed reduction order, so identical configurations produce
byte-identical files.
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import algebra, relphase, svgplot
from .dynamics import SystemParams, require_finite
from .verify import SUITES, run_suite

COLUMNS = ("tau",) + relphase.SERIES_KEYS

# Per-row sanity bounds checked on every emitted row.
ROW_TOLERANCE = 1e-9

# Cap on a run's (tau_steps, len(COLUMNS)) float table, checked before the
# grid is allocated; the same size as the dense oracle's cap.
MAX_TABLE_BYTES = 256 * 2**20


@dataclass(frozen=True)
class RunConfig(SystemParams):
    """One scenario: the physics of :class:`SystemParams` plus grid and output choices.

    ``transitions`` selects which transitions are drawn in the SVG; the
    CSV always carries the full fixed column set.  ``csv``/``svg`` are
    default output paths, overridable on the command line.
    """

    tau_max: float = 2.0
    tau_steps: int = 401
    transitions: tuple[str, ...] = algebra.ALL_TRANSITIONS
    csv: str | None = None
    svg: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(str(t) for t in self.transitions))
        require_finite(self, ("tau_max", "tau_steps"))
        if self.tau_max <= 0:
            raise ValueError(f"tau_max must be > 0, got {self.tau_max}")
        if int(self.tau_steps) != self.tau_steps or self.tau_steps < 2:
            raise ValueError(f"tau_steps must be an integer >= 2, got {self.tau_steps}")
        object.__setattr__(self, "tau_steps", int(self.tau_steps))
        size = self.tau_steps * len(COLUMNS) * np.dtype(float).itemsize
        if size > MAX_TABLE_BYTES:
            raise ValueError(f"tau_steps={self.tau_steps} needs a {size} byte table, "
                             f"above the cap of {MAX_TABLE_BYTES} bytes")
        if not self.transitions:
            raise ValueError("transitions must name at least one transition")
        for t in self.transitions:
            if t not in algebra.ALL_TRANSITIONS:
                raise ValueError(f"transitions: unknown transition {t!r}")
        for name in ("csv", "svg"):
            value = getattr(self, name)
            if value is not None and not (isinstance(value, str) and value):
                raise ValueError(f"{name} must be an output path or null, got {value!r}")
        super().__post_init__()

    def system_params(self) -> SystemParams:
        """The physics fields alone, as a plain :class:`SystemParams`."""
        return SystemParams(**{f.name: getattr(self, f.name) for f in fields(SystemParams)})


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_amplitude(value, position: int) -> complex:
    if _is_number(value):
        return complex(value)
    if (isinstance(value, (list, tuple)) and len(value) == 2
            and all(_is_number(part) for part in value)):
        return complex(value[0], value[1])
    raise ValueError(f"c[{position}] must be a number or a [re, im] pair, "
                     f"got {value!r}")


def config_from_dict(raw: dict) -> RunConfig:
    """Build a RunConfig from a JSON document, rejecting unknown keys."""
    known = {f.name for f in fields(RunConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    data = dict(raw)
    if "c" in data:
        if not isinstance(data["c"], (list, tuple)) or len(data["c"]) != 3:
            raise ValueError("c must be a list of three amplitudes")
        data["c"] = tuple(_parse_amplitude(v, k) for k, v in enumerate(data["c"]))
    if "transitions" in data:
        data["transitions"] = tuple(data["transitions"])
    missing = sorted({"g_a", "g_b", "nbar_a", "nbar_b", "c"} - set(data))
    if missing:
        raise ValueError(f"missing required config key(s): {', '.join(missing)}")
    return RunConfig(**data)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as handle:
        raw = json.load(handle)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a single JSON object")
    return config_from_dict(raw)


def _preset_configs() -> dict[str, RunConfig]:
    ground = (1.0, 0.0, 0.0)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    return {
        # Weak field: about one excitation per mode, almost oscillatory.
        "fig2": RunConfig(g_a=1.0, g_b=1.0, nbar_a=1.0, nbar_b=1.0, c=ground,
                          transitions=("13", "23")),
        # Strong a field, weak b field: collapse and revival on 1<->3.
        "fig3a": RunConfig(g_a=1.0, g_b=1.0, nbar_a=50.0, nbar_b=0.5, c=ground,
                           transitions=("13", "23")),
        # Both fields strong.
        "fig3b": RunConfig(g_a=1.0, g_b=1.0, nbar_a=50.0, nbar_b=50.0, c=ground,
                           transitions=("13", "23")),
        # Dark lower-level superposition against equal strong fields.
        "fig4": RunConfig(g_a=1.0, g_b=1.0, nbar_a=50.0, nbar_b=50.0,
                          c=(inv_sqrt2, -inv_sqrt2, 0.0), transitions=("12",)),
    }


PRESETS = _preset_configs()


def time_scale(params: SystemParams) -> float:
    """Seconds of interaction time per unit of rescaled time tau."""
    if params.g_a > 0 and params.nbar_a > 0:
        return 2.0 * math.pi * math.sqrt(params.nbar_a) / params.g_a
    return 1.0


def _check_rows(data: dict[str, np.ndarray]) -> None:
    # Written as "not <=" so that a NaN residual fails the check.
    for stem in ("p13", "p23", "p12"):
        total = data[f"{stem}_0"] + data[f"{stem}_p"] + data[f"{stem}_m"]
        worst = float(np.max(np.abs(total - 1.0)))
        if not (worst <= ROW_TOLERANCE):
            raise RuntimeError(f"{stem} probabilities sum to 1 only within "
                               f"{worst:.3g}")
    worst = float(np.max(np.abs(data["norm"] - 1.0)))
    if not (worst <= ROW_TOLERANCE):
        raise RuntimeError(f"state norm drifted by {worst:.3g}")


# One CSV row: every column with 17 significant digits.
ROW_FORMAT = ",".join(["%.17g"] * len(COLUMNS)) + "\n"

# Rows formatted at a time while writing the CSV, so the text and Python
# floats the writer holds are one chunk whatever the grid length.  The
# SVG polylines are written in chunks of the same length.
CSV_CHUNK = svgplot.CHUNK


def write_csv(path, data: dict[str, np.ndarray]) -> None:
    """Write the ``COLUMNS`` of ``data`` as CSV, ``CSV_CHUNK`` rows at a time.

    Each chunk is formatted with one ``%`` of ``ROW_FORMAT`` repeated over
    its flattened (rows, len(COLUMNS)) table.
    """
    columns = [np.asarray(data[col], dtype=float) for col in COLUMNS]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(COLUMNS) + "\n")
        for start in range(0, len(columns[0]), CSV_CHUNK):
            chunk = np.column_stack([col[start:start + CSV_CHUNK] for col in columns])
            handle.write(ROW_FORMAT * len(chunk) % tuple(chunk.ravel().tolist()))


def write_svg(path, config: RunConfig, data: dict[str, np.ndarray]) -> None:
    series = []
    for trans in config.transitions:
        stem = "p" + trans
        for suffix in ("0", "p", "m"):
            series.append((f"{stem}_{suffix}", data[f"{stem}_{suffix}"]))
    svgplot.write_line_plot(
        path, data["tau"], series,
        title="Relative-phase probabilities",
        xlabel="rescaled time tau", ylabel="probability")


def run_scenario(config: RunConfig, csv_path=None, svg_path=None) -> dict[str, np.ndarray]:
    """Evolve the configured scenario over its tau grid.

    Writes the CSV (and optional SVG) when a path is configured or given,
    and returns the column arrays keyed as in ``COLUMNS``.
    """
    params = config.system_params()
    taus = np.linspace(0.0, config.tau_max, config.tau_steps)
    times = taus * time_scale(params)
    series = relphase.time_series(params, times)
    data = {"tau": taus}
    for key in relphase.SERIES_KEYS:
        data[key] = series[key]
    _check_rows(data)

    csv_target = csv_path if csv_path is not None else config.csv
    if csv_target:
        write_csv(csv_target, data)
    svg_target = svg_path if svg_path is not None else config.svg
    if svg_target:
        write_svg(svg_target, config, data)
    return data


def _cmd_simulate(args) -> int:
    for flag, path in (("--out", args.out), ("--svg", args.svg)):
        if path == "":
            raise ValueError(f"{flag} must be a non-empty path")
    if args.preset is not None:
        config = PRESETS[args.preset]
    else:
        config = load_config(args.config)
    csv_path = args.out
    if csv_path is None and config.csv is None:
        stem = args.preset if args.preset else Path(args.config).stem
        csv_path = f"{stem}.csv"
    run_scenario(config, csv_path=csv_path, svg_path=args.svg)
    target = csv_path if csv_path is not None else config.csv
    print(f"wrote {config.tau_steps} rows to {target}")
    if args.svg or config.svg:
        print(f"wrote plot to {args.svg or config.svg}")
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(args.suite)
    failures = 0
    for check in results:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}: residual {check.residual:.3g} "
              f"(tolerance {check.tolerance:.3g})")
        failures += 0 if check.passed else 1
    total = len(results)
    print(f"{total - failures}/{total} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambdaphase",
        description="Relative-phase dynamics of a three-level lambda atom "
                    "coupled to two quantized field modes.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write CSV/SVG")
    source = sim.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a JSON scenario config")
    source.add_argument("--preset", choices=sorted(PRESETS),
                        help="named built-in scenario")
    sim.add_argument("--out", help="CSV output path")
    sim.add_argument("--svg", help="optional SVG line-plot path")
    sim.set_defaults(func=_cmd_simulate)

    ver = sub.add_parser("verify", help="run runtime invariant suites")
    ver.add_argument("--suite", default="all", choices=sorted(SUITES) + ["all"],
                     help="which suite to run (default: all)")
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
