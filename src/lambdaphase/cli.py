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
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import algebra, numfmt, relphase, svgplot
from .dynamics import SystemParams, require_finite

COLUMNS = ("tau",) + relphase.SERIES_KEYS

# Per-row sanity bounds checked on every emitted row.
ROW_TOLERANCE = 1e-9

# Cap on a run's (tau_steps, len(COLUMNS)) float table, checked before the
# grid is allocated; the same size as the dense oracle's cap.
MAX_TABLE_BYTES = 256 * 2**20


@dataclass(frozen=True)
class RunConfig(SystemParams):
    """One scenario: the physics of :class:`SystemParams` plus grid and plot choices.

    ``transitions``, a list of transition names, selects which
    transitions are drawn in the SVG; the CSV always carries the full
    fixed column set.  Output paths are not part of a scenario: the
    command line sets them.
    """

    tau_max: float = 2.0
    tau_steps: int = 401
    transitions: tuple[str, ...] = algebra.ALL_TRANSITIONS

    def __post_init__(self):
        names = self.transitions
        if not (isinstance(names, (list, tuple)) and all(isinstance(t, str) for t in names)):
            raise ValueError(f"transitions must be a list of transition names, got {names!r}")
        object.__setattr__(self, "transitions", tuple(names))
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
        for k, t in enumerate(self.transitions):
            if t not in algebra.ALL_TRANSITIONS:
                raise ValueError(f"transitions: unknown transition {t!r}")
            if t in self.transitions[:k]:
                raise ValueError(f"transitions: repeated transition {t!r}")
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
    missing = sorted(f.name for f in fields(RunConfig)
                     if f.default is MISSING and f.name not in data)
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
    for trans, keys in relphase.PHASE_KEYS.items():
        worst = float(np.max(np.abs(sum(data[key] for key in keys) - 1.0)))
        if not (worst <= ROW_TOLERANCE):
            raise RuntimeError(f"p{trans} probabilities sum to 1 only within "
                               f"{worst:.3g}")
    worst = float(np.max(np.abs(data["norm"] - 1.0)))
    if not (worst <= ROW_TOLERANCE):
        raise RuntimeError(f"state norm drifted by {worst:.3g}")


def write_csv(path, data: dict[str, np.ndarray]) -> None:
    """Write the ``COLUMNS`` of ``data`` as CSV, ``numfmt.CHUNK`` cells at a time.

    Every value is written as ``%.17g``; each chunk is one
    :func:`numfmt.format_table` call over a (rows, len(COLUMNS)) table of
    ``numfmt.CHUNK // len(COLUMNS)`` rows.
    """
    columns = [np.asarray(data[col], dtype=float) for col in COLUMNS]
    seps = b"," * (len(COLUMNS) - 1) + b"\n"
    rows = numfmt.CHUNK // len(COLUMNS)
    with open(path, "wb") as handle:
        handle.write(",".join(COLUMNS).encode() + b"\n")
        for start in range(0, len(columns[0]), rows):
            chunk = np.column_stack([col[start:start + rows] for col in columns])
            handle.write(numfmt.format_table(chunk, b"%.17g", seps))


def write_svg(path, config: RunConfig, data: dict[str, np.ndarray]) -> None:
    series = [(key, data[key]) for trans in config.transitions
              for key in relphase.PHASE_KEYS[trans]]
    svgplot.write_line_plot(path, data["tau"], series)


def run_scenario(config: RunConfig, csv_path=None, svg_path=None) -> dict[str, np.ndarray]:
    """Evolve the configured scenario over its tau grid.

    Writes the CSV and the SVG only to the paths given, and returns the
    column arrays keyed as in ``COLUMNS``.  Raises ValueError naming
    ``tau_max`` when the grid's :func:`relphase.phase_rounding` is too
    large, before any block is built.
    """
    taus = np.linspace(0.0, config.tau_max, config.tau_steps)
    times = taus * time_scale(config)
    relphase.phase_rounding(config, times[-1], f"tau_max = {config.tau_max:g}")
    data = {"tau": taus, **relphase.time_series(config, times)}
    _check_rows(data)
    if csv_path:
        write_csv(csv_path, data)
    if svg_path:
        write_svg(svg_path, config, data)
    return data


def _cmd_simulate(args) -> int:
    for flag, path in (("--out", args.out), ("--svg", args.svg)):
        if path == "":
            raise ValueError(f"{flag} must be a non-empty path")
    config = PRESETS[args.preset] if args.preset else load_config(args.config)
    stem = args.preset or Path(args.config).stem
    csv_path = args.out or f"{stem}.csv"
    run_scenario(config, csv_path=csv_path, svg_path=args.svg)
    print(f"wrote {config.tau_steps} rows to {csv_path}")
    if args.svg:
        print(f"wrote plot to {args.svg}")
    return 0


def _cmd_verify(args) -> int:
    # imported here so that simulate loads neither verify nor the oracle
    from .verify import run_suite
    results = run_suite()
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

    ver = sub.add_parser("verify", help="run every runtime invariant suite")
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
