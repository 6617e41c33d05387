#!/usr/bin/env python3
"""Benchmark of lambdaphase's ``simulate`` path, run from a checkout's root.

    python3 perfbench/run.py --workload weak_long --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout this file sits in
and driven only through public entry points: ``cli.run_scenario``
in-process and ``python -m lambdaphase.cli simulate --config ...`` as a
child process.  One process runs one scenario at a time (a closed loop
of one client) with ``LAMBDAPHASE_THREADS`` unset, so one worker.

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced in-process runs and reports per-layer metrics from
spans recorded around the package's public callables (see tracing.py).
Every run's CSV is checked at seed-chosen rows against an independent
numpy reference (reference.py) and byte-compared with the first run;
a miss counts as a failed run.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
``--machine`` prints the machine and numeric-library settings instead.

Each timing is scaled to a reference machine speed by a benchmark-owned
calibration kernel timed after every attempt (see ``calibration_kernel``
and README.md), and the benchmark pins itself and its children to one
CPU so that the kernel and the run it scales share a core.
"""

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TOLERANCE = 1e-9
# Median seconds of calibration_kernel() on the machine recorded in README.md.
CALIBRATION_REF_S = 0.07
# Calibration time after each attempt, as a share of the attempt's time,
# and around the batch of setup runs.
CALIBRATION_SHARE = 0.05
BATCH_CALIBRATION_S = 0.2
SETUP_REPEATS = 7
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 90
SETUP_CODE = "import sys, lambdaphase.cli as cli; cli.load_config(sys.argv[1])"
THREAD_VARS = ("LAMBDAPHASE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-layer metric -> (span name, summary field, unit)
LAYER_METRICS = {
    "dynamics.initial_state.s": ("dynamics.initial_state", "s", "s"),
    "dynamics.propagator_build.self_s": ("dynamics.propagator_build", "self_s", "s"),
    "dynamics.amplitudes_at.s": ("dynamics.amplitudes_at", "s", "s"),
    "dynamics.amplitudes_at.calls": ("dynamics.amplitudes_at", "calls", "count"),
    "relphase.time_series.self_s": ("relphase.time_series", "self_s", "s"),
    "cli.write_csv.s": ("cli.write_csv", "s", "s"),
    "cli.write_svg.s": ("cli.write_svg", "s", "s"),
    "cli.run_scenario.self_s": ("cli.run_scenario", "self_s", "s"),
}
COUNT_UNITS = {
    "dynamics.cutoff_a": "count", "dynamics.cutoff_b": "count",
    "dynamics.blocks_full": "count", "dynamics.blocks_one": "count",
    "samples": "count", "block_samples": "count",
    "dynamics.evaluate.exp_count": "count",
    "dynamics.evaluate.bytes_computed": "bytes",
    "dynamics.working_set_bytes": "bytes",
    "cli.csv_bytes": "bytes", "cli.svg_bytes": "bytes",
}


def import_program(root: Path) -> dict:
    """lambdaphase's modules, imported from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    if not (src / "lambdaphase" / "cli.py").is_file():
        raise FileNotFoundError(f"no lambdaphase sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"lambdaphase.{name}")
               for name in ("cli", "dynamics", "relphase", "oracle")}
    for module in modules.values():
        if src not in Path(module.__file__).resolve().parents:
            raise ImportError(f"{module.__name__} was imported from "
                              f"{module.__file__}, not from {src}")
    return modules


class Gate:
    """Checks one run's output files; the reason for a miss, or None."""

    def __init__(self, expected: dict[int, np.ndarray], n_rows: int):
        self.expected = expected
        self.n_rows = n_rows
        self.digest = None
        self.sizes = None
        self.worst = 0.0

    def check(self, csv_path: Path, svg_path: Path) -> str | None:
        csv, svg = csv_path.read_bytes(), svg_path.read_bytes()
        lines = csv.decode("utf-8").split("\n")
        if lines[0] != ",".join(reference.COLUMNS):
            return "CSV header differs from the column contract"
        if len(lines) != self.n_rows + 2 or lines[-1]:
            return f"CSV has {len(lines) - 2} rows, expected {self.n_rows}"
        for k, want in self.expected.items():
            got = np.array([float(x) for x in lines[k + 1].split(",")])
            if got.shape != want.shape:
                return f"row {k} has {got.size} columns, expected {want.size}"
            err = np.abs(got - want)
            self.worst = max(self.worst, float(np.max(err)))
            if not np.all(err <= TOLERANCE):
                col = int(np.argmax(np.where(np.isnan(err), np.inf, err)))
                return (f"row {k} column {reference.COLUMNS[col]} is {got[col]!r}, "
                        f"reference {want[col]!r}")
        if not svg.startswith(b"<svg"):
            return "SVG file does not start with <svg"
        digest = hashlib.sha256(csv + b"\0" + svg).hexdigest()
        if self.digest is None:
            self.digest, self.sizes = digest, (len(csv), len(svg))
        elif digest != self.digest:
            return "output bytes differ from the first run's"
        return None


@dataclass
class Record:
    """Attempts made in one benchmark run, with the time each took."""

    times: dict[str, list[float]] = field(default_factory=dict)
    calibration: dict[str, list[float]] = field(default_factory=dict)
    rss_kb: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def attempt(record: Record, kind: str, run, gate: Gate | None = None,
            csv_path: Path | None = None, svg_path: Path | None = None) -> None:
    """Time one call of ``run(csv_path, svg_path)`` and check its output.

    ``run`` may return the seconds it measured itself, which then replace
    the time taken around the call.

    Any exception from the program, a non-zero child exit or a gate miss
    counts as a failed run; the benchmark itself keeps going.
    """
    for path in (csv_path, svg_path):
        if path is not None:
            path.unlink(missing_ok=True)
    record.attempted += 1
    start = time.perf_counter()
    try:
        measured = run(csv_path, svg_path)
        elapsed = time.perf_counter() - start if measured is None else measured
        reason = gate.check(csv_path, svg_path) if gate is not None else None
    except Exception as exc:  # a failing program is a result, not a crash
        elapsed = time.perf_counter() - start
        reason = f"{type(exc).__name__}: {exc}"
    record.times.setdefault(kind, []).append(elapsed)
    if reason is not None:
        record.failures.append(f"{kind}: {reason}")


def calibration_kernel() -> float:
    """Seconds taken by a fixed mix of the work lambdaphase does.

    Batched 3x3 ``eigh``, complex ``exp`` and projections through the
    reference, a Python loop over small arrays, 32 MB of freshly faulted
    memory and float formatting.  It belongs to the benchmark, so a change
    to the program cannot change it; its time next to each measured run
    tracks how fast the shared machine is running at that moment.
    """
    start = time.perf_counter()
    blocks = reference.Blocks(1.0, 0.8, 50.0, 50.0, (0.6, 0.8j, 0.0), 0.2, -0.1)
    for k in range(6):
        reference.columns(blocks.amplitudes(0.05 * k))
    total = 0.0
    for i in range(6000):
        vec = np.zeros(3, dtype=complex)
        vec[i % 3] = math.sqrt(i)
        total += float(np.sum(np.abs(vec) ** 2))
    total += float(np.ones(2_000_000, dtype=complex)[::4096].sum().real)
    rows = np.linspace(0.0, 1.0, 600 * 14).reshape(600, 14)
    "\n".join(",".join(f"{x:.17g}" for x in row) for row in rows)
    return time.perf_counter() - start


def calibrate(budget_s: float) -> float:
    """Median kernel time over repeats that fill about ``budget_s``, at least one."""
    times = [calibration_kernel()]
    while sum(times) < budget_s:
        times.append(calibration_kernel())
    return statistics.median(times)


def run_child(argv: list[str], env: dict, log_path: Path) -> dict:
    """Run a child through spawn.py; its wall time, peak RSS and exit code."""
    with open(log_path, "wb") as log:
        done = subprocess.run([sys.executable, "-S", str(HERE / "spawn.py"),
                               str(CHILD_TIMEOUT_S), *argv], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=log, check=True,
                              timeout=CHILD_TIMEOUT_S + 30)
    result = json.loads(done.stdout)
    if result["exit_code"] != 0:
        tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
        raise RuntimeError(f"exit code {result['exit_code']}: {' '.join(tail)}")
    return result


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "LAMBDAPHASE_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def structural_counts(program: dict, name: str, seed: int) -> dict[str, int]:
    """Exact work counts of a workload, from its config alone.

    Cutoffs come from the program's public ``truncation_cutoff``; blocks
    are enumerated by the reference.  Per sample, evaluation takes one
    complex exp per eigenvalue of a full block and one per 1-member block,
    and touches eigenvalues (8 B), eigenvectors (9 x 16 B), initial
    coefficients, phases and amplitudes (3 x 16 B each) per full block and
    an energy (8 B) plus two amplitudes (16 B each) per 1-member block.
    """
    config = workloads.scenario(name, seed)
    phys = workloads.physics(config)
    dynamics = program["dynamics"]
    cutoff_a = dynamics.truncation_cutoff(phys["nbar_a"], phys["epsilon"])
    cutoff_b = dynamics.truncation_cutoff(phys["nbar_b"], phys["epsilon"])
    blocks = reference.Blocks(**phys, cutoff_a=cutoff_a, cutoff_b=cutoff_b)
    full, one, samples = blocks.blocks_full, blocks.blocks_one, config["tau_steps"]
    return {
        "dynamics.cutoff_a": cutoff_a, "dynamics.cutoff_b": cutoff_b,
        "dynamics.blocks_full": full, "dynamics.blocks_one": one,
        "samples": samples, "block_samples": (full + one) * samples,
        "dynamics.evaluate.exp_count": (3 * full + one) * samples,
        "dynamics.evaluate.bytes_computed": (312 * full + 40 * one) * samples,
        "dynamics.working_set_bytes": 216 * full + 24 * one,
    }


def oracle_error(program: dict, config, blocks: reference.Blocks, times) -> float:
    """Largest amplitude difference between the reference and the dense oracle.

    The dense space keeps one Fock level more per mode than the initial
    state, so every populated block fits in it and nothing leaks out.
    """
    oracle = program["oracle"]
    full = oracle.build_full_hamiltonian(config.system_params(), blocks.cutoff_a + 1,
                                         blocks.cutoff_b + 1)
    index = [(b, level, full.state_index(level + 1, *blocks.photons[b, level]))
             for b in range(len(blocks.k_a)) for level in range(3)
             if blocks.present[b, level]]

    def embed(amp):
        vec = np.zeros(full.dim, dtype=complex)
        for b, level, k in index:
            vec[k] = amp[b, level]
        return vec

    psi0 = embed(blocks.amp0)
    return max(float(np.max(np.abs(oracle.full_evolve(full, psi0, t)
                                   - embed(blocks.amplitudes(t))))) for t in times)


def measure_window(seconds: float, steps) -> None:
    """Repeat rounds of ``steps`` until about ``seconds`` have passed.

    A round is not started when it would likely end more than half a
    round after the deadline; at least MIN_ROUNDS rounds always run.
    """
    start = time.perf_counter()
    rounds = []
    while True:
        begin = time.perf_counter()
        for step in steps:
            step()
        rounds.append(time.perf_counter() - begin)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS and elapsed + 0.5 * statistics.median(rounds) > seconds:
            return


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[max(math.ceil(p * n / 100), 1) - 1]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def machine_info() -> dict:
    """The machine, Python, numpy and BLAS, and the thread environment."""
    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "threads_env": {k: os.environ.get(k) for k in THREAD_VARS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def hardware_info() -> dict:
    """CPU model and cache sizes, read from the Linux proc and sys trees."""
    info = {"cpu": platform.processor() or platform.machine(), "caches": {}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for cache in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (cache / "level").read_text().strip()
            kind = (cache / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (cache / "size").read_text().strip()
    except OSError:
        pass
    return info


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


class Bench:
    """One benchmark run of one workload and seed, with its files in ``workdir``."""

    def __init__(self, program: dict, name: str, seed: int, workdir: Path):
        self.program, self.name, self.seed = program, name, seed
        self.cli = program["cli"]
        self.problems: list[str] = []
        self.record = Record()
        self.config_path = workdir / "config.json"
        self.csv, self.svg = workdir / "out.csv", workdir / "out.svg"
        self.workdir = workdir
        self.env = child_env()

        document = workloads.scenario(name, seed)
        self.config_path.write_text(json.dumps(document, indent=1))
        self.config = self.cli.load_config(self.config_path)

        self.counts = structural_counts(program, name, seed)
        expected = workloads.EXPECTED_COUNTS[name]
        if {key: self.counts[key] for key in expected} != expected:
            self.problems.append(f"work counts differ from the recorded {expected}")

        phys = workloads.physics(document)
        blocks = reference.Blocks(**phys)
        taus = np.linspace(0.0, self.config.tau_max, self.config.tau_steps)
        scale = reference.time_scale(phys["g_a"], phys["nbar_a"])
        rows = workloads.check_rows(name, seed, self.config.tau_steps)
        self.gate = Gate({k: reference.row(blocks, taus[k], scale) for k in rows},
                         self.config.tau_steps)
        self.oracle_worst = None
        if name == "weak_long":
            self.oracle_worst = oracle_error(program, self.config, blocks, taus[rows] * scale)
            if not self.oracle_worst <= TOLERANCE:
                self.problems.append("reference and dense oracle differ by "
                                     f"{self.oracle_worst:.3g}")

        # Load numpy's lazy parts and write bytecode before anything is timed.
        warmup = self.cli.config_from_dict({"g_a": 1.0, "g_b": 1.0, "nbar_a": 1.0,
                                            "nbar_b": 1.0, "c": [1.0, 0.0, 0.0],
                                            "tau_steps": 11})
        self.cli.run_scenario(warmup, self.csv, self.svg)
        self.setup(None, None)

        self.summaries: list[dict] = []
        self.absent: set[str] = set()

    def step(self, kind: str, run) -> None:
        """One checked attempt, then a calibration that brackets it with the last."""
        attempt(self.record, kind, run, self.gate, self.csv, self.svg)
        now = calibrate(CALIBRATION_SHARE * self.record.times[kind][-1])
        self.record.calibration.setdefault(kind, []).append((self.last_calibration + now) / 2)
        self.last_calibration = now

    def calibrated(self, kind: str) -> list[float]:
        """Run times of one kind, each scaled to the reference machine speed."""
        return [t * CALIBRATION_REF_S / c for t, c in
                zip(self.record.times.get(kind, []), self.record.calibration.get(kind, []))]

    def in_process(self, csv, svg):
        self.cli.run_scenario(self.config, csv, svg)

    def traced(self, csv, svg):
        tracer = tracing.Tracer()
        with tracing.patched(tracer, self.program) as absent:
            self.cli.run_scenario(self.config, csv, svg)
        self.absent.update(absent)
        self.summaries.append(tracer.summary())

    def process(self, csv, svg):
        child = run_child([sys.executable, "-m", "lambdaphase.cli", "simulate",
                           "--config", str(self.config_path), "--out", str(csv),
                           "--svg", str(svg)], self.env, self.workdir / "child.log")
        self.record.rss_kb.append(child["maxrss_kb"])
        return child["wall_s"]

    def setup(self, csv, svg):
        return run_child([sys.executable, "-c", SETUP_CODE, str(self.config_path)],
                         self.env, self.workdir / "setup.log")["wall_s"]

    def measure(self, seconds: float, trace: bool) -> None:
        calibration_kernel()  # the first call pays one-off costs
        self.last_calibration = calibrate(BATCH_CALIBRATION_S)
        if not trace:
            # The setup runs are short, so one calibration on each side of
            # the whole batch scales them all.
            for _ in range(SETUP_REPEATS):
                attempt(self.record, "setup", self.setup)
            now = calibrate(BATCH_CALIBRATION_S)
            self.record.calibration["setup"] = [(self.last_calibration + now) / 2] * SETUP_REPEATS
            self.last_calibration = now
        kinds = ("run", "traced") if trace else ("run", "process")
        runs = {"run": self.in_process, "traced": self.traced, "process": self.process}
        measure_window(seconds, [lambda kind=kind: self.step(kind, runs[kind]) for kind in kinds])

    def finish_counts(self) -> dict[str, int]:
        counts = dict(self.counts)
        counts["cli.csv_bytes"], counts["cli.svg_bytes"] = self.gate.sizes or (0, 0)
        return counts

    def describe(self) -> None:
        c = self.counts
        print(f"workload {self.name} seed {self.seed}: cutoffs "
              f"{c['dynamics.cutoff_a']}/{c['dynamics.cutoff_b']}, blocks "
              f"{c['dynamics.blocks_full']} full + {c['dynamics.blocks_one']} one-member, "
              f"{c['samples']} samples, working set {c['dynamics.working_set_bytes'] / 1e6:.2f} MB")
        print("machine: " + json.dumps(machine_info()))
        worst = f"worst CSV error vs reference {self.gate.worst:.3g} (limit {TOLERANCE:g})"
        if self.oracle_worst is not None:
            worst += f"; reference vs dense oracle {self.oracle_worst:.3g}"
        print(worst)
        for problem in self.problems + self.record.failures:
            print(f"FAILED {problem}")

    def end_to_end(self) -> dict:
        record = self.record
        samples = {kind: self.calibrated(kind) for kind in ("run", "process", "setup")}
        run_s = median_or_zero(samples["run"])
        values = {
            "run_s": (run_s, "s"),
            "process_s": (median_or_zero(samples["process"]), "s"),
            "setup_s": (median_or_zero(samples["setup"]), "s"),
            "peak_rss_mb": (median_or_zero(record.rss_kb) * 1024 / 1e6, "MB"),
            "block_samples_per_s": (self.counts["block_samples"] / run_s if run_s else 0.0,
                                    "1/s"),
            "success_frac": (1.0 - record.fail_frac, "fraction"),
        }
        print(f"{'metric':<20}{'median':>13}  {'unit':<9}{'raw median':>11}{'n':>4}  tail")
        for key, (value, unit) in values.items():
            line = f"{key:<20}{value:>13.6g}  {unit:<9}"
            kind = key.removesuffix("_s")
            if kind in samples:
                tail = tail_percentile(samples[kind])
                line += (f"{median_or_zero(record.times.get(kind, [])):>11.4f}"
                         f"{len(samples[kind]):>4}  "
                         + (f"p{tail[0]} {tail[1]:.4f}" if tail else "none (needs 11+ samples)"))
            print(line)
        print(f"{'fail_frac':<20}{record.fail_frac:>13.6g}  fraction  "
              f"{record.failed}/{record.attempted} runs failed")
        return {key: metric(value, unit) for key, (value, unit) in values.items()}

    def per_layer(self) -> dict:
        run_s = median_or_zero(self.record.times.get("run", []))
        traced_s = median_or_zero(self.record.times.get("traced", []))
        values = {}
        for key, (span, part, unit) in LAYER_METRICS.items():
            values[key] = (median_or_zero([s.get(span, {}).get(part, 0.0)
                                           for s in self.summaries]), unit)
        shares = [1.0 - s["cli.run_scenario"]["self_s"] / s["cli.run_scenario"]["s"]
                  for s in self.summaries if "cli.run_scenario" in s]
        values["attributed_share"] = (median_or_zero(shares), "fraction")
        values["traced_run_s"] = (traced_s, "s")
        values["tracing_overhead_s"] = (traced_s - run_s, "s")
        for key, value in self.finish_counts().items():
            values[key] = (value, COUNT_UNITS[key])

        print(f"traced run_scenario {traced_s:.4f} s, untraced {run_s:.4f} s "
              f"({len(self.summaries)} traced runs, medians)")
        print(f"{'layer':<28}{'total_s':>10}{'self_s':>10}{'self share':>12}{'calls':>8}")
        for span in tracing.LAYERS:
            if span in self.absent:
                print(f"{span:<28}{'absent':>10}")
                continue
            total = median_or_zero([s.get(span, {}).get("s", 0.0) for s in self.summaries])
            own = median_or_zero([s.get(span, {}).get("self_s", 0.0) for s in self.summaries])
            calls = median_or_zero([s.get(span, {}).get("calls", 0) for s in self.summaries])
            share = own / traced_s if traced_s else 0.0
            print(f"{span:<28}{total:>10.4f}{own:>10.4f}{share:>11.1%}{calls:>8.0f}")
        for key, (value, unit) in values.items():
            if unit in ("count", "bytes"):
                print(f"computed {key} = {value} {unit}")
        return {key: metric(value, unit) for key, (value, unit) in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--machine", action="store_true",
                        help="print the machine and library settings and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.machine:
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.machine:
        print(json.dumps({**hardware_info(), **machine_info()}, indent=1))
        return 0
    os.environ.pop("LAMBDAPHASE_THREADS", None)
    # One CPU for this process and every child, so that the calibration
    # kernel and the run it scales execute on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        program = import_program(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        bench = Bench(program, args.workload, args.seed, workdir)
        bench.measure(args.seconds, bool(args.trace))
        bench.describe()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = {"correct": not bench.problems and bench.record.failed == 0,
              "attempted": bench.record.attempted, "failed": bench.record.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
