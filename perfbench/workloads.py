"""The benchmark's workloads: one lambdaphase scenario config per seed.

Every workload fixes the quantities that set the amount of work (mean
photon numbers, epsilon, grid length), so the Poisson cutoffs, block
counts and sample count are the same for every seed and timings stay
comparable.  The seed draws only values that leave them unchanged:

- ``weak_long``: fig2 physics (g 1/1, nbar 1/1, atom in level 1, zero
  detuning) over 10001 samples; the seed draws tau_max in [38, 42].
  169 blocks, so per-sample fixed costs dominate: the ``time_series``
  loop and CSV/SVG writing.  Block setup is well under 1% of the run, so
  a faster assembly or ``eigh`` must show no change here.
- ``detuned_grid``: g 1/0.8, nbar 50/50, 1001 samples; the seed draws a
  complex c with every |c_i| >= 0.3 and detunings 0.1 <= |delta| <= 0.5.
  About 10.4k blocks (working set about 2 MB), so the blocks x samples
  evaluation and the reduction dominate.  Nonzero detuning removes the
  closed-form {-s, 0, +s} spectrum, so a zero-detuning shortcut is
  bypassed here and must show no gain.  fig3b and fig4 have the same
  block count; fig3b with 10001 samples (about 20 s) is too long to
  repeat for every run.
- ``scale_setup``: nbar 100/100 (cutoffs 170/170, about 29k blocks,
  working set about 6.3 MB), atom in level 1, zero detuning, 101 samples;
  the seed draws tau_max in [1.9, 2.1].  Per-block Python setup
  dominates and the working set is the largest, so peak RSS moves here
  and work moved from evaluation into setup shows as a cost.  The
  roadmap's nbar 200/200 case (88k blocks, about 5 s a run) leaves room
  for only three runs of each kind in a benchmark run, too few for a
  steady median on a shared machine.
"""

import cmath
import math
import random

WORKLOADS = ("weak_long", "detuned_grid", "scale_setup")

# Output rows checked against the reference per workload and seed.
CHECK_ROWS = 5

# Work counts every run and seed of a workload must reproduce exactly.
EXPECTED_COUNTS = {
    "weak_long": {"dynamics.cutoff_a": 12, "dynamics.cutoff_b": 12,
                  "dynamics.blocks_full": 156, "dynamics.blocks_one": 13,
                  "samples": 10001},
    "detuned_grid": {"dynamics.cutoff_a": 101, "dynamics.cutoff_b": 101,
                     "dynamics.blocks_full": 10404, "dynamics.blocks_one": 204,
                     "samples": 1001},
    "scale_setup": {"dynamics.cutoff_a": 170, "dynamics.cutoff_b": 170,
                    "dynamics.blocks_full": 29070, "dynamics.blocks_one": 171,
                    "samples": 101},
}


def _detuned_amplitudes(rng: random.Random) -> list[complex]:
    while True:
        c = [rng.uniform(0.3, 1.0) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
             for _ in range(3)]
        norm = math.sqrt(sum(abs(x) ** 2 for x in c))
        c = [x / norm for x in c]
        if min(abs(x) for x in c) >= 0.3:
            return c


def _detuning(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.5)


def scenario(name: str, seed: int) -> dict:
    """The scenario config of one workload, as a ``simulate --config`` document."""
    rng = random.Random(f"{name}:{seed}")
    if name == "weak_long":
        config = dict(g_a=1.0, g_b=1.0, nbar_a=1.0, nbar_b=1.0, c=[1.0, 0.0, 0.0],
                      tau_max=rng.uniform(38.0, 42.0), tau_steps=10001,
                      transitions=["13", "23"])
    elif name == "detuned_grid":
        c = _detuned_amplitudes(rng)
        config = dict(g_a=1.0, g_b=0.8, nbar_a=50.0, nbar_b=50.0,
                      c=[[x.real, x.imag] for x in c],
                      delta_a=_detuning(rng), delta_b=_detuning(rng),
                      tau_max=2.0, tau_steps=1001, transitions=["13", "23", "12"])
    elif name == "scale_setup":
        config = dict(g_a=1.0, g_b=1.0, nbar_a=100.0, nbar_b=100.0, c=[1.0, 0.0, 0.0],
                      tau_max=rng.uniform(1.9, 2.1), tau_steps=101,
                      transitions=["13", "23"])
    else:
        raise ValueError(f"unknown workload {name!r}, expected one of {WORKLOADS}")
    config["epsilon"] = 1e-10
    return config


def physics(config: dict) -> dict:
    """The physical parameters of a scenario config, with c as complex numbers."""
    c = [complex(*x) if isinstance(x, list) else complex(x) for x in config["c"]]
    return dict(g_a=config["g_a"], g_b=config["g_b"], nbar_a=config["nbar_a"],
                nbar_b=config["nbar_b"], c=c, delta_a=config.get("delta_a", 0.0),
                delta_b=config.get("delta_b", 0.0), epsilon=config["epsilon"])


def check_rows(name: str, seed: int, tau_steps: int) -> list[int]:
    """Seed-chosen output rows compared with the reference."""
    rng = random.Random(f"{name}:{seed}:rows")
    return sorted(rng.sample(range(tau_steps), CHECK_ROWS))
