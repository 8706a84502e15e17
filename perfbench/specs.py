"""Workload inputs generated from a seed, and the seed-0 reference energies.

Pure Python on purpose: the benchmark's parent process imports this module
and must stay light. The worker process turns a spec into fracstates objects
(or, for the CLI workload, into a config file), so the program only ever sees
the generated inputs.

Seed 0 is the canonical fixture of each workload. Any other seed places each
well center a random 0.25 to 0.5 cell to either side of the grid point
nearest its canonical center (cells of the finest grid the workload uses),
and scales all well depths by one common factor within +-2%. A center thus
moves by less than one cell and never sits on the grid: how far the minimum
sits from the grid sets how long the slow translational mode takes to
converge, so an on-grid draw would make one seed several times cheaper than
the rest. One common depth factor keeps every well a global minimum, which
the CLI's (V2) validator demands. These inputs pass every correctness gate
except the stored reference energies, which exist for seed 0 only.
"""

import random

WORKLOADS = ("sweep_1d", "cli_2well", "limit_3d", "custom_1d")

OFFSET_CELLS = (0.25, 0.5)
DEPTH_JITTER = 0.02

ALPHA = 0.5
SATURATION = 0.4
MAX_ITER = 20000
TOL_RESIDUAL = 1e-8

# Seed-0 energies measured at full precision on the parent commit (numpy
# kernel backend, one BLAS thread). They agree with the rounded references
# 3.30191890, 3.04046141, 2.95210471 / 2.91382435 (sweep), 4.0252845,
# 3.3075158, 3.0419420 (two wells), 90.3269335 (3-D) and 3.04046141 (custom).
REFERENCES = {
    "sweep_1d": {
        "c_v0": 2.9138243459232385,
        "c_eps@0.5": 3.3019188999072924,
        "c_eps@0.25": 3.040461409396701,
        "c_eps@0.125": 2.9521047117719235,
    },
    "cli_2well": {
        "c_eps@0.5": 4.025284516994176,
        "c_eps@0.25": 3.3075157813398883,
        "c_eps@0.125": 3.041942000489877,
    },
    "limit_3d": {"energy": 90.32693348094472},
    "custom_1d": {
        "c_v0": 2.9138243459232385,
        "branch_energy@0.25": 3.040461409396701,
    },
}
REFERENCE_RTOL = 1e-9


def _depth_factor(rng, seed):
    return 1.0 if seed == 0 else 1.0 + rng.uniform(-DEPTH_JITTER, DEPTH_JITTER)


def _center(rng, seed, center, cell):
    if seed == 0:
        return center
    offset = rng.uniform(*OFFSET_CELLS) * rng.choice((-1.0, 1.0))
    return (round(center / cell) + offset) * cell


def _potential(rng, seed, wells, cell):
    factor = _depth_factor(rng, seed)
    return {
        "v_inf_level": 2.0,
        "wells": [{"center": [_center(rng, seed, c, cell)], "depth": depth * factor, "width": width}
                  for c, depth, width in wells],
    }


def _problem_1d(epsilons):
    return {
        "problem": {"d": 1, "alpha": ALPHA, "R0": 16.0, "R_cap": 400.0, "h0": 0.25},
        "nonlinearity": {"kind": "saturable", "s": SATURATION},
        "boxes": {"l": 1.0, "L": 4.0},
        "sweep": {"epsilons": list(epsilons), "max_iter": MAX_ITER, "tol_residual": TOL_RESIDUAL},
        "limit": {"R": 80.0, "n": 640},
    }


def make_spec(workload, seed):
    """JSON-ready inputs of one workload for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    seed = int(seed)
    rng = random.Random(seed)
    spec = {"workload": workload, "seed": seed}
    if workload == "limit_3d":
        # the limit level a = V0 = v_inf - depth plays the role of the well depth
        spec.update(
            d=3, R=12.0, n=48, alpha=ALPHA, s=SATURATION, a=2.0 - _depth_factor(rng, seed),
            seed_width=1.5, max_iter=MAX_ITER, tol_residual=TOL_RESIDUAL,
        )
    else:
        epsilons = (0.25,) if workload == "custom_1d" else (0.5, 0.25, 0.125)
        wells = [(-2.0, 1.0, 0.5), (2.0, 1.0, 0.5)] if workload == "cli_2well" else [(1.0 / 3.0, 1.0, 2.0)]
        config = _problem_1d(epsilons)
        # the rescaled spacing h0 is a cell of eps*h0 in the original variables
        cell = config["problem"]["h0"] * min(epsilons)
        config["potential"] = _potential(rng, seed, wells, cell)
        spec["config"] = config
    if seed == 0:
        spec["references"] = dict(REFERENCES[workload])
    return spec
