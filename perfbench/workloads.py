"""The four workloads and their correctness gate, run inside a worker.

Each workload has ``run(spec, workdir)``, timed up to its full result, and
``check(spec, result, recorder)``, which runs after the clock stops and
returns the ops with the reasons each one failed, plus the energies it read.
The per-solve part of the gate (``solve_gate``, ``branch_gate``) runs inside
the op recorder as each call returns, so no result is kept alive for it.

An op is one constrained solve, or on ``cli_2well`` one CLI command. An op
fails when it raises a typed error, does not converge, leaves
``|J| > 1e-10 * ||u||^2_eps``, lets its energy history rise by more than
``1e-12 * (1 + |E|)``, produces a branch that is not interior (or, per
experiment, branches that are not distinct), exits nonzero, or when
``report`` does not regenerate ``summary.csv`` byte for byte. On seed 0 an
energy more than 1e-9 (relative) off its stored reference fails the op that
produced it.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

import specs

NEHARI_RTOL = 1e-10
MONOTONE_TOL = 1e-12

# fracstates modules each workload uses; the worker imports them before
# installing any wrapper so that the tracer sees every layer in play
IMPORTS = {
    "sweep_1d": ("fracstates", "fracstates.config"),
    "cli_2well": ("fracstates", "fracstates.cli"),
    "limit_3d": ("fracstates",),
    "custom_1d": ("fracstates", "fracstates.config"),
}


class Op:
    def __init__(self, name, energy=None, reasons=()):
        self.name = name
        self.energy = energy
        self.reasons = list(reasons)


def _solve_ops(recorder):
    return [Op(f"solve{i}", r.energy, r.reasons) for i, r in enumerate(recorder.solves)]


def solve_gate(res):
    """Reasons one constrained-solve result fails the gate."""
    reasons = []
    if not res.converged:
        reasons.append(f"not converged (residual {res.residual:.3g})")
    rep = res.report
    if not abs(rep.nehari_residual) <= NEHARI_RTOL * rep.norm_eps_sq:
        reasons.append(f"|J| = {abs(rep.nehari_residual):.3g} above {NEHARI_RTOL:g} ||u||^2_eps")
    e = np.asarray(res.energy_history, dtype=float)
    rises = np.diff(e) > MONOTONE_TOL * (1.0 + np.abs(e[:-1]))
    if np.any(rises):
        reasons.append(f"energy history rises at step {int(np.argmax(rises)) + 1}")
    return reasons


def branch_gate(experiment):
    """Reasons per branch of one branch experiment: a label other than
    interior, and branches that are not distinct."""
    out = []
    for b in experiment.branches:
        reasons = [] if b.label.kind == "interior" else [f"branch {b.j} label {b.label.kind}"]
        if not experiment.distinct:
            reasons.append("branches not distinct")
        out.append(reasons)
    return out


def _reference_reasons(spec, energies):
    """(key, reason) for every seed-0 energy off its reference."""
    out = []
    for key, ref in spec.get("references", {}).items():
        got = energies.get(key)
        if got is None or not abs(got - ref) <= specs.REFERENCE_RTOL * abs(ref):
            out.append((key, f"{key} = {got!r} off reference {ref!r}"))
    return out


def _mark_by_energy(ops, spec, energies):
    for key, reason in _reference_reasons(spec, energies):
        owner = next((op for op in ops if op.energy == energies.get(key)), ops[-1])
        owner.reasons.append(reason)


def _eps_key(prefix, eps):
    return f"{prefix}@{eps:g}"


# --------------------------------------------------------------------------
# fracstates objects from a spec
# --------------------------------------------------------------------------


def _potential(cfg):
    from fracstates.models import PotentialSpec, Well

    wells = tuple(Well(tuple(w["center"]), w["depth"], w["width"]) for w in cfg["potential"]["wells"])
    return PotentialSpec(cfg["potential"]["v_inf_level"], wells)


def _experiment_config(cfg, nonlinearity=None):
    """ExperimentConfig built from its blocks, the way library users do,
    without the YAML parser."""
    from fracstates.config import BoxesBlock, ExperimentConfig, LimitBlock, ProblemBlock, SweepBlock
    from fracstates.models import NonlinearitySpec

    pb, sw = cfg["problem"], cfg["sweep"]
    return ExperimentConfig(
        problem=ProblemBlock(d=pb["d"], alpha=pb["alpha"], R0=pb["R0"], R_cap=pb["R_cap"], h0=pb["h0"]),
        potential=_potential(cfg),
        nonlinearity=nonlinearity or NonlinearitySpec.saturable(cfg["nonlinearity"]["s"]),
        boxes=BoxesBlock(cfg["boxes"]["l"], cfg["boxes"]["L"], None),
        sweep=SweepBlock(epsilons=tuple(sw["epsilons"]), max_iter=sw["max_iter"],
                         tol_residual=sw["tol_residual"]),
        limit=LimitBlock(a_values=(), R=cfg["limit"]["R"], n=cfg["limit"]["n"]),
    )


def custom_saturable(s):
    """The saturable law f(t) = t^3/(1+s t^2) as a custom (f, f', F) triple."""
    from fracstates.models import NonlinearitySpec

    def f(t):
        t2 = t * t
        return t * t2 / (1.0 + s * t2)

    def fprime(t):
        t2 = t * t
        den = 1.0 + s * t2
        return t2 * (3.0 + s * t2) / (den * den)

    def big_f(t):
        t2 = t * t
        return t2 / (2.0 * s) - np.log(1.0 + s * t2) / (2.0 * s * s)

    return NonlinearitySpec.custom(f, fprime, big_f, l0=1.0 / s, q=2.5, C0=9.0 / (8.0 * s))


# --------------------------------------------------------------------------
# sweep_1d: solver.sweep_epsilon on the single-well fixture
# --------------------------------------------------------------------------


def run_sweep_1d(spec, workdir):
    from fracstates.solver import sweep_epsilon

    return sweep_epsilon(_experiment_config(spec["config"]))


def check_sweep_1d(spec, records, recorder):
    ops = _solve_ops(recorder)
    energies = {"c_v0": records[0].c_v0}
    energies.update({_eps_key("c_eps", r.eps): r.c_eps for r in records})
    _mark_by_energy(ops, spec, energies)
    return ops, energies, {}


# --------------------------------------------------------------------------
# cli_2well: `fracstates sweep` then `fracstates report` in a fresh directory
# --------------------------------------------------------------------------


def _cli(args):
    """Run the fracstates console command in-process; returns its exit code."""
    from fracstates.cli import main

    try:
        with redirect_stdout(io.StringIO()):
            main.main(args=args, prog_name="fracstates", standalone_mode=True)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def run_cli_2well(spec, workdir):
    workdir = Path(workdir)
    config = workdir / "config.yaml"
    # JSON is YAML: the CLI reads this file through its own parser
    config.write_text(json.dumps(spec["config"], indent=1) + "\n")
    out = workdir / "out"
    sweep_code = _cli(["sweep", "--config", str(config), "--out", str(out)])
    summary = out / "summary.csv"
    swept = summary.read_bytes() if summary.exists() else None
    report_code = _cli(["report", "--config", str(config), "--out", str(out)])
    return {"out": out, "sweep": sweep_code, "report": report_code, "swept_csv": swept}


def check_cli_2well(spec, result, recorder):
    out = result["out"]
    sweep, report = Op("cli.sweep"), Op("cli.report")
    if result["sweep"] != 0:
        sweep.reasons.append(f"sweep exited {result['sweep']}")
    for op in _solve_ops(recorder):
        sweep.reasons += [f"{op.name}: {r}" for r in op.reasons]
    energies = {}
    records = out / "records.json"
    if records.exists():
        stored = json.loads(records.read_text())
        energies = {_eps_key("c_eps", r["eps"]): r["c_eps"] for r in stored["records"]}
    for _, reason in _reference_reasons(spec, energies):
        sweep.reasons.append(reason)
    if result["report"] != 0:
        report.reasons.append(f"report exited {result['report']}")
    summary = out / "summary.csv"
    regenerated = summary.read_bytes() if summary.exists() else None
    if result["swept_csv"] is None or regenerated != result["swept_csv"]:
        report.reasons.append("report did not regenerate summary.csv byte for byte")
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.exists() else 0
    extra = {
        "bytes_written": written,
        "summary_sha256": hashlib.sha256(regenerated or b"").hexdigest(),
    }
    return [sweep, report], energies, extra


# --------------------------------------------------------------------------
# limit_3d: solver.solve_limit on a 48^3 grid
# --------------------------------------------------------------------------


def run_limit_3d(spec, workdir):
    from fracstates.grid import make_grid
    from fracstates.models import NonlinearitySpec
    from fracstates.solver import SolveOptions, solve_limit

    grid = make_grid(spec["d"], spec["R"], spec["n"])
    opts = SolveOptions(max_iter=spec["max_iter"], tol_residual=spec["tol_residual"])
    return solve_limit(spec["a"], NonlinearitySpec.saturable(spec["s"]), grid, spec["alpha"],
                       opts, seed_widths=(spec["seed_width"],))


def check_limit_3d(spec, res, recorder):
    ops = _solve_ops(recorder)
    energies = {"energy": res.energy}
    _mark_by_energy(ops, spec, energies)
    return ops, energies, {}


# --------------------------------------------------------------------------
# custom_1d: limit solve + one single-well branch with a custom triple
# --------------------------------------------------------------------------


def run_custom_1d(spec, workdir):
    from fracstates.grid import make_grid
    from fracstates.localization import build_boxes, solve_branches
    from fracstates.models import sample_potential
    from fracstates.solver import grid_for_epsilon, solve_limit
    from fracstates.variational import Problem

    cfg = spec["config"]
    config = _experiment_config(cfg, custom_saturable(cfg["nonlinearity"]["s"]))
    pb, opts = config.problem, config.solve_options()
    potential = config.potential
    limit_grid = make_grid(pb.d, config.limit.R, config.limit.n)
    w_limit = solve_limit(potential.v0_proxy, config.nonlinearity, limit_grid, pb.alpha, opts)
    (eps,) = config.sweep.epsilons
    grid = grid_for_epsilon(pb.d, eps, pb.R0, pb.R_cap, pb.h0, config.sweep.point_budget)
    problem = Problem(grid=grid, alpha=pb.alpha, eps=eps,
                      potential_field=sample_potential(potential, grid, eps),
                      nonlinearity=config.nonlinearity)
    boxes = build_boxes(potential, config.boxes.l, config.boxes.L)
    return w_limit, solve_branches(problem, boxes, w_limit.u, opts)


def check_custom_1d(spec, result, recorder):
    w_limit, experiment = result
    ops = _solve_ops(recorder)
    (eps,) = spec["config"]["sweep"]["epsilons"]
    energies = {"c_v0": w_limit.energy,
                _eps_key("branch_energy", eps): experiment.branches[0].alpha_energy}
    _mark_by_energy(ops, spec, energies)
    return ops, energies, {}


RUN = {
    "sweep_1d": (run_sweep_1d, check_sweep_1d),
    "cli_2well": (run_cli_2well, check_cli_2well),
    "limit_3d": (run_limit_3d, check_limit_3d),
    "custom_1d": (run_custom_1d, check_custom_1d),
}


def check_raised(recorder, error):
    """Ops of a workload that stopped on a typed error: the solves recorded
    so far, plus the error itself when no solve raised it."""
    ops = _solve_ops(recorder)
    if not any(r.energy is None for r in recorder.solves):
        ops.append(Op("workload", reasons=[f"raised {error}"]))
    return ops


def all_solve_energies(recorder):
    """Every constrained-solve energy in call order (None for a typed error)."""
    return [r.energy for r in recorder.solves]
