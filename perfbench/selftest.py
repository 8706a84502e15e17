#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

1. Alias completeness: with every fracstates layer imported and the tracer
   installed, no fracstates module, module-level dict, package class or
   default argument may still reach an unwrapped traced function.
2. Tracing changes no result: an untraced and a traced worker on the same
   seed give identical constrained-solve energies and, on cli_2well,
   identical summary.csv bytes.
3. Counts repeat: two traced runs of cli_2well give identical
   grid.fft_calls, models.kernel_passes, variational.projections and
   solver.iterations.
4. Every layer is seen: on cli_2well each layer's count or time is nonzero;
   on custom_1d the saturable kernels read zero.

Exits 1 and lists the failures if any check fails.
"""

import importlib
import sys

import layers
import run
import tracer as tr

# per-layer metrics that must be nonzero on cli_2well, one or more per layer
CLI_NONZERO = (
    "variational.projections", "variational.energy_calls", "variational.gradient_calls",
    "models.kernel_passes", "kernels.calls", "solver.iterations", "solver.trials",
    "grid.fft_calls", "grid.frac_laplacian_calls", "grid.helmholtz_calls",
    "localization.probe_projections", "localization.seed_s", "localization.classify_s",
    "diagnostics.s", "config.load_s", "cli.validate_s", "cli.io_s", "cli.bytes_written",
)


def check_aliases():
    sys.path.insert(0, str(run.ROOT / "src"))
    for layer in tr.LAYERS:
        importlib.import_module(f"fracstates.{layer}")
    targets = tr.discover(load_fft=True)
    problems = []
    names = {t.name for t in targets}
    for required in ("solver.solve_constrained", "variational.project_to_nehari",
                     "localization.solve_branches", "cli.run_sweep", "config.load_config",
                     "models.NonlinearitySpec.rate_sum", "kernels.nehari_rate_sum",
                     "fft.numpy.rfftn", "fft.numpy.irfftn", "diagnostics.build_sweep_record"):
        if required not in names:
            problems.append(f"tracer does not discover {required}")
    tr.install(targets, tr.Tracer("selftest").wrap)
    problems += [f"unwrapped alias: {a}" for a in tr.unwrapped_aliases(targets)]
    problems += [f"definition not replaced: {t.name}" for t in targets
                 if getattr(t.owner, t.attr) is t.func]
    return problems, len(targets)


def check_runs():
    problems = []
    cli = run.Session("cli_2well", 0, "selftest")
    untraced, traced = cli.spawn("run"), cli.spawn("traced")
    second = cli.spawn("traced")
    custom = run.Session("custom_1d", 0, "selftest")
    c_untraced, c_traced = custom.spawn("run"), custom.spawn("traced")

    for name, a, b in (("cli_2well", untraced, traced), ("custom_1d", c_untraced, c_traced)):
        for r in (a, b):
            if r["failed"]:
                problems.append(f"{name} {r['mode']}: {r['failures']}")
        if a["solve_energies"] != b["solve_energies"] or a["energies"] != b["energies"]:
            problems.append(f"{name}: traced energies differ from untraced ones")
        if not a["solve_energies"]:
            problems.append(f"{name}: no constrained solve recorded")
    if untraced["summary_sha256"] != traced["summary_sha256"]:
        problems.append("cli_2well: summary.csv bytes differ between traced and untraced runs")
    for n in layers.EXACT_COUNTS:
        if traced["layers"][n] != second["layers"][n]:
            problems.append(f"cli_2well: {n} differs between traced runs "
                            f"({traced['layers'][n]} vs {second['layers'][n]})")
    for n in CLI_NONZERO:
        if not traced["layers"][n] > 0:
            problems.append(f"cli_2well: {n} reads {traced['layers'][n]}; the layer went unseen")
    for n in ("kernels.calls", "kernels.s"):
        if c_traced["layers"][n] != 0:
            problems.append(f"custom_1d: {n} reads {c_traced['layers'][n]}, expected 0")
    for r in (traced, second, c_traced):
        if r["late_targets"]:
            problems.append(f"layer functions loaded after install: {r['late_targets']}")
    return problems


def main():
    problems, n_targets = check_aliases()
    print(f"alias check: {n_targets} traced callables, {len(problems)} problem(s)")
    run_problems = check_runs()
    print(f"run checks: {len(run_problems)} problem(s)")
    problems += run_problems
    for p in problems:
        print(f"FAIL {p}")
    if problems:
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
