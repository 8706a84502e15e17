"""Callables the benchmark harness (perfbench/) reaches by module and name.

The harness wraps and times these from outside the package, and its
workloads build their inputs and call the solver through them, so renaming
or moving one, or one of the keywords its workloads pass, breaks the
benchmark without failing any other test.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

# (module, dotted attribute): what perfbench/selftest.py requires the tracer
# to discover, the op-level calls the recorder wraps, the private phases the
# tracer wraps, and the names layers.py reads spans by
HARNESS_NAMES = [
    ("solver", "solve_constrained"),
    ("variational", "project_to_nehari"),
    ("localization", "solve_branches"),
    ("cli", "run_sweep"),
    ("config", "load_config"),
    ("models", "NonlinearitySpec.rate_sum"),
    ("_kernels", "nehari_rate_sum"),
    ("diagnostics", "build_sweep_record"),
    ("cli", "_write_json"),
    ("localization", "_probe_alpha_bar"),
    ("localization", "seed_field"),
    ("localization", "classify"),
    ("localization", "barycenter_h"),
    ("config", "parse_config"),
    ("cli", "ensure_hypotheses"),
    ("cli", "run_check"),
    ("cli", "run_report"),
    ("cli", "write_summary_csv"),
    ("cli", "dump_field"),
    ("variational", "energy"),
    ("variational", "gradient"),
    ("grid", "apply_frac_laplacian"),
    ("grid", "helmholtz_inverse"),
    ("_kernels", "negative_sq_sum"),
    # classes the workloads read attributes of; what they call is in
    # HARNESS_CALLS below (cli.main, a click group, is left out: its
    # __module__ is click's)
    ("models", "NonlinearitySpec"),
]

# (module, name, positional count, keywords): the entry points
# perfbench/workloads.py imports and the call shapes it uses them with
HARNESS_CALLS = [
    ("solver", "solve_limit", 5, ("seed_widths",)),
    ("solver", "SolveOptions", 0, ("max_iter", "tol_residual")),
    ("solver", "grid_for_epsilon", 6, ()),
    ("solver", "sweep_epsilon", 1, ()),
    ("localization", "build_boxes", 3, ()),
    ("localization", "solve_branches", 4, ()),
    ("models", "sample_potential", 3, ()),
    ("models", "NonlinearitySpec.saturable", 1, ()),
    ("models", "NonlinearitySpec.custom", 3, ("l0", "q", "C0")),
    ("models", "PotentialSpec", 2, ()),
    ("models", "Well", 3, ()),
    ("grid", "make_grid", 3, ()),
    ("variational", "Problem", 0, ("grid", "alpha", "eps", "potential_field", "nonlinearity")),
    ("config", "ProblemBlock", 0, ("d", "alpha", "R0", "R_cap", "h0")),
    ("config", "BoxesBlock", 3, ()),
    ("config", "SweepBlock", 0, ("epsilons", "max_iter", "tol_residual")),
    ("config", "LimitBlock", 0, ("a_values", "R", "n")),
    ("config", "ExperimentConfig", 0,
     ("problem", "potential", "nonlinearity", "boxes", "sweep", "limit")),
]


def _resolve(module, name):
    mod = importlib.import_module(f"fracstates.{module}")
    obj = mod
    for part in name.split("."):
        obj = getattr(obj, part)
    return mod, obj


_ALL_NAMES = HARNESS_NAMES + [(m, n) for m, n, *_ in HARNESS_CALLS if (m, n) not in HARNESS_NAMES]


@pytest.mark.parametrize(
    "module, name", _ALL_NAMES, ids=[f"{m}.{n}" for m, n in _ALL_NAMES]
)
def test_harness_name_exists(module, name):
    mod, obj = _resolve(module, name)
    assert callable(obj)
    # defined where the harness looks for it, not merely imported there
    owner = obj.__module__ if "." not in name else getattr(mod, name.split(".")[0]).__module__
    assert owner == mod.__name__


@pytest.mark.parametrize(
    "module, name, n_args, keywords", HARNESS_CALLS, ids=[f"{m}.{n}" for m, n, *_ in HARNESS_CALLS]
)
def test_harness_call_shape_binds(module, name, n_args, keywords):
    _, obj = _resolve(module, name)
    inspect.signature(obj).bind(*range(n_args), **{k: None for k in keywords})


# the names `import fracstates` exports: what the program, the benchmark
# harness and the README's library example use
PACKAGE_EXPORTS = {
    "BoxFamily", "BranchLabel", "EnergyReport", "Field", "Grid", "NonlinearitySpec",
    "PotentialSpec", "Problem", "SolveOptions", "SolveResult", "SweepRecord", "Well",
    "apply_frac_laplacian", "barycenter_h", "build_boxes", "classify",
    "concentration_table", "decay_fit", "energy", "energy_curve", "gagliardo_sq",
    "gradient", "helmholtz_inverse", "inner_l2", "kernel_backend", "locate_max",
    "make_grid", "profile_error", "project_to_nehari", "resample_field",
    "sample_potential", "seed_field", "select_ground_state", "sigma_membership",
    "solve_branch", "solve_branches", "solve_constrained", "solve_limit",
    "sweep_epsilon", "truncated_coordinate", "validate_nonlinearity",
    "validate_potential",
}


def test_package_exports_are_pinned():
    import fracstates

    exported = {name for name, obj in vars(fracstates).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == PACKAGE_EXPORTS


def test_perfbench_selftest_passes():
    # the harness's own check that its tracer still finds every name it
    # wraps, and that tracing changes no result; it writes only under
    # .perfbench/ of the checkout
    root = Path(__file__).resolve().parents[1]
    res = subprocess.run([sys.executable, str(root / "perfbench" / "selftest.py")],
                         cwd=root, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr


def test_package_import_loads_traced_layers():
    # the limit_3d workload imports only fracstates before the tracer wraps
    # the layers already loaded: a lazy package import would leave them
    # unwrapped, and the run would record no op at all
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    code = "import sys, fracstates; print(*sorted(sys.modules))"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), timeout=60)
    assert res.returncode == 0, res.stderr
    loaded = set(res.stdout.split())
    layers = {f"fracstates.{m}" for m in ("_kernels", "grid", "models", "variational", "solver")}
    assert layers <= loaded, sorted(layers - loaded)

