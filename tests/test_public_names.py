"""Callables the benchmark harness (perfbench/) reaches by module and name.

The harness wraps and times these from outside the package, so renaming or
moving one breaks the benchmark without failing any other test.
"""

import importlib

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
]


@pytest.mark.parametrize(
    "module, name", HARNESS_NAMES, ids=[f"{m}.{n}" for m, n in HARNESS_NAMES]
)
def test_harness_name_exists(module, name):
    mod = importlib.import_module(f"fracstates.{module}")
    obj = mod
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
    # defined where the harness looks for it, not merely imported there
    owner = obj.__module__ if "." not in name else getattr(mod, name.split(".")[0]).__module__
    assert owner == mod.__name__
