"""Per-layer metrics from one traced run.

Spans come from tracer.Tracer; every span carries the leaf calls made
directly under it (``Span.leaves``: calls, outer calls, outer seconds, all
seconds, outer points, outer computed bytes, max points). Times are
inclusive unless the name says ``self_s``; self time is a span's duration
minus its direct children (spans and leaves).

Computed bytes are array sizes times 8 B per array read, not measured
traffic: they ignore caches and temporaries.
"""

CALLS, OUTER, OUTER_S, ALL_S, POINTS, BYTES, MAX_POINTS = range(7)

SOLVE = "solver.solve_constrained"
PROJECT = "variational.project_to_nehari"
NONLINEARITY = "models.NonlinearitySpec."
KERNEL_QUERIES = ("kernels.backend", "kernels.have_compiled")
NEGATIVE_SQ = "kernels.negative_sq_sum"

# name -> (unit, better)
METRICS = {
    "variational.projections": ("count", "lower"),
    "variational.projection_s": ("s", "lower"),
    "variational.passes_per_projection": ("count", "lower"),
    "variational.energy_calls": ("count", "lower"),
    "variational.energy_s": ("s", "lower"),
    "variational.gradient_calls": ("count", "lower"),
    "variational.gradient_s": ("s", "lower"),
    "models.kernel_passes": ("count", "lower"),
    "models.kernel_s": ("s", "lower"),
    "models.kernel_points": ("count", "lower"),
    "models.kernel_bytes_computed": ("B", "lower"),
    "kernels.calls": ("count", "lower"),
    "kernels.s": ("s", "lower"),
    "kernels.negative_sq_calls": ("count", "lower"),
    "solver.solves": ("count", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.trials": ("count", "lower"),
    "solver.accept_ratio": ("ratio", "higher"),
    "solver.self_s": ("s", "lower"),
    "solver.s_per_iter": ("s", "lower"),
    "grid.fft_calls": ("count", "lower"),
    "grid.fft_s": ("s", "lower"),
    "grid.fft_per_iter": ("count", "lower"),
    "grid.fft_points": ("count", "lower"),
    "grid.fft_bytes_computed": ("B", "lower"),
    "grid.max_array_bytes": ("B", "lower"),
    "grid.frac_laplacian_calls": ("count", "lower"),
    "grid.frac_laplacian_s": ("s", "lower"),
    "grid.helmholtz_calls": ("count", "lower"),
    "grid.helmholtz_s": ("s", "lower"),
    "localization.self_s": ("s", "lower"),
    "localization.probe_projections": ("count", "lower"),
    "localization.seed_s": ("s", "lower"),
    "localization.classify_s": ("s", "lower"),
    "diagnostics.s": ("s", "lower"),
    "config.load_s": ("s", "lower"),
    "cli.validate_s": ("s", "lower"),
    "cli.io_s": ("s", "lower"),
    "cli.bytes_written": ("B", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.untraced_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# counts that must repeat exactly between traced runs of one seed
EXACT_COUNTS = ("grid.fft_calls", "models.kernel_passes", "variational.projections",
                "solver.iterations")


def _leaf_total(spans, match, field):
    return sum(agg[field] for s in spans for name, agg in s.leaves.items() if match(name))


def _outermost(spans, by_id, names):
    return [s for s in spans if s.name in names
            and (s.parent is None or by_id[s.parent].name not in names)]


def _in_solve(spans, by_id):
    """Span ids that are a constrained solve or lie below one."""
    memo = {}

    def inside(span):
        if span.id not in memo:
            parent = by_id.get(span.parent)
            memo[span.id] = span.name == SOLVE or (parent is not None and inside(parent))
        return memo[span.id]

    return {s.id for s in spans if inside(s)}


def per_layer(tracer, bytes_written):
    """Every per-layer metric except the trace.*_wall_s pair, which needs the
    untraced run and is added by run.py."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}

    def named(name):
        return [s for s in spans if s.name == name]

    def layer_self(layer):
        return sum(s.self_s for s in spans if s.layer == layer)

    def dur(selected):
        return sum(s.duration for s in selected)

    def is_fft(n):
        return n.startswith("fft.")

    def is_pass(n):
        return n.startswith(NONLINEARITY)

    def is_kernel(n):
        return n.startswith("kernels.") and n not in KERNEL_QUERIES and n != NEGATIVE_SQ

    solves = named(SOLVE)
    projections = named(PROJECT)
    iterations = sum(s.info["iterations"] for s in solves if s.info)
    solve_ids = {s.id for s in solves}
    trials = sum(max(0, sum(1 for p in projections if p.parent == s.id) - 1) for s in solves)
    in_solve = _in_solve(spans, by_id)
    fft_in_solve = _leaf_total([s for s in spans if s.id in in_solve], is_fft, CALLS)
    proj_passes = _leaf_total(projections, is_pass, OUTER)
    max_points = max((agg[MAX_POINTS] for s in spans for n, agg in s.leaves.items() if is_fft(n)),
                     default=0)
    io_names = {"cli.write_summary_csv", "cli.dump_field", "cli._write_json"}

    m = {
        "variational.projections": len(projections),
        "variational.projection_s": dur(projections),
        "variational.passes_per_projection": proj_passes / len(projections) if projections else 0.0,
        "variational.energy_calls": _leaf_total(spans, lambda n: n == "variational.energy", CALLS),
        "variational.energy_s": _leaf_total(spans, lambda n: n == "variational.energy", ALL_S),
        "variational.gradient_calls": _leaf_total(spans, lambda n: n == "variational.gradient", CALLS),
        "variational.gradient_s": _leaf_total(spans, lambda n: n == "variational.gradient", ALL_S),
        "models.kernel_passes": _leaf_total(spans, is_pass, OUTER),
        "models.kernel_s": _leaf_total(spans, is_pass, OUTER_S),
        "models.kernel_points": _leaf_total(spans, is_pass, POINTS),
        "models.kernel_bytes_computed": _leaf_total(spans, is_pass, BYTES),
        "kernels.calls": _leaf_total(spans, is_kernel, CALLS),
        "kernels.s": _leaf_total(spans, is_kernel, ALL_S),
        "kernels.negative_sq_calls": _leaf_total(spans, lambda n: n == NEGATIVE_SQ, CALLS),
        "solver.solves": len(solves),
        "solver.iterations": iterations,
        "solver.trials": trials,
        "solver.accept_ratio": iterations / trials if trials else 0.0,
        "solver.self_s": layer_self("solver"),
        "solver.s_per_iter": dur(s for s in solves if s.parent not in solve_ids) / iterations
        if iterations else 0.0,
        "grid.fft_calls": _leaf_total(spans, is_fft, CALLS),
        "grid.fft_s": _leaf_total(spans, is_fft, ALL_S),
        "grid.fft_per_iter": fft_in_solve / iterations if iterations else 0.0,
        "grid.fft_points": _leaf_total(spans, is_fft, POINTS),
        "grid.fft_bytes_computed": _leaf_total(spans, is_fft, BYTES),
        "grid.max_array_bytes": 8 * max_points,
        "grid.frac_laplacian_calls": _leaf_total(spans, lambda n: n == "grid.apply_frac_laplacian", CALLS),
        "grid.frac_laplacian_s": _leaf_total(spans, lambda n: n == "grid.apply_frac_laplacian", ALL_S),
        "grid.helmholtz_calls": _leaf_total(spans, lambda n: n == "grid.helmholtz_inverse", CALLS),
        "grid.helmholtz_s": _leaf_total(spans, lambda n: n == "grid.helmholtz_inverse", ALL_S),
        "localization.self_s": layer_self("localization"),
        "localization.probe_projections": sum(
            1 for p in projections if by_id[p.parent].layer == "localization"),
        "localization.seed_s": dur(named("localization.seed_field")),
        "localization.classify_s": dur(_outermost(
            spans, by_id, {"localization.classify", "localization.barycenter_h"})),
        "diagnostics.s": dur(s for s in spans if s.layer == "diagnostics"
                             and by_id[s.parent].layer != "diagnostics"),
        "config.load_s": dur(_outermost(spans, by_id, {"config.load_config", "config.parse_config"})),
        "cli.validate_s": dur(_outermost(spans, by_id, {"cli.ensure_hypotheses", "cli.run_check"})),
        "cli.io_s": dur(_outermost(spans, by_id, io_names))
        + sum(s.self_s for s in named("cli.run_report")),
        "cli.bytes_written": bytes_written,
        "trace.spans": len(spans),
    }
    return m
