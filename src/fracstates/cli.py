"""Command-line front end: hypothesis validation, persistence of results,
and dispatch to the solver for limit curves, single solves, epsilon sweeps
(solver.sweep_epsilon), and report regeneration.

Exit codes: 0 success, 1 validation failure, 2 solver error (a grid over
the point budget too, found when the config loads), 3 I/O error. Every
failure also leaves a machine-readable error.json in the output directory,
which for a config that fails to load is only --out.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import __version__, _kernels
from .config import ExperimentConfig, load_config
from .diagnostics import (RECORDS_SCHEMA, branch_record, concentration_table, record_rows,
                          records_payload)
from .errors import ConfigError, FracstatesError
from .grid import Field
from .localization import solve_branch
from .models import validate_nonlinearity, validate_potential
from .solver import (energy_curve, limit_grid, limit_state, problem_for_epsilon,
                     sweep_epsilon, validation_grid)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2
EXIT_IO = 3


def _write_json(path: Path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _error_record(out_dir: Path, stage: str, exc: Exception):
    try:
        _write_json(
            out_dir / "error.json",
            {"stage": stage, "error": type(exc).__name__, "message": str(exc)},
        )
    except OSError:
        pass


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, list):  # a point: its coordinates joined by ";"
        return ";".join(repr(float(c)) for c in x)
    return str(x)


def _write_csv(path: Path, schema: str, columns, rows):
    """A CSV file: the schema comment, the header, one line per row dict."""
    lines = [f"# schema: {schema}", ",".join(columns)]
    lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


SUMMARY_SCHEMA = "fracstates-summary-v2"

SUMMARY_COLUMNS = [
    "eps",
    "branch",
    "label",
    "converged",
    "energy",
    "alpha_bar",
    "c_eps",
    "c_v0",
    "nehari_residual",
    "residual",
    "negative_mass",
    "barycenter",
    "max_point",
    "v_at_max",
    "v_gap",
    "c_gap",
    "profile_error",
    "decay_exponent",
    "decay_r2",
    "boundary_mass",
    "sigma_member",
    "trusted",
]


def write_summary_csv(path: Path, stored: dict):
    """summary.csv from a records.json payload: the record_rows of each record."""
    rows = [row for rec in stored["records"] for row in record_rows(rec)]
    _write_csv(path, SUMMARY_SCHEMA, SUMMARY_COLUMNS, rows)


def _write_tables(out_dir: Path):
    """summary.csv and concentration.json from records.json, for both sweep
    and report; an OSError naming the file unless it holds a JSON object
    naming RECORDS_SCHEMA with every key the tables read."""
    path = out_dir / "records.json"
    try:
        with open(path) as fh:
            stored = json.load(fh)
    except ValueError as exc:  # not JSON, or not text
        raise OSError(f"{path} is not JSON: {exc}") from exc
    if not isinstance(stored, dict) or stored.get("schema") != RECORDS_SCHEMA:
        raise OSError(f"{path} is not a {RECORDS_SCHEMA} payload")
    try:
        write_summary_csv(out_dir / "summary.csv", stored)
        _write_json(out_dir / "concentration.json", concentration_table(stored))
    except KeyError as exc:
        raise OSError(f"{path} lacks the key {exc} of a {RECORDS_SCHEMA} payload") from exc


def _eps_name(eps: float) -> str:
    """eps as file names spell it: its %g form where that reads back as
    eps, its repr otherwise, so distinct epsilons never share a name."""
    short = f"{eps:g}"
    return short if float(short) == eps else repr(float(eps))


def dump_field(out_dir: Path, name: str, field: Field, extra: dict):
    """Flat little-endian float64 dump with a JSON grid sidecar."""
    out_dir.mkdir(parents=True, exist_ok=True)
    raw = field.values.astype("<f8").tobytes()
    with open(out_dir / f"{name}.f64", "wb") as fh:
        fh.write(raw)
    meta = {
        "dtype": "<f8",
        "count": int(field.values.size),
        "axis_order": "row-major",
        "d": field.grid.d,
        "n": field.grid.n,
        "R": field.grid.R,
        "h": field.grid.h,
        **extra,
    }
    _write_json(out_dir / f"{name}.json", meta)


_VERDICTS = ("V1", "V2", "f1", "f2", "f3", "f4", "f5", "boxes")


def _hypotheses(config: ExperimentConfig) -> dict:
    """The validation.json payload: the verdicts of (V1)-(V2) on the
    validation grid [-R0, R0]^d and the declared centers, of (f1)-(f5) on
    the law's samples, and of the box family; V0 (the minimum of V over the
    grid and the centers), V_inf_proxy, l0, the horizon, every failure
    message and the overall pass."""
    pot = validate_potential(config.potential, validation_grid(config))
    nl = validate_nonlinearity(config.nonlinearity, sup_v=config.potential.v_inf_level)
    messages = pot.messages + nl.messages
    boxes_ok = True
    try:
        config.box_family()
    except FracstatesError as exc:
        boxes_ok = False
        messages.append(f"boxes fail: {exc}")
    verdicts = dict(zip(_VERDICTS, (pot.pass_v1, pot.pass_v2, nl.pass_f1, nl.pass_f2,
                                    nl.pass_f3, nl.pass_f4, nl.pass_f5, boxes_ok)))
    return {**verdicts, "pass": all(verdicts.values()), "V0": pot.v0,
            "V_inf_proxy": pot.v_inf_proxy, "l0": config.nonlinearity.l0,
            "horizon": nl.horizon, "messages": messages}


def run_check(config: ExperimentConfig, out_dir: Path) -> int:
    """Hypothesis validators only; exit 1 on any failure."""
    payload = _hypotheses(config)
    _write_json(out_dir / "validation.json", payload)
    for name in _VERDICTS:
        print(f"{name}: {'pass' if payload[name] else 'FAIL'}")
    for m in payload["messages"]:
        print(f"  {m}")
    return EXIT_OK if payload["pass"] else EXIT_VALIDATION


def ensure_hypotheses(config: ExperimentConfig):
    """The gate of limit, solve and sweep, passed before any solve: where
    check fails, it raises ConfigError with check's messages."""
    payload = _hypotheses(config)
    if not payload["pass"]:
        raise ConfigError("hypothesis validation failed: " + "; ".join(payload["messages"]))


def run_limit(config: ExperimentConfig, out_dir: Path) -> int:
    if not config.limit.a_values:
        raise ConfigError("limit.a_values is empty; nothing to solve")
    ensure_hypotheses(config)
    curve = energy_curve(
        list(config.limit.a_values), config.nonlinearity, limit_grid(config),
        config.problem.alpha, config.solve_options(),
    )
    _write_csv(out_dir / "limit_curve.csv", "fracstates-limit-v1", ("a", "c_a"),
               [{"a": a, "c_a": c} for a, c in curve])
    _write_json(out_dir / "limit_curve.json", {"curve": [[a, c] for a, c in curve]})
    for a, c in curve:
        print(f"a = {a:g}: c_a = {c:.10g}")
    return EXIT_OK


def run_sweep(config: ExperimentConfig, out_dir: Path) -> int:
    ensure_hypotheses(config)
    records = sweep_epsilon(config)
    c_v0, v0 = records[0].c_v0, records[0].v0
    _write_json(out_dir / "records.json", records_payload(records))
    fields_dir = out_dir / "fields"
    dump_field(fields_dir, "limit_state", records[0].w_limit, {"a": v0})
    for rec in records:
        for br in rec.branches:
            dump_field(
                fields_dir,
                f"eps{_eps_name(rec.eps)}_branch{br.j}",
                br.result.u,
                {"eps": rec.eps, "branch": br.j},
            )
    _write_tables(out_dir)
    for rec in records:
        print(
            f"eps = {rec.eps:g}: c_eps = {rec.c_eps:.8g} "
            f"(gap {rec.c_eps - c_v0:.3g}), sigma = {rec.sigma_members}, "
            f"trusted = {rec.trusted}"
        )
    return EXIT_OK


def run_solve(config: ExperimentConfig, out_dir: Path) -> int:
    """Exactly one (eps, branch) problem from the solve block. Its JSON is
    the sweep's records.json entry of that branch, plus eps and c_v0."""
    ensure_hypotheses(config)
    eps = config.solve.epsilon
    if eps is None:
        eps = config.sweep.epsilons[0]
    j = config.solve.branch
    boxes = config.box_family()
    p = problem_for_epsilon(config, eps)
    w_res = limit_state(config)
    br = solve_branch(p, boxes, w_res.u, j, config.solve_options())
    payload = dict(branch_record(br, p, w_res.u, config.potential), eps=eps, c_v0=w_res.energy)
    name = f"eps{_eps_name(eps)}_branch{j}"
    _write_json(out_dir / f"solve_{name}.json", payload)
    res = br.result
    dump_field(out_dir / "fields", name, res.u, {"eps": eps, "branch": j})
    print(
        f"eps = {eps:g}, branch {j}: energy = {res.energy:.10g}, "
        f"label = {br.label.kind}, converged = {res.converged}"
    )
    return EXIT_OK


def run_report(config: ExperimentConfig, out_dir: Path) -> int:
    """Regenerate summary.csv and the concentration table from records.json."""
    if not (out_dir / "records.json").exists():
        raise OSError(f"no records.json under {out_dir}; run sweep first")
    _write_tables(out_dir)
    print(f"regenerated {out_dir / 'summary.csv'}")
    return EXIT_OK


STAGES = {
    "check": run_check,
    "limit": run_limit,
    "sweep": run_sweep,
    "solve": run_solve,
    "report": run_report,
}


def _dispatch(command: str, config_path: str, out, seed) -> int:
    t0 = time.perf_counter()
    out_dir = Path(out) if out else None
    try:
        config = load_config(config_path)
        if seed is not None:
            config.rng_seed = seed
        if out_dir is None:
            out_dir = Path(config.output.directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        code = STAGES[command](config, out_dir)
    except (FracstatesError, OSError) as exc:
        if isinstance(exc, ConfigError):
            code, text = EXIT_VALIDATION, str(exc)
        elif isinstance(exc, FracstatesError):
            code, text = EXIT_SOLVER, f"{type(exc).__name__}: {exc}"
        else:
            code, text = EXIT_IO, str(exc)
        print(f"error: {text}", file=sys.stderr)
        if out_dir is not None:
            _error_record(out_dir, command, exc)
        return code
    try:
        _write_json(
            out_dir / "manifest.json",
            {
                "tool_version": __version__,
                "kernel_backend": _kernels.backend(),
                "command": command,
                "rng_seed": config.rng_seed,
                "wall_time_s": time.perf_counter() - t0,
                "stages": {command: "ok" if code == EXIT_OK else "validation-failed"},
                "config": config.raw,
            },
        )
    except OSError:
        pass
    return code


_COMMANDS = {
    "check": "Run the hypothesis validators only.",
    "limit": "Solve the autonomous limit problems (c_a curve).",
    "solve": "Solve one (epsilon, branch) problem.",
    "sweep": "Run the full multi-epsilon branch experiment.",
    "report": "Regenerate tables from stored records.",
}


def _parser(prog: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog, allow_abbrev=False,
        description="Solvers and experiments for semiclassical fractional Schrodinger "
                    "ground states with saturable nonlinearity.")
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    for name, text in _COMMANDS.items():
        cmd = commands.add_parser(name, help=text, description=text, allow_abbrev=False)
        cmd.add_argument("--config", dest="config_path", metavar="PATH", required=True,
                         help="the experiment's YAML config")
        cmd.add_argument("--out", metavar="PATH",
                         help="output directory (default: the config's output.directory)")
        cmd.add_argument("--seed", metavar="S", type=int, help="override the config's rng_seed")
    return parser


class _Console:
    """The console command: `fracstates COMMAND --config PATH [--out PATH]
    [--seed S]`. The console script calls main(); main.main(args=...,
    prog_name=..., standalone_mode=True) runs it in process on an argument
    list (standalone_mode belongs to that call shape and changes nothing).
    Either way it ends in SystemExit: 2 on a usage error, with the message
    on stderr, and the command's own exit code otherwise."""

    def main(self, args=None, prog_name="fracstates", standalone_mode=True):
        ns = _parser(prog_name).parse_args(args)
        sys.exit(_dispatch(ns.command, ns.config_path, ns.out, ns.seed))

    __call__ = main


main = _Console()


if __name__ == "__main__":
    main()
