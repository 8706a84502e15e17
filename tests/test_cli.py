"""End-to-end CLI: validation gate, limit curve, sweep artifacts, report
regeneration, and exit codes."""

import json
import re

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from fracstates.cli import main
from fracstates.errors import ConfigError


def canonical_config(**overrides):
    cfg = {
        "problem": {"d": 1, "alpha": 0.5, "R0": 8.0, "R_cap": 400.0, "h0": 0.25},
        "potential": {
            "v_inf_level": 2.0,
            "wells": [{"center": [1.0 / 3.0], "depth": 1.0, "width": 2.0}],
        },
        "nonlinearity": {"kind": "saturable", "s": 0.4},
        "boxes": {"l": 1.0, "L": 4.0},
        "sweep": {"epsilons": [0.5], "max_iter": 20000},
        "limit": {"a_values": [0.8, 1.2], "R": 20.0, "n": 160},
        "rng_seed": 7,
    }
    for key, val in overrides.items():
        if isinstance(val, dict) and key in cfg:
            cfg[key].update(val)
        else:
            cfg[key] = val
    return cfg


def python_config(cfg):
    """The ExperimentConfig of a canonical_config mapping, built from its
    blocks in Python, without the YAML parser."""
    from fracstates.config import (BoxesBlock, ExperimentConfig, LimitBlock, ProblemBlock,
                                   SolveBlock, SweepBlock)
    from fracstates.models import NonlinearitySpec, PotentialSpec, Well

    tuples = {"epsilons", "a_values"}

    def block(cls, name):
        return cls(**{k: tuple(v) if k in tuples else v for k, v in cfg.get(name, {}).items()})

    pot = cfg["potential"]
    return ExperimentConfig(
        problem=block(ProblemBlock, "problem"),
        potential=PotentialSpec(pot["v_inf_level"], tuple(Well(**w) for w in pot["wells"])),
        nonlinearity=NonlinearitySpec.saturable(cfg["nonlinearity"]["s"]),
        boxes=block(BoxesBlock, "boxes"),
        sweep=block(SweepBlock, "sweep"),
        limit=block(LimitBlock, "limit"),
        solve=block(SolveBlock, "solve"),
    )


def both_loaders(text):
    """text parsed by PyYAML's pure-Python and libyaml safe loaders."""
    return yaml.load(text, Loader=yaml.SafeLoader), yaml.load(text, Loader=yaml.CSafeLoader)


def write_config(tmp_path, cfg, name="config.yaml"):
    """Write cfg as YAML. load_config parses with libyaml, so every config
    written here is checked to parse to the same mapping under both loaders."""
    text = yaml.safe_dump(cfg)
    python_loaded, c_loaded = both_loaders(text)
    assert c_loaded == python_loaded
    path = tmp_path / name
    path.write_text(text)
    return path


def run_cli(args):
    return CliRunner().invoke(main, args)


def count_solves(monkeypatch):
    """The args of every constrained solve, from the solver and from the
    branch solves, in a list that fills as the solves are called."""
    import fracstates.localization
    import fracstates.solver

    calls = []
    solve_constrained = fracstates.solver.solve_constrained

    def counting(*args, **kwargs):
        calls.append(args)
        return solve_constrained(*args, **kwargs)

    for module in (fracstates.solver, fracstates.localization):
        monkeypatch.setattr(module, "solve_constrained", counting)
    return calls


def recording_stub(monkeypatch, module, name):
    """Replace module.name by a stub that records its call and stops the
    command before it allocates anything; returns the list of calls."""
    calls = []

    def stub(*args, **kwargs):
        calls.append(args)
        raise AssertionError(f"{name} reached past the point budget")

    monkeypatch.setattr(module, name, stub)
    return calls


def config_3d():
    """The canonical well moved into 3-D, with the default limit block
    (R = 80, n = 640: 640^3 points, over the default point budget)."""
    cfg = canonical_config()
    cfg["problem"].update(d=3, R0=4.0)
    cfg["potential"]["wells"][0]["center"] = [1.0 / 3.0, 0.0, 0.0]
    del cfg["limit"]
    return cfg


class TestCheck:
    def test_canonical_passes(self, tmp_path):
        path = write_config(tmp_path, canonical_config())
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "validation.json").read_text())
        assert report["pass"]

    def test_slope_violation_fails_f3(self, tmp_path):
        # s = 0.6 gives l0 = 1.667 below sup V = 2
        cfg = canonical_config(nonlinearity={"kind": "saturable", "s": 0.6})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert not report["f3"]
        assert any("f3" in m for m in report["messages"])

    def test_unknown_key_is_hard_error(self, tmp_path):
        # nonlinearity.C0 was removed: C0 = sup |f'| follows from s
        for block, key in [("problem", "spacing"), ("nonlinearity", "C0")]:
            cfg = canonical_config()
            cfg[block][key] = 0.1
            path = write_config(tmp_path, cfg)
            res = run_cli(["check", "--config", str(path), "--out", str(tmp_path / "o")])
            assert res.exit_code == 1
            assert f"{block}: unknown keys ['{key}']" in res.output

    @pytest.mark.parametrize("text", ["problem: {d: 1", "problem:\n\td: 1", "a: b: c"],
                             ids=["unclosed-flow", "tab-indent", "nested-colon"])
    def test_malformed_yaml_is_config_error(self, tmp_path, text):
        from fracstates.config import load_config

        path = tmp_path / "config.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="is not valid YAML"):
            load_config(path)
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError" and "is not valid YAML" in err["message"]

    def test_config_parsed_by_libyaml(self, tmp_path, monkeypatch):
        from fracstates.config import load_config

        path = write_config(tmp_path, canonical_config())
        streams = []

        class Spy(yaml.CSafeLoader):
            def __init__(self, stream):
                streams.append(stream)
                super().__init__(stream)

        monkeypatch.setattr(yaml, "CSafeLoader", Spy)
        cfg = load_config(path)
        assert len(streams) == 1
        assert cfg.raw == canonical_config()

    def test_missing_config_is_validation_error(self, tmp_path):
        res = run_cli(["check", "--config", str(tmp_path / "nope.yaml"),
                       "--out", str(tmp_path / "o")])
        assert res.exit_code == 1

    @pytest.mark.parametrize(
        "key,value", [("max_iter", 0), ("tol_residual", 0.0), ("tol_residual", float("nan"))]
    )
    def test_bad_solver_knob_is_config_error(self, tmp_path, key, value):
        from fracstates.config import SweepBlock, parse_config
        from fracstates.errors import InvalidInput

        # the block itself rejects the value, for library callers too
        with pytest.raises(InvalidInput, match=key):
            SweepBlock(epsilons=(0.5,), **{key: value})
        cfg = canonical_config(sweep={key: value})
        with pytest.raises(ConfigError, match=f"sweep: {key}"):
            parse_config(cfg)
        path = write_config(tmp_path, cfg)
        res = run_cli(["check", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert key in res.output

    def test_non_numeric_nu_is_config_error(self, tmp_path):
        cfg = canonical_config(boxes={"nu": "abc"})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert "boxes.nu" in res.output
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"

    _BAD_PROBLEM_NUMBERS = [
        pytest.param("problem", "alpha", "abc", id="alpha-text"),
        pytest.param("sweep", "max_iter", "many", id="max_iter-text"),
        pytest.param("problem", "alpha", 1.5, id="alpha-above-1"),
        pytest.param("problem", "d", 4, id="d-4"),
        # integer keys must be integral: int() would truncate these
        pytest.param("problem", "d", 1.9, id="d-fraction"),
        pytest.param("sweep", "max_iter", 2.7, id="max_iter-fraction"),
        # grid keys out of range
        pytest.param("problem", "R0", 0.0, id="R0-zero"),
        pytest.param("problem", "R_cap", -400.0, id="R_cap-negative"),
        pytest.param("problem", "h0", -0.25, id="h0-negative"),
        pytest.param("limit", "R", -5.0, id="limit-R-negative"),
        pytest.param("limit", "n", 0, id="limit-n-zero"),
        pytest.param("limit", "n", 161, id="limit-n-odd"),
        # levels the limit solve rejects (l0 = 2.5 for s = 0.4)
        pytest.param("limit", "a_values", [1.2, 0.8], id="a_values-decreasing"),
        pytest.param("limit", "a_values", [0.0, 1.2], id="a_values-zero"),
        pytest.param("limit", "a_values", [0.8, 2.5], id="a_values-at-l0"),
        # one branch per well
        pytest.param("solve", "branch", 5, id="branch-above-k"),
        pytest.param("solve", "branch", 0, id="branch-zero"),
        # NaN fails every range comparison
        pytest.param("sweep", "epsilons", [float("nan")], id="epsilons-nan"),
    ]
    # the rows a value of the right type breaks: those the constructors
    # check, whichever way the config is built
    _RANGE_ROWS = [row for row in _BAD_PROBLEM_NUMBERS
                   if not row.id.endswith(("-text", "-fraction"))]

    @pytest.mark.parametrize("block,key,value", _BAD_PROBLEM_NUMBERS)
    def test_bad_number_is_config_error(self, tmp_path, block, key, value):
        path = write_config(tmp_path, canonical_config(**{block: {key: value}}))
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert f"{block}.{key}" in res.output
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"

    @pytest.mark.parametrize("block,key,value", _RANGE_ROWS)
    def test_bad_number_rejected_in_python(self, block, key, value):
        with pytest.raises(ConfigError, match=re.escape(f"{block}.{key}")):
            python_config(canonical_config(**{block: {key: value}}))

    def test_output_directory_must_be_string(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, canonical_config(output={"directory": ["a", "b"]}))
        res = run_cli(["check", "--config", str(path)])
        assert res.exit_code == 1
        assert "output.directory: expected a string" in res.output
        assert not (tmp_path / "['a', 'b']").exists()

    def test_center_length_must_match_d(self, tmp_path):
        cfg = canonical_config(potential={
            "v_inf_level": 2.0,
            "wells": [{"center": [0.3, 0.1], "depth": 1.0, "width": 2.0}],
        })
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert "potential.wells[0].center" in res.output
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"

    def test_limit_spacing_must_equal_h0(self, tmp_path):
        # the default limit block (R = 80, n = 640) has spacing 0.25; sweep
        # would fail to resample its state onto the h0 = 0.125 grids
        cfg = canonical_config(problem={"h0": 0.125})
        cfg["limit"] = {"a_values": [0.8, 1.2]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert "limit.n" in res.output
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"

    def test_integral_float_accepted(self):
        from fracstates.config import parse_config

        cfg = parse_config(canonical_config(problem={"d": 1.0}, sweep={"max_iter": 300.0}))
        assert cfg.problem.d == 1 and isinstance(cfg.problem.d, int)
        assert cfg.sweep.max_iter == 300 and isinstance(cfg.sweep.max_iter, int)

    _OUT_OF_RANGE_MODELS = [
        ("nonlinearity", {"nonlinearity": {"kind": "saturable", "s": -0.4}}),
        ("potential", {"potential": {
            "v_inf_level": 2.0,
            "wells": [{"center": [1.0 / 3.0], "depth": -1.0, "width": 2.0}],
        }}),
    ]

    @pytest.mark.parametrize(
        "block,overrides", _OUT_OF_RANGE_MODELS, ids=["s-negative", "depth-negative"]
    )
    def test_model_range_error_is_config_error(self, tmp_path, block, overrides):
        path = write_config(tmp_path, canonical_config(**overrides))
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert err["message"].startswith(f"{block}: ")

    @pytest.mark.parametrize("nu", [-0.5, float("nan")], ids=["negative", "nan"])
    def test_bad_nu_fails_boxes(self, tmp_path, nu):
        path = write_config(tmp_path, canonical_config(boxes={"nu": nu}))
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert "boxes: FAIL" in res.output
        report = json.loads((out / "validation.json").read_text())
        assert not report["boxes"]
        assert report["V1"] and report["f3"]

    _UNKNOWN_SWEEP_KEYS = [
        ("stepsize", 0.1),
        # settings the solver and diagnostics now fix as constants
        ("precond_shift", 1.0), ("step_init", 1.0), ("step_shrink", 0.5),
        ("sufficient_decrease", 1e-4), ("max_backtracks", 50),
        ("decay_window", [0.2, 0.35]),
    ]

    @pytest.mark.parametrize(
        "key,value", _UNKNOWN_SWEEP_KEYS, ids=[k for k, _ in _UNKNOWN_SWEEP_KEYS]
    )
    def test_unknown_sweep_key_rejected(self, tmp_path, key, value):
        cfg = canonical_config(sweep={"epsilons": [0.5], key: value})
        path = write_config(tmp_path, cfg)
        res = run_cli(["check", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert key in res.output


def _readme_section(heading):
    """The README text under a '## heading', up to the next '## '."""
    from pathlib import Path

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


class TestReadmeConfig:
    """The README's example config and key table agree with the schema."""

    def test_example_parses(self):
        import re

        from fracstates.config import parse_config

        (block,) = re.findall(r"```yaml\n(.*?)```", _readme_section("CLI"), re.S)
        cfg = parse_config(yaml.safe_load(block))
        assert cfg.sweep.epsilons == (0.5, 0.25, 0.125)

    def test_example_parses_alike_under_both_loaders(self):
        (block,) = re.findall(r"```yaml\n(.*?)```", _readme_section("CLI"), re.S)
        python_loaded, c_loaded = both_loaders(block)
        assert c_loaded == python_loaded

    def test_key_table_matches_blocks(self):
        import dataclasses

        from fracstates import config

        rows = {}
        for line in _readme_section("CLI").splitlines():
            cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 4:
                rows[(cells[0], cells[1])] = cells[3]
        blocks = {"problem": config.ProblemBlock, "boxes": config.BoxesBlock,
                  "sweep": config.SweepBlock, "limit": config.LimitBlock,
                  "solve": config.SolveBlock, "output": config.OutputBlock}
        top = {f.name for f in dataclasses.fields(config.ExperimentConfig) if f.init}
        assert {b for b, _ in rows} | {"rng_seed"} == top
        for block, cls in blocks.items():
            fields = dataclasses.fields(cls)
            assert {k for b, k in rows if b == block} == {f.name for f in fields}
            for f in fields:
                cell = rows[(block, f.name)]
                if f.default is dataclasses.MISSING:
                    assert cell == "required", (block, f.name)
                else:
                    assert cell.split("` ")[0] == repr(f.default), (block, f.name)


class TestLimit:
    def test_curve_emitted_and_increasing(self, tmp_path):
        path = write_config(tmp_path, canonical_config())
        out = tmp_path / "out"
        res = run_cli(["limit", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        lines = (out / "limit_curve.csv").read_text().splitlines()
        assert lines[0].startswith("# schema:")
        rows = [line.split(",") for line in lines[2:]]
        cs = [float(r[1]) for r in rows]
        assert cs[1] > cs[0]


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    path = write_config(tmp, canonical_config())
    out = tmp / "out"
    res = run_cli(["sweep", "--config", str(path), "--out", str(out)])
    assert res.exit_code == 0, res.output
    return tmp, path, out


class TestSweep:
    def test_artifacts_exist(self, sweep_run):
        _, _, out = sweep_run
        for name in ("summary.csv", "records.json", "concentration.json", "manifest.json"):
            assert (out / name).exists()
        assert (out / "fields" / "limit_state.f64").exists()
        assert (out / "fields" / "eps0.5_branch1.f64").exists()

    def test_field_dump_roundtrip(self, sweep_run):
        _, _, out = sweep_run
        meta = json.loads((out / "fields" / "eps0.5_branch1.json").read_text())
        raw = (out / "fields" / "eps0.5_branch1.f64").read_bytes()
        vals = np.frombuffer(raw, dtype="<f8")
        assert vals.size == meta["count"] == meta["n"] ** meta["d"]
        assert meta["axis_order"] == "row-major"
        assert np.all(np.isfinite(vals))
        assert np.max(vals) > 0

    def test_manifest_contents(self, sweep_run):
        _, _, out = sweep_run
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["stages"] == {"sweep": "ok"}
        assert "wall_time_s" in manifest
        assert manifest["config"]["rng_seed"] == 7
        assert manifest["rng_seed"] == 7
        assert manifest["kernel_backend"] == "python"

    def test_report_regenerates_identical_csv(self, sweep_run):
        tmp, path, out = sweep_run
        original = (out / "summary.csv").read_bytes()
        conc = (out / "concentration.json").read_bytes()
        res = run_cli(["report", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "summary.csv").read_bytes() == original
        assert (out / "concentration.json").read_bytes() == conc

    def test_rerun_byte_identical(self, sweep_run, tmp_path):
        tmp, path, out = sweep_run
        out2 = tmp_path / "out2"
        res = run_cli(["sweep", "--config", str(path), "--out", str(out2)])
        assert res.exit_code == 0
        assert (out2 / "summary.csv").read_bytes() == (out / "summary.csv").read_bytes()


class TestSolveCommand:
    def test_single_branch_solve(self, tmp_path):
        path = write_config(tmp_path, canonical_config())
        out = tmp_path / "out"
        res = run_cli(["solve", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "solve_eps0.5_branch1.json").read_text())
        assert payload["label"] == "interior"
        assert payload["converged"]
        assert (out / "fields" / "eps0.5_branch1.f64").exists()

    def test_solve_json_is_sweep_branch_entry(self, sweep_run, tmp_path):
        _, path, swept = sweep_run
        out = tmp_path / "out"
        res = run_cli(["solve", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        payload = json.loads((out / "solve_eps0.5_branch1.json").read_text())
        stored = json.loads((swept / "records.json").read_text())
        (rec,) = stored["records"]
        (entry,) = rec["branches"]
        assert payload == dict(entry, eps=rec["eps"], c_v0=stored["c_v0"])
        assert {"alpha_bar", "v_at_max", "profile_error", "decay_exponent", "decay_r2",
                "boundary_mass"} <= set(payload)


class TestHypothesisGate:
    def test_sweep_refuses_failing_hypotheses(self, tmp_path):
        cfg = canonical_config(nonlinearity={"kind": "saturable", "s": 0.6})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli(["sweep", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert not (out / "summary.csv").exists()


# two wells at -2 and +2, and box families that fail around them
TWO_WELLS = {
    "v_inf_level": 2.0,
    "wells": [{"center": [-2.0], "depth": 1.0, "width": 0.5},
              {"center": [2.0], "depth": 1.0, "width": 0.5}],
}
_BAD_BOXES = [
    ({"l": 2.5, "L": 4.0}, "need 2l <= L"),
    ({"l": 2.0, "L": 8.0}, "intersect"),
    ({"l": 0.05, "L": 4.0}, "does not rise above the well level"),
    ({"l": 1.0, "L": 4.0, "nu": -0.5}, "must be nonnegative"),
    ({"l": 0.0, "L": 4.0}, "must be positive"),
]
_BAD_BOX_IDS = ["l-above-half-L", "overlap", "not-separating", "nu-negative", "l-zero"]


class TestBoxGate:
    """A box family that fails check stops every solving command before
    its first solve."""

    @pytest.mark.parametrize("boxes,reason", _BAD_BOXES, ids=_BAD_BOX_IDS)
    def test_check_fails_boxes(self, tmp_path, boxes, reason):
        path = write_config(tmp_path, canonical_config(potential=TWO_WELLS, boxes=boxes))
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        report = json.loads((out / "validation.json").read_text())
        assert not report["boxes"] and not report["pass"]
        assert all(report[v] for v in ("V1", "V2", "f1", "f2", "f3", "f4", "f5"))
        assert any(m.startswith("boxes fail:") and reason in m for m in report["messages"])

    @pytest.mark.parametrize("command", ["limit", "solve", "sweep"])
    @pytest.mark.parametrize("boxes,reason", _BAD_BOXES, ids=_BAD_BOX_IDS)
    def test_solving_command_refuses(self, tmp_path, monkeypatch, command, boxes, reason):
        calls = count_solves(monkeypatch)
        path = write_config(tmp_path, canonical_config(potential=TWO_WELLS, boxes=boxes))
        out = tmp_path / "out"
        res = run_cli([command, "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"
        assert "boxes fail:" in err["message"] and reason in err["message"]
        assert calls == []


class TestExitCodes:
    def test_budget_exceeded_is_solver_error(self, tmp_path):
        cfg = canonical_config(sweep={"epsilons": [0.5], "point_budget": 10})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli(["sweep", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "BudgetExceeded"

    def test_budget_fails_before_any_solve(self, tmp_path, monkeypatch):
        # with R0 = 16, 600 points hold the eps = 0.5 and 0.25 grids (256
        # and 512 points) but not the 0.125 one (1024)
        calls = count_solves(monkeypatch)
        cfg = canonical_config(problem={"R0": 16.0},
                               sweep={"epsilons": [0.5, 0.25, 0.125], "point_budget": 600})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli(["sweep", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 2
        assert json.loads((out / "error.json").read_text())["error"] == "BudgetExceeded"
        assert calls == []

    @pytest.mark.parametrize("solve_eps", [None, 0.125])
    def test_check_budgets_eps_grid(self, tmp_path, solve_eps):
        # R0 = 16, 600 points: the eps = 0.125 grid (1024 points) is over
        # the budget, whether a sweep epsilon or solve.epsilon asks for it
        epsilons = [0.5, 0.25] if solve_eps else [0.5, 0.25, 0.125]
        cfg = canonical_config(problem={"R0": 16.0},
                               sweep={"epsilons": epsilons, "point_budget": 600},
                               solve={"epsilon": solve_eps})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 2, res.output
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "BudgetExceeded"
        assert err["message"].startswith("eps=0.125 grid 1024^1 exceeds")
        assert not (out / "validation.json").exists()

    @pytest.mark.parametrize("command", ["check", "sweep"])
    def test_validation_grid_obeys_budget(self, tmp_path, monkeypatch, command):
        # [-16, 16]^3 at h0 = 0.125 is 256^3 = 16.8M points, over 4M
        import fracstates.cli

        calls = recording_stub(monkeypatch, fracstates.cli, "validate_potential")
        cfg = config_3d()
        cfg["problem"].update(R0=16.0, h0=0.125)
        cfg["limit"] = {"R": 20.0, "n": 320}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli([command, "--config", str(path), "--out", str(out)])
        assert res.exit_code == 2, res.output
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "BudgetExceeded"
        assert err["message"].startswith("validation grid 256^3 exceeds")
        assert calls == []

    @pytest.mark.parametrize("problem", [{"R0": float("inf")}, {"R0": 1e308, "R_cap": 1e308},
                                         {"R_cap": float("inf")}],
                             ids=["R0-inf", "R0-R_cap-1e308", "R_cap-inf"])
    def test_infinite_grid_is_over_budget(self, tmp_path, problem):
        # an infinite point count is a typed BudgetExceeded, not an overflow
        cfg = canonical_config(problem=problem)
        if "R_cap" in problem:
            cfg["sweep"]["epsilons"] = [1e-308]  # R0/eps overflows, the cap does not bound it
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 2, res.output
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "BudgetExceeded"
        assert "grid of inf points per axis exceeds" in err["message"]

    @pytest.mark.parametrize("command", ["check", "limit", "solve", "sweep", "report"])
    def test_limit_grid_obeys_budget(self, tmp_path, monkeypatch, command):
        # the default limit grid is 640^3 = 262M points in 3-D; the eps
        # grid (64^3 at eps = 0.5) and the validation grid (64^3) fit
        import fracstates.solver

        calls = recording_stub(monkeypatch, fracstates.solver, "solve_limit")
        cfg = config_3d()
        if command == "limit":
            # limit needs levels; R and n keep their defaults
            cfg["limit"] = {"a_values": [0.8, 1.2]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli([command, "--config", str(path), "--out", str(out)])
        assert res.exit_code == 2, res.output
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "BudgetExceeded"
        assert err["message"].startswith("limit grid 640^3 exceeds")
        assert calls == []

    def test_report_without_records_is_io_error(self, tmp_path):
        path = write_config(tmp_path, canonical_config())
        out = tmp_path / "empty"
        res = run_cli(["report", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 3
        err = json.loads((out / "error.json").read_text())
        assert "records.json" in err["message"]

    @pytest.mark.parametrize(
        "command, overrides",
        [
            ("solve", {"sweep": {"epsilons": []}}),
            ("sweep", {"sweep": {"epsilons": [0.25, 0.5]}}),
            ("solve", {"solve": {"epsilon": 0}}),
            ("solve", {"solve": {"epsilon": -0.5}}),
        ],
        ids=["solve-empty", "sweep-increasing", "solve-epsilon-zero", "solve-epsilon-negative"],
    )
    def test_bad_epsilons_are_config_errors(self, tmp_path, command, overrides):
        cfg = canonical_config(**overrides)
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli([command, "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "ConfigError"


class TestManifest:
    def test_records_seed_override(self, tmp_path):
        path = write_config(tmp_path, canonical_config())
        out = tmp_path / "out"
        res = run_cli(["check", "--config", str(path), "--out", str(out), "--seed", "11"])
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["rng_seed"] == 11

    def test_no_manifest_when_command_raises(self, tmp_path):
        path = write_config(tmp_path, canonical_config())
        out = tmp_path / "out"
        out.mkdir()
        # a hand-edited records.json without its branches
        (out / "records.json").write_text('{"c_v0": 1.0, "v0": 1.0, "records": [{"eps": 0.5}]}')
        res = run_cli(["report", "--config", str(path), "--out", str(out)])
        assert isinstance(res.exception, KeyError)
        assert not (out / "manifest.json").exists()
