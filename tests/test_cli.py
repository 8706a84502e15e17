"""End-to-end CLI: validation gate, limit curve, sweep artifacts, report
regeneration, and exit codes."""

import json

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from fracstates.cli import main


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


def write_config(tmp_path, cfg, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def run_cli(args):
    return CliRunner().invoke(main, args)


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
        cfg = canonical_config()
        cfg["problem"]["spacing"] = 0.1
        path = write_config(tmp_path, cfg)
        res = run_cli(["check", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "spacing" in res.output

    def test_missing_config_is_validation_error(self, tmp_path):
        res = run_cli(["check", "--config", str(tmp_path / "nope.yaml"),
                       "--out", str(tmp_path / "o")])
        assert res.exit_code == 1

    def test_solver_knobs_accepted(self, tmp_path):
        cfg = canonical_config(
            sweep={
                "epsilons": [0.5],
                "max_iter": 20000,
                "step_shrink": 0.4,
                "max_backtracks": 40,
                "decay_window": [0.2, 0.3],
            }
        )
        path = write_config(tmp_path, cfg)
        res = run_cli(["check", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output

    @pytest.mark.parametrize("key,value", [
        ("step_init", 0.0), ("step_init", -1.0),
        ("step_shrink", 0.0), ("step_shrink", 1.0),
        ("sufficient_decrease", 0.0), ("sufficient_decrease", 1.0),
        ("max_backtracks", 0), ("max_iter", 0), ("tol_residual", 0.0),
    ])
    def test_bad_solver_knob_is_config_error(self, tmp_path, key, value):
        from fracstates.config import parse_config
        from fracstates.errors import ConfigError

        cfg = canonical_config(sweep={key: value})
        with pytest.raises(ConfigError, match=key):
            parse_config(cfg)
        path = write_config(tmp_path, cfg)
        res = run_cli(["check", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert key in res.output

    def test_unknown_sweep_key_rejected(self, tmp_path):
        cfg = canonical_config(sweep={"epsilons": [0.5], "stepsize": 0.1})
        path = write_config(tmp_path, cfg)
        res = run_cli(["check", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1
        assert "stepsize" in res.output


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

    def test_workers_do_not_change_output(self, tmp_path):
        cfg = canonical_config(sweep={"epsilons": [0.5, 0.25], "max_iter": 20000})
        path = write_config(tmp_path, cfg)
        outs = []
        for name, workers in (("w1", "1"), ("w2", "2")):
            out = tmp_path / name
            res = run_cli(["sweep", "--config", str(path), "--out", str(out),
                           "--workers", workers])
            assert res.exit_code == 0, res.output
            outs.append((out / "summary.csv").read_bytes())
        assert outs[0] == outs[1]


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


class TestHypothesisGate:
    def test_sweep_refuses_failing_hypotheses(self, tmp_path):
        cfg = canonical_config(nonlinearity={"kind": "saturable", "s": 0.6})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli(["sweep", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 1
        assert not (out / "summary.csv").exists()


class TestExitCodes:
    def test_budget_exceeded_is_solver_error(self, tmp_path):
        cfg = canonical_config(sweep={"epsilons": [0.5], "point_budget": 10})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        res = run_cli(["sweep", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 2
        err = json.loads((out / "error.json").read_text())
        assert err["error"] == "BudgetExceeded"

    def test_report_without_records_is_io_error(self, tmp_path):
        path = write_config(tmp_path, canonical_config())
        out = tmp_path / "empty"
        res = run_cli(["report", "--config", str(path), "--out", str(out)])
        assert res.exit_code == 3
        err = json.loads((out / "error.json").read_text())
        assert "records.json" in err["message"]

    @pytest.mark.parametrize(
        "command, epsilons",
        [("solve", []), ("sweep", [0.25, 0.5])],
        ids=["solve-empty", "sweep-increasing"],
    )
    def test_bad_epsilons_are_config_errors(self, tmp_path, command, epsilons):
        cfg = canonical_config(sweep={"epsilons": epsilons})
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
