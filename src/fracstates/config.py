"""Experiment configuration: strict YAML parsing into validated blocks.

Unknown keys anywhere in the file are hard errors so typos in hypothesis
parameters cannot pass silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .errors import ConfigError, InvalidInput
from .localization import BoxFamily, build_boxes
from .models import NonlinearitySpec, PotentialSpec, Well
from .solver import SolveOptions


def _require(mapping: dict, context: str, required, optional=()):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(mapping).__name__}")
    known = set(required) | set(optional)
    unknown = set(mapping) - known
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(mapping)
    if missing:
        raise ConfigError(f"{context}: missing keys {sorted(missing)}")
    return mapping


def _number(value, name: str, kind=float):
    """value converted by kind (float or int); a value kind rejects is a
    ConfigError naming the key."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: expected a number, got {value!r}") from exc


@dataclass(frozen=True)
class ProblemBlock:
    d: int
    alpha: float
    R0: float
    R_cap: float = 400.0
    h0: float = 0.25


@dataclass(frozen=True)
class BoxesBlock:
    l: float
    L: float
    nu: Optional[float] = None


@dataclass(frozen=True)
class SweepBlock:
    epsilons: tuple
    max_iter: int = 2000
    tol_residual: float = 1e-8
    point_budget: int = 4_000_000


@dataclass(frozen=True)
class LimitBlock:
    a_values: tuple = ()
    R: float = 80.0
    n: int = 640


@dataclass(frozen=True)
class SolveBlock:
    epsilon: Optional[float] = None
    branch: int = 1


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"


@dataclass
class ExperimentConfig:
    problem: ProblemBlock
    potential: PotentialSpec
    nonlinearity: NonlinearitySpec
    boxes: BoxesBlock
    sweep: SweepBlock
    limit: LimitBlock = field(default_factory=LimitBlock)
    solve: SolveBlock = field(default_factory=SolveBlock)
    output: OutputBlock = field(default_factory=OutputBlock)
    rng_seed: int = 0
    raw: dict = field(default_factory=dict)

    def solve_options(self) -> SolveOptions:
        return SolveOptions(max_iter=self.sweep.max_iter, tol_residual=self.sweep.tol_residual)

    def box_family(self) -> BoxFamily:
        return build_boxes(self.potential, self.boxes.l, self.boxes.L, self.boxes.nu)

    def star_exponent(self) -> float:
        """Critical exponent 2d/(d-2a) for d > 2a, +inf otherwise."""
        d, a = self.problem.d, self.problem.alpha
        if d > 2 * a:
            return 2.0 * d / (d - 2.0 * a)
        return float("inf")


def _parse_potential(block) -> PotentialSpec:
    _require(block, "potential", ["v_inf_level", "wells"])
    wells = []
    if not isinstance(block["wells"], list) or not block["wells"]:
        raise ConfigError("potential.wells: expected a non-empty list")
    for i, w in enumerate(block["wells"]):
        _require(w, f"potential.wells[{i}]", ["center", "depth", "width"])
        center = w["center"]
        if not isinstance(center, (list, tuple)):
            center = [center]
        ctx = f"potential.wells[{i}]"
        wells.append(Well(
            tuple(_number(c, f"{ctx}.center") for c in center),
            _number(w["depth"], f"{ctx}.depth"),
            _number(w["width"], f"{ctx}.width"),
        ))
    return PotentialSpec(_number(block["v_inf_level"], "potential.v_inf_level"), tuple(wells))


def _parse_nonlinearity(block) -> NonlinearitySpec:
    _require(block, "nonlinearity", ["kind"], ["s", "q", "C0"])
    kind = block["kind"]
    if kind != "saturable":
        raise ConfigError(
            f"nonlinearity.kind: only 'saturable' is configurable, got {kind!r} "
            "(custom triples are library-level)"
        )
    if "s" not in block:
        raise ConfigError("nonlinearity: saturable kind requires 's'")
    kwargs = {key: _number(block[key], f"nonlinearity.{key}") for key in ("q", "C0") if key in block}
    return NonlinearitySpec.saturable(_number(block["s"], "nonlinearity.s"), **kwargs)


def parse_config(data: dict) -> ExperimentConfig:
    _require(
        data,
        "config",
        ["problem", "potential", "nonlinearity", "boxes", "sweep"],
        ["limit", "solve", "output", "rng_seed"],
    )
    pb = _require(data["problem"], "problem", ["d", "alpha", "R0"], ["R_cap", "h0"])
    problem = ProblemBlock(
        d=_number(pb["d"], "problem.d", int),
        alpha=_number(pb["alpha"], "problem.alpha"),
        R0=_number(pb["R0"], "problem.R0"),
        R_cap=_number(pb.get("R_cap", 400.0), "problem.R_cap"),
        h0=_number(pb.get("h0", 0.25), "problem.h0"),
    )
    if problem.d not in (1, 2, 3):
        raise ConfigError(f"problem.d: must be 1, 2 or 3, got {problem.d}")
    if not 0.0 < problem.alpha <= 1.0:
        raise ConfigError(f"problem.alpha: must lie in (0, 1], got {problem.alpha}")
    potential = _parse_potential(data["potential"])
    nonlinearity = _parse_nonlinearity(data["nonlinearity"])
    bx = _require(data["boxes"], "boxes", ["l", "L"], ["nu"])
    boxes = BoxesBlock(
        _number(bx["l"], "boxes.l"),
        _number(bx["L"], "boxes.L"),
        None if bx.get("nu") is None else _number(bx["nu"], "boxes.nu"),
    )
    sw = _require(data["sweep"], "sweep", ["epsilons"], ["max_iter", "tol_residual", "point_budget"])
    if not isinstance(sw["epsilons"], list) or not sw["epsilons"]:
        raise ConfigError("sweep.epsilons: expected a non-empty list")
    eps = tuple(_number(e, "sweep.epsilons") for e in sw["epsilons"])
    if min(eps) <= 0 or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigError(
            f"sweep.epsilons: must be positive and strictly decreasing, got {list(eps)}"
        )
    sweep = SweepBlock(
        epsilons=eps,
        max_iter=_number(sw.get("max_iter", 2000), "sweep.max_iter", int),
        tol_residual=_number(sw.get("tol_residual", 1e-8), "sweep.tol_residual"),
        point_budget=_number(sw.get("point_budget", 4_000_000), "sweep.point_budget", int),
    )
    lim = data.get("limit", {})
    _require(lim, "limit", [], ["a_values", "R", "n"])
    limit = LimitBlock(
        a_values=tuple(_number(a, "limit.a_values") for a in lim.get("a_values", ())),
        R=_number(lim.get("R", 80.0), "limit.R"),
        n=_number(lim.get("n", 640), "limit.n", int),
    )
    so = data.get("solve", {})
    _require(so, "solve", [], ["epsilon", "branch"])
    solve = SolveBlock(
        epsilon=None if so.get("epsilon") is None else _number(so["epsilon"], "solve.epsilon"),
        branch=_number(so.get("branch", 1), "solve.branch", int),
    )
    if solve.epsilon is not None and not solve.epsilon > 0:
        raise ConfigError(f"solve.epsilon: must be positive, got {solve.epsilon}")
    ob = data.get("output", {})
    _require(ob, "output", [], ["directory"])
    output = OutputBlock(directory=str(ob.get("directory", "out")))
    config = ExperimentConfig(
        problem=problem,
        potential=potential,
        nonlinearity=nonlinearity,
        boxes=boxes,
        sweep=sweep,
        limit=limit,
        solve=solve,
        output=output,
        rng_seed=_number(data.get("rng_seed", 0), "rng_seed", int),
        raw=data,
    )
    try:
        config.solve_options()
    except InvalidInput as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    return config


def load_config(path) -> ExperimentConfig:
    # imported on use: parse_config callers never pay for the YAML parser
    import yaml

    try:
        with open(path, "r") as fh:
            data = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    return parse_config(data)
