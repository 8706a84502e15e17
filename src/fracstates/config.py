"""Experiment configuration: strict YAML parsing into validated blocks.

The block dataclasses (ProblemBlock ... OutputBlock, and ExperimentConfig
for the top level) are the schema: a field without a default is a required
key, a field with one is optional, and its annotation says how the value is
parsed. Unknown keys anywhere in the file are hard errors so typos in
hypothesis parameters cannot pass silently. Each block checks its keys, and
ExperimentConfig the rules across blocks and every grid's point budget, on
construction, so a config built in Python obeys the YAML rules. A bad value
is a ConfigError naming its key or block: a non-number, a fractional value
of an integer key, a value out of range or one a model or SolveOptions
rejects; a grid over the point budget is a BudgetExceeded.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import Optional

from .errors import ConfigError, InvalidInput, SlopeOrdering
from .localization import BoxFamily, build_boxes
from .models import NonlinearitySpec, PotentialSpec, Well
from .solver import SolveOptions, check_levels, grid_for_epsilon, limit_grid, validation_grid


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


def _number(value, name: str) -> float:
    """value as a float; a value float rejects is a ConfigError naming the key."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{name}: expected a number, got {value!r}") from exc


def _integer(value, name: str) -> int:
    """value as an int; a number with a fractional part (or an infinite or
    NaN one) is a ConfigError naming the key, an integral float is accepted."""
    number = _number(value, name)
    if not number.is_integer():
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return int(value) if isinstance(value, int) else int(number)


def _numbers(value, name: str) -> tuple:
    if not isinstance(value, list):
        raise ConfigError(f"{name}: expected a list, got {value!r}")
    return tuple(_number(x, name) for x in value)


@dataclass(frozen=True)
class ProblemBlock:
    d: int
    alpha: float
    R0: float
    R_cap: float = 400.0
    h0: float = 0.25

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ConfigError(f"problem.d: must be 1, 2 or 3, got {self.d}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"problem.alpha: must lie in (0, 1], got {self.alpha}")
        for key in ("R0", "R_cap", "h0"):
            if not getattr(self, key) > 0:  # NaN fails too
                raise ConfigError(f"problem.{key}: must be positive, got {getattr(self, key)}")


@dataclass(frozen=True)
class BoxesBlock:
    l: float
    L: float
    nu: Optional[float] = None


@dataclass(frozen=True)
class SweepBlock:
    epsilons: tuple
    max_iter: int = SolveOptions.max_iter
    tol_residual: float = SolveOptions.tol_residual
    point_budget: int = 4_000_000

    def __post_init__(self):
        # SolveOptions holds the rules of the solver keys (InvalidInput)
        SolveOptions(max_iter=self.max_iter, tol_residual=self.tol_residual)
        eps = self.epsilons
        if not eps:
            raise ConfigError("sweep.epsilons: expected a non-empty list")
        if not (all(e > 0 for e in eps) and all(b < a for a, b in zip(eps, eps[1:]))):
            raise ConfigError(
                f"sweep.epsilons: must be positive and strictly decreasing, got {list(eps)}"
            )


@dataclass(frozen=True)
class LimitBlock:
    a_values: tuple = ()
    R: float = 80.0
    n: int = 640

    def __post_init__(self):
        if not self.R > 0:
            raise ConfigError(f"limit.R: must be positive, got {self.R}")
        if not self.n >= 8 or self.n % 2:
            raise ConfigError(f"limit.n: must be even and >= 8, got {self.n}")


@dataclass(frozen=True)
class SolveBlock:
    epsilon: Optional[float] = None
    branch: int = 1

    def __post_init__(self):
        if self.epsilon is not None and not self.epsilon > 0:
            raise ConfigError(f"solve.epsilon: must be positive, got {self.epsilon}")


@dataclass(frozen=True)
class OutputBlock:
    directory: str = "out"

    def __post_init__(self):
        if not isinstance(self.directory, str):
            raise ConfigError(f"output.directory: expected a string, got {self.directory!r}")


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
    # the mapping parse_config read, for the manifest
    raw: dict = field(default_factory=dict, init=False)

    def __post_init__(self):
        problem, limit = self.problem, self.limit
        # the limit state seeds the eps grids through resample_field, which
        # needs the same spacing to the same relative tolerance
        h_limit = 2.0 * limit.R / limit.n
        if abs(h_limit - problem.h0) > 1e-12 * max(h_limit, problem.h0):
            raise ConfigError(
                f"limit.n: the limit grid spacing 2*limit.R/limit.n = {h_limit:g} must equal "
                f"problem.h0 = {problem.h0:g}; set limit.n = 2*limit.R/problem.h0"
            )
        try:
            check_levels(limit.a_values, self.nonlinearity)
        except (InvalidInput, SlopeOrdering) as exc:
            raise ConfigError(f"limit.a_values: {exc}") from exc
        for i, well in enumerate(self.potential.wells):
            if len(well.center) != problem.d:
                raise ConfigError(
                    f"potential.wells[{i}].center: expected {problem.d} coordinates "
                    f"(problem.d), got {len(well.center)}"
                )
        k = len(self.potential.wells)  # one branch per well
        if not 1 <= self.solve.branch <= k:
            raise ConfigError(f"solve.branch: must be in 1..{k}, got {self.solve.branch}")
        # every grid a run builds fits the point budget, checked on Grid
        # objects before any array exists: the validation grid, the limit
        # grid and the largest eps grid, that of the smallest epsilon
        validation_grid(self)
        limit_grid(self)
        eps = min(e for e in (*self.sweep.epsilons, self.solve.epsilon) if e is not None)
        grid_for_epsilon(problem.d, eps, problem.R0, problem.R_cap, problem.h0,
                         self.sweep.point_budget)

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


def _parse_potential(block, name: str) -> PotentialSpec:
    _require(block, name, ["v_inf_level", "wells"])
    wells = []
    if not isinstance(block["wells"], list) or not block["wells"]:
        raise ConfigError(f"{name}.wells: expected a non-empty list")
    for i, w in enumerate(block["wells"]):
        ctx = f"{name}.wells[{i}]"
        _require(w, ctx, ["center", "depth", "width"])
        center = w["center"]
        if not isinstance(center, (list, tuple)):
            center = [center]
        wells.append(Well(
            tuple(_number(c, f"{ctx}.center") for c in center),
            _number(w["depth"], f"{ctx}.depth"),
            _number(w["width"], f"{ctx}.width"),
        ))
    return PotentialSpec(_number(block["v_inf_level"], f"{name}.v_inf_level"), tuple(wells))


def _parse_nonlinearity(block, name: str) -> NonlinearitySpec:
    _require(block, name, ["kind"], ["s", "q"])
    kind = block["kind"]
    if kind != "saturable":
        raise ConfigError(
            f"{name}.kind: only 'saturable' is configurable, got {kind!r} "
            "(custom triples are library-level)"
        )
    if "s" not in block:
        raise ConfigError(f"{name}: saturable kind requires 's'")
    kwargs = {"q": _number(block["q"], f"{name}.q")} if "q" in block else {}
    return NonlinearitySpec.saturable(_number(block["s"], f"{name}.s"), **kwargs)


def _build(cls, mapping, path: str = ""):
    """cls built from mapping through its dataclass fields, which are the
    schema: a field without a default is a required key, one with a default
    an optional key, any other key is unknown, and each value is parsed by
    the field's annotation. A model constructor's InvalidInput becomes a
    ConfigError naming the key."""
    schema = {f.name: f for f in fields(cls) if f.init}
    required = [k for k, f in schema.items()
                if f.default is MISSING and f.default_factory is MISSING]
    _require(mapping, path or "config", required, schema)
    values = {}
    for key, value in mapping.items():
        name = f"{path}.{key}" if path else key
        try:
            values[key] = _PARSERS[schema[key].type](value, name)
        except InvalidInput as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return cls(**values)


# field annotation -> parser(value, key name)
_PARSERS = {
    "int": _integer,
    "float": _number,
    "Optional[float]": lambda value, name: None if value is None else _number(value, name),
    "tuple": _numbers,
    "str": lambda value, name: value,  # OutputBlock requires a string
    "PotentialSpec": _parse_potential,
    "NonlinearitySpec": _parse_nonlinearity,
}
_PARSERS.update({
    cls.__name__: partial(_build, cls)
    for cls in (ProblemBlock, BoxesBlock, SweepBlock, LimitBlock, SolveBlock, OutputBlock)
})


def parse_config(data: dict) -> ExperimentConfig:
    """An ExperimentConfig from a mapping, each block through its schema
    (_build); the mapping is kept as raw for the manifest."""
    config = _build(ExperimentConfig, data)
    config.raw = data
    return config


def load_config(path) -> ExperimentConfig:
    # imported on use: parse_config callers never pay for the YAML parser
    import yaml

    # libyaml's safe loader, where PyYAML was built with it, parses the same
    # mapping about 8x faster than the pure-Python one
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path, "r") as fh:
            data = yaml.load(fh, Loader=loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a mapping at top level")
    return parse_config(data)
