"""Experiment configuration: strict YAML parsing into validated blocks.

The block dataclasses (ProblemBlock ... OutputBlock, NonlinearityBlock,
the models PotentialSpec and Well, and ExperimentConfig for the top level)
are the schema, read by one reader (_build): a field without a default is a
required key, a field with one is optional, and its annotation says how the
value is parsed. Unknown keys anywhere in the file are hard errors so typos in
hypothesis parameters cannot pass silently. Each block parses and checks its
values on construction, and ExperimentConfig its rng_seed, the rules across
blocks and every grid's point budget, so YAML and Python reach one code path.
A bad value is a ConfigError naming its key or block: a boolean or other
non-number, a fractional value of an integer key, a value out of range or one
a model rejects; a grid over the point budget is a BudgetExceeded.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from functools import partial
from typing import Optional

from .errors import ConfigError, InvalidInput, SlopeOrdering
from .localization import BoxFamily, build_boxes
from .models import NonlinearitySpec, PotentialSpec, Well, _number as _model_number
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


def _number(value, name: str) -> float:
    """value as a float by the models' number rule; a boolean, or a value
    float rejects, is a ConfigError naming the key."""
    try:
        return _model_number(value, name)
    except InvalidInput as exc:
        raise ConfigError(str(exc)) from exc


def _integer(value, name: str) -> int:
    """value as an int; a number with a fractional part (or an infinite or
    NaN one) or a boolean is a ConfigError naming the key, an integral
    float is accepted."""
    number = _number(value, name)
    if not number.is_integer():
        raise ConfigError(f"{name}: expected an integer, got {value!r}")
    return int(value) if isinstance(value, int) else int(number)


def _list(value, name: str):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name}: expected a list, got {value!r}")
    return value


def _numbers(value, name: str) -> tuple:
    return tuple(_number(x, name) for x in _list(value, name))


def _text(value, name: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{name}: expected a string, got {value!r}")
    return value


# field annotation -> parser(value, key name) of a block's scalar fields
_PARSERS = {
    "int": _integer,
    "float": _number,
    "Optional[float]": lambda value, name: None if value is None else _number(value, name),
    "tuple": _numbers,
    "str": _text,
}


class _Block:
    """A config block: on construction each field is parsed in place by its
    annotation, then _check runs; errors name block.key, the block being the
    class name without 'Block'."""

    def __post_init__(self):
        block = type(self).__name__.removesuffix("Block").lower()
        for f in fields(self):
            object.__setattr__(self, f.name,
                               _PARSERS[f.type](getattr(self, f.name), f"{block}.{f.name}"))
        self._check()

    def _check(self):
        pass


@dataclass(frozen=True)
class ProblemBlock(_Block):
    d: int
    alpha: float
    R0: float
    R_cap: float = 400.0
    h0: float = 0.25

    def _check(self):
        if self.d not in (1, 2, 3):
            raise ConfigError(f"problem.d: must be 1, 2 or 3, got {self.d}")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError(f"problem.alpha: must lie in (0, 1], got {self.alpha}")
        for key in ("R0", "R_cap", "h0"):
            if not getattr(self, key) > 0:  # NaN fails too
                raise ConfigError(f"problem.{key}: must be positive, got {getattr(self, key)}")
        # an infinite R0 or R_cap is a point count over the budget (BudgetExceeded)
        if self.h0 == math.inf:
            raise ConfigError(f"problem.h0: must be finite, got {self.h0}")


@dataclass(frozen=True)
class NonlinearityBlock(_Block):
    """The configurable law, the saturable one of parameter s; custom
    triples are library-level."""

    kind: str
    s: float

    def _check(self):
        if self.kind != "saturable":
            raise ConfigError(
                f"nonlinearity.kind: only 'saturable' is configurable, got {self.kind!r} "
                "(custom triples are library-level)"
            )


@dataclass(frozen=True)
class BoxesBlock(_Block):
    l: float
    L: float
    nu: Optional[float] = None


@dataclass(frozen=True)
class SweepBlock(_Block):
    epsilons: tuple
    max_iter: int = SolveOptions.max_iter
    tol_residual: float = SolveOptions.tol_residual
    point_budget: int = 4_000_000

    def _check(self):
        for key in ("max_iter", "tol_residual"):  # SolveOptions holds their rules
            try:
                SolveOptions(**{key: getattr(self, key)})
            except InvalidInput as exc:
                raise ConfigError(f"sweep.{key}: {exc}") from exc
        eps = self.epsilons
        if not eps:
            raise ConfigError("sweep.epsilons: expected a non-empty list")
        if not (all(0 < e < math.inf for e in eps) and all(b < a for a, b in zip(eps, eps[1:]))):
            raise ConfigError(
                f"sweep.epsilons: must be positive and strictly decreasing finite numbers, "
                f"got {list(eps)}"
            )


@dataclass(frozen=True)
class LimitBlock(_Block):
    a_values: tuple = ()
    R: float = 80.0
    n: int = 640

    def _check(self):
        if not 0 < self.R < math.inf:
            raise ConfigError(f"limit.R: must be positive and finite, got {self.R}")
        if not self.n >= 8 or self.n % 2:
            raise ConfigError(f"limit.n: must be even and >= 8, got {self.n}")


@dataclass(frozen=True)
class SolveBlock(_Block):
    epsilon: Optional[float] = None
    branch: int = 1

    def _check(self):
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise ConfigError(f"solve.epsilon: must be positive and finite, got {self.epsilon}")


@dataclass(frozen=True)
class OutputBlock(_Block):
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
    # the mapping parse_config read, for the manifest
    raw: dict = field(default_factory=dict, init=False, compare=False)

    def __post_init__(self):
        self.rng_seed = _integer(self.rng_seed, "rng_seed")
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
        if self.potential.d != problem.d:  # PotentialSpec gives every well one dimension
            raise ConfigError(f"potential.wells[0].center: expected {problem.d} coordinates "
                              f"(problem.d), got {self.potential.d}")
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


def _build(cls, mapping, path: str = ""):
    """cls built from mapping through its dataclass fields, which are the
    schema: a field without a default is a required key, one with a default
    an optional key, any other key is unknown. A block or model value is
    built from its own mapping, a scalar is passed on for cls to parse. A
    model's InvalidInput becomes a ConfigError naming the key it was built
    for, or, raised by cls itself, the block path (potential.wells[0])."""
    schema = {f.name: f for f in fields(cls) if f.init}
    required = [k for k, f in schema.items()
                if f.default is MISSING and f.default_factory is MISSING]
    _require(mapping, path or "config", required, schema)
    values = {}
    for key, value in mapping.items():
        name = f"{path}.{key}" if path else key
        try:
            values[key] = _PARTS.get(schema[key].type, lambda v, _: v)(value, name)
        except InvalidInput as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    try:
        return cls(**values)
    except InvalidInput as exc:
        raise ConfigError(f"{path or 'config'}: {exc}") from exc


# field annotation -> builder(value, key name) of the blocks and models;
# any other value goes to cls unparsed
_PARTS = {
    "tuple[Well, ...]": lambda wells, name: tuple(
        _build(Well, w, f"{name}[{i}]") for i, w in enumerate(_list(wells, name))),
    "NonlinearitySpec": lambda block, name: NonlinearitySpec.saturable(
        _build(NonlinearityBlock, block, name).s),
}
_PARTS.update({cls.__name__: partial(_build, cls) for cls in
               (PotentialSpec, ProblemBlock, BoxesBlock, SweepBlock, LimitBlock, SolveBlock,
                OutputBlock)})


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
