"""Outside-in instrumentation of fracstates.

The benchmark never edits the package. It replaces functions from the
outside instead, and because the package binds names with
``from .x import y``, a function is replaced at *every* place a fracstates
module (or a module-level dict such as ``cli.STAGES``) holds it, not only
where it is defined.

Two instruments share that machinery:

* ``OpRecorder`` wraps only the op-level calls (``solve_constrained`` and
  ``solve_branches``). It runs the correctness gate on each result as it
  returns and stamps the first solve, which ends set-up. It is all the
  untraced run installs; it adds microseconds per solve.
* ``Tracer`` wraps every public function and method of the layer modules,
  the private ``cli._write_json`` and ``localization._probe_alpha_bar``, and
  the FFT entry points of ``numpy.fft`` (and ``scipy.fft`` when it is
  loaded). Coarse calls become spans (name, layer, start, end, parent, run
  id); hot leaves (grid operators, FFTs, nonlinearity passes, kernels, and
  the energy/gradient evaluations) are aggregated into per-parent-span
  counts, time and touched points instead of one span each.
"""

import functools
import importlib
import inspect
import sys
import time

import numpy as np

LAYERS = (
    "grid", "models", "_kernels", "variational", "solver",
    "localization", "diagnostics", "config", "cli",
)
PRIVATE_TARGETS = {"cli": ("_write_json",), "localization": ("_probe_alpha_bar",)}
# hot variational leaves; project_to_nehari stays a span
LEAF_VARIATIONAL = {"energy", "gradient", "norm_eps_sq", "theta_defect"}
FFT_FUNCS = (
    "fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
    "fftn", "ifftn", "rfftn", "irfftn",
)
FFT_NAMESPACES = ("numpy.fft", "scipy.fft")
NONLINEARITY_CLASS = "NonlinearitySpec"
# leaf groups whose calls carry array sizes
MEASURED_GROUPS = {"nonlinearity", "kernels", "fft"}


class Target:
    """One traced callable and where it is defined."""

    def __init__(self, layer, name, owner, attr, func, group):
        self.layer = layer
        self.name = name  # e.g. "variational.energy", "models.NonlinearitySpec.rate_sum"
        self.owner = owner  # module or class that defines it
        self.attr = attr
        self.func = func
        self.group = group  # None for spans, else the leaf group


def loaded_layers():
    """The layer modules already imported; modules imported later bind the
    wrappers through their own ``from .x import y``."""
    return {layer: sys.modules[f"fracstates.{layer}"] for layer in LAYERS
            if f"fracstates.{layer}" in sys.modules}


def _leaf_group(layer, attr, cls):
    if layer == "_kernels":
        return "kernels"
    if layer == "models":
        return "nonlinearity" if cls is not None and cls.__name__ == NONLINEARITY_CLASS else "models"
    if layer == "grid":
        return "grid"
    if layer == "variational" and attr in LEAF_VARIATIONAL:
        return "variational"
    return None


def discover(load_fft=False):
    """Every traced callable of the loaded layers: public module functions
    and public methods of classes defined there, the listed private phases,
    and the FFT entry points.

    numpy loads ``numpy.fft`` lazily, on first use; ``load_fft`` imports the
    FFT namespaces first so that their entry points can be wrapped before
    the program touches them.
    """
    if load_fft:
        for ns_name in FFT_NAMESPACES:
            try:
                importlib.import_module(ns_name)
            except ImportError:
                pass
    targets = []
    for layer, mod in loaded_layers().items():
        for attr, obj in sorted(vars(mod).items()):
            wanted = not attr.startswith("_") or attr in PRIVATE_TARGETS.get(layer, ())
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and wanted:
                targets.append(Target(layer, f"{layer.lstrip('_')}.{attr}", mod, attr, obj,
                                      _leaf_group(layer, attr, None)))
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                for mname, meth in sorted(vars(obj).items()):
                    if inspect.isfunction(meth) and not mname.startswith("_"):
                        targets.append(Target(layer, f"{layer.lstrip('_')}.{attr}.{mname}", obj,
                                              mname, meth, _leaf_group(layer, mname, obj)))
    for ns_name in FFT_NAMESPACES:
        ns = sys.modules.get(ns_name)
        if ns is None:
            continue
        for fname in FFT_FUNCS:
            func = getattr(ns, fname, None)
            if callable(func):
                targets.append(Target("grid", f"fft.{ns_name.split('.')[0]}.{fname}", ns, fname,
                                      func, "fft"))
    return targets


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fracstates" or name.startswith("fracstates."))]


def _holders():
    """(label, value, rebind) for every place through which fracstates can
    reach a callable: module globals; items of module-level dicts, lists and
    tuples; class attributes of package classes; default arguments and
    closure cells of package functions. ``rebind`` is None where the place
    cannot be rebound (tuple items, default arguments)."""
    for mod in _package_modules():
        scope = vars(mod)
        for key, val in list(scope.items()):
            if key.startswith("__"):
                continue
            label = f"{mod.__name__}.{key}"
            yield label, val, functools.partial(scope.__setitem__, key)
            if isinstance(val, (dict, list)):
                items = val.items() if isinstance(val, dict) else enumerate(val)
                for k, v in list(items):
                    yield f"{label}[{k!r}]", v, functools.partial(val.__setitem__, k)
            elif isinstance(val, tuple):
                for i, v in enumerate(val):
                    yield f"{label}[{i}]", v, None
            elif inspect.isclass(val) and val.__module__.startswith("fracstates"):
                for k, v in list(vars(val).items()):
                    yield f"{label}.{k}", v, functools.partial(setattr, val, k)
            fn = inspect.unwrap(val) if inspect.isfunction(val) else None
            if fn is None or not fn.__module__.startswith("fracstates"):
                continue
            for d in (fn.__defaults__ or ()) + tuple((fn.__kwdefaults__ or {}).values()):
                yield f"{label} default", d, None
            for name, cell in zip(fn.__code__.co_freevars, fn.__closure__ or ()):
                try:
                    v = cell.cell_contents
                except ValueError:  # empty cell
                    continue
                yield f"{label} closure {name}", v, functools.partial(setattr, cell, "cell_contents")


def _rebind(replacements):
    """Point every rebindable holder of an original callable at its wrapper."""
    by_id = {id(orig): new for orig, new in replacements}
    for _, val, rebind in list(_holders()):
        new = by_id.get(id(val))
        if new is not None and rebind is not None:
            rebind(new)


def install(targets, wrap):
    """Replace each target by wrap(target), unless that is None, at its
    definition and every alias, for the rest of the process."""
    pairs = [(t, wrap(t)) for t in targets]
    pairs = [(t, new) for t, new in pairs if new is not None]
    for t, new in pairs:
        setattr(t.owner, t.attr, new)
    _rebind([(t.func, new) for t, new in pairs])


def unwrapped_aliases(targets):
    """Holders in fracstates that still reach an original target."""
    originals = {id(t.func): t.name for t in targets}
    return [f"{label} -> {originals[id(val)]}" for label, val, _ in _holders()
            if id(val) in originals]


# --------------------------------------------------------------------------
# op recorder (untraced and traced runs)
# --------------------------------------------------------------------------

OP_FUNCS = {"solver.solve_constrained": "solve", "localization.solve_branches": "branches"}


class SolveRecord:
    """What the gate needs from one constrained solve; the result itself is
    not kept, so the recorder holds no field alive."""

    def __init__(self, energy, reasons):
        self.energy = energy
        self.reasons = reasons


class OpRecorder:
    """Records every constrained solve and stamps the monotonic time of the
    first one.

    ``solve_gate(result)`` and ``branch_gate(experiment)`` return failure
    reasons (one list per branch for the latter). They run as each call
    returns; branch reasons land on the solves made inside that
    ``solve_branches`` call, which are its branches in order.
    """

    def __init__(self, error_type, solve_gate, branch_gate, on_first_solve=None):
        self.error_type = error_type
        self.solve_gate = solve_gate
        self.branch_gate = branch_gate
        self.on_first_solve = on_first_solve
        self.first_solve = None
        self.solves = []

    def wrap(self, target):
        kind = OP_FUNCS.get(target.name)
        if kind is None:
            return None
        fn = target.func
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.first_solve is None and kind == "solve":
                rec.first_solve = time.monotonic()
                if rec.on_first_solve is not None:
                    rec.on_first_solve(rec.first_solve)
            start = len(rec.solves)
            try:
                out = fn(*args, **kwargs)
            except rec.error_type as exc:
                if kind == "solve":
                    rec.solves.append(SolveRecord(None, [f"raised {type(exc).__name__}"]))
                raise
            if kind == "solve":
                rec.solves.append(SolveRecord(out.energy, rec.solve_gate(out)))
            else:
                for solve, reasons in zip(rec.solves[start:], rec.branch_gate(out)):
                    solve.reasons += reasons
            return out

        return wrapper


# --------------------------------------------------------------------------
# tracer (traced run only)
# --------------------------------------------------------------------------


class Span:
    __slots__ = ("id", "name", "layer", "parent", "start", "end", "self_s", "error",
                 "leaves", "info")

    def __init__(self, sid, name, layer, parent):
        self.id = sid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = self.self_s = 0.0
        self.error = None
        self.leaves = {}  # leaf name -> [calls, outer calls, outer s, all s, outer points, outer bytes, max points]
        self.info = None

    @property
    def duration(self):
        return self.end - self.start

    def to_json(self, run_id):
        return {
            "id": self.id, "name": self.name, "layer": self.layer, "parent": self.parent,
            "run": run_id, "start": self.start, "end": self.end, "self_s": self.self_s,
            "error": self.error, "info": self.info,
            "leaves": {k: dict(zip(("calls", "outer_calls", "outer_s", "all_s", "points",
                                    "bytes", "max_points"), v))
                       for k, v in self.leaves.items()},
        }


def _array_points(args, out):
    """(points of the first array argument or array result, arrays read)."""
    points = 0
    arrays = 0
    for a in args:
        if isinstance(a, np.ndarray):
            arrays += 1
            if not points:
                points = a.size
    if isinstance(out, np.ndarray) and out.size > points:
        points = out.size
    return points, arrays


class Tracer:
    """Records spans and per-parent leaf aggregates in memory.

    A frame is [child seconds, nearest span, group]; a call's self time is
    its duration minus the time of the frames directly under it. A leaf call
    is "outer" when its parent frame belongs to another group, so a
    nonlinearity pass that calls another one (``f`` -> ``triple``) counts
    once.
    """

    def __init__(self, run_id):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.root = Span(0, "workload", "bench", None)
        self.spans = []
        self.stack = [[0.0, self.root, "span"]]
        self._next_id = 1

    def start(self):
        self.root.start = time.perf_counter() - self.origin

    def finish(self):
        root = self.root
        root.end = time.perf_counter() - self.origin
        root.self_s = root.duration - self.stack[0][0]
        self.spans.append(root)

    def wrap(self, target, inner=None):
        fn = inner or target.func
        if target.group is None:
            return self._span(target, fn)
        return self._leaf(target, fn)

    def _span(self, target, fn):
        stack, spans, perf, origin = self.stack, self.spans, time.perf_counter, self.origin
        name, layer = target.name, target.layer.lstrip("_")
        tracer = self
        want_iterations = name == "solver.solve_constrained"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = Span(tracer._next_id, name, layer, parent[1].id)
            tracer._next_id += 1
            frame = [0.0, span, "span"]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                if want_iterations:
                    span.info = {"iterations": int(out.iterations)}
                return out
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                span.start, span.end = t0 - origin, t1 - origin
                span.self_s = dur - frame[0]
                spans.append(span)

        return wrapper

    def _leaf(self, target, fn):
        stack, perf = self.stack, time.perf_counter
        name, group = target.name, target.group
        measured = group in MEASURED_GROUPS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, parent[1], group]
            stack.append(frame)
            out = None
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                dur = perf() - t0
                stack.pop()
                parent[0] += dur
                leaves = parent[1].leaves
                agg = leaves.get(name)
                if agg is None:
                    agg = leaves[name] = [0, 0, 0.0, 0.0, 0, 0, 0]
                agg[0] += 1
                agg[3] += dur
                if parent[2] != group:
                    agg[1] += 1
                    agg[2] += dur
                    if measured:
                        points, arrays = _array_points(args, out)
                        agg[4] += points
                        agg[5] += 8 * points * max(arrays, 1)
                        if points > agg[6]:
                            agg[6] = points

        return wrapper
