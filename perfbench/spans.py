"""Spans around the calls into each ``tailsum`` layer, recorded from outside
the package.

``Tracer.install`` replaces every public module-level function and every
public classmethod of a public class in the layer modules with a wrapper,
at each binding in every loaded ``tailsum`` module that holds it, so calls
made through ``from .x import f`` are seen too.  A span is recorded per
call: name, start, end, parent span, operation id, thread id and a unit
count (observations parsed, uniforms drawn, ...).  Spans stay in memory
until ``layer_metrics`` reduces them.

A span started on a thread with no open span (a worker of the Monte Carlo
thread pool) takes as parent the innermost open span of the thread that
runs the operations, which is the call that started the worker.
"""

import functools
import importlib
import inspect
import itertools
import sys
import threading
from time import perf_counter
from typing import NamedTuple

LAYERS = ("cli", "estimators", "distributions", "limits", "combinatorics", "montecarlo")

LADDER = ("sum_product_ladder", "sum_product", "hill", "tail_moment", "tail_index")
NUMBERS = ("type_i", "type_ii", "type_iii", "variance_number", "covariance_number")

# The self time of a function goes to its bucket.  A function without one
# gives its self time to the bucket of its nearest caller in the same
# layer, else to the layer's default bucket, else to none.
BUCKETS = {
    "cli.read_observations": "cli.parse",
    "estimators.log_transform": "estimators.log_transform",
    "estimators.spacings": "estimators.spacings",
    **{f"estimators.{name}": "estimators.ladder" for name in LADDER},
    "distributions.sample_iid": "distributions.sample",
    "distributions.tau_p": "distributions.centering",
    "distributions.tau_p_at": "distributions.centering",
    "distributions.m_p_quadrature": "distributions.quadrature",
    "limits.CovarianceModel.build": "limits.model_build",
    "limits.lil_envelope": "limits.envelope",
    "montecarlo.run_experiment": "montecarlo.experiment",
    "montecarlo.limit_covariance_quadrature": "montecarlo.oracle",
}
DEFAULT_BUCKET = {"cli": "cli.self", "combinatorics": "combinatorics.numbers"}

# (calls metric, units metric, group): both count only the calls of the
# group that have no caller in the same group
COUNTED = (
    ("estimators.ladder_calls", "estimators.ladder_spacings", {f"estimators.{n}" for n in LADDER}),
    ("distributions.centering_calls", None, {"distributions.tau_p", "distributions.tau_p_at"}),
    ("distributions.quadrature_calls", None, {"distributions.m_p_quadrature"}),
    ("limits.model_build_calls", None, {"limits.CovarianceModel.build"}),
    ("combinatorics.numbers_calls", None, {f"combinatorics.{n}" for n in NUMBERS}),
    ("montecarlo.oracle_calls", "montecarlo.oracle_points", {"montecarlo.limit_covariance_quadrature"}),
    (None, "cli.parse_obs", {"cli.read_observations"}),
    (None, "distributions.sample_draws", {"distributions.sample_iid"}),
)

# metrics read 0 when one of these names is missing
NEEDED = sorted(
    {"cli.main", "distributions.m_p_value"} | set(BUCKETS) | set().union(*(c[2] for c in COUNTED))
)


def _oracle_points(args):
    config = args.get("config")
    if config is None:
        config = importlib.import_module("tailsum.montecarlo").QuadratureConfig()
    return 2 * (config.grid + 1) ** 2


# unit counts recorded with a span, from the bound arguments and the result
UNITS = {
    "cli.read_observations": lambda args, result: len(result),
    **{f"estimators.{name}": lambda args, result: args["window"].k - args["window"].l
       for name in LADDER},
    "distributions.sample_iid": lambda args, result: args["n"],
    "montecarlo.limit_covariance_quadrature": lambda args, result: _oracle_points(args),
}

class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    op: int | None
    thread: int
    units: int


class Tracer:
    def __init__(self):
        self.spans = []  # appended as calls end
        self.notes = []
        self.op = None  # id of the operation in progress
        self.names = set()  # names wrapped
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = None
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, func):
        units_of = UNITS.get(name)
        signature = inspect.signature(func) if units_of else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else None
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            result = None
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                units = self._units(name, units_of, signature, args, kwargs, result)
                self.spans.append(Span(sid, parent, name, start, end, self.op,
                                       threading.get_ident(), units))

        return wrapper

    def _units(self, name, units_of, signature, args, kwargs, result):
        if units_of is None or result is None:
            return 0
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return units_of(bound.arguments, result)
        except (KeyError, AttributeError, TypeError) as exc:
            note = f"{name}: cannot count units ({type(exc).__name__}: {exc}); they read 0"
            if note not in self.notes:
                self.notes.append(note)
            return 0

    def install(self):
        """Wrap the public functions of every layer; ``uninstall`` undoes it."""
        originals = {}  # id(function) -> wrapper
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"tailsum.{layer}")
            except ImportError as exc:
                self.notes.append(f"layer {layer} not importable ({exc}); its metrics read 0")
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    originals[id(obj)] = self._wrap(name, obj)
                    self.names.add(name)
                elif inspect.isclass(obj):
                    for method, descriptor in list(vars(obj).items()):
                        if method.startswith("_") or not isinstance(descriptor, classmethod):
                            continue
                        name = f"{layer}.{attr}.{method}"
                        setattr(obj, method, classmethod(self._wrap(name, descriptor.__func__)))
                        self._restore.append((obj, method, descriptor))
                        self.names.add(name)
        for modname, module in list(sys.modules.items()):
            if modname != "tailsum" and not modname.startswith("tailsum."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None and obj is wrapper.__wrapped__:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, obj))
        for name in NEEDED:
            if name not in self.names:
                self.notes.append(f"{name} not found; the metrics that use it read 0")
        self._root_stack = self._stack()

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _covered(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def layer_metrics(spans, scale):
    """Per-operation layer metrics from the spans of the operations keyed
    in ``scale``, which maps an operation id to the factor that takes its
    times to reference speed.

    Returns the metrics, as name -> (value, unit), and the number of spans
    that do not nest inside their operation's ``cli.main`` span.  Times are
    self times: a span's duration less the part its child spans cover.
    """
    by_id = {s.id: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))

    def layer(s):
        return s.name.split(".", 1)[0]

    times = dict.fromkeys(sorted(set(BUCKETS.values()) | set(DEFAULT_BUCKET.values())), 0.0)
    calls = {}
    counted = {}
    unnested = 0
    for s in spans:
        chain = [s]
        while chain[-1].parent in by_id:
            chain.append(by_id[chain[-1].parent])
        if chain[-1].name != "cli.main" or any(
            p.op != s.op or p.start > c.start or p.end < c.end for c, p in zip(chain, chain[1:])
        ):
            unnested += 1
        same_layer = itertools.takewhile(lambda a: layer(a) == layer(s), chain)
        bucket = next((BUCKETS[a.name] for a in same_layer if a.name in BUCKETS),
                      DEFAULT_BUCKET.get(layer(s)))
        if bucket is not None:
            covered = _covered(children.get(s.id, ()), s.start, s.end)
            times[bucket] += (s.end - s.start - covered) * scale.get(s.op, 1.0)
        calls[s.name] = calls.get(s.name, 0) + 1
        for calls_metric, units_metric, group in COUNTED:
            if s.name in group and not any(a.name in group for a in chain[1:]):
                for metric, add in ((calls_metric, 1), (units_metric, s.units)):
                    if metric is not None:
                        counted[metric] = counted.get(metric, 0) + add

    n = len(scale)
    m = {f"{bucket}_s": (t / n, "s/op") for bucket, t in times.items()}
    for calls_metric, units_metric, _ in COUNTED:
        for metric in (calls_metric, units_metric):
            if metric is not None:
                m[metric] = (counted.get(metric, 0) / n, "count/op")
    quadrature = calls.get("distributions.m_p_quadrature", 0)
    values = calls.get("distributions.m_p_value", 0)
    m["distributions.quadrature_share"] = (quadrature / values if values else 0.0, "ratio")
    return dict(sorted(m.items())), unnested
