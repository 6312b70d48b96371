"""Layer tracing from outside the program.

The tracer wraps the public functions of every `grossen` module, and a few
named methods, in timing wrappers.  Modules import each other by name
(`from .grossenchar import evaluate`), so each wrapper is rebound under
every name in every `grossen` module that holds the original object.
Nothing under src/ changes, and a process that does not call `install`
runs the program untouched.

Every wrapped call is a frame on one stack.  A frame's self time is its
duration minus the durations of the frames it directly contains, so the
self times of all frames inside one operation sum exactly (in integer
nanoseconds) to the operation's duration.  Calls of ordinary functions are
also kept as spans: (name, start, end, parent span, op id).  The hottest
dunders and per-construction hooks are aggregated only (count, summed
time, self time): one span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

# Per-call frames that are aggregated, not kept as spans: method path ->
# metric name.
AGGREGATED_METHODS = {
    ("quadfield", "QIdeal", "__mul__"): "quadfield.ideal_mul",
    ("quadfield", "QIdeal", "__post_init__"): "quadfield.ideal_new",
    ("valuefield", "AlgebraElement", "__mul__"): "valuefield.alg_mul",
}
# Module functions called millions of times: aggregated as well.
AGGREGATED_FUNCTIONS = frozenset({"abelian.xgcd"})
# Methods kept as spans like module functions.
SPAN_METHODS = {
    ("quadfield", "QIdeal", "is_principal"): "quadfield.is_principal",
    ("resunits", "UnitsStructure", "dlog"): "resunits.dlog",
}
# The operation frame the benchmark opens around each op.
OP_NAME = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls = array("q")
        self.total_ns = array("q")
        self.self_ns = array("q")
        self.failed = array("q")
        # frames: [name id, start ns, child ns, span index or -1]
        self._stack: list[list[int]] = []
        self.op_id = -1
        self._self_before = 0
        # ops whose frames' self times do not sum to the op's duration
        self.self_sum_mismatches = 0
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_op = array("i")

    # -- bookkeeping ------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            for arr in (self.calls, self.total_ns, self.self_ns, self.failed):
                arr.append(0)
        return nid

    def _enter(self, nid: int, record: bool) -> list[int]:
        stack = self._stack
        span = -1
        if record:
            span = len(self.span_name)
            self.span_name.append(nid)
            self.span_start.append(0)
            self.span_end.append(0)
            self.span_parent.append(stack[-1][3] if stack else -1)
            self.span_op.append(self.op_id)
        frame = [nid, 0, 0, span]
        stack.append(frame)
        frame[1] = start = perf_counter_ns()
        if span >= 0:
            self.span_start[span] = start
        return frame

    def _exit(self, frame: list[int]) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        nid, start, child, span = frame
        dur = end - start
        self.total_ns[nid] += dur
        self.self_ns[nid] += dur - child
        if stack:
            stack[-1][2] += dur
        if span >= 0:
            self.span_end[span] = end

    # -- operations -------------------------------------------------------

    def begin_op(self, op_id: int) -> list[int]:
        self.op_id = op_id
        self.active = True
        nid = self.name_id(OP_NAME)
        self.calls[nid] += 1
        self._self_before = sum(self.self_ns)
        return self._enter(nid, True)

    def end_op(self, frame: list[int]) -> None:
        self._exit(frame)
        self.active = False
        if self._stack:
            raise RuntimeError("unbalanced trace frames")
        op_ns = self.span_end[frame[3]] - frame[1]
        if sum(self.self_ns) - self._self_before != op_ns:
            self.self_sum_mismatches += 1

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, record: bool = True):
        nid = self.name_id(name)
        tracer = self
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                if tracer.active:
                    tracer.calls[nid] += 1
                while True:
                    if not tracer.active:
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        yield item
                        continue
                    frame = tracer._enter(nid, record)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        tracer.failed[nid] += 1
                        raise
                    finally:
                        tracer._exit(frame)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer.calls[nid] += 1
            frame = tracer._enter(nid, record)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.failed[nid] += 1
                raise
            finally:
                tracer._exit(frame)
        return wrapper

    # -- results ----------------------------------------------------------

    def stats(self, name: str) -> tuple[int, float, float, int]:
        """(calls, seconds, self seconds, failed calls) of one name."""
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0, 0
        return (self.calls[nid], self.total_ns[nid] / 1e9,
                self.self_ns[nid] / 1e9, self.failed[nid])

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds summed per layer (the name's first component)."""
        out: dict[str, int] = {}
        for nid, name in enumerate(self.names):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0) + self.self_ns[nid]
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def dump(self, path: str) -> None:
        """Write every span, gzip'd: one JSON header line (names, columns,
        count, byte order), then each column as raw machine integers."""
        columns = (("name", self.span_name), ("start_ns", self.span_start),
                   ("end_ns", self.span_end), ("parent", self.span_parent),
                   ("op", self.span_op))
        header = {"names": self.names, "spans": len(self.span_name),
                  "byteorder": sys.byteorder,
                  "columns": [[c, arr.typecode, arr.itemsize]
                              for c, arr in columns]}
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                fh.write(arr.tobytes())


def _public_callables(module):
    prefix = module.__name__
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type):
            continue
        if callable(obj) and getattr(obj, "__module__", None) == prefix:
            yield attr, obj


def install(tracer: Tracer, package) -> None:
    """Wrap the public functions of the package's modules and the methods
    named above, rebinding every name that holds an original."""
    import importlib
    import pkgutil

    modules = {info.name: importlib.import_module(f"{package.__name__}.{info.name}")
               for info in pkgutil.iter_modules(package.__path__)
               if not info.name.startswith("_")}
    namespaces = [vars(package)] + [vars(m) for m in modules.values()]
    replaced: dict[int, tuple] = {}
    for short, module in modules.items():
        for attr, obj in list(_public_callables(module)):
            name = f"{short}.{attr}"
            replaced[id(obj)] = (obj, tracer.wrap(
                name, obj, record=name not in AGGREGATED_FUNCTIONS))
    for ns in namespaces:
        for attr, obj in list(ns.items()):
            hit = replaced.get(id(obj))
            if hit is not None and hit[0] is obj:
                ns[attr] = hit[1]
    for table, record in ((AGGREGATED_METHODS, False), (SPAN_METHODS, True)):
        for (short, cls_name, meth), name in table.items():
            cls = getattr(modules[short], cls_name)
            orig = cls.__dict__[meth]
            wrapped = tracer.wrap(name, orig, record=record)
            for attr, obj in list(cls.__dict__.items()):
                if obj is orig:     # __rmul__ = __mul__ aliases too
                    setattr(cls, attr, wrapped)
