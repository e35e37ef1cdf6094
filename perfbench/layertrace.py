"""Per-layer host-time attribution for the ``repro`` simulator.

The tracer wraps every function and method defined in ``repro`` (the
public ones and the private callbacks the event kernel schedules) so
the benchmark can say how much host time each layer spent, without
touching the program's source.  A *layer* is a top-level package,
``repro.<layer>``; the twelve in :data:`LAYERS` are reported by name and
every other package (``runtime``, ``bench``, ``obs``, ...) is folded
into ``other``.

A span opens only where control crosses from one layer into another:
a call from ``repro.rma`` into ``repro.rma`` adds no span.  Each span
records (name, start, end, parent).  A layer's *self time* is the
duration of its spans minus the time their child spans cover, and its
*calls* count is the number of spans it opened.

Generator functions (every simulated operation is one) are wrapped in
a transparent proxy that opens a span around each resume of the
generator, so the time a rank's program spends inside ``rma.put``
between two simulated waits is charged to ``rma`` and not to the
kernel that resumed it.

The wrappers never change arguments, return values, exceptions or the
order of calls, and they do not switch on ``World(trace=True)``: the
same code paths run traced and untraced.  Only host time changes.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from array import array
from typing import Dict, List, Tuple

__all__ = ["LAYERS", "OTHER", "LayerTracer", "repro_modules"]

#: The layers reported by name, each a ``repro.<layer>`` package.
LAYERS = ("sim", "machine", "network", "topo", "datatypes", "mpi", "rma",
          "pgas", "ga", "check", "consistency", "ir")
#: Bucket for every other ``repro`` package.
OTHER = "other"

_LAYER_INDEX = {name: i for i, name in enumerate(LAYERS)}
_OTHER_INDEX = len(LAYERS)
#: Sentinel layer of the root frame (the benchmark's own code).
_ROOT = -1
#: Dunder methods worth a span; the rest (comparisons, hashing, repr)
#: are too small and too frequent to attribute.
_DUNDERS = ("__init__", "__call__")


def layer_of(module_name: str) -> int:
    """The layer index of a ``repro.<pkg>...`` module name."""
    parts = module_name.split(".")
    return _LAYER_INDEX.get(parts[1], _OTHER_INDEX) if len(parts) > 1 \
        else _OTHER_INDEX


def repro_modules() -> List[types.ModuleType]:
    """Every loaded ``repro`` module, in name order."""
    return [sys.modules[name] for name in sorted(sys.modules)
            if (name == "repro" or name.startswith("repro."))
            and sys.modules[name] is not None]


class LayerTracer:
    """Wraps ``repro`` in place; :meth:`uninstall` restores it exactly.

    ``span_cap`` bounds how many spans (the first ones opened) are kept
    in memory for :meth:`write_spans`; self time and call counts are
    accumulated for every span regardless.
    """

    def __init__(self, span_cap: int = 200_000) -> None:
        n = len(LAYERS) + 1
        self.self_s = [0.0] * n
        self.calls = [0] * n
        self.names: List[str] = []
        self.span_cap = span_cap
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._next_span = 0
        # Frame: [layer, name id, start, child time, span id].
        self._stack: List[list] = [[_ROOT, -1, 0.0, 0.0, -1]]
        self._patched: List[Tuple[object, str, object]] = []

    # -- accounting ------------------------------------------------------
    def reset(self) -> None:
        """Zero the per-layer totals (spans already kept stay kept)."""
        n = len(self.self_s)
        self.self_s[:] = [0.0] * n
        self.calls[:] = [0] * n

    def totals(self) -> Dict[str, Tuple[float, int]]:
        """``{layer: (self seconds, calls)}`` including ``other``."""
        names = LAYERS + (OTHER,)
        return {names[i]: (self.self_s[i], self.calls[i])
                for i in range(len(names))}

    def write_spans(self, path: str) -> None:
        """Write the kept spans as tab-separated
        ``id name start end parent`` lines, in the order they closed
        (times in host seconds since the earliest kept span; ``parent``
        is -1 for a span the benchmark itself opened)."""
        t0 = min(self.span_start, default=0.0)
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.span_id[i]}\t"
                         f"{self.names[self.span_name[i]]}\t"
                         f"{self.span_start[i] - t0:.9f}\t"
                         f"{self.span_end[i] - t0:.9f}\t"
                         f"{self.span_parent[i]}\n")

    # -- wrappers --------------------------------------------------------
    def _name_id(self, qualname: str) -> int:
        self.names.append(qualname)
        return len(self.names) - 1

    def _wrap_function(self, fn, layer: int, name_id: int):
        stack = self._stack
        clock = time.perf_counter
        self_s = self.self_s
        calls = self.calls
        tracer = self

        def enter():
            frame = [layer, name_id, 0.0, 0.0, tracer._next_span]
            tracer._next_span += 1
            stack.append(frame)
            frame[2] = clock()
            return frame

        def leave(frame):
            end = clock()
            dur = end - frame[2]
            stack.pop()
            self_s[layer] += dur - frame[3]
            calls[layer] += 1
            parent = stack[-1]
            parent[3] += dur
            if frame[4] < tracer.span_cap:
                tracer.span_id.append(frame[4])
                tracer.span_name.append(name_id)
                tracer.span_start.append(frame[2])
                tracer.span_end.append(end)
                tracer.span_parent.append(parent[4])

        if fn.__code__.co_flags & inspect.CO_GENERATOR:
            def proxy(*args, **kwargs):
                gen = fn(*args, **kwargs)
                value = None
                exc = None
                while True:
                    frame = enter() if stack[-1][0] != layer else None
                    try:
                        yielded = (gen.send(value) if exc is None
                                   else gen.throw(exc))
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        if frame is not None:
                            leave(frame)
                    exc = None
                    try:
                        value = yield yielded
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as err:  # forwarded, not handled
                        exc = err
                        value = None
            wrapper = proxy
        else:
            def call(*args, **kwargs):
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                frame = enter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    leave(frame)
            wrapper = call
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__module__ = fn.__module__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every function and method defined in a loaded ``repro``
        module, and re-point every module-level alias of a wrapped
        function (``from x import f``) at its wrapper."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = repro_modules()
        wrapped: Dict[int, object] = {}
        seen_classes = set()
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and \
                        obj.__module__ == mod.__name__:
                    w = self._wrap_function(
                        obj, layer_of(mod.__name__),
                        self._name_id(f"{mod.__name__}.{obj.__qualname__}"))
                    wrapped[id(obj)] = w
                    self._set(mod, attr, w)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__ \
                        and id(obj) not in seen_classes:
                    seen_classes.add(id(obj))
                    self._wrap_class(obj, layer_of(mod.__name__))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None and vars(mod)[attr] is not w:
                    self._set(mod, attr, w)

    def _wrap_class(self, cls: type, layer: int) -> None:
        if issubclass(cls, BaseException):
            return
        from enum import Enum

        if issubclass(cls, Enum):
            return
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("__") and attr not in _DUNDERS:
                continue
            name = f"{cls.__module__}.{cls.__qualname__}.{attr}"
            if isinstance(obj, types.FunctionType):
                self._set(cls, attr, self._wrap_function(
                    obj, layer, self._name_id(name)))
            elif isinstance(obj, (staticmethod, classmethod)) and \
                    isinstance(obj.__func__, types.FunctionType):
                self._set(cls, attr, type(obj)(self._wrap_function(
                    obj.__func__, layer, self._name_id(name))))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
