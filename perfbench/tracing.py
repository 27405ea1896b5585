"""Wall-clock tracing of the calls the benchmark makes into each layer.

Tracing is attached to *instances*, never to classes: each traced object
gets a private subclass of its own class (``obj.__class__`` is swapped)
whose public methods wrap the originals. Other instances of the same
class, and the library's code, are untouched.

Two kinds of wrapper:

- **span** (table level and above: tables, indexes, the slab, crash
  harnesses): every call records one span — name, start, end and the
  span that was open when it started (its parent). Spans live in flat
  arrays so a long run stays compact.
- **nvm** (memory backends): calls are too frequent for spans, so only
  the outermost backend call is timed, and per-method call counts and
  busy time are kept. Each outermost backend call's time is also
  charged to the span open at that moment, so a span's self time
  excludes the memory layer below it.

Self time of a span = its duration - the durations of its child spans
- the backend time charged directly to it (:func:`self_times`).
"""

from __future__ import annotations

import contextlib
import inspect
import time
from array import array

_clock = time.perf_counter


class Tracer:
    """Span and backend-call recorder for one traced episode."""

    def __init__(self) -> None:
        #: span name id -> (layer, span name)
        self.names: list[tuple[str, str]] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: backend busy time charged directly to each span
        self.span_nvm = array("d")
        self._stack: list[int] = []
        #: items passed to ``*_many`` calls, per span name id
        self.items: dict[int, int] = {}
        #: backend method -> [outermost calls, busy seconds]
        self.nvm: dict[str, list] = {}
        self._nvm_depth = 0
        #: outermost calls per instance tag (shard skew)
        self.tag_calls: dict[str, int] = {}
        #: (instance, its own class) for every traced instance
        self._traced: list[tuple[object, type]] = []

    # ------------------------------------------------------------------
    # recording

    def name_id(self, layer: str, name: str) -> int:
        """Intern ``name`` (belonging to ``layer``); returns its id."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append((layer, name))
        return nid

    def open(self, nid: int) -> int:
        """Start a span; returns its index."""
        idx = len(self.span_name)
        stack = self._stack
        self.span_name.append(nid)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_nvm.append(0.0)
        self.span_end.append(0.0)
        stack.append(idx)
        self.span_start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        """End the span ``idx`` (the innermost open one)."""
        self.span_end[idx] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        """Record one span around a ``with`` block."""
        idx = self.open(self.name_id(layer, name))
        try:
            yield
        finally:
            self.close(idx)

    # ------------------------------------------------------------------
    # attaching to instances

    def trace_spans(self, obj, layer: str, *, tag: str | None = None):
        """Record a span for every public method call on ``obj``;
        ``tag`` counts ``obj``'s outermost calls under that name."""
        tracer = self
        depth = [0]

        def make(method: str, fn):
            nid = tracer.name_id(layer, f"{layer}.{method}")
            many = method.endswith("_many")

            def wrapper(inner, *args, **kwargs):
                if many:
                    tracer.items[nid] = tracer.items.get(nid, 0) + len(args[0])
                depth[0] += 1
                idx = tracer.open(nid)
                try:
                    return fn(inner, *args, **kwargs)
                finally:
                    tracer.close(idx)
                    depth[0] -= 1
                    if tag is not None and depth[0] == 0:
                        tracer.tag_calls[tag] = tracer.tag_calls.get(tag, 0) + 1

            return wrapper

        self._swap_class(obj, make)

    def trace_nvm(self, backend):
        """Count and time every outermost public call on ``backend``."""
        tracer = self

        def make(method: str, fn):
            slot = tracer.nvm.setdefault(method, [0, 0.0])

            def wrapper(inner, *args, **kwargs):
                if tracer._nvm_depth:
                    return fn(inner, *args, **kwargs)
                tracer._nvm_depth = 1
                t0 = _clock()
                try:
                    return fn(inner, *args, **kwargs)
                finally:
                    dt = _clock() - t0
                    tracer._nvm_depth = 0
                    slot[0] += 1
                    slot[1] += dt
                    stack = tracer._stack
                    if stack:
                        tracer.span_nvm[stack[-1]] += dt

            return wrapper

        self._swap_class(backend, make)

    def _swap_class(self, obj, make) -> None:
        """Give ``obj`` a private subclass whose public methods are
        ``make(name, original)``. ``__slots__ = ()`` keeps the instance
        layout, so slotted classes can be swapped too."""
        cls = type(obj)
        namespace = {"__slots__": ()}
        for name in _public_methods(cls):
            namespace[name] = make(name, getattr(cls, name))
        obj.__class__ = type(cls.__name__, (cls,), namespace)
        self._traced.append((obj, cls))

    def detach(self) -> None:
        """Stop tracing: give every traced instance its own class back."""
        for obj, cls in self._traced:
            obj.__class__ = cls
        self._traced.clear()

    # ------------------------------------------------------------------
    # analysis

    def spans(self) -> list[tuple[int, int, float, float, float]]:
        """Every span as ``(name id, parent, start, end, backend s)``."""
        return list(
            zip(
                self.span_name,
                self.span_parent,
                self.span_start,
                self.span_end,
                self.span_nvm,
            )
        )

    def by_name(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s``, ``self_s``
        and ``items`` (for ``*_many`` methods)."""
        selfs = self_times(self.spans())
        out: dict[str, dict[str, float]] = {}
        for (nid, _, start, end, _), own in zip(self.spans(), selfs):
            entry = out.setdefault(
                self.names[nid][1],
                {"calls": 0, "total_s": 0.0, "self_s": 0.0, "items": 0},
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
        for nid, n in self.items.items():
            out[self.names[nid][1]]["items"] = n
        return out

    def layer_self(self) -> dict[str, float]:
        """Summed self time of the spans of each layer."""
        out: dict[str, float] = {}
        for nid, own in zip(self.span_name, self_times(self.spans())):
            layer = self.names[nid][0]
            out[layer] = out.get(layer, 0.0) + own
        return out

    def calls_with_child(self, parent: str, child: str) -> int:
        """How many ``parent`` spans have at least one direct ``child``
        span (e.g. batch calls that fell back to scalar calls)."""
        pid = self._name_ids.get(parent)
        cid = self._name_ids.get(child)
        return len(
            {
                up
                for nid, up in zip(self.span_name, self.span_parent)
                if nid == cid and up >= 0 and self.span_name[up] == pid
            }
        )

    @property
    def nvm_self_s(self) -> float:
        """Busy time of all outermost backend calls."""
        return sum(busy for _, busy in self.nvm.values())


def self_times(spans) -> list[float]:
    """Self time of each span in ``spans``.

    ``spans`` is a list of ``(name, parent index or -1, start, end,
    backend seconds)``; a span's self time is its duration minus its
    children's durations minus the backend time charged to it."""
    out = [end - start - nvm for _, _, start, end, nvm in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _public_methods(cls) -> list[str]:
    """Names of the plain public methods of ``cls`` (no properties,
    no generator functions, whose spans would close before any work)."""
    names = []
    for name in dir(cls):
        if name.startswith("_"):
            continue
        attr = inspect.getattr_static(cls, name)
        if inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
            names.append(name)
    return names

