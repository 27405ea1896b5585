"""The observer bus: detachable event observers over one event source.

Backends (``hook(kind, addr, size)`` per store/flush/fence) and wear
maps (``fn(line)`` per medium line write) each keep one
:class:`ObserverList`. ``observe(fn)`` appends an observer and returns
an :class:`ObserverHandle`; ``handle.close()`` removes exactly that
observer, whatever else was attached or detached in between. After
every change the list publishes one *dispatcher* to its owner: ``None``
when empty (so the owner's single ``is not None`` test keeps its fast
path), the observer itself when there is one, and a fan-out over a
snapshot of the list otherwise. Observers run in attach order.

Only handles hold the owner's ``publish`` callback, never the list, so
an owner with no observers is not part of a reference cycle and its
(large) memory images are freed as soon as it is dropped.
"""

from __future__ import annotations

from typing import Callable


class ObserverHandle:
    """Detaches one observer registration; closing twice is a no-op."""

    __slots__ = ("_close",)

    def __init__(self, close: Callable[[], None]) -> None:
        self._close: Callable[[], None] | None = close

    def close(self) -> None:
        """Stop the observer; every other observer keeps running."""
        close, self._close = self._close, None
        if close is not None:
            close()


class ObserverList:
    """Ordered observers of one source."""

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list[tuple[object, Callable]] = []

    def add(
        self, fn: Callable, publish: Callable[[Callable | None], None]
    ) -> ObserverHandle:
        """Append ``fn``, hand ``publish`` the new dispatcher, and return
        the handle that removes ``fn`` (and publishes again)."""
        token = object()
        self._entries.append((token, fn))
        publish(self._dispatcher())
        return ObserverHandle(lambda: self._remove(token, publish))

    def _remove(self, token: object, publish) -> None:
        self._entries = [e for e in self._entries if e[0] is not token]
        publish(self._dispatcher())

    def _dispatcher(self) -> Callable | None:
        fns = tuple(fn for _, fn in self._entries)
        if not fns:
            return None
        if len(fns) == 1:
            return fns[0]

        def dispatch(*args) -> None:
            for fn in fns:
                fn(*args)

        return dispatch
