"""The discrete-event kernel under every multi-client driver.

Each logical client is a *step generator* driven by ``send(payload)``:
it yields the simulated ns its step consumed, or :data:`WAIT` to block
until an event wakes it. Timed events (doorbell flushes, timers) share
the clients' heap, so a run is a pure function of its inputs and the
seed (DESIGN.md decision 14). Heap entries are ``(t, 0, seq, fn)`` for
timed events and ``(t, 1, priority, client)`` for clients, so at equal
times timed events run first, in scheduling order, and clients run in
a seeded priority order, ``random.Random((seed << 6) ^ salt)``, salted
per driver. Each ready client has exactly one entry; a blocked one has
none until :meth:`Kernel.wake` re-inserts it.

:class:`ShadowOracle` is the shared correctness model: a dict applied
in linearization order that every read and write is checked against,
plus a final-state check of the table's contents.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable

#: what a client yields to block until :meth:`Kernel.wake` resumes it
WAIT = object()


class Kernel:
    """One run's event heap and per-client simulated clocks."""

    def __init__(self, n_clients: int, *, seed: int, salt: int) -> None:
        order = list(range(n_clients))
        random.Random((seed << 6) ^ salt).shuffle(order)
        self.priority = [0] * n_clients
        for rank, client in enumerate(order):
            self.priority[client] = rank
        #: each client's simulated clock (ns)
        self.clock = [0.0] * n_clients
        #: the client whose step is executing, else ``None``
        self.running: int | None = None
        self._heap: list[tuple] = []
        self._seq = itertools.count()
        self._payload: dict[int, object] = {}

    def at(self, t: float, fn: Callable[[float], None]) -> None:
        """Schedule ``fn(t)`` at simulated time ``t``."""
        heapq.heappush(self._heap, (t, 0, next(self._seq), fn))

    def wake(self, client: int, t: float, payload: object) -> None:
        """Resume a blocked ``client`` at time ``t``; its pending
        ``yield`` evaluates to ``payload``."""
        self.clock[client] = t
        self._payload[client] = payload
        heapq.heappush(self._heap, (t, 1, self.priority[client], client))

    def run(self, clients: list) -> None:
        """Drive every client generator to completion. Timed events
        still pending then are dropped: nothing is left to observe
        them."""
        heap = self._heap
        clock = self.clock
        priority = self.priority
        payload = self._payload
        for client in range(len(clients)):
            heapq.heappush(heap, (clock[client], 1, priority[client], client))
        alive = len(clients)
        while alive:
            if not heap:
                raise RuntimeError("deadlock: clients blocked with no event pending")
            t, kind, _, target = heapq.heappop(heap)
            if kind == 0:
                target(t)
                continue
            self.running = target
            try:
                step = clients[target].send(payload.pop(target, None))
            except StopIteration:
                alive -= 1
                continue
            finally:
                self.running = None
            if step is WAIT:
                continue
            clock[target] += step
            heapq.heappush(heap, (clock[target], 1, priority[target], target))
        heap.clear()


class ShadowOracle:
    """The shadow model both drivers check the table against.

    ``shadow`` seeds it with the table's contents (defaults to a
    cost-free ``items()`` peek). Every message lands in ``failures``;
    ``lost_updates`` counts committed updates (or final keys) the table
    lost and ``failed_ops`` the ops that legitimately failed."""

    def __init__(self, table, shadow: dict[bytes, bytes] | None) -> None:
        self.table = table
        self.shadow = dict(shadow) if shadow is not None else dict(table.items())
        self.failures: list[str] = []
        self.failed_ops = 0
        self.lost_updates = 0

    def check_read(self, what: str, key: bytes, found: bytes | None) -> bool:
        """A read linearizes here: ``found`` must equal the shadow.
        ``what`` names the reader in the failure message."""
        expected = self.shadow.get(key)
        if found == expected:
            return True
        self.failures.append(
            f"{what} {key.hex()}: got {found.hex() if found else None}, "
            f"shadow says {expected.hex() if expected else None}"
        )
        return False

    def apply(self, op, ok) -> bool:
        """Apply one write ``op`` that returned ``ok`` at its
        linearization point, checking the table agreed with the
        shadow. Returns whether the key was live before the op."""
        key = op.key
        live = key in self.shadow
        if op.kind == "insert":
            if ok:
                if live:
                    self.failures.append(f"insert of live key {key.hex()} succeeded")
                self.shadow[key] = op.value
            else:
                self.failed_ops += 1
        elif op.kind == "update":
            if live and ok:
                self.shadow[key] = op.value
            elif live:
                self.lost_updates += 1
                self.failures.append(f"update lost live key {key.hex()}")
            else:
                if ok:
                    self.failures.append(f"update of dead key {key.hex()} succeeded")
                self.failed_ops += 1
        else:  # delete
            if bool(ok) != live:
                self.failures.append(
                    f"delete of key {key.hex()} disagrees with the shadow "
                    f"(deleted={ok}, live={live})"
                )
            if ok and live:
                del self.shadow[key]
            if not ok:
                self.failed_ops += 1
        return live

    def final_check(self) -> None:
        """The table's contents must equal the shadow exactly — anything
        else is a lost update or a phantom."""
        final = dict(self.table.items())
        for key, value in self.shadow.items():
            got = final.get(key)
            if got != value:
                self.lost_updates += 1
                self.failures.append(
                    f"final state lost key {key.hex()}: expected "
                    f"{value.hex()}, found {got.hex() if got else None}"
                )
        for key in final:
            if key not in self.shadow:
                self.failures.append(f"final state has phantom key {key.hex()}")
