"""Pluggable memory backends behind one protocol.

Every hash table in this repository is written against
:class:`MemoryBackend` — the read/write/persist/fence/alloc/crash/stats
surface that :class:`~repro.nvm.memory.NVMRegion` pioneered — rather
than against the concrete simulator class. Three implementations ship:

- :class:`SimBackend` — the full cacheline/latency simulator
  (:class:`~repro.nvm.memory.NVMRegion` itself, re-exported unchanged).
  Every figure benchmark runs on it; simulated-ns latencies and miss
  counts are bit-for-bit those of the pre-protocol code.
- :class:`RawBackend` — a plain dual-image bytearray store with **no
  cache simulation and no latency model**. Same data semantics (volatile
  view vs persistent image, 8-byte-word crash granularity, dirty-line
  tracking at flush granularity), but each access is a couple of slice
  operations, which makes correctness suites and production-style KV
  workloads several times faster. Latency/miss counters stay zero.
- :class:`ShardedBackend` — a container of N independent per-shard
  backends with aggregated statistics and per-shard crash injection.
  It is deliberately *not* one flat address space: shard independence
  (crash one, keep serving the rest) is the property the routing layer
  :class:`~repro.core.sharded.ShardedTable` builds on.

Because both concrete single-region backends follow the same program-
order event semantics (stores dirty data, ``clflush`` persists it,
crash schedules decide the fate of unflushed 8-byte words), a table
driven identically on a :class:`SimBackend` and a :class:`RawBackend`
reaches identical persistent states — the parity property pinned by
``tests/test_backends.py``.
"""

from __future__ import annotations

import copy
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from repro.nvm.crash import CrashSchedule, drop_all_schedule
from repro.nvm.memory import (
    ATOMIC_UNIT,
    CACHELINE,
    Allocation,
    CrashReport,
    NVMRegion,
    SimulatedPowerFailure,
    _U64,
    crash_lines,
    unpersisted_runs,
)
from repro.nvm.observers import ObserverHandle, ObserverList
from repro.nvm.stats import MemStats


@runtime_checkable
class MemoryBackend(Protocol):
    """Structural type of a persistent-memory substrate.

    Anything that provides this surface can host every table, the undo
    log, the KV store, and the benchmark runner. The contract mirrors
    x86 + NVDIMM semantics: stores land in a volatile view, ``clflush``
    moves whole lines to the persistent image, ``mfence`` orders, and a
    :meth:`crash` consults a :class:`~repro.nvm.crash.CrashSchedule` at
    8-byte-word granularity for everything still unflushed.
    """

    # -- identity ------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable region name (used in error messages)."""
        ...

    @property
    def size(self) -> int:
        """Backend capacity in bytes."""
        ...

    @property
    def line_size(self) -> int:
        """Flush granularity in bytes (the cacheline)."""
        ...

    @property
    def stats(self) -> MemStats:
        """Event counters; simulation-free backends keep latency and
        cache counters at zero but still count program-issued events."""
        ...

    def clock_ns(self) -> float:
        """The backend's simulated clock in ns. Costed backends report
        their latency model's ``sim_time_ns``; un-costed ones a
        deterministic surrogate that advances with every store, flush
        and fence. Callers use it for deltas and window timestamps."""
        ...

    # -- observation ---------------------------------------------------

    def observe(self, fn: Callable[[str, int, int], None]) -> ObserverHandle:
        """Call ``fn(kind, addr, size)`` for every "write" / "flush" /
        "fence" event, in program order, until the handle is closed.
        Observers never change the event stream."""
        ...

    @property
    def event_hook(self) -> Callable[[str, int, int], None] | None:
        """Read-only dispatcher over the observers; ``None`` when none
        is attached (the backends' fast-path test)."""
        ...

    # -- allocation ----------------------------------------------------

    def alloc(self, nbytes: int, *, align: int = ATOMIC_UNIT, label: str = "") -> int:
        """Bump-allocate ``nbytes`` with the given alignment; returns the
        byte address of the extent."""
        ...

    @property
    def bytes_allocated(self) -> int:
        """High-water mark of the bump allocator."""
        ...

    @property
    def abandoned_bytes(self) -> int:
        """Bytes allocated but no longer reachable from any live
        structure (the bump allocator never reuses space, so growth
        machinery reports its garbage here instead of leaking silently)."""
        ...

    def mark_abandoned(self, nbytes: int) -> None:
        """Record ``nbytes`` of allocated space as permanently
        unreachable."""
        ...

    # -- data path -----------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes from the volatile view."""
        ...

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data``; durable only after a flush (or crash luck)."""
        ...

    def read_u64(self, addr: int) -> int:
        """Load an 8-byte little-endian unsigned integer."""
        ...

    def write_u64(self, addr: int, value: int) -> None:
        """Store an 8-byte little-endian unsigned integer."""
        ...

    def write_atomic_u64(self, addr: int, value: int) -> None:
        """The paper's failure-atomic 8-byte store (asserts alignment)."""
        ...

    # -- bulk probes ---------------------------------------------------

    def scan_clear_u64(
        self, addr: int, stride: int, count: int, mask: int = 1
    ) -> int | None:
        """Index of the first of ``count`` header words (at ``addr``,
        ``addr+stride``, ...) with ``(word & mask) == 0``, or None.

        Event semantics are *defined* as one :meth:`read_u64` per probed
        word, stopping at the first clear one — backends may accelerate
        the loop but must report the identical access sequence."""
        ...

    def scan_match(
        self,
        addr: int,
        stride: int,
        count: int,
        key: bytes,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> int | None:
        """Index of the first of ``count`` cells whose header *byte 0*
        has a ``mask`` bit set and whose bytes at ``key_offset`` equal
        ``key``, or None.

        Event semantics are one ``read(cell, key_offset + len(key))``
        per probed cell (header and key travel in one load), stopping at
        the match — the contiguous-probe read pattern of the paper's
        level-2 scan. ``mask`` must fit in the header's low byte."""
        ...

    def scan_occupied_bitmap(
        self, addr: int, stride: int, count: int, mask: int = 1
    ) -> int:
        """Bitmap of the ``mask`` bit over ``count`` strided header
        words (bit ``i`` set iff ``word(addr + i*stride) & mask``).

        Event semantics: one :meth:`read_u64` per word, full scan (no
        early exit) — the group-filter batch planners use to learn a
        whole level-2 group's occupancy in one call."""
        ...

    def scan_occupied_at(self, addrs, mask: int = 1) -> int:
        """Gather variant of :meth:`scan_occupied_bitmap` over explicit
        addresses; one :meth:`read_u64` per address, full scan."""
        ...

    def scan_match_many(
        self,
        addr: int,
        stride: int,
        count: int,
        keys,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> list[int | None]:
        """Multi-key :meth:`scan_match` over one strided window.

        Event semantics: the concatenation of the per-key
        :meth:`scan_match` sequences, in key order."""
        ...

    def scan_probe(
        self,
        addr: int,
        stride: int,
        count: int,
        key: bytes,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> tuple[int, bool] | None:
        """First strided cell that is empty or stores ``key``:
        ``(index, matched)``, or None — the linear-probing lookup.

        Event semantics: one ``read`` of header+key per probed cell,
        stopping at the empty-or-match cell."""
        ...

    def scan_clear_at(self, addrs, mask: int = 1) -> int | None:
        """Gather variant of :meth:`scan_clear_u64`; one
        :meth:`read_u64` per probed address, stopping at the first
        clear word."""
        ...

    def scan_match_at(
        self, addrs, key: bytes, *, mask: int = 1, key_offset: int = 8
    ) -> int | None:
        """Gather variant of :meth:`scan_match`; one ``read`` of
        header+key per probed address, stopping at the match."""
        ...

    def scan_match_pairs(
        self, pairs, *, mask: int = 1, key_offset: int = 8
    ) -> list[bool]:
        """Independent occupied-and-stores-key tests over ``(addr,
        key)`` pairs; one ``read`` of header+key per pair, full scan —
        the batched level-1 home-cell probe."""
        ...

    # -- persistence primitives ----------------------------------------

    def clflush(self, addr: int) -> None:
        """Flush the line containing ``addr`` to the persistent image."""
        ...

    def flush_range(self, addr: int, size: int) -> None:
        """``clflush`` every line overlapping ``[addr, addr+size)``."""
        ...

    def mfence(self) -> None:
        """Order stores (and charge the fence cost, where modelled)."""
        ...

    def persist(self, addr: int, size: int = 8) -> None:
        """The paper's ``Persist``: flush the range, then fence."""
        ...

    # -- crash/recovery ------------------------------------------------

    def arm_crash(self, after_events: int) -> None:
        """Arm a power failure ``after_events`` persistence-relevant
        events (store/flush/fence) from now."""
        ...

    def disarm_crash(self) -> None:
        """Cancel a pending armed crash."""
        ...

    def crash(self, schedule: CrashSchedule | None = None) -> CrashReport:
        """Simulate a power failure; the schedule picks which unflushed
        8-byte words survive. Afterwards the volatile view equals the
        persistent image."""
        ...

    # -- introspection (cost-free) -------------------------------------

    def peek_persistent(self, addr: int, size: int) -> bytes:
        """Read the persistent image directly (no cost charged)."""
        ...

    def peek_volatile(self, addr: int, size: int) -> bytes:
        """Read the volatile view directly (no cost charged)."""
        ...

    def unpersisted_ranges(self) -> list[tuple[int, int]]:
        """``(addr, size)`` extents where volatile and persistent images
        differ — data at risk in a crash right now."""
        ...


#: The simulator backend: the existing :class:`NVMRegion`, unchanged.
#: An alias (not a subclass) so event counts, latencies and isinstance
#: relationships are bit-for-bit those of the pre-protocol code.
SimBackend = NVMRegion

#: below this many probed cells the scalar loop beats the numpy setup
#: cost, so vectorized scans fall back to the byte-loop path
_NP_MIN_SCAN = 16

#: simulated ns :meth:`RawBackend.clock_ns` charges per store, flush
#: and fence (the backend has no latency model of its own)
_EVENT_NS = 100.0


class RawBackend:
    """Simulation-free :class:`MemoryBackend`: the fast path.

    Keeps the same two images as the simulator — volatile view and
    persistent image — and tracks *dirty lines* (stores not yet flushed)
    in a set, but runs no cache model and charges no latency. Program-
    order event semantics are identical to :class:`SimBackend`: the same
    operation sequence leaves the same dirty words at any crash point,
    which is what makes backend parity testable.

    Intended for correctness suites (crash semantics intact, ~an order
    of magnitude faster) and throughput-oriented KV serving where
    simulated nanoseconds are irrelevant.
    """

    def __init__(
        self, size: int, *, name: str = "raw", line_size: int = CACHELINE
    ) -> None:
        if size <= 0:
            raise ValueError("region size must be positive")
        if line_size <= 0 or line_size % ATOMIC_UNIT:
            raise ValueError("line_size must be a positive multiple of 8")
        self.name = name
        self.size = size
        self.line_size = line_size
        self._line = line_size
        self._persistent = bytearray(size)
        self._volatile = bytearray(size)
        #: line numbers holding stores not yet written back
        self._dirty: set[int] = set()
        self.stats = MemStats()
        self._alloc_cursor = 0
        self.allocations: list[Allocation] = []
        #: bytes allocated but no longer reachable (see
        #: :meth:`mark_abandoned`); volatile bookkeeping
        self.abandoned_bytes = 0
        self._crash_countdown: int | None = None
        self._hook: Callable[[str, int, int], None] | None = None
        # Hot-path gate: True only while an armed crash or an observer
        # needs per-event bookkeeping. Keeping this a single attribute
        # lets read/write/persist skip two attribute tests per event.
        self._slow = False
        self._observers = ObserverList()
        self._bind_views()

    def _bind_views(self) -> None:
        """Vectorized-scan views over the volatile image. numpy views
        share memory with the bytearray (crash()'s in-place reset keeps
        them valid). Short scans, masks beyond the header's low byte and
        misaligned geometry take the scalar loops instead, with
        identical results and event counts."""
        self._np_u8 = np.frombuffer(self._volatile, dtype=np.uint8)
        self._np_u64 = (
            np.frombuffer(self._volatile, dtype="<u8", count=self.size // 8)
            if self.size >= 8
            else None
        )

    def __deepcopy__(self, memo) -> "RawBackend":
        """Fork the backend: both images, the dirty set, the stats and
        the allocator are copied; observers and an armed crash are not.
        The fork keeps this instance's class and gets scan views over
        its own volatile image (copied views would read stale bytes)."""
        fork = copy.copy(self)
        memo[id(self)] = fork
        fork._persistent = bytearray(self._persistent)
        fork._volatile = bytearray(self._volatile)
        fork._dirty = set(self._dirty)
        fork.stats = copy.copy(self.stats)
        fork.allocations = list(self.allocations)
        fork._observers = ObserverList()
        fork._hook = None
        fork._crash_countdown = None
        fork._slow = False
        fork._bind_views()
        return fork

    def observe(self, fn: Callable[[str, int, int], None]) -> ObserverHandle:
        """Observe every store/flush/fence — same contract as
        :meth:`NVMRegion.observe`. While any observer is attached the
        data path leaves its no-observer fast path."""
        return self._observers.add(fn, self._set_hook)

    def _set_hook(self, hook: Callable[[str, int, int], None] | None) -> None:
        self._hook = hook
        self._slow = hook is not None or self._crash_countdown is not None

    @property
    def event_hook(self) -> Callable[[str, int, int], None] | None:
        """The observers' read-only dispatcher (``None`` when none)."""
        return self._hook

    def clock_ns(self) -> float:
        """Surrogate simulated clock: 100 ns per store, flush and fence
        issued so far (reads are free), so schedulers and samplers stay
        deterministic on this un-costed backend."""
        stats = self.stats
        return _EVENT_NS * (stats.writes + stats.flushes + stats.fences)

    def _pre_event(self, kind: str, addr: int, size: int) -> None:
        """Armed-crash tick + observer call, in the simulator's order."""
        if self._crash_countdown is not None:
            self._crash_tick()
        hook = self._hook
        if hook is not None:
            hook(kind, addr, size)

    # ------------------------------------------------------------------
    # allocation

    def alloc(self, nbytes: int, *, align: int = ATOMIC_UNIT, label: str = "") -> int:
        """Bump-allocate ``nbytes`` (same policy as the simulator)."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        if align <= 0 or align & (align - 1):
            raise ValueError(f"alignment must be a power of two, got {align}")
        addr = (self._alloc_cursor + align - 1) & ~(align - 1)
        if addr + nbytes > self.size:
            raise MemoryError(
                f"region '{self.name}' exhausted: need {nbytes} bytes at "
                f"{addr}, size {self.size}"
            )
        self._alloc_cursor = addr + nbytes
        self.allocations.append(
            Allocation(label or f"alloc{len(self.allocations)}", addr, nbytes)
        )
        return addr

    @property
    def bytes_allocated(self) -> int:
        """High-water mark of the bump allocator."""
        return self._alloc_cursor

    def mark_abandoned(self, nbytes: int) -> None:
        """Record ``nbytes`` of allocated space as permanently
        unreachable (same accounting as the simulator)."""
        if nbytes < 0:
            raise ValueError("abandoned byte count must be non-negative")
        self.abandoned_bytes += nbytes

    # ------------------------------------------------------------------
    # crash arming (same countdown semantics as the simulator)

    def arm_crash(self, after_events: int) -> None:
        """Arm a power failure ``after_events`` store/flush/fence events
        from now (identical countdown semantics to the simulator)."""
        if after_events <= 0:
            raise ValueError("after_events must be positive")
        self._crash_countdown = after_events
        self._slow = True

    def disarm_crash(self) -> None:
        """Cancel a pending armed crash."""
        self._crash_countdown = None
        self._slow = self._hook is not None

    def _crash_tick(self) -> None:
        countdown = self._crash_countdown
        if countdown is None:
            return
        countdown -= 1
        if countdown <= 0:
            self._crash_countdown = None
            self._slow = self._hook is not None
            raise SimulatedPowerFailure("armed crash point reached")
        self._crash_countdown = countdown

    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise IndexError(
                f"access [{addr}, {addr + size}) outside region of size {self.size}"
            )

    # ------------------------------------------------------------------
    # data path

    def read(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes from the volatile view."""
        if addr < 0 or size < 0 or addr + size > self.size:
            self._check_range(addr, size)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += size
        return bytes(self._volatile[addr : addr + size])

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data`` (dirty until flushed)."""
        size = len(data)
        if addr < 0 or addr + size > self.size:
            self._check_range(addr, size)
        if self._slow:
            self._pre_event("write", addr, size)
        line = self._line
        first = addr // line
        last = (addr + size - 1) // line
        if first == last:
            self._dirty.add(first)
        else:
            self._dirty.update(range(first, last + 1))
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += size
        self._volatile[addr : addr + size] = data

    def read_u64(self, addr: int) -> int:
        """Load an 8-byte little-endian unsigned integer."""
        if addr < 0 or addr + 8 > self.size:
            self._check_range(addr, 8)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += 8
        return _U64.unpack_from(self._volatile, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        """Store an 8-byte little-endian unsigned integer."""
        if addr < 0 or addr + 8 > self.size:
            self._check_range(addr, 8)
        if self._slow:
            self._pre_event("write", addr, 8)
        line = self._line
        first = addr // line
        dirty = self._dirty
        dirty.add(first)
        if (addr + 7) // line != first:
            dirty.add(first + 1)
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += 8
        _U64.pack_into(self._volatile, addr, value)

    def write_atomic_u64(self, addr: int, value: int) -> None:
        """Failure-atomic 8-byte store; asserts natural alignment."""
        if addr % ATOMIC_UNIT:
            raise ValueError(
                f"atomic write requires {ATOMIC_UNIT}-byte alignment, got addr {addr}"
            )
        self.write_u64(addr, value)

    # ------------------------------------------------------------------
    # bulk probes

    def _np_strided_headers(self, addr: int, stride: int, count: int):
        """Strided u64 view of ``count`` header words, or None when the
        geometry does not allow a u64 view (misaligned or odd stride)."""
        if self._np_u64 is None or addr % 8 or stride % 8:
            return None
        step = stride // 8
        word = addr // 8
        return self._np_u64[word : word + (count - 1) * step + 1 : step]

    def scan_clear_u64(
        self, addr: int, stride: int, count: int, mask: int = 1
    ) -> int | None:
        """First of ``count`` strided header words with no ``mask`` bit.

        Accelerated over the volatile image — one vectorized filter when
        numpy is available and the scan is long enough to amortize the
        setup, a local byte loop otherwise; either way it reports the
        identical per-word read events the reference loop would."""
        if count <= 0:
            return None
        if addr < 0 or stride < 8 or addr + (count - 1) * stride + 8 > self.size:
            raise IndexError(
                f"scan [{addr}, +{stride}*{count}] outside region of size {self.size}"
            )
        found = None
        probed = count
        if count >= _NP_MIN_SCAN:
            headers = self._np_strided_headers(addr, stride, count)
            if headers is not None:
                hits = np.flatnonzero((headers & mask) == 0)
                if hits.size:
                    found = int(hits[0])
                    probed = found + 1
                stats = self.stats
                stats.reads += probed
                stats.bytes_read += 8 * probed
                return found
        volatile = self._volatile
        unpack = _U64.unpack_from
        for i in range(count):
            if not unpack(volatile, addr)[0] & mask:
                found, probed = i, i + 1
                break
            addr += stride
        stats = self.stats
        stats.reads += probed
        stats.bytes_read += 8 * probed
        return found

    def scan_match(
        self,
        addr: int,
        stride: int,
        count: int,
        key: bytes,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> int | None:
        """First of ``count`` strided cells that is occupied (header byte
        0 & ``mask``) and stores ``key`` at ``key_offset``.

        Accelerated: the header byte is tested as a plain ``bytearray``
        index and the key sliced only for occupied cells; read events
        are counted exactly as the reference per-cell loop would."""
        if count <= 0:
            return None
        size = key_offset + len(key)
        if addr < 0 or stride < 8 or addr + (count - 1) * stride + size > self.size:
            raise IndexError(
                f"scan [{addr}, +{stride}*{count}] outside region of size {self.size}"
            )
        found = None
        probed = count
        if count >= _NP_MIN_SCAN:
            match = self._np_match_vector(
                addr, stride, count, key, mask=mask, key_offset=key_offset
            )
            if match is not None:
                hits = np.flatnonzero(match)
                if hits.size:
                    found = int(hits[0])
                    probed = found + 1
                stats = self.stats
                stats.reads += probed
                stats.bytes_read += size * probed
                return found
        volatile = self._volatile
        for i in range(count):
            if volatile[addr] & mask and (
                volatile[addr + key_offset : addr + size] == key
            ):
                found, probed = i, i + 1
                break
            addr += stride
        stats = self.stats
        stats.reads += probed
        stats.bytes_read += size * probed
        return found

    def _np_match_vector(
        self,
        addr: int,
        stride: int,
        count: int,
        key: bytes,
        *,
        mask: int,
        key_offset: int,
    ):
        """Vectorized occupied-and-stores-key boolean vector over a
        strided window, or None when the geometry defeats both the u64
        fast path and the generic 2D view (``mask`` beyond the low
        byte). The common cell layout (8-byte header, 8-byte key,
        8-aligned stride) compares whole key words in one pass."""
        if mask >= 256:
            return None
        if len(key) == 8 and key_offset == 8 and not (addr % 8 or stride % 8):
            step = stride // 8
            word = addr // 8
            stop = word + (count - 1) * step + 1
            u64 = self._np_u64
            headers = u64[word:stop:step]
            keys = u64[word + 1 : stop + 1 : step]
            return ((headers & mask) != 0) & (keys == int.from_bytes(key, "little"))
        size = key_offset + len(key)
        window = self._np_u8[addr : addr + (count - 1) * stride + size]
        rows = np.lib.stride_tricks.as_strided(
            window, shape=(count, size), strides=(stride, 1)
        )
        occupied = (rows[:, 0] & mask) != 0
        wanted = np.frombuffer(key, dtype=np.uint8)
        return occupied & (rows[:, key_offset:] == wanted).all(axis=1)

    def scan_occupied_bitmap(
        self, addr: int, stride: int, count: int, mask: int = 1
    ) -> int:
        """Bitmap of the ``mask`` bit over ``count`` strided header
        words; full scan, one read event per word (see the reference
        implementation on :class:`SimBackend`)."""
        if count <= 0:
            return 0
        if addr < 0 or stride < 8 or addr + (count - 1) * stride + 8 > self.size:
            raise IndexError(
                f"scan [{addr}, +{stride}*{count}] outside region of size {self.size}"
            )
        stats = self.stats
        stats.reads += count
        stats.bytes_read += 8 * count
        if count >= _NP_MIN_SCAN and mask < 256:
            bits = (
                self._np_u8[addr : addr + (count - 1) * stride + 1 : stride] & mask
            ) != 0
            return int.from_bytes(
                np.packbits(bits, bitorder="little").tobytes(), "little"
            )
        volatile = self._volatile
        bitmap = 0
        if mask < 256:
            for i in range(count):
                if volatile[addr] & mask:
                    bitmap |= 1 << i
                addr += stride
            return bitmap
        unpack = _U64.unpack_from
        for i in range(count):
            if unpack(volatile, addr)[0] & mask:
                bitmap |= 1 << i
            addr += stride
        return bitmap

    def scan_occupied_at(self, addrs, mask: int = 1) -> int:
        """Gather occupancy bitmap over explicit header addresses; full
        scan, one read event per address."""
        n = len(addrs)
        if n == 0:
            return 0
        stats = self.stats
        stats.reads += n
        stats.bytes_read += 8 * n
        if n >= _NP_MIN_SCAN and mask < 256:
            index = np.asarray(addrs, dtype=np.intp)
            bits = (self._np_u8[index] & mask) != 0
            return int.from_bytes(
                np.packbits(bits, bitorder="little").tobytes(), "little"
            )
        volatile = self._volatile
        bitmap = 0
        if mask < 256:
            for i, addr in enumerate(addrs):
                if volatile[addr] & mask:
                    bitmap |= 1 << i
            return bitmap
        unpack = _U64.unpack_from
        for i, addr in enumerate(addrs):
            if unpack(volatile, addr)[0] & mask:
                bitmap |= 1 << i
        return bitmap

    def scan_match_many(
        self,
        addr: int,
        stride: int,
        count: int,
        keys,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> list[int | None]:
        """Multi-key :meth:`scan_match` over one strided window; each
        key's scan is individually accelerated and events concatenate
        in key order exactly as the reference does."""
        return [
            self.scan_match(
                addr, stride, count, key, mask=mask, key_offset=key_offset
            )
            for key in keys
        ]

    def scan_probe(
        self,
        addr: int,
        stride: int,
        count: int,
        key: bytes,
        *,
        mask: int = 1,
        key_offset: int = 8,
    ) -> tuple[int, bool] | None:
        """First strided cell that is empty or stores ``key`` (the
        linear-probing lookup), with reference read accounting."""
        if count <= 0:
            return None
        size = key_offset + len(key)
        if addr < 0 or stride < 8 or addr + (count - 1) * stride + size > self.size:
            raise IndexError(
                f"scan [{addr}, +{stride}*{count}] outside region of size {self.size}"
            )
        result = None
        probed = count
        if count >= _NP_MIN_SCAN and mask < 256:
            empty = (
                self._np_u8[addr : addr + (count - 1) * stride + 1 : stride] & mask
            ) == 0
            match = self._np_match_vector(
                addr, stride, count, key, mask=mask, key_offset=key_offset
            )
            hits = np.flatnonzero(empty | match)
            if hits.size:
                first = int(hits[0])
                result = (first, bool(match[first]))
                probed = first + 1
            stats = self.stats
            stats.reads += probed
            stats.bytes_read += size * probed
            return result
        volatile = self._volatile
        for i in range(count):
            if not volatile[addr] & mask:
                result, probed = (i, False), i + 1
                break
            if volatile[addr + key_offset : addr + size] == key:
                result, probed = (i, True), i + 1
                break
            addr += stride
        stats = self.stats
        stats.reads += probed
        stats.bytes_read += size * probed
        return result

    def scan_clear_at(self, addrs, mask: int = 1) -> int | None:
        """First explicit header address with no ``mask`` bit (the
        path-hashing insert probe), with reference read accounting."""
        n = len(addrs)
        if n == 0:
            return None
        found = None
        probed = n
        if n >= _NP_MIN_SCAN and mask < 256:
            index = np.asarray(addrs, dtype=np.intp)
            hits = np.flatnonzero((self._np_u8[index] & mask) == 0)
            if hits.size:
                found = int(hits[0])
                probed = found + 1
        else:
            volatile = self._volatile
            unpack = _U64.unpack_from
            for i, addr in enumerate(addrs):
                if not unpack(volatile, addr)[0] & mask:
                    found, probed = i, i + 1
                    break
        stats = self.stats
        stats.reads += probed
        stats.bytes_read += 8 * probed
        return found

    def scan_match_at(
        self, addrs, key: bytes, *, mask: int = 1, key_offset: int = 8
    ) -> int | None:
        """First explicit address holding an occupied cell that stores
        ``key`` (the path-hashing lookup probe)."""
        n = len(addrs)
        if n == 0:
            return None
        size = key_offset + len(key)
        found = None
        probed = n
        if n >= _NP_MIN_SCAN and mask < 256 and len(key) == 8 and key_offset == 8:
            index = np.asarray(addrs, dtype=np.intp)
            if not (index % 8).any():
                occupied = (self._np_u8[index] & mask) != 0
                keys = self._np_u64[(index + 8) >> 3]
                hits = np.flatnonzero(
                    occupied & (keys == int.from_bytes(key, "little"))
                )
                if hits.size:
                    found = int(hits[0])
                    probed = found + 1
                stats = self.stats
                stats.reads += probed
                stats.bytes_read += size * probed
                return found
        volatile = self._volatile
        for i, addr in enumerate(addrs):
            if volatile[addr] & mask and (
                volatile[addr + key_offset : addr + size] == key
            ):
                found, probed = i, i + 1
                break
        stats = self.stats
        stats.reads += probed
        stats.bytes_read += size * probed
        return found

    def scan_match_pairs(
        self, pairs, *, mask: int = 1, key_offset: int = 8
    ) -> list[bool]:
        """Batched independent home-cell probes over ``(addr, key)``
        pairs; full scan, one read event per pair."""
        n = len(pairs)
        if n == 0:
            return []
        if n >= _NP_MIN_SCAN and mask < 256 and key_offset == 8:
            keys = [key for _, key in pairs]
            if all(len(key) == 8 for key in keys):
                index = np.asarray([addr for addr, _ in pairs], dtype=np.intp)
                if not (index % 8).any():
                    occupied = (self._np_u8[index] & mask) != 0
                    stored = self._np_u64[(index + 8) >> 3]
                    wanted = np.frombuffer(b"".join(keys), dtype="<u8")
                    out = (occupied & (stored == wanted)).tolist()
                    stats = self.stats
                    stats.reads += n
                    stats.bytes_read += sum(8 + len(k) for k in keys)
                    return out
        volatile = self._volatile
        out: list[bool] = []
        total_bytes = 0
        for addr, key in pairs:
            size = key_offset + len(key)
            total_bytes += size
            out.append(
                bool(volatile[addr] & mask)
                and volatile[addr + key_offset : addr + size] == key
            )
        stats = self.stats
        stats.reads += n
        stats.bytes_read += total_bytes
        return out

    # ------------------------------------------------------------------
    # persistence primitives

    def clflush(self, addr: int) -> None:
        """Write the line containing ``addr`` back to the persistent
        image (idempotent for clean lines)."""
        if addr < 0 or addr + 1 > self.size:
            self._check_range(addr, 1)
        if self._slow:
            self._pre_event("flush", addr, self._line)
        stats = self.stats
        stats.flushes += 1
        line_size = self._line
        line = addr // line_size
        dirty = self._dirty
        if line in dirty:
            dirty.remove(line)
            start = line * line_size
            end = start + line_size
            if end > self.size:
                end = self.size
            self._persistent[start:end] = self._volatile[start:end]
            stats.writebacks += 1
            stats.nvm_line_writes += 1
            stats.nvm_bytes_written += end - start
            stats.dirty_flushes += 1

    def flush_range(self, addr: int, size: int) -> None:
        """``clflush`` every line overlapping ``[addr, addr+size)``."""
        if size <= 0:
            return
        self._check_range(addr, size)
        line = self._line
        first = addr // line
        last = (addr + size - 1) // line
        for ln in range(first, last + 1):
            self.clflush(ln * line)

    def mfence(self) -> None:
        """Order stores (a no-op for correctness here; counts the event
        so crash countdowns stay aligned with the simulator)."""
        if self._slow:
            self._pre_event("fence", 0, 0)
        self.stats.fences += 1

    sfence = mfence

    def persist(self, addr: int, size: int = 8) -> None:
        """Flush the range, then fence — the paper's ``Persist``.

        Fused re-implementation of ``flush_range`` + ``mfence`` (the
        hottest call in the commit discipline: three per insert). Event
        order — per-line flush ticks, then the fence tick — is exactly
        the simulator's, so armed crashes fire at the same point."""
        if size > 0:
            if addr < 0 or addr + size > self.size:
                self._check_range(addr, size)
            line_size = self._line
            first = addr // line_size
            last = (addr + size - 1) // line_size
            slow = self._slow
            stats = self.stats
            dirty = self._dirty
            volatile = self._volatile
            persistent = self._persistent
            for ln in range(first, last + 1):
                if slow:
                    self._pre_event("flush", ln * line_size, line_size)
                stats.flushes += 1
                if ln in dirty:
                    dirty.remove(ln)
                    start = ln * line_size
                    end = start + line_size
                    if end > self.size:
                        end = self.size
                    persistent[start:end] = volatile[start:end]
                    stats.writebacks += 1
                    stats.nvm_line_writes += 1
                    stats.nvm_bytes_written += end - start
                    stats.dirty_flushes += 1
        if self._slow:
            self._pre_event("fence", 0, 0)
        self.stats.fences += 1

    # ------------------------------------------------------------------
    # crash/recovery

    def crash(self, schedule: CrashSchedule | None = None) -> CrashReport:
        """Simulate a power failure with the same word-granular semantics
        as the simulator: for every dirty line the schedule picks which
        modified 8-byte words reach the persistent image."""
        self._crash_countdown = None
        report = crash_lines(
            self._volatile,
            self._persistent,
            sorted(self._dirty),
            self._line,
            self.size,
            schedule or drop_all_schedule(),
        )
        self._dirty.clear()
        return report

    # ------------------------------------------------------------------
    # introspection

    def peek_persistent(self, addr: int, size: int) -> bytes:
        """Read the persistent image directly (no cost)."""
        self._check_range(addr, size)
        return bytes(self._persistent[addr : addr + size])

    def peek_volatile(self, addr: int, size: int) -> bytes:
        """Read the volatile view directly (no cost)."""
        self._check_range(addr, size)
        return bytes(self._volatile[addr : addr + size])

    def unpersisted_ranges(self) -> list[tuple[int, int]]:
        """``(addr, size)`` extents where the two images differ.

        Only dirty lines can differ, so the scan is bounded by the dirty
        set rather than the region size."""
        return unpersisted_runs(
            self._volatile, self._persistent, sorted(self._dirty), self._line, self.size
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RawBackend(name={self.name!r}, size={self.size}, "
            f"allocated={self._alloc_cursor})"
        )


class ShardedBackend:
    """N independent per-shard backends with aggregated accounting.

    Each shard is a full :class:`MemoryBackend` (any implementation)
    created by ``factory(shard_index)``. The container adds what a
    sharded system needs on top: a merged statistics view, per-shard or
    global crash injection, and stable iteration for recovery sweeps.
    Shards fail independently — crashing one leaves the others' caches
    and dirty data untouched, which :class:`~repro.core.sharded.ShardedTable`
    exploits for partial-failure recovery.
    """

    def __init__(
        self, n_shards: int, factory: Callable[[int], "MemoryBackend"]
    ) -> None:
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        self.shards: list[MemoryBackend] = [factory(i) for i in range(n_shards)]
        self.name = f"sharded[{n_shards}]"

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    def shard(self, index: int) -> "MemoryBackend":
        """The backend serving shard ``index``."""
        if not 0 <= index < len(self.shards):
            raise IndexError(f"shard {index} out of range [0, {len(self.shards)})")
        return self.shards[index]

    def __iter__(self):
        """Iterate over the per-shard backends in shard order."""
        return iter(self.shards)

    @property
    def size(self) -> int:
        """Total capacity across shards, in bytes."""
        return sum(s.size for s in self.shards)

    @property
    def bytes_allocated(self) -> int:
        """Total allocator high-water mark across shards."""
        return sum(s.bytes_allocated for s in self.shards)

    @property
    def abandoned_bytes(self) -> int:
        """Total unreachable (abandoned) bytes across shards."""
        return sum(s.abandoned_bytes for s in self.shards)

    @property
    def stats(self) -> MemStats:
        """Element-wise sum of every shard's counters (a fresh snapshot;
        mutating it does not affect the shards)."""
        return MemStats.merged_all(s.stats for s in self.shards)

    def clock_ns(self) -> float:
        """Sum of the shards' simulated clocks."""
        return sum(s.clock_ns() for s in self.shards)

    def observe(self, fn: Callable[[str, int, int], None]) -> ObserverHandle:
        """Observe every shard's events (one handle closes them all)."""
        handles = [s.observe(fn) for s in self.shards]
        return ObserverHandle(lambda: [h.close() for h in handles])

    def crash(
        self,
        schedule: CrashSchedule | None = None,
        *,
        shard: int | None = None,
    ) -> list[CrashReport]:
        """Power-fail one shard (``shard=i``) or all of them.

        Returns one :class:`CrashReport` per crashed shard, in shard
        order. Un-crashed shards are untouched — their caches stay warm
        and their unflushed data stays at risk."""
        targets = self.shards if shard is None else [self.shard(shard)]
        return [s.crash(schedule) for s in targets]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedBackend(n_shards={self.n_shards}, size={self.size})"
