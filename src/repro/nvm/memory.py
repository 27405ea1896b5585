"""Byte-addressable simulated NVM region.

:class:`NVMRegion` is the substrate every hash table in this repository
runs on. It keeps two images of the memory:

- the **volatile view** — what loads return; includes writes still
  sitting in the simulated CPU cache;
- the **persistent image** — what survives :meth:`NVMRegion.crash`;
  updated only when a dirty line is ``clflush``-ed or evicted.

Data paths mirror x86 + NVDIMM semantics: stores dirty a cacheline,
``clflush`` writes the line to the medium *and invalidates it* (charging
the paper's +300 ns emulation penalty), ``mfence`` orders — in this
sequential simulator, ordering is already program order, so the fence
only charges its cost. Crash semantics are delegated to a
:class:`~repro.nvm.crash.CrashSchedule` at 8-byte-word granularity.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field

from repro.nvm.cache import CacheConfig, CacheSim
from repro.nvm.crash import CrashSchedule, drop_all_schedule
from repro.nvm.latency import PAPER_NVM, LatencyModel
from repro.nvm.observers import ObserverHandle, ObserverList
from repro.nvm.stats import MemStats
from repro.nvm.wear import WearMap

#: x86 cacheline size; also the alignment unit for table layouts.
CACHELINE = 64

#: failure-atomicity unit of NVM (paper Section 2.2)
ATOMIC_UNIT = 8

_U64 = struct.Struct("<Q")


class SimulatedPowerFailure(RuntimeError):
    """Raised mid-operation when an armed crash point trips.

    Crash-consistency tests arm a countdown with
    :meth:`NVMRegion.arm_crash`, run an operation, catch this exception,
    and then call :meth:`NVMRegion.crash` to materialise the power
    failure with a chosen schedule.
    """


@dataclass(frozen=True)
class SimConfig:
    """Bundle of latency model + cache geometry for one region."""

    latency: LatencyModel = PAPER_NVM
    cache: CacheConfig = field(default_factory=CacheConfig)
    #: ``clflush`` (True) vs ``clwb`` (False) semantics for persist;
    #: the paper's hardware has only ``clflush``, which invalidates.
    flush_invalidates: bool = True
    #: count medium writes per line (endurance analysis, Section 2.1);
    #: off by default — it adds a counter bump to every writeback
    track_wear: bool = False


@dataclass
class CrashReport:
    """What a simulated crash did to in-flight (unflushed) data."""

    #: dirty lines resident in the cache at crash time
    dirty_lines: int = 0
    #: 8-byte words whose new value reached the persistent image
    words_persisted: int = 0
    #: 8-byte words whose new value was lost
    words_dropped: int = 0

    @property
    def torn(self) -> bool:
        """Whether the crash both persisted and dropped data (a "torn"
        state, the hardest case for recovery)."""
        return self.words_persisted > 0 and self.words_dropped > 0


@dataclass(frozen=True)
class Allocation:
    """One named extent handed out by :meth:`NVMRegion.alloc`."""

    label: str
    addr: int
    size: int


def crash_lines(
    volatile, persistent, lines, line_size: int, size: int, schedule
) -> CrashReport:
    """Power-fail both images: in each of ``lines`` (in order), the
    schedule picks which differing 8-byte words reach the persistent
    image; the volatile view then becomes the persistent image."""
    report = CrashReport()
    for line in lines:
        start = line * line_size
        dirty_words = [
            off
            for off in range(start, min(start + line_size, size), ATOMIC_UNIT)
            if volatile[off : off + ATOMIC_UNIT] != persistent[off : off + ATOMIC_UNIT]
        ]
        if not dirty_words:
            continue
        report.dirty_lines += 1
        persisted = set(schedule.words_persisted(start, dirty_words))
        for off in dirty_words:
            if off in persisted:
                persistent[off : off + ATOMIC_UNIT] = volatile[off : off + ATOMIC_UNIT]
                report.words_persisted += 1
            else:
                report.words_dropped += 1
    volatile[:] = persistent
    return report


def unpersisted_runs(
    volatile, persistent, lines, line_size: int, size: int
) -> list[tuple[int, int]]:
    """``(addr, size)`` runs of 8-byte words that differ between the two
    images, scanning only ``lines`` (ascending line numbers that cover
    every differing word). Runs join across adjacent lines."""
    diffs: list[tuple[int, int]] = []
    run_start = run_end = -1
    for line in lines:
        start = line * line_size
        for off in range(start, min(start + line_size, size), ATOMIC_UNIT):
            end = off + ATOMIC_UNIT
            if volatile[off:end] == persistent[off:end]:
                continue
            if off != run_end:
                if run_start >= 0:
                    diffs.append((run_start, run_end - run_start))
                run_start = off
            run_end = min(end, size)
    if run_start >= 0:
        diffs.append((run_start, run_end - run_start))
    return diffs


class NVMRegion:
    """A simulated persistent memory region with a cache in front.

    All addresses are offsets into the region. Use :meth:`alloc` to carve
    named extents (tables allocate their levels and metadata blocks this
    way) and the ``read``/``write``/``persist`` family for data access.

    ``__slots__`` covers the base class; subclasses (e.g.
    :class:`~repro.nvm.wearlevel.WearLevelledRegion`) may still add
    attributes — they get a ``__dict__`` of their own.
    """

    __slots__ = (
        "name",
        "size",
        "config",
        "_latency",
        "_persistent",
        "_volatile",
        "cache",
        "stats",
        "_line",
        "_alloc_cursor",
        "allocations",
        "_crash_countdown",
        "abandoned_bytes",
        "wear",
        "_observers",
        "_hook",
        "_prev_line",
        "_fast_line",
    )

    def __init__(
        self,
        size: int,
        config: SimConfig | None = None,
        *,
        name: str = "nvm",
    ) -> None:
        if size <= 0:
            raise ValueError("region size must be positive")
        self.name = name
        self.size = size
        self.config = config or SimConfig()
        self._latency = self.config.latency
        self._persistent = bytearray(size)
        self._volatile = bytearray(size)
        self.cache = CacheSim(self.config.cache)
        self.stats = MemStats()
        self._line = self.config.cache.line_size
        self._alloc_cursor = 0
        self.allocations: list[Allocation] = []
        self._crash_countdown: int | None = None
        #: bytes allocated but no longer reachable from any live structure
        #: (half-built expansion tables, orphaned split segments, retired
        #: directory arrays). The bump allocator never reuses space, so
        #: leaks are permanent — this counter makes them auditable instead
        #: of silent. Volatile bookkeeping: it does not survive a real
        #: reboot, but within one process it bounds the waste.
        self.abandoned_bytes = 0
        self.wear: WearMap | None = (
            WearMap(size, self._line) if self.config.track_wear else None
        )
        # observers of "write" / "flush" / "fence" events (see
        # :meth:`observe`); _hook is their derived dispatcher
        self._hook = None
        self._observers = ObserverList()
        # sequential-stream prefetcher state: the last line touched; a
        # miss on line N+1 right after touching line N is treated as
        # prefetch-covered (see LatencyModel.prefetch_hit_ns)
        self._prev_line = -(1 << 30)
        # fast-path marker: the last line run through the cache, which
        # is therefore resident and in MRU position until something
        # invalidates it (clflush of that line, or a crash). Distinct
        # from _prev_line, which is prefetcher state and must NOT be
        # cleared on invalidation.
        self._fast_line = -1

    def __deepcopy__(self, memo) -> "NVMRegion":
        """Fork the region: both images, the cache state, the stats, the
        allocator, the wear counters and a subclass's own attributes are
        copied; observers and an armed crash are not. The fork keeps
        this instance's class, so a per-instance subclass (a tracer's)
        follows it."""
        fork = copy.copy(self)
        memo[id(self)] = fork
        fork._persistent = bytearray(self._persistent)
        fork._volatile = bytearray(self._volatile)
        fork.cache = copy.deepcopy(self.cache, memo)
        fork.stats = copy.copy(self.stats)
        fork.allocations = list(self.allocations)
        fork.wear = copy.deepcopy(self.wear, memo)
        fork._observers = ObserverList()
        fork._hook = None
        fork._crash_countdown = None
        extra = getattr(self, "__dict__", None)
        if extra:
            fork.__dict__.update(copy.deepcopy(extra, memo))
        return fork

    # ------------------------------------------------------------------
    # allocation

    def alloc(self, nbytes: int, *, align: int = ATOMIC_UNIT, label: str = "") -> int:
        """Bump-allocate ``nbytes`` with the given alignment.

        This is deliberately a linear allocator: the paper's structures
        are all allocated once at table-creation time, and a linear
        allocator keeps each structure contiguous — which is the property
        group sharing exploits.
        """
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
        unreachable (e.g. a half-built expansion table after a failed
        rebuild, or a split segment orphaned by a crash)."""
        if nbytes < 0:
            raise ValueError("abandoned byte count must be non-negative")
        self.abandoned_bytes += nbytes

    @property
    def line_size(self) -> int:
        """Flush granularity in bytes (the cacheline)."""
        return self._line

    # ------------------------------------------------------------------
    # observation

    def observe(self, fn) -> ObserverHandle:
        """Call ``fn(kind, addr, size)`` for every "write" / "flush" /
        "fence" event, in program order, until the returned handle is
        closed. Tests use it to assert persist *ordering* (e.g.
        Algorithm 1 flushes the key-value bytes before the bitmap store
        issues); tracers, samplers and schedulers attach the same way.
        Observers never change the simulated event stream."""
        return self._observers.add(fn, self._set_hook)

    def _set_hook(self, hook) -> None:
        self._hook = hook

    @property
    def event_hook(self):
        """The observers' read-only dispatcher: ``None`` when nothing
        observes this region."""
        return self._hook

    def clock_ns(self) -> float:
        """The region's simulated clock: :attr:`MemStats.sim_time_ns`."""
        return float(self.stats.sim_time_ns)

    # ------------------------------------------------------------------
    # cache plumbing

    def _writeback(self, line: int) -> None:
        """Copy one cacheline from the volatile view to the persistent
        image (the medium-write half of a flush or eviction)."""
        start = line * self._line
        end = min(start + self._line, self.size)
        self._persistent[start:end] = self._volatile[start:end]
        self.stats.writebacks += 1
        self.stats.nvm_line_writes += 1
        self.stats.nvm_bytes_written += end - start
        if self.wear is not None:
            self.wear.record(line)

    def _touch(self, addr: int, size: int, is_write: bool) -> None:
        """Run the touched line range through the cache simulator and
        charge hit/fill costs."""
        line_size = self._line
        first = addr // line_size
        last = (addr + size - 1) // line_size
        stats = self.stats
        latency = self._latency
        if first == last:
            # single-line access — the overwhelmingly common case (cells
            # never straddle lines), kept free of the range loop
            if first == self._fast_line:
                # repeat of the line touched last: still resident and in
                # MRU position (nothing else was accessed since), so
                # this is a hit with no possible eviction — skip the LRU
                # reorder and only upgrade the dirty flag
                self.cache.touch_mru(first, is_write)
                stats.cache_hits += 1
                stats.sim_time_ns += latency.cache_hit_ns
                return
            hit, evicted = self.cache.access(first, is_write=is_write)
            if hit:
                stats.cache_hits += 1
                stats.sim_time_ns += latency.cache_hit_ns
            elif first == self._prev_line + 1:
                # forward unit-stride miss: the stream prefetcher has
                # already pulled this line — cheap, and not a demand miss
                stats.prefetched_fills += 1
                stats.nvm_line_reads += 1
                stats.sim_time_ns += latency.prefetch_hit_ns
            else:
                stats.cache_misses += 1
                stats.nvm_line_reads += 1
                stats.sim_time_ns += latency.line_fill_ns
            self._prev_line = first
            self._fast_line = first
            if evicted is not None:
                victim, victim_dirty = evicted
                stats.evictions += 1
                if victim_dirty:
                    self._writeback(victim)
                    stats.sim_time_ns += latency.eviction_writeback_ns
            return
        for line in range(first, last + 1):
            hit, evicted = self.cache.access(line, is_write=is_write)
            if hit:
                stats.cache_hits += 1
                stats.sim_time_ns += latency.cache_hit_ns
            elif line == self._prev_line + 1:
                # forward unit-stride miss: the stream prefetcher has
                # already pulled this line — cheap, and not a demand miss
                stats.prefetched_fills += 1
                stats.nvm_line_reads += 1
                stats.sim_time_ns += latency.prefetch_hit_ns
            else:
                stats.cache_misses += 1
                stats.nvm_line_reads += 1
                stats.sim_time_ns += latency.line_fill_ns
            self._prev_line = line
            if evicted is not None:
                victim, victim_dirty = evicted
                stats.evictions += 1
                if victim_dirty:
                    self._writeback(victim)
                    stats.sim_time_ns += latency.eviction_writeback_ns
        # the final line is the one most recently run through the cache
        self._fast_line = last

    def _check_range(self, addr: int, size: int) -> None:
        if addr < 0 or size < 0 or addr + size > self.size:
            raise IndexError(
                f"access [{addr}, {addr + size}) outside region of size {self.size}"
            )

    # ------------------------------------------------------------------
    # crash injection

    def arm_crash(self, after_events: int) -> None:
        """Arm a power failure that fires just before the ``after_events``-th
        subsequent *persistence-relevant* event (store, flush, or fence).

        Counting stores as well as flushes lets the fuzzer land crashes
        between a write and its flush — the window where torn data is
        possible."""
        if after_events <= 0:
            raise ValueError("after_events must be positive")
        self._crash_countdown = after_events

    def disarm_crash(self) -> None:
        """Cancel a pending armed crash (if it has not fired)."""
        self._crash_countdown = None

    def _crash_tick(self) -> None:
        if self._crash_countdown is None:
            return
        self._crash_countdown -= 1
        if self._crash_countdown <= 0:
            self._crash_countdown = None
            raise SimulatedPowerFailure("armed crash point reached")

    # ------------------------------------------------------------------
    # data path

    def read(self, addr: int, size: int) -> bytes:
        """Load ``size`` bytes from the volatile view."""
        if addr < 0 or size < 0 or addr + size > self.size:
            self._check_range(addr, size)
        self._touch(addr, size, False)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += size
        return bytes(self._volatile[addr : addr + size])

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data``; it lands in the cache, not yet in NVM."""
        size = len(data)
        if addr < 0 or size < 0 or addr + size > self.size:
            self._check_range(addr, size)
        if self._crash_countdown is not None:
            self._crash_tick()
        if self._hook is not None:
            self._hook("write", addr, size)
        self._touch(addr, size, True)
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += size
        self._volatile[addr : addr + size] = data

    def read_u64(self, addr: int) -> int:
        """Load an 8-byte little-endian unsigned integer.

        Hot path of every header probe (:meth:`scan_clear_u64` funnels
        here), so the base class unpacks straight from the volatile
        view instead of slicing a ``bytes`` through :meth:`read`.
        Subclasses that remap addresses (wear leveling) get the
        polymorphic :meth:`read` route; events are identical either way.
        """
        if self.__class__ is not NVMRegion:
            return _U64.unpack(self.read(addr, 8))[0]
        if addr < 0 or addr + 8 > self.size:
            self._check_range(addr, 8)
        self._touch(addr, 8, False)
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += 8
        return _U64.unpack_from(self._volatile, addr)[0]

    def write_u64(self, addr: int, value: int) -> None:
        """Store an 8-byte little-endian unsigned integer."""
        self.write(addr, _U64.pack(value))

    def write_atomic_u64(self, addr: int, value: int) -> None:
        """The paper's 8-byte failure-atomic write.

        Requires natural alignment so the word cannot straddle two
        atomicity units. Semantically identical to :meth:`write_u64`
        (the crash model already guarantees aligned 8-byte words never
        tear); the separate name asserts alignment and documents intent
        at every commit point in the hashing schemes.
        """
        if addr % ATOMIC_UNIT:
            raise ValueError(
                f"atomic write requires {ATOMIC_UNIT}-byte alignment, got addr {addr}"
            )
        self.write_u64(addr, value)

    # ------------------------------------------------------------------
    # bulk probes (reference event semantics for every backend)

    def scan_clear_u64(
        self, addr: int, stride: int, count: int, mask: int = 1
    ) -> int | None:
        """Index of the first of ``count`` strided header words with
        ``(word & mask) == 0``, or None.

        This loop of :meth:`read_u64` calls *is* the contract: the cache
        behaviour, latency and event counts of a bulk probe are exactly
        those of probing each word in turn and stopping at the first
        clear one. Fast backends reimplement the loop natively."""
        read_u64 = self.read_u64
        for i in range(count):
            if not read_u64(addr) & mask:
                return i
            addr += stride
        return None

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
        """Index of the first of ``count`` strided cells that is occupied
        (header byte 0 & ``mask``) and stores ``key`` at ``key_offset``.

        Reference semantics: one ``read`` of header+key per probed cell
        (a single simulated load — they travel together), stopping at
        the match. This is the access pattern of the paper's contiguous
        level-2 group scan."""
        size = key_offset + len(key)
        for i in range(count):
            raw = self.read(addr, size)
            if raw[0] & mask and raw[key_offset:] == key:
                return i
            addr += stride
        return None

    def scan_occupied_bitmap(
        self, addr: int, stride: int, count: int, mask: int = 1
    ) -> int:
        """Bitmap of the ``mask`` bit over ``count`` strided header words:
        bit ``i`` of the result is set iff ``word(addr + i*stride) & mask``.

        Reference semantics: one :meth:`read_u64` per header word — a
        *full* scan with no early exit, which is what batch planners need
        (they want the whole group's occupancy in one call)."""
        read_u64 = self.read_u64
        bitmap = 0
        for i in range(count):
            if read_u64(addr) & mask:
                bitmap |= 1 << i
            addr += stride
        return bitmap

    def scan_occupied_at(self, addrs, mask: int = 1) -> int:
        """Gather variant of :meth:`scan_occupied_bitmap`: bit ``i`` of
        the result reflects the header word at ``addrs[i]``.

        Reference semantics: one :meth:`read_u64` per address, full scan."""
        read_u64 = self.read_u64
        bitmap = 0
        for i, addr in enumerate(addrs):
            if read_u64(addr) & mask:
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
        """Multi-key :meth:`scan_match` over one strided window: for each
        key in ``keys``, the index of its first matching cell (or None).

        Reference semantics are the concatenation of the per-key
        :meth:`scan_match` event sequences, in key order."""
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
        """First of ``count`` strided cells that is *empty* (header byte 0
        has no ``mask`` bit) or occupied and storing ``key``: returns
        ``(index, matched)``, or None when every cell is occupied by
        other keys. The linear-probing lookup pattern.

        Reference semantics: one ``read`` of header+key per probed cell,
        stopping at the empty-or-match cell."""
        size = key_offset + len(key)
        for i in range(count):
            raw = self.read(addr, size)
            if not raw[0] & mask:
                return i, False
            if raw[key_offset:] == key:
                return i, True
            addr += stride
        return None

    def scan_clear_at(self, addrs, mask: int = 1) -> int | None:
        """Gather variant of :meth:`scan_clear_u64`: index of the first
        address in ``addrs`` whose header word has no ``mask`` bit.

        Reference semantics: one :meth:`read_u64` per probed address,
        stopping at the first clear one — the path-hashing insert probe,
        whose candidate cells live in separate per-level arrays."""
        read_u64 = self.read_u64
        for i, addr in enumerate(addrs):
            if not read_u64(addr) & mask:
                return i
        return None

    def scan_match_at(
        self, addrs, key: bytes, *, mask: int = 1, key_offset: int = 8
    ) -> int | None:
        """Gather variant of :meth:`scan_match`: index of the first
        address in ``addrs`` holding an occupied cell that stores ``key``.

        Reference semantics: one ``read`` of header+key per probed
        address, stopping at the match."""
        size = key_offset + len(key)
        for i, addr in enumerate(addrs):
            raw = self.read(addr, size)
            if raw[0] & mask and raw[key_offset:] == key:
                return i
        return None

    def scan_match_pairs(
        self, pairs, *, mask: int = 1, key_offset: int = 8
    ) -> list[bool]:
        """Independent occupied-and-matches tests over ``(addr, key)``
        pairs; element ``i`` of the result is True iff the cell at
        ``pairs[i][0]`` is occupied and stores ``pairs[i][1]``.

        Reference semantics: one ``read`` of header+key per pair (a full
        scan — every pair is tested). This is the batched level-1 probe:
        one call filters a whole batch's home cells."""
        out: list[bool] = []
        for addr, key in pairs:
            raw = self.read(addr, key_offset + len(key))
            out.append(bool(raw[0] & mask) and raw[key_offset:] == key)
        return out

    # ------------------------------------------------------------------
    # persistence primitives

    def clflush(self, addr: int) -> None:
        """Flush (and, with ``clflush`` semantics, invalidate) the line
        containing ``addr``. A dirty line pays the NVM write penalty."""
        self._check_range(addr, 1)
        self._crash_tick()
        if self._hook is not None:
            self._hook("flush", addr, self._line)
        line = addr // self._line
        if self.config.flush_invalidates:
            was_cached, was_dirty = self.cache.flush(line)
            if line == self._fast_line:
                # the invalidated line is no longer resident; the
                # prefetcher state (_prev_line) deliberately survives
                self._fast_line = -1
        else:
            was_dirty = self.cache.writeback(line)
            was_cached = was_dirty or self.cache.contains(line)
        self.stats.flushes += 1
        if was_dirty:
            self._writeback(line)
            self.stats.dirty_flushes += 1
        self.stats.sim_time_ns += self._latency.flush_cost(was_dirty)

    def flush_range(self, addr: int, size: int) -> None:
        """``clflush`` every line overlapping ``[addr, addr+size)``."""
        if size <= 0:
            return
        self._check_range(addr, size)
        first = addr // self._line
        last = (addr + size - 1) // self._line
        for line in range(first, last + 1):
            self.clflush(line * self._line)

    def mfence(self) -> None:
        """Memory fence: orders stores (a no-op for correctness in this
        sequential simulator) and charges its cost."""
        self._crash_tick()
        if self._hook is not None:
            self._hook("fence", 0, 0)
        self.stats.fences += 1
        self.stats.sim_time_ns += self._latency.fence_ns

    sfence = mfence

    def persist(self, addr: int, size: int = 8) -> None:
        """The paper's ``Persist``: ``clflush`` the range, then ``mfence``."""
        self.flush_range(addr, size)
        self.mfence()

    # ------------------------------------------------------------------
    # crash/recovery support

    def crash(self, schedule: CrashSchedule | None = None) -> CrashReport:
        """Simulate a power failure.

        For every line still dirty in the cache, the schedule picks which
        modified 8-byte words reach the persistent image. Afterwards the
        volatile view is reset to the persistent image and the cache is
        cold — exactly the state recovery code sees at reboot.
        """
        self._crash_countdown = None
        report = crash_lines(
            self._volatile,
            self._persistent,
            list(self.cache.dirty_lines()),
            self._line,
            self.size,
            schedule or drop_all_schedule(),
        )
        self.cache.invalidate_all()
        self._fast_line = -1
        return report

    # ------------------------------------------------------------------
    # introspection (tests and debugging; no costs charged)

    def peek_persistent(self, addr: int, size: int) -> bytes:
        """Read the persistent image directly (no cache, no cost)."""
        self._check_range(addr, size)
        return bytes(self._persistent[addr : addr + size])

    def peek_volatile(self, addr: int, size: int) -> bytes:
        """Read the volatile view directly (no cache, no cost)."""
        self._check_range(addr, size)
        return bytes(self._volatile[addr : addr + size])

    def unpersisted_ranges(self) -> list[tuple[int, int]]:
        """Return ``(addr, size)`` extents where the volatile view and the
        persistent image differ — i.e. data that would be at risk in a
        crash right now. Only lines dirty in the cache can differ, so the
        scan is bounded by the dirty set rather than the region size."""
        return unpersisted_runs(
            self._volatile,
            self._persistent,
            sorted(self.cache.dirty_lines()),
            self._line,
            self.size,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NVMRegion(name={self.name!r}, size={self.size}, "
            f"allocated={self._alloc_cursor}, tech={self._latency.name})"
        )
