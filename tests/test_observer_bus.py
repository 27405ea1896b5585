"""The observer bus: observers attach and detach in any order.

Every observer of a backend (tracer, window sampler, crash-trace
recorder, scheduler attribution) and of a wear map registers through
``observe(fn)`` and leaves through ``handle.close()``. Detaching one
must never silence another, whatever the order, and once the last one
is gone the backend's dispatcher is ``None`` again — the raw backend
back on its no-observer fast path.
"""

from __future__ import annotations

import itertools

import pytest

from repro.core.sharded import ShardedTable
from repro.nvm import NVMRegion, RawBackend, SimConfig
from repro.nvm.crashpoint import Op, record_trace
from repro.nvm.wear import WearMap
from repro.obs import FlightRecorder, Tracer, WindowSampler, WindowSeries

OBSERVERS = ("tracer", "sampler", "recorder")

#: store/flush/fence events one phase issues (write_u64 + persist)
EVENTS_PER_PHASE = 3


def _make(backend: str):
    if backend == "sim":
        return NVMRegion(1 << 16, SimConfig(track_wear=True))
    return RawBackend(1 << 16)


class _PhaseHarness:
    """A crash harness whose every op is one observed phase; after each
    op it runs the test's between-phase hook (checks and detaches)."""

    def __init__(self, region, run_phase) -> None:
        self.crash_backend = region
        self._run_phase = run_phase

    def apply(self, op) -> bool:
        self._run_phase(int.from_bytes(op.key, "little"))
        return True


@pytest.mark.parametrize("backend", ["sim", "raw"])
@pytest.mark.parametrize("order", list(itertools.permutations(OBSERVERS)), ids="-".join)
def test_detach_in_any_order_keeps_every_other_observer(backend, order):
    region = _make(backend)
    addr = region.alloc(64, align=64)
    tracks_wear = region.__class__ is NVMRegion
    tracer = Tracer(region)
    series = WindowSeries(1_000.0)
    sampler = WindowSampler(series)
    sampler.attach(region)
    flight = FlightRecorder(event_capacity=64)
    detach = {"tracer": tracer.detach, "sampler": sampler.detach}
    attached = set(OBSERVERS) - {"recorder"}

    def counts() -> dict:
        return {
            "tracer": sum(tracer.untracked_events.values()),
            "sampler": sum(
                sum(series.counter_values(name))
                for name in ("writes", "flushes", "fences")
            ),
            "wear": sum(series.heat_totals("wear_heat")),
            "recorder": flight.events_seen,
        }

    def run_phase(i: int) -> None:
        before = counts()
        region.write_u64(addr, i + 1)
        region.persist(addr, 8)
        after = counts()
        for name in OBSERVERS:
            expected = EVENTS_PER_PHASE if name in attached else 0
            got = after[name] - before[name]
            assert got == expected, f"phase {i}: {name} saw {got} events"
        wear = 1 if tracks_wear and "sampler" in attached else 0
        assert after["wear"] - before["wear"] == wear, f"phase {i}: wear heat"
        if i < len(order) and order[i] != "recorder":
            detach[order[i]]()
            attached.discard(order[i])

    # the recorder observes the record_trace run, which ends right after
    # the phase at its position in the detach order
    stop = order.index("recorder")
    attached.add("recorder")
    trace = record_trace(
        _PhaseHarness(region, run_phase),
        [Op("insert", i.to_bytes(8, "little"), b"v" * 8) for i in range(stop + 1)],
        recorder=flight,
    )
    attached.discard("recorder")
    for i in range(stop + 1, len(OBSERVERS)):
        run_phase(i)
    run_phase(len(OBSERVERS))  # nobody left: no deliveries anywhere

    recorded = EVENTS_PER_PHASE * (stop + 1)
    assert trace.n_events == recorded
    assert trace.op_end_events == [EVENTS_PER_PHASE * (i + 1) for i in range(stop + 1)]
    assert flight.events_seen == recorded
    assert region.event_hook is None
    if backend == "raw":
        assert region._slow is False


def test_handle_close_is_idempotent_and_targets_one_registration():
    region = RawBackend(1 << 12)
    seen = []

    def fn(kind, addr, size):
        seen.append(kind)

    first = region.observe(fn)
    second = region.observe(fn)  # the same function, registered twice
    region.write_u64(0, 1)
    assert seen == ["write", "write"]
    first.close()
    first.close()  # a second close removes nothing more
    region.write_u64(0, 2)
    assert seen == ["write", "write", "write"]
    # one observer left: the dispatcher is the observer itself
    assert region.event_hook is fn
    second.close()
    assert region.event_hook is None and region._slow is False


def test_event_hook_is_read_only():
    for region in (NVMRegion(1 << 12), RawBackend(1 << 12)):
        with pytest.raises(AttributeError):
            region.event_hook = lambda *a: None


def test_wear_map_observers_detach_in_any_order():
    wear = WearMap(1 << 12, 64)
    a, b = [], []
    handle_a = wear.observe(a.append)
    handle_b = wear.observe(b.append)
    wear.record(3)
    handle_a.close()
    wear.record(4)
    handle_b.close()
    wear.record(5)
    assert a == [3] and b == [3, 4]
    assert wear.line_writes(5) == 1


def test_sharded_observe_fans_out_and_one_handle_closes_all():
    st = ShardedTable(512, n_shards=2, seed=5)
    events = []
    handle = st.backend.observe(lambda kind, addr, size: events.append(kind))
    for i in range(40):
        st.insert(i.to_bytes(8, "little"), b"v" * 8)
    shards_hit = {st.shard_of(i.to_bytes(8, "little")) for i in range(40)}
    assert len(shards_hit) == 2 and events
    handle.close()
    n = len(events)
    st.insert((99).to_bytes(8, "little"), b"v" * 8)
    assert len(events) == n
    assert all(st.backend.shard(i).event_hook is None for i in range(2))


def test_backend_clocks():
    sim = NVMRegion(1 << 12)
    raw = RawBackend(1 << 12)
    for region in (sim, raw):
        region.write_u64(0, 1)
        region.read_u64(0)
        region.persist(0, 8)
    assert sim.clock_ns() == float(sim.stats.sim_time_ns) > 0
    # 100 ns per store, flush and fence; reads are free
    assert raw.clock_ns() == 300.0
