"""Parity for the vectorized scan primitives.

Every bulk-probe primitive has the simulator's read-loop reference
(:class:`NVMRegion`) and the raw backend's implementation, which takes
a numpy fast path or, for short scans, masks beyond the header's low
byte and misaligned geometry, a scalar loop. The contract is that both
paths return the reference's results **and** charge identical access
counts (``reads`` / ``bytes_read``) — an accelerated scan must account
like the reference loop it replaces, or the paper's simulated event
counts would silently drift with the input's shape.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from tests.conftest import small_region

import repro.nvm.backend as backend_module
from repro import RawBackend

STRIDE = 32
COUNT = 40
KEY_OFFSET = 8
KEY_SIZE = 8
BASE = 4096


def _fill(
    backend, occupied_mod: int = 3, dup_every: int = 11, base=BASE, stride=STRIDE
) -> None:
    """Deterministic cell array: cell i occupied iff i % occupied_mod,
    key = i (with a duplicate key every ``dup_every`` cells)."""
    for i in range(COUNT):
        addr = base + i * stride
        if i % occupied_mod:
            backend.write_u64(addr, 1 | (i << 8))
            k = (i // dup_every) * dup_every if i % dup_every == 0 else i
            backend.write(addr + KEY_OFFSET, k.to_bytes(KEY_SIZE, "little"))
        else:
            backend.write_u64(addr, i << 8)  # mask bit clear, junk above


def _backends(**fill):
    """(label, backend) pairs: sim reference, raw."""
    sim, raw = small_region(), RawBackend(4 << 20)
    for b in (sim, raw):
        _fill(b, **fill)
    return [("sim", sim), ("raw", raw)]


def _counts(backend):
    s = backend.stats
    return (s.reads, s.bytes_read)


def _assert_parity(backends, call):
    """Run ``call`` on each backend; identical result and count deltas."""
    outcomes = []
    for label, b in backends:
        before = _counts(b)
        result = call(b)
        delta = tuple(a - x for a, x in zip(_counts(b), before))
        outcomes.append((label, result, delta))
    ref_label, ref_result, ref_delta = outcomes[0]
    for label, result, delta in outcomes[1:]:
        assert result == ref_result, f"{label} result != {ref_label}"
        assert delta == ref_delta, f"{label} access counts != {ref_label}"
    return ref_result


def key_of(i: int) -> bytes:
    return i.to_bytes(KEY_SIZE, "little")


def test_scan_clear_u64_parity():
    backends = _backends()
    first_clear = _assert_parity(
        backends, lambda b: b.scan_clear_u64(BASE, STRIDE, COUNT)
    )
    assert first_clear == 0  # cell 0 is empty by construction
    # start past it: next empty is the next multiple of 3
    assert (
        _assert_parity(
            backends,
            lambda b: b.scan_clear_u64(BASE + STRIDE, STRIDE, COUNT - 1),
        )
        == 2
    )
    # all-occupied window → None, full scan charged
    _assert_parity(backends, lambda b: b.scan_clear_u64(BASE + STRIDE, STRIDE, 2))


def test_scan_match_parity():
    backends = _backends()
    hit = _assert_parity(
        backends,
        lambda b: b.scan_match(
            BASE, STRIDE, COUNT, key_of(7), key_offset=KEY_OFFSET
        ),
    )
    assert hit == 7
    # key stored in an *empty* cell's slot must not match (cell 0 empty)
    assert (
        _assert_parity(
            backends,
            lambda b: b.scan_match(
                BASE, STRIDE, COUNT, key_of(0), key_offset=KEY_OFFSET
            ),
        )
        is None
    )


def test_scan_occupied_bitmap_parity():
    backends = _backends()
    bitmap = _assert_parity(
        backends, lambda b: b.scan_occupied_bitmap(BASE, STRIDE, COUNT)
    )
    expected = sum(1 << i for i in range(COUNT) if i % 3)
    assert bitmap == expected


def test_gather_primitives_parity():
    backends = _backends()
    # scattered, deliberately unsorted address list (mix of occupancy)
    idxs = [5, 0, 17, 3, 30, 12, 9]
    addrs = [BASE + i * STRIDE for i in idxs]
    bitmap = _assert_parity(backends, lambda b: b.scan_occupied_at(addrs))
    assert bitmap == sum(1 << j for j, i in enumerate(idxs) if i % 3)
    assert _assert_parity(backends, lambda b: b.scan_clear_at(addrs)) == 1
    assert (
        _assert_parity(
            backends,
            lambda b: b.scan_match_at(addrs, key_of(17), key_offset=KEY_OFFSET),
        )
        == 2
    )
    assert (
        _assert_parity(
            backends,
            lambda b: b.scan_match_at(addrs, key_of(99), key_offset=KEY_OFFSET),
        )
        is None
    )


def test_scan_match_many_parity():
    backends = _backends()
    keys = [key_of(4), key_of(0), key_of(25), key_of(99), key_of(4)]
    result = _assert_parity(
        backends,
        lambda b: b.scan_match_many(
            BASE, STRIDE, COUNT, keys, key_offset=KEY_OFFSET
        ),
    )
    assert result == [4, None, 25, None, 4]


def test_scan_probe_parity():
    backends = _backends()
    # match before any empty cell (start at cell 1, occupied)
    assert _assert_parity(
        backends,
        lambda b: b.scan_probe(
            BASE + STRIDE, STRIDE, COUNT - 1, key_of(2), key_offset=KEY_OFFSET
        ),
    ) == (1, True)
    # empty cell before the match → (index, False)
    assert _assert_parity(
        backends,
        lambda b: b.scan_probe(
            BASE, STRIDE, COUNT, key_of(2), key_offset=KEY_OFFSET
        ),
    ) == (0, False)
    # neither in a fully-occupied window → None
    assert (
        _assert_parity(
            backends,
            lambda b: b.scan_probe(
                BASE + STRIDE, STRIDE, 2, key_of(99), key_offset=KEY_OFFSET
            ),
        )
        is None
    )


def test_scan_match_pairs_parity():
    backends = _backends()
    pairs = [
        (BASE + 7 * STRIDE, key_of(7)),  # occupied, right key
        (BASE + 7 * STRIDE, key_of(8)),  # occupied, wrong key
        (BASE + 0 * STRIDE, key_of(0)),  # empty cell
        (BASE + 25 * STRIDE, key_of(25)),
    ]
    result = _assert_parity(
        backends, lambda b: b.scan_match_pairs(pairs, key_offset=KEY_OFFSET)
    )
    assert result == [True, False, False, True]


@pytest.mark.parametrize("key_size", [8, 12])
def test_fuzz_parity(key_size):
    """Randomized occupancy/keys/windows across every primitive; the
    12-byte key exercises the generic (non-u64) raw fast path."""
    rng = random.Random(0xF00D + key_size)
    sim, raw = small_region(), RawBackend(4 << 20)
    stride = 8 + ((key_size + 7) // 8) * 8 + 8
    count = 64
    keys = []
    for i in range(count):
        addr = BASE + i * stride
        header = rng.choice([0, 1]) | (rng.getrandbits(32) << 8)
        key = rng.getrandbits(8 * key_size).to_bytes(key_size, "little")
        keys.append(key)
        for b in (sim, raw):
            b.write_u64(addr, header)
            b.write(addr + 8, key)
    backends = [("sim", sim), ("raw", raw)]
    for _ in range(40):
        start = rng.randrange(count)
        n = rng.randrange(1, count - start + 1)
        probe_key = rng.choice(keys + [b"\xff" * key_size])
        base = BASE + start * stride
        _assert_parity(backends, lambda b: b.scan_clear_u64(base, stride, n))
        _assert_parity(backends, lambda b: b.scan_occupied_bitmap(base, stride, n))
        _assert_parity(
            backends, lambda b: b.scan_match(base, stride, n, probe_key)
        )
        _assert_parity(
            backends, lambda b: b.scan_probe(base, stride, n, probe_key)
        )
        gather = [
            BASE + rng.randrange(count) * stride for _ in range(rng.randrange(1, 12))
        ]
        _assert_parity(backends, lambda b: b.scan_occupied_at(gather))
        _assert_parity(backends, lambda b: b.scan_clear_at(gather))
        _assert_parity(backends, lambda b: b.scan_match_at(gather, probe_key))
        pairs = [(a, rng.choice(keys)) for a in gather]
        _assert_parity(backends, lambda b: b.scan_match_pairs(pairs))
        many = [rng.choice(keys) for _ in range(5)]
        _assert_parity(
            backends, lambda b: b.scan_match_many(base, stride, n, many)
        )


class _NoNumpyScan:
    """Stand-in for the backend's numpy module that fails the test on
    any function a vectorized scan computes its answer with, proving a
    call ran on the scalar loop (cheap probes such as ``asarray`` on
    the way to the loop pass through)."""

    _SCAN_FUNCTIONS = frozenset({"flatnonzero", "packbits", "frombuffer", "lib"})

    def __getattr__(self, name):
        if name in self._SCAN_FUNCTIONS:
            raise AssertionError(f"numpy.{name} used on a scalar-loop input")
        return getattr(np, name)


def _calls(base, stride, count, mask):
    """Every primitive, by name, as a call on one scan geometry."""
    keys = [key_of(i) for i in (4, 0, 25, 99, 7)]
    # a scattered gather list as long as the strided scans
    addrs = [base + (7 * i) % COUNT * stride for i in range(count)]
    pairs = [(a, keys[i % len(keys)]) for i, a in enumerate(addrs)]
    return {
        "scan_clear_u64": lambda b: b.scan_clear_u64(base, stride, count, mask),
        "scan_occupied_bitmap": lambda b: b.scan_occupied_bitmap(
            base, stride, count, mask
        ),
        "scan_occupied_at": lambda b: b.scan_occupied_at(addrs, mask),
        "scan_clear_at": lambda b: b.scan_clear_at(addrs, mask),
        "scan_match": lambda b: [
            b.scan_match(base, stride, count, k, mask=mask) for k in keys
        ],
        "scan_probe": lambda b: [
            b.scan_probe(base, stride, count, k, mask=mask) for k in keys
        ],
        "scan_match_at": lambda b: [b.scan_match_at(addrs, k, mask=mask) for k in keys],
        "scan_match_many": lambda b: b.scan_match_many(
            base, stride, count, keys, mask=mask
        ),
        "scan_match_pairs": lambda b: b.scan_match_pairs(pairs, mask=mask),
    }


ALL_PRIMITIVES = frozenset(_calls(BASE, STRIDE, 1, 1))

#: inputs that select the raw backend's scalar loops: (scan base,
#: stride, count, mask) and the primitives that loop on it — scans
#: shorter than the numpy cutoff, a mask beyond the header's low byte
#: (the u64 header view still vectorizes that for scan_clear_u64), and
#: cells off the 8-byte grid (which defeats the u64 views)
SCALAR_CASES = {
    "short": ((BASE, STRIDE, 9, 1), ALL_PRIMITIVES),
    "wide-mask": (
        (BASE, STRIDE, COUNT, 1 << 8),
        ALL_PRIMITIVES - {"scan_clear_u64"},
    ),
    "misaligned": (
        (BASE + 4, STRIDE + 4, COUNT, 1),
        {"scan_clear_u64", "scan_match_at", "scan_match_pairs"},
    ),
}


@pytest.mark.parametrize("case", sorted(SCALAR_CASES))
def test_scalar_loop_parity(monkeypatch, case):
    """Every primitive matches the sim reference, result and access
    counts, on inputs the raw backend answers with its scalar loops —
    and those primitives provably compute nothing with numpy there."""
    (base, stride, count, mask), scalar = SCALAR_CASES[case]
    backends = _backends(base=base, stride=stride)
    for name, call in sorted(_calls(base, stride, count, mask).items()):
        with monkeypatch.context() as patch:
            if name in scalar:
                patch.setattr(backend_module, "np", _NoNumpyScan())
            _assert_parity(backends, call)
