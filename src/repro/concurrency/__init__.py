"""Deterministic multi-client concurrency over the simulated clock.

The paper's consistency argument (and every driver up to PR 7) assumes
one writer at a time; a serving system has N interleaved clients. This
package adds that layer without giving up determinism:

- :mod:`repro.concurrency.locks` — volatile group/bucket-level
  *versioned locks* (seqlock discipline: odd = writer in the group)
  plus per-stripe one-byte *fingerprint* multisets, the Dash recipe for
  lock-free optimistic reads that validate a version+fingerprint
  snapshot and retry on conflict;
- :mod:`repro.concurrency.kernel` — the heap-ordered discrete-event
  kernel that drives step-generator clients and timed events on the
  simulated clock, plus the shadow oracle every driver checks against;
- :mod:`repro.concurrency.scheduler` — N logical clients, each a step
  generator over its op stream, interleaved on the kernel with a seeded
  tie-break, context-switching at simulated-clock boundaries. Every run
  is a pure function of (table, streams, seed): byte-replayable across
  processes and worker counts, which is what lets the bench engine
  cache contention cells and the crash matrix replay mid-interleaving
  boundaries bit-for-bit.

Tables advertise their lock granularity via
:meth:`~repro.tables.base.PersistentHashTable.lock_stripes` (the group
hash table maps a key to its candidate *groups* — the paper's natural
locking unit); the scheduler owns the lock table and the per-client
cost attribution (an observer on the region, see
:meth:`~repro.nvm.backend.MemoryBackend.observe`).
"""

from repro.concurrency.locks import VersionedLockTable, fingerprint_of
from repro.concurrency.scheduler import (
    ClientOp,
    CommitRecord,
    ConcurrentRunResult,
    run_concurrent,
    table_digest,
)

__all__ = [
    "ClientOp",
    "CommitRecord",
    "ConcurrentRunResult",
    "VersionedLockTable",
    "fingerprint_of",
    "run_concurrent",
    "table_digest",
]
