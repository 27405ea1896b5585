"""Per-cacheline wear tracking (paper Section 2.1).

NVM cells endure a bounded number of writes (Table 1: 10^8 for PCM up
to 10^15 for STT-MRAM). The paper argues its design "of eliminating
duplicate copy writes to NVMs can be combined with wear-leveling
schemes to further lengthen NVM's lifetime" but never measures write
distribution; this extension does.

:class:`WearMap` counts medium writes per cacheline (a write reaches the
medium only on flush or dirty eviction, which is where the counter
hooks). :meth:`WearMap.report` summarises total traffic, hottest lines,
and the concentration of wear — an undo log, for instance, focuses its
writes on the log head lines, a hot spot a wear-leveler would have to
rotate away.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.nvm.observers import ObserverHandle, ObserverList


@dataclass(frozen=True)
class WearReport:
    """Summary of medium-write wear across a region."""

    #: total line writes to the medium
    total_line_writes: int
    #: number of distinct lines ever written
    lines_touched: int
    #: write count of the most-written line
    max_line_writes: int
    #: mean writes over touched lines
    mean_line_writes: float
    #: fraction of all writes absorbed by the hottest 1% of touched lines
    hot1pct_share: float
    #: Gini coefficient of writes over touched lines — 0.0 is perfectly
    #: level wear, 1.0 is all writes on one line
    gini: float = 0.0

    @property
    def imbalance(self) -> float:
        """max/mean over touched lines — 1.0 is perfectly level wear."""
        if not self.mean_line_writes:
            return 0.0
        return self.max_line_writes / self.mean_line_writes

    def lifetime_fraction(self, endurance: float) -> float:
        """Fraction of the hottest line's endurance consumed."""
        return self.max_line_writes / endurance


class WearMap:
    """Numpy-backed per-line write counters for one region."""

    def __init__(self, size: int, line_size: int) -> None:
        if size <= 0 or line_size <= 0:
            raise ValueError("size and line_size must be positive")
        self.line_size = line_size
        self._counts = np.zeros((size + line_size - 1) // line_size, dtype=np.int64)
        self._dispatch: Callable[[int], None] | None = None
        self._observers = ObserverList()

    def __deepcopy__(self, memo) -> "WearMap":
        """A fork: the counters are copied, the observers are not."""
        fork = WearMap.__new__(WearMap)
        fork.line_size = self.line_size
        fork._counts = self._counts.copy()
        fork._dispatch = None
        fork._observers = ObserverList()
        return fork

    def observe(self, fn: Callable[[int], None]) -> ObserverHandle:
        """Call ``fn(line)`` for every recorded medium write until the
        handle is closed — how the window sampler feeds its wear-heat
        series; purely observational, never touches the backend."""
        return self._observers.add(fn, self._set_dispatch)

    def _set_dispatch(self, dispatch: Callable[[int], None] | None) -> None:
        self._dispatch = dispatch

    def record(self, line: int) -> None:
        """Count one medium write of ``line``."""
        self._counts[line] += 1
        if self._dispatch is not None:
            self._dispatch(line)

    def line_writes(self, line: int) -> int:
        """Write count of one line."""
        return int(self._counts[line])

    def counts(self) -> np.ndarray:
        """Copy of the raw per-line counters."""
        return self._counts.copy()

    def hottest(self, n: int = 10) -> list[tuple[int, int]]:
        """The ``n`` most-written lines as (line, writes), hottest first."""
        order = np.argsort(self._counts)[::-1][:n]
        return [(int(i), int(self._counts[i])) for i in order if self._counts[i] > 0]

    def report(self) -> WearReport:
        """Summarise the current wear distribution."""
        counts = self._counts
        touched = counts[counts > 0]
        total = int(counts.sum())
        if touched.size == 0:
            return WearReport(0, 0, 0, 0.0, 0.0, 0.0)
        hot_n = max(1, touched.size // 100)
        ascending = np.sort(touched)
        hottest = ascending[::-1][:hot_n]
        # Gini over touched lines via the sorted-rank identity:
        # G = 2 Σ i·x_(i) / (n Σ x) − (n + 1)/n, with x ascending
        n = touched.size
        ranks = np.arange(1, n + 1, dtype=np.int64)
        gini = float(
            2.0 * int((ranks * ascending).sum()) / (n * total) - (n + 1) / n
        )
        return WearReport(
            total_line_writes=total,
            lines_touched=int(n),
            max_line_writes=int(touched.max()),
            mean_line_writes=float(touched.mean()),
            hot1pct_share=float(hottest.sum() / total),
            gini=gini,
        )

    def reset(self) -> None:
        """Zero all counters (e.g. after a wear-leveling rotation)."""
        self._counts[:] = 0


def export_wear_metrics(region, metrics, *, prefix: str = "wear") -> WearReport | None:
    """Publish a region's wear summary into a metrics registry.

    Sets ``<prefix>.*`` gauges (total/touched/max/mean line writes,
    imbalance, Gini, hot-1% share) from ``region.wear`` so wear shows
    up in ``profile`` and ``timeline`` output next to every other
    metric, not only in the dedicated wear tests. Gauges merge by
    ``max`` across workers, which is the conservative (worst-region)
    combination for wear. Returns the report, or ``None`` when the
    region tracks no wear (then nothing is published)."""
    wear = getattr(region, "wear", None)
    if wear is None or metrics is None:
        return None
    report = wear.report()
    metrics.gauge(f"{prefix}.total_line_writes").set(report.total_line_writes)
    metrics.gauge(f"{prefix}.lines_touched").set(report.lines_touched)
    metrics.gauge(f"{prefix}.max_line_writes").set(report.max_line_writes)
    metrics.gauge(f"{prefix}.mean_line_writes").set(report.mean_line_writes)
    metrics.gauge(f"{prefix}.imbalance").set(report.imbalance)
    metrics.gauge(f"{prefix}.gini").set(report.gini)
    metrics.gauge(f"{prefix}.hot1pct_share").set(report.hot1pct_share)
    return report

