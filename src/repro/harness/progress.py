"""Live sweep progress: one line per job completion, with a wall-clock ETA.

The reporter is deliberately plain (append-only lines on stderr, no cursor
tricks) so it reads the same in a terminal, a CI log, and a pipe.  The ETA
assumes the remaining jobs cost about the mean of the completed ones and
divides by the worker count — crude, but it converges quickly on the
homogeneous grids sweeps are made of.
"""

from __future__ import annotations

import sys
import time


class SweepProgress:
    """Counts job outcomes and renders ``[done/total]`` lines."""

    def __init__(self, total: int, workers: int = 1, enabled: bool = True) -> None:
        self.total = total
        self.workers = max(1, workers)
        self.enabled = enabled
        self.done = 0
        self.failed = 0
        self.cpu_seconds = 0.0
        self.started = time.monotonic()

    def _emit(self, line: str) -> None:
        if self.enabled:
            print(line, file=sys.stderr, flush=True)

    def skipped(self, count: int) -> None:
        if count:
            self.done += count
            self._emit(f"[{self.done}/{self.total}] "
                       f"{count} run(s) already complete, skipped (resume)")

    def finished(self, run_id: str, status: str, elapsed: float) -> None:
        self.done += 1
        if status != "ok":
            self.failed += 1
        self.cpu_seconds += elapsed
        self._emit(f"[{self.done}/{self.total}] {run_id}: {status} "
                   f"({elapsed:.1f}s){self._eta()}")

    def _eta(self) -> str:
        remaining = self.total - self.done
        if remaining <= 0 or self.done <= self.failed:
            return ""
        mean = self.cpu_seconds / max(1, self.done - self.failed)
        return f" — eta {remaining * mean / self.workers:.0f}s"

    def summary(self, skipped: int = 0) -> str:
        wall = time.monotonic() - self.started
        parts = [f"{self.done - self.failed}/{self.total} ok"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if skipped:
            parts.append(f"{skipped} skipped")
        return f"sweep finished: {', '.join(parts)} in {wall:.1f}s " \
               f"({self.workers} worker(s))"


def null_progress(total: int) -> "SweepProgress":
    """A disabled reporter (used by tests and library callers)."""
    return SweepProgress(total, enabled=False)
