"""CPU availability for sizing in-process pools.

TreeMatch runs as one serial bottom-up pass (each pair reads cells
that earlier pairs scaled), so the matcher itself never fans out.
Concurrency comes from callers running independent matches side by
side — the serving layer's ``MatchService`` session pool sizes itself
from :func:`available_cpu_count` when asked for one session per CPU.
"""

from __future__ import annotations

import os


def available_cpu_count() -> int:
    """CPUs actually available to this process.

    ``os.cpu_count()`` reports the machine, not the cgroup/affinity
    limits a container imposes — auto-sized pools would then
    oversubscribe a 2-core cgroup on a 64-core host. Prefer
    ``os.process_cpu_count()`` (3.13+), fall back to the scheduler
    affinity mask, and only then to the raw count."""
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        count = getter()
        if count:
            return count
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - platform quirk
            pass
    return os.cpu_count() or 1
